"""The benchmark harness still runs against the package: every output check
of perfbench/ must reject its corrupted output."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "29/29" in done.stdout
