"""Every ```python block of README.md runs against the package as it is, and
every `rollball` command line of its ```sh blocks parses."""
import re
import shlex
from pathlib import Path

import pytest

from rollball.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
# `\` continuations joined, the shell loop variable replaced by a radius
COMMANDS = [line.strip().replace('"$rho"', "1")
            for block in re.findall(r"^```sh\n(.*?)^```$", TEXT,
                                    flags=re.MULTILINE | re.DOTALL)
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("rollball ")]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("command", COMMANDS, ids=[f"cmd{i}" for i in range(len(COMMANDS))])
def test_readme_command_line_parses(command):
    build_parser().parse_args(shlex.split(command, comments=True)[1:])
