"""Feed each output check of the benchmark a corrupted output.

    python3 perfbench/selftest.py

Every check must accept the genuine output and count each corruption as a
failed operation instead of crashing. Exit code 0 when all do, 1 otherwise.
"""
from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rollball  # noqa: E402
import rollball.serialize  # noqa: E402
import spans  # noqa: E402
from spans import RunProbe, RunSummary, Tracer  # noqa: E402
from workloads import (VERIFY_CHECKS, Ball1dWorkload, GeometryWorkload, check_curve,  # noqa: E402
                       check_offset_rows, check_sgd_curve, check_verify,
                       read_csv, trajectory_problem)

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, failures) -> None:
    """`failures` is a list of messages or a single problem string/None."""
    count = len(failures) if isinstance(failures, list) else int(failures is not None)
    RESULTS.append((label, count > 0 if "corrupt" in label else count == 0))
    print(f"{'ok ' if RESULTS[-1][1] else 'BAD'} {label}: {count} failure(s)")


def good_run(rho: float = 1.0) -> RunSummary:
    return RunSummary(optimizer="rbo", seconds=0.1, steps=2, error=None, dim=1, rho=rho,
                      max_iters=100, grad_tol=1e-8, iters=np.array([100.0, 100.0]),
                      residuals=np.array([1e-3, 1e-3]), contact_gap=0.0, record_bytes=48)


def write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows])
                    + "\n", encoding="utf-8")
    return path


def trajectories() -> None:
    expect("trajectory genuine", trajectory_problem(good_run()))
    expect("trajectory corrupt: error", trajectory_problem(replace(good_run(), error="step 3: x")))
    expect("trajectory corrupt: center off the sphere",
           trajectory_problem(replace(good_run(), contact_gap=1e-6)))


def sweep(tmp: Path) -> None:
    header = ["rho", "eta", "metric", "error"]
    rows = [[0.1 * (i + 1), 0.01, -0.5, ""] for i in range(16)]
    cells = [good_run() for _ in range(16)]
    check = Ball1dWorkload._check_sweep
    expect("sweep genuine", check(0, "", write_csv(tmp / "s.csv", header, rows), cells))
    expect("sweep genuine: no trajectories seen",
           check(0, "", write_csv(tmp / "s.csv", header, rows), []))
    bad = [r[:] for r in rows]
    bad[3][2] = "nan"
    expect("sweep corrupt: NaN cell", check(0, "", write_csv(tmp / "s.csv", header, bad), cells))
    bad = [r[:] for r in rows]
    bad[5][3] = "diverged"
    expect("sweep corrupt: error cell", check(0, "", write_csv(tmp / "s.csv", header, bad), cells))
    expect("sweep corrupt: 15 rows",
           check(0, "", write_csv(tmp / "s.csv", header, rows[:15]), cells))
    expect("sweep corrupt: exit 3", check(3, "run error", tmp / "s.csv", cells))
    bad_cells = cells[:]
    bad_cells[7] = replace(good_run(), error="step 9: diverged")
    expect("sweep corrupt: cell trajectory",
           check(0, "", write_csv(tmp / "s.csv", header, rows), bad_cells))
    expect("sweep corrupt: unreadable trajectory",
           check(0, "", write_csv(tmp / "s.csv", header, rows), [_unreadable_run()]))


def _unreadable_run() -> RunSummary:
    """What the probe keeps of a trajectory whose records it cannot read."""
    class Opaque:
        header, records, error = None, None, None

    probe = RunProbe(rollball.optimizer)
    probe._wrap(lambda landscape, *a, **k: Opaque(), "rbo")(None)
    return probe.take()[0]


def tracer() -> None:
    """A wrapped oracle field that Landscape no longer declares is reported
    as a missing span."""
    saved = spans.ORACLE_FIELDS
    spans.ORACLE_FIELDS = saved + ("fused_oracle",)
    t = Tracer()
    try:
        t.install(rollball)
    finally:
        t.uninstall()
        spans.ORACLE_FIELDS = saved
    expect("tracer corrupt: oracle field gone",
           [m for m in t.missing if m == "landscape.fused_oracle"])


def verify(tmp: Path) -> None:
    vdir = tmp / "verify"
    vdir.mkdir()

    def reports(passed: dict[str, bool]) -> None:
        for name in VERIFY_CHECKS:
            path = vdir / f"{name}.json"
            if name in passed:
                path.write_text(json.dumps({"name": name, "passed": passed[name]}))
            elif path.exists():
                path.unlink()

    reports({n: True for n in VERIFY_CHECKS})
    expect("verify genuine", check_verify(0, "", vdir, [good_run(0.1)]))
    expect("verify corrupt: exit 1", check_verify(1, "", vdir, [good_run(0.1)]))
    expect("verify corrupt: gd-limit trajectory",
           check_verify(0, "", vdir, [replace(good_run(0.1), contact_gap=1.0)]))
    reports({**{n: True for n in VERIFY_CHECKS}, "smoothing": False})
    expect("verify corrupt: failed report", check_verify(1, "", vdir, []))
    reports({n: True for n in VERIFY_CHECKS if n != "sharp-minima"})
    expect("verify corrupt: missing report", check_verify(0, "", vdir, []))
    (vdir / "sharp-minima.json").write_text("{not json")
    expect("verify corrupt: unreadable report", check_verify(0, "", vdir, []))


def offset(tmp: Path) -> None:
    ls = rollball.riemann(100)
    samples = rollball.offset_profile(ls, 1.0, 0.0, 6.3, 0.1, h=0.01)
    path = tmp / "offset.csv"
    rollball.serialize.write_offset_csv(samples, path)
    rows = read_csv(path)
    picks = [3, 40]
    expect("offset genuine", check_offset_rows(rollball, rows, picks, 1.0, 0.01))
    rows[40]["value"] = repr(float(rows[40]["value"]) + 1e-6)
    expect("offset corrupt: value moved by 1e-6",
           check_offset_rows(rollball, rows, picks, 1.0, 0.01))

    geo = GeometryWorkload(0, tmp)
    geo.setup()
    expect("offset corrupt: exit 2", geo._check_offset(rollball, 2, "config error", path))
    expect("offset corrupt: later repetition differs", _offset_repeat(geo, tmp))


def _offset_repeat(geo: GeometryWorkload, tmp: Path) -> list[str]:
    header = ["theta", "rho", "value", "grid_step"]
    rows = [[0.1 * i, 1000.0, 1001.0, 1e-4] for i in range(64)]
    geo._reference = write_csv(tmp / "o.csv", header, rows).read_bytes()
    rows[10][2] = 1001.5
    return geo._check_offset(rollball, 0, "", write_csv(tmp / "o.csv", header, rows))


def curves(tmp: Path) -> None:
    header = ["epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"]
    good = write_csv(tmp / "lc.csv", header, [[1, 2.30, 0.11, 2.31, 0.10]])
    expect("learning curve genuine", check_curve(0, "", good))
    expect("sgd curve genuine", check_sgd_curve(0, "", good, 2.33, None)[0])
    expect("learning curve corrupt: exit 3", check_curve(3, "run error", good))
    expect("learning curve corrupt: missing", check_curve(0, "", tmp / "none.csv"))
    bad = write_csv(tmp / "bad.csv", header, [[1, "nan", 0.11, 2.31, 0.10]])
    expect("learning curve corrupt: NaN loss", check_curve(0, "", bad))
    expect("sgd curve corrupt: loss not below init", check_sgd_curve(0, "", good, 2.25, None)[0])
    expect("sgd curve corrupt: differs from first run",
           check_sgd_curve(0, "", good, 2.33, b"epoch\n")[0])


def main() -> int:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        tmp = Path(tmp)
        trajectories()
        tracer()
        sweep(tmp)
        verify(tmp)
        offset(tmp)
        curves(tmp)
    bad = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)}/{len(RESULTS)} checks behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
