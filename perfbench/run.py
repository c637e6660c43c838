"""rollball benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ball1d|geometry|mlp --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Inputs
are generated from --seed. The workload's timed operations repeat until
--seconds have passed (at least MIN_REPS times); every repetition's
outputs are checked after its clock stops. Set-up (a fresh `import
rollball` plus input generation) is timed between repetitions.

With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics, measured on one
extra traced repetition whose spans are written to
perfbench/out/trace-<workload>.npz. Lines before it are a human-readable
report. Exit code 2 without a result when the package sources or
BENCHMARK.json are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: results are bitwise reproducible and the two cores of
# the reference machine are not oversubscribed. Set before numpy loads.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

from layers import per_layer  # noqa: E402
from spans import RunProbe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rollball, rollball.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """`import rollball` in a fresh interpreter, timed inside it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"]}
    try:
        import scipy
        info["scipy"] = scipy.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        info["git_sha"] = ref_file.read_text().strip() \
            if ref_file is not None and ref_file.is_file() else ref
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rollball" / "__init__.py").is_file():
        print(f"perfbench: no rollball package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rollball
    import rollball.cli
    import rollball.serialize
    if not Path(rollball.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: rollball imported from {rollball.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, rollball, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, rb, workdir: Path) -> int:
    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(args.seed, workdir)
    workload.setup()
    imports, generation = [], []

    def setup_sample() -> None:
        """One more timed set-up: a fresh import and a fresh generation of
        the same inputs in a side directory. Samples are taken between
        repetitions so that their median spans the whole run."""
        imports.append(import_seconds())
        side = workload_cls(args.seed, workdir / "setup")
        t0 = time.perf_counter()
        side.setup()
        generation.append(time.perf_counter() - t0)

    probe = RunProbe(rb.optimizer)
    probe.install()
    reps = []
    began = time.perf_counter()
    while True:
        setup_sample()
        reps.append(workload.rep(rb, probe, len(reps)))
        spent = time.perf_counter() - began
        if len(reps) >= MIN_REPS and spent + spent / len(reps) / 2 > args.seconds:
            break
    setup_sample()
    traced = None
    if args.trace:
        probe.uninstall()
        tracer = Tracer()
        tracer.install(rb)
        probe.install(tracer)
        try:
            traced = workload.rep(rb, probe, len(reps))
        finally:
            probe.uninstall()
            tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}.npz")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_reps = reps + ([traced] if traced else [])
    attempted = sum(r.attempted for r in all_reps)
    failures = [f for r in all_reps for f in r.failures]
    fidelity = workload.fidelity(rb, reps[0]) if not reps[0].failures else {}
    wall_s = statistics.median(r.wall_s for r in reps)
    workload_metrics = {
        "failed_share": len(failures) / attempted,
        "rbo_steps_per_s": median_or_zero([r.steps_per_s("rbo") for r in reps]),
        "sgd_steps_per_s": median_or_zero([r.sgd_rate() for r in reps]),
        "offset_gap_max": max((g for _, g in fidelity.get("offset_gap", [])), default=0.0),
        "sgd_train_loss": median_or_zero([r.outputs.get("sgd_train_loss") for r in reps]),
    }
    if args.trace:
        metrics = per_layer(tracer.arrays(), traced.runs, tracer.missing)
        metrics.update(workload_metrics)
        metrics["optimizer.penetration_max"] = max(
            (p for _, p in fidelity.get("penetration", [])), default=0.0)
        metrics["trace.overhead_s"] = traced.wall_s - wall_s
        metrics.update(workload.derived_layers(rb))
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": statistics.median(imports) + statistics.median(generation),
                   "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]

    report(args, reps, traced, failures, attempted, fidelity, workload_metrics,
           metrics, wanted, tracer.missing if args.trace else [])
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result), flush=True)
    return 0


def median_or_zero(values) -> float:
    """Median of the values that were measured; 0 where none were (a
    workload without that kind of operation)."""
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def report(args, reps, traced, failures, attempted, fidelity, workload_metrics,
           metrics, wanted, missing) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions"
          f"{' + 1 traced' if traced else ''}, {attempted} operations, "
          f"{len(failures)} failed")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print("repetition wall_s " + " ".join(f"{r.wall_s:.4f}" for r in reps)
          + (f" traced {traced.wall_s:.4f}" if traced else ""))
    print("operation median s " + " ".join(
        f"{op} {statistics.median(r.op_seconds[op] for r in reps):.4f}"
        for op in reps[0].op_seconds))
    for failure in failures:
        print(f"FAILED {failure}")
    for span in missing:
        print(f"missing span {span}")
    for kind, values in fidelity.items():
        for label, value in values:
            print(f"  {kind} [{label}] = {value!r}")
    for name, value in workload_metrics.items():
        print(f"  {name} = {value!r}")
    for m in wanted:
        print(f"{m['name']:40s} {metrics[m['name']]!r:>24} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
