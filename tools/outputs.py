"""Write a fixed corpus of rollball outputs, or compare two such corpora.

    PYTHONPATH=src python tools/outputs.py --write DIR
    python tools/outputs.py --diff A B

--write runs one fixed set of commands through `rollball.cli.main` with the
`rollball` package on the import path (an installed one, or a tree's `src`
through PYTHONPATH) and writes their outputs under DIR:

- the six `verify` reports;
- offset dumps of riemann(100): aligned at rho=1e3 (two intervals, as the
  geometry benchmark draws them), rho=1e4, one theta at rho=1e5, and
  unaligned at rho=100 with grid step 0.0137;
- the offsets of README's quick start and Experiments section;
- each optimizer's trajectory on each catalogue landscape, as CSV and JSON;
- a 4x4 radius/step-size sweep on riemann(100), as the ball1d benchmark runs it;
- one-epoch learning curves of each optimizer on synthetic IDX digits,
  generated in process from a fixed seed;
- `exits.json`, each command line with its exit code.

To check that a change leaves every output byte-identical, write one corpus
with each tree's `src` on PYTHONPATH and diff the two. --diff prints, per
file, "identical", or the largest absolute difference of the cells that
differ and the columns (CSV) or key paths (JSON) they sit in, and exits 1
if any file differs.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

TWO_PI = repr(2 * math.pi)
SEED = 20251019
OPTIMIZERS = ("gd", "rbo", "sam", "sgd")
LANDSCAPES = ("affine_bump", "quadratic", "riemann", "sinusoid")


def commands() -> dict[str, list[str]]:
    """Output path -> the rollball argv that writes it, both relative to the corpus."""
    riemann = ["--landscape", "riemann", "--param", "n=100"]
    dumps = {
        "offset/rho1e3-aligned-0.0.csv": ["--rho", "1000", "--h", "1e-4", "--grid-step", "0.1",
                                          "--interval", f"0.0:{TWO_PI}"],
        "offset/rho1e3-aligned-2.3.csv": ["--rho", "1000", "--h", "1e-4", "--grid-step", "0.1",
                                          "--interval", f"2.3:{2.3 + 2 * math.pi!r}"],
        "offset/rho1e4.csv": ["--rho", "1e4", "--h", "1e-4", "--grid-step", "0.1",
                              "--interval", "0:6.2832"],
        "offset/rho100-unaligned.csv": ["--rho", "100", "--h", "1e-3", "--grid-step", "0.0137",
                                        "--interval", "0:6.2832"],
        "offset/rho1e5-one-theta.csv": ["--rho", "1e5", "--h", "1e-4", "--grid-step", "0.1",
                                        "--interval", "0.3:0.31"],
        "offset/readme-quickstart.csv": ["--rho", "1.0", "--interval", "0:6.2832"],
        **{f"offset/readme-rho{rho}.csv": ["--rho", rho] for rho in ("0.01", "0.1", "1", "10")},
    }
    out = {"verify": ["verify"]}
    out.update({path: ["offset", *riemann, *args] for path, args in dumps.items()})
    for opt in OPTIMIZERS:
        for name in LANDSCAPES:
            for fmt in ("csv", "json"):
                out[f"trajectory/{opt}-{name}.{fmt}"] = [
                    "trajectory", "--landscape", name, "--optimizer", opt, "--theta0", "2.0",
                    "--steps", "100", "--seed", "0", "--format", fmt]
    # the benchmark's ball1d sweep, at one fixed start and seed
    out["sweep/riemann-4x4.csv"] = ["sweep", *riemann, "--theta0", "2.0", "--rho-count", "4",
                                    "--eta-count", "4", "--steps", "100", "--seed", "0"]
    for opt in OPTIMIZERS:
        out[f"train/{opt}.csv"] = ["train", "--optimizer", opt, "--data-dir", "digits",
                                   "--epochs", "1", "--split", "512", "--seed", "0"]
    return {path: [*argv, "--out", path] for path, argv in out.items()}


def write_digits(root: Path, train: int = 768, test: int = 256) -> None:
    """Sparse 28x28 uint8 images labelled by a random linear teacher, as IDX files."""
    rng = np.random.default_rng(SEED)
    n = train + test
    images = (rng.integers(1, 256, (n, 784)) * (rng.random((n, 784)) < 0.2)).astype(np.uint8)
    labels = np.argmax(images @ rng.standard_normal((784, 10)), axis=1).astype(np.uint8)
    root.mkdir(parents=True, exist_ok=True)
    for prefix, rows in (("train", slice(0, train)), ("t10k", slice(train, n))):
        part = images[rows]
        (root / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 2051, len(part), 28, 28) + part.tobytes())
        (root / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 2049, len(part)) + labels[rows].tobytes())


def write(root: Path) -> int:
    import rollball
    from rollball.cli import main

    print(f"rollball from {Path(rollball.__file__).parent}")
    root.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(root)  # every path in the commands is relative to the corpus
    try:
        write_digits(Path("digits"))
        exits = {}
        for path, argv in commands().items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                exits[path] = {"argv": argv, "exit": main(argv)}
            print(f"{exits[path]['exit']}  {path}")
        Path("exits.json").write_text(json.dumps(exits, indent=1) + "\n")
    finally:
        os.chdir(home)
    return 0


def _cells(path: Path) -> dict[tuple, str]:
    """(row, column) -> text of a CSV file, or (key path,) -> leaf of a JSON file."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        head = rows[0] if rows else []
        return {(i, head[k] if k < len(head) else k): v
                for i, row in enumerate(rows[1:]) for k, v in enumerate(row)}
    leaves = {}

    def walk(node, key: str) -> None:
        if isinstance(node, (dict, list)):
            for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(v, f"{key}.{k}" if key else str(k))
        else:
            leaves[(key,)] = node
    walk(json.loads(path.read_text()), "")
    return leaves


def _gap(a, b) -> float:
    """|a - b| for two numbers (or numeric texts), inf for anything else that differs."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    return 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)


def diff(a: Path, b: Path) -> int:
    names = sorted({p.relative_to(r) for r in (a, b) for p in r.rglob("*") if p.is_file()})
    moved_files = 0
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            line = f"only in {a if pa.is_file() else b}"
        elif pa.read_bytes() == pb.read_bytes():
            line = "identical"
        elif name.suffix not in (".csv", ".json"):
            line = "differs (binary)"
        else:
            ca, cb = _cells(pa), _cells(pb)
            gaps = {key: _gap(ca.get(key), cb.get(key)) for key in ca.keys() | cb.keys()
                    if ca.get(key) != cb.get(key)}
            cols = sorted({str(key[-1]) for key, g in gaps.items() if g > 0})
            line = (f"max |diff| {max(gaps.values(), default=0.0):.3g} in {', '.join(cols)}"
                    if cols else "same values, different text")
        moved_files += line != "identical"
        print(f"{name}: {line}")
    print(f"{len(names) - moved_files} of {len(names)} files identical")
    return 1 if moved_files else 0


def cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="DIR", type=Path, help="write the corpus into DIR")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), type=Path,
                       help="compare two corpora file by file")
    args = parser.parse_args(argv)
    return write(args.write) if args.write else diff(*args.diff)


if __name__ == "__main__":
    sys.exit(cli())
