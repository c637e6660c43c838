"""A/B of the benchmark: two checkouts, one workload, alternating pairs of runs.

    python tools/ab.py PARENT_DIR CHANGE_DIR WORKLOAD [--seed N]

Each of PAIRS pairs runs `perfbench/run.py --workload WORKLOAD --seed SEED
--seconds S` with this interpreter once in each checkout, with the seed
N + i (N defaults to 101) for pair i, the parent first in even pairs and the
change first in odd ones. S is BENCHMARK.json's run_seconds, the run length
the benchmark judges. Each checkout's own perfbench and src run; S, the
metrics and their directions come from PARENT_DIR's BENCHMARK.json. For each
end-to-end metric one Markdown table row follows:

    | workload | metric | parent median [q1, q3] | change median [q1, q3] | change better |

where the last column counts the pairs in which the change's value is
better (ties count for neither) and gives the change of the median in
percent. Every result line is printed as it comes, the failed operations
of all runs are summed below the table, and a run that exits non-zero stops
the A/B.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # the fewest pairs a claimed gain rests on
HEADER = ("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change better |\n|---|---|---|---|---|")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in the checkout `tree`."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds)],
                          cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def table(workload: str, end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One row per end-to-end metric (BENCHMARK.json entries) over the
    (parent, change) result lines of the pairs."""
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        base = statistics.median(parent)
        delta = (statistics.median(change) - base) / base * 100.0 if base else 0.0
        rows.append(f"| {workload} | {name} | {_summary(parent)} | {_summary(change)} "
                    f"| {wins}/{len(pairs)} ({delta:+.1f}%) |")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs, failed = [], 0
    for i in range(PAIRS):
        seed, results = args.seed + i, {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            results[side] = run_once(getattr(args, side), args.workload, seed,
                                     spec["run_seconds"])
            print(f"pair {i} seed {seed} {side}: {json.dumps(results[side])}", flush=True)
            failed += results[side]["failed"]
        pairs.append((results["parent"], results["change"]))
    print(HEADER)
    print("\n".join(table(args.workload, spec["end_to_end"], pairs)))
    print(f"failed operations over {2 * PAIRS} runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
