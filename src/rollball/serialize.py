"""Deterministic writers for every file the package emits.

All CSV files share one dialect: comma separator, '.' decimal point, one
header row, LF line endings. Floats are written with repr, which is
shortest-round-trip exact, so identical runs produce byte-identical files.
JSON output is strict (no NaN/Infinity literals); non-finite measurements
serialize as null.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import OffsetSamples
from .neural import EpochStats
from .optimizer import StepRecord, Trajectory
from .verify import CheckReport


def _num(x) -> str:
    """Exact text form: ints bare, floats via repr (round-trip exact)."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: str | Path, header: Sequence[str],
               rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def trajectory_columns(dim: int) -> list[str]:
    """Header row for a d-dimensional trajectory CSV, in StepRecord order."""
    return (["t"] + [f"theta_{i}" for i in range(dim)] + ["loss"]
            + [f"center_{i}" for i in range(dim + 1)]
            + ["grad_norm", "projection_iters", "projection_residual"])


def _record_row(r: StepRecord) -> list[str]:
    return ([str(r.t)] + [_num(v) for v in r.theta] + [_num(r.loss)]
            + [_num(v) for v in r.center]
            + [_num(r.grad_norm), str(r.projection_iters),
               _num(r.projection_residual)])


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """One StepRecord per row. Header metadata and the error flag live in
    the JSON form; a partial trajectory still writes its recorded rows."""
    _write_csv(path, trajectory_columns(len(traj.records[0].theta)),
               map(_record_row, traj.records))


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {
        "header": {
            "optimizer": traj.header.optimizer,
            "landscape": traj.header.landscape,
            "seed": traj.header.seed,
            "hyperparameters": dict(traj.header.hyperparameters),
        },
        "error": traj.error,
        "records": [
            {
                "t": r.t,
                "theta": [float(v) for v in r.theta],
                "loss": float(r.loss),
                "center": [float(v) for v in r.center],
                "grad_norm": float(r.grad_norm),
                "projection_iters": r.projection_iters,
                "projection_residual": float(r.projection_residual),
            }
            for r in traj.records
        ],
    }


def write_trajectory_json(traj: Trajectory, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trajectory_to_dict(traj), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# geometry samples
# ---------------------------------------------------------------------------

def write_offset_csv(samples: OffsetSamples, path: str | Path) -> None:
    _write_csv(path, ["theta", "rho", "value", "grid_step"],
               ([_num(theta), _num(samples.rho), _num(value), _num(samples.grid_step)]
                for theta, value in zip(samples.thetas, samples.values)))


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------

def _finite_or_none(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def check_report_to_dict(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "passed": report.passed,
        "observations": [
            {
                "parameter": o.parameter,
                "value": _finite_or_none(o.value),
                "bound": _finite_or_none(o.bound),
                "ok": o.ok,
            }
            for o in report.observations
        ],
        "notes": report.notes,
    }


def write_check_report_json(report: CheckReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(check_report_to_dict(report), fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweeps and learning curves
# ---------------------------------------------------------------------------

def write_sweep_csv(cells: Iterable[tuple[float, float, float, str]],
                    path: str | Path) -> None:
    """Grid results as (rho, eta, metric, error) rows, sorted by (rho, eta).

    Failed cells carry metric nan plus a non-empty error note.
    """
    ordered = sorted(cells, key=lambda c: (c[0], c[1]))
    _write_csv(path, ["rho", "eta", "metric", "error"],
               ([_num(rho), _num(eta), _num(metric), error]
                for rho, eta, metric, error in ordered))


def write_learning_curve_csv(stats: Sequence[EpochStats], path: str | Path) -> None:
    _write_csv(path, ["epoch", "train_loss", "train_accuracy",
                      "val_loss", "val_accuracy"],
               ([str(s.epoch), _num(s.train_loss), _num(s.train_accuracy),
                 _num(s.val_loss), _num(s.val_accuracy)] for s in stats))
