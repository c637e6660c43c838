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

from .geometry import OffsetSamples, UnreachabilityReport
from .neural import EpochStats
from .optimizer import StepRecord, Trajectory
from .verify import CheckReport


def _num(x) -> str:
    """Exact text form: ints bare, floats via repr (round-trip exact)."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _open_csv(path: str | Path):
    return open(path, "w", newline="", encoding="utf-8")


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
    dim = len(traj.records[0].theta)
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trajectory_columns(dim))
        for r in traj.records:
            writer.writerow(_record_row(r))


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
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta", "rho", "value", "grid_step"])
        for theta, value in zip(samples.thetas, samples.values):
            writer.writerow([_num(theta), _num(samples.rho), _num(value),
                             _num(samples.grid_step)])


def write_unreachability_csv(reports: Sequence[UnreachabilityReport],
                             path: str | Path) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta", "rho", "flag", "grid_step"])
        for r in reports:
            writer.writerow([_num(r.theta), _num(r.rho), r.verdict,
                             _num(r.grid_step)])


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
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rho", "eta", "metric", "error"])
        for rho, eta, metric, error in ordered:
            writer.writerow([_num(rho), _num(eta), _num(metric), error])


def write_learning_curve_csv(stats: Sequence[EpochStats], path: str | Path) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "train_accuracy",
                         "val_loss", "val_accuracy"])
        for s in stats:
            writer.writerow([str(s.epoch), _num(s.train_loss),
                             _num(s.train_accuracy), _num(s.val_loss),
                             _num(s.val_accuracy)])
