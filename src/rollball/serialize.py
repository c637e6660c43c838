"""Deterministic writers for every file the package emits.

All CSV files share one dialect: comma separator, '.' decimal point, one
header row, LF line endings. Floats are written with repr, which is
shortest-round-trip exact, so identical runs produce byte-identical files.
JSON output is strict (no NaN/Infinity literals): write_json writes the
dicts of trajectory_to_dict and check_report_to_dict, whose non-finite
numbers are null.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Any, Iterable, Sequence

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


def _finite_or_none(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _write_csv(path: str | Path, header: Sequence[str],
               rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _record_items(record: StepRecord) -> list[tuple[str, Any]]:
    """A record's (column, value) pairs in StepRecord field order; an array
    field `name` gives one column name_i per entry."""
    items = []
    for f in fields(record):
        value = getattr(record, f.name)
        if np.ndim(value):
            items += [(f"{f.name}_{i}", v) for i, v in enumerate(value)]
        else:
            items.append((f.name, value))
    return items


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """One StepRecord per row. Header metadata and the error flag live in
    the JSON form; a partial trajectory still writes its recorded rows."""
    _write_csv(path, [name for name, _ in _record_items(traj.records[0])],
               ([_num(v) for _, v in _record_items(r)] for r in traj.records))


def _json_number(x):
    """A record value as JSON: ints bare, other numbers as finite floats or
    null, arrays as lists of those."""
    if np.ndim(x):
        return [_finite_or_none(v) for v in x]
    return int(x) if isinstance(x, (int, np.integer)) else _finite_or_none(x)


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {"header": asdict(traj.header), "error": traj.error,
            "records": [{f.name: _json_number(getattr(r, f.name)) for f in fields(r)}
                        for r in traj.records]}


def write_json(data: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, allow_nan=False)
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

def _report_fields(items: list[tuple[str, Any]]) -> dict:
    """asdict factory: numbers as finite floats or null, the rest as is."""
    return {k: _finite_or_none(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
            else v for k, v in items}


def check_report_to_dict(report: CheckReport) -> dict:
    return asdict(report, dict_factory=_report_fields)


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
    _write_csv(path, [f.name for f in fields(EpochStats)],
               ([_num(v) for v in astuple(s)] for s in stats))
