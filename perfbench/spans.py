"""Spans and counters recorded from outside the rollball package.

The package is instrumented by rebinding its public functions, wherever a
rollball module holds a reference to them, to wrappers that record a span
(name, start, end, parent span, operation id) and optional counters. A
Landscape's oracle callables are wrapped as each Landscape is constructed.
Spans live in flat arrays in memory and are written out once, at the end.

Each span carries the id of the operation it belongs to. An operation is
opened by the outermost span of OPERATIONS: a trajectory run (run_rbo or
run_sgd, which inside `rollball sweep` is one sweep cell), a verify check,
or a cli call that is itself one operation (offset dump, train run). The
sweep and verify commands only hold operations; spans outside any
operation carry -1.

Two instruments share the rebinding machinery:

* RunProbe is always installed. It wraps run_rbo and run_sgd only, times
  each call and keeps a small summary of the returned trajectory (step
  count, inner iterations, residuals, the contact invariant, and for 1D
  runs the centers). It costs two clock reads per optimizer run.
* Tracer is installed only for the traced repetition.
"""
from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# (module, attribute, span name); missing attributes are reported, not fatal
TRACED_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("optimizer", "run_rbo", "optimizer.run_rbo"),
    ("optimizer", "run_sgd", "optimizer.run_sgd"),
    ("optimizer", "rbo_step", "optimizer.rbo_step"),
    ("optimizer", "project_footpoint", "optimizer.project_footpoint"),
    ("geometry", "offset_profile", "geometry.offset_profile"),
    ("geometry", "is_unreachable", "geometry.is_unreachable"),
    ("geometry", "distances_to_graph", "geometry.distances_to_graph"),
    ("verify", "run_check", "verify.run_check"),
    ("neural", "loss_and_grad", "neural.loss_and_grad"),
    ("neural", "evaluate", "neural.evaluate"),
    ("neural", "load_idx", "neural.load_idx"),
    ("neural", "train_mlp", "neural.train_mlp"),
]
SERIALIZE_PREFIX = "write_"
ORACLE_FIELDS = ("f", "grad", "f_and_grad", "f_batch", "hessian", "sample_context")
# cli commands that run many operations rather than being one
CONTAINER_COMMANDS = ("sweep", "verify")


def _rollball_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rollball" or name.startswith("rollball."))]


class Rebinder:
    """Replace a function object by a wrapper in every rollball namespace
    that refers to it (covers `from .x import y` bindings), and undo it."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []

    def rebind(self, orig: Callable, new: Callable) -> None:
        for mod in _rollball_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def restore(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# always-on optimizer-run probe
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    """What the benchmark keeps of one optimizer run after it returns."""

    optimizer: str
    seconds: float
    steps: int
    error: str | None
    dim: int
    rho: float | None
    max_iters: int
    grad_tol: float
    iters: np.ndarray            # per step, records[1:]
    residuals: np.ndarray        # per step, records[1:]
    contact_gap: float           # max | |center - (theta, loss)| - rho |
    record_bytes: int            # theta + center bytes held by the records
    landscape: Any = None        # kept only for 1D runs
    centers: np.ndarray | None = None   # (T+1, 2) for 1D rbo runs


def summarize(traj, seconds: float, landscape=None) -> RunSummary:
    recs = traj.records
    hp = dict(traj.header.hyperparameters)
    rho = hp.get("rho")
    dim = len(recs[0].theta)
    iters = np.array([r.projection_iters for r in recs[1:]], dtype=float)
    resid = np.array([r.projection_residual for r in recs[1:]], dtype=float)
    gap = 0.0
    if rho is not None:
        for r in recs:
            contact = np.concatenate([np.asarray(r.theta, dtype=float), [r.loss]])
            dist = float(np.linalg.norm(np.asarray(r.center, dtype=float) - contact))
            gap = max(gap, abs(dist - rho)) if math.isfinite(dist) else math.inf
    nbytes = sum(np.asarray(r.theta).nbytes + np.asarray(r.center).nbytes for r in recs)
    one_d = dim == 1 and rho is not None
    return RunSummary(
        optimizer=traj.header.optimizer, seconds=seconds, steps=len(recs) - 1,
        error=traj.error, dim=dim, rho=rho,
        max_iters=int(hp.get("max_iters", 100)),
        grad_tol=float(hp.get("grad_tol", 1e-8)),
        iters=iters, residuals=resid, contact_gap=gap, record_bytes=nbytes,
        landscape=landscape if one_d else None,
        centers=np.array([np.asarray(r.center, dtype=float) for r in recs]) if one_d else None)


def unreadable(optimizer: str, seconds: float, exc: Exception) -> RunSummary:
    """The summary of a trajectory whose shape the checks cannot read: it
    fails the trajectory check instead of crashing the run."""
    return RunSummary(optimizer=optimizer, seconds=seconds, steps=0,
                      error=f"unreadable trajectory: {exc!r}", dim=0, rho=None,
                      max_iters=0, grad_tol=0.0, iters=np.zeros(0),
                      residuals=np.zeros(0), contact_gap=0.0, record_bytes=0)


class RunProbe:
    """Times every run_rbo / run_sgd call and keeps its RunSummary."""

    def __init__(self, optimizer_module):
        self.runs: list[RunSummary] = []
        self._rebinder = Rebinder()
        self._opt = optimizer_module
        self._summarize = summarize

    def install(self, tracer: "Tracer | None" = None) -> None:
        """Wrap the optimizer runs; under a tracer, the summary gets its own
        span so that it is not billed to the caller's self time."""
        self._summarize = summarize if tracer is None else \
            tracer.wrap(summarize, "bench.summarize")
        for name in ("run_rbo", "run_sgd"):
            orig = getattr(self._opt, name)
            self._rebinder.rebind(orig, self._wrap(orig, name[len("run_"):]))

    def _wrap(self, fn, optimizer: str):
        runs, clock, summary = self.runs, time.perf_counter, self._summarize

        def probed(landscape, *args, **kwargs):
            t0 = clock()
            traj = fn(landscape, *args, **kwargs)
            seconds = clock() - t0
            try:
                runs.append(summary(traj, seconds, landscape))
            except Exception as exc:  # noqa: BLE001 - any shape change counts as failed
                runs.append(unreadable(optimizer, seconds, exc))
            return traj
        return probed

    def take(self) -> list[RunSummary]:
        out = list(self.runs)
        self.runs.clear()
        return out

    def uninstall(self) -> None:
        self._rebinder.restore()


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

@dataclass
class Tracer:
    """In-memory span recorder. Span i's parent is an index < i, or -1.

    Each span may also carry one measured quantity (`value`): points for
    f_batch, rows for loss_and_grad and evaluate, bytes for serialize
    writers, window operations for offset_profile.
    """

    names: list[str] = field(default_factory=list)
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("q"))
    name: array = field(default_factory=lambda: array("q"))
    op: array = field(default_factory=lambda: array("q"))
    value: array = field(default_factory=lambda: array("d"))
    missing: list[str] = field(default_factory=list)
    op_id: int = -1     # operation of the spans being opened, -1 outside any
    ops: int = 0        # operations opened so far

    def __post_init__(self):
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._rebinder = Rebinder()
        self._landscape_cls = None
        self._landscape_init = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             measure: Callable[..., float] | None = None,
             opens: Callable[..., bool] | None = None) -> Callable:
        """Span-recording wrapper. `name` may derive the span name from the
        call's arguments; `measure(args, kwargs, result)` gives the span's
        value and runs after the span has closed; `opens(*args, **kwargs)`
        says whether the call, outside any operation, opens one."""
        if getattr(fn, "__perfbench_traced__", False):
            return fn
        fixed = None if callable(name) else self.name_id(name)
        start, end, parent, names = self.start, self.end, self.parent, self.name
        ops, values = self.op, self.value
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            opened = opens is not None and tracer.op_id < 0 and opens(*args, **kwargs)
            if opened:
                tracer.op_id, tracer.ops = tracer.ops, tracer.ops + 1
            i = len(start)
            names.append(fixed if fixed is not None else tracer.name_id(name(*args, **kwargs)))
            parent.append(stack[-1])
            ops.append(tracer.op_id)
            end.append(0.0)
            values.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if opened:
                    tracer.op_id = -1
            if measure is not None:
                values[i] = measure(args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every name in TRACED_FUNCTIONS, every serialize writer and
        the oracle callables of each Landscape constructed from now on.
        A name that no longer exists is recorded in `missing`."""
        import importlib
        for mod_name, attr, span in TRACED_FUNCTIONS:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(span)
                continue
            name = (lambda check, *a, **k: f"verify.{check}") \
                if span == "verify.run_check" else span
            self._rebinder.rebind(orig, self.wrap(orig, name, MEASURES.get(span),
                                                  OPERATIONS.get(span)))
        ser = importlib.import_module(f"{package.__name__}.serialize")
        writers = [k for k, v in vars(ser).items()
                   if k.startswith(SERIALIZE_PREFIX) and callable(v)]
        if not writers:
            self.missing.append("serialize.write_*")
        for key in writers:
            orig = getattr(ser, key)
            self._rebinder.rebind(orig, self.wrap(orig, f"serialize.{key}", _file_bytes))
        land = importlib.import_module(f"{package.__name__}.landscape")
        cls = getattr(land, "Landscape", None)
        if cls is None:
            self.missing.append("landscape.Landscape")
            return
        declared = {f.name for f in dataclasses.fields(cls)} \
            if dataclasses.is_dataclass(cls) else set(dir(cls))
        self.missing += [f"landscape.{fld}" for fld in ORACLE_FIELDS if fld not in declared]
        self._landscape_cls, self._landscape_init = cls, cls.__init__
        orig_init, tracer = cls.__init__, self

        def init(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            for fld in ORACLE_FIELDS:
                fn = getattr(obj, fld, None)
                if callable(fn):
                    object.__setattr__(obj, fld, tracer.wrap(
                        fn, f"landscape.{fld}", _points if fld == "f_batch" else None))
        cls.__init__ = init

    def uninstall(self) -> None:
        self._rebinder.restore()
        if self._landscape_cls is not None:
            self._landscape_cls.__init__ = self._landscape_init
            self._landscape_cls = None

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names, dtype=str),
                "name": np.array(self.name, dtype=np.int64),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "parent": np.array(self.parent, dtype=np.int64),
                "op": np.array(self.op, dtype=np.int64),
                "value": np.array(self.value, dtype=float)}

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, **self.arrays())


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _points(args, kwargs, result) -> float:
    return float(np.size(result))


def _rows(args, kwargs, result) -> float:
    return float(np.shape(_arg(args, kwargs, 2, "images"))[0])


def _dataset_rows(args, kwargs, result) -> float:
    return float(_arg(args, kwargs, 2, "dataset").n)


def _file_bytes(args, kwargs, result) -> float:
    try:
        return float(os.path.getsize(_arg(args, kwargs, 1, "path")))
    except (OSError, TypeError, KeyError):
        return 0.0


def _offset_window_ops(args, kwargs, result) -> float:
    """thetas x window length of one offset_profile call.

    The window is the exact maximizer window of a bounded landscape
    (half-width sqrt(rho^2 - (rho - 2B)^2) when rho > 2B, else rho),
    sampled at the search step h, so the count is the size of the
    s-lattice every theta's maximum runs over.
    """
    landscape, rho = args[0], float(_arg(args, kwargs, 1, "rho"))
    h = float(result.grid_step)
    bound = getattr(landscape, "value_bound", None)
    w = rho
    if bound is not None and rho > 2.0 * bound:
        w = min(rho, math.sqrt(rho * rho - (rho - 2.0 * bound) ** 2))
    return float(np.size(result.thetas)) * (2 * math.floor(w / h + 1e-9) + 1)


def _always(*args, **kwargs) -> bool:
    return True


def _cli_operation(argv=None, *args, **kwargs) -> bool:
    """A cli call is one operation unless its command holds several."""
    return not argv or argv[0] not in CONTAINER_COMMANDS


OPERATIONS = {
    "cli.main": _cli_operation,
    "optimizer.run_rbo": _always,
    "optimizer.run_sgd": _always,
    "verify.run_check": _always,
}

MEASURES = {
    "neural.loss_and_grad": _rows,
    "neural.evaluate": _dataset_rows,
    "geometry.offset_profile": _offset_window_ops,
}
