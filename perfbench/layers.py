"""Per-layer metrics of one traced repetition.

Times come from the spans the Tracer recorded; a layer's self time is its
spans' durations minus the part covered by their child spans. Counts of
optimizer work (steps, inner iterations, capped projections, residuals,
retained record bytes) come from the RunProbe summaries of the same
repetition and are deterministic.
"""
from __future__ import annotations

import numpy as np

from workloads import VERIFY_CHECKS

ORACLES = ("landscape.f", "landscape.grad", "landscape.f_and_grad", "landscape.hessian")
NONE, RBO, SGD = 0, 1, 2
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


class SpanTable:
    """Vectorised view of a Tracer's arrays."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.names = [str(n) for n in arrays["names"]]
        self.name = arrays["name"]
        self.parent = arrays["parent"]
        self.value = arrays["value"]
        self.dur = arrays["end"] - arrays["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_s = self.dur - child
        self.run_kind = self._run_kinds()

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _run_kinds(self) -> np.ndarray:
        """Per span, the optimizer run (rbo, sgd or none) it happened under."""
        rbo, sgd = self._id("optimizer.run_rbo"), self._id("optimizer.run_sgd")
        kind = [NONE] * self.dur.size
        for i, (nid, par) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            if nid == rbo:
                kind[i] = RBO
            elif nid == sgd:
                kind[i] = SGD
            elif par >= 0:
                kind[i] = kind[par]
        return np.array(kind, dtype=np.int8)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self._id(n) for n in names]
        return np.isin(self.name, [i for i in ids if i >= 0])

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total_s(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_total_s(self, *names: str) -> float:
        return float(self.self_s[self.mask(*names)].sum())


def tail(durations: np.ndarray) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it. With fewer than twenty samples that is the median."""
    n = durations.size
    if n == 0:
        return 0.0, 0.0
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return float(np.percentile(durations, p)), p
    return float(np.median(durations)), 50.0


def per_layer(arrays: dict[str, np.ndarray], runs, missing: list[str]) -> dict[str, float]:
    """Span- and probe-derived metrics of the traced repetition."""
    t = SpanTable(arrays)
    rbo_runs = [r for r in runs if r.optimizer == "rbo"]
    rbo_steps = sum(r.steps for r in rbo_runs)
    sgd_steps = sum(r.steps for r in runs if r.optimizer == "sgd")

    def per_step(mask: np.ndarray, kind: int, steps: int, weights=None) -> float:
        sel = mask & (t.run_kind == kind)
        amount = float(sel.sum()) if weights is None else float(weights[sel].sum())
        return amount / steps if steps else 0.0

    oracles = t.mask(*ORACLES)
    lag = t.mask("neural.loss_and_grad")
    step_s = t.dur[t.mask("optimizer.rbo_step")]
    tail_s, tail_pct = tail(step_s)
    iters = np.concatenate([r.iters for r in rbo_runs]) if rbo_runs else np.zeros(0)
    capped = sum(int(np.sum((r.iters >= r.max_iters) & (r.residuals > r.grad_tol)))
                 for r in rbo_runs)
    resid_max = max((float(np.max(r.residuals)) for r in rbo_runs if r.residuals.size),
                    default=0.0)
    writes = t.prefix_mask("serialize.")

    metrics = {
        "trace.spans": float(t.dur.size),
        "trace.missing_spans": float(len(missing)),
        "trace.operations": float(np.unique(arrays["op"][arrays["op"] >= 0]).size),
        "landscape.f_calls": float(t.count("landscape.f")),
        "landscape.grad_calls": float(t.count("landscape.grad")),
        "landscape.f_and_grad_calls": float(t.count("landscape.f_and_grad")),
        "landscape.oracle_calls_per_rbo_step": per_step(oracles, RBO, rbo_steps),
        "landscape.oracle_calls_per_sgd_step": per_step(oracles, SGD, sgd_steps),
        "landscape.oracle_self_s": t.self_total_s(*ORACLES),
        "landscape.f_batch_points": float(t.value[t.mask("landscape.f_batch")].sum()),
        "landscape.f_batch_self_s": t.self_total_s("landscape.f_batch"),
        "optimizer.rbo_step_s.p50": float(np.median(step_s)) if step_s.size else 0.0,
        "optimizer.rbo_step_s.tail": tail_s,
        "optimizer.rbo_step_s.tail_pct": tail_pct,
        "optimizer.rbo_step_s.samples": float(step_s.size),
        "optimizer.project_self_s": t.self_total_s("optimizer.project_footpoint"),
        "optimizer.inner_iters_per_step": float(iters.sum()) / rbo_steps if rbo_steps else 0.0,
        "optimizer.capped_share": capped / rbo_steps if rbo_steps else 0.0,
        "optimizer.projection_residual_max": resid_max,
        "optimizer.record_bytes": float(max((r.record_bytes for r in runs), default=0)),
        # measured outside the trace on the mlp workload
        "optimizer.bright_diverged_share": 0.0,
        "geometry.offset_profile_s": t.total_s("geometry.offset_profile"),
        "geometry.offset_window_ops": float(t.value[t.mask("geometry.offset_profile")].sum()),
        "geometry.is_unreachable_calls": float(t.count("geometry.is_unreachable")),
        "geometry.is_unreachable_s": t.total_s("geometry.is_unreachable"),
        "neural.loss_and_grad_calls": float(lag.sum()),
        "neural.loss_and_grad_rows": float(t.value[lag].sum()),
        "neural.loss_and_grad_self_s": float(t.self_s[lag].sum()),
        "neural.rows_per_rbo_step": per_step(lag, RBO, rbo_steps, t.value),
        "neural.rows_per_sgd_step": per_step(lag, SGD, sgd_steps, t.value),
        # derived outside the trace on workloads that train the network
        "neural.forward_s": 0.0,
        "neural.backward_s": 0.0,
        "neural.sample_s": t.total_s("landscape.sample_context"),
        "neural.evaluate_s": t.total_s("neural.evaluate"),
        "neural.evaluate_rows": float(t.value[t.mask("neural.evaluate")].sum()),
        "neural.load_idx_s": t.total_s("neural.load_idx"),
        "serialize.write_s": float(t.dur[writes].sum()),
        "serialize.bytes_written": float(t.value[writes].sum()),
        "cli.self_s": t.self_total_s("cli.main"),
    }
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}.s"] = t.total_s(f"verify.{check}")
    return metrics
