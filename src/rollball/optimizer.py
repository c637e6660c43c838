"""Rolling-ball descent and the baselines it is measured against.

The rolling-ball step displaces the center of a rigid sphere resting on the
loss surface along the lifted steepest-ascent tangent, then re-attaches the
sphere by projecting the displaced center back to a foot point on the graph
and re-lifting along the normal. Plain, stochastic, and sharpness-aware
gradient descent live here too so every run shares one trajectory format.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg.blas import daxpy

from .geometry import normal_from_grad, tangent_from_grad
from .landscape import Array, Landscape, value_and_grad

DIVERGENCE_LIMIT = 1e12
# Levenberg-Marquardt damping: a rejected trial multiplies lam by this factor
# (from 0 to 1 on the first rejection), an accepted one divides it
DAMPING_FACTOR = 4.0
# relative change of G within which evaluation noise in f can hide a real
# decrease; a trial inside it is accepted if it lowers the residual
NOISE_SLACK = math.sqrt(float(np.finfo(float).eps))


class WarmStart(str, enum.Enum):
    PREVIOUS_CONTACT = "previous_contact"
    CANDIDATE_THETA = "candidate_theta"


@dataclass(frozen=True)
class ProjectionConfig:
    """Inner foot-point solver settings.

    max_iters caps the trial steps of one projection (one oracle evaluation
    each); grad_tol is the residual norm at which the solve stops, scaled by
    the candidate's distance from the iterate where that exceeds 1. The warm
    start policy picks the inner iteration's starting theta: the previous
    contact (default) or the displaced candidate's own theta block.
    """

    max_iters: int = 100
    grad_tol: float = 1e-8
    warm_start: WarmStart = WarmStart.PREVIOUS_CONTACT

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        object.__setattr__(self, "warm_start", WarmStart(self.warm_start))


class ProjectionDivergence(RuntimeError):
    """The projection met a candidate beyond DIVERGENCE_LIMIT or a
    non-finite oracle value; iteration 0 is the candidate or the warm start."""

    def __init__(self, iteration: int, norm: float, what: str):
        self.iteration = iteration
        self.norm = norm
        super().__init__(
            f"foot-point projection diverged at inner iteration {iteration}: "
            f"{what} (|theta| = {norm:.3e}, limit {DIVERGENCE_LIMIT:.0e})")


@dataclass(frozen=True)
class GraphPoint:
    """A point on the graph surface: (theta, f(theta)), plus grad f(theta)
    when the code that made it evaluated one."""

    theta: Array
    y: float
    grad: Array | None = None

    @property
    def ambient(self) -> Array:
        return np.concatenate([self.theta, [self.y]])


def _graph_point(landscape: Landscape, theta: Array) -> GraphPoint:
    """Evaluate value and gradient at theta in one forward and backward."""
    theta = np.asarray(theta, dtype=float)
    v, g = value_and_grad(landscape, theta)
    return GraphPoint(theta=theta, y=v, grad=g)


@dataclass(frozen=True)
class BallState:
    """Rigid sphere resting on the graph: contact point plus lifted center.

    The center must sit exactly one radius from the contact; construction
    rejects states violating |center - contact| = rho beyond 1e-9 relative.
    """

    contact: GraphPoint
    center: Array
    rho: float

    def __post_init__(self):
        gap = abs(float(np.linalg.norm(self.center - self.contact.ambient)) - self.rho)
        if gap > 1e-9 * self.rho:
            raise ValueError(
                f"ball state violates contact distance: |center-contact| deviates "
                f"from rho={self.rho} by {gap:.3e}")


@dataclass(frozen=True)
class StepRecord:
    """One trajectory row. Field order is the serialization order."""

    t: int
    theta: Array
    loss: float
    center: Array
    grad_norm: float
    projection_iters: int
    projection_residual: float


@dataclass(frozen=True)
class TrajectoryHeader:
    optimizer: str
    landscape: str
    seed: int | None
    hyperparameters: dict[str, Any]


@dataclass
class Trajectory:
    """Header plus T+1 step records (records[0] is the initial state), or
    only the final one when the run was made with keep_records=False.

    A run that aborted mid-way carries the partial records (or the last
    good one) and a non-None error string naming the failing step.
    """

    header: TrajectoryHeader
    records: list[StepRecord]
    error: str | None = None

    def thetas(self) -> Array:
        return np.array([r.theta for r in self.records])

    def losses(self) -> Array:
        return np.array([r.loss for r in self.records])


# ---------------------------------------------------------------------------
# core geometry steps
# ---------------------------------------------------------------------------

def lift(landscape: Landscape, theta: Array, rho: float) -> BallState:
    """Rest the sphere on the graph at theta: center = contact + rho * normal."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return _rest(_graph_point(landscape, theta), rho)


def _rest(contact: GraphPoint, rho: float) -> BallState:
    return BallState(contact=contact,
                     center=contact.ambient + rho * normal_from_grad(contact.grad),
                     rho=rho)


def _with_grad(landscape: Landscape, point: GraphPoint | Array) -> GraphPoint:
    """The point with its gradient, evaluating only what it does not carry."""
    if isinstance(point, GraphPoint):
        return point if point.grad is not None else _graph_point(landscape, point.theta)
    return _graph_point(landscape, point)


def project_footpoint(landscape: Landscape, candidate: Array,
                      warm_start_theta: Array | GraphPoint,
                      cfg: ProjectionConfig = ProjectionConfig(),
                      ) -> tuple[GraphPoint, int, float]:
    """Foot point of an ambient candidate (theta_c, y_c) on the graph: a
    stationary point of G(theta) = |theta - theta_c|^2 / 2 +
    (f(theta) - y_c)^2 / 2, by damped Newton / Gauss-Newton.

    Each trial step solves M s = -r for the half-gradient r = (theta -
    theta_c) + (f - y_c) grad f, with M = (1 + lam) I + g g^T, plus
    (f - y_c) times the Hessian when the landscape has one. Without a
    Hessian, M is inverted by Sherman-Morrison in O(d). A trial point is
    accepted only if it lowers G; otherwise the damping lam grows. Each trial
    is one forward call whose backward runs only when the trial passes the
    G test (plus one Hessian per accepted point), and the trials are the
    iteration count. The solve stops when |r| <= grad_tol
    * max(1, |candidate - iterate|): far from the graph the rounding of
    (f - y_c) grad f grows with the distance.

    warm_start_theta is the starting theta, or a GraphPoint whose carried
    value and gradient are reused. Returns (foot point with its gradient,
    trials used, final residual norm); a residual above the tolerance after
    max_iters trials is reported, never hidden. Raises ProjectionDivergence
    when the candidate lies beyond DIVERGENCE_LIMIT or an oracle value is not
    finite; a monotone solve from a finite candidate cannot run away.
    """
    candidate = np.asarray(candidate, dtype=float)
    d = landscape.dim
    if candidate.shape != (d + 1,):
        raise ValueError(f"candidate must be ambient, shape ({d + 1},)")
    size = float(np.linalg.norm(candidate))
    if not size <= DIVERGENCE_LIMIT:
        raise ProjectionDivergence(0, size, "candidate beyond the limit")
    theta_c, y_c = candidate[:d], float(candidate[d])
    point = _with_grad(landscape, warm_start_theta)
    theta, v, g = point.theta, point.y, point.grad
    u, e = theta - theta_c, v - y_c
    if not math.isfinite(e):
        raise ProjectionDivergence(0, float(np.linalg.norm(theta)), "non-finite loss value")
    uu = float(u @ u)
    objective = 0.5 * (uu + e * e)
    r = u + e * g
    resid = float(np.sqrt(r @ r))
    gg, gu = _residual_terms(0, theta, resid, g, u)
    lam, eig, iters = 0.0, None, 0
    while resid > cfg.grad_tol * max(1.0, math.sqrt(2.0 * objective)) \
            and iters < cfg.max_iters:
        if landscape.hessian is None:
            # u - M^{-1} r by Sherman-Morrison, as one combination of u and g
            # whose squared norm follows from the scalars at hand
            damp = lam / (1.0 + lam)
            coef = (gu - e * (1.0 + lam)) / ((1.0 + lam) * (1.0 + lam + gg))
            u_trial = coef * g
            if lam:
                u_trial = daxpy(u, u_trial, a=damp)  # in place, one pass
            uu_trial = damp * damp * uu + 2.0 * damp * coef * gu + coef * coef * gg
            theta_trial = theta_c + u_trial
        else:
            if eig is None:
                # M - lam I in its eigenbasis, once per accepted point
                curvature = np.outer(g, g) + e * np.asarray(landscape.hessian(theta),
                                                            dtype=float)
                if not np.isfinite(curvature).all():
                    raise ProjectionDivergence(iters, float(np.linalg.norm(theta)),
                                               "non-finite Hessian")
                w, vecs = np.linalg.eigh(curvature)
                eig = (w, vecs, vecs.T @ r)
            w, vecs, vr = eig
            while not 1.0 + lam + w[0] > 0.0:  # damp until M is positive definite
                lam = _raise_damping(lam)
            theta_trial = theta - vecs @ (vr / (1.0 + lam + w))
            u_trial = theta_trial - theta_c
            uu_trial = float(u_trial @ u_trial)
        iters += 1
        v_trial, backward = landscape.forward(theta_trial)
        e_trial = v_trial - y_c
        if not math.isfinite(e_trial):
            raise ProjectionDivergence(iters, float(np.linalg.norm(theta_trial)),
                                       "non-finite loss value")
        trial_objective = 0.5 * (uu_trial + e_trial * e_trial)
        if trial_objective <= objective * (1.0 + NOISE_SLACK):
            g_trial = backward()
            r_trial = u_trial + e_trial * g_trial
            resid_trial = float(np.sqrt(r_trial @ r_trial))
            # G flat to within noise (the last steps of a solve): the residual decides
            if trial_objective < objective or resid_trial < resid:
                theta, v, g, u, e, r = theta_trial, v_trial, g_trial, u_trial, e_trial, r_trial
                uu, objective, eig, resid = uu_trial, trial_objective, None, resid_trial
                gg, gu = _residual_terms(iters, theta, resid, g, u)
                lam /= DAMPING_FACTOR
                continue
        lam = _raise_damping(lam)
    return GraphPoint(theta=theta, y=v, grad=g), iters, resid


def _residual_terms(iters: int, theta: Array, resid: float, g: Array,
                    u: Array) -> tuple[float, float]:
    """g.g and g.u at an accepted point with residual norm resid; a
    non-finite gradient there ends the solve."""
    gg = float(g @ g)
    if not (math.isfinite(resid) and math.isfinite(gg)):
        raise ProjectionDivergence(iters, float(np.linalg.norm(theta)),
                                   "non-finite gradient")
    return gg, float(g @ u)


def _raise_damping(lam: float) -> float:
    return lam * DAMPING_FACTOR if lam else 1.0


def rbo_step(landscape: Landscape, state: BallState, eta: float,
             cfg: ProjectionConfig = ProjectionConfig(), t: int = 0,
             ) -> tuple[BallState, StepRecord]:
    """One rolling-ball update: displace the center against the lifted
    tangent, project to a new foot point, re-lift the center.

    The tangent and the projection's warm start reuse the gradient the
    contact carries, and the re-lift reuses the one the projection returns.
    t is the step index stamped into the returned record.
    """
    contact = _with_grad(landscape, state.contact)
    candidate = state.center - eta * tangent_from_grad(contact.grad)
    warm = contact if cfg.warm_start == WarmStart.PREVIOUS_CONTACT \
        else candidate[:landscape.dim]
    foot, iters, resid = project_footpoint(landscape, candidate, warm, cfg)
    new_state = _rest(foot, state.rho)
    record = StepRecord(t=t, theta=foot.theta, loss=foot.y,
                        center=new_state.center,
                        grad_norm=float(np.linalg.norm(foot.grad)),
                        projection_iters=iters, projection_residual=resid)
    return new_state, record


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def _record(t: int, point: GraphPoint, center: Array | None = None) -> StepRecord:
    """Snapshot of a carried graph point; center defaults to the point itself
    (the convention for optimizers that do not carry a ball)."""
    return StepRecord(t=t, theta=point.theta, loss=point.y,
                      center=point.ambient if center is None else center,
                      grad_norm=float(np.linalg.norm(point.grad)),
                      projection_iters=0, projection_residual=0.0)


def _keep(records: list[StepRecord], record: StepRecord, keep_records: bool) -> None:
    """Append the record, or let it replace the last one if there is one."""
    if keep_records or not records:
        records.append(record)
    else:
        records[-1] = record


def _check_run_args(landscape: Landscape, theta0: Array, steps: int) -> Array:
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (landscape.dim,):
        raise ValueError(f"theta0 must have shape ({landscape.dim},)")
    if steps < 0:
        raise ValueError("step count must be >= 0")
    return theta0


def _run_rng(landscape: Landscape, seed: int | None,
             ) -> tuple[np.random.Generator | None, int | None]:
    """Minibatch RNG for stochastic landscapes, plus the seed actually in
    effect. An explicit run seed wins; otherwise the landscape's own default
    seed (meta key "default_seed") keeps unseeded runs reproducible. The
    effective seed goes into the trajectory header so a serialized run can
    be replayed from its own metadata."""
    if not landscape.is_stochastic:
        return None, seed
    if seed is None and landscape.meta is not None:
        seed = landscape.meta.get("default_seed")
    return np.random.default_rng(seed), seed


def _step_view(landscape: Landscape, rng: np.random.Generator | None) -> Landscape:
    """Landscape view for one outer step: a fresh minibatch for stochastic
    landscapes, the landscape itself otherwise. The view stays fixed for the
    whole step including every inner projection iteration."""
    if landscape.is_stochastic and rng is not None:
        return landscape.with_context(landscape.sample_context(rng))
    return landscape


def run_rbo(landscape: Landscape, theta0: Array, rho: float, eta: float,
            steps: int, cfg: ProjectionConfig = ProjectionConfig(),
            seed: int | None = None, keep_records: bool = True) -> Trajectory:
    """Roll the ball for `steps` updates; returns steps+1 records, or with
    keep_records=False only the last (a record costs no oracle call here).

    On stochastic landscapes each outer step draws one minibatch (seeded)
    and uses it for the lift, the displacement, and all inner projection
    iterations of that step. The full-data lift at theta0 then serves only
    record 0, so without keep_records it is made only if no step completes.
    A diverging step aborts the run and returns the partial trajectory with
    the error recorded.
    """
    theta0 = _check_run_args(landscape, theta0, steps)
    if rho <= 0:
        raise ValueError("rho must be positive")
    rng, seed = _run_rng(landscape, seed)
    header = TrajectoryHeader(
        optimizer="rbo", landscape=landscape.name, seed=seed,
        hyperparameters={"rho": rho, "eta": eta, "steps": steps,
                         "max_iters": cfg.max_iters,
                         "grad_tol": cfg.grad_tol,
                         "warm_start": cfg.warm_start.value})
    lazy = rng is not None and not keep_records
    state = None if lazy else lift(landscape, theta0, rho)
    records = [] if lazy else [_record(0, state.contact, center=state.center)]
    error = None
    for t in range(1, steps + 1):
        view = _step_view(landscape, rng)
        if view is not landscape:
            state = lift(view, theta0 if state is None else state.contact.theta, rho)
        try:
            state, record = rbo_step(view, state, eta, cfg, t=t)
        except ProjectionDivergence as exc:
            error = f"step {t}: {exc}"
            break
        _keep(records, record, keep_records)
    if not records:
        state = lift(landscape, theta0, rho)
        records = [_record(0, state.contact, center=state.center)]
    return Trajectory(header=header, records=records, error=error)


def _descent_loop(landscape: Landscape, theta0: Array, eta: float, steps: int,
                  header: TrajectoryHeader, rng: np.random.Generator | None,
                  sam_rho: float | None = None, keep_records: bool = True,
                  ) -> Trajectory:
    """Shared loop for gd / sgd / sam. sam_rho=None means a plain gradient
    step; sam_rho=0.0 reproduces it bitwise since the ascent point is theta.
    On a deterministic landscape the gradient evaluated for a record is the
    next step's gradient, so a plain step costs one oracle call. On a
    stochastic one the next step reads a new minibatch, so a record's
    evaluation serves only the record: without keep_records the loop skips
    them and evaluates the final record alone, on the minibatch of its step."""
    lazy = rng is not None and not keep_records
    theta, view, done = theta0, landscape, 0  # view: the oracle of record `done`
    point = None if lazy else _graph_point(landscape, theta0)
    records = [] if lazy else [_record(0, point)]
    error = None
    for t in range(1, steps + 1):
        step_view = _step_view(landscape, rng)
        g = point.grad if step_view is landscape else value_and_grad(step_view, theta)[1]
        step_grad = g
        if sam_rho is not None:
            gn = float(np.linalg.norm(g))
            # zero radius or zero gradient: the ascent point is theta itself
            if sam_rho != 0.0 and gn != 0.0:
                step_grad = value_and_grad(step_view, theta + sam_rho * (g / gn))[1]
        stepped = theta - eta * step_grad
        if float(np.linalg.norm(stepped)) > DIVERGENCE_LIMIT:
            error = (f"step {t}: iterate diverged, |theta| = "
                     f"{float(np.linalg.norm(stepped)):.3e}")
            break
        theta, view, done = stepped, step_view, t
        if not lazy:
            point = _graph_point(view, theta)
            _keep(records, _record(t, point), keep_records)
    if lazy:
        records = [_record(done, _graph_point(view, theta))]
    return Trajectory(header=header, records=records, error=error)


def run_gd(landscape: Landscape, theta0: Array, eta: float, steps: int,
           keep_records: bool = True) -> Trajectory:
    """Plain full-gradient descent. keep_records=False keeps only the last
    record, as in run_sgd."""
    theta0 = _check_run_args(landscape, theta0, steps)
    header = TrajectoryHeader(optimizer="gd", landscape=landscape.name, seed=None,
                              hyperparameters={"eta": eta, "steps": steps})
    return _descent_loop(landscape, theta0, eta, steps, header, rng=None,
                         keep_records=keep_records)


def run_sgd(landscape: Landscape, theta0: Array, eta: float, steps: int,
            seed: int | None = None, keep_records: bool = True) -> Trajectory:
    """Stochastic gradient descent: one fresh minibatch per step.

    On a deterministic landscape (full-batch context) the records are
    bitwise identical to run_gd. keep_records=False keeps only the last
    record, bitwise the one a full run ends with; on a stochastic landscape
    each step then costs one forward and backward, and the run one more of
    each for that record.
    """
    theta0 = _check_run_args(landscape, theta0, steps)
    rng, seed = _run_rng(landscape, seed)
    header = TrajectoryHeader(optimizer="sgd", landscape=landscape.name, seed=seed,
                              hyperparameters={"eta": eta, "steps": steps})
    return _descent_loop(landscape, theta0, eta, steps, header, rng=rng,
                         keep_records=keep_records)


def run_sam(landscape: Landscape, theta0: Array, eta: float, sam_rho: float,
            steps: int, seed: int | None = None, keep_records: bool = True,
            ) -> Trajectory:
    """Sharpness-aware descent: gradient taken at the normalized ascent point
    theta + sam_rho * grad/|grad|. sam_rho = 0 reduces to run_gd bitwise.
    keep_records=False keeps only the last record, as in run_sgd."""
    theta0 = _check_run_args(landscape, theta0, steps)
    if sam_rho < 0:
        raise ValueError("sam_rho must be >= 0")
    rng, seed = _run_rng(landscape, seed)
    header = TrajectoryHeader(optimizer="sam", landscape=landscape.name, seed=seed,
                              hyperparameters={"eta": eta, "sam_rho": sam_rho,
                                               "steps": steps})
    return _descent_loop(landscape, theta0, eta, steps, header, rng=rng,
                         sam_rho=sam_rho, keep_records=keep_records)
