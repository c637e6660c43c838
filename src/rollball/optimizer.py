"""Rolling-ball descent and the baselines it is measured against.

On a deterministic 1D landscape the center of a rigid sphere resting on the
loss surface rolls on the sampled upper offset; otherwise the step displaces
it along the lifted steepest-ascent tangent, projects it back to a foot
point on the graph and re-lifts it along the normal. Plain, stochastic and
sharpness-aware gradient descent live here too; all four run in one step
loop, so every run shares one trajectory format, and `run` starts any of
them from the one table of their hyperparameters, OPTIMIZERS, whose values
RULES bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .geometry import _check_offset_args, _circ, _Lattice, _norm, normal_from_grad
from .landscape import Array, Landscape, value_and_grad

DIVERGENCE_LIMIT = 1e12
# Levenberg-Marquardt damping: a rejected trial multiplies lam by this factor
# (from 0 to 1 on the first rejection), an accepted one divides it
DAMPING_FACTOR = 4.0
# relative change of G within which evaluation noise in f can hide a real
# decrease; a trial inside it is accepted if it lowers the residual
NOISE_SLACK = math.sqrt(float(np.finfo(float).eps))
# the 1D roll's sufficient decrease, and its null move in lattice steps
ARMIJO = 1e-4
SETTLE_TOL = 1e-9


# optimizer -> {hyperparameter: default}: which optimizer takes which setting
OPTIMIZERS: dict[str, dict[str, Any]] = {
    "rbo": {"rho": 1.0, "eta": 6.0, "max_iters": 100, "grad_tol": 1e-8},
    "gd": {"eta": 0.01},
    "sgd": {"eta": 0.01},
    "sam": {"sam_rho": 0.05, "eta": 0.01},
}
# hyperparameter -> (the values it takes, their wording); every value must
# also be finite. eta = 0 is valid: the run then stays where it starts
RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "rho": (lambda v: v > 0, "positive"),
    "eta": (lambda v: v >= 0, ">= 0"),
    "sam_rho": (lambda v: v >= 0, ">= 0"),
    "max_iters": (lambda v: v >= 1, ">= 1"),
    "grad_tol": (lambda v: v > 0, "positive"),
}


def check_hyperparameters(**values: Any) -> None:
    """Raise a ValueError naming the first value that breaks its RULES
    entry; a name without an entry (a run's steps) passes."""
    for name, value in values.items():
        if name in RULES:
            holds, wording = RULES[name]
            if not (math.isfinite(value) and holds(value)):
                raise ValueError(f"{name} must be {wording} and finite, got {value!r}")


@dataclass(frozen=True)
class ProjectionConfig:
    """Inner foot-point solver settings, defaulting to rbo's OPTIMIZERS entry.

    max_iters caps the trial steps of one projection (one oracle evaluation
    each); grad_tol is the residual norm at which the solve stops, scaled by
    the candidate's distance from the iterate where that exceeds 1.
    """

    max_iters: int = OPTIMIZERS["rbo"]["max_iters"]
    grad_tol: float = OPTIMIZERS["rbo"]["grad_tol"]

    def __post_init__(self):
        check_hyperparameters(**vars(self))


class Divergence(RuntimeError):
    """A step left the region where a run can go on; the run ends there and
    keeps the records made so far."""


class ProjectionDivergence(Divergence):
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
    rejects states violating |center - contact| = rho beyond 1e-9 rho plus
    the rounding of contact + rho * normal, 4 eps |contact|.
    """

    contact: GraphPoint
    center: Array
    rho: float

    def __post_init__(self):
        gap = abs(float(np.linalg.norm(self.center - self.contact.ambient)) - self.rho)
        tol = 1e-9 * self.rho + 4.0 * np.finfo(float).eps * _norm(self.contact.ambient)
        if gap > tol:  # a NaN gap passes: the projection ends that run
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
    """Header plus T+1 step records (records[0] is the initial state, fewer if
    a 1D roll settled), or only the final one with keep_records=False.

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
    point = _with_grad(landscape, warm_start_theta)
    theta_c, y_c = candidate[:d], float(candidate[d])
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
            u_trial = coef * g + damp * u
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


def _record(t: int, point: GraphPoint, center: Array | None = None, iters: int = 0,
            resid: float = 0.0) -> StepRecord:
    """Snapshot of a carried graph point; center defaults to the point itself
    (the convention for optimizers that do not carry a ball)."""
    return StepRecord(t=t, theta=point.theta, loss=point.y,
                      center=point.ambient if center is None else center,
                      grad_norm=_norm(point.grad),
                      projection_iters=iters, projection_residual=resid)


def rbo_step(landscape: Landscape, point: GraphPoint, t: int, rho: float, eta: float,
             cfg: ProjectionConfig) -> tuple[GraphPoint, StepRecord]:
    """Rolling-ball update t from the carried contact point: displace the
    resting center against the lifted tangent (g, g.g), project to a new foot
    point and re-lift there. The tangent and the projection's start reuse the
    contact's gradient, and the re-lift the one the projection returns."""
    g = point.grad
    candidate = _rest(point, rho).center - eta * np.concatenate([g, [float(g @ g)]])
    foot, iters, resid = project_footpoint(landscape, candidate, point, cfg)
    return foot, _record(t, foot, _rest(foot, rho).center, iters, resid)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def _run(optimizer: str, landscape: Landscape, theta0: Array, steps: int,
         hyperparameters: dict[str, Any], step: Callable, seed: int | None = None,
         keep_records: bool = True, rho: float | None = None,
         minibatches: bool = True, start: Callable | None = None) -> Trajectory:
    """The step loop of every optimizer: steps+1 records, or with
    keep_records=False only the last.

    step(view, point, t) makes update t from the carried graph point, whose
    gradient is on the view. It returns the next graph point with its record
    (rbo), or the next theta with None (descent), which the loop evaluates
    for the record. On a stochastic landscape (unless minibatches is False)
    each step draws one seeded minibatch, the view of all the step's oracle
    calls, and evaluates the carried theta on it. An evaluation made for a
    record then serves only the record, so a lean run (keep_records=False)
    evaluates only its final record, on the minibatch of its step. With rho
    (rbo), a record the loop makes carries the center of the ball resting on
    its point; start(theta0), if given, makes the first point and record 0,
    and a step returning no next point settles the run (the 1D roll). A
    step that raises Divergence ends the run, which keeps its records and
    names the failing step. RULES check the hyperparameters first. The seed
    goes into the header, so every stochastic run replays from its metadata:
    without one, the run draws its seed from fresh entropy.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (landscape.dim,):
        raise ValueError(f"theta0 must have shape ({landscape.dim},)")
    if steps < 0:
        raise ValueError("step count must be >= 0")
    check_hyperparameters(**hyperparameters)
    rng = None
    if minibatches and landscape.is_stochastic:
        seed = np.random.SeedSequence().entropy if seed is None else seed
        rng = np.random.default_rng(seed)
    header = TrajectoryHeader(optimizer, landscape.name, seed, hyperparameters)

    def record(t: int, point: GraphPoint) -> StepRecord:
        return _record(t, point, None if rho is None else _rest(point, rho).center)

    lean = rng is not None and not keep_records
    theta, view, done = theta0, landscape, 0  # view: the oracle of record `done`
    if start is not None:
        point, rec = start(theta0)
    else:
        point = None if lean else _graph_point(landscape, theta0)
        rec = None if lean else record(0, point)
    records = [] if lean else [rec]
    error = None
    for t in range(1, steps + 1):
        step_view = landscape
        if rng is not None:
            step_view = landscape.with_context(landscape.sample_context(rng))
            point = _graph_point(step_view, theta)
        try:
            nxt, rec = step(step_view, point, t)
        except Divergence as exc:
            error = f"step {t}: {exc}"
            break
        view, done = step_view, t
        if rec is None:  # a descent step: the loop evaluates its theta
            theta = nxt
            if lean:
                continue
            nxt = _graph_point(view, theta)
            rec = record(t, nxt)
        point, theta = nxt, rec.theta
        if keep_records or not records:
            records.append(rec)
        else:
            records[-1] = rec
        if nxt is None:  # the step settled the run
            break
    if not records:  # a lean run whose steps made no record
        records = [record(done, _graph_point(view, theta))]
    return Trajectory(header=header, records=records, error=error)


def _roll(landscape: Landscape, rho: float, eta: float,
          cfg: ProjectionConfig) -> tuple[Callable, Callable]:
    """start and step (see _run) of a deterministic 1D run: the center rolls
    on the sampled upper offset phi_rho at h = rho / 100 (the run's own
    geometry._Lattice; rolls on one geometry.memo_view share what it has read).
    A ball (x, phi, t, f(t), g) is the center over x, its contact and the
    slope g = (t - x) / circ(t - x) of the winning arc, f'(t) at an exact
    interior contact. A step tries x - a g from a = eta, halving a until phi
    falls by ARMIJO |x' - x| |g|, and after a trial whose slope has the other
    sign the center resting on both contacts. It settles the run in place if
    that center is x (within SETTLE_TOL * h), if a |g| <= SETTLE_TOL * h or
    |g| <= grad_tol, or after max_iters phi evaluations (projection_iters)."""
    h, lattice = rho / 100.0, None

    def ball(x: float, checked: bool = True) -> tuple:
        if checked and not (abs(x) <= DIVERGENCE_LIMIT and abs(x) + lattice.w < 2.0 ** 53 * h):
            raise Divergence(f"center diverged, |theta| = {abs(x):.3e}")
        v, c, fc = lattice.phi(x)
        if checked and not math.isfinite(v):
            raise Divergence(f"non-finite loss value in the window of theta = {x!r}")
        return x, v, c, fc, (c - x) / _circ(c - x, rho)

    def record(t: int, b: tuple, evals: int) -> StepRecord:
        x, v, c, fc, g = b
        return _record(t, GraphPoint(np.array([c]), fc, np.array([g])), np.array([x, v]), evals)

    def start(theta0: Array) -> tuple[tuple, StepRecord]:
        nonlocal lattice
        _check_offset_args(landscape, rho, h, theta0=float(theta0[0]))
        lattice = _Lattice(landscape, rho, h)
        b = ball(float(theta0[0]), checked=False)
        return b, record(0, b, 0)

    def step(view: Landscape, cur: tuple, t: int) -> tuple[tuple | None, StepRecord]:
        x, v, c, fc, g = cur
        if not math.isfinite(v):  # record 0's ball: the others are checked
            raise Divergence(f"non-finite loss value in the window of theta = {x!r}")
        a, evals, kink = eta, 0, None
        while abs(g) > cfg.grad_tol and a * abs(g) > SETTLE_TOL * h and evals < cfg.max_iters:
            xt = x - a * g if kink is None else kink
            new = ball(xt)
            _, vt, ct, ft, gt = new
            evals += 1
            if vt <= v - ARMIJO * abs(xt - x) * abs(g):
                return new, record(t, new, evals)
            d2 = (ct - c) ** 2 + (ft - fc) ** 2
            if kink is None and gt * g < 0.0 and 0.0 < d2 < 4.0 * rho * rho:
                # the upper intersection of the radius-rho circles around both contacts
                kink = (c + ct) / 2 - math.copysign(math.sqrt(rho * rho / d2 - 0.25), ct - c) \
                    * (ft - fc)
                if abs(kink - x) <= SETTLE_TOL * h:
                    break
            else:
                a, kink = a / 2.0, None
        return None, record(t, cur, evals)

    return start, step


def run_rbo(landscape: Landscape, theta0: Array, rho: float, eta: float,
            steps: int, cfg: ProjectionConfig = ProjectionConfig(),
            seed: int | None = None, keep_records: bool = True) -> Trajectory:
    """Roll the ball for `steps` updates (see _run for the records, the
    minibatches and aborts). On a deterministic 1D landscape the center
    rolls on the offset (_roll), and the run ends at the step that settles
    it. Otherwise each projection step is rbo_step, and a step's record costs
    no oracle call, so a lean run lifts theta0 on the full data only if no
    step completes."""
    hyper = {"rho": rho, "eta": eta, "steps": steps, "max_iters": cfg.max_iters,
             "grad_tol": cfg.grad_tol}
    if landscape.dim == 1 and not landscape.is_stochastic:
        start, step = _roll(landscape, rho, eta, cfg)
        return _run("rbo", landscape, theta0, steps, hyper, step, seed, keep_records,
                    start=start)

    # looked up by name at each step: the benchmark's tracer rebinds rbo_step (ROADMAP item 8)
    return _run("rbo", landscape, theta0, steps, hyper,
                lambda view, point, t: rbo_step(view, point, t, rho, eta, cfg),
                seed, keep_records, rho=rho)


def _descent_step(eta: float, sam_rho: float | None = None) -> Callable:
    """The step of gd, sgd and sam: theta - eta * grad, with sam's gradient
    taken at the ascent point theta + sam_rho * grad / |grad|. sam_rho=0.0
    reproduces the plain step bitwise since the ascent point is theta. On a
    deterministic landscape the gradient the loop evaluated for the last
    record is this step's, so a plain step costs one oracle call."""
    def step(view: Landscape, point: GraphPoint, t: int):
        g = point.grad
        if sam_rho:  # zero radius or zero gradient: the ascent point is theta
            gn = float(np.linalg.norm(g))
            if gn != 0.0:
                g = value_and_grad(view, point.theta + sam_rho * (g / gn))[1]
        theta = point.theta - eta * g
        norm = float(np.linalg.norm(theta))
        if not norm <= DIVERGENCE_LIMIT:  # a NaN iterate diverged too
            raise Divergence(f"iterate diverged, |theta| = {norm:.3e}")
        return theta, None
    return step


def run_gd(landscape: Landscape, theta0: Array, eta: float, steps: int,
           keep_records: bool = True) -> Trajectory:
    """Plain full-gradient descent. keep_records=False keeps only the last
    record, as in run_sgd."""
    return _run("gd", landscape, theta0, steps, {"eta": eta, "steps": steps},
                _descent_step(eta), keep_records=keep_records, minibatches=False)


def run_sgd(landscape: Landscape, theta0: Array, eta: float, steps: int,
            seed: int | None = None, keep_records: bool = True) -> Trajectory:
    """Stochastic gradient descent: one fresh minibatch per step.

    On a deterministic landscape (full-batch context) the records are
    bitwise identical to run_gd. keep_records=False keeps only the last
    record, bitwise the one a full run ends with; on a stochastic landscape
    each step then costs one forward and backward, and the run one more of
    each for that record.
    """
    return _run("sgd", landscape, theta0, steps, {"eta": eta, "steps": steps},
                _descent_step(eta), seed, keep_records)


def run_sam(landscape: Landscape, theta0: Array, eta: float, sam_rho: float,
            steps: int, seed: int | None = None, keep_records: bool = True,
            ) -> Trajectory:
    """Sharpness-aware descent: gradient taken at the normalized ascent point
    theta + sam_rho * grad/|grad|. sam_rho = 0 reduces to run_gd bitwise.
    keep_records=False keeps only the last record, as in run_sgd."""
    return _run("sam", landscape, theta0, steps,
                {"eta": eta, "sam_rho": sam_rho, "steps": steps},
                _descent_step(eta, sam_rho), seed, keep_records)


def hyperparameters(optimizer: str, **given: Any) -> dict[str, Any]:
    """The given values laid over the optimizer's OPTIMIZERS defaults, None
    counting as unset. A ValueError names an unknown optimizer, a setting
    it does not take, or a value its RULES entry rejects."""
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    for name, value in given.items():
        owners = [opt for opt, hyper in OPTIMIZERS.items() if name in hyper]
        if not owners:
            raise ValueError(f"unknown hyperparameter {name!r}")
        if value is not None and optimizer not in owners:
            raise ValueError(f"{name} applies to the {owners[0]} optimizer only")
    hyper = {name: default if given.get(name) is None else given[name]
             for name, default in OPTIMIZERS[optimizer].items()}
    check_hyperparameters(**hyper)
    return hyper


def run(optimizer: str, landscape: Landscape, theta0: Array, steps: int,
        seed: int | None = None, keep_records: bool = True, **given: Any) -> Trajectory:
    """`steps` updates of the optimizer with hyperparameters(optimizer,
    **given); gd takes no seed. run_rbo and the others are looked up by name
    at each call, so a rebound module attribute sees every run."""
    hyper = hyperparameters(optimizer, **given)
    if optimizer == "rbo":
        return run_rbo(landscape, theta0, hyper["rho"], hyper["eta"], steps,
                       ProjectionConfig(hyper["max_iters"], hyper["grad_tol"]),
                       seed=seed, keep_records=keep_records)
    if optimizer == "gd":
        return run_gd(landscape, theta0, hyper["eta"], steps, keep_records=keep_records)
    if optimizer == "sgd":
        return run_sgd(landscape, theta0, hyper["eta"], steps, seed=seed,
                       keep_records=keep_records)
    return run_sam(landscape, theta0, hyper["eta"], hyper["sam_rho"], steps, seed=seed,
                   keep_records=keep_records)
