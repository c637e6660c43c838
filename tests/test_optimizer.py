"""Rolling-ball steps, footpoint projection, and baseline descent loops."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollball.landscape import Landscape, affine_plus_bump, quadratic, riemann
from rollball import geometry
from rollball.geometry import GridSpec, distances_to_graph, offset_value
from rollball.optimizer import (BallState, GraphPoint, ProjectionConfig,
                                ProjectionDivergence, StepRecord, _graph_point,
                                lift, project_footpoint, rbo_step,
                                run_gd, run_rbo, run_sam, run_sgd)

PARABOLA = quadratic(np.array([[2.0]]))  # f = theta^2
HALF_SQ = quadratic(np.array([[1.0]]))   # f = theta^2 / 2


def test_projection_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(max_iters=0)
    with pytest.raises(ValueError):
        ProjectionConfig(grad_tol=0.0)


def test_ball_state_invariant_enforced():
    contact = GraphPoint(theta=np.array([0.0]), y=0.0)
    BallState(contact=contact, center=np.array([0.0, 1.0]), rho=1.0)
    with pytest.raises(ValueError):
        BallState(contact=contact, center=np.array([0.0, 1.1]), rho=1.0)


def test_graph_point_ambient():
    p = GraphPoint(theta=np.array([1.0, 2.0]), y=3.0)
    np.testing.assert_array_equal(p.ambient, [1.0, 2.0, 3.0])


def test_lift_flat_and_sloped_points():
    st0 = lift(PARABOLA, np.array([0.0]), rho=1.0)
    np.testing.assert_allclose(st0.center, [0.0, 1.0], atol=1e-15)
    st1 = lift(PARABOLA, np.array([-1.0]), rho=2.0)
    np.testing.assert_allclose(st1.contact.ambient, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        st1.center, [-1.0 + 4.0 / np.sqrt(5.0), 1.0 + 2.0 / np.sqrt(5.0)],
        atol=1e-12)
    with pytest.raises(ValueError):
        lift(PARABOLA, np.array([0.0]), rho=0.0)


def test_lift_idempotent_on_contact():
    a = lift(PARABOLA, np.array([0.7]), rho=0.5)
    b = lift(PARABOLA, a.contact.theta, rho=0.5)
    np.testing.assert_allclose(a.center, b.center, atol=1e-12)


def test_footpoint_converges_to_closest_point():
    # candidate (0, 2) above f=theta^2: stationary feet at +-sqrt(1.5);
    # the warm start picks the basin
    cfg = ProjectionConfig(grad_tol=1e-10)
    foot, iters, resid = project_footpoint(
        PARABOLA, np.array([0.0, 2.0]), np.array([1.0]), cfg)
    assert float(foot.theta[0]) == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert resid <= 1e-10
    neg, _, _ = project_footpoint(
        PARABOLA, np.array([0.0, 2.0]), np.array([-1.0]), cfg)
    assert float(neg.theta[0]) == pytest.approx(-math.sqrt(1.5), abs=1e-12)


# d = 2 projections whose Gauss-Newton solve rejects trials, so that its
# Sherman-Morrison steps run with damping lam > 0
@pytest.mark.parametrize("a, candidate, warm", [
    ([[3.0, 1.0], [1.0, 2.0]], [1.0, 1.0, -1.0], [1.0, 1.0]),
    ([[3.0, 1.0], [1.0, 2.0]], [0.3, 0.2, 4.0], [0.3, 0.2]),
    ([[20.0, 0.0], [0.0, 1.0]], [2.0, 0.0, 0.0], [-1.0, 1.0])])
def test_hessian_free_footpoint_is_the_newton_footpoint(a, candidate, warm):
    landscape, candidate, warm = quadratic(np.array(a)), np.array(candidate), np.array(warm)
    cfg = ProjectionConfig()
    newton, _, _ = project_footpoint(landscape, candidate, warm, cfg)
    bare, calls = counting(dataclasses.replace(landscape, hessian=None))
    foot, _, resid = project_footpoint(bare, candidate, warm, cfg)
    assert calls["backward"] < calls["forward"]  # a trial was rejected
    tol = cfg.grad_tol * max(1.0, float(np.linalg.norm(foot.ambient - candidate)))
    assert resid <= tol
    np.testing.assert_allclose(foot.theta, newton.theta, rtol=0, atol=tol)


def test_footpoint_on_graph_candidate_is_fixed():
    foot, iters, resid = project_footpoint(
        PARABOLA, np.array([0.0, 0.0]), np.array([0.0]), ProjectionConfig())
    assert iters == 0 and resid == 0.0
    np.testing.assert_array_equal(foot.theta, [0.0])


def test_footpoint_reports_unconverged_residual():
    cfg = ProjectionConfig(max_iters=1)
    _, iters, resid = project_footpoint(
        PARABOLA, np.array([0.0, 2.0]), np.array([1.0]), cfg)
    assert iters == 1 and resid > 1e-3  # honest: cap hit, residual large


def test_footpoint_divergence_raises_with_details():
    cfg = ProjectionConfig(max_iters=50)
    with pytest.raises(ProjectionDivergence) as exc:
        project_footpoint(PARABOLA, np.array([0.0, 2e13]), np.array([1.0]), cfg)
    assert exc.value.iteration == 0  # the candidate itself is beyond the limit
    assert exc.value.norm > 1e12


def test_footpoint_validates_candidate_shape():
    with pytest.raises(ValueError, match="ambient"):
        project_footpoint(PARABOLA, np.array([0.0]), np.array([0.0]))


def test_rbo_step_returns_state_and_record():
    state = lift(PARABOLA, np.array([1.0]), rho=0.5)
    new_state, rec = rbo_step(PARABOLA, state, eta=0.1,
                              cfg=ProjectionConfig(), t=3)
    assert isinstance(new_state, BallState) and isinstance(rec, StepRecord)
    assert rec.t == 3
    assert rec.loss == new_state.contact.y
    np.testing.assert_array_equal(rec.theta, new_state.contact.theta)
    np.testing.assert_array_equal(rec.center, new_state.center)
    # radius preserved exactly by the re-lift
    drift = abs(np.linalg.norm(new_state.center - new_state.contact.ambient) - 0.5)
    assert drift <= 1e-9 * 0.5
    assert rec.projection_iters >= 1
    assert 0.0 < float(new_state.contact.theta[0]) < 1.0  # moved downhill


def test_rbo_step_fixed_at_critical_point():
    state = lift(PARABOLA, np.array([0.0]), rho=1.0)
    new_state, rec = rbo_step(PARABOLA, state, eta=0.5, cfg=ProjectionConfig())
    # zero gradient: tangent vanishes, candidate = center, contact stays put
    np.testing.assert_allclose(new_state.contact.theta, [0.0], atol=1e-12)
    assert rec.projection_residual <= 1e-8


@given(st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_rbo_eta_zero_never_moves(rho):
    # a zero step moves nothing, so the first step settles the run where it starts
    traj = run_rbo(PARABOLA, np.array([0.8]), rho=rho, eta=0.0, steps=5,
                   cfg=ProjectionConfig())
    assert traj.error is None and len(traj.records) == 2
    for rec in traj.records:
        assert rec.center[0] == 0.8
        assert np.array_equal(rec.theta, traj.records[0].theta)


def brute_offset(f, rho, x):
    """(phi, contact) of the center over x, by brute force: the maximum of
    f(j h) + sqrt(rho^2 - (j h - x)^2) over every lattice point within rho
    of x, h = rho / 100, and the lattice point that attains it."""
    h = rho / 100.0
    t = np.arange(math.ceil((x - rho) / h), math.floor((x + rho) / h) + 1) * h
    t = t[np.abs(t - x) < rho]
    c = f(t) + np.sqrt(rho * rho - (t - x) ** 2)
    return float(c.max()), float(t[np.argmax(c)])


def test_run_rbo_record_shape_and_initial_row():
    traj = run_rbo(PARABOLA, np.array([1.0]), rho=0.5, eta=0.1, steps=7,
                   cfg=ProjectionConfig(), seed=None)
    assert traj.error is None
    assert len(traj.records) == 8  # T updates -> T+1 records
    r0 = traj.records[0]
    phi, t = brute_offset(lambda t: t * t, 0.5, 1.0)
    # the ball starts over theta0 and records its contact as theta
    assert r0.t == 0 and r0.center[0] == 1.0
    assert r0.center[1] == pytest.approx(phi, abs=1e-14)
    assert r0.theta[0] == pytest.approx(t, abs=1e-14) and r0.loss == pytest.approx(t * t)
    assert r0.grad_norm == pytest.approx((t - 1.0) / math.sqrt(0.25 - (t - 1.0) ** 2))
    assert r0.projection_iters == 0 and r0.projection_residual == 0.0
    assert [r.t for r in traj.records] == list(range(8))
    assert traj.header.optimizer == "rbo"
    assert traj.header.hyperparameters["rho"] == 0.5
    assert traj.thetas().shape == (8, 1) and traj.losses().shape == (8,)


def test_run_rbo_validates_arguments():
    with pytest.raises(ValueError):
        run_rbo(PARABOLA, np.array([[1.0]]), rho=1.0, eta=0.1, steps=2)
    with pytest.raises(ValueError):
        run_rbo(PARABOLA, np.array([1.0]), rho=1.0, eta=0.1, steps=-1)
    with pytest.raises(ValueError):
        run_rbo(PARABOLA, np.array([1.0]), rho=-1.0, eta=0.1, steps=2)
    with pytest.raises(ValueError, match="theta0 must be finite"):
        run_rbo(PARABOLA, np.array([math.nan]), rho=1.0, eta=0.1, steps=2)


@pytest.mark.parametrize("start, key", [
    (lambda ls: run_gd(ls, np.array([1.0]), eta=-1.0, steps=1), "eta"),
    (lambda ls: run_sgd(ls, np.array([1.0]), eta=-1.0, steps=1), "eta"),
    (lambda ls: run_sam(ls, np.array([1.0]), eta=0.1, sam_rho=-1.0, steps=1), "sam_rho"),
    (lambda ls: run_rbo(ls, np.array([1.0]), rho=math.nan, eta=0.1, steps=1), "rho")],
    ids=["gd-eta", "sgd-eta", "sam-sam_rho", "rbo-rho"])
def test_direct_runs_reject_a_hyperparameter_before_any_oracle_call(start, key):
    calls = []

    def forward(theta):
        calls.append(theta)
        return HALF_SQ.forward(theta)

    counted = dataclasses.replace(HALF_SQ, forward=forward)
    with pytest.raises(ValueError, match=f"^{key} must be"):
        start(counted)
    assert calls == []


def test_rbo_on_affine_landscape_tracks_gd():
    # constant gradient a: the offset of a line is the line lifted, its
    # contact s* = rho a / sqrt(1 + a^2) ahead of the center, so the center
    # takes plain gradient steps. The lattice contact lies within h of s*,
    # and its arc's slope within h rho^2 / circ^3 of a, per step
    a, rho, eta, steps = 0.7, 1.0, 0.05, 20
    ls = affine_plus_bump(a, 0.3, "sin", amplitude=0.0)
    theta0 = np.array([2.0])
    rbo = run_rbo(ls, theta0, rho=rho, eta=eta, steps=steps,
                  cfg=ProjectionConfig(grad_tol=1e-14, max_iters=400))
    gd = run_gd(ls, theta0, eta=eta, steps=steps)
    assert rbo.error is None and gd.error is None and len(rbo.records) == steps + 1
    h, s = rho / 100, rho * a / math.hypot(1.0, a)
    centers = np.array([r.center[0] for r in rbo.records])
    np.testing.assert_allclose(rbo.thetas()[:, 0] - centers, s, atol=h)
    slack = steps * eta * h * rho ** 2 / (rho * rho - (s + h) ** 2) ** 1.5
    np.testing.assert_allclose(centers, gd.thetas()[:, 0], atol=slack)


def test_gd_closed_form_on_quadratic():
    eta = 0.1
    traj = run_gd(HALF_SQ, np.array([1.0]), eta=eta, steps=30)
    expected = (1.0 - eta) ** np.arange(31)
    np.testing.assert_allclose(traj.thetas()[:, 0], expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.losses(), 0.5 * expected**2, rtol=0, atol=1e-12)


def test_gd_divergence_flagged_not_raised():
    traj = run_gd(HALF_SQ, np.array([1.0]), eta=2.5, steps=400)
    assert traj.error is not None and "diverged" in traj.error
    assert 0 < len(traj.records) < 401  # partial records kept
    assert traj.records[-1].loss > 1e20


def _nan_grad_at(t0: float) -> Landscape:
    """f = theta^2 whose gradient oracle returns NaN at theta = t0."""
    def forward(theta):
        t = float(theta[0])
        return t * t, lambda: np.array([math.nan if t == t0 else 2.0 * t])
    return Landscape(dim=1, forward=forward, name="nan_grad")


@pytest.mark.parametrize("run", [
    lambda ls: run_gd(ls, np.array([0.2]), eta=0.1, steps=5),
    lambda ls: run_sgd(ls, np.array([0.2]), eta=0.1, steps=5, seed=0),
    lambda ls: run_sam(ls, np.array([0.2]), eta=0.1, sam_rho=0.05, steps=5)],
    ids=["gd", "sgd", "sam"])
def test_descent_stops_on_a_nan_iterate(run):
    traj = run(_nan_grad_at(0.2))
    assert traj.error.startswith("step 1:") and "diverged" in traj.error
    assert len(traj.records) == 1 and traj.records[0].theta[0] == 0.2


def test_sam_zero_radius_is_bitwise_gd():
    sam = run_sam(riemann(10), np.array([2.0]), eta=0.05, sam_rho=0.0, steps=25)
    gd = run_gd(riemann(10), np.array([2.0]), eta=0.05, steps=25)
    for a, b in zip(sam.records, gd.records):
        assert np.array_equal(a.theta, b.theta)
        assert a.loss == b.loss and a.grad_norm == b.grad_norm


def test_sam_one_step_hand_value():
    # theta=1, f=theta^2/2: probe = 1 + 0.05 * 1 = 1.05, update = 1 - 0.1 * 1.05
    traj = run_sam(HALF_SQ, np.array([1.0]), eta=0.1, sam_rho=0.05, steps=1)
    assert float(traj.records[1].theta[0]) == pytest.approx(0.895, abs=1e-15)
    with pytest.raises(ValueError):
        run_sam(HALF_SQ, np.array([1.0]), eta=0.1, sam_rho=-0.1, steps=1)


def test_sgd_on_deterministic_landscape_is_bitwise_gd():
    sgd = run_sgd(riemann(10), np.array([2.0]), eta=0.05, steps=25, seed=123)
    gd = run_gd(riemann(10), np.array([2.0]), eta=0.05, steps=25)
    for a, b in zip(sgd.records, gd.records):
        assert np.array_equal(a.theta, b.theta) and a.loss == b.loss


def test_stochastic_runs_are_seed_reproducible():
    from rollball.neural import Dataset, MlpSpec, as_landscape, init_params
    rng = np.random.default_rng(0)
    ds = Dataset(images=rng.random((40, 6)),
                 labels=np.asarray(rng.integers(0, 3, 40)))
    spec = MlpSpec(inputs=6, hidden=(5,), outputs=3)
    ls = as_landscape(spec, ds, batch_size=8)
    theta0 = init_params(spec, seed=2)

    a = run_sgd(ls, theta0, eta=0.1, steps=12, seed=5)
    b = run_sgd(ls, theta0, eta=0.1, steps=12, seed=5)
    c = run_sgd(ls, theta0, eta=0.1, steps=12, seed=6)
    assert np.array_equal(a.thetas(), b.thetas())
    assert not np.array_equal(a.thetas(), c.thetas())

    r1 = run_rbo(ls, theta0, rho=1.0, eta=0.5, steps=6,
                 cfg=ProjectionConfig(max_iters=20), seed=5)
    r2 = run_rbo(ls, theta0, rho=1.0, eta=0.5, steps=6,
                 cfg=ProjectionConfig(max_iters=20), seed=5)
    assert np.array_equal(r1.thetas(), r2.thetas())
    assert r1.error is None


def test_unseeded_stochastic_runs_record_a_replayable_seed():
    # without a seed a minibatch run draws one from fresh entropy and records
    # it, so its own header replays it bit for bit
    ls, theta0 = tiny_mlp_landscape()
    runs = [run_sgd(ls, theta0, eta=0.1, steps=6) for _ in range(2)]
    seeds = [run.header.seed for run in runs]
    assert all(isinstance(seed, int) for seed in seeds) and seeds[0] != seeds[1]
    for run in runs:
        again = run_sgd(ls, theta0, eta=0.1, steps=6, seed=run.header.seed)
        assert again.header == run.header
        assert np.array_equal(again.thetas(), run.thetas())
        assert [r.loss for r in again.records] == [r.loss for r in run.records]
    assert run_sgd(PARABOLA, np.array([1.0]), eta=0.1, steps=2).header.seed is None


def test_rbo_divergence_keeps_partial_trajectory():
    traj = run_rbo(PARABOLA, np.array([1.0]), rho=0.5, eta=1e13, steps=10,
                   cfg=ProjectionConfig(max_iters=50))
    assert traj.error is not None and "step 1" in traj.error
    assert len(traj.records) == 1  # the lifted initial record survives


def capped_share(traj, cfg=ProjectionConfig()) -> float:
    steps = traj.records[1:]
    return sum(r.projection_iters == cfg.max_iters
               and r.projection_residual > cfg.grad_tol for r in steps) / len(steps)


def projected_run(landscape, rho, hessian):
    # d = 2, so every step projects and takes at least one trial
    if not hessian:  # the Gauss-Newton path
        landscape = dataclasses.replace(landscape, hessian=None)
    traj = run_rbo(landscape, np.array([1.5, 1.5]), rho=rho, eta=0.1, steps=300)
    assert traj.error is None
    assert min(r.projection_iters for r in traj.records[1:]) >= 1
    return traj


@pytest.mark.parametrize("rho", [0.3, 1.0])
@pytest.mark.parametrize("hessian", [True, False], ids=["newton", "gauss-newton"])
def test_projection_converges_on_smooth_landscapes(hessian, rho):
    # measured: no capped step on either path at either radius
    assert capped_share(projected_run(quadratic(np.diag([4.0, 0.5])), rho, hessian)) == 0.0


@pytest.mark.parametrize("rho", [0.1, 1.0])
def test_projection_rarely_capped_on_rough_landscape(rho):
    # measured: Newton never capped; Gauss-Newton capped on 8 of 300 steps at
    # rho = 1 and on none at 0.1, with 7.7 and 2.7 trials per step
    bump = affine_plus_bump([0.3, 0.2], 0.0)
    newton, gauss_newton = (projected_run(bump, rho, hessian) for hessian in (True, False))
    assert capped_share(newton) == 0.0
    assert capped_share(gauss_newton) <= 0.04
    for traj in (newton, gauss_newton):
        assert np.mean([r.projection_iters for r in traj.records[1:]]) <= 10.0


def counting_forward(landscape, calls):
    """landscape.forward, counting its calls and the backward calls of the
    callables it returns into calls["forward"] and calls["backward"]."""
    def forward(theta):
        calls["forward"] += 1
        v, backward = landscape.forward(theta)

        def counted_backward():
            calls["backward"] += 1
            return backward()
        return v, counted_backward
    return forward


def counting(landscape):
    """The landscape with a forward oracle that counts its calls and its
    backward calls."""
    calls = {"forward": 0, "backward": 0}
    return dataclasses.replace(landscape, forward=counting_forward(landscape, calls)), calls


BOWL = quadratic(np.diag([2.0, 1.0]))  # a 2D bowl: its rbo steps project


@pytest.mark.parametrize("landscape", [BOWL, dataclasses.replace(BOWL, hessian=None)],
                         ids=["newton", "gauss-newton"])
def test_rbo_makes_one_fused_call_per_trial(landscape):
    ls, calls = counting(landscape)
    traj = run_rbo(ls, np.array([1.0, -0.5]), rho=0.2, eta=0.1, steps=30)
    assert traj.error is None
    assert capped_share(traj) == 0.0
    assert calls["forward"] == sum(r.projection_iters for r in traj.records) + 1
    assert calls["backward"] <= calls["forward"]


# ---------------------------------------------------------------------------
# divergence inside the projection
# ---------------------------------------------------------------------------

def poisoned(oracle: str) -> Landscape:
    """f = theta^2 / 2 whose named oracle (loss, gradient or Hessian) is not
    finite beyond theta = 0.9; its f_batch is the loss oracle's."""
    def forward(theta):
        t = float(theta[0])
        bad = t > 0.9
        return (math.inf if bad and oracle == "loss" else 0.5 * t * t,
                lambda: np.array([math.nan if bad and oracle == "gradient" else t]))

    def hessian(theta):
        return np.array([[math.inf if theta[0] > 0.9 and oracle == "Hessian" else 1.0]])

    def f_batch(thetas):
        t = np.asarray(thetas, dtype=float).reshape(-1)
        return np.where((t > 0.9) & (oracle == "loss"), math.inf, 0.5 * t * t)
    return Landscape(dim=1, forward=forward, hessian=hessian, f_batch=f_batch,
                     name=f"poisoned {oracle}")


# from theta = 0 toward (2, 0): trial 1 lands on theta = 2, where G does not
# fall, and trial 2 on theta = 1, where it does
@pytest.mark.parametrize("oracle, iteration, norm", [
    ("loss", 1, 2.0), ("gradient", 2, 1.0), ("Hessian", 2, 1.0)])
def test_both_loops_diverge_alike(oracle, iteration, norm):
    landscape = poisoned(oracle)
    with pytest.raises(ProjectionDivergence) as exc:
        project_footpoint(landscape, np.array([2.0, 0.0]),
                          _graph_point(landscape, np.array([0.0])))
    assert (exc.value.iteration, exc.value.norm) == (iteration, norm)
    assert f"non-finite {oracle}" in str(exc.value)


def test_descent_reuses_the_record_gradient():
    # one of each per step plus record 0, and sam one more per step for its ascent point
    for run, count in ((lambda ls: run_gd(ls, np.array([2.0]), eta=0.05, steps=25), 26),
                       (lambda ls: run_sgd(ls, np.array([2.0]), eta=0.05, steps=25,
                                           seed=1), 26),
                       (lambda ls: run_sam(ls, np.array([2.0]), eta=0.05, sam_rho=0.05,
                                           steps=25), 51)):
        ls, calls = counting(riemann(10))
        assert run(ls).error is None
        assert calls == {"forward": count, "backward": count}



# ---------------------------------------------------------------------------
# keep_records=False: only the final record, field for field
# ---------------------------------------------------------------------------

def lean_run(optimizer, landscape, theta0, eta=0.05, **kw):
    if optimizer == "rbo":
        return run_rbo(landscape, theta0, rho=0.5, eta=0.5, steps=12, seed=5, **kw)
    if optimizer == "gd":
        return run_gd(landscape, theta0, eta=eta, steps=12, **kw)
    if optimizer == "sgd":
        return run_sgd(landscape, theta0, eta=eta, steps=12, seed=5, **kw)
    return run_sam(landscape, theta0, eta=eta, sam_rho=0.05, steps=12, seed=5, **kw)


def tiny_mlp_landscape():
    from rollball.neural import Dataset, MlpSpec, as_landscape, init_params
    rng = np.random.default_rng(0)
    ds = Dataset(images=rng.random((40, 6)), labels=np.asarray(rng.integers(0, 3, 40)))
    spec = MlpSpec(inputs=6, hidden=(5,), outputs=3)
    return as_landscape(spec, ds, batch_size=8), init_params(spec, seed=2)


def stretched_parabola():
    """Stochastic f = c theta^2 with c drawn from [1, 2] per minibatch: a
    descent step of eta = 10 multiplies |theta| by 19 or more, so gd, sgd
    and sam diverge after several good steps."""
    def bind(c):
        return quadratic(np.array([[2.0 * c]]))
    return dataclasses.replace(PARABOLA, sample_context=lambda rng: rng.uniform(1.0, 2.0),
                               with_context=bind), np.array([1.0])


def capped_parabola():
    """f = -theta^2 / 2, not finite beyond |theta| = 3: the ball rolls
    outward and meets the non-finite values a few steps later."""
    cap = quadratic(np.array([[-1.0]]))

    def forward(theta):
        v, backward = cap.forward(theta)
        return (v if abs(theta[0]) < 3.0 else math.nan), backward

    def f_batch(thetas):
        return np.where(np.abs(thetas[:, 0]) < 3.0, cap.f_batch(thetas), math.nan)
    return dataclasses.replace(cap, forward=forward, f_batch=f_batch), np.array([0.5])


def assert_final_record_only(lean, full):
    assert lean.header == full.header
    assert lean.error == full.error
    assert len(lean.records) == 1
    for fld in dataclasses.fields(StepRecord):
        assert np.array_equal(getattr(lean.records[0], fld.name),
                              getattr(full.records[-1], fld.name))


@pytest.mark.parametrize("optimizer", ["rbo", "gd", "sgd", "sam"])
@pytest.mark.parametrize("make", [tiny_mlp_landscape, lambda: (riemann(10), np.array([2.0]))],
                         ids=["stochastic-mlp", "riemann(10)"])
def test_keep_records_false_keeps_the_final_record(make, optimizer):
    landscape, theta0 = make()
    full = lean_run(optimizer, landscape, theta0)
    assert full.error is None
    # a deterministic 1D rbo run ends early at the step that settles it
    settled = (optimizer == "rbo" and not landscape.is_stochastic
               and np.array_equal(full.records[-1].center, full.records[-2].center))
    assert len(full.records) == 13 or settled and len(full.records) < 13
    assert_final_record_only(lean_run(optimizer, landscape, theta0, keep_records=False), full)


@pytest.mark.parametrize("optimizer", ["gd", "sgd", "sam"])
def test_keep_records_false_on_an_aborted_descent(optimizer):
    landscape, theta0 = stretched_parabola()
    full = lean_run(optimizer, landscape, theta0, eta=10.0)
    assert full.error is not None and "diverged" in full.error
    assert 3 <= len(full.records) <= 12
    assert_final_record_only(lean_run(optimizer, landscape, theta0, eta=10.0,
                                      keep_records=False), full)


def test_keep_records_false_on_an_aborted_rbo_run():
    landscape, theta0 = capped_parabola()
    full = lean_run("rbo", landscape, theta0)
    assert full.error is not None and "non-finite" in full.error
    assert 3 <= len(full.records) <= 12
    assert_final_record_only(lean_run("rbo", landscape, theta0, keep_records=False), full)


def forbidden(theta):
    raise AssertionError("full-data oracle call")


def full_data_raises(landscape):
    """The stochastic landscape with its full-data oracles raising; its
    minibatch views are untouched."""
    return dataclasses.replace(landscape, forward=forbidden)


def test_lean_rbo_run_lifts_theta0_on_the_full_data_only_for_record_0():
    landscape, theta0 = tiny_mlp_landscape()
    full = lean_run("rbo", landscape, theta0)
    lean = lean_run("rbo", full_data_raises(landscape), theta0, keep_records=False)
    assert_final_record_only(lean, full)
    # a run with no completed step still returns the full-data record 0
    empty = run_rbo(landscape, theta0, rho=0.5, eta=0.5, steps=0, seed=5)
    assert_final_record_only(run_rbo(landscape, theta0, rho=0.5, eta=0.5, steps=0,
                                     seed=5, keep_records=False), empty)
    assert_final_record_only(empty, dataclasses.replace(full, header=empty.header,
                                                        records=full.records[:1]))
    cap, _ = capped_parabola()
    stochastic = dataclasses.replace(cap, sample_context=lambda rng: rng.uniform(),
                                     with_context=lambda ctx: cap)
    aborted = run_rbo(stochastic, np.array([2.9]), rho=0.5, eta=0.5, steps=5, seed=5)
    assert aborted.error.startswith("step 1:") and len(aborted.records) == 1
    assert_final_record_only(run_rbo(stochastic, np.array([2.9]), rho=0.5, eta=0.5,
                                     steps=5, seed=5, keep_records=False), aborted)


def counting_views(landscape, full_forward=forbidden):
    """A stochastic landscape whose minibatch views count their forward and
    backward calls, and whose own (full-data) oracle is full_forward, by
    default one that must not be called."""
    calls = {"forward": 0, "backward": 0}

    def bind(ctx):
        view = landscape.with_context(ctx)
        return dataclasses.replace(view, forward=counting_forward(view, calls))
    return dataclasses.replace(landscape, forward=full_forward, with_context=bind), calls


def test_lean_sgd_epoch_evaluates_only_the_final_record():
    landscape, theta0 = tiny_mlp_landscape()
    ls, calls = counting_views(landscape)
    traj = run_sgd(ls, theta0, eta=0.05, steps=5, seed=5, keep_records=False)
    assert traj.error is None and traj.records[0].t == 5
    # one of each per step, and one more for the record
    assert calls == {"forward": 6, "backward": 6}


# forward calls of a 12-step run on the minibatch views and on the full data,
# with keep_records=True and False
@pytest.mark.parametrize("optimizer, view_calls, full_calls", [
    ("rbo", (153, 153), (1, 0)), ("sam", (36, 25), (1, 0)), ("sgd", (24, 13), (1, 0)),
    ("gd", (0, 0), (13, 13))])
def test_minibatch_and_full_data_calls_per_run(optimizer, view_calls, full_calls):
    landscape, theta0 = tiny_mlp_landscape()
    for keep_records, views, full in zip((True, False), view_calls, full_calls):
        full_data = {"forward": 0, "backward": 0}
        ls, calls = counting_views(landscape, counting_forward(landscape, full_data))
        assert lean_run(optimizer, ls, theta0, keep_records=keep_records).error is None
        assert (calls["forward"], full_data["forward"]) == (views, full)


# ---------------------------------------------------------------------------
# the 1D roll on the sampled offset
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta0", [1.7, -0.4, 0.0, 2.5])
@pytest.mark.parametrize("a", [2.0, 4.0], ids=["theta^2", "2theta^2"])
def test_the_roll_settles_on_both_walls_of_a_sharp_parabola(a, theta0):
    # f = a theta^2 / 2 with a > 1 / rho: the ball rests on both walls, at the
    # contacts +-t whose normals meet on the axis, sqrt(1 + a^2 t^2) = rho a,
    # at height a t^2 / 2 + 1 / a (1.25 and 2.125 at rho = 1)
    rho, h = 1.0, 0.01
    t = math.sqrt(rho * rho * a * a - 1.0) / a
    traj = run_rbo(quadratic(np.array([[a]])), np.array([theta0]), rho, 0.1, 500)
    assert traj.error is None and len(traj.records) < 501
    last, before = traj.records[-1], traj.records[-2]
    assert np.array_equal(last.center, before.center)  # the settled state, recorded again
    assert np.array_equal(last.theta, before.theta)
    assert abs(last.center[0]) <= h
    assert last.center[1] == pytest.approx(a * t * t / 2 + 1.0 / a, abs=h)
    assert abs(abs(last.theta[0]) - t) <= h


def with_own_candidate(ls, rho, x):
    """offset_value at the roll's h: the lattice plus theta's own candidate."""
    return offset_value(ls, rho, x, rho / 100)


def lattice_only(ls, rho, x):
    """The roll's own phi, by brute force over the lattice."""
    return brute_offset(lambda t: ls.f_batch(t[:, None]), rho, x)[0]


# the sweep's rho 2.1544 / eta 21.544 cell (rho_count 4, eta_count 4)
SWEEP_RHO, SWEEP_ETA = 2.1544346900318834, 21.544346900318835


@pytest.mark.parametrize("ls, rho, eta, steps, penetration, offset", [
    pytest.param(riemann(100), 0.1, 0.01, 500, 0.005, with_own_candidate, id="0.1-0.005"),
    pytest.param(riemann(100), 1.0, 0.1, 500, 0.05, with_own_candidate, id="1.0-0.05"),
    # long steps, whose end moves with the last bits of f: the CLI's default
    # eta, and the sweep cell above
    pytest.param(riemann(100), 1.0, 6.0, 100, 0.05, with_own_candidate, id="1.0-eta6"),
    pytest.param(riemann(100), SWEEP_RHO, SWEEP_ETA, 100, 0.1, with_own_candidate,
                 id="2.1544-eta21.544"),
    pytest.param(riemann(5), 0.1, 0.01, 500, 2e-5, with_own_candidate, id="riemann(5)-0.1"),
    pytest.param(riemann(5), 1.0, 0.1, 500, 5e-4, with_own_candidate, id="riemann(5)-1.0"),
    # theta's own candidate f(theta) + rho beats the lattice by up to 6.4e-7 here
    pytest.param(PARABOLA, 0.1, 0.01, 500, 5e-5, lattice_only, id="theta^2-0.1"),
])
def test_every_center_of_a_riemann_roll_is_on_the_offset(ls, rho, eta, steps, penetration,
                                                         offset):
    # each center against the offset at the roll's h, and against the graph
    # sampled 100 times finer than the lattice (measured penetration: 0.45
    # and 0.79 of the bound on riemann(100) at eta = rho / 10, 0.79 and 0.65
    # at the CLI default and the sweep cell, 0.24-0.37 on the others)
    traj = run_rbo(ls, np.array([2.0]), rho, eta, steps)
    assert traj.error is None
    assert np.mean([r.projection_iters for r in traj.records[1:]]) <= 20.0
    centers = np.array([r.center for r in traj.records])
    gaps = [offset(ls, rho, float(x)) - y for x, y in centers]
    assert max(map(abs, gaps)) <= 1e-12
    grid = GridSpec((centers[:, 0].min() - 2 * rho,), (centers[:, 0].max() + 2 * rho,), 1e-4)
    assert rho - distances_to_graph(ls, centers, grid).min() <= penetration
    for r in traj.records:
        contact = np.array([r.theta[0], r.loss])
        assert abs(np.linalg.norm(r.center - contact) - rho) <= 1e-9 * rho


def test_a_second_phi_near_the_first_reads_no_new_points():
    calls, base = [], riemann(100)

    def f_batch(thetas):
        calls.append(len(thetas))
        return base.f_batch(thetas)
    lattice = geometry._Lattice(dataclasses.replace(base, f_batch=f_batch), 1.0, 0.01)
    for x in (2.0, 2.3, 1.95):
        phi, t = brute_offset(lambda t: base.f_batch(t[:, None]), 1.0, x)
        assert lattice.phi(x)[:2] == (pytest.approx(phi, abs=1e-14), t)
    assert calls == [geometry._CACHE_BLOCK]


def record_bytes(traj):
    """Each record's fields as raw float bytes: equal only if bit for bit equal."""
    return [b"".join(np.asarray(getattr(r, f.name), dtype=float).tobytes()
                     for f in dataclasses.fields(r)) for r in traj.records]


def counted_riemann():
    """riemann(100) whose f_batch keeps each batch it is asked for, and that list."""
    asked, base = [], riemann(100)
    return dataclasses.replace(base, f_batch=lambda t: asked.append(np.array(t).reshape(-1))
                               or base.f_batch(t)), asked


def test_rolls_sharing_a_lattice_record_what_fresh_rolls_record():
    # a sweep's four step sizes at one rho, through one memo view
    ls, asked = counted_riemann()
    etas = (0.01, 0.1, 1.0, 10.0)
    fresh = [run_rbo(ls, np.array([2.0]), 1.0, eta, 100) for eta in etas]
    fresh_calls = len(asked)
    with geometry.memo_view(ls) as view:
        shared = [run_rbo(view, np.array([2.0]), 1.0, eta, 100) for eta in etas]
        # another radius on the same view: the first lattice's values change nothing
        other = run_rbo(view, np.array([2.0]), 0.5, 0.1, 10)
    assert [t.error for t in fresh + shared] == [None] * 8
    assert list(map(record_bytes, shared)) == list(map(record_bytes, fresh))
    assert len(asked) - fresh_calls < fresh_calls
    assert record_bytes(other) == record_bytes(run_rbo(ls, np.array([2.0]), 0.5, 0.1, 10))


def test_rolls_through_one_view_read_each_lattice_point_once():
    # three rolls at one rho, the third back where the first rolled: a lattice
    # re-centred on each start reads 8,192 points, the view each of 6,144 once
    ls, asked = counted_riemann()
    with geometry.memo_view(ls) as view:
        trajs = [run_rbo(view, np.array([x]), 0.01, 0.001, 100) for x in (0.5, 3.5, 0.5)]
    assert [t.error for t in trajs] == [None] * 3
    assert record_bytes(trajs[2]) == record_bytes(trajs[0])
    read = np.concatenate(asked).view(np.int64)
    assert read.size == np.unique(read).size == 3 * geometry._CACHE_BLOCK


def test_a_huge_gradient_ends_the_run_at_its_step():
    # |grad f|^2 overflows at record 0, but the ball still rests one radius
    # from its contact; step 1's candidate lies beyond the divergence limit
    with np.errstate(over="ignore"):
        traj = run_rbo(quadratic(np.diag([1e200, 1.0])), np.array([1.0, 1.0]), 1.0, 0.1, 3)
    assert len(traj.records) == 1
    assert traj.error.startswith("step 1: foot-point projection diverged")
    assert "candidate beyond the limit" in traj.error


def test_a_finite_gradient_records_its_norm_where_its_square_overflows():
    with np.errstate(over="ignore"):
        traj = run_gd(quadratic(np.array([[1e300]])), np.array([1e5]), 1e-310, 2)
    assert traj.error is None and len(traj.records) == 3
    for r in traj.records:
        assert r.grad_norm == pytest.approx(1e305, rel=1e-9)
        assert r.grad_norm == abs(float(r.theta[0]) * 1e300)


def test_a_roll_scans_one_window_per_phi_evaluation(monkeypatch):
    scans, phi = [], geometry._Lattice.phi
    monkeypatch.setattr(geometry._Lattice, "phi", lambda self, x: scans.append(x) or phi(self, x))
    ls, calls = counting(dataclasses.replace(riemann(100), hessian=forbidden))
    traj = run_rbo(ls, np.array([2.0]), rho=1.0, eta=0.1, steps=500)
    assert traj.error is None
    assert len(scans) == sum(r.projection_iters for r in traj.records) + 1
    assert calls == {"forward": 0, "backward": 0}


def test_a_small_radius_roll_holds_at_most_the_cache_blocks(monkeypatch):
    # gd-limit's smallest radius: h = 1e-6, and the run crosses 10^6 lattice points
    held, phi = [], geometry._Lattice.phi

    def counted(self, x):
        out = phi(self, x)
        held.append(self.f.size)
        return out
    monkeypatch.setattr(geometry._Lattice, "phi", counted)
    traj = run_rbo(HALF_SQ, np.array([1.0]), rho=1e-4, eta=0.1, steps=50)
    assert traj.error is None
    assert max(held) <= geometry._CACHE_BLOCKS * geometry._CACHE_BLOCK


@pytest.mark.parametrize("theta0", [1e17, -1e300])
def test_a_far_out_1d_start_is_a_value_error_naming_theta0(theta0):
    ls = dataclasses.replace(riemann(100), forward=forbidden, f_batch=forbidden)
    with pytest.raises(ValueError, match="^theta0 .* too far out"):
        run_rbo(ls, np.array([theta0]), 1.0, 0.1, 2)


# f = -theta rolls the ball right by about eta per step; at rho = 1e-4 the
# lattice index 2^53 lies at 9.007e9, below DIVERGENCE_LIMIT, at rho = 1 beyond it
@pytest.mark.parametrize("theta0, rho, eta", [(2.0 ** 53 * 1e-6 - 10.0, 1e-4, 100.0),
                                              (5e11, 1.0, 1e12)], ids=["2^53", "limit"])
def test_a_step_out_of_range_ends_the_run(theta0, rho, eta):
    ls = affine_plus_bump(-1.0, 0.0, "sin", amplitude=0.0)
    traj = run_rbo(ls, np.array([theta0]), rho, eta, 5)
    assert traj.error.startswith("step 1:") and "center diverged" in traj.error
    assert len(traj.records) == 1


@pytest.mark.parametrize("theta0, eta", [(2.0, 0.1), (-0.5, 3.0)], ids=["start", "step"])
def test_a_non_finite_loss_in_a_window_ends_the_run(theta0, eta):
    traj = run_rbo(poisoned("loss"), np.array([theta0]), 0.1, eta, 10)
    assert traj.error.startswith("step 1:") and "non-finite loss" in traj.error
    assert len(traj.records) == 1
