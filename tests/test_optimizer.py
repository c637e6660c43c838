"""Rolling-ball steps, footpoint projection, and baseline descent loops."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rollball.landscape import (Landscape, affine_plus_bump, quadratic, riemann,
                                sinusoid)
from rollball.optimizer import (BallState, GraphPoint, ProjectionConfig,
                                ProjectionDivergence, StepRecord, _graph_point,
                                _project_1d, _project_general, lift,
                                project_footpoint, rbo_step, run_gd, run_rbo,
                                run_sam, run_sgd)

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
    traj = run_rbo(PARABOLA, np.array([0.8]), rho=rho, eta=0.0, steps=5,
                   cfg=ProjectionConfig())
    assert traj.error is None
    for rec in traj.records:
        np.testing.assert_allclose(rec.theta, [0.8], atol=1e-10)


def test_run_rbo_record_shape_and_initial_row():
    traj = run_rbo(PARABOLA, np.array([1.0]), rho=0.5, eta=0.1, steps=7,
                   cfg=ProjectionConfig(), seed=None)
    assert traj.error is None
    assert len(traj.records) == 8  # T updates -> T+1 records
    r0 = traj.records[0]
    assert r0.t == 0 and r0.loss == 1.0 and r0.grad_norm == 2.0
    assert r0.projection_iters == 0 and r0.projection_residual == 0.0
    np.testing.assert_allclose(
        r0.center, lift(PARABOLA, np.array([1.0]), 0.5).center, atol=1e-15)
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
    # constant gradient: rolling and re-projecting reduces to a plain
    # gradient step, so the two trajectories coincide
    ls = affine_plus_bump(0.7, 0.3, "sin", amplitude=0.0)
    theta0 = np.array([2.0])
    rbo = run_rbo(ls, theta0, rho=1.0, eta=0.05, steps=20,
                  cfg=ProjectionConfig(grad_tol=1e-14, max_iters=400))
    gd = run_gd(ls, theta0, eta=0.05, steps=20)
    assert rbo.error is None and gd.error is None
    np.testing.assert_allclose(rbo.thetas(), gd.thetas(), atol=1e-9)


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
    ls = as_landscape(spec, ds, batch_size=8, seed=11)
    theta0 = init_params(spec, seed=2)

    a = run_sgd(ls, theta0, eta=0.1, steps=12, seed=5)
    b = run_sgd(ls, theta0, eta=0.1, steps=12, seed=5)
    c = run_sgd(ls, theta0, eta=0.1, steps=12, seed=6)
    assert np.array_equal(a.thetas(), b.thetas())
    assert not np.array_equal(a.thetas(), c.thetas())

    # seed=None falls back to the landscape default seed recorded at creation
    d = run_sgd(ls, theta0, eta=0.1, steps=12)
    e = run_sgd(ls, theta0, eta=0.1, steps=12, seed=11)
    assert np.array_equal(d.thetas(), e.thetas())
    assert d.header.seed == 11

    r1 = run_rbo(ls, theta0, rho=1.0, eta=0.5, steps=6,
                 cfg=ProjectionConfig(max_iters=20), seed=5)
    r2 = run_rbo(ls, theta0, rho=1.0, eta=0.5, steps=6,
                 cfg=ProjectionConfig(max_iters=20), seed=5)
    assert np.array_equal(r1.thetas(), r2.thetas())
    assert r1.error is None


def test_rbo_divergence_keeps_partial_trajectory():
    traj = run_rbo(PARABOLA, np.array([1.0]), rho=0.5, eta=1e13, steps=10,
                   cfg=ProjectionConfig(max_iters=50))
    assert traj.error is not None and "step 1" in traj.error
    assert len(traj.records) == 1  # the lifted initial record survives


def capped_share(traj, cfg=ProjectionConfig()) -> float:
    steps = traj.records[1:]
    return sum(r.projection_iters == cfg.max_iters
               and r.projection_residual > cfg.grad_tol for r in steps) / len(steps)


@pytest.mark.parametrize("rho", [0.1, 1.0])
@pytest.mark.parametrize("landscape", [PARABOLA, riemann(5)], ids=["theta^2", "riemann(5)"])
def test_projection_converges_on_smooth_landscapes(landscape, rho):
    traj = run_rbo(landscape, np.array([2.0]), rho=rho, eta=0.1 * rho, steps=500)
    assert traj.error is None
    assert capped_share(traj) == 0.0


@pytest.mark.parametrize("rho", [0.1, 1.0])
def test_projection_rarely_capped_on_rough_landscape(rho):
    traj = run_rbo(riemann(100), np.array([2.0]), rho=rho, eta=0.1 * rho, steps=500)
    assert traj.error is None
    assert capped_share(traj) <= 0.02
    assert np.mean([r.projection_iters for r in traj.records[1:]]) <= 20.0


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


@pytest.mark.parametrize("landscape", [PARABOLA, dataclasses.replace(PARABOLA, hessian=None)],
                         ids=["newton", "gauss-newton"])
def test_rbo_makes_one_fused_call_per_trial(landscape):
    ls, calls = counting(landscape)
    traj = run_rbo(ls, np.array([1.0]), rho=0.2, eta=0.1, steps=30)
    assert traj.error is None
    assert capped_share(traj) == 0.0
    assert calls["forward"] == sum(r.projection_iters for r in traj.records) + 1
    assert calls["backward"] <= calls["forward"]


# ---------------------------------------------------------------------------
# the one-dimensional Newton loop against the general loop, bit for bit
# ---------------------------------------------------------------------------

def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def both_loops(landscape, candidate, warm, cfg):
    """What each projection loop returns from the same start, or the
    ProjectionDivergence it raises."""
    out = []
    for solve in (_project_general, _project_1d):
        point = _graph_point(landscape, np.array([warm]))
        try:
            out.append(solve(landscape, np.array(candidate, dtype=float), point, cfg))
        except ProjectionDivergence as exc:
            out.append(exc)
    return out


def assert_same_projection(general, scalar):
    if isinstance(general, ProjectionDivergence):
        assert type(scalar) is type(general)
        assert (scalar.iteration, bits(scalar.norm), str(scalar)) == \
            (general.iteration, bits(general.norm), str(general))
        return
    (foot, iters, resid), (foot_1d, iters_1d, resid_1d) = general, scalar
    assert bits(foot_1d.theta) == bits(foot.theta)
    assert bits(foot_1d.y) == bits(foot.y)
    assert bits(foot_1d.grad) == bits(foot.grad)
    assert (iters_1d, bits(resid_1d)) == (iters, bits(resid))


ONE_D_LANDSCAPES = st.one_of(
    st.integers(1, 100).map(riemann),
    st.just(sinusoid()),
    st.floats(1e-3, 1e3).map(lambda a: quadratic(np.array([[a]]))),
    st.builds(affine_plus_bump, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
              st.sampled_from(["sin", "cos", "gaussian"]), st.floats(-2.0, 2.0)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(landscape=ONE_D_LANDSCAPES, theta_c=st.floats(-10.0, 10.0),
       y_c=st.floats(-10.0, 10.0), warm=st.floats(-10.0, 10.0),
       max_iters=st.integers(1, 100),
       grad_tol=st.sampled_from([1e-300, 1e-12, 1e-8, 1e-4, 0.1]))
# |r| beyond 1.3e154: r * r is inf and the solve stops, where |r| would go on
@example(landscape=quadratic(np.array([[1e150]])), theta_c=0.0, y_c=0.0, warm=1.0,
         max_iters=100, grad_tol=1e-8)
# |r| below 1.5e-154 at the start or at an accepted trial: r * r rounds to 0
@example(landscape=sinusoid(), theta_c=0.0, y_c=0.0, warm=1e-170, max_iters=100,
         grad_tol=1e-8)
@example(landscape=sinusoid(), theta_c=0.0, y_c=0.0, warm=1e-3, max_iters=100,
         grad_tol=1e-300)
def test_1d_newton_loop_is_bitwise_the_general_loop(landscape, theta_c, y_c, warm,
                                                    max_iters, grad_tol):
    assert_same_projection(*both_loops(landscape, [theta_c, y_c], warm,
                                       ProjectionConfig(max_iters, grad_tol)))


def poisoned(oracle: str) -> Landscape:
    """f = theta^2 / 2 whose named oracle (loss, gradient or Hessian) is not
    finite beyond theta = 0.9."""
    def forward(theta):
        t = float(theta[0])
        bad = t > 0.9
        return (math.inf if bad and oracle == "loss" else 0.5 * t * t,
                lambda: np.array([math.nan if bad and oracle == "gradient" else t]))

    def hessian(theta):
        return np.array([[math.inf if theta[0] > 0.9 and oracle == "Hessian" else 1.0]])
    return Landscape(dim=1, forward=forward, hessian=hessian, name=f"poisoned {oracle}")


# from theta = 0 toward (2, 0): trial 1 lands on theta = 2, where G does not
# fall, and trial 2 on theta = 1, where it does
@pytest.mark.parametrize("oracle, iteration, norm", [
    ("loss", 1, 2.0), ("gradient", 2, 1.0), ("Hessian", 2, 1.0)])
def test_both_loops_diverge_alike(oracle, iteration, norm):
    general, scalar = both_loops(poisoned(oracle), [2.0, 0.0], 0.0, ProjectionConfig())
    assert isinstance(general, ProjectionDivergence)
    assert (general.iteration, general.norm) == (iteration, norm)
    assert f"non-finite {oracle}" in str(general)
    assert_same_projection(general, scalar)


def test_every_projection_of_a_1d_run_goes_through_the_module_function(monkeypatch):
    """The benchmark times projections by rebinding
    optimizer.project_footpoint, so the one-dimensional loop must run
    inside it, not beside it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].dim)
        return project_footpoint(*args, **kwargs)
    monkeypatch.setattr("rollball.optimizer.project_footpoint", counted)
    traj = run_rbo(riemann(100), np.array([2.0]), rho=1.0, eta=0.1, steps=20)
    assert traj.error is None
    assert calls == [1] * 20


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
    return as_landscape(spec, ds, batch_size=8, seed=11), init_params(spec, seed=2)


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
    outward and its projection fails a few steps later."""
    cap = quadratic(np.array([[-1.0]]))

    def forward(theta):
        v, backward = cap.forward(theta)
        return (v if abs(theta[0]) < 3.0 else math.nan), backward
    return dataclasses.replace(cap, forward=forward), np.array([0.5])


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
    assert full.error is None and len(full.records) == 13
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
