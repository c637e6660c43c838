"""Graph geometry: normals, offsets, distances, unreachability oracle."""
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from rollball import geometry
from rollball.geometry import (GridSpec, _offset_window, count_local_minima,
                               distances_to_graph, hausdorff_distance,
                               is_unreachable, normal_from_grad,
                               offset_profile, offset_value, sharpness)
from rollball.landscape import (Landscape, affine_plus_bump, eval_batch, quadratic,
                                riemann, sinusoid, value_and_grad)
from reference import full_window_profile

grad_vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=1, max_size=4)


@given(grad_vectors)
@settings(max_examples=60, deadline=None)
def test_normal_is_unit_and_orthogonal_to_tangent(g):
    g = np.array(g)
    nu = normal_from_grad(g)
    tau = np.append(g, g @ g)  # the lifted steepest-ascent tangent rbo_step moves against
    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
    assert abs(nu @ tau) <= 1e-9 * max(1.0, np.linalg.norm(tau))
    assert nu[-1] > 0  # upward component


def test_normal_tangent_values():
    # f = theta^2 at theta=1: grad=2, nu=(-2,1)/sqrt5 (the tangent's values:
    # test_optimizer's test_rbo_step_displaces_the_center_against_the_lifted_tangent)
    ls = quadratic(np.array([[2.0]]))
    g = value_and_grad(ls, np.array([1.0]))[1]
    np.testing.assert_allclose(normal_from_grad(g),
                               np.array([-2.0, 1.0]) / np.sqrt(5.0), atol=1e-15)
    # flat point: normal straight up
    g = value_and_grad(ls, np.zeros(1))[1]
    np.testing.assert_array_equal(normal_from_grad(g), [0.0, 1.0])


def test_normal_of_a_gradient_whose_square_overflows():
    # |g|^2 = inf, but |(-g, 1)| = 1e200 is a float: the normal is unit
    with np.errstate(over="ignore", invalid="ignore"):
        nu = normal_from_grad(np.array([1e200, 1.0]))
        infinite = normal_from_grad(np.array([np.inf]))
    np.testing.assert_array_equal(nu, [-1.0, -1e-200, 1e-200])
    np.testing.assert_array_equal(infinite, [np.nan, 0.0])  # as before: no rescaling


def test_distance_to_graph_parabola():
    # nearest graph point of (0, 2) on f=theta^2 is (sqrt(1.5), 1.5)
    ls = quadratic(np.array([[2.0]]))
    grid = GridSpec(lo=(-3.0,), hi=(3.0,), step=1e-4)
    d = distances_to_graph(ls, np.array([0.0, 2.0]), grid)[0]
    exact = math.hypot(math.sqrt(1.5), 0.5)
    assert d == pytest.approx(exact, abs=1e-4)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(lo=(0.0,), hi=(1.0,), step=-1.0)
    with pytest.raises(ValueError):
        GridSpec(lo=(1.0,), hi=(0.0,), step=0.1)
    with pytest.raises(ValueError):
        GridSpec(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0), step=0.1)
    axes = GridSpec(lo=(-0.25,), hi=(0.25,), step=0.1).axes()
    np.testing.assert_allclose(axes[0], [-0.2, -0.1, 0.0, 0.1, 0.2], atol=1e-15)


def test_hausdorff_distance_hand_case_and_symmetry():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]])
    # farthest mismatch: point (0,0) vs its nearest (0,1) -> 1; (2,0) vs (1,0) -> 1
    assert hausdorff_distance(a, b) == pytest.approx(1.0, abs=1e-15)
    assert hausdorff_distance(b, a) == hausdorff_distance(a, b)
    assert hausdorff_distance(a, a) == 0.0


def _measure(name, points, nan_graph=False):
    """One of the two distance functions: points against the graph of
    theta^2 on a grid of [-1, 1], with f = NaN at its first point if asked."""
    ls, grid = quadratic(np.array([[2.0]])), GridSpec(lo=(-1.0,), hi=(1.0,), step=0.1)
    if nan_graph:
        ls = replace(ls, f_batch=lambda t: np.where(np.arange(len(t)) == 0, np.nan, t[:, 0] ** 2))
    if name == "hausdorff_distance":
        g = grid.points()
        return hausdorff_distance(points, np.column_stack([g, eval_batch(ls, g)]))
    return distances_to_graph(ls, points, grid)


DISTANCES = ["hausdorff_distance", "distances_to_graph"]


@pytest.mark.parametrize("name", DISTANCES)
def test_distances_reject_non_finite_points_and_graphs(name):
    for points, nan_graph in ((np.array([0.0, np.nan]), False),
                              (np.array([np.inf, 1.0]), False), (np.array([0.0, 1.0]), True)):
        with pytest.raises(ValueError, match="finite"):
            _measure(name, points, nan_graph)


@pytest.mark.parametrize("name", DISTANCES)
def test_distances_reject_points_of_the_wrong_width(name):
    # numpy would broadcast a 1-wide point against the 2-wide graph silently
    assert np.isfinite(_measure(name, np.array([0.0, 1.0]))).all()
    for points in (np.array([0.5]), np.array([[0.5]]), np.array([0.5, 1.0, 0.0])):
        with pytest.raises(ValueError, match="do not match"):
            _measure(name, points)


def _points_about_a_2d_graph():
    """The graph of a d=2 quadratic on a 2-D grid, whose points share their
    first coordinate column by column, and 300 3-wide points, 20 of them on it."""
    ls = quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
    grid = GridSpec(lo=(-1.0, -1.5), hi=(1.0, 1.5), step=0.02)
    g = grid.points()
    graph = np.column_stack([g, eval_batch(ls, g)])
    rng = np.random.default_rng(3)
    points = np.column_stack([rng.uniform(-1.5, 1.5, (300, 2)), rng.uniform(-0.5, 3.0, 300)])
    points[:20] = graph[rng.choice(len(g), 20)]
    return ls, grid, graph, points


def test_distances_to_a_2d_graph_are_the_kd_tree_floats():
    ls, grid, graph, points = _points_about_a_2d_graph()
    exact = cKDTree(graph).query(points)[0]
    np.testing.assert_array_equal(distances_to_graph(ls, points, grid), exact)
    assert distances_to_graph(ls, points[25], grid)[0] == exact[25]


def test_offset_value_elementary_bounds():
    ls = sinusoid()
    rho = 2.0
    for t in (-1.0, 0.0, 0.7, 2.0):
        v = offset_value(ls, rho, t, h=rho / 200)
        assert v >= ls.forward(np.array([t]))[0] + rho - 1e-12  # s=0 candidate
        assert v <= 1.0 + rho + 1e-12  # sup f + rho


def test_offset_profile_paths_agree():
    # aligned grid takes the strided fast path; offset_value is the reference
    ls = riemann(20)
    rho = 0.5
    prof = offset_profile(ls, rho, 0.0, 0.4, theta_step=0.01, h=1e-3)
    ref = np.array([offset_value(ls, rho, float(t), 1e-3) for t in prof.thetas])
    np.testing.assert_allclose(prof.values, ref, rtol=0, atol=1e-12)
    # misaligned lo exercises the per-theta fallback on the same numbers
    prof2 = offset_profile(ls, rho, 0.0035, 0.4035, theta_step=0.01, h=1e-3)
    ref2 = np.array([offset_value(ls, rho, float(t), 1e-3) for t in prof2.thetas])
    np.testing.assert_allclose(prof2.values, ref2, rtol=0, atol=1e-12)


def test_offset_profile_constant_landscape_is_exact():
    ls = affine_plus_bump(0.0, 3.0, "sin", amplitude=0.0)  # f = 3
    prof = offset_profile(ls, 1.0, -1.0, 1.0, theta_step=0.1, h=1e-3)
    np.testing.assert_allclose(prof.values, 4.0, rtol=0, atol=1e-12)


def test_offset_argument_validation():
    ls = sinusoid()
    with pytest.raises(ValueError, match="too coarse"):
        offset_value(ls, 1.0, 0.0, h=0.5)
    with pytest.raises(ValueError):
        offset_value(ls, -1.0, 0.0, h=1e-3)
    with pytest.raises(ValueError, match="lo < hi"):
        offset_profile(ls, 1.0, 2.0, 1.0, theta_step=0.1)
    with pytest.raises(ValueError):
        offset_value(quadratic(np.eye(2)), 1.0, 0.0, h=1e-3)


@pytest.mark.parametrize("call, message", [
    (lambda ls: offset_value(ls, math.nan, 0.3, 1e-2), "rho must be positive and finite, got nan"),
    (lambda ls: offset_value(ls, 1.0, math.nan, 1e-2), "theta must be finite, got nan"),
    (lambda ls: offset_value(ls, 1.0, 0.3, math.nan),
     "grid step h must be positive and finite, got nan"),
    (lambda ls: offset_value(ls, 1.0, 1e300, 1e-2), r"theta 1e\+300 too far out"),
    (lambda ls: offset_profile(ls, 1.0, math.nan, 1.0, 0.1), "lo must be finite, got nan"),
    (lambda ls: offset_profile(ls, 1.0, 0.0, math.inf, 0.1), "hi must be finite, got inf")],
    ids=["rho", "theta", "h", "theta-beyond-2^53-h", "lo", "hi"])
def test_offset_arguments_must_be_finite(call, message):
    # each once returned NaN, raised a misleading value_bound error or an
    # OverflowError, or (theta=1e300) read overflowed lattice indices and
    # returned -0.0251; the scan's lattice indices are floats, exact below 2^53
    with pytest.raises(ValueError, match=message):
        call(riemann(100))


@pytest.mark.parametrize("call, message", [
    (lambda ls: is_unreachable(ls, 0.0, math.nan), "rho must be positive and finite, got nan"),
    (lambda ls: is_unreachable(ls, 0.0, math.inf), "rho must be positive and finite, got inf"),
    (lambda ls: is_unreachable(ls, math.nan, 0.3), "theta must be finite, got nan"),
    (lambda ls: GridSpec((0.0,), (1.0,), math.nan),
     "grid step must be positive and finite, got nan"),
    (lambda ls: GridSpec((0.0,), (1.0,), math.inf),
     "grid step must be positive and finite, got inf"),
    (lambda ls: GridSpec((math.nan,), (1.0,), 0.1), r"lo\[0\] must be finite, got nan"),
    (lambda ls: GridSpec((0.0, 0.0), (1.0, math.nan), 0.1), r"hi\[1\] must be finite, got nan")],
    ids=["unreachable-rho-nan", "unreachable-rho-inf", "unreachable-theta", "grid-step-nan",
         "grid-step-inf", "grid-lo", "grid-hi"])
def test_unreachability_and_grid_arguments_must_be_finite(call, message):
    # each once failed later: NaN with "cannot convert float NaN to integer",
    # an infinite rho with an OverflowError, an infinite step with "points and
    # cloud must be finite"
    with pytest.raises(ValueError, match=message):
        call(quadratic(np.array([[4.0]])))


@pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan])
def test_sampling_steps_must_be_positive_and_finite(step):
    with pytest.raises(ValueError, match="theta_step must be positive and finite"):
        offset_profile(sinusoid(), 1.0, -1.0, 1.0, theta_step=step, h=1e-3)
    with pytest.raises(ValueError, match="grid_step must be positive and finite"):
        is_unreachable(quadratic(np.array([[4.0]])), 0.0, rho=0.3, grid_step=step)


def test_offset_window_pruning_huge_radius():
    # bounded landscape with rho >> sup|f|: the pruned window must still
    # reproduce the full maximum, and the profile flattens to a single dip.
    # The candidate window holds 5.1M lattice points; only the part that
    # is evaluated gets arrays (whole-window ones peaked at 135 MB). The value
    # bound cut leaves 1.8M of them, and the slope bound about 108k. The scans
    # hold only those 108k points: the peak is 6.0 MB, where a dense array
    # over the cut's 1.8M, -inf at each skipped point, peaked at 43 MB
    ls, seen = _counting(riemann(100))
    tracemalloc.start()
    try:
        prof = offset_profile(ls, 1e4, 0.0, 2 * np.pi, theta_step=0.1, h=1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9e6
    assert sum(p.size for p in seen) < 200_000
    assert count_local_minima(prof.values) <= 1
    assert prof.values.max() - prof.values.min() < 1e-3
    assert abs(prof.values.mean() - 1e4) < 2.0  # sits near rho + O(sup f)


def _counting(ls):
    """ls with a batch evaluator that records every point it evaluates."""
    seen = []

    def f_batch(thetas):
        seen.append(np.asarray(thetas, dtype=float).reshape(-1).copy())
        return ls.f_batch(thetas)

    return replace(ls, f_batch=f_batch), seen


def _tiny_sinusoid():
    """1e-9 sin: a bound of 1e-9 cuts the offset window to |s| <= 6.3e-5 at
    rho = 1, far narrower than any lattice step used here."""
    def forward(t):
        return 1e-9 * math.sin(float(t[0])), lambda: np.array([1e-9 * math.cos(float(t[0]))])

    return Landscape(dim=1, forward=forward, name="tiny_sinusoid", value_bound=1e-9,
                     f_batch=lambda t: 1e-9 * np.sin(np.asarray(t, dtype=float).reshape(-1)))


def _spiked():
    """sin with NaN at 0, +inf from 1 on and -inf up to -1, no value_bound."""
    def f_batch(t):
        t = np.asarray(t, dtype=float).reshape(-1)
        out = np.sin(t)
        out[t == 0.0], out[t >= 1.0], out[t <= -1.0] = np.nan, np.inf, -np.inf
        return out

    return Landscape(dim=1, forward=lambda t: (float(f_batch(t)[0]), None),
                     name="spiked", f_batch=f_batch)


def _assert_contacts(ls, samples, h, k=None):
    """Every value is its contact's candidate f(contact) + arc, with the arc
    from the scan's own float operations: circ(m * h) on the shared lattice,
    where m is the contact's offset from theta's lattice point, and
    circ(contact - theta) per theta."""
    c = samples.contacts
    if k is None:
        s = c - samples.thetas
    else:
        anchors = np.round(samples.thetas / (k * h)).astype(int) * k
        assert np.array_equal(c, np.round(c / h) * h)  # lattice points
        s = (np.round(c / h).astype(int) - anchors) * h
    np.testing.assert_array_equal(samples.values,
                                  eval_batch(ls, c) + geometry._circ(s, samples.rho))


@pytest.mark.parametrize("rho", [0.05, 1.0, 10.0, 1e3, 1e4])
@pytest.mark.parametrize("make", [lambda: riemann(5), sinusoid,
                                  lambda: affine_plus_bump(0.5, 0.0, "sin", 1.0),
                                  lambda: affine_plus_bump(0.0, 3.0, "sin", amplitude=0.0),
                                  lambda: quadratic(np.eye(1)), _tiny_sinusoid, _spiked],
                         ids=["riemann5", "sinusoid", "affine_bump", "constant", "quadratic",
                              "tiny_window", "spiked"])
def test_offset_pruned_window_is_exact(make, rho, monkeypatch):
    # the pruned monotone scan returns the very float of the full-window
    # maximum, on the shared lattice, on the per-theta fallback and in
    # offset_value, and each value is the candidate of its contact. Shapes:
    # 41 rows 10 lattice points apart; 400 adjacent rows, the smoothing
    # check's shape, where blocking is deepest; and the same with a forced
    # pivot stride of 7, which makes the last row (399 = 57 * 7) a pivot.
    # At rho = 1e4 the brute-force reference of 400 rows takes seconds
    base = make()
    h = min(rho / 200, 0.05)
    for k, rows, stride in [(10, 41, None), (1, 400, None), (1, 400, 7)][:1 if rho > 1e3 else 3]:
        with monkeypatch.context() as patch:
            if stride is not None:
                patch.setattr(geometry, "_pivot_stride", lambda *args: stride)
            ls, seen = _counting(base)
            prof = offset_profile(ls, rho, 0.0, (rows - 1) * k * h, theta_step=k * h, h=h)
            assert prof.thetas.size == rows
            np.testing.assert_array_equal(prof.values,
                                          full_window_profile(base, rho, h, prof.thetas, k=k))
            _assert_contacts(base, prof, h, k)
        # no lattice point is evaluated twice; without a value_bound the whole
        # window is evaluated, with one a large radius leaves most of it out
        pts = np.concatenate(seen)
        assert np.unique(pts).size == pts.size
        nw = int(math.floor(_offset_window(ls, rho) / h + 1e-9))
        window = (rows - 1) * k + 2 * nw + 1
        if ls.value_bound is None:
            assert pts.size == window
        elif rho >= 1e3 and nw > (rows - 1) * k:
            assert pts.size < window / 2

    rough = offset_profile(base, rho, 0.3 * h, 0.3 * h + 8 * 10.5 * h,
                           theta_step=10.5 * h, h=h)
    np.testing.assert_array_equal(rough.values, full_window_profile(base, rho, h, rough.thetas))
    _assert_contacts(base, rough, h)
    t = float(prof.thetas[7])
    np.testing.assert_array_equal(offset_value(base, rho, t, h),
                                  full_window_profile(base, rho, h, [t])[0])


def test_offset_scan_rejects_a_value_beyond_the_bound():
    # the two-pass cut is exact only within value_bound: riemann(5) with a
    # NaN at 0 would give a NaN cut that never widens, so the scan refuses it
    base = riemann(5)

    def f_batch(t):
        out = base.f_batch(t)
        out[np.asarray(t, dtype=float).reshape(-1) == 0.0] = np.nan
        return out

    ls = replace(base, f_batch=f_batch)
    with pytest.raises(ValueError, match=r"'riemann\(5\)' breaks its value_bound"):
        offset_profile(ls, 10.0, 0.0, 20.0, theta_step=0.5, h=0.05)
    with pytest.raises(ValueError, match="value_bound"):
        offset_value(ls, 10.0, 0.3, 0.05)
    with pytest.raises(ValueError, match="value_bound 0.5"):
        offset_profile(replace(sinusoid(), value_bound=0.5), 2.0, 0.0, 1.0, 0.01)


def test_offset_scan_rejects_a_slope_beyond_the_bound():
    # riemann(5) climbs at up to 5, not 0.5: two knots differ by more than
    # 0.5 times their distance somewhere, and the scan refuses the bound
    ls = replace(riemann(5), slope_bound=0.5)
    with pytest.raises(ValueError, match=r"'riemann\(5\)' breaks its slope_bound 0.5"):
        offset_profile(ls, 1e3, 0.0, 1.0, theta_step=0.1, h=1e-3)
    with pytest.raises(ValueError, match="slope_bound"):
        offset_value(ls, 1e3, 0.3, 1e-3)
    # 0 but 1.5 at one lattice point next to theta's, not a knot: the knots
    # agree with slope 1, and the spike breaks the tent of its live block
    def f_batch(t):
        return np.where(np.asarray(t, dtype=float).reshape(-1) == spike * h, 1.5, 0.0)

    flat = Landscape(dim=1, forward=lambda t: (float(f_batch(t)[0]), None), name="spike",
                     value_bound=2.0, slope_bound=1.0, f_batch=f_batch)
    rho, h = 1e3, 1e-3
    # the band starts on a knot, so one of 1 and 2 is not a knot
    start = -(int(math.floor(_offset_window(flat, rho) / h + 1e-9)) // geometry._NARROW)
    spike = next(j for j in (1, 2) if (j - start) % geometry._SLOPE_BLOCK)
    with pytest.raises(ValueError, match="'spike' breaks its slope_bound 1.0"):
        offset_value(flat, rho, 0.0, h)


def test_small_radius_offsets_keep_two_batch_calls():
    # at h = rho / 100 the window holds at most 201 lattice points, far too
    # few to pay for the slope prune's extra f_batch calls (about 1 ms each
    # for riemann(100)): each theta makes 2 calls and evaluates no more points
    # than the value-bound cut alone, 201, 197.1 and 85.6 per theta on average
    calls, base = [], riemann(100)
    ls = replace(base, f_batch=lambda t: calls.append(len(t)) or base.f_batch(t))
    rng = np.random.default_rng(0)
    for rho, points in [(0.1, 201.0), (1.0, 197.065), (10.0, 85.625)]:
        calls.clear()
        for theta in rng.uniform(0.0, 2 * np.pi, 200):
            offset_value(ls, rho, float(theta), rho / 100)
        assert len(calls) == 400
        assert sum(calls) <= 200 * points


@pytest.mark.parametrize("make", [lambda: riemann(20), sinusoid], ids=["riemann20", "sinusoid"])
@pytest.mark.parametrize("rho, h", [(10.0, 1e-4), (1e3, 2e-3)])
def test_slope_pruned_offsets_are_exact(make, rho, h):
    # where the slope bound prunes both passes, the values and contacts are
    # the full-window maxima's floats: 41 thetas 10 lattice steps apart and 63
    # a tenth apart (rows whose maxima differ) on the shared lattice, 3
    # unaligned ones, and offset_value
    base = make()
    ls, seen = _counting(base)
    prof = offset_profile(ls, rho, 0.0, 40 * 10 * h, theta_step=10 * h, h=h)
    np.testing.assert_array_equal(prof.values,
                                  full_window_profile(base, rho, h, prof.thetas, k=10))
    _assert_contacts(base, prof, h, 10)
    nw = int(math.floor(_offset_window(base, rho) / h + 1e-9))
    assert sum(p.size for p in seen) < (400 + 2 * nw + 1) / 2
    k = round(0.1 / h)
    wide = offset_profile(base, rho, 0.0, 6.2, theta_step=0.1, h=h)
    np.testing.assert_array_equal(wide.values,
                                  full_window_profile(base, rho, h, wide.thetas, k=k))
    _assert_contacts(base, wide, h, k)
    rough = offset_profile(base, rho, 0.3 * h, 0.3 * h + 2 * 10.5 * h, theta_step=10.5 * h, h=h)
    np.testing.assert_array_equal(rough.values, full_window_profile(base, rho, h, rough.thetas))
    _assert_contacts(base, rough, h)
    assert offset_value(base, rho, 1.3, h) == full_window_profile(base, rho, h, [1.3])[0]


@given(n=st.integers(1, 60), log_rho=st.floats(-2.0, 2.0), q=st.integers(100, 400),
       k=st.integers(0, 20), frac=st.sampled_from([0.0, 0.2, 0.61]),
       shift=st.sampled_from([0.0, 0.37, 0.5]), rows=st.integers(2, 300),
       i0=st.integers(-50, 50))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_offset_profile_contacts_property(n, log_rho, q, k, frac, shift, rows, i0):
    # riemann(n) at any radius, lattice step h = rho / q, theta step (k + frac) * h
    # from (i0 * k + shift) * h: the values are the full-window maxima and
    # their contacts' candidates, on the shared lattice (frac = shift = 0)
    # and with an arc per theta, thetas as dense as 0.2 * h included
    assume(k + frac > 0)
    ls, rho = riemann(n), 10.0 ** log_rho
    h = rho / q
    step, lo = (k + frac) * h, (i0 * k + shift) * h
    prof = offset_profile(ls, rho, lo, lo + (rows - 1) * step, theta_step=step, h=h)
    assert prof.thetas.size == rows
    shared = k if frac == shift == 0.0 else None
    assert np.array_equal(prof.values, full_window_profile(ls, rho, h, prof.thetas, k=shared))
    _assert_contacts(ls, prof, h, shared)


def test_unaligned_profile_reads_each_lattice_point_once():
    # 401 thetas a fifth of a lattice step apart on a line (no value_bound):
    # one f_batch call reads the union of their windows and the thetas
    base = affine_plus_bump(1.0, 0.0, amplitude=0.0)
    rho, h = 100.0, 0.05
    ls, seen = _counting(base)
    prof = offset_profile(ls, rho, 0.3 * h, 0.3 * h + 4.0, theta_step=0.01, h=h)
    assert prof.thetas.size == 401 and len(seen) == 1
    w = _offset_window(base, rho)
    union = np.arange(math.ceil((prof.thetas[0] - w) / h - 1e-9),
                      math.floor((prof.thetas[-1] + w) / h + 1e-9) + 1) * h
    assert seen[0].size == union.size + 401 == np.unique(seen[0]).size
    np.testing.assert_array_equal(np.sort(seen[0]), np.sort(np.append(union, prof.thetas)))
    np.testing.assert_array_equal(prof.values, full_window_profile(base, rho, h, prof.thetas))
    _assert_contacts(base, prof, h)


def test_offset_cut_keeps_each_rows_own_edge():
    # 0.5 everywhere but 1.0 at -9 = -18 h. The thetas are 1.015 h apart and
    # their anchors 2 h; the second row attains the band minimum L, and -18 h
    # is its first lattice point that can still reach L. A pass-2 window moved
    # with the second row's anchor would start at -17 h and miss the peak
    def f_batch(t):
        return np.where(np.asarray(t, dtype=float).reshape(-1) == -9.0, 1.0, 0.5)

    ls = Landscape(dim=1, forward=lambda t: (float(f_batch(t)[0]), None), name="spike",
                   value_bound=1.0, f_batch=f_batch)
    h = 0.5
    prof = offset_profile(ls, 100.0, 0.49 * h, 1.505 * h, theta_step=1.015 * h, h=h)
    np.testing.assert_array_equal(prof.contacts, [-9.0, -9.0])
    np.testing.assert_array_equal(prof.values, full_window_profile(ls, 100.0, h, prof.thetas))


def _spike(c, width):
    """A unit spike on a floor at -1: f = -1 + 2 max(0, 1 - |t - c| / width),
    with value_bound 1 and slope_bound 2 / width. Each row maximum sits low,
    so a candidate the scan must not read can win."""
    def f_batch(t):
        t = np.asarray(t, dtype=float).reshape(-1)
        return -1.0 + 2.0 * np.maximum(0.0, 1.0 - np.abs(t - c) / width)

    return Landscape(dim=1, forward=lambda t: (float(f_batch(t)[0]), None), name="spike",
                     value_bound=1.0, slope_bound=2.0 / width, f_batch=f_batch)


def test_offset_scan_reads_no_gap_and_no_point_past_a_row():
    # rho=10: the spike's candidate 1 + sqrt(100 - 4.7^2) = 9.83 is each row's
    # maximum, and pass 2 skips the floor's blocks near the anchors, whose arcs
    # reach 10: a gap filled with 0 instead of -inf would win there
    ls, h = _spike(4.7, 0.5), 1e-3
    assert offset_value(ls, 10.0, 0.0, h) == full_window_profile(ls, 10.0, h, [0.0])[0]
    prof = offset_profile(ls, 10.0, 0.0, 20 * h, theta_step=5 * h, h=h)
    np.testing.assert_array_equal(prof.values, full_window_profile(ls, 10.0, h, prof.thetas, k=5))
    # rho=1: theta 0 on the lattice has 201 window points, the others 200. The
    # window of 1.37 h ends at 101 h, and the spike's top is the next point, its
    # arc clamped near 0: read past that row's end, 1 would beat its maximum 0
    ls, h = _spike(1.02, 0.01), 0.01
    prof = offset_profile(ls, 1.0, 0.0, 4.11 * h, theta_step=1.37 * h, h=h)
    np.testing.assert_array_equal(prof.values, full_window_profile(ls, 1.0, h, prof.thetas))
    assert prof.values[1] < 1.0


def test_offset_tie_keeps_theta():
    # a lattice point 1e-12 from theta has the arc height rho, as theta has:
    # on a constant landscape the two candidates tie and the contact stays theta
    ls = affine_plus_bump(0.0, 3.0, "sin", amplitude=0.0)
    thetas = np.array([0.25, 0.5, 0.75]) + 1e-12
    values, contacts = geometry._offset_values(ls, 1.0, thetas, 1e-3)
    np.testing.assert_array_equal(values, 4.0)
    np.testing.assert_array_equal(contacts, thetas)


def test_offset_window_without_lattice_points():
    # a bound of 1e-9 cuts the window to |s| <= 6.3e-5; at h=1e-2 most
    # thetas then find no lattice point in it and keep their own candidate
    ls = _tiny_sinusoid()
    rho, h = 1.0, 1e-2
    assert _offset_window(ls, rho) < 1e-4
    for t in (0.0, 0.37 * h, 0.5 * h, 0.9 * h, 1.3):
        assert offset_value(ls, rho, t, h) == full_window_profile(ls, rho, h, [t])[0]
    prof = offset_profile(ls, rho, 0.0, 40 * 10 * h, theta_step=10 * h, h=h)
    assert np.array_equal(prof.values, full_window_profile(ls, rho, h, prof.thetas, k=10))
    rough = offset_profile(ls, rho, 0.3 * h, 0.3 * h + 8 * 10.5 * h,
                           theta_step=10.5 * h, h=h)
    assert np.array_equal(rough.values, full_window_profile(ls, rho, h, rough.thetas))


def _pruned(base, j, h, rho, theta, lower):
    """The lattice indices of j (runs of consecutive ones) that the slope-bound
    prune evaluates for a row at theta: all of j below _SLOPE_MIN points,
    without a slope_bound or where a block's tent cannot fall below B; else
    the knots, every _SLOPE_BLOCK-th index of each run and its last, and the
    blocks between two knots whose tent plus the block's largest arc reaches
    lower, with the scan's float operations."""
    slope, b = base.slope_bound, base.value_bound
    if (slope is None or j.size < geometry._SLOPE_MIN
            or slope * geometry._SLOPE_BLOCK * h >= 4.0 * b):
        return j
    keep = []
    for run in np.split(j, np.flatnonzero(np.diff(j) != 1) + 1):
        knots = np.unique(np.append(run[::geometry._SLOPE_BLOCK], run[-1]))
        f = base.f_batch((knots * h)[:, None])
        keep.append(knots)
        for ja, jb, fa, fb in zip(knots, knots[1:], f, f[1:]):
            xa, xb = ja * h, jb * h
            u = min((fa + fb) / 2 + slope * (xb - xa) / 2 + 1e-12 * b, b * (1.0 + 1e-12))
            s = 0.0 if xa <= theta <= xb else min(abs(xa - theta), abs(xb - theta))
            if u + geometry._circ(s, rho) >= lower:
                keep.append(np.arange(ja + 1, jb))
    return np.concatenate(keep)


@pytest.mark.parametrize("rho, h", [(0.05, 2.5e-4), (1.0, 5e-3), (10.0, 0.05), (1e3, 0.05),
                                    (10.0, 1e-4), (1e3, 1e-3), (1e5, 0.04)],
                         ids=["0.05", "1.0", "10.0", "1000.0", "10.0-h1e-4", "1000.0-h1e-3",
                              "1e5-h0.04"])  # h = min(rho / 200, 0.05) unless named
@pytest.mark.parametrize("make", [lambda: riemann(5), sinusoid,
                                  lambda: replace(riemann(5), slope_bound=None)],
                         ids=["riemann5", "sinusoid", "riemann5_no_slope"])
def test_offset_value_evaluates_the_band_and_the_live_points(make, rho, h):
    # offset_value scans the lattice of theta's window from the lattice point
    # a nearest theta. It evaluates theta, and in two passes: the band |m| <=
    # max(nl, nr) // _NARROW of offsets a + m, pruned by the slope bound
    # against the least maximum over its knots; then the lattice points past
    # the band whose bound B + sqrt(rho^2 - s^2) reaches the band's maximum,
    # pruned against that maximum (see _pruned). Only (10, 1e-4) and (1e3,
    # 1e-3) prune, and not without a slope_bound. At (1e5, 0.04) sinusoid's
    # ranges are too short, and riemann(5)'s blocks too wide for a tent below B
    base = make()
    w = _offset_window(base, rho)
    for theta in (0.0, 0.37 * h, 1.3, -2.0 + 0.5 * h):
        ls, seen = _counting(base)
        got = offset_value(ls, rho, theta, h)
        j0 = math.ceil((theta - w) / h - 1e-9)
        j1 = math.floor((theta + w) / h + 1e-9)
        a = round(theta / h)
        j = np.arange(j0, j1 + 1)
        fv = base.f_batch((j * h)[:, None])
        circ = geometry._circ(j * h - theta, rho)
        band = np.abs(j - a) <= max(a - j0, j1 - a) // geometry._NARROW
        knots = np.unique(np.append(j[band][::geometry._SLOPE_BLOCK], j[band][-1]))
        coarse = np.max((fv + circ)[np.isin(j, knots)])
        best = np.max((fv + circ)[band])
        live = ~band & (base.value_bound * (1.0 + 1e-12) + circ >= best)
        want = np.concatenate([[theta], _pruned(base, j[band], h, rho, theta, coarse) * h,
                               _pruned(base, j[live], h, rho, theta, best) * h])
        # each point once, theta as well when it is a lattice point
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)), np.sort(want))
        if base.slope_bound is None or (rho, h) not in [(10.0, 1e-4), (1e3, 1e-3)]:
            assert want.size == 1 + np.count_nonzero(band | live)  # the band and live points
        else:
            assert want.size < 0.75 * np.count_nonzero(band | live)
        assert got == np.max(np.append(fv + circ, base.f_batch(np.array([[theta]])) +
                                     geometry._circ(0.0, rho)))


def _peak(call) -> int:
    """tracemalloc's peak of the bytes allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_offset_profile_memory_is_bounded():
    # 629 thetas x a 161k-wide candidate window: the scan's candidates stay
    # in one buffer of fixed-size chunks instead of one 200 MB block. The
    # peak is 5.7 MB (5.1 MB when the knots' scan was dense and strided); a
    # fresh temporary per chunk peaks at 13 MB
    ls = riemann(100)
    assert _peak(lambda: offset_profile(ls, 1e3, 0.0, 2 * np.pi, theta_step=0.01, h=1e-3)) < 8e6


@pytest.mark.parametrize("rho", [1e3, 100.0])
def test_per_row_offset_scan_memory_is_bounded(rho):
    # 459 thetas off the lattice, an arc per theta: candidates, arcs and
    # column indices each get one buffer of a quarter chunk per scan. Peaks
    # 3.6 MB (rho=1e3) and 4.4 MB; buffers of a whole chunk each peaked at
    # 13 MB, fresh temporaries per chunk at 44 MB and 17 MB
    ls = riemann(100)
    assert _peak(lambda: offset_profile(ls, rho, 0.0, 2 * np.pi, 0.0137, h=1e-3)) < 6e6


def test_one_theta_offset_memory_follows_the_points_read():
    # one theta at rho=1e5: its last pass spans 5.5M lattice points, of which
    # the slope prune reads 319k. The peak is 15 MB; a dense array over the
    # 5.5M, -inf at each skipped point, and its arc peaked at 131 MB
    assert _peak(lambda: offset_value(riemann(100), 1e5, 0.3, 1e-4)) < 24e6


# riemann(100) at rho=1 without its bounds: no cut. rho=10: the cut leaves most
# points live. rho=1e3: the cut and the slope prune, gapped lattices; without
# the slope bound, a contiguous lattice whose rows are wider than a chunk
SCAN_CASES = {"1.0": (1.0, {"value_bound": None, "slope_bound": None}), "10.0": (10.0, {}),
              "1000.0": (1e3, {}), "1000.0-no-slope": (1e3, {"slope_bound": None})}


@pytest.mark.parametrize("chunk", [300, 4096])
@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_offsets_do_not_depend_on_the_scan_chunk(case, chunk, monkeypatch):
    # chunks of a few hundred or thousand candidates: blocks of many chunks,
    # buffers that grow when a later chunk of a scan holds more, and rows
    # wider than a chunk, each a chunk of its own. Each chunk is also run
    # with every shared-arc and one-row scan strided over a lattice filled
    # back to dense (_DENSE_SPAN inf) and with every scan gathering its
    # points row by row (_DENSE_SPAN 0). The values and contacts are the
    # default's floats on the shared arc, with an arc per theta, and for one
    # row (offset_value's scan)
    rho, fields = SCAN_CASES[case]
    ls, h = replace(riemann(100), **fields), 1e-3

    def outputs():
        shared = offset_profile(ls, rho, 0.0, 1.0, theta_step=10 * h, h=h)
        rows = offset_profile(ls, rho, 0.003, 1.0, theta_step=1.37 * h, h=h)
        one = geometry._offset_values(ls, rho, np.array([0.3]), h)
        return [shared.values, shared.contacts, rows.values, rows.contacts, *one]

    want = outputs()
    monkeypatch.setattr(geometry, "_WINDOW_CHUNK", chunk)
    for dense_span in (geometry._DENSE_SPAN, 0, math.inf):
        monkeypatch.setattr(geometry, "_DENSE_SPAN", dense_span)
        for a, b in zip(want, outputs(), strict=True):
            assert a.tobytes() == b.tobytes()


def test_memo_view_reads_each_point_once():
    # repeats across requests and duplicates within one come from the memo, for
    # off-lattice thetas and -0.0 (whose bits differ from 0.0's) too; an increasing
    # request with neither goes through as it is (the last one crosses 0), and one
    # of repeats alone, or of nothing, makes no call
    ls, h, seen = riemann(100), 1e-3, []
    base = replace(ls, f_batch=lambda t: seen.append(t) or ls.f_batch(t))
    requests = [np.arange(10, 30) * h,
                np.r_[np.arange(20, 40) * h, np.arange(35, 25, -1) * h, 0.0123456, -0.0, 0.0],
                np.r_[np.arange(39, 29, -1) * h, 0.0, 0.0123456, -0.0],
                np.r_[50, 51, 50] * h, np.empty(0),
                np.arange(-5, 5) * h + h / 3]
    with geometry.memo_view(base) as view:
        for t in requests:
            got = eval_batch(view, t)
            assert got.tobytes() == ls.f_batch(t[:, None]).tobytes()
    assert got.flags.writeable is False  # passed through: the memo's own values
    assert len(seen) == 4
    assert np.shares_memory(seen[0], requests[0]) and np.shares_memory(seen[-1], requests[-1])
    read = np.concatenate([s.reshape(-1) for s in seen]).view(np.int64)
    assert read.size == np.unique(read).size == 20 + 13 + 2 + 10
    # the memo goes with the block: the view kept past it reads f afresh
    eval_batch(view, requests[0])
    assert len(seen) == 5 and np.shares_memory(seen[-1], requests[0])
    plane = quadratic(np.eye(2))
    with geometry.memo_view(plane) as view:
        assert view is plane


def test_circ_float_and_array_paths_agree():
    # inside the radius, at it, beyond it and at NaN, the float path (the
    # scan's edge searches) gives the array path's float, bit for bit
    rho = 0.7
    s = np.array([0.0, -0.0, 0.3, -0.45, np.nextafter(rho, 0.0), rho, -rho, 0.7000001, -2.0,
                  np.inf, -np.inf, np.nan])
    want = geometry._circ(s, rho)
    assert np.array([geometry._circ(float(x), rho) for x in s]).tobytes() == want.tobytes()
    out = np.empty_like(s)
    assert geometry._circ(s, rho, out=out) is out and out.tobytes() == want.tobytes()


def test_count_local_minima_conventions():
    assert count_local_minima(np.array([3.0, 1.0, 2.0, 0.5, 4.0])) == 2
    assert count_local_minima(np.array([1.0, 2.0, 3.0])) == 0  # monotone
    assert count_local_minima(np.array([2.0, 1.0, 1.0, 2.0])) == 1  # plateau once
    assert count_local_minima(np.array([1.0, 1.0, 1.0])) == 0
    assert count_local_minima(np.array([1.0, 2.0])) == 0  # too short
    assert count_local_minima(np.array([5.0, 0.0, 5.0])) == 1
    # boundary values never count
    assert count_local_minima(np.array([0.0, 2.0, 1.0])) == 0


def test_unreachable_sharp_parabola():
    # f = 2 theta^2 has curvature 4 at the minimum: balls larger than 1/4 cannot touch
    ls = quadratic(np.array([[4.0]]))
    rep = is_unreachable(ls, 0.0, rho=0.3, grid_step=1e-4)
    assert rep.verdict == "unreachable" and rep.is_unreachable
    assert rep.clearance == pytest.approx(4.196e-3, rel=0.05)
    assert rep.clearance > rep.slack
    rep2 = is_unreachable(ls, 0.0, rho=0.2, grid_step=1e-4)
    assert rep2.verdict == "reachable" and not rep2.is_unreachable
    assert rep2.clearance == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rho, verdict", [(0.4, "unreachable"), (0.2, "reachable")])
def test_unreachable_clearance_matches_brute_force(rho, verdict):
    # rebuild the graph lattice and the admissible sphere samples, then take
    # every sample's exact minimum over all lattice points: the pruned search's
    # clearance must be the same float
    ls = quadratic(np.array([[4.0]]))
    h = 1e-3
    rep = is_unreachable(ls, 0.0, rho=rho, grid_step=h)
    assert rep.verdict == verdict
    half = 2.0 * rho + 10.0 * h
    tg = np.arange(math.ceil(-half / h - 1e-9), math.floor(half / h + 1e-9) + 1) * h
    fg = ls.f_batch(tg[:, None])
    ang = np.arange(rep.n_sphere) * (2.0 * math.pi / rep.n_sphere)
    sx, sy = rho * np.cos(ang), rho * np.sin(ang)
    keep = sy >= ls.f_batch(sx[:, None])
    d2 = sx[keep][:, None] - tg[None, :]
    d2 *= d2
    dy = sy[keep][:, None] - fg[None, :]
    dy *= dy
    d2 += dy
    nearest = np.sqrt(d2.min(axis=1))
    assert rep.clearance == rho - float(nearest.max())


def _sphere_and_graph(ls, theta, rho, h, n_sphere):
    """is_unreachable's admissible sphere samples and graph lattice, rebuilt."""
    half = 2.0 * rho + 10.0 * h
    tg = np.arange(math.ceil((theta - half) / h - 1e-9),
                   math.floor((theta + half) / h + 1e-9) + 1) * h
    graph = np.column_stack([tg, eval_batch(ls, tg)])
    ang = np.arange(n_sphere) * (2.0 * math.pi / n_sphere)
    sx = theta + rho * np.cos(ang)
    sy = ls.forward(np.array([theta]))[0] + rho * np.sin(ang)
    keep = sy >= eval_batch(ls, sx)
    return np.column_stack([sx[keep], sy[keep]]), graph


def _unreachability_cases():
    rng = np.random.default_rng(20)
    for sigma in (0.5, 1.0, 2.0, 4.0, 8.0):
        for rho in (0.1, 0.3, 0.6, 1.2):
            yield f"parabola(sigma={sigma:g})", quadratic(np.array([[sigma]])), 0.0, rho
    for n in (5, 100):
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=3):
            for rho in (0.05, 0.5, 1.0):
                yield f"riemann({n})", riemann(n), float(theta), rho
    for theta in (-math.pi / 2, 0.4):
        yield "sinusoid", sinusoid(), theta, 0.8
    for theta in (0.0, 1.3):
        yield "affine_bump", affine_plus_bump(0.5, 1.0, "gaussian"), theta, 0.6


def test_unreachable_clearance_is_the_unpruned_maximum():
    # the pruned query must return the same float as a plain KD-tree over
    # the whole lattice answering every admissible sample
    for name, ls, theta, rho in _unreachability_cases():
        rep = is_unreachable(ls, theta, rho=rho, grid_step=1e-3)
        samples, graph = _sphere_and_graph(ls, theta, rho, 1e-3, rep.n_sphere)
        full = rho - float(cKDTree(graph).query(samples)[0].max())
        assert rep.clearance == full, (name, theta, rho)


def _random_clouds():
    rng = np.random.default_rng(11)
    for na, nb, dim in ((1, 1, 2), (1, 31, 2), (31, 1, 3), (31, 31, 2),
                        (32, 33, 2), (500, 2000, 2), (3000, 700, 3)):
        yield rng.normal(size=(na, dim)), rng.normal(size=(nb, dim))
    for na, nb in ((400, 1500), (31, 900), (2000, 2000)):
        # coarse rounding: many equal distances and duplicate points
        a = np.round(rng.uniform(-1.0, 1.0, size=(na, 2)), 1)
        b = np.round(rng.uniform(-1.0, 1.0, size=(nb, 2)), 1)
        yield a, b
        yield a, np.concatenate([b, a[: na // 2]])
    t = np.linspace(-2.0, 2.0, 5001)
    yield np.column_stack([t, t * t]), np.column_stack([t[::7], t[::7] ** 2 + 0.01])
    # points hovering just above a dense segment: the coarse bounds rank them
    # differently from their exact distances, which decide the maximum
    x = np.linspace(0.0, 1.0, 3201)
    hover = np.column_stack([rng.uniform(0.0, 1.0, 4000),
                             1.0 + 1e-4 * rng.uniform(size=4000)])
    yield hover, np.column_stack([x, np.zeros_like(x)])


def test_hausdorff_distance_is_the_unpruned_maximum():
    for a, b in _random_clouds():
        full = max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())
        assert hausdorff_distance(a, b) == float(full), (a.shape, b.shape)
        assert hausdorff_distance(b, a) == float(full)


def test_near_tie_keeps_the_maximiser_live():
    # p_max's nearest cloud point c is in the coarse subset, so its bound is
    # its exact distance, 1; p2's bound is ~100, and its exact distance is
    # 5e-10 below 1. A coarse bound even 1e-9 below the exact distance would
    # drop p_max. c and q also belong to the points, and the points to the
    # cloud's coarse side, so the reverse direction contributes 0.
    c, q = np.array([0.0, 0.0]), np.array([100.0, 0.0])
    p_max = c + math.sqrt(0.5)
    p2 = q + [0.0, 1.0 - 5e-10]
    cloud = np.array([c, c, c, q, q, q])
    points = np.array([p_max, p2, c, q])
    exact = float(cKDTree(cloud).query(points)[0].max())
    assert exact == float(np.linalg.norm(p_max - c))
    assert exact - float(np.linalg.norm(p2 - q)) < 1e-9
    assert geometry._max_nearest_distance(points, cloud) == exact
    assert hausdorff_distance(points, cloud) == exact


def _vertex_passes(monkeypatch):
    """is_unreachable at the vertex of theta^2 with rho 1.2 and grid step 1e-4,
    and the (cloud size, rows) of each outermost _nearest_sq pass it makes."""
    passes, depth = [], [0]
    real = geometry._nearest_sq

    def counting(p, c, *bounds):
        if not depth[0]:
            passes.append((c.shape[1], p.shape[1]))
        depth[0] += 1
        try:
            return real(p, c, *bounds)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(geometry, "_nearest_sq", counting)
    return is_unreachable(quadratic(np.array([[2.0]])), 0.0, rho=1.2, grid_step=1e-4), passes


def test_unreachable_measures_few_samples_against_the_whole_graph(monkeypatch):
    # at the vertex of sigma*theta^2/2 with rho = 1.2/sigma every admissible
    # sample's coarse bound sits below the largest exact distance, but one
    rep, passes = _vertex_passes(monkeypatch)
    assert rep.verdict == "unreachable"
    (coarse, coarse_rows), *_ = passes
    whole = max(size for size, _ in passes)
    assert coarse == math.ceil(whole / geometry._STRIDE ** 2)
    assert coarse_rows > 1000
    assert sum(rows for size, rows in passes if size == whole) <= 0.01 * coarse_rows


def test_unreachable_measures_the_lone_live_sample_once(monkeypatch):
    # the coarse pass leaves one sample live; its exact pass is the last one,
    # and the clearance is still the KD-tree's float
    rep, passes = _vertex_passes(monkeypatch)
    samples, graph = _sphere_and_graph(quadratic(np.array([[2.0]])), 0.0, 1.2, 1e-4,
                                       rep.n_sphere)
    assert [rows for size, rows in passes if size == len(graph)] == [1]
    assert len(graph) == 48021 and passes[0] == (188, len(samples))
    assert rep.clearance == 1.2 - float(cKDTree(graph).query(samples)[0].max())


def _exact_pass_work(monkeypatch, run, *clouds):
    """(measured, window): the pairs that run()'s passes against a whole
    cloud (one of `clouds`' sizes) measure, not counting the coarse passes
    they ask for bounds, and the pairs of the same points whose first
    coordinates differ by at most the point's exact (cKDTree) distance, the
    fewest that a pass pruning by first coordinates alone could measure."""
    passes, depth = [], [0]
    real_nearest, real_pair_sq = geometry._nearest_sq, geometry._pair_sq

    def nearest(p, c, *bounds):
        if not depth[0]:
            passes.append([p, c, 0])
        depth[0] += 1
        try:
            return real_nearest(p, c, *bounds)
        finally:
            depth[0] -= 1

    def pair_sq(p, c):
        d2 = real_pair_sq(p, c)
        if depth[0] == 1:  # not a coarse pass that the outermost one asked for bounds
            passes[-1][2] += d2.size
        return d2
    monkeypatch.setattr(geometry, "_nearest_sq", nearest)
    monkeypatch.setattr(geometry, "_pair_sq", pair_sq)
    run()
    measured = window = 0
    for p, c, pairs in passes:
        if c.shape[1] in {len(cloud) for cloud in clouds}:
            reach = cKDTree(c.T).query(p.T)[0]
            window += int((np.searchsorted(c[0], p[0] + reach, "right")
                           - np.searchsorted(c[0], p[0] - reach)).sum())
            measured += pairs
    return measured, window


def test_hovering_points_measure_few_pairs_of_their_windows(monkeypatch):
    # every hovering point's window along the first coordinate spans the
    # whole segment, but the boxes of the segment's blocks are far below it
    *_, (hover, segment) = _random_clouds()
    measured, window = _exact_pass_work(
        monkeypatch, lambda: hausdorff_distance(hover, segment), hover, segment)
    assert 0 < measured <= 0.1 * window


def test_distances_to_a_2d_graph_measure_few_pairs_of_their_windows(monkeypatch):
    # a window spans dozens of the graph's columns, each box a short run of one
    ls, grid, graph, points = _points_about_a_2d_graph()
    measured, window = _exact_pass_work(
        monkeypatch, lambda: geometry.distances_to_graph(ls, points, grid), graph)
    assert 0 < measured <= 0.1 * window


def test_hausdorff_distance_of_two_large_clouds_is_the_kd_tree_float():
    # live sets of thousands of points take the coarse-to-fine passes
    rng = np.random.default_rng(5)
    a, b = rng.uniform(size=(20000, 2)), rng.uniform(size=(20000, 2))
    ab, ba = cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()
    assert geometry._max_nearest_distance(a, b) == float(ab)
    assert geometry._max_nearest_distance(b, a) == float(ba)
    assert hausdorff_distance(a, b) == float(max(ab, ba))


def test_unreachable_affine_always_reachable():
    ls = affine_plus_bump(0.5, 1.0, "sin", amplitude=0.0)
    rep = is_unreachable(ls, 0.3, rho=2.0, grid_step=1e-3)
    assert rep.verdict == "reachable"


def test_unreachable_accepts_array_theta_and_validates():
    ls = quadratic(np.array([[4.0]]))
    rep = is_unreachable(ls, np.array([0.0]), rho=0.3, grid_step=1e-4)
    assert rep.verdict == "unreachable"
    with pytest.raises(ValueError):
        is_unreachable(ls, 0.0, rho=-1.0)
    with pytest.raises(ValueError, match="1D"):
        is_unreachable(quadratic(np.eye(2)), 0.0, rho=1.0)


def test_sharpness_quadratic_exact_and_fd():
    ls = quadratic(np.array([[4.0]]))
    assert sharpness(ls, np.zeros(1)) == pytest.approx(4.0, abs=1e-12)
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    spectral = max(abs(np.linalg.eigvalsh(a)))
    assert sharpness(quadratic(a), np.zeros(2)) == pytest.approx(spectral, abs=1e-12)
    # finite-difference route: strip the analytic Hessian oracle
    from dataclasses import replace
    bare = replace(ls, hessian=None)
    assert sharpness(bare, np.zeros(1)) == pytest.approx(4.0, rel=1e-4)


def test_no_command_loads_scipy(tmp_path):
    """Importing the package and running verify, offset and trajectory load
    no scipy module: every distance is measured with numpy alone."""
    src = Path(geometry.__file__).resolve().parent.parent
    runs = [["verify", "--out", str(tmp_path / "reports")],
            ["offset", "--rho", "1", "--interval", "0:1", "--out", str(tmp_path / "offset.csv")],
            ["trajectory", "--steps", "3", "--out", str(tmp_path / "trajectory.csv")]]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); from rollball.cli import main\n"
            f"assert [main(argv) for argv in {runs!r}] == [0, 0, 0]\n"
            "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0
