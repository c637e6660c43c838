"""Graph geometry: normals, offsets, distances, unreachability oracle."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from rollball import geometry
from rollball.geometry import (GridSpec, _offset_window, count_local_minima,
                               distance_to_graph, hausdorff_distance,
                               is_unreachable, normal_from_grad,
                               offset_profile, offset_value, sharpness,
                               tangent_from_grad)
from rollball.landscape import (affine_plus_bump, eval_batch, quadratic, riemann,
                                sinusoid, value_and_grad)

grad_vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=1, max_size=4)


@given(grad_vectors)
@settings(max_examples=60, deadline=None)
def test_normal_is_unit_and_orthogonal_to_tangent(g):
    g = np.array(g)
    nu = normal_from_grad(g)
    tau = tangent_from_grad(g)
    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
    assert abs(nu @ tau) <= 1e-9 * max(1.0, np.linalg.norm(tau))
    assert nu[-1] > 0  # upward component


def test_normal_tangent_values():
    # f = theta^2 at theta=1: grad=2, nu=(-2,1)/sqrt5, tau=(2,4)
    ls = quadratic(np.array([[2.0]]))
    g = value_and_grad(ls, np.array([1.0]))[1]
    np.testing.assert_allclose(normal_from_grad(g),
                               np.array([-2.0, 1.0]) / np.sqrt(5.0), atol=1e-15)
    np.testing.assert_allclose(tangent_from_grad(g), [2.0, 4.0], atol=1e-15)
    # flat point: normal straight up, tangent zero
    g = value_and_grad(ls, np.zeros(1))[1]
    np.testing.assert_array_equal(normal_from_grad(g), [0.0, 1.0])
    np.testing.assert_array_equal(tangent_from_grad(g), [0.0, 0.0])


def test_distance_to_graph_parabola():
    # nearest graph point of (0, 2) on f=theta^2 is (sqrt(1.5), 1.5)
    ls = quadratic(np.array([[2.0]]))
    grid = GridSpec(lo=(-3.0,), hi=(3.0,), step=1e-4)
    d = distance_to_graph(ls, np.array([0.0, 2.0]), grid)
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


def test_offset_window_pruning_huge_radius():
    # bounded landscape with rho >> sup|f|: the pruned window must still
    # reproduce the full maximum, and the profile flattens to a single dip.
    # The candidate window holds 5.1M lattice points; only the third that
    # is evaluated gets arrays (whole-window ones peaked at 135 MB)
    ls = riemann(100)
    tracemalloc.start()
    try:
        prof = offset_profile(ls, 1e4, 0.0, 2 * np.pi, theta_step=0.1, h=1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
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


def _full_window_profile(ls, rho, h, thetas, k=None):
    """Brute-force maximum over the whole rho*(1-1e-12) lattice window.

    k=None follows offset_value (each theta's own lattice plus theta);
    an integer k follows the shared lattice of offset_profile, where
    theta number i sits on lattice index (i0 + i) * k.
    """
    smax = rho * (1.0 - 1e-12)
    if k is None:
        out = []
        for t in thetas:
            j0 = math.ceil((t - smax) / h - 1e-9)
            j1 = math.floor((t + smax) / h + 1e-9)
            tp = np.concatenate([np.arange(j0, j1 + 1) * h, [t]])
            s = np.clip(tp - t, -smax, smax)
            out.append(np.max(ls.f_batch(tp[:, None]) +
                              np.sqrt(np.maximum(rho * rho - s * s, 0.0))))
        return np.array(out)
    n = int(math.floor(smax / h + 1e-9))
    s = np.clip(np.arange(-n, n + 1) * h, -smax, smax)
    circ = np.sqrt(np.maximum(rho * rho - s * s, 0.0))
    first = int(round(thetas[0] / (k * h))) * k
    fv = ls.f_batch((np.arange(first - n, first + (thetas.size - 1) * k + n + 1) * h)[:, None])
    return np.array([np.max(fv[i * k:i * k + 2 * n + 1] + circ)
                     for i in range(thetas.size)])


@pytest.mark.parametrize("rho", [0.05, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("make", [lambda: riemann(5), sinusoid,
                                  lambda: affine_plus_bump(0.5, 0.0, "sin", 1.0)],
                         ids=["riemann5", "sinusoid", "affine_bump"])
def test_offset_pruned_window_is_exact(make, rho):
    # the pruned search returns the very float of the full-window maximum,
    # on the shared lattice, on the per-theta fallback and in offset_value
    base = make()
    ls, seen = _counting(base)
    h = min(rho / 200, 0.05)
    step = 10 * h
    prof = offset_profile(ls, rho, 0.0, 40 * step, theta_step=step, h=h)
    assert np.array_equal(prof.values, _full_window_profile(base, rho, h, prof.thetas, k=10))
    # no lattice point is evaluated twice; without a value_bound the whole
    # window is evaluated, with one a large radius leaves most of it out
    pts = np.concatenate(seen)
    assert np.unique(pts).size == pts.size
    window = 40 * 10 + 2 * int(math.floor(_offset_window(ls, rho) / h + 1e-9)) + 1
    if ls.value_bound is None:
        assert pts.size == window
    elif rho == 1e3:
        assert pts.size < window / 2

    rough = offset_profile(ls, rho, 0.3 * h, 0.3 * h + 8 * 10.5 * h,
                           theta_step=10.5 * h, h=h)
    assert np.array_equal(rough.values, _full_window_profile(base, rho, h, rough.thetas))
    t = float(prof.thetas[7])
    assert offset_value(ls, rho, t, h) == _full_window_profile(base, rho, h, [t])[0]


@pytest.mark.parametrize("rho", [0.05, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("make", [lambda: riemann(5), sinusoid], ids=["riemann5", "sinusoid"])
def test_offset_value_evaluates_the_band_and_the_live_points(make, rho):
    # offset_value finds its pass edges by bisection; the points it evaluates
    # are theta, the pass-1 band and the lattice points whose bound
    # B + sqrt(rho^2 - s^2) reaches the band's maximum, found here over
    # the whole window
    base = make()
    h = min(rho / 200, 0.05)
    smax = rho * (1.0 - 1e-12)
    w = _offset_window(base, rho)
    for theta in (0.0, 0.37 * h, 1.3, -2.0 + 0.5 * h):
        ls, seen = _counting(base)
        got = offset_value(ls, rho, theta, h)
        j0 = math.ceil((theta - w) / h - 1e-9)
        j1 = math.floor((theta + w) / h + 1e-9)
        tp = np.arange(j0, j1 + 1) * h
        s = np.clip(tp - theta, -smax, smax)
        circ = np.sqrt(np.maximum(rho * rho - s * s, 0.0))
        band = (s >= -w / geometry._NARROW) & (s <= w / geometry._NARROW)
        best = max(np.max(base.f_batch(tp[band][:, None]) + circ[band]),
                   base.f_batch(np.array([[theta]]))[0] + rho)
        live = base.value_bound * (1.0 + 1e-12) + circ >= best
        want = np.unique(np.append(tp[band | live], theta))
        np.testing.assert_array_equal(np.unique(np.concatenate(seen)), want)
        assert got == np.max(base.f_batch(want[:, None]) +
                             np.sqrt(np.maximum(rho * rho - np.clip(want - theta, -smax, smax) ** 2, 0.0)))


def test_offset_profile_memory_is_bounded():
    # 629 thetas x a 161k-wide candidate window: the scan's temporaries
    # stay in fixed-size chunks instead of one 200 MB block
    ls = riemann(100)
    tracemalloc.start()
    try:
        offset_profile(ls, 1e3, 0.0, 2 * np.pi, theta_step=0.01, h=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6


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
    # every sample's exact minimum over all lattice points: the KD-tree's
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
    # p_max's nearest cloud point c is in the coarse tree, so its bound is
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


class _CountingTree:
    def __init__(self, tree):
        self.tree, self.size, self.queried = tree, tree.n, 0

    def query(self, x):
        self.queried += 1 if np.ndim(x) == 1 else len(x)
        return self.tree.query(x)


def test_unreachable_sends_few_samples_to_the_exact_tree(monkeypatch):
    # at the vertex of sigma*theta^2/2 with rho = 1.2/sigma every admissible
    # sample's coarse bound sits below the largest exact distance, but one
    trees = []
    real = geometry._curve_tree

    def counting_tree(points):
        trees.append(_CountingTree(real(points)))
        return trees[-1]
    monkeypatch.setattr(geometry, "_curve_tree", counting_tree)
    rep = is_unreachable(quadratic(np.array([[2.0]])), 0.0, rho=1.2, grid_step=1e-4)
    assert rep.verdict == "unreachable"
    fine, coarse = sorted(trees, key=lambda tr: tr.size, reverse=True)
    assert coarse.size == math.ceil(fine.size / geometry._COARSE)
    assert coarse.queried > 1000
    assert fine.queried <= 0.01 * coarse.queried


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
