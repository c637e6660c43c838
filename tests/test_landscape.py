"""Landscape catalogue: analytic oracles, batch evaluators, registry."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollball import landscape as landscape_module
from rollball.landscape import (Landscape, affine_plus_bump, catalogue_names,
                                eval_batch, make_landscape, quadratic, riemann,
                                sinusoid, value_and_grad)

from reference import finite_difference_grad

finite_theta = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


def value(ls, theta):
    return ls.forward(np.asarray(theta, dtype=float))[0]


def grad(ls, theta):
    return value_and_grad(ls, np.asarray(theta, dtype=float))[1]


def test_riemann_value_pinned():
    ls = riemann(100)
    assert value(ls, [np.pi / 2]) == 1.2287007167795072


def test_riemann_bound_and_name():
    ls = riemann(100)
    assert ls.name == "riemann(100)"
    assert ls.value_bound == pytest.approx(np.pi**2 / 6, rel=1e-2)
    assert ls.value_sup is None
    with pytest.raises(ValueError):
        riemann(0)


def test_riemann_batch_matches_pointwise():
    # forward rounds each phase n^2 t before its sine, the batch kernel's
    # phase recurrence does not; at |t| <= 9 they differ by a few 1e-15
    ls = riemann(17)
    ts = np.linspace(-3, 9, 101)
    batch = eval_batch(ls, ts)
    point = np.array([value(ls, [t]) for t in ts])
    np.testing.assert_allclose(batch, point, rtol=0, atol=1e-14)


def test_riemann_batch_value_ignores_its_batch():
    # a point's value is the same float alone, in every batch of 1 to 40
    # points at offsets 0 to 16 (short batches are where numpy's SIMD loops
    # take their scalar tails), in a block cut one to eight points short of
    # or past the kernel's block size, and in shifted slices
    block = landscape_module._RIEMANN_BLOCK
    ls = riemann(100)
    ts = np.random.default_rng(8).uniform(-50.0, 50.0, 2 * block + 16)
    full = ls.f_batch(ts[:, None])
    for size in range(1, 41):
        for a in range(17):
            np.testing.assert_array_equal(ls.f_batch(ts[a:a + size, None]),
                                          full[a:a + size], err_msg=f"{size} from {a}")
    alone = np.array([ls.f_batch(ts[i:i + 1, None])[0] for i in range(block - 8, block + 8)])
    np.testing.assert_array_equal(alone, full[block - 8:block + 8])
    for d in range(1, 9):
        for size in (block - d, block + d):
            np.testing.assert_array_equal(ls.f_batch(ts[:size, None]), full[:size])
        np.testing.assert_array_equal(ls.f_batch(ts[d:, None]), full[d:])


def _riemann_reference(t, n_terms):
    """sum_n sin(n^2 t) / n^2 with every phase n^2 t exact: n^2 t = a + b
    with a = fl(n^2 t) and |b| <= ulp(a) / 2, so sin(n^2 t) is sin(a) +
    b cos(a) up to b^2 / 2 < 1e-18 at |t| <= 1024."""
    terms = []
    for n in range(1, n_terms + 1):
        phase = Fraction(t) * (n * n)
        a = float(phase)
        b = float(phase - Fraction(a))
        terms.append((math.sin(a) + b * math.cos(a)) / (n * n))
    return math.fsum(terms)


def test_riemann_batch_is_accurate():
    # at t = k / 2^20 with |t| <= 1024 the phases n^2 t are floats; at the
    # other points a kernel that rounds n^2 t is off by up to ~N |t| eps
    rng = np.random.default_rng(9)
    ts = np.concatenate([rng.integers(-2**30, 2**30, 40) / 2.0**20,
                         rng.uniform(-35.0, 35.0, 40)])
    ref = np.array([_riemann_reference(t, 100) for t in ts])
    np.testing.assert_allclose(riemann(100).f_batch(ts[:, None]), ref, rtol=0, atol=4e-15)


@given(finite_theta)
@settings(max_examples=40, deadline=None)
def test_riemann_grad_matches_finite_difference(t):
    ls = riemann(5)
    theta = np.array([t])
    fd = finite_difference_grad(ls, theta)
    np.testing.assert_allclose(grad(ls, theta), fd, rtol=1e-4, atol=1e-4)


def test_sinusoid_oracles():
    ls = sinusoid()
    assert value(ls, [0.3]) == pytest.approx(np.sin(0.3), abs=1e-15)
    assert grad(ls, [0.3])[0] == pytest.approx(np.cos(0.3), abs=1e-15)
    assert ls.value_sup == 1.0 and ls.value_bound == 1.0


@pytest.mark.parametrize("ls", [riemann(1), riemann(5), riemann(20), riemann(100), sinusoid()],
                         ids=lambda ls: ls.name)
def test_catalogue_slope_bounds_hold(ls):
    # |f(x) - f(y)| <= S |x - y| on the batch values the offset scan reads,
    # with the scan's 1e-12 B margin for rounding. Pairs from 0 and 2 pi,
    # where every cos(n^2 t) is 1 and riemann(N)'s slope attains N, and
    # seeded pairs at gaps from 1e-9 to 10
    rng = np.random.default_rng(12)
    x = np.concatenate([[0.0] * 10, [2 * np.pi] * 10, rng.uniform(-500.0, 500.0, 2000)])
    y = x + np.concatenate([10.0 ** -np.arange(1, 11), -10.0 ** -np.arange(1, 11),
                            rng.choice([-1, 1], 2000) * 10.0 ** rng.uniform(-9, 1, 2000)])
    gap = np.abs(ls.f_batch(x[:, None]) - ls.f_batch(y[:, None]))
    assert (gap <= ls.slope_bound * np.abs(x - y) + 1e-12 * ls.value_bound).all()
    tight = gap[:20] / np.abs(x - y)[:20]  # the bound is the slope at 0, not just above it
    assert tight.max() >= ls.slope_bound * (1 - 1e-3)


def test_quadratic_value_grad_hessian():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    star = np.array([1.0, -1.0])
    ls = quadratic(a, star)
    th = np.array([2.0, 0.5])
    u = th - star
    assert value(ls, th) == pytest.approx(0.5 * u @ a @ u, abs=1e-15)
    np.testing.assert_allclose(grad(ls, th), a @ u, atol=1e-15)
    np.testing.assert_array_equal(ls.hessian(th), a)
    np.testing.assert_allclose(eval_batch(ls, np.stack([th, star])),
                               [0.5 * u @ a @ u, 0.0], atol=1e-15)


def test_quadratic_rejects_bad_matrix():
    with pytest.raises(ValueError):
        quadratic(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        quadratic(np.eye(2), np.zeros(3))


@given(st.lists(finite_theta, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_quadratic_grad_matches_finite_difference(coords):
    ls = quadratic(np.array([[3.0, 1.0], [1.0, 2.0]]))
    theta = np.array(coords)
    fd = finite_difference_grad(ls, theta)
    np.testing.assert_allclose(grad(ls, theta), fd, rtol=1e-4, atol=1e-4)


def test_affine_plus_bump_decomposition():
    ls = affine_plus_bump(0.7, 0.3, "sin", amplitude=2.0)
    th = np.array([1.1])
    assert value(ls, th) == pytest.approx(0.7 * 1.1 + 0.3 + 2.0 * np.sin(1.1), abs=1e-15)
    assert grad(ls, th)[0] == pytest.approx(0.7 + 2.0 * np.cos(1.1), abs=1e-15)
    assert ls.meta["bump_sup"] == 2.0
    flat = affine_plus_bump(0.7, 0.3, "sin", amplitude=0.0)
    assert value(flat, th) == pytest.approx(0.7 * 1.1 + 0.3, abs=1e-15)
    np.testing.assert_array_equal(grad(flat, th), [0.7])


def test_affine_plus_bump_zero_amplitude_is_affine():
    # bitwise the bare line's batch, as verify's linear-ironing check compares them
    for profile in ("sin", "cos", "gaussian"):
        ls = affine_plus_bump(0.7, 0.3, profile, amplitude=0.0)
        ts = np.linspace(-2, 2, 9)
        np.testing.assert_array_equal(eval_batch(ls, ts), ts[:, None] @ np.array([0.7]) + 0.3)


def test_affine_plus_bump_rejects_unknown_profile():
    with pytest.raises(ValueError, match="unknown bump profile"):
        affine_plus_bump(1.0, 0.0, "sawtooth")


def test_value_then_grad_defers_only_through_forward():
    """forward gives the value at once; the gradient's own pass runs only
    when its backward is called, and value_and_grad is one of each."""
    calls = []

    def forward(theta):
        calls.append("forward")
        return 7.0, lambda: calls.append("backward") or np.array([3.0])

    ls = Landscape(dim=1, forward=forward)
    v, backward = ls.forward(np.array([1.0]))
    assert v == 7.0 and calls == ["forward"]
    assert backward()[0] == 3.0 and calls == ["forward", "backward"]

    calls.clear()
    v, g = value_and_grad(ls, np.array([1.0]))
    assert (v, g[0]) == (7.0, 3.0) and calls == ["forward", "backward"]


def test_eval_batch_without_batch_oracle():
    ls = Landscape(dim=1, forward=lambda t: (float(t[0]) ** 3,
                                             lambda: np.array([3.0 * float(t[0]) ** 2])))
    np.testing.assert_allclose(eval_batch(ls, np.array([1.0, 2.0])), [1.0, 8.0])


def test_catalogue_contents_and_errors():
    assert catalogue_names() == ["affine_bump", "quadratic", "riemann", "sinusoid"]
    assert make_landscape("riemann", {"n": 5}).name == "riemann(5)"
    assert make_landscape("riemann", {"n": 100.0}).name == "riemann(100)"
    for bad in (2.5, "x", True, float("inf")):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            make_landscape("riemann", {"n": bad})
    assert make_landscape("quadratic", {}).dim == 1
    assert make_landscape("quadratic", {"a_diag": [2.0, 3.0]}).dim == 2
    assert make_landscape("affine_bump", {"a": 2.0, "amplitude": 0.5}).dim == 1
    with pytest.raises(ValueError, match="unknown landscape"):
        make_landscape("mystery", {})


def test_stochastic_flag():
    assert not riemann(3).is_stochastic
    ls = Landscape(dim=1, forward=lambda t: (0.0, lambda: np.zeros(1)),
                   sample_context=lambda rng: rng.integers(10),
                   with_context=lambda ctx: riemann(3))
    assert ls.is_stochastic
