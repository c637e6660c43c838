"""Landscape catalogue: analytic oracles, batch evaluators, registry."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollball.landscape import (Landscape, affine_plus_bump, catalogue_names,
                                eval_batch, finite_difference_grad,
                                make_landscape, quadratic, riemann, sinusoid,
                                value_and_grad, value_then_grad)

finite_theta = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


def test_riemann_value_pinned():
    ls = riemann(100)
    assert ls.f(np.array([np.pi / 2])) == 1.2287007167795072


def test_riemann_bound_and_name():
    ls = riemann(100)
    assert ls.name == "riemann(100)"
    assert ls.value_bound == pytest.approx(np.pi**2 / 6, rel=1e-2)
    assert ls.value_sup is None
    with pytest.raises(ValueError):
        riemann(0)


def test_riemann_batch_matches_pointwise():
    # batch route reduces through a matvec; agreement is to summation-order dust
    ls = riemann(17)
    ts = np.linspace(-3, 9, 101)
    batch = eval_batch(ls, ts)
    point = np.array([ls.f(np.array([t])) for t in ts])
    np.testing.assert_allclose(batch, point, rtol=0, atol=1e-14)


@given(finite_theta)
@settings(max_examples=40, deadline=None)
def test_riemann_grad_matches_finite_difference(t):
    ls = riemann(5)
    theta = np.array([t])
    fd = finite_difference_grad(ls.f, theta)
    np.testing.assert_allclose(ls.grad(theta), fd, rtol=1e-4, atol=1e-4)


def test_sinusoid_oracles():
    ls = sinusoid()
    assert ls.f(np.array([0.3])) == pytest.approx(np.sin(0.3), abs=1e-15)
    assert ls.grad(np.array([0.3]))[0] == pytest.approx(np.cos(0.3), abs=1e-15)
    assert ls.hessian(np.array([0.3]))[0, 0] == pytest.approx(-np.sin(0.3), abs=1e-15)
    assert ls.value_sup == 1.0 and ls.value_bound == 1.0


def test_quadratic_value_grad_hessian():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    star = np.array([1.0, -1.0])
    ls = quadratic(a, star)
    th = np.array([2.0, 0.5])
    u = th - star
    assert ls.f(th) == pytest.approx(0.5 * u @ a @ u, abs=1e-15)
    np.testing.assert_allclose(ls.grad(th), a @ u, atol=1e-15)
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
    fd = finite_difference_grad(ls.f, theta)
    np.testing.assert_allclose(ls.grad(theta), fd, rtol=1e-4, atol=1e-4)


def test_affine_plus_bump_decomposition():
    ls = affine_plus_bump(0.7, 0.3, "sin", amplitude=2.0)
    th = np.array([1.1])
    assert ls.f(th) == pytest.approx(0.7 * 1.1 + 0.3 + 2.0 * np.sin(1.1), abs=1e-15)
    assert ls.grad(th)[0] == pytest.approx(0.7 + 2.0 * np.cos(1.1), abs=1e-15)
    assert ls.meta["bump_sup"] == 2.0
    flat = ls.meta["affine"]
    assert flat.f(th) == pytest.approx(0.7 * 1.1 + 0.3, abs=1e-15)
    np.testing.assert_array_equal(flat.grad(th), [0.7])


def test_affine_plus_bump_zero_amplitude_is_affine():
    ls = affine_plus_bump(1.0, 0.0, "sin", amplitude=0.0)
    ts = np.linspace(-2, 2, 9)
    np.testing.assert_array_equal(eval_batch(ls, ts),
                                  eval_batch(ls.meta["affine"], ts))


def test_affine_plus_bump_rejects_unknown_profile():
    with pytest.raises(ValueError, match="unknown bump profile"):
        affine_plus_bump(1.0, 0.0, "sawtooth")


def test_value_and_grad_prefers_fused_oracle():
    calls = []

    def fused(theta):
        calls.append("fused")
        return 7.0, np.array([3.0])

    ls = Landscape(dim=1, f=lambda t: 0.0, grad=lambda t: np.array([0.0]),
                   f_and_grad=fused)
    v, g = value_and_grad(ls, np.array([1.0]))
    assert (v, g[0]) == (7.0, 3.0) and calls == ["fused"]

    plain = Landscape(dim=1, f=lambda t: 5.0, grad=lambda t: np.array([2.0]))
    v, g = value_and_grad(plain, np.array([1.0]))
    assert (v, g[0]) == (5.0, 2.0)


def test_value_then_grad_defers_only_through_forward():
    calls = []

    def fused(theta):
        calls.append("fused")
        return 7.0, np.array([3.0])

    def forward(theta):
        calls.append("forward")
        return 7.0, lambda: calls.append("backward") or np.array([3.0])

    ls = Landscape(dim=1, f=lambda t: 0.0, grad=lambda t: np.array([0.0]),
                   f_and_grad=fused)
    v, grad_at = value_then_grad(ls, np.array([1.0]))
    assert v == 7.0 and calls == ["fused"]
    assert grad_at()[0] == 3.0 and calls == ["fused"]

    calls.clear()
    ls = Landscape(dim=1, f=lambda t: 0.0, grad=lambda t: np.array([0.0]),
                   f_and_grad=fused, forward=forward)
    v, grad_at = value_then_grad(ls, np.array([1.0]))
    assert v == 7.0 and calls == ["forward"]
    assert grad_at()[0] == 3.0 and calls == ["forward", "backward"]


@pytest.mark.parametrize("name,params", [
    ("riemann", {"n": 100}), ("sinusoid", {}),
    ("quadratic", {"a": [[2.0, 0.5], [0.5, 1.0]], "theta_star": [0.3, -1.0]}),
    ("affine_bump", {"a": [0.7, -0.2], "profile": "gaussian"})])
def test_catalogue_fused_oracle_is_bitwise_f_and_grad(name, params):
    ls = make_landscape(name, params)
    for theta in np.random.default_rng(5).uniform(-10.0, 10.0, (20, ls.dim)):
        v, g = ls.f_and_grad(theta)
        assert v == ls.f(theta)
        assert np.array_equal(g, ls.grad(theta))


def test_eval_batch_without_batch_oracle():
    ls = Landscape(dim=1, f=lambda t: float(t[0]) ** 3,
                   grad=lambda t: np.array([3.0 * float(t[0]) ** 2]))
    np.testing.assert_allclose(eval_batch(ls, np.array([1.0, 2.0])), [1.0, 8.0])


def test_catalogue_contents_and_errors():
    assert catalogue_names() == ["affine_bump", "quadratic", "riemann", "sinusoid"]
    assert make_landscape("riemann", {"n": 5}).name == "riemann(5)"
    assert make_landscape("quadratic", {}).dim == 1
    assert make_landscape("quadratic", {"a_diag": [2.0, 3.0]}).dim == 2
    assert make_landscape("affine_bump", {"a": 2.0, "amplitude": 0.5}).dim == 1
    with pytest.raises(ValueError, match="unknown landscape"):
        make_landscape("mystery", {})


def test_stochastic_flag():
    assert not riemann(3).is_stochastic
    ls = Landscape(dim=1, f=lambda t: 0.0, grad=lambda t: np.zeros(1),
                   sample_context=lambda rng: rng.integers(10),
                   with_context=lambda ctx: riemann(3))
    assert ls.is_stochastic
