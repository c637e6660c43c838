"""Loss landscapes as immutable graph surfaces.

A landscape is the graph of f: R^d -> R together with its analytic gradient
and, when available, a Hessian oracle and a vectorized batch evaluator.
Landscapes never mutate; stochastic variants produce new views per minibatch.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Landscape:
    """Graph surface of a scalar function with analytic first-order oracle.

    f takes a parameter vector of shape (dim,) and returns a float. grad
    returns the gradient with the same shape. f_batch, when present,
    evaluates a stack of points of shape (n, dim) in one call; f_and_grad,
    when present, returns (f, grad) from a single shared pass. forward, when
    present, returns (f, backward) where backward() gives the gradient at
    the same point from state the value pass saved, so a caller that may not
    need the gradient pays for it only when it asks. All three are
    efficiency devices only: they must agree with f and grad pointwise.

    value_bound, when set, is a finite B with sup |f| <= B over all of R^d.
    value_sup, when set, is the exact global supremum of f.

    sample_context/with_context implement stochastic landscapes: drawing a
    context from an RNG and binding it yields a new immutable view. A
    landscape with sample_context=None is deterministic.
    """

    dim: int
    f: Callable[[Array], float]
    grad: Callable[[Array], Array]
    hessian: Callable[[Array], Array] | None = None
    f_batch: Callable[[Array], Array] | None = None
    f_and_grad: Callable[[Array], tuple[float, Array]] | None = None
    forward: Callable[[Array], tuple[float, Callable[[], Array]]] | None = None
    name: str = "landscape"
    value_bound: float | None = None
    value_sup: float | None = None
    sample_context: Callable[[np.random.Generator], Any] | None = None
    with_context: Callable[[Any], "Landscape"] | None = None
    meta: Mapping[str, Any] | None = None

    @property
    def is_stochastic(self) -> bool:
        return self.sample_context is not None


def value_and_grad(landscape: Landscape, theta: Array) -> tuple[float, Array]:
    """f and grad at theta, through the fused oracle when the landscape has one."""
    if landscape.f_and_grad is not None:
        v, g = landscape.f_and_grad(theta)
        return float(v), np.asarray(g, dtype=float)
    return float(landscape.f(theta)), np.asarray(landscape.grad(theta), dtype=float)


def value_then_grad(landscape: Landscape, theta: Array,
                    ) -> tuple[float, Callable[[], Array]]:
    """f at theta and a callable giving grad at theta. Through the forward
    oracle the gradient's own pass runs only when the callable is called;
    without one, this is one fused value_and_grad call."""
    if landscape.forward is not None:
        v, backward = landscape.forward(theta)
        return float(v), lambda: np.asarray(backward(), dtype=float)
    v, g = value_and_grad(landscape, theta)
    return v, lambda: g


def eval_batch(landscape: Landscape, thetas: Array) -> Array:
    """Evaluate f at a stack of points of shape (n, dim)."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    if landscape.f_batch is not None:
        return np.asarray(landscape.f_batch(thetas), dtype=float)
    return np.array([landscape.f(t) for t in thetas], dtype=float)


def finite_difference_grad(f: Callable[[Array], float], theta: Array) -> Array:
    """Central-difference gradient with per-coordinate step 1e-5 * (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for i in range(theta.size):
        h = 1e-5 * (1.0 + abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def quadratic(a: Array, theta_star: Array | None = None) -> Landscape:
    """f(theta) = 0.5 (theta - theta*)^T A (theta - theta*), A symmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-12, atol=1e-12):
        raise ValueError("A must be symmetric")
    d = a.shape[0]
    ts = np.zeros(d) if theta_star is None else np.asarray(theta_star, dtype=float)
    if ts.shape != (d,):
        raise ValueError(f"theta_star must have shape ({d},)")

    def f(theta: Array) -> float:
        u = np.asarray(theta, dtype=float) - ts
        return float(0.5 * u @ a @ u)

    def grad(theta: Array) -> Array:
        return a @ (np.asarray(theta, dtype=float) - ts)

    def f_and_grad(theta: Array) -> tuple[float, Array]:
        u = np.asarray(theta, dtype=float) - ts
        return float(0.5 * u @ a @ u), a @ u

    def f_batch(thetas: Array) -> Array:
        u = np.asarray(thetas, dtype=float) - ts
        return 0.5 * np.einsum("ni,ij,nj->n", u, a, u)

    return Landscape(dim=d, f=f, grad=grad, hessian=lambda theta: a,
                     f_batch=f_batch, f_and_grad=f_and_grad,
                     name=f"quadratic(d={d})")


def riemann(n_terms: int = 100) -> Landscape:
    """Partial sum of sum_n sin(n^2 theta) / n^2, a rough 1D test surface.

    The derivative telescopes to sum_n cos(n^2 theta) exactly, so the
    gradient oracle is analytic despite the roughness.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    n2 = (np.arange(1, n_terms + 1, dtype=float)) ** 2
    inv = 1.0 / n2
    bound = float(np.sum(inv))

    def _eval_many(t: Array) -> Array:
        out = np.empty(t.shape[0])
        step = max(1, int(2_000_000 // n_terms))
        for a in range(0, t.shape[0], step):
            blk = t[a:a + step]
            out[a:a + step] = np.sin(np.multiply.outer(blk, n2)) @ inv
        return out

    def f(theta: Array) -> float:
        t = float(np.asarray(theta, dtype=float).reshape(()))
        return float(np.sin(n2 * t) @ inv)

    def grad(theta: Array) -> Array:
        t = float(np.asarray(theta, dtype=float).reshape(()))
        return np.array([np.sum(np.cos(n2 * t))])

    def f_and_grad(theta: Array) -> tuple[float, Array]:
        phase = n2 * float(np.asarray(theta, dtype=float).reshape(()))
        return float(np.sin(phase) @ inv), np.array([np.cos(phase).sum()])

    def hessian(theta: Array) -> Array:
        t = float(np.asarray(theta, dtype=float).reshape(()))
        return np.array([[-np.sum(n2 * np.sin(n2 * t))]])

    def f_batch(thetas: Array) -> Array:
        t = np.asarray(thetas, dtype=float).reshape(-1)
        return _eval_many(t)

    return Landscape(dim=1, f=f, grad=grad, hessian=hessian, f_batch=f_batch,
                     f_and_grad=f_and_grad, name=f"riemann({n_terms})",
                     value_bound=bound)


def sinusoid() -> Landscape:
    """f(theta) = sin(theta) on R."""

    def f(theta: Array) -> float:
        return float(np.sin(np.asarray(theta, dtype=float).reshape(())))

    def grad(theta: Array) -> Array:
        return np.array([np.cos(float(np.asarray(theta).reshape(())))])

    def hessian(theta: Array) -> Array:
        return np.array([[-np.sin(float(np.asarray(theta).reshape(())))]])

    return Landscape(dim=1, f=f, grad=grad, hessian=hessian,
                     f_batch=lambda t: np.sin(np.asarray(t, dtype=float).reshape(-1)),
                     f_and_grad=lambda theta: (f(theta), grad(theta)),
                     name="sinusoid", value_bound=1.0, value_sup=1.0)


@dataclass(frozen=True)
class BumpProfile:
    """Bounded 1D profile used as the perturbation in affine_plus_bump."""

    name: str
    f: Callable[[Array], Array]
    deriv: Callable[[Array], Array]
    second: Callable[[Array], Array]
    sup: float  # sup |profile|, must be finite


_PROFILES = {
    "sin": BumpProfile("sin", np.sin, np.cos, lambda t: -np.sin(t), 1.0),
    "cos": BumpProfile("cos", np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), 1.0),
    "gaussian": BumpProfile(
        "gaussian",
        lambda t: np.exp(-0.5 * t * t),
        lambda t: -t * np.exp(-0.5 * t * t),
        lambda t: (t * t - 1.0) * np.exp(-0.5 * t * t),
        1.0,
    ),
}


def affine_plus_bump(a: float | Array, b: float,
                     profile: str | BumpProfile = "sin",
                     amplitude: float = 1.0) -> Landscape:
    """f(theta) = <a, theta> + b + amplitude * profile(theta_0).

    The profile must be bounded; unbounded perturbations are rejected. The
    returned landscape exposes the unperturbed affine part and the bump
    supremum through meta, so verification code can compare the two graphs.
    """
    if isinstance(profile, str):
        try:
            profile = _PROFILES[profile]
        except KeyError:
            raise ValueError(f"unknown bump profile {profile!r}; "
                             f"known: {sorted(_PROFILES)}") from None
    if not np.isfinite(profile.sup):
        raise ValueError("bump profile must be bounded (finite sup)")
    a_vec = np.atleast_1d(np.asarray(a, dtype=float))
    d = a_vec.size
    amp = float(amplitude)

    def affine_f(theta: Array) -> float:
        return float(a_vec @ np.asarray(theta, dtype=float) + b)

    def affine_grad(theta: Array) -> Array:
        return a_vec.copy()

    affine = Landscape(
        dim=d, f=affine_f, grad=affine_grad,
        hessian=lambda theta: np.zeros((d, d)),
        f_batch=lambda ts: np.asarray(ts, dtype=float) @ a_vec + b,
        name=f"affine(a={a_vec.tolist()})")

    def f(theta: Array) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(a_vec @ theta + b + amp * profile.f(theta[0]))

    def grad(theta: Array) -> Array:
        theta = np.asarray(theta, dtype=float)
        g = a_vec.copy()
        g[0] += amp * float(profile.deriv(theta[0]))
        return g

    def hessian(theta: Array) -> Array:
        theta = np.asarray(theta, dtype=float)
        h = np.zeros((d, d))
        h[0, 0] = amp * float(profile.second(theta[0]))
        return h

    def f_batch(thetas: Array) -> Array:
        thetas = np.asarray(thetas, dtype=float)
        return thetas @ a_vec + b + amp * profile.f(thetas[:, 0])

    return Landscape(
        dim=d, f=f, grad=grad, hessian=hessian, f_batch=f_batch,
        f_and_grad=lambda theta: (f(theta), grad(theta)),
        name=f"affine_bump(a={a_vec.tolist()},amp={amp},profile={profile.name})",
        meta={"affine": affine, "bump_sup": abs(amp) * profile.sup,
              "profile": profile.name, "amplitude": amp})


_CATALOGUE: dict[str, Callable[..., Landscape]] = {}


def _register(name: str, factory: Callable[..., Landscape]) -> None:
    _CATALOGUE[name] = factory


_register("riemann", lambda n=100: riemann(int(n)))
_register("sinusoid", lambda: sinusoid())
_register("quadratic", lambda a=None, a_diag=None, theta_star=None: quadratic(
    np.diag(np.asarray(a_diag, dtype=float)) if a_diag is not None
    else np.asarray(a if a is not None else [[1.0]], dtype=float),
    theta_star))
_register("affine_bump", lambda a=1.0, b=0.0, profile="sin", amplitude=1.0:
          affine_plus_bump(a, b, profile, amplitude))


def make_landscape(name: str, params: Mapping[str, Any] | None = None) -> Landscape:
    """Instantiate a catalogue landscape by id, e.g. make_landscape("riemann", {"n": 100})."""
    try:
        factory = _CATALOGUE[name]
    except KeyError:
        raise ValueError(f"unknown landscape {name!r}; known: {sorted(_CATALOGUE)}") from None
    return factory(**dict(params or {}))


def catalogue_names() -> list[str]:
    return sorted(_CATALOGUE)
