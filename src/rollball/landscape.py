"""Loss landscapes as immutable graph surfaces.

A landscape is the graph of f: R^d -> R behind one value-then-gradient
oracle, plus, when available, a Hessian oracle and a vectorized batch
evaluator. Landscapes never mutate; stochastic variants produce new views
per minibatch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Landscape:
    """Graph surface of a scalar function with an exact first-order oracle.

    forward takes a parameter vector of shape (dim,) and returns (f,
    backward): the float value at that point and a callable whose call
    gives the gradient there, shape (dim,), from state the value pass
    saved. A caller that may not need the gradient pays for it only when it
    asks. f_batch, when present, evaluates a stack of points of shape (n,
    dim) in one call; it is an efficiency device only and must agree with
    forward pointwise.

    value_bound, when set, is a finite B with sup |f| <= B over all of R^d.
    value_sup, when set, is the exact global supremum of f.

    sample_context/with_context implement stochastic landscapes: drawing a
    context from an RNG and binding it yields a new immutable view. A
    landscape with sample_context=None is deterministic.
    """

    dim: int
    forward: Callable[[Array], tuple[float, Callable[[], Array]]]
    hessian: Callable[[Array], Array] | None = None
    f_batch: Callable[[Array], Array] | None = None
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
    """f and grad f at theta: one forward call and its backward."""
    v, backward = landscape.forward(theta)
    return v, backward()


def eval_batch(landscape: Landscape, thetas: Array) -> Array:
    """Evaluate f at a stack of points of shape (n, dim)."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    if landscape.f_batch is not None:
        return np.asarray(landscape.f_batch(thetas), dtype=float)
    return np.array([landscape.forward(t)[0] for t in thetas], dtype=float)


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

    def forward(theta: Array) -> tuple[float, Callable[[], Array]]:
        u = np.asarray(theta, dtype=float) - ts
        return float(0.5 * u @ a @ u), lambda: a @ u

    def f_batch(thetas: Array) -> Array:
        u = np.asarray(thetas, dtype=float) - ts
        return 0.5 * np.einsum("ni,ij,nj->n", u, a, u)

    return Landscape(dim=d, forward=forward, hessian=lambda theta: a,
                     f_batch=f_batch, name=f"quadratic(d={d})")


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

    def forward(theta: Array) -> tuple[float, Callable[[], Array]]:
        phase = n2 * float(np.asarray(theta, dtype=float).reshape(()))
        return float(np.sin(phase) @ inv), lambda: np.array([np.cos(phase).sum()])

    def hessian(theta: Array) -> Array:
        t = float(np.asarray(theta, dtype=float).reshape(()))
        return np.array([[-np.sum(n2 * np.sin(n2 * t))]])

    def f_batch(thetas: Array) -> Array:
        t = np.asarray(thetas, dtype=float).reshape(-1)
        return _eval_many(t)

    return Landscape(dim=1, forward=forward, hessian=hessian, f_batch=f_batch,
                     name=f"riemann({n_terms})", value_bound=bound)


def sinusoid() -> Landscape:
    """f(theta) = sin(theta) on R."""

    def forward(theta: Array) -> tuple[float, Callable[[], Array]]:
        t = float(np.asarray(theta, dtype=float).reshape(()))
        return float(np.sin(t)), lambda: np.array([np.cos(t)])

    def hessian(theta: Array) -> Array:
        return np.array([[-np.sin(float(np.asarray(theta).reshape(())))]])

    return Landscape(dim=1, forward=forward, hessian=hessian,
                     f_batch=lambda t: np.sin(np.asarray(t, dtype=float).reshape(-1)),
                     name="sinusoid", value_bound=1.0, value_sup=1.0)


@dataclass(frozen=True)
class BumpProfile:
    """Bounded 1D profile used as the perturbation in affine_plus_bump."""

    name: str
    value: Callable[[Array], Array]
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

    def affine_forward(theta: Array) -> tuple[float, Callable[[], Array]]:
        return float(a_vec @ np.asarray(theta, dtype=float) + b), a_vec.copy

    affine = Landscape(
        dim=d, forward=affine_forward,
        hessian=lambda theta: np.zeros((d, d)),
        f_batch=lambda ts: np.asarray(ts, dtype=float) @ a_vec + b,
        name=f"affine(a={a_vec.tolist()})")

    def forward(theta: Array) -> tuple[float, Callable[[], Array]]:
        theta = np.asarray(theta, dtype=float)
        t0 = theta[0]

        def backward() -> Array:
            g = a_vec.copy()
            g[0] += amp * float(profile.deriv(t0))
            return g

        return float(a_vec @ theta + b + amp * profile.value(t0)), backward

    def hessian(theta: Array) -> Array:
        theta = np.asarray(theta, dtype=float)
        h = np.zeros((d, d))
        h[0, 0] = amp * float(profile.second(theta[0]))
        return h

    def f_batch(thetas: Array) -> Array:
        thetas = np.asarray(thetas, dtype=float)
        return thetas @ a_vec + b + amp * profile.value(thetas[:, 0])

    return Landscape(
        dim=d, forward=forward, hessian=hessian, f_batch=f_batch,
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
