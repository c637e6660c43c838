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
    forward pointwise, up to rounding. riemann's f_batch steps the phases
    e^{i n^2 t} by a recurrence: a point's value does not depend on the rest
    of the batch, and it is within 3e-15 of the exact sum. Its forward
    rounds each phase n^2 t, and the two agree to 1e-14 at |t| <= 10 and
    2e-12 at |t| <= 1000.

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


# Points per block of riemann's batch kernel: a block's arrays stay in cache,
# and numpy's fixed cost per call is small next to the work of one call.
_RIEMANN_BLOCK = 8192


def _riemann_block(t: Array, inv: Array) -> Array:
    """sum_n inv[n-1] * sin(n^2 t) at each point of t, with inv[n-1] = 1/n^2.

    z_n = e^{i n^2 t} follows from z_n = z_{n-1} d_n and d_n = d_{n-1} e^{2it},
    with z_1 = d_1 = e^{it}: two sincos per point and a few multiply-adds per
    term, summed in order of n. Every operation is a real elementwise one, so
    each output depends on its own t alone, not on the block around it.
    """
    dr, di = np.cos(t), np.sin(t)
    er, ei = np.cos(2.0 * t), np.sin(2.0 * t)
    zr, zi = dr.copy(), di.copy()
    acc = di * inv[0]
    t1, t2 = np.empty_like(t), np.empty_like(t)
    for w in inv[1:]:
        np.multiply(dr, ei, out=t1)  # d <- d e^{2it}
        np.multiply(di, er, out=t2)
        np.multiply(dr, er, out=dr)
        np.multiply(di, ei, out=di)
        np.subtract(dr, di, out=dr)
        np.add(t1, t2, out=di)
        np.multiply(zr, di, out=t1)  # z <- z d
        np.multiply(zi, dr, out=t2)
        np.multiply(zr, dr, out=zr)
        np.multiply(zi, di, out=zi)
        np.subtract(zr, zi, out=zr)
        np.add(t1, t2, out=zi)
        np.multiply(zi, w, out=t1)
        np.add(acc, t1, out=acc)
    return acc


def riemann(n_terms: int = 100) -> Landscape:
    """Partial sum of sum_n sin(n^2 theta) / n^2, a rough 1D test surface.

    The derivative telescopes to sum_n cos(n^2 theta) exactly, so the
    gradient oracle is analytic despite the roughness. forward takes one
    sine per term, f_batch the recurrence of _riemann_block (see Landscape).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    n2 = (np.arange(1, n_terms + 1, dtype=float)) ** 2
    inv = 1.0 / n2
    bound = float(np.sum(inv))

    def forward(theta: Array) -> tuple[float, Callable[[], Array]]:
        phase = n2 * float(np.asarray(theta, dtype=float).reshape(()))
        return float(np.sin(phase) @ inv), lambda: np.array([np.cos(phase).sum()])

    def hessian(theta: Array) -> Array:
        t = float(np.asarray(theta, dtype=float).reshape(()))
        return np.array([[-np.sum(n2 * np.sin(n2 * t))]])

    def f_batch(thetas: Array) -> Array:
        t = np.ascontiguousarray(thetas, dtype=float).reshape(-1)
        out = np.empty(t.shape[0])
        for a in range(0, t.shape[0], _RIEMANN_BLOCK):
            out[a:a + _RIEMANN_BLOCK] = _riemann_block(t[a:a + _RIEMANN_BLOCK], inv)
        return out

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


_CATALOGUE: dict[str, Callable[..., Landscape]] = {
    "riemann": lambda n=100: riemann(int(n)),
    "sinusoid": lambda: sinusoid(),
    "quadratic": lambda a=None, a_diag=None, theta_star=None: quadratic(
        np.diag(np.asarray(a_diag, dtype=float)) if a_diag is not None
        else np.asarray(a if a is not None else [[1.0]], dtype=float),
        theta_star),
    "affine_bump": lambda a=1.0, b=0.0, profile="sin", amplitude=1.0:
        affine_plus_bump(a, b, profile, amplitude),
}


def make_landscape(name: str, params: Mapping[str, Any] | None = None) -> Landscape:
    """Instantiate a catalogue landscape by id, e.g. make_landscape("riemann", {"n": 100})."""
    try:
        factory = _CATALOGUE[name]
    except KeyError:
        raise ValueError(f"unknown landscape {name!r}; known: {sorted(_CATALOGUE)}") from None
    return factory(**dict(params or {}))


def catalogue_names() -> list[str]:
    return sorted(_CATALOGUE)
