"""Executable checks for the geometric claims behind rolling-ball descent.

Each check measures a finite-resolution analogue of an asymptotic statement
(large-radius flattening, unreachability of sharp minima, the small-radius
reduction to plain gradient descent) and reports pass/fail against explicit
tolerances. Thresholds are arguments, not constants: the underlying claims
are limits, so any finite-grid tolerance is a choice that belongs to the
caller's config.
"""
from __future__ import annotations

import inspect
import math
import types
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Union, get_args, get_origin

import numpy as np

from .geometry import (_grid_slack, _lattice, _lattice_view, _offset_window,
                       count_local_minima, hausdorff_distance, is_unreachable, offset_profile)
from .landscape import Landscape, affine_plus_bump, eval_batch, make_landscape, \
    quadratic, riemann, sinusoid
from .optimizer import run_gd, run_rbo


@dataclass(frozen=True)
class Observation:
    """One measured quantity against one upper bound.

    bound=None marks an informational reading with nothing to satisfy.
    Boolean expectations appear as violation indicators: value 0.0 means
    the expectation held, 1.0 means it did not, bound 0.0.
    """

    parameter: str
    value: float
    bound: float | None
    ok: bool


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    observations: tuple[Observation, ...]
    notes: str


def _obs(parameter: str, value: float, bound: float | None) -> Observation:
    ok = True if bound is None else bool(value <= bound)
    return Observation(parameter=parameter, value=float(value), bound=bound, ok=ok)


def _report(name: str, observations: list[Observation], notes: str) -> CheckReport:
    return CheckReport(name=name, passed=all(o.ok for o in observations),
                       observations=tuple(observations), notes=notes)


def _monotone_obs(label: str, values: list[float], keys: list[float],
                  bound: float | None = 0.0) -> list[Observation]:
    # consecutive differences, bound 0.0 for a non-increasing sequence
    return [_obs(f"{label}(rho={keys[i + 1]:g})-{label}(rho={keys[i]:g})",
                 values[i + 1] - values[i], bound)
            for i in range(len(values) - 1)]


# ---------------------------------------------------------------------------
# large-radius flattening of bounded landscapes
# ---------------------------------------------------------------------------

def check_weak_ironing(landscape: Landscape, radii: tuple[float, ...] = (10.0, 100.0, 1000.0),
                       lo: float = -1.0, hi: float = 1.0, theta_step: float = 0.01,
                       h_over_rho: float = 5e-4, eps: float = 0.01) -> CheckReport:
    """Measure e(rho) = sup over [lo,hi] of |offset(theta) - rho - sup f|.

    For a bounded landscape the offset minus the radius flattens onto the
    constant sup f as the radius grows; the check passes iff e is
    non-increasing along the given radii and the last e is below eps.
    The reference sup is the landscape's exact value_sup when declared,
    otherwise the max of f over the widest evaluation lattice.
    """
    if landscape.dim != 1:
        raise ValueError("weak ironing check is 1D only")
    if landscape.value_sup is None and landscape.value_bound is None:
        raise ValueError("weak ironing requires a bounded landscape "
                         "(value_sup or value_bound must be set)")
    if any(b <= a for a, b in zip(radii, radii[1:])) or len(radii) < 1:
        raise ValueError("radii must be strictly increasing")

    profiles, slacks, ref_max = [], [], -math.inf
    for rho in radii:
        h = rho * h_over_rho
        profiles.append(offset_profile(landscape, rho, lo, hi, theta_step, h=h))
        # measurement slack from the lattice of the offset's candidate window
        width = _offset_window(landscape, rho)
        lattice = _lattice(lo - width, hi + width, h)
        fv = eval_batch(landscape, lattice)
        ref_max = max(ref_max, float(np.max(fv)))
        slacks.append(_grid_slack(fv, h))

    sup_ref = landscape.value_sup if landscape.value_sup is not None else ref_max
    e_vals = [float(np.max(np.abs(p.values - rho - sup_ref)))
              for p, rho in zip(profiles, radii)]

    observations = [_obs(f"e(rho={rho:g})", e, None)
                    for rho, e in zip(radii[:-1], e_vals[:-1])]
    observations += _monotone_obs("e", e_vals, list(radii))
    observations.append(_obs(f"e(rho={radii[-1]:g})", e_vals[-1], eps))
    observations += [_obs(f"slack(rho={rho:g})", s, None)
                     for rho, s in zip(radii, slacks)]
    src = "declared value_sup" if landscape.value_sup is not None else "lattice max"
    return _report("weak-ironing", observations,
                   f"reference sup = {sup_ref!r} ({src}); "
                   f"offset grid step = rho * {h_over_rho:g}")


def check_linear_ironing(a: float = 1.0, b: float = 0.0, profile: str = "sin",
                         amplitude: float = 1.0,
                         radii: tuple[float, ...] = (1.0, 10.0, 100.0),
                         lo: float = -2.0, hi: float = 2.0, theta_step: float = 0.01,
                         h_over_rho: float = 5e-4, eps: float = 0.1) -> CheckReport:
    """Offsets of a bumped line converge to the offset of the raised line.

    For each radius, compares the sampled offset graph of f = a*theta + b +
    bump against the offset graph of the bare line raised by sup(bump),
    which is the flat profile large balls iron both landscapes onto.
    Passes iff the Hausdorff distances are non-increasing and the last one
    is below eps. amplitude=0 gives distance 0 exactly.
    """
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])) or len(radii) < 1:
        raise ValueError("radii must be strictly increasing")
    bumped = affine_plus_bump(a, b, profile, amplitude)
    flat = affine_plus_bump(a, b, profile, 0.0)
    bump_sup = bumped.meta["bump_sup"]

    dists = []
    for rho in radii:
        h = rho * h_over_rho
        off_flat = offset_profile(flat, rho, lo, hi, theta_step, h=h)
        off_bump = offset_profile(bumped, rho, lo, hi, theta_step, h=h)
        raised = np.column_stack([off_flat.thetas, off_flat.values + bump_sup])
        target = np.column_stack([off_bump.thetas, off_bump.values])
        dists.append(hausdorff_distance(raised, target))

    observations = [_obs(f"hausdorff(rho={rho:g})", d, None)
                    for rho, d in zip(radii[:-1], dists[:-1])]
    observations += _monotone_obs("hausdorff", dists, list(radii))
    observations.append(_obs(f"hausdorff(rho={radii[-1]:g})", dists[-1], eps))
    return _report("linear-ironing", observations,
                   f"bumped line vs bare line raised by sup(bump) = {bump_sup!r}; "
                   "the raised line is the level both offsets flatten onto")


# ---------------------------------------------------------------------------
# unreachability of sharp minima
# ---------------------------------------------------------------------------

def _parabola(sigma: float) -> Landscape:
    return quadratic(np.array([[sigma]]), np.zeros(1))


def check_sharp_minima(sigmas: tuple[float, ...] = (1.0, 2.0, 4.0),
                       rhos: tuple[float, ...] | None = None,
                       margin: float = 0.1,
                       grid_step: float = 1e-4) -> CheckReport:
    """Vertices of parabolas sigma*theta^2/2 flip from reachable to
    unreachable exactly at radius 1/sigma.

    Tests every (sigma, rho) pair with rho outside the +-margin band around
    1/sigma: above the band the vertex must test unreachable, below it must
    test reachable (the converse direction holds on exact parabolas). Pairs
    inside the band are skipped. rhos=None tests 1.2/sigma and 0.8/sigma
    per sigma with the default margin. An indeterminate verdict fails.
    """
    if not all(0 < s < math.inf for s in sigmas):
        raise ValueError(f"sigma values must be positive and finite, got {sigmas!r}")
    if not 0 < margin < 1:
        raise ValueError(f"margin must lie in (0, 1), got {margin!r}")
    observations: list[Observation] = []
    details = []
    for sigma in sigmas:
        crit = 1.0 / sigma
        pair_rhos = rhos if rhos is not None else ((1.0 + 2 * margin) * crit,
                                                   (1.0 - 2 * margin) * crit)
        for rho in pair_rhos:
            if crit * (1.0 - margin) < rho < crit * (1.0 + margin):
                details.append(f"sigma={sigma:g} rho={rho:g}: inside margin band, skipped")
                continue
            expect = "unreachable" if rho > crit else "reachable"
            rep = is_unreachable(_parabola(sigma), 0.0, rho, grid_step=grid_step)
            violation = 0.0 if rep.verdict == expect else 1.0
            observations.append(_obs(
                f"{expect}(sigma={sigma:g},rho={rho:g})", violation, 0.0))
            details.append(
                f"sigma={sigma:g} rho={rho:g}: verdict={rep.verdict} "
                f"clearance={rep.clearance:.3e} slack={rep.slack:.3e}")
    return _report("sharp-minima", observations, "; ".join(details))


def check_open_unreachables(landscape: Landscape, theta0: float, rho: float,
                            delta: float = 1e-3, k_max: int = 10,
                            grid_step: float = 1e-4) -> CheckReport:
    """Unreachable points come in open neighborhoods, never isolated.

    Requires the base point to test unreachable (raises otherwise). Every
    neighbor theta0 +- k*delta within the base point's measured clearance
    must then also test unreachable; neighbors beyond the certified
    clearance radius are still measured but reported as informational.
    An indeterminate base (margin below the grid slack) skips the check
    with a note instead of guessing.
    """
    if delta <= 0 or k_max < 1:
        raise ValueError("delta must be positive and k_max >= 1")
    theta0 = float(np.asarray(theta0, dtype=float).reshape(()))
    base = is_unreachable(landscape, theta0, rho, grid_step=grid_step)
    if base.verdict == "reachable":
        raise ValueError(
            f"base point theta={theta0:g} is not unreachable at rho={rho:g}; "
            "openness has nothing to certify")
    if base.verdict == "indeterminate":
        return _report(
            "open-unreachables", [],
            f"base point indeterminate (clearance {base.clearance:.3e} within "
            f"grid slack {base.slack:.3e}); refine grid_step to resolve; skipped")

    observations: list[Observation] = []
    capped = 0
    for k in range(1, k_max + 1):
        for sign in (-1.0, 1.0):
            theta = theta0 + sign * k * delta
            rep = is_unreachable(landscape, theta, rho, grid_step=grid_step)
            violation = 0.0 if rep.verdict == "unreachable" else 1.0
            binding = k * delta <= base.clearance
            if not binding:
                capped += 1
            observations.append(_obs(f"unreachable(theta={theta:g})", violation,
                                     0.0 if binding else None))
    notes = (f"base clearance {base.clearance:.3e}, slack {base.slack:.3e}; "
             f"{len(observations)} neighbors tested at delta={delta:g}")
    if capped:
        notes += (f"; {capped} neighbors beyond the certified clearance radius "
                  "reported informationally")
    return _report("open-unreachables", observations, notes)


# ---------------------------------------------------------------------------
# small-radius reduction to gradient descent
# ---------------------------------------------------------------------------

def check_gd_limit(landscape: Landscape, theta0, eta: float = 0.1, steps: int = 50,
                   rhos: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4),
                   eps: float = 1e-2) -> CheckReport:
    """Rolling-ball trajectories collapse onto plain gradient descent as the
    radius shrinks.

    gap(rho) = max over t of |theta_rbo(t) - theta_gd(t)|, where a settled
    rolling-ball run holds still after its last record. Passes iff the gaps
    are non-increasing along the (strictly decreasing) radii and the last
    gap is below eps. A diverged rolling-ball run fails the check.
    """
    if any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])) or len(rhos) < 1:
        raise ValueError("rhos must be strictly decreasing")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    gd = run_gd(landscape, theta0, eta, steps)
    if gd.error is not None:
        raise ValueError(f"reference descent run diverged: {gd.error}")
    gd_thetas = gd.thetas()

    observations: list[Observation] = []
    keys, gaps = [], []
    for rho in rhos:
        traj = run_rbo(landscape, theta0, rho, eta, steps)
        if traj.error is not None:
            observations.append(_obs(f"rbo_diverged(rho={rho:g})", 1.0, 0.0))
            continue
        thetas = traj.thetas()
        keys.append(rho)
        gaps.append(float(np.max(np.linalg.norm(gd_thetas - np.concatenate(
            [thetas, thetas[-1:].repeat(len(gd_thetas) - len(thetas), 0)]), axis=1))))

    observations += [_obs(f"gap(rho={r:g})", g, None) for r, g in zip(keys[:-1], gaps[:-1])]
    observations += _monotone_obs("gap", gaps, keys)
    if gaps:
        observations.append(_obs(f"gap(rho={keys[-1]:g})", gaps[-1], eps))
    return _report("gd-limit", observations, f"final gap bound eps = {eps:g}")


# ---------------------------------------------------------------------------
# smoothing of multi-scale structure
# ---------------------------------------------------------------------------

def check_smoothing(n_terms: int = 100,
                    rhos: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0),
                    lo: float = 0.0, hi: float = 2.0 * math.pi,
                    theta_step: float = 1e-3,
                    h: float | None = None) -> CheckReport:
    """Growing the radius prunes local minima of the offset profile,
    smallest oscillations first.

    Counts strict local minima of the sampled offset of the n_terms-term
    oscillatory test landscape for each radius; passes iff the counts are
    non-increasing along the (strictly increasing) radii. The raw landscape's
    count on the same grid is reported for scale; f is read once per lattice point.
    """
    if any(r2 <= r1 for r1, r2 in zip(rhos, rhos[1:])) or len(rhos) < 1:
        raise ValueError("rhos must be strictly increasing")
    landscape = _lattice_view(riemann(n_terms), theta_step if h is None else h)
    counts = []
    for rho in rhos:
        samples = offset_profile(landscape, rho, lo, hi, theta_step, h=h)
        counts.append(float(count_local_minima(samples.values)))
    raw_count = count_local_minima(eval_batch(landscape, samples.thetas))

    observations = [_obs(f"minima(rho={rho:g})", c, None)
                    for rho, c in zip(rhos, counts)]
    observations += _monotone_obs("minima", counts, list(rhos))
    observations.append(_obs("minima(raw landscape)", float(raw_count), None))
    return _report("smoothing", observations,
                   f"{n_terms}-term landscape on [{lo:g}, {hi:g}], "
                   f"theta step {theta_step:g}")


# ---------------------------------------------------------------------------
# named registry for the command line
# ---------------------------------------------------------------------------

def _named(spec: Mapping[str, Any] | None,
           default: Callable[[], Landscape]) -> Landscape:
    """The catalogue landscape a config names as {"name": ..., "params": ...},
    or the check's own default."""
    return default() if spec is None else \
        make_landscape(spec["name"], spec.get("params", {}))


def _weak_ironing(landscape: Mapping[str, Any] | None = None, **kw) -> CheckReport:
    return check_weak_ironing(_named(landscape, sinusoid), **kw)


def _open_unreachables(landscape: Mapping[str, Any] | None = None, sigma: float = 4.0,
                       theta0: float = 0.0, rho: float = 0.5, **kw) -> CheckReport:
    return check_open_unreachables(_named(landscape, lambda: _parabola(sigma)),
                                   theta0, rho, **kw)


def _gd_limit(landscape: Mapping[str, Any] | None = None, sigma: float = 1.0,
              theta0: float = 1.0, **kw) -> CheckReport:
    return check_gd_limit(_named(landscape, lambda: _parabola(sigma)), theta0, **kw)


# name -> (runner, the check that receives the runner's remaining keywords)
_REGISTRY: dict[str, tuple[Callable[..., CheckReport], Callable[..., CheckReport]]] = {
    "weak-ironing": (_weak_ironing, check_weak_ironing),
    "linear-ironing": (check_linear_ironing, check_linear_ironing),
    "sharp-minima": (check_sharp_minima, check_sharp_minima),
    "open-unreachables": (_open_unreachables, check_open_unreachables),
    "gd-limit": (_gd_limit, check_gd_limit),
    "smoothing": (check_smoothing, check_smoothing),
}
# defaults a JSON value can replace; a check's other keywords are not config
_JSON_DEFAULTS = (bool, int, float, str, tuple, type(None))


def available_checks() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _stands_for(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits a keyword's annotation. A float takes an int
    too, a tuple or list a list of items that fit its item type, a union a
    value that fits one of its members, and a Mapping any JSON object."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return any(_stands_for(value, a) for a in args)
    if origin in (tuple, list):
        return isinstance(value, (list, tuple)) and \
            all(_stands_for(v, args[0]) for v in value)
    if isinstance(value, bool) or hint is bool:
        return type(value) is hint
    return isinstance(value, (int, float) if hint is float else origin or hint)


def check_overrides(name: str, overrides: Mapping[str, Any]) -> dict[str, Any]:
    """The keyword arguments `overrides` sets for a named check, with JSON
    lists turned into tuples. The keys are the keyword parameters with a
    JSON-valued default of the check and of its runner, which picks the
    check's landscape. An unknown name or key raises KeyError naming it; a
    value that does not fit its key's annotation (see _stands_for), or a
    landscape spec that builds no catalogue landscape, raises TypeError."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown check {name!r}; available: "
                       f"{', '.join(available_checks())}")
    if not isinstance(overrides, Mapping):
        raise KeyError(f"overrides of check {name!r} must be a mapping of keys")
    hints = {p.name: p.annotation for fn in _REGISTRY[name]
             for p in inspect.signature(fn, eval_str=True).parameters.values()
             if p.default is not p.empty and isinstance(p.default, _JSON_DEFAULTS)}
    unknown = sorted(set(overrides) - set(hints))
    if unknown:
        raise KeyError(f"unknown keys for check {name!r}: {unknown}; "
                       f"known: {sorted(hints)}")
    for key, value in overrides.items():
        if not _stands_for(value, hints[key]):
            raise TypeError(f"key {key!r} of check {name!r} takes "
                            f"{inspect.formatannotation(hints[key])}, got {value!r}")
    try:  # a landscape spec is valid if it builds
        _named(overrides.get("landscape"), lambda: None)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise TypeError(f"key 'landscape' of check {name!r} names no catalogue "
                        f"landscape: {overrides['landscape']!r} ({exc!r})") from None
    return {k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}


def run_check(name: str, overrides: Mapping[str, Any] | None = None) -> CheckReport:
    """Run a named check with the defaults of its signature, overridden by
    `overrides` (see check_overrides). Unknown names and keys raise KeyError,
    values of the wrong type TypeError."""
    kwargs = check_overrides(name, overrides or {})
    return _REGISTRY[name][0](**kwargs)
