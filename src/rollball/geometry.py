"""Brute-force differential geometry of graph surfaces.

Everything here is an oracle: grids, sampled spheres, and exhaustive
minimization, with explicit slack accounting instead of silent guesses.
Dimensions 1 and 2 only for the grid searches; the formulas for normals
and tangents are dimension-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy.spatial import cKDTree

from .landscape import Array, Landscape, eval_batch, value_and_grad


def normal_from_grad(g: Array) -> Array:
    """Upward unit normal of the graph from a gradient value:
    (-grad f, 1) / sqrt(1 + |grad f|^2)."""
    g = np.asarray(g, dtype=float)
    nu = np.concatenate([-g, [1.0]])
    return nu / math.sqrt(1.0 + float(g @ g))


def tangent_from_grad(g: Array) -> Array:
    """Steepest-ascent tangent lift from a gradient value: (grad f, |grad f|^2).

    Orthogonal to the normal by construction; vanishes exactly at
    stationary points.
    """
    g = np.asarray(g, dtype=float)
    return np.concatenate([g, [float(g @ g)]])


# ---------------------------------------------------------------------------
# grids and distances
# ---------------------------------------------------------------------------

def _lattice(a: float, b: float, h: float) -> Array:
    """The multiples of h in [a, b], each end widened by 1e-9 steps."""
    return np.arange(math.ceil(a / h - 1e-9), math.floor(b / h + 1e-9) + 1) * h


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned search box with uniform step, anchored at multiples of step."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimension")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty grid: need lo < hi on every axis")
        if len(self.lo) not in (1, 2):
            raise ValueError("brute-force grids support d in {1, 2} only")

    def axes(self) -> list[Array]:
        out = [_lattice(l, h, self.step) for l, h in zip(self.lo, self.hi)]
        if any(axis.size == 0 for axis in out):
            raise ValueError("empty grid: no lattice point inside the box")
        return out

    def points(self) -> Array:
        axes = self.axes()
        if len(axes) == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


def _curve_tree(points: Array) -> cKDTree:
    """KD-tree over points sampled along a curve.

    A query point here typically sits at a near-constant distance from a
    near-osculating arc of samples, so the nearest-neighbor search cannot
    prune much; with the default 16 points per leaf it walks hundreds of
    leaves per query, with 256 it walks a few and returns the same
    distances.
    """
    return cKDTree(points, leafsize=256)


def distances_to_graph(landscape: Landscape, points: Array, grid: GridSpec) -> Array:
    """Exact min distance from each ambient point to the sampled graph."""
    grid_pts = grid.points()
    gp = np.column_stack([grid_pts, eval_batch(landscape, grid_pts)])
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d, _ = _curve_tree(gp).query(pts)
    return d


def distance_to_graph(landscape: Landscape, point: Array, grid: GridSpec) -> float:
    """Min over the grid of |(theta, f(theta)) - point|.

    Accuracy is O(step * (1 + local Lipschitz)); the returned value never
    underestimates the true distance to the sampled set.
    """
    return float(distances_to_graph(landscape, np.asarray(point, dtype=float), grid)[0])


# The coarse tree of _max_nearest_distance holds every _COARSE-th cloud point.
_COARSE = 32


def _max_nearest_distance(points: Array, cloud: Array) -> float:
    """Largest distance from any of the points to its nearest cloud point.

    The same float as the exact tree's query of every point, maximized, but
    the exact tree answers only the points that can attain the maximum. A
    coarse tree over every _COARSE-th cloud point gives each point an upper
    bound: its points are a subset of the cloud, and the tree computes the
    same float for the same pair, so no coarse distance is below the exact
    one. The exact distance of the point with the largest bound is attained,
    and points whose bound falls below it cannot beat it; the 1e-12 margin
    is insurance only. At worst the coarse tree is 1/_COARSE extra work.
    """
    tree = _curve_tree(cloud)
    upper = _curve_tree(cloud[::_COARSE]).query(points)[0]
    best = tree.query(points[int(np.argmax(upper))])[0]
    live = upper * (1.0 + 1e-12) >= best
    return float(tree.query(points[live])[0].max())


def hausdorff_distance(a: Array, b: Array) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("hausdorff_distance needs non-empty point sets")
    return max(_max_nearest_distance(a, b), _max_nearest_distance(b, a))


# ---------------------------------------------------------------------------
# offset manifolds (1D)
# ---------------------------------------------------------------------------

# Pass 1 of a pruned offset search covers 1/_NARROW of the candidate window.
_NARROW = 8
# Elements of one sliding-window temporary of offset_profile (32 MB).
_WINDOW_CHUNK = 4_000_000


@dataclass(frozen=True)
class OffsetSamples:
    """Sampled upper offset phi_rho over a theta interval."""

    thetas: Array
    values: Array
    rho: float
    grid_step: float


def _offset_window(landscape: Landscape, rho: float) -> float:
    """Half-width of the candidate s-window whose lattice maximum defines phi_rho.

    For a landscape with sup |f| <= B, any s with sqrt(rho^2 - s^2) below
    rho - 2B loses to the s = 0 candidate, so the window can be cut exactly.
    offset_value and offset_profile then prune this window further from the
    values they evaluate (see _can_reach), returning the same maximum.
    """
    smax = rho * (1.0 - 1e-12)
    b = landscape.value_bound
    if b is not None and rho > 2.0 * b:
        s_eff = math.sqrt(rho * rho - (rho - 2.0 * b) ** 2)
        return min(smax, s_eff)
    return smax


def _can_reach(landscape: Landscape, circ: Array, lower: float) -> Array:
    """Mask of the window offsets whose candidates f + circ can reach `lower`.

    `lower` is a candidate value already attained at every theta of the scan,
    so it never exceeds any theta's maximum. A candidate is the float sum
    fl(f + circ) of a computed f and the scan's own circ value; rounding is
    monotone, so a computed f <= B' gives fl(f + circ) <= fl(B' + circ), and
    where that is below `lower` the candidate loses: dropping it leaves every
    maximum the same float. value_bound B bounds the exact f, and a computed
    f can overshoot it by accumulated rounding, below n * eps * B for a sum
    of n terms of size <= B; B' = B * (1 + 1e-12) covers thousands of terms.
    Comparing against the circ values the scan itself adds needs no margin
    for the rounding of the kernel sqrt(rho^2 - s^2).
    """
    return landscape.value_bound * (1.0 + 1e-12) + circ >= lower


def _circ(s: Array | float, rho: float) -> Array | float:
    """Height sqrt(rho^2 - s^2) of the ball's upper arc over the offsets s.

    s is an array, or one float for the edge searches of the pruned scans.
    Both run the same IEEE operations, so they give the same float at the
    same s; the float path costs well under a microsecond.
    """
    if isinstance(s, float):
        return math.sqrt(max(rho * rho - s * s, 0.0))
    return np.sqrt(np.maximum(rho * rho - s * s, 0.0))


def _first(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """First i in [lo, hi) with pred(i), or hi if none; pred must be false
    then true along [lo, hi). Edges of the pruned offset windows are found
    this way, one lattice point at a time with the scan's own float
    operations, instead of over arrays spanning the whole window."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _check_offset_args(landscape: Landscape, rho: float, h: float) -> None:
    if landscape.dim != 1:
        raise ValueError("offset evaluation is 1D only")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if h <= 0:
        raise ValueError("grid step must be positive")
    if h > rho / 100 * (1 + 1e-9):
        raise ValueError(f"grid step {h} too coarse: need h <= rho/100 = {rho/100}")


def offset_value(landscape: Landscape, rho: float, theta: float, h: float) -> float:
    """Upper offset phi_rho(theta) = max over the s-grid of f(theta+s) + sqrt(rho^2 - s^2).

    The s-grid is the ambient lattice of multiples of h intersected with
    the candidate window, plus theta itself, with |s| clamped to
    rho * (1 - 1e-12). Anchoring the grid in ambient coordinates keeps the
    sampled peaks of f at theta-independent phases, which is what makes
    sampled offsets of nearby thetas comparable.

    With a value_bound the search runs in two passes: theta and the
    lattice within 1/8 of the window give an attained value L, and f is
    then evaluated only where B + sqrt(rho^2 - s^2) can still reach L.
    The excluded candidates provably lose, so the result is the same float
    as the maximum over the whole window.
    """
    _check_offset_args(landscape, rho, h)
    theta = float(theta)
    smax = rho * (1.0 - 1e-12)
    w = _offset_window(landscape, rho)
    j0 = math.ceil((theta - w) / h - 1e-9)
    j1 = math.floor((theta + w) / h + 1e-9)

    def lattice(idx: Array) -> Array:  # the lattice points j0 + idx
        return (j0 + idx) * h

    def candidates(tp: Array) -> float:
        circ = _circ(np.clip(tp - theta, -smax, smax), rho)
        return float(np.max(eval_batch(landscape, tp) + circ))

    def s_at(i: int) -> float:  # the offset candidates() computes for j0 + i
        return min(max((j0 + i) * h - theta, -smax), smax)

    n = j1 - j0 + 1
    if landscape.value_bound is None:
        return candidates(np.append(lattice(np.arange(n)), theta))

    # pass 1: the lattice band within w / _NARROW of theta, and theta itself
    a1 = _first(lambda i: s_at(i) >= -w / _NARROW, 0, n)
    b1 = _first(lambda i: s_at(i) > w / _NARROW, a1, n)
    best = candidates(np.append(lattice(np.arange(a1, b1)), theta))

    # pass 2: the rest of the window where a candidate can still reach best;
    # circ rises along [0, a1) and falls along [b1, n), so that is two runs
    def reach(i: int) -> bool:
        return _can_reach(landscape, _circ(s_at(i), rho), best)

    left = _first(reach, 0, a1)
    right = _first(lambda i: not reach(i), b1, n)
    if left < a1 or right > b1:
        best = max(best, candidates(lattice(np.r_[left:a1, b1:right])))
    return best


def offset_profile(landscape: Landscape, rho: float, lo: float, hi: float,
                   theta_step: float, h: float | None = None) -> OffsetSamples:
    """Sampled offset over [lo, hi] with theta spacing theta_step.

    When theta_step is an integer multiple of h the lattice is shared and
    the scan runs as a strided sliding-window maximum; otherwise each theta
    falls back to offset_value semantics. Both paths compute the same set
    maximum.

    With a value_bound the shared scan prunes the candidate window in two
    passes: a band of 1/8 of the window gives L, the smallest of the band
    maxima, which is attained at every theta; the band then widens only to
    the |s| where B + sqrt(rho^2 - s^2) can still reach L, evaluating just
    the new lattice points. Every excluded candidate loses to L, so each
    value is the same float as the maximum over the whole window.
    """
    if h is None:
        h = min(rho / 100.0, theta_step)
    _check_offset_args(landscape, rho, h)
    if hi <= lo:
        raise ValueError("need lo < hi")
    n_t = int(round((hi - lo) / theta_step))
    ratio = theta_step / h
    aligned = abs(ratio - round(ratio)) < 1e-9
    lo_aligned = abs(lo / theta_step - round(lo / theta_step)) < 1e-9

    if aligned and lo_aligned:
        k = int(round(ratio))
        i0 = int(round(lo / theta_step))
        thetas = (np.arange(i0, i0 + n_t + 1) * theta_step)
        smax = rho * (1.0 - 1e-12)
        nw = int(math.floor(_offset_window(landscape, rho) / h + 1e-9))
        first, last = i0 * k, (i0 + n_t) * k

        def circ(j: Array | int) -> Array | float:  # the arc over offsets j * h
            return _circ(np.clip(j * h, -smax, smax), rho)

        def scan(fv: Array, n: int) -> Array:
            # out[i] = max over |j| <= n of fv[i*k + n + j] + circ(j), in
            # chunks that keep each temporary below _WINDOW_CHUNK elements
            c = circ(np.arange(-n, n + 1))
            sw = np.lib.stride_tricks.sliding_window_view(fv, c.size)[::k]
            out = np.empty(n_t + 1)
            chunk = max(1, _WINDOW_CHUNK // c.size)
            for a in range(0, n_t + 1, chunk):
                out[a:a + chunk] = np.max(sw[a:a + chunk] + c, axis=1)
            return out

        n = nw if landscape.value_bound is None else nw // _NARROW
        fv = eval_batch(landscape, np.arange(first - n, last + n + 1) * h)
        out = scan(fv, n)
        if n < nw:
            # circ(j) never increases along j = 0, 1, ..., nw, so the offsets
            # that can still reach the attained minimum are one run from 0
            lower = float(out.min())
            n2 = _first(lambda j: not _can_reach(landscape, circ(j), lower),
                        n + 1, nw + 1) - 1
            if n2 > n:
                fv = np.concatenate([
                    eval_batch(landscape, np.arange(first - n2, first - n) * h), fv,
                    eval_batch(landscape, np.arange(last + n + 1, last + n2 + 1) * h)])
                out = scan(fv, n2)
        return OffsetSamples(thetas=thetas, values=out, rho=rho, grid_step=h)

    thetas = lo + np.arange(n_t + 1) * theta_step
    out = np.array([offset_value(landscape, rho, float(t), h) for t in thetas])
    return OffsetSamples(thetas=thetas, values=out, rho=rho, grid_step=h)


def count_local_minima(values: Array) -> int:
    """Strict interior local minima; a plateau flanked by higher values counts once."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1D")
    if v.size < 3:
        return 0
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    runs = v[keep]
    if runs.size < 3:
        return 0
    return int(np.sum((runs[1:-1] < runs[:-2]) & (runs[1:-1] < runs[2:])))


# ---------------------------------------------------------------------------
# unreachability (1D)
# ---------------------------------------------------------------------------

Verdict = Literal["unreachable", "reachable", "indeterminate"]


@dataclass(frozen=True)
class UnreachabilityReport:
    """Outcome of the sampled sphere-containment test at one point.

    clearance = rho - max distance from any admissible sphere sample to the
    sampled graph. Positive clearance beyond the grid slack certifies that
    no ball of radius rho can touch the point from above; clearance at or
    below slack/2 certifies a tangent ball exists; in between the grid
    cannot tell, which is reported rather than guessed.
    """

    theta: float
    rho: float
    verdict: Verdict
    clearance: float
    slack: float
    grid_step: float
    n_sphere: int

    @property
    def is_unreachable(self) -> bool:
        return self.verdict == "unreachable"


def is_unreachable(landscape: Landscape, theta: float, rho: float,
                   grid_step: float = 1e-4) -> UnreachabilityReport:
    """Sphere-containment test for rho-unreachability of (theta, f(theta)).

    Samples the sphere of radius rho around the graph point, keeps the
    samples lying in the closed epigraph (ball centers roll above the
    graph; the sub-graph half of the sphere trivially touches Gamma at the
    base point itself), and measures their brute-force distance to the
    sampled graph. Unreachable iff every admissible sample sits strictly
    deeper than the grid slack 2 * grid_step * (1 + local Lipschitz).
    """
    if landscape.dim != 1:
        raise ValueError("unreachability test is 1D only")
    if rho <= 0:
        raise ValueError("rho must be positive")
    h = grid_step
    theta = float(np.asarray(theta, dtype=float).reshape(()))
    y0 = landscape.forward(np.array([theta]))[0]

    # graph box wide enough to contain the true nearest point of any sphere sample
    half = 2.0 * rho + 10.0 * h
    tg = _lattice(theta - half, theta + half, h)
    fg = eval_batch(landscape, tg)
    lip = float(np.max(np.abs(np.diff(fg)))) / h if tg.size > 1 else 0.0
    slack = 2.0 * h * (1.0 + lip)

    # fine enough that a genuine tangent direction is missed by < slack/2
    n_sphere = max(4096, 4 * math.ceil(2.0 * math.pi * rho / slack / 4.0))
    ang = np.arange(n_sphere) * (2.0 * math.pi / n_sphere)
    sx = theta + rho * np.cos(ang)
    sy = y0 + rho * np.sin(ang)
    keep = sy >= eval_batch(landscape, sx)  # closed epigraph only
    samples = np.column_stack([sx[keep], sy[keep]])

    clearance = rho - _max_nearest_distance(samples, np.column_stack([tg, fg]))
    if clearance > slack:
        verdict: Verdict = "unreachable"
    elif clearance <= slack / 2.0:
        verdict = "reachable"
    else:
        verdict = "indeterminate"
    return UnreachabilityReport(theta=theta, rho=rho, verdict=verdict,
                                clearance=clearance, slack=slack,
                                grid_step=h, n_sphere=n_sphere)


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------

def sharpness(landscape: Landscape, theta: Array,
              max_iters: int = 200, tol: float = 1e-6) -> float:
    """Spectral norm of the Hessian at theta.

    Exact via the Hessian oracle when the landscape has one; otherwise
    power iteration on central-difference Hessian-vector products. Raises
    if the iteration has not stabilized after max_iters rounds.
    """
    theta = np.asarray(theta, dtype=float)
    if landscape.hessian is not None:
        hess = np.asarray(landscape.hessian(theta), dtype=float)
        return float(np.linalg.norm(hess, 2))

    d = theta.size
    eps = 1e-5 * (1.0 + float(np.max(np.abs(theta))))

    def hvp(v: Array) -> Array:
        return (value_and_grad(landscape, theta + eps * v)[1] -
                value_and_grad(landscape, theta - eps * v)[1]) / (2.0 * eps)

    v = np.ones(d) / math.sqrt(d)
    lam = 0.0
    for _ in range(max_iters):
        w = hvp(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return abs(lam_new)
        lam = lam_new
    raise RuntimeError(f"power iteration did not stabilize after {max_iters} iterations")
