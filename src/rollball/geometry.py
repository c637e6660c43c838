"""Brute-force differential geometry of graph surfaces, in numpy alone.

Everything here is an oracle: grids, sampled spheres, exhaustive
minimization and exact nearest distances (no KD-tree), with explicit slack
accounting instead of silent guesses. Dimensions 1 and 2 only for the grid
searches; the formulas for normals and tangents are dimension-free.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .landscape import Array, Landscape, eval_batch, value_and_grad


def normal_from_grad(g: Array) -> Array:
    """Upward unit normal of the graph from a gradient value:
    (-grad f, 1) / sqrt(1 + |grad f|^2), by _norm if that overflows."""
    g = np.asarray(g, dtype=float)
    nu = np.concatenate([-g, [1.0]])
    norm = math.sqrt(1.0 + float(g @ g))
    return nu / (norm if math.isfinite(norm) else _norm(nu))


def _norm(v: Array) -> float:
    """|v| as np.linalg.norm gives it, or over v's largest entry if only v @ v overflows."""
    norm = math.sqrt(float(v @ v))
    if math.isinf(norm) and np.isfinite(v).all():
        top = float(np.abs(v).max())
        norm = top * math.sqrt(float((v / top) @ (v / top)))
    return norm


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


def _grid_slack(fv: Array, h: float) -> float:
    """The slack 2 h (1 + max |diff(fv)| / h) of a graph sampled h apart as fv."""
    lip = float(np.max(np.abs(np.diff(fv)))) / h if fv.size > 1 else 0.0
    return 2.0 * h * (1.0 + lip)


def _check_args(positive: dict[str, float], finite: dict[str, float]) -> None:
    """A ValueError naming the first value that is not finite, or not above 0
    where it is one of the positive ones."""
    for name, x in [*positive.items(), *finite.items()]:
        if not math.isfinite(x) or (x <= 0 and name in positive):
            kind = "positive and finite" if name in positive else "finite"
            raise ValueError(f"{name} must be {kind}, got {x!r}")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned search box with uniform step, anchored at multiples of step."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    step: float

    def __post_init__(self):
        _check_args({"grid step": self.step},
                    {f"{name}[{i}]": x for name, xs in (("lo", self.lo), ("hi", self.hi))
                     for i, x in enumerate(xs)})
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
        yy[1::2] = yy[1::2, ::-1]  # a block of _STRIDE spanning two columns stays short
        return np.column_stack([xx.ravel(), yy.ravel()])


# _nearest_sq bounds by every _STRIDE-th sorted point and boxes, _PAIR_CHUNK pairs at a time.
_STRIDE = 16
_PAIR_CHUNK = 1 << 14


def _columns(points: Array, cloud: Array) -> tuple[Array, Array]:
    """Points and cloud as coordinate rows, the cloud sorted by its first coordinate."""
    points, cloud = np.atleast_2d(points), np.atleast_2d(cloud)
    if points.ndim != 2 or cloud.ndim != 2 or points.shape[1] != cloud.shape[1]:
        raise ValueError(f"points {points.shape} do not match cloud {cloud.shape}")
    if not (np.isfinite(points).all() and np.isfinite(cloud).all()):
        raise ValueError("points and cloud must be finite")
    if (cloud[1:, 0] < cloud[:-1, 0]).any():
        cloud = cloud[np.argsort(cloud[:, 0], kind="stable")]
    return np.ascontiguousarray(points.T), np.ascontiguousarray(cloud.T)


def _pair_sq(p: Array, c: Array) -> Array:
    """Squared distances of p's to c's columns, broadcast, summed in coordinate order."""
    out = (c[0] - p[0]) ** 2
    for m in range(1, len(p)):
        d = c[m] - p[m]
        out += np.square(d, out=d)  # in place: one new array per coordinate, not three
    return out


def _nearest_sq(p: Array, c: Array, upper: Array | None = None) -> Array:
    """Each point's squared distance to its nearest cloud point (p and c from
    _columns), summed in coordinate order: its root is cKDTree's float.

    A small pass without upper bounds measures every pair, a larger one bounds
    by every _STRIDE-th point. No distance is below its first coordinates' gap
    (1e-12 covers rounding) or its block's box gap summed in coordinate order
    (rounding is monotone), so blocks with either gap beyond the bound are skipped.
    """
    n = c.shape[1]
    if upper is None and (p.shape[1] * n <= _STRIDE * _PAIR_CHUNK or n <= _STRIDE):
        rows = max(1, _PAIR_CHUNK // n)
        return np.concatenate([_pair_sq(p[:, a:a + rows, None], c[:, None]).min(axis=1)
                               for a in range(0, p.shape[1], rows)])
    upper = _nearest_sq(p, c[:, ::_STRIDE].copy()) if upper is None else upper
    reach = np.sqrt(upper) * (1.0 + 1e-12) + 1e-12 * np.abs(p[0])
    lo = np.searchsorted(c[0], p[0] - reach) // _STRIDE
    count = (np.searchsorted(c[0], p[0] + reach, "right") - 1) // _STRIDE + 1 - lo
    first, total = np.cumsum(count) - count, int(count.sum())  # each point's first block
    starts = np.arange(0, n, _STRIDE)  # boxes pay off where the pass meets blocks repeatedly
    boxes = ((np.minimum.reduceat(c, starts, 1), np.maximum.reduceat(c, starts, 1))
             if total > len(starts) else None)
    out = np.full(p.shape[1], np.inf)
    for a in range(0, total, _PAIR_CHUNK):
        b = min(a + _PAIR_CHUNK, total)
        i, j = np.searchsorted(first, a, "right") - 1, np.searchsorted(first, b)
        own = np.repeat(np.arange(i, j), np.diff(np.maximum(first[i:j] - a, 0), append=b - a))
        box = np.arange(a, b) + (lo - first)[own]
        if boxes is not None:
            q = p.take(own, 1)
            gap = np.maximum(np.maximum(boxes[0].take(box, 1) - q, q - boxes[1].take(box, 1)), 0)
            near = sum(gap ** 2) <= upper[own]
            own, box = own[near], box[near]
        for s in range(0, own.size, _PAIR_CHUNK // _STRIDE):
            k = np.minimum(box[s:s + _PAIR_CHUNK // _STRIDE] * _STRIDE
                           + np.arange(_STRIDE)[:, None], n - 1)
            o = own[s:s + _PAIR_CHUNK // _STRIDE]
            np.minimum.at(out, o, _pair_sq(p.take(o, 1), c.take(k, 1)).min(axis=0))
    return out


def distances_to_graph(landscape: Landscape, points: Array, grid: GridSpec) -> Array:
    """Exact min distance from each ambient point to the sampled graph."""
    grid_pts = grid.points()
    gp = np.column_stack([grid_pts, eval_batch(landscape, grid_pts)])
    return np.sqrt(_nearest_sq(*_columns(np.asarray(points, dtype=float), gp)))


def distance_to_graph(landscape: Landscape, point: Array, grid: GridSpec) -> float:
    """Min over the grid of |(theta, f(theta)) - point|.

    Accuracy is O(step * (1 + local Lipschitz)); the returned value never
    underestimates the true distance to the sampled set.
    """
    return float(distances_to_graph(landscape, np.asarray(point, dtype=float), grid)[0])


def _max_nearest_distance(points: Array, cloud: Array) -> float:
    """Largest distance from any of the points to its nearest cloud point.

    The same float as _nearest_sq over every point, maximized, but only the
    points that can attain the maximum meet the whole cloud, each once. Every
    s-th sorted cloud point (s = _STRIDE ** 2, then _STRIDE) bounds the live
    points' distances from above by the same float formula, within the last
    bounds. The largest bound's point is measured and leaves the live set, as
    do points bounded below the largest distance found (1e-12 margin: insurance).
    """
    p, c = _columns(points, cloud)
    best, upper = 0.0, None
    for s in (_STRIDE ** 2, _STRIDE):
        upper = _nearest_sq(p, c[:, ::s].copy(), upper)
        top = [int(np.argmax(upper))]
        best = max(best, _nearest_sq(p[:, top], c, upper[top])[0])
        live = upper * (1.0 + 1e-12) >= best
        live[top] = False  # measured: best holds its exact distance
        p, upper = p[:, live], upper[live]
        if upper.size <= _STRIDE:  # few enough to meet the whole cloud at once
            break
    return float(np.sqrt(max(best, _nearest_sq(p, c, upper).max()) if upper.size else best))


def hausdorff_distance(a: Array, b: Array) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    a, b = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (a, b))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("hausdorff_distance needs non-empty point sets")
    return max(_max_nearest_distance(a, b), _max_nearest_distance(b, a))


# ---------------------------------------------------------------------------
# offset manifolds (1D)
# ---------------------------------------------------------------------------

# Pass 1 of a pruned offset search covers 1/_NARROW of the candidate window.
_NARROW = 8
# Candidates per chunk of the offset scan: each scan reuses one buffer of at most
# 4 MB across its chunks (three of 1 MB, a quarter chunk each, where rows gather
# their lattice points), or of one row if wider.
_WINDOW_CHUNK = 1 << 19
# A shared-arc or one-row scan fills a gapped lattice back with -inf and reads
# it strided where it spans at most _DENSE_SPAN times its points.
_DENSE_SPAN = 6
# The slope-bound prune reads f at every _SLOPE_BLOCK-th lattice point first, on ranges
# of at least _SLOPE_MIN points: fewer do not pay for its second f_batch call.
_SLOPE_BLOCK = 32
_SLOPE_MIN = 4096
# One block of the monotone offset scan costs about as much numpy overhead
# as adding and maximizing this many candidates.
_BLOCK_COST = 8000
# _Lattice reads f in blocks of _CACHE_BLOCK lattice points, at most _CACHE_BLOCKS held.
_CACHE_BLOCK = 2048
_CACHE_BLOCKS = 16


@dataclass(frozen=True)
class OffsetSamples:
    """Sampled upper offset phi_rho over a theta interval.

    contacts[i] is the theta of the candidate that attains values[i]: the
    lattice point of the leftmost maximizer, or thetas[i] itself when its
    own s = 0 candidate wins. The ball of radius rho centred at
    (thetas[i], values[i]) touches the sampled graph there.
    """

    thetas: Array
    values: Array
    contacts: Array
    rho: float
    grid_step: float


def _offset_window(landscape: Landscape, rho: float) -> float:
    """Half-width of the candidate s-window whose lattice maximum defines phi_rho.

    For a landscape with sup |f| <= B, any s with sqrt(rho^2 - s^2) below
    rho - 2B loses to the s = 0 candidate, so the window can be cut exactly.
    _offset_scan then prunes this window further from the values it
    evaluates (see _can_reach), returning the same maximum.
    """
    smax = rho * (1.0 - 1e-12)
    b = landscape.value_bound
    if b is not None and rho > 2.0 * b:
        s_eff = math.sqrt(rho * rho - (rho - 2.0 * b) ** 2)
        return min(smax, s_eff)
    return smax


def _can_reach(landscape: Landscape, circ: float, lower: float) -> bool:
    """Whether a candidate f + circ of the offset scan can reach `lower`, a
    candidate value attained in every row and so below no row's maximum.

    A candidate is the float sum fl(f + circ) of a computed f and the scan's
    own circ value; rounding is monotone, so a computed f <= B' gives
    fl(f + circ) <= fl(B' + circ), and where that is below `lower` the
    candidate loses: dropping it leaves every maximum the same float.
    value_bound B bounds the exact f, and a computed f can overshoot it by
    accumulated rounding, below n * eps * B for a sum of n terms of size <=
    B; B' = B * (1 + 1e-12) covers thousands of terms. Comparing against the
    scan's own circ values needs no margin for the rounding of the arc.
    """
    return landscape.value_bound * (1.0 + 1e-12) + circ >= lower


def _bounded_batch(landscape: Landscape, thetas: Array) -> Array:
    """eval_batch, checked by reductions against value_bound with _can_reach's
    margin: the pruned scan is exact only within it, and a NaN makes its cut NaN."""
    fv, b = eval_batch(landscape, thetas), landscape.value_bound
    if b is not None and not -b * (1.0 + 1e-12) <= fv.min() <= fv.max() <= b * (1.0 + 1e-12):
        raise ValueError(f"landscape {landscape.name!r} breaks its value_bound {b!r}")
    return fv


def _lattice_view(landscape: Landscape, h: float) -> Landscape:
    """landscape whose f_batch reads f once per lattice point j h (theta == j * h), other
    thetas as they come: exact where f_batch values ignore their batch (riemann, see Landscape)."""
    keys, vals = np.array([np.iinfo(np.int64).max]), np.array([np.nan])  # a NaN's bits: no j h

    def f_batch(thetas: Array) -> Array:
        nonlocal keys, vals
        t = np.asarray(thetas, dtype=float).reshape(-1)
        on = np.rint(t / h) * h == t
        k = t[on].view(np.int64)
        miss = keys[np.searchsorted(keys, k)] != k
        new, first = np.unique(k[miss], return_index=True)  # sorts: faster than hashing
        as_asked = new.size == k.size  # no hit, no duplicate: f read as asked, without copies
        fv = eval_batch(landscape, thetas if as_asked else np.r_[new.view(float), t[~on]])
        at = np.searchsorted(keys, new)
        keys, vals = np.insert(keys, at, new), np.insert(
            vals, at, fv[on][first] if as_asked else fv[:new.size])
        if as_asked:
            return fv
        out = np.empty(t.size)
        out[on], out[~on] = vals[np.searchsorted(keys, k)], fv[new.size:]
        return out

    return replace(landscape, f_batch=f_batch)


def _circ(s: Array | float, rho: float, out: Array | None = None) -> Array | float:
    """Height sqrt(rho^2 - s^2) of the ball's upper arc over the offsets s,
    with |s| clamped to rho * (1 - 1e-12), written into out if given.

    s is an array, or one float for the edge searches of the pruned scan.
    Both run the same IEEE operations, so they give the same float at the
    same s; the float path takes under a microsecond, np.clip alone several.
    """
    smax = rho * (1.0 - 1e-12)
    if isinstance(s, float):
        s = min(max(s, -smax), smax)
        return math.sqrt(max(rho * rho - s * s, 0.0))
    s = np.clip(s, -smax, smax, out=out)  # the one new array: the rest works in place
    np.multiply(s, s, out=s)
    np.subtract(rho * rho, s, out=s)
    return np.sqrt(np.maximum(s, 0.0, out=s), out=s)


class _Lattice:
    """phi_rho's lattice part at the nearby centers of one roll, from f held over
    one range of lattice indices that grows by whole blocks, one _bounded_batch
    call each; a window a block beyond it, or a range past _CACHE_BLOCKS blocks,
    re-centres it on the window."""

    def __init__(self, landscape: Landscape, rho: float, h: float):
        self.landscape, self.rho, self.h = landscape, rho, h
        self.w = _offset_window(landscape, rho)
        if 2.0 * self.w < h:
            raise ValueError(f"rho {rho!r} too large: its window misses multiples of h = {h!r}")
        self.first, self.f, self.finite = 0, np.empty(0), True  # f at first, first + 1, ...

    def phi(self, x: float) -> tuple[float, float, float]:
        """(phi, t, f(t)): the max of f(j h) + _circ(j h - x, rho) over x's window
        (_offset_values' floats) at its leftmost maximizer t = j h; NaNs if f
        is not finite in the window."""
        h, n, first, end = self.h, _CACHE_BLOCK, self.first, self.first + self.f.size
        lo, hi = math.ceil((x - self.w) / h - 1e-9), math.floor((x + self.w) / h + 1e-9)
        if not first <= lo <= hi < end:
            a, b = min(first, lo // n * n), max(end, (hi // n + 1) * n)
            if self.f.size and first - n <= a and b <= end + n and b - a <= _CACHE_BLOCKS * n:
                fv = _bounded_batch(self.landscape, np.r_[a:first, end:b] * h)
                self.f = np.concatenate([fv[:first - a], self.f, fv[first - a:]])
            else:
                a = lo // n * n
                self.f = _bounded_batch(self.landscape, np.arange(a, (hi // n + 1) * n) * h)
            self.first, self.finite = a, bool(np.isfinite(self.f).all())
        f = self.f[lo - self.first:hi + 1 - self.first]
        if not (self.finite or np.isfinite(f).all()):
            return math.nan, math.nan, math.nan
        c = f + _circ(np.arange(lo, hi + 1) * h - x, self.rho)
        k = int(c.argmax())
        return float(c[k]), (lo + k) * h, float(f[k])


def _pivot_stride(rows: int, w: int, k: float) -> int:
    """Rows from one pivot to the next in the monotone scan of _offset_scan,
    over `rows` rows starting k columns apart on average, each at most w
    wide; 1, the plain scan, where blocking would not pay.

    Pivots cost about rows / b * (w + _BLOCK_COST) candidate-equivalents,
    the rows between them about b * (rows * k + w); b balances the two.
    """
    b = math.isqrt(int(rows * (w + _BLOCK_COST) // (rows * k + w)))
    if b < 2 or rows * (w + _BLOCK_COST) // b + b * (rows * k + w) >= rows * w:
        return 1
    return b


def _offset_scan(landscape: Landscape, h: float, rho: float, anchors: Array, lo: Array,
                 hi: Array, thetas: Array | None = None,
                 own: Array = np.empty(0)) -> tuple[Array, Array, Array]:
    """Per row i, the maximum of f(j h) + circ_i(j) over the lattice indices
    lo[i] <= j <= hi[i] and its leftmost maximizer j; also f at `own`, from
    the first eval_batch. anchors, lo and hi never decrease, lo <= anchors <=
    hi. Given thetas, circ_i(j) = _circ(j h - thetas[i], rho); without them
    every row shares circ_i(j) = _circ((j - anchors[i]) h, rho) over evenly
    spaced anchors and equal windows. A pass holds the points it reads as
    increasing lattice indices J (floats, exact below 2^53) and values F, and
    rows find their columns by searchsorted. A shared arc or one row reads F
    strided where J spans at most _DENSE_SPAN times its points, gaps filled
    with -inf; other rows gather F and their arcs, the same floats, from J.

    Every arc is one concave arc shifted right, so the candidates form an
    inverse Monge matrix: the leftmost maximizer never moves left down the
    rows (the fact behind SMAWK). Every b-th row (b from _pivot_stride) and
    the last are pivots, maximized over their whole window; the rows between
    two pivots only between the pivots' maximizers. NaN and +-inf keep the
    order; that rounding keeps it at near-ties is tested, not proven. Each
    scan writes its chunks of candidates (see _WINDOW_CHUNK) with out= into
    one buffer, grown only for a larger chunk: each candidate is the same float.

    f is read once per lattice point of the windows' union; but with a
    value_bound, where the widest half-window n exceeds the anchors' span, in
    two passes: the band |j - anchors[i]| <= n // _NARROW gives L, the least
    band maximum. The first row's window then widens left and the last row's
    right only while a candidate can reach L (see _can_reach), the others by
    as much (shared arc) or to the same j: the maxima are the same floats as
    over the whole windows.

    A slope_bound S prunes each pass (Piyavskii-Shubert): f is read at every
    _SLOPE_BLOCK-th j of its ranges and their ends first, then between two such
    knots only where the tent min(B', (f_a + f_b + S (x_b - x_a)) / 2) plus the
    largest arc over the rows' span reaches the least row maximum over the knots
    (pass 1) or L (pass 2). Skipping the others leaves the maxima the same
    floats. Values above their tent, or knots steeper than S, raise.
    """
    rows, shared = anchors.size, thetas is None

    def arc(i: int, j: int) -> float:  # circ_i(j), for the edge searches
        return _circ((j - int(anchors[i])) * h if shared else j * h - float(thetas[i]), rho)

    def scan(J: Array, F: Array, start: Array, end: Array) -> tuple[Array, Array]:
        # row i over the increasing lattice indices start[i] <= J[k] <= end[i], f(J[k] h) at F[k]
        j0, span = int(J[0]), int(J[-1] - J[0]) + 1
        dense = (shared or rows == 1) and span <= _DENSE_SPAN * J.size
        if dense and span > J.size:  # the gaps filled back with -inf
            fill, F = F, np.full(span, -np.inf)
            F[(J - j0).astype(np.intp)] = fill
        k0, k1 = ((start - j0, end + 1 - j0) if dense  # row i's columns k0[i] <= k < k1[i]
                  else (np.searchsorted(J, start), np.searchsorted(J, end, "right")))
        w = int((k1 - k0).max())
        if dense:  # rows k0[1] apart in F, the arc of row 0 for all
            sw = np.ndarray((rows, w), buffer=np.ascontiguousarray(F),
                            strides=(8 * int(k0[-1] // max(rows - 1, 1)), 8))
            c = _circ((start[0] - anchors[0] + np.arange(w)) * h if shared  # no index array kept
                      else (start[0] + np.arange(w)) * h - thetas[0], rho)
        best, arg = np.empty(rows), np.empty(rows, dtype=np.intp)
        bufs = [np.empty(0, k) for k in (float, float, np.intp)[:1 if dense else 3]]
        cap = _WINDOW_CHUNK if dense else _WINDOW_CHUNK // 4

        def block(rs: range, lo: int, hi: int) -> None:
            # rows rs over columns lo..hi-1, in chunks of at most cap candidates
            # (or one row), each written into a prefix of the scan's candidate buffers
            n = max(1, cap // (hi - lo))
            for i in range(0, len(rs), n):
                part = slice(rs[i], rs[min(i + n, len(rs)) - 1] + 1, rs.step)
                m = min(n, len(rs) - i)
                if bufs[0].size < m * (hi - lo):  # sized by the chunks used, never the cap
                    bufs[:] = [np.empty(m * (hi - lo), b.dtype) for b in bufs]
                t, *arcs = (b[:m * (hi - lo)].reshape(m, hi - lo) for b in bufs)
                if dense:
                    np.add(sw[part, lo:hi], c[lo:hi], out=t)
                else:  # past its end a row repeats its last candidate: no maximizer moves
                    s, k = arcs
                    np.minimum(np.add(k0[part, None], np.arange(lo, hi), out=k),
                               k1[part, None] - 1, out=k)
                    np.take(J, k, out=s, mode="clip")  # exact integers: the dense path's arcs
                    _circ(np.multiply(np.subtract(s, anchors[part, None], out=s), h, out=s)
                          if shared else np.subtract(np.multiply(s, h, out=s),
                                                     thetas[part, None], out=s), rho, out=s)
                    np.add(np.take(F, k, out=t, mode="clip"), s, out=t)
                a = t.argmax(axis=1)
                best[part], arg[part] = t[np.arange(a.size), a], a + lo

        b = _pivot_stride(rows, w, (k0[-1] - k0[0]) / max(rows - 1, 1))
        pivots = [*range(0, rows - 1, b), rows - 1]
        block(range(0, rows - 1, b), 0, w)
        block(range(rows - 1, rows), 0, w)
        for p, q in zip(pivots, pivots[1:]):
            if q > p + 1:  # the pivots' maximizers bound the rows between
                lo, hi = sorted((k0[p] + arg[p], k0[q] + arg[q]))
                block(range(p + 1, q), max(0, lo - k0[q - 1]), min(w, hi - k0[p + 1] + 1))
        return best, start + arg if dense else J[k0 + arg]

    def lattice(runs: list, lower: float | None, extra: Array) -> tuple[Array, Array, Array]:
        # f over the runs a <= j <= b and at extra, pruned by the slope bound against
        # lower (None: the least row maximum over the knots): the increasing lattice
        # indices read, as floats, their values, and f at extra
        runs = [(a, b) for a, b in runs if a <= b]
        *first, size = np.cumsum([0] + [b + 1 - a for a, b in runs])  # run starts
        if slope is None or size < _SLOPE_MIN or slope * _SLOPE_BLOCK * h >= 4.0 * bound:
            J = np.concatenate([np.arange(a, b + 1.0) for a, b in runs])
            fv = _bounded_batch(landscape, np.concatenate([J * h, extra]))
            return J, fv[:size], fv[size:].copy()
        step = [np.append(np.arange(0, b - a, _SLOPE_BLOCK), b - a) for a, b in runs]
        knots = np.concatenate([o + m for o, m in zip(first, step)])  # positions in the runs
        kj = np.concatenate([a + m for (a, _), m in zip(runs, step)]).astype(float)
        fk = _bounded_batch(landscape, np.concatenate([kj * h, extra]))
        fk, own, dx = fk[:knots.size], fk[knots.size:].copy(), np.diff(kj * h)
        u = np.minimum((fk[:-1] + fk[1:]) / 2 + slope * dx / 2 + 1e-12 * bound,
                       bound * (1.0 + 1e-12))  # the tent over each block
        xk = kj if shared else kj * h  # each block's least |s| over the rows' span
        s = np.maximum(np.maximum(centre[0] - xk[1:], xk[:-1] - centre[-1]) * unit, 0.0)
        live = u + _circ(s, rho) >= (float(scan(kj, fk, start, end)[0].min())
                                     if lower is None else lower)
        gaps = np.where(live, np.diff(knots) - 1, 0)  # 0 between two runs
        new = np.arange(gaps.sum()) + np.repeat(kj[:-1] + 1 - np.cumsum(gaps) + gaps, gaps)
        fn = _bounded_batch(landscape, new * h) if new.size else new
        if not ((np.abs(np.diff(fk)) <= slope * dx + 1e-12 * bound).all()
                and (fn <= np.repeat(u, gaps)).all()):
            raise ValueError(f"landscape {landscape.name!r} breaks its slope_bound {slope!r}")
        at = np.repeat(np.arange(1, kj.size), gaps)  # each new point before its block's end
        return np.insert(kj, at, new), np.insert(fk, at, fn), own

    slope, bound = landscape.slope_bound, landscape.value_bound
    centre, unit = (anchors, h) if shared else (thetas, 1.0)  # arcs circ((x - centre) unit)
    n = int(max((anchors - lo).max(), (hi - anchors).max()))
    cut = bound is not None and n > anchors[-1] - anchors[0]
    if cut:  # pass 1 reads one contiguous range
        start, end = np.maximum(lo, anchors - n // _NARROW), np.minimum(hi, anchors + n // _NARROW)
        J, F, own = lattice([(int(start[0]), int(end[-1]))], None, own)
    else:  # the union of the windows, each lattice point once
        new = np.maximum(lo, np.concatenate([lo[:1], hi[:-1] + 1]))  # row i's first new j
        count = np.maximum(hi - new + 1, 0)
        J = np.arange(count.sum(), dtype=float) + np.repeat(new - (np.cumsum(count) - count), count)
        start, end = lo, hi
        F = _bounded_batch(landscape, np.concatenate([J * h, own]))
        F, own = F[:J.size], F[J.size:].copy()  # the copy lets pass 1's array go
    best, index = scan(J, F, start, end)
    lower = float(best.min())
    # the cut's edges (none without it), one lattice point at a time, the scan's own floats
    l2 = int(lo[0]) + bisect_left(range(lo[0], start[0]), True, key=lambda j: _can_reach(
        landscape, arc(0, j), lower))
    r2 = int(end[-1]) + bisect_left(range(end[-1] + 1, hi[-1] + 1), True, key=lambda j: not
                                    _can_reach(landscape, arc(rows - 1, j), lower))
    if (l2, r2) == (start[0], end[-1]):
        return best, index, own
    JE, FE, _ = lattice([(l2, int(start[0]) - 1), (int(end[-1]) + 1, r2)], lower, np.empty(0))
    m = np.searchsorted(JE, J[0])  # the left extension's size
    J, F = (np.concatenate([e[:m], x, e[m:]]) for e, x in ((JE, J), (FE, F)))
    del JE, FE, best, index  # no pass-1 array stays alive through the scan's peak
    d = anchors - anchors[0] if shared else 0 * anchors
    start, end = np.maximum(lo, l2 + d), np.minimum(hi, r2 + d - d[-1])
    return (*scan(J, F, start, end), own)


def _offset_values(landscape: Landscape, rho: float, thetas: Array,
                   h: float) -> tuple[Array, Array]:
    """phi_rho at each of the increasing thetas and its contact: the larger of
    theta's own candidate f(theta) + rho (contact theta) and the maximum over
    theta's window (contact its leftmost maximizer), each theta a row of one
    _offset_scan; a tie keeps theta, and a NaN wins as in np.max."""
    w = _offset_window(landscape, rho)
    lo = np.ceil((thetas - w) / h - 1e-9).astype(np.intp)
    hi = np.floor((thetas + w) / h + 1e-9).astype(np.intp)
    live = np.flatnonzero(lo <= hi)  # the other windows hold no lattice point
    lo, hi, t = lo[live], hi[live], thetas[live]
    if live.size:
        anchors = np.clip(np.round(t / h).astype(np.intp), lo, hi)
        v, index, f = _offset_scan(landscape, h, rho, anchors, lo, hi, t, thetas)
    else:  # no window holds a lattice point: v and index stay empty
        v, index, f = t, lo, _bounded_batch(landscape, thetas)
    out, contacts = f + _circ(0.0, rho), thetas.copy()
    win = (v > out[live]) | (np.isnan(v) & ~np.isnan(out[live]))
    out[live[win]], contacts[live[win]] = v[win], index[win] * h
    return out, contacts


def _check_offset_args(landscape: Landscape, rho: float, h: float, **thetas: float) -> None:
    if landscape.dim != 1:
        raise ValueError("offset evaluation is 1D only")
    _check_args({"rho": rho, "grid step h": h}, thetas)
    if h > rho / 100 * (1 + 1e-9):
        raise ValueError(f"grid step {h} too coarse: need h <= rho/100 = {rho/100}")
    name, x = max(thetas.items(), key=lambda item: abs(item[1]))
    if abs(x) + _offset_window(landscape, rho) >= 2.0 ** 53 * h:  # the scan's float indices
        raise ValueError(f"{name} {x!r} too far out: its window's lattice indices reach 2^53")


def offset_value(landscape: Landscape, rho: float, theta: float, h: float) -> float:
    """Upper offset phi_rho(theta) = max over the s-grid of f(theta+s) + sqrt(rho^2 - s^2).

    The s-grid is the ambient lattice of multiples of h intersected with
    the candidate window, plus theta itself, with |s| clamped to
    rho * (1 - 1e-12). Anchoring the grid in ambient coordinates keeps the
    sampled peaks of f at theta-independent phases, which is what makes
    sampled offsets of nearby thetas comparable. The lattice part is one row
    of _offset_scan.
    """
    _check_offset_args(landscape, rho, h, theta=float(theta))
    return float(_offset_values(landscape, rho, np.array([float(theta)]), h)[0][0])


def offset_profile(landscape: Landscape, rho: float, lo: float, hi: float,
                   theta_step: float, h: float | None = None) -> OffsetSamples:
    """Sampled offset over [lo, hi] with theta spacing theta_step.

    When theta_step is an integer multiple k of h and lo sits on the theta
    lattice, one strided scan with one shared arc serves every theta (see
    _offset_scan); otherwise one scan with an arc per theta gives each theta
    offset_value's float. The strided scan takes theta's lattice point
    (i * k) * h as its s = 0 candidate, never theta = i * theta_step itself,
    so the two paths agree to about 1e-15, not bit for bit. Either path also
    returns each value's contact (see OffsetSamples).
    """
    if not (math.isfinite(theta_step) and theta_step > 0):
        raise ValueError(f"theta_step must be positive and finite, got {theta_step!r}")
    if h is None:
        h = min(rho / 100.0, theta_step)
    _check_offset_args(landscape, rho, h, lo=lo, hi=hi)
    if hi <= lo:
        raise ValueError("need lo < hi")
    n_t = int(round((hi - lo) / theta_step))
    k, i0 = int(round(theta_step / h)), int(round(lo / theta_step))
    if abs(theta_step / h - k) < 1e-9 and abs(lo / theta_step - i0) < 1e-9:
        thetas = np.arange(i0, i0 + n_t + 1) * theta_step
        nw = int(math.floor(_offset_window(landscape, rho) / h + 1e-9))
        anchors = np.arange(i0, i0 + n_t + 1) * k
        values, index, _ = _offset_scan(landscape, h, rho, anchors, anchors - nw, anchors + nw)
        contacts = index * h
    else:
        thetas = lo + np.arange(n_t + 1) * theta_step
        values, contacts = _offset_values(landscape, rho, thetas, h)
    return OffsetSamples(thetas=thetas, values=values, contacts=contacts, rho=rho, grid_step=h)


def count_local_minima(values: Array) -> int:
    """Strict interior local minima; a plateau flanked by higher values counts once."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1D")
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
    deeper than the grid slack (_grid_slack of the sampled graph).
    """
    if landscape.dim != 1:
        raise ValueError("unreachability test is 1D only")
    theta = float(np.asarray(theta, dtype=float).reshape(()))
    _check_args({"rho": rho, "grid_step": grid_step}, {"theta": theta})
    h = grid_step
    y0 = landscape.forward(np.array([theta]))[0]

    # graph box wide enough to contain the true nearest point of any sphere sample
    half = 2.0 * rho + 10.0 * h
    tg = _lattice(theta - half, theta + half, h)
    fg = eval_batch(landscape, tg)
    slack = _grid_slack(fg, h)

    # fine enough that a genuine tangent direction is missed by < slack/2
    n_sphere = max(4096, 4 * math.ceil(2.0 * math.pi * rho / slack / 4.0))
    ang = np.arange(n_sphere) * (2.0 * math.pi / n_sphere)
    sx = theta + rho * np.cos(ang)
    sy = y0 + rho * np.sin(ang)
    keep = sy >= eval_batch(landscape, sx)  # closed epigraph only
    samples = np.column_stack([sx[keep], sy[keep]])

    clearance = rho - _max_nearest_distance(samples, np.array([tg, fg]).T)  # no copy in _columns
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
