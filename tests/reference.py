"""Test-only reference oracles."""
import math

import numpy as np

from rollball.landscape import Array, Landscape


def finite_difference_grad(landscape: Landscape, theta: Array) -> Array:
    """Central-difference gradient of the landscape's value, with
    per-coordinate step 1e-5 * (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for i in range(theta.size):
        h = 1e-5 * (1.0 + abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (landscape.forward(up)[0] - landscape.forward(dn)[0]) / (2.0 * h)
    return out


def full_window_profile(ls: Landscape, rho: float, h: float, thetas: Array,
                        k: int | None = None) -> Array:
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
