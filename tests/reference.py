"""Test-only reference oracles."""
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
