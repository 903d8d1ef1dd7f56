"""Draws and sampled reference values shared by several test files (test-only)."""

import numpy as np

from torlinks.matcore import op_norm


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random n x n unitary: QR of a complex Gaussian, phases fixed by R."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def polygonal_length(path) -> float:
    """Sum of ||path(t') - path(t)|| over 1000 uniform clock times: a lower
    bound on the arc length that meets it as the samples refine."""
    vals = [path.value(t) for t in np.linspace(0.0, 1.0, 1000)]
    return float(sum(op_norm(b - a) for a, b in zip(vals, vals[1:])))


def stencil_curvature(path, t: float, h: float = 1e-3) -> float:
    """Curvature ||d/dt (gamma'/||gamma'||)|| / ||gamma'|| at clock time t by
    central differences of five path values h apart, which must lie in one
    segment: it meets the exact value as h shrinks, with error O(h^2).
    Returns 0 where the sampled speed is at most 1e-12."""
    g = [path.value(t + k * h) for k in (-2, -1, 0, 1, 2)]
    v_m, v_0, v_p = ((g[k + 2] - g[k]) / (2 * h) for k in range(3))
    speed = op_norm(v_0)
    if speed <= 1e-12:
        return 0.0
    return op_norm((v_p / op_norm(v_p) - v_m / op_norm(v_m)) / (2 * h)) / speed
