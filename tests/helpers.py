"""Draws and reference sums shared by several test files (test-only)."""

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
