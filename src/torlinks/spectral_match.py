"""Bottleneck matching of joint spectra and the isospectral approximant.

Given two delta-close commuting tuples X and Y, match their joint spectra
so the largest matched distance is minimal, then conjugate X into Y's
eigenbasis along the matching. The resulting approximant has exactly the
spectra of X, commutes exactly with Y (up to diagonalization residuals),
and sits within the matched bottleneck distance of Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jointspec import NormalTuple, joint_diagonalize
from .matcore import PreconditionError, adjoint

__all__ = [
    "Matching",
    "Approximant",
    "spectral_cost_matrix",
    "bottleneck_assign",
    "isospectral_approximant",
]


@dataclass
class Matching:
    """Permutation tau with its bottleneck (max) and total matched cost."""

    tau: np.ndarray
    bottleneck: float
    sum_cost: float


@dataclass
class Approximant:
    """Unitary V with psi_j = V* x_j V, and the matching it realizes."""

    v: np.ndarray
    psi: list[np.ndarray]
    matching: Matching


def spectral_cost_matrix(points_x: np.ndarray, points_y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances in C^N between joint-spectrum rows."""
    px = np.asarray(points_x, dtype=np.complex128)
    py = np.asarray(points_y, dtype=np.complex128)
    if px.ndim == 1:
        px = px[:, None]
    if py.ndim == 1:
        py = py[:, None]
    if px.shape != py.shape:
        raise PreconditionError(f"point sets differ in shape: {px.shape} vs {py.shape}")
    diff = px[:, None, :] - py[None, :, :]
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=2))


def bottleneck_assign(cost) -> Matching:
    """Permutation minimizing the maximum matched cost.

    The bottleneck b* is at least max(max_i min_j c_ij, max_j min_i c_ij),
    since every row and every column needs an edge, and at most the largest
    matched cost of one min-sum linear_sum_assignment (LSAP) of c, which is
    a permutation. Only the distinct costs between these are binary
    searched; a threshold v is feasible iff the LSAP of the indicator c > v
    has optimal cost 0. Among bottleneck-optimal permutations, the one with
    minimal total cost is selected, and among those the lexicographically
    smallest, so the result is deterministic. That last pass keeps an
    optimal completion as a witness: a row takes the witness's column with
    no solve, and a sub-LSAP runs only for a smaller candidate column.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise PreconditionError(f"cost matrix must be square, got {c.shape}")
    if c.shape[0] == 0:
        raise PreconditionError("cost matrix is empty: nothing to match (n = 0)")
    if not np.isfinite(c).all() or np.any(c < 0):
        raise PreconditionError("costs must be finite and nonnegative")
    # imported here so that commands which match no spectra never load scipy
    from scipy.optimize import linear_sum_assignment

    n = c.shape[0]
    rows, cols = linear_sum_assignment(c)
    lower = max(c.min(axis=1).max(), c.min(axis=0).max())
    upper = c[rows, cols].max()
    values = np.unique(c[(c >= lower) & (c <= upper)])
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        over = (c > values[mid]).astype(float)
        if over[linear_sum_assignment(over)].sum() == 0.0:
            hi = mid
        else:
            lo = mid + 1
    bstar = float(values[lo])

    big = float(n * c.max() + 1.0)
    masked = np.where(c <= bstar, c, big)
    rows, cols = linear_sum_assignment(masked)
    sstar = float(masked[rows, cols].sum())
    tol = 1e-9 * (1.0 + abs(sstar))

    # lexicographically smallest permutation achieving (bstar, sstar): rows
    # before k are fixed, and cols[k:] is an optimal completion of them
    avail = list(range(n))
    acc = 0.0
    for k in range(n):
        rest_rows = np.arange(k + 1, n)
        for j in avail:
            if c[k, j] > bstar:
                continue
            if j == cols[k]:
                break
            rest_cols = np.array([x for x in avail if x != j])
            block = masked[np.ix_(rest_rows, rest_cols)]
            rr, cc = linear_sum_assignment(block)
            sub = float(block[rr, cc].sum())
            if sub < big and acc + c[k, j] + sub <= sstar + tol:
                cols[k] = j
                cols[rest_rows[rr]] = rest_cols[cc]
                break
        acc += c[k, cols[k]]
        avail.remove(cols[k])

    matched = c[rows, cols]
    return Matching(tau=cols, bottleneck=float(matched.max()), sum_cost=float(matched.sum()))


def isospectral_approximant(
    x: NormalTuple,
    y: NormalTuple,
    cluster_tol: float = 1e-8,
    seed: int = 0,
) -> Approximant:
    """Conjugate X onto Y's eigenbasis along the bottleneck matching.

    V = Q_X P_tau Q_Y*, so psi_j = V* x_j V is diagonal in Y's basis with
    the joint spectrum of x_j rearranged to face its matched partner, and
    max_j ||psi_j - y_j|| is the per-coordinate bottleneck of the matching
    up to diagonalization residuals.
    """
    if x.n != y.n or x.N != y.N:
        raise PreconditionError("tuples must have matching dimensions and lengths")
    jx = joint_diagonalize(x, cluster_tol=cluster_tol, seed=seed)
    jy = joint_diagonalize(y, cluster_tol=cluster_tol, seed=seed)
    matching = bottleneck_assign(spectral_cost_matrix(jx.points, jy.points))

    n = x.n
    p = np.zeros((n, n), dtype=np.complex128)
    p[np.arange(n), matching.tau] = 1.0
    v = jx.q @ p @ adjoint(jy.q)
    psi = [adjoint(v) @ m @ v for m in x.mats]
    return Approximant(v=v, psi=psi, matching=matching)
