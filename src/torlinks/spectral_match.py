"""Bottleneck matching of joint spectra and the isospectral approximant.

Given two delta-close commuting tuples X and Y, match their joint spectra
so the largest matched distance is minimal, then conjugate X into Y's
eigenbasis along the matching. The resulting approximant has exactly the
spectra of X, commutes exactly with Y (up to diagonalization residuals),
and sits within the matched bottleneck distance of Y. The matching runs on
a min-sum assignment solver of its own (shortest augmenting paths from a
warm start), whose duals let it re-solve only what a step changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """Unitary V with psi_j = V* x_j V, and the matching it realizes; the
    psi_j are formed on first use and kept."""

    v: np.ndarray
    x_mats: list[np.ndarray]
    matching: Matching

    @cached_property
    def psi(self) -> list[np.ndarray]:
        return [adjoint(self.v) @ m @ self.v for m in self.x_mats]


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


def _augment(cost, u, v, col4row, row4col, row, todo) -> float:
    """Grow the assignment by the free ``row`` along one shortest augmenting
    path over the reduced costs cost - u - v, to the nearest free column
    among ``todo`` (Dijkstra; ties go to a free column, then to the first).

    The duals must be feasible, and tight on the assigned edges, on every
    row and column the search can reach; they stay so. Returns the reduced
    length of the path.
    """
    n = len(v)
    shortest = np.empty(n)
    path = np.empty(n, dtype=np.intp)
    left = np.full(n, np.inf)  # tentative distances of the open columns
    shut = np.where(todo, v, -np.inf)  # -inf makes a scanned column's reduced cost +inf
    free = np.nonzero(todo & (row4col < 0))[0]
    scanned = []
    lowest = 0.0
    i = row
    while True:
        reduced = (cost[i] - shut) + (lowest - u[i])
        better = reduced < left
        np.copyto(left, reduced, where=better)
        np.copyto(path, i, where=better)
        j = int(left.argmin())
        lowest = left[j]
        if row4col[j] >= 0:
            k = int(left[free].argmin())
            if left[free[k]] == lowest:
                j = int(free[k])
        shortest[j] = lowest
        left[j] = np.inf
        shut[j] = -np.inf
        scanned.append(j)
        if row4col[j] < 0:
            break
        i = row4col[j]
    done = np.array(scanned)
    v[done] -= lowest - shortest[done]
    u[row4col[done[:-1]]] += lowest - shortest[done[:-1]]
    u[row] += lowest
    while True:
        i = path[j]
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == row:
            return float(lowest)


def _complete(cost, u, v, col4row, limit: float = np.inf) -> bool:
    """Augment each free row (col4row -1) of a partial assignment in turn;
    False as soon as a path is longer than ``limit``."""
    n = len(col4row)
    row4col = np.full(n, -1, dtype=np.intp)
    held = np.nonzero(col4row >= 0)[0]
    row4col[col4row[held]] = held
    everywhere = np.ones(n, dtype=bool)
    for row in np.nonzero(col4row < 0)[0]:
        if _augment(cost, u, v, col4row, row4col, row, everywhere) > limit:
            return False
    return True


def _assign(cost) -> tuple:
    """Min-sum assignment of a square cost matrix, with its duals.

    Shortest augmenting paths (Crouse, IEEE Trans. Aerospace and Electronic
    Systems 52(4), 2016) from a warm start: u = row minima and v = 0. Each
    row takes its first minimal column unless an earlier row took it; a row
    left out then takes its first minimal column still free, and a row whose
    minimal columns are all taken augments. Returns the column of each row
    and duals u, v with cost - u - v >= 0, and 0 on the assigned edges, up
    to rounding.
    """
    n = cost.shape[0]
    u = cost.min(axis=1)
    col4row = np.full(n, -1, dtype=np.intp)
    cols, rows = np.unique(cost.argmin(axis=1), return_index=True)
    col4row[rows] = cols
    taken = np.zeros(n, dtype=bool)
    taken[cols] = True
    for i in np.nonzero(col4row < 0)[0]:
        ties = np.nonzero((cost[i] == u[i]) & ~taken)[0]
        if ties.size:
            col4row[i] = ties[0]
            taken[ties[0]] = True
    v = np.zeros(n)
    _complete(cost, u, v, col4row)
    return col4row, u, v


def _perfect_within(allowed, start):
    """A permutation using only ``allowed`` edges, grown from the allowed
    edges of the permutation ``start``, or None if there is none."""
    n = len(start)
    col4row = np.where(allowed[np.arange(n), start], start, -1)
    cost = (~allowed).astype(float)
    # the duals stay 0 while each path has length 0, i.e. uses allowed edges
    # only; a row with no such path can never be matched inside allowed
    if _complete(cost, np.zeros(n), np.zeros(n), col4row, limit=0.0):
        return col4row
    return None


def bottleneck_assign(cost) -> Matching:
    """Permutation minimizing the maximum matched cost.

    One min-sum assignment of c (``_assign``) gives the upper end of the
    bracket of b*: its largest matched cost. The lower end is
    max(max_i min_j c_ij, max_j min_i c_ij), since every row and every column
    needs an edge. Only the costs between these are binary searched; a
    threshold is feasible iff the edges c <= threshold hold a permutation,
    grown from the last feasible one. Among bottleneck-optimal
    permutations, the one with minimal total cost is selected (within 1e-9
    relative), and among those the lexicographically smallest, so the result
    is deterministic.

    The duals of that min-sum assignment stay feasible for the masked costs
    (c where c <= b*, a large constant elsewhere), so only the rows whose
    edge exceeds b* are re-routed; with none, as for the spectra of close
    generic tuples, nothing is solved again. The lexicographic pass keeps that
    assignment and its duals as a witness: a row takes the witness's column
    with no work, and a smaller candidate column is tried with one augmenting
    path, since fixing it frees exactly one row and one column.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise PreconditionError(f"cost matrix must be square, got {c.shape}")
    if c.shape[0] == 0:
        raise PreconditionError("cost matrix is empty: nothing to match (n = 0)")
    if not np.isfinite(c).all() or np.any(c < 0):
        raise PreconditionError("costs must be finite and nonnegative")

    n = c.shape[0]
    rows = np.arange(n)
    cols, u, v = _assign(c)
    lower = max(c.min(axis=1).max(), c.min(axis=0).max())
    upper = c[rows, cols].max()
    # duplicates do not move the smallest feasible value; np.unique would
    # import numpy.ma
    values = np.sort(c[(c >= lower) & (c <= upper)])
    lo, hi = 0, len(values) - 1
    fits = cols
    while lo < hi:
        mid = (lo + hi) // 2
        found = _perfect_within(c <= values[mid], fits)
        if found is None:
            lo = mid + 1
        else:
            hi, fits = mid, found
    bstar = float(values[lo])

    big = float(n * c.max() + 1.0)
    allowed = c <= bstar
    masked = np.where(allowed, c, big)
    # masked >= c, and they agree on the kept edges, so u, v stay feasible
    cols = np.where(allowed[rows, cols], cols, -1)
    _complete(masked, u, v, cols)
    sstar = float(masked[rows, cols].sum())
    tol = 1e-9 * (1.0 + abs(sstar))

    # lexicographically smallest permutation achieving (bstar, sstar): rows
    # before k are fixed, and cols[k:] is an optimal completion of them whose
    # duals u, v are feasible on the rows and columns still open
    row4col = np.empty(n, dtype=np.intp)
    row4col[cols] = rows
    first = allowed.argmax(axis=1)  # a row moves only to an allowed column left of its own
    avail = np.ones(n, dtype=bool)
    acc = 0.0
    for k in range(n):
        if first[k] < cols[k]:
            for j in np.nonzero(avail[: cols[k]] & allowed[k, : cols[k]])[0]:
                # fixing (k, j) frees the row that held j and opens cols[k]
                held = row4col[j]
                c4r, r4c, uk, vk = cols.copy(), row4col.copy(), u.copy(), v.copy()
                r4c[cols[k]], r4c[j], c4r[k], c4r[held] = -1, k, j, -1
                todo = avail.copy()
                todo[j] = False
                _augment(masked, uk, vk, c4r, r4c, held, todo)
                sub = float(masked[rows[k + 1 :], c4r[k + 1 :]].sum())
                if sub < big and acc + c[k, j] + sub <= sstar + tol:
                    cols, row4col, u, v = c4r, r4c, uk, vk
                    break
        acc += c[k, cols[k]]
        avail[cols[k]] = False

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
    return Approximant(v=v, x_mats=x.mats, matching=matching)
