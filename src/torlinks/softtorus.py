"""Clock and shift unitaries, word-span dimensions, soft pairs, Bott index.

The clock/shift pair (Omega_n, Sigma_n) realizes the sharpest almost
commuting unitaries at size n: ||[Omega_n, Sigma_n]|| = 2 sin(pi/n). The
Bott index attaches an integer to any almost-commuting unitary pair via the
spectral counting of a block Hermitian matrix; a winding-number computation
serves as an independent oracle for it.

Orientation convention: bott_index(Omega_n, Sigma_n) = +1 = winding. The
winding of the scalar multiplier Omega Sigma Omega* Sigma* = e^{2 pi i/n} 1
fixes the sign; the block matrix below is arranged to agree with it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .matcore import (
    PreconditionError,
    TWO_PI,
    _check_count,
    _check_tolerance,
    _check_unitary,
    _normal_eig,
    adjoint,
    as_cmatrix,
    commutator,
    op_norm,
)

__all__ = [
    "ClockShift",
    "SoftPair",
    "BottResult",
    "GapUndefinedError",
    "SpanNotStabilizedError",
    "clock_shift",
    "algebra_dimension",
    "soft_pair",
    "bott_index",
]


class GapUndefinedError(PreconditionError):
    """Spectrum of the index matrix touches 1/2: index undefined."""


class SpanNotStabilizedError(PreconditionError):
    """Word span still growing at the length cap; partial dimension attached."""

    def __init__(self, message: str, partial: int):
        super().__init__(message)
        self.partial = partial


class ClockShift(NamedTuple):
    omega: np.ndarray
    sigma: np.ndarray
    fourier: np.ndarray
    s2: np.ndarray
    number: np.ndarray


class SoftPair(NamedTuple):
    u: np.ndarray
    v: np.ndarray
    defect: float


class BottResult(NamedTuple):
    index: int
    gap: float
    winding: int
    defect: float


def clock_shift(n: int) -> ClockShift:
    """Clock Omega_n, shift Sigma_n, DFT F, sign matrix s2, number operator.

    Conventions: number = diag(n, ..., 1); Omega = e^{(2 pi i/n) number};
    Sigma has ones on the first superdiagonal and in the lower-left corner;
    F[j, k] = e^{-2 pi i jk/n}/sqrt(n), which makes Omega = F* Sigma F hold
    to machine precision. For n = 1 every generator is the 1x1 identity.
    """
    _check_count("n", n, 1)
    if n == 1:
        one = np.ones((1, 1), dtype=np.complex128)
        return ClockShift(one.copy(), one.copy(), one.copy(), one.copy(), one.copy())
    number = np.diag(np.arange(n, 0, -1)).astype(np.complex128)
    omega = np.diag(np.exp(2j * np.pi * np.arange(n, 0, -1) / n))
    sigma = np.zeros((n, n), dtype=np.complex128)
    sigma[np.arange(n - 1), np.arange(1, n)] = 1.0
    sigma[n - 1, 0] = 1.0
    jk = np.outer(np.arange(n), np.arange(n))
    fourier = np.exp(-2j * np.pi * jk / n) / np.sqrt(n)
    s2 = np.diag(np.concatenate([[-1.0], np.ones(n - 1)])).astype(np.complex128)
    return ClockShift(omega, sigma, fourier, s2, number)


def _vec(a: np.ndarray) -> np.ndarray:
    v = a.reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        return v
    return v / norm


def algebra_dimension(gens, max_len: int | None = None) -> int:
    """Dimension of the span of words in the generators and their adjoints.

    Words grow one letter at a time; a word joins the basis when its
    component orthogonal to the current span (trace inner product) exceeds
    1e-9 after normalization. Growth stops when a round adds nothing or the
    span is all of M_n. If the span is still growing at max_len the partial
    dimension is attached to the raised error.
    """
    gens = [as_cmatrix(g) for g in gens]
    if not gens:
        return 1
    n = gens[0].shape[0]
    for g in gens:
        if g.shape[0] != n:
            raise PreconditionError("generators must share one dimension")
    if max_len is None:
        max_len = max(2 * n + 2, 8)

    letters = gens + [adjoint(g) for g in gens]
    eye = np.eye(n, dtype=np.complex128)
    onb = [_vec(eye)]
    frontier = [eye]

    def try_add(word: np.ndarray) -> bool:
        v = _vec(word)
        for _ in range(2):  # re-orthogonalize for numerical stability
            for b in onb:
                v = v - np.vdot(b, v) * b
        resid = np.linalg.norm(v)
        if resid > 1e-9:
            onb.append(v / resid)
            return True
        return False

    for _ in range(max_len):
        new_frontier = []
        for w in frontier:
            for g in letters:
                cand = w @ g
                if try_add(cand):
                    new_frontier.append(cand)
                if len(onb) == n * n:
                    return n * n
        if not new_frontier:
            return len(onb)
        frontier = new_frontier
    raise SpanNotStabilizedError(
        f"word span still growing after length {max_len} "
        f"(partial dimension {len(onb)})",
        partial=len(onb),
    )


def soft_pair(n: int, delta: float) -> SoftPair:
    """Unitary pair of size n with commutator norm at most delta.

    For delta > 0 this embeds the smallest clock/shift pair whose softness
    2 sin(pi/m) fits under delta (padded by the identity up to size n); when
    even the full-size pair is too stiff, or delta = 0, an exactly commuting
    diagonal pair is returned.
    """
    _check_count("n", n, 2)
    _check_tolerance("delta", delta)
    m = None
    if delta > 0:
        for cand in range(2, n + 1):
            if 2 * np.sin(np.pi / cand) <= delta:
                m = cand
                break
    if m is None:
        # commuting diagonal pair; a real sign diagonal keeps the measured
        # commutator exactly zero
        u = clock_shift(n).omega
        v = np.diag((-1.0 + 0j) ** np.arange(n))
    else:
        cs = clock_shift(m)
        u = np.eye(n, dtype=np.complex128)
        v = np.eye(n, dtype=np.complex128)
        u[:m, :m] = cs.omega
        v[:m, :m] = cs.sigma
    return SoftPair(u, v, op_norm(commutator(u, v)))


def _circle_functions(theta: np.ndarray):
    """The universal f, g, h on the unit circle, parametrized by theta in [0,1)."""
    f = np.where(theta <= 0.5, 1.0 - 2.0 * theta, 2.0 * theta - 1.0)
    bump = np.sqrt(np.maximum(f - f * f, 0.0))
    g = np.where(theta <= 0.5, bump, 0.0)
    h = np.where(theta <= 0.5, 0.0, bump)
    return f, g, h


def bott_index(u, v, gap_tol: float = 0.05, tol: float = 1e-10) -> BottResult:
    """Integer obstruction for an almost commuting unitary pair.

    Builds the Hermitian block matrix e(u, v) from the universal circle
    functions applied to v, counts eigenvalues >= 1/2 against the matrix
    size, and cross-checks with the winding number of u v u* v*. The index
    is only defined when the spectrum of e(u, v) stays gap_tol away from
    1/2; softer pairs raise GapUndefinedError.

    e(u, v) = [[f(v), h(v) u + g(v)], [u* h(v) + g(v), 1 - f(v)]] is taken in
    v's eigenbasis, v = Q diag(lam) Q*: conjugated by diag(Q, Q) it reads
    [[F, B], [B*, 1 - F]] with F, G, H the real diagonals f(lam), g(lam),
    h(lam) and B = H Q* u Q + G. That matrix is unitarily similar to e(u, v),
    so it has the same spectrum, and it is Hermitian as built.
    """
    _check_tolerance("gap_tol", gap_tol)
    _check_tolerance("tol", tol)
    u = as_cmatrix(u)
    v = as_cmatrix(v)
    _check_unitary(u, tol)
    grams = [_check_unitary(v, tol)]  # V*V, handed on to normal_eig and not kept
    if u.shape != v.shape:
        raise PreconditionError("pair members differ in dimension")
    n = u.shape[0]

    q, vals = _normal_eig(v, max(tol, 1e-12), grams.pop())
    theta = np.mod(np.angle(vals), TWO_PI) / TWO_PI
    fv, gv, hv = _circle_functions(theta)
    b = hv[:, None] * (adjoint(q) @ u @ q)
    b.flat[:: n + 1] += gv

    e = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    e[:n, n:] = b
    e[n:, :n] = adjoint(b)
    del b  # not held through the eigensolve
    e.flat[:: 2 * n + 1] = np.concatenate([fv, 1.0 - fv])
    spectrum = np.linalg.eigvalsh(e)

    gap = float(np.min(np.abs(spectrum - 0.5)))
    if gap < gap_tol:
        raise GapUndefinedError(
            f"index undefined at this softness: spectral gap {gap:.4f} < {gap_tol}"
        )
    uv = u @ v
    vu = v @ u
    defect = op_norm(uv - vu)
    # u v u* v* = (u v)(v u)*
    angles = np.angle(np.linalg.eigvals(uv @ adjoint(vu)))
    winding = int(np.rint(np.sum(angles) / TWO_PI))
    index = int(np.sum(spectrum >= 0.5)) - n
    return BottResult(index=index, gap=gap, winding=winding, defect=defect)
