"""Joint spectra of commuting normal tuples, and Clifford norms.

A commuting normal tuple is diagonalized in a single unitary basis; the rows
of the resulting joint spectrum are points in C^N, one per basis vector.
The Clifford norm packs a tuple into one self-adjoint-style operator whose
norm controls all coordinates at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import matcore
from .matcore import (
    PreconditionError,
    as_cmatrix,
    commutator,
    op_norm,
)

__all__ = [
    "NormalTuple",
    "JointSpectrum",
    "joint_diagonalize",
    "joint_spectrum",
    "clifford_rep",
    "clifford_norm",
]

#: norms may exceed 1 by at most this much
CONTRACTION_SLACK = 1e-10


@dataclass
class NormalTuple:
    """N same-size normal contractions commuting within stated tolerances."""

    mats: list[np.ndarray]
    commutation_tol: float = 1e-10
    normality_tol: float = 1e-10

    def __post_init__(self):
        matcore._check_tolerance("normality_tol", self.normality_tol)
        if not self.commutation_tol >= 0:  # NaN fails this too; inf skips the check
            raise PreconditionError(
                f"commutation_tol must be >= 0 or inf, got {self.commutation_tol!r}"
            )
        mats = [as_cmatrix(m) for m in self.mats]
        if not mats:
            raise PreconditionError("tuple must contain at least one matrix")
        n = mats[0].shape[0]
        for j, m in enumerate(mats):
            if m.shape[0] != n:
                raise PreconditionError("all matrices must share one dimension")
            ata = matcore._ata(m)  # one product for [m*, m] and for the norm's proof
            matcore._check_normal(m, ata, self.normality_tol, f"matrix {j} has normality defect")
            nrm = matcore._threshold_norm(m, 1.0 + CONTRACTION_SLACK, ata)
            if nrm > 1.0 + CONTRACTION_SLACK:
                raise PreconditionError(
                    f"matrix {j} has norm {nrm!r} > 1 + {CONTRACTION_SLACK}"
                )
        del ata  # not held through the commutator checks
        for j in range(len(mats) if self.commutation_tol < np.inf else 0):  # no norm exceeds inf
            for k in range(j + 1, len(mats)):
                matcore._check_within(
                    commutator(mats[j], mats[k]),
                    self.commutation_tol,
                    f"matrices {j},{k} have commutator norm",
                )
        self.mats = mats

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    @property
    def N(self) -> int:
        return len(self.mats)


@dataclass
class JointSpectrum:
    """Unitary Q and the n x N array of joint eigenvalue points.

    ``residual`` is at least max_j ||offdiag(Q* x_j Q)|| (up to rounding) and
    at most the diagonalization target: it is the cheap norm bound, or the
    target itself where a Cholesky factorization proves the residual within
    it, and exact only where neither settles the comparison.
    """

    q: np.ndarray
    points: np.ndarray
    residual: float = 0.0


def joint_diagonalize(
    t: NormalTuple, cluster_tol: float = 1e-8, seed: int = 0
) -> JointSpectrum:
    """Common eigenbasis and joint spectrum of a commuting normal tuple.

    A seeded random positive combination of the 2N Hermitian parts is
    eigendecomposed; degenerate eigenvalue clusters (within cluster_tol,
    relative) are refined recursively with fresh coefficients. Residuals
    are verified against max(1e-8, 100 * commutation_tol), with up to five
    retries before a DiagnosticsError.

    Rows of the joint spectrum are ordered ascending lexicographically by
    (Re, Im) of the first matrix's eigenvalues, ties broken by subsequent
    matrices; the basis columns carry canonical phases, so the output is
    deterministic for a given seed.
    """
    matcore._check_tolerance("cluster_tol", cluster_tol)
    n = t.n
    if t.commutation_tol > 1e-8 * n:
        raise PreconditionError(
            f"tuple commutation tolerance {t.commutation_tol:.3e} exceeds "
            f"{1e-8 * n:.3e}; joint diagonalization is not meaningful"
        )
    q, points, residual = matcore._simdiag_normal(
        t.mats, max(1e-8, 100.0 * t.commutation_tol), seed, cluster_rtol=cluster_tol
    )
    return JointSpectrum(q=q, points=points, residual=residual)


def joint_spectrum(t: NormalTuple, seed: int = 0) -> np.ndarray:
    """The n x N array of joint eigenvalue points of a commuting tuple."""
    return joint_diagonalize(t, seed=seed).points


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_EYE2 = np.eye(2, dtype=np.complex128)


def clifford_rep(n_gens: int) -> list[np.ndarray]:
    """n_gens anticommuting Hermitian involutions of dimension 2^ceil(n_gens/2).

    Jordan-Wigner generators: gamma_{2k-1} = Z^(k-1) X I..., gamma_{2k} = Z^(k-1) Y I...
    """
    matcore._check_count("n_gens", n_gens, 1)
    m = (n_gens + 1) // 2
    gens = []
    for k in range(m):
        prefix = [_PAULI_Z] * k
        suffix = [_EYE2] * (m - k - 1)
        for mid in (_PAULI_X, _PAULI_Y):
            gens.append(reduce(np.kron, prefix + [mid] + suffix))
    return gens[:n_gens]


def clifford_norm(mats: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Cliff = i * sum_j X_j (x) e_j with e_j = i*gamma_j, and its norm.

    The result has dimension n * 2^ceil(N/2). For any tuple,
    ||Cliff|| <= sum_j ||X_j||; for commuting Hermitian tuples,
    ||Cliff||^2 = ||sum_j X_j^2||.
    """
    mats = [as_cmatrix(m) for m in mats]
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise PreconditionError("all matrices must share one dimension")
    gens = clifford_rep(len(mats))
    dim = n * gens[0].shape[0]
    cliff = np.zeros((dim, dim), dtype=np.complex128)
    for x, g in zip(mats, gens):
        cliff += 1j * np.kron(x, 1j * g)
    return cliff, op_norm(cliff)
