"""Doubling, compression, the doubled homomorphism, and lifted links.

The lift sends x to the block matrix diag(x, V*^2 x V^2), which equals
Ad[What_s](x' ⊕ x') for x' = V* x V conjugated by the Hermitian unitary
What_s = [[0, V], [V*, 0]]. Building the blocks directly keeps the upper-left
compression of the lift literally equal to x (no floating error), while the
conjugation form drives the curved factors of the lifted links: the orbit of
Phi(x_j) under e^{-isH}, with e^{iH} = What_s, ends on iota2(V* x_j V) up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homotopy import LinkBundle, _conj_family, _link_bundle
from .jointspec import NormalTuple
from .matcore import (
    PreconditionError,
    _check_count,
    _check_unitary,
    adjoint,
    as_cmatrix,
    op_norm,
)
from .spectral_match import isospectral_approximant

__all__ = [
    "LiftedHom",
    "iota2",
    "kappa_compress",
    "lifted_links",
]


def iota2(x) -> np.ndarray:
    """Block-diagonal doubling x ⊕ x."""
    return np.kron(np.eye(2), as_cmatrix(x))


def kappa_compress(a) -> np.ndarray:
    """Upper-left half-dimension block; inverse of iota2 on its range."""
    a = as_cmatrix(a)
    if a.shape[0] % 2:
        raise PreconditionError("compression needs an even-dimensional matrix")
    n = a.shape[0] // 2
    return a[:n, :n].copy()


def _block_diag2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


@dataclass
class LiftedHom:
    """The doubled homomorphism x ↦ Ad[What_s](V*xV ⊕ V*xV).

    ``apply`` assembles the two blocks x and V*^2 x V^2 directly, so
    compressing the output returns the input bit for bit.
    """

    v: np.ndarray
    what_s: np.ndarray = field(init=False)

    def __post_init__(self):
        self.v = as_cmatrix(self.v)
        _check_unitary(self.v, 1e-10)
        n = self.v.shape[0]
        self.what_s = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        self.what_s[:n, n:] = self.v
        self.what_s[n:, :n] = adjoint(self.v)
        self._v2 = self.v @ self.v

    @property
    def n(self) -> int:
        return self.v.shape[0]

    def apply(self, x) -> np.ndarray:
        x = as_cmatrix(x)
        if x.shape[0] != self.n:
            raise PreconditionError("input dimension does not match the lift")
        return _block_diag2(x, adjoint(self._v2) @ x @ self._v2)

    def generator(self) -> np.ndarray:
        """Hermitian H = (pi/2)(What_s - 1) with e^{iH} = What_s."""
        return (np.pi / 2) * (self.what_s - np.eye(2 * self.n))


def _decay_bound(q, w, psi, exp_identity: float, grid_points: int) -> float:
    """Bound on | ||[W_t, B_j]|| - |cos(pi t/2)| ||[S, B_j]|| | over the t-grid.

    Here W_t = q e^{i(1-t)w} q*, S = What_s and B_j = iota2(psi_j). With
    a_t = (1 - e^{i pi t})/2 and c_t = (1 + e^{i pi t})/2 (so |c_t| = |cos(pi t/2)|),
    W_t - a_t - c_t S = q diag(phi_t) q* + a_t (qq* - 1) + c_t (q e^{iw} q* - S)
    with phi_t = e^{i(1-t)w} - a_t - c_t e^{iw}, and [W_t, B] - c_t [S, B] is the
    commutator of that difference with B, so of norm at most 2 ||psi_j|| times
    max|phi_t| (1 + r) + |a_t| r + |c_t| exp_identity, where r = ||q*q - 1||
    bounds both ||q||^2 - 1 and ||qq* - 1|| (equal to it for square q).
    """
    t = np.linspace(0.0, 1.0, grid_points)[:, None]
    z = np.exp(1j * np.pi * t)
    a_t, c_t = (1 - z) / 2, (1 + z) / 2
    phi = np.abs(np.exp(1j * (1 - t) * w) - a_t - c_t * np.exp(1j * w)).max(axis=1)
    r = op_norm(adjoint(q) @ q - np.eye(q.shape[0]))
    per_t = phi * (1 + r) + np.abs(a_t[:, 0]) * r + np.abs(c_t[:, 0]) * exp_identity
    return 2 * max(op_norm(p) for p in psi) * float(per_t.max())


def lifted_links(
    x: NormalTuple,
    y: NormalTuple,
    seed: int = 0,
    grid_points: int = 101,
) -> tuple[LiftedHom, LinkBundle, dict]:
    """Links in the doubled space from Phi(x_j) to y_j ⊕ y_j.

    The curved factor conjugates Phi(x_j) by e^{-itH} with
    H = (pi/2)(What_s - 1), which is e^{i(1-t)H} iota2(V* x_j V) e^{-i(1-t)H}
    since e^{iH} = What_s: it starts at Phi(x_j) itself (t=0, conjugator
    What_s) and ends at iota2(V* x_j V) up to rounding (t=1, conjugator 1).
    A flat factor then runs from that computed end, bit for bit, to
    iota2(y_j). Curved factors of length at most JOIN_TOL are dropped; the
    flat factors then start on Phi(x_j).

    Every report entry is a computed norm or a closed-form bound, never a
    sample: exact compression, the Hermitian-unitary structure of What_s,
    the *-homomorphism defects of Phi in exact arithmetic on the stored V^2
    (``hom_product_defect`` per unit input norm,
    ||Phi(ab) - Phi(a)Phi(b)|| <= it * ||a|| ||b||), and a bound on how
    far the commutator along the curved conjugator strays from its exact
    decay |cos(pi t/2)| ||[What_s, B_j]|| on the ``grid_points`` t-grid.
    """
    _check_count("grid_points", grid_points, 2)
    approx = isospectral_approximant(x, y, seed=seed)
    lift = LiftedHom(approx.v)
    x_mats = [lift.apply(xj) for xj in x.mats]
    curved_parts = _conj_family(lift.generator(), x_mats)
    bundle = _link_bundle(x_mats, [iota2(yj) for yj in y.mats], "normal", curved_parts)

    q, w = curved_parts[0]._q, curved_parts[0]._w  # the shared decomposition of H
    v2, eye = lift._v2, np.eye(lift.n)
    exp_identity = op_norm((q * np.exp(1j * w)) @ adjoint(q) - lift.what_s)
    report = {
        "hermiticity": op_norm(lift.what_s - adjoint(lift.what_s)),
        "unitarity": op_norm(lift.what_s @ lift.what_s - np.eye(2 * lift.n)),
        "exp_identity": exp_identity,
        "kappa_identity_error": max(
            op_norm(kappa_compress(phi_x) - xj) for phi_x, xj in zip(x_mats, x.mats)
        ),
        "phi_displacement": max(
            op_norm(phi_x - iota2(xj)) for phi_x, xj in zip(x_mats, x.mats)
        ),
        # Phi(ab) - Phi(a)Phi(b) = 0 ⊕ V*^2 a (1 - V^2 V*^2) b V^2
        "hom_product_defect": op_norm(v2) ** 2 * op_norm(eye - v2 @ adjoint(v2)),
        # apply builds both blocks of Phi(a*) and Phi(a)* from the same formula
        "hom_star_defect": 0.0,
        # Phi(1) - 1 = 0 ⊕ (V*^2 V^2 - 1)
        "hom_unit_defect": op_norm(adjoint(v2) @ v2 - eye),
        "decay_max_error": _decay_bound(q, w, approx.psi, exp_identity, grid_points),
    }
    return lift, bundle, report
