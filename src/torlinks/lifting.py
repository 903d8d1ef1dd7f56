"""Doubling, compression, the doubled homomorphism, and lifted links.

The lift sends x to the block matrix diag(x, V*^2 x V^2), which equals
Ad[What_s](x' ⊕ x') for x' = V* x V conjugated by the Hermitian unitary
What_s = [[0, V], [V*, 0]]. Building the blocks directly keeps the upper-left
compression of the lift literally equal to x (no floating error), while the
conjugation form drives the curved factors of the lifted links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homotopy import Flat, LinkBundle, _conj_family, _link_bundle
from .jointspec import NormalTuple
from .matcore import (
    PreconditionError,
    _check_unitary,
    adjoint,
    as_cmatrix,
    commutator,
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


def lifted_links(
    x: NormalTuple,
    y: NormalTuple,
    seed: int = 0,
    grid_points: int = 101,
) -> tuple[LiftedHom, LinkBundle, dict]:
    """Links in the doubled space from Phi(x_j) to y_j ⊕ y_j.

    The curved factor conjugates iota2(V* x_j V) by e^{i(1-t)H} with
    H = (pi/2)(What_s - 1); it starts at Phi(x_j) (t=0, conjugator What_s)
    and ends at iota2(V* x_j V) (t=1, conjugator 1). A flat factor then
    lands on iota2(y_j). The report carries the checked identities: exact
    compression, *-homomorphism samples, Hermitian-unitary structure, and
    the commutator decay |cos(pi t/2)| along the curved conjugator.
    """
    approx = isospectral_approximant(x, y, seed=seed)
    lift = LiftedHom(approx.v)
    h = lift.generator()
    eye2n = np.eye(2 * lift.n)

    bases = [iota2(pj) for pj in approx.psi]
    curved_parts = _conj_family(h, bases, -1.0, 0.0)
    flat_parts = [Flat(base, iota2(yj)) for base, yj in zip(bases, y.mats)]
    x_mats = [lift.apply(xj) for xj in x.mats]
    y_mats = [iota2(yj) for yj in y.mats]
    bundle = _link_bundle(curved_parts, flat_parts, x_mats, y_mats, "normal", h)

    q, w = curved_parts[0]._q, curved_parts[0]._w  # the shared decomposition of H
    report = {
        "hermiticity": op_norm(lift.what_s - adjoint(lift.what_s)),
        "unitarity": op_norm(lift.what_s @ lift.what_s - eye2n),
        "exp_identity": op_norm((q * np.exp(1j * w)) @ adjoint(q) - lift.what_s),
    }
    report["kappa_identity_error"] = max(
        op_norm(kappa_compress(phi_x) - xj) for phi_x, xj in zip(x_mats, x.mats)
    )
    report["phi_displacement"] = max(
        op_norm(phi_x - iota2(xj)) for phi_x, xj in zip(x_mats, x.mats)
    )

    rng = np.random.default_rng(seed)
    hom_product = 0.0
    hom_star = 0.0
    n = lift.n
    for _ in range(10):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hom_product = max(
            hom_product, op_norm(lift.apply(a @ b) - lift.apply(a) @ lift.apply(b))
        )
        hom_star = max(hom_star, op_norm(lift.apply(adjoint(a)) - adjoint(lift.apply(a))))
    report["hom_product_defect"] = hom_product
    report["hom_star_defect"] = hom_star
    report["hom_unit_defect"] = op_norm(lift.apply(np.eye(n)) - eye2n)

    ts = np.linspace(0.0, 1.0, grid_points)
    conjugators = [(q * np.exp(1j * (1.0 - t) * w)) @ adjoint(q) for t in ts]
    decay_err = 0.0
    for base in bases:
        ref = op_norm(commutator(lift.what_s, base))
        for t, w_t in zip(ts, conjugators):
            lhs = op_norm(commutator(w_t, base))
            decay_err = max(decay_err, abs(lhs - abs(np.cos(np.pi * t / 2)) * ref))
    report["decay_max_error"] = decay_err

    return lift, bundle, report
