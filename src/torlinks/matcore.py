"""Dense complex matrix primitives.

Everything downstream (joint spectra, matchings, matrix paths, dilations)
is built on the operations here: operator norms, Hermitian and normal
eigendecompositions, unitary exponentials, and branch-controlled
logarithms of unitary matrices.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PreconditionError",
    "BranchPointError",
    "DiagnosticsError",
    "as_cmatrix",
    "adjoint",
    "op_norm",
    "commutator",
    "herm_eig",
    "normal_eig",
    "exp_i_herm",
    "gap_branch_log",
    "principal_log_unitary",
]

TWO_PI = 2.0 * np.pi

# Eigenvalues closer than this (relative to the matrix scale) are treated as
# one degenerate cluster wherever grouping matters.
CLUSTER_RTOL = 1e-8

# Relative rounding allowance on the O(n^2) norm bounds of ``_norm_upper_bound``.
# Their sums of moduli are off by at most about n * 2^-53 relative, below
# 1e-12 for n up to several thousand. The allowance must stay below the
# contraction slack 1e-10, so that exact unitaries pass on the bound.
_BOUND_RTOL = 1e-12


class PreconditionError(ValueError):
    """An operation was called with input violating its contract."""


class BranchPointError(PreconditionError):
    """-1 lies in the spectrum, so the requested logarithm branch fails."""


class DiagnosticsError(RuntimeError):
    """A numerical target was not reached; carries the worst residual."""

    def __init__(self, message: str, worst_residual: float | None = None):
        if worst_residual is not None:
            message = f"{message} (worst residual {worst_residual:.3e})"
        super().__init__(message)
        self.worst_residual = worst_residual


def as_cmatrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex128 matrix.

    Scalars become 1x1 matrices. Non-square, empty or non-finite input is
    rejected.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise PreconditionError("expected a nonempty matrix, got shape (0, 0)")
    if not np.isfinite(m).all():
        raise PreconditionError("matrix has non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


# A matrix whose largest entry modulus lies in [2^-200, 2^200] has its Gram
# matrix A*A formed as it is: nothing in it overflows, and its largest entry
# stays inside the range where LAPACK's eigensolver does not rescale (about
# [2^-484, 2^484]), so a diagonal A*A has its diagonal as eigenvalues bit for
# bit. Any other matrix is first scaled by a power of two, which is exact
# while every real and imaginary part stays a normal float.
_PEAK_MIN, _PEAK_MAX = 2.0**-200, 2.0**200


def _ldexp(a: np.ndarray, k: int) -> np.ndarray:
    """2^k a, each real and imaginary part rounded once."""
    out = np.empty_like(a, dtype=np.complex128)
    out.real, out.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
    return out


def _scaled_norm(norm_of, a: np.ndarray) -> float:
    """norm_of(a) taken on 2^-e a and scaled back by 2^e, e the ``frexp``
    exponent of a's largest real or imaginary part, so that 2^-e a has parts
    below 1 in modulus and one at least 1/2. ``a`` must be finite and nonzero."""
    e = math.frexp(max(float(np.abs(a.real).max()), float(np.abs(a.imag).max())))[1]
    try:
        return math.ldexp(norm_of(_ldexp(a, -e)), e)
    except OverflowError:  # the norm exceeds every float
        return math.inf


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value.

    Computed as the square root of the top eigenvalue of A*A; a diagonal A*A
    needs no eigensolve. A matrix whose largest entry modulus lies outside
    [2^-200, 2^200] is scaled by 2^-e before A*A is formed, e the binary
    exponent of its largest real or imaginary part, and its norm scaled back
    by 2^e, so A*A neither overflows nor underflows.
    """
    a = as_cmatrix(a)
    peak = float(np.abs(a).max())
    if not _PEAK_MIN <= peak <= _PEAK_MAX:
        return 0.0 if peak == 0.0 else _scaled_norm(op_norm, a)
    g = adjoint(a) @ a
    h = (g + adjoint(g)) / 2.0
    diag = h.diagonal()
    # one off-diagonal entry is probed first, so a dense matrix pays one
    # comparison before its eigensolve
    if h.shape[0] > 1 and (h[0, 1] != 0 or np.count_nonzero(h) > np.count_nonzero(diag)):
        top = float(np.linalg.eigvalsh(h)[-1])
    else:
        top = float(diag.real.max())
    return float(np.sqrt(max(top, 0.0)))


def _norm_upper_bound(a: np.ndarray) -> float:
    """An O(n^2) upper bound on op_norm(a), with no eigensolve.

    ||A||_2 is at most both the Frobenius norm and Schur's bound
    sqrt(||A||_1 ||A||_inf); the smaller of the two is widened by
    ``_BOUND_RTOL`` to cover its own rounding. When ||A||_1 lies outside
    [2^-200, 2^200], the bound is taken on A scaled as in ``op_norm``; when it
    is not finite, the bound is inf, so that callers fall back to op_norm,
    which rejects non-finite input.
    """
    mod = np.abs(a)
    norm_1 = float(mod.sum(axis=0).max())
    if not math.isfinite(norm_1):
        return math.inf
    if not _PEAK_MIN <= norm_1 <= _PEAK_MAX:
        return 0.0 if norm_1 == 0.0 else _scaled_norm(_norm_upper_bound, a)
    schur = float(np.sqrt(norm_1 * float(mod.sum(axis=1).max())))
    return min(float(np.linalg.norm(mod)), schur) * (1.0 + _BOUND_RTOL)


def _threshold_norm(a: np.ndarray, tol: float) -> float:
    """A stand-in for op_norm(a) in the test ``> tol``, without an eigensolve
    when a cheap bound already settles it.

    When ``_norm_upper_bound(a)`` is at most ``tol``, it is returned and the
    test fails as it would on the exact norm. Otherwise the exact op_norm is
    returned, so a rejection reports the exact value. Never store the result.
    """
    bound = _norm_upper_bound(a)
    return bound if bound <= tol else op_norm(a)


def _check_within(a: np.ndarray, tol: float, what: str) -> None:
    """Raise ``PreconditionError("{what} {norm} > {tol}")`` when op_norm(a) > tol."""
    norm = _threshold_norm(a, tol)
    if norm > tol:
        raise PreconditionError(f"{what} {norm:.3e} > {tol:.3e}")


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape != b.shape:
        raise PreconditionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def _canonical_column_phases(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive.

    Makes eigenvector output reproducible across equivalent decompositions.
    Each factor is one scalar conj(z) / |z|: a vectorized division rounds
    differently in the last bit.
    """
    z = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    phases = [np.conj(zk) / abs(zk) if abs(zk) > 0.0 else 1.0 for zk in z]
    return q * np.array(phases, dtype=q.dtype)


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (Q, lam) with unitary Q, eigenvalues ascending, and canonical
    column phases so that identical input gives identical output.
    """
    a = as_cmatrix(a)
    scale = op_norm(a)
    tol = 1e-10 * max(scale, 1e-300)
    _check_within(a - adjoint(a), tol, "input is not Hermitian within tolerance: ||A - A*|| =")
    w, q = np.linalg.eigh((a + adjoint(a)) / 2.0)
    return _canonical_column_phases(q), w


def exp_i_herm(h, theta: float = 1.0) -> np.ndarray:
    """exp(i*theta*H) for Hermitian H, via eigendecomposition."""
    q, w = herm_eig(h)
    phases = np.exp(1j * theta * w)
    return (q * phases) @ adjoint(q)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + adjoint(a)) / 2.0


def _split_clusters(w: np.ndarray, thr: float) -> list[tuple[int, int]]:
    """Group ascending values into clusters separated by gaps > thr."""
    groups = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > thr:
            groups.append((start, i))
            start = i
    groups.append((start, len(w)))
    return groups


def _nearly_scalar(mats: list[np.ndarray], tol: float) -> bool:
    for m in mats:
        mu = np.trace(m) / m.shape[0]
        if np.max(np.abs(m - mu * np.eye(m.shape[0]))) > tol:
            return False
    return True


def _simdiag(parts, rng, cluster_rtol):
    """One unitary (approximately) diagonalizing all Hermitian ``parts``.

    Eigendecomposes a random positive combination of the parts. A cluster of
    eigenvalues within ``cluster_rtol`` (relative) whose compressed parts are
    not scalar is refined recursively with fresh coefficients; each such
    block is strictly smaller than its parent, so the recursion ends. A
    combination that splits nothing returns its eigenbasis as it is: the
    caller verifies the residual and draws again.
    """
    m = parts[0].shape[0]
    if m == 1:
        return np.eye(1, dtype=np.complex128)
    c = rng.uniform(1.0, 2.0, size=len(parts))
    h = np.zeros((m, m), dtype=np.complex128)
    for ci, p in zip(c, parts):
        h += ci * p
    w, v = np.linalg.eigh(_hermitize(h))
    scale = max(1.0, float(np.max(np.abs(w))))
    groups = _split_clusters(w, cluster_rtol * scale)
    if len(groups) == 1:
        return v
    q = v.copy()
    for i0, i1 in groups:
        if i1 - i0 == 1:
            continue
        vc = v[:, i0:i1]
        sub = [_hermitize(adjoint(vc) @ p @ vc) for p in parts]
        if not _nearly_scalar(sub, cluster_rtol * scale):
            q[:, i0:i1] = vc @ _simdiag(sub, rng, cluster_rtol)
    return q


def _hermitian_parts(mats) -> list[np.ndarray]:
    """Real parts (A + A*)/2 of all ``mats``, then imaginary parts (A - A*)/2i."""
    parts = [(m + adjoint(m)) / 2.0 for m in mats]
    parts += [(m - adjoint(m)) / 2.0j for m in mats]
    return parts


def _offdiag(m: np.ndarray) -> np.ndarray:
    return m - np.diag(np.diag(m))


def _simdiag_normal(mats, target, seed, cluster_rtol=CLUSTER_RTOL):
    """Common eigenbasis (Q, points, residual) of commuting normal ``mats``.

    This is the one retry loop of joint diagonalization. It draws up to six
    bases from ``_simdiag`` on the Hermitian parts and accepts the first
    whose off-diagonal residual is within ``target``, raising a
    DiagnosticsError with the smallest residual if none is. Each residual is
    taken by ``_threshold_norm``, so an accepted one is an upper bound, exact
    only where the cheap bound misses ``target``; a draw is chosen exactly as
    by exact norms, which never exceed the bound.

    Columns are sorted ascending lexicographically by (Re, Im) of the first
    matrix's eigenvalues, ties broken by later matrices, and carry canonical
    phases; ``points`` is the n x N array of diagonal entries of Q* mats Q
    in that basis.
    """
    if seed < 0:
        raise PreconditionError("seed must be a non-negative integer")
    parts = _hermitian_parts(mats)
    rng = np.random.default_rng(seed)
    best_res = np.inf
    for _ in range(6):
        q = _simdiag(parts, rng, cluster_rtol)
        rotated = [adjoint(q) @ m @ q for m in mats]
        res = max(_threshold_norm(_offdiag(d), target) for d in rotated)
        if res <= target:
            break
        best_res = min(best_res, res)
    else:
        raise DiagnosticsError(
            "joint diagonalization residual exceeds the target",
            worst_residual=best_res,
        )
    keys = []
    for d in reversed(rotated):
        keys.append(np.diag(d).imag)
        keys.append(np.diag(d).real)
    q = _canonical_column_phases(q[:, np.lexsort(tuple(keys))])
    points = np.column_stack([np.diag(adjoint(q) @ m @ q) for m in mats])
    return q, points, res


def normal_eig(a, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a normal matrix.

    Jointly diagonalizes the Hermitian real part (A + A*)/2 and imaginary
    part (A - A*)/2i. Returns (Q, lam) with unitary Q and complex
    eigenvalues sorted ascending lexicographically by (Re, Im).
    """
    a = as_cmatrix(a)
    scale = op_norm(a)
    limit = tol * max(scale, 1e-300)
    _check_within(
        commutator(adjoint(a), a), limit, "matrix is not normal within tolerance: ||[A*, A]|| ="
    )
    q, points, _ = _simdiag_normal([a], 10.0 * tol * max(scale, 1e-300), 0)
    return q, points[:, 0]


def _check_tolerance(name: str, value: float) -> None:
    """Reject a NaN, infinite or negative tolerance: every comparison with NaN
    is false, so a check against a NaN tolerance would never fire."""
    if not (np.isfinite(value) and value >= 0):
        raise PreconditionError(f"{name} must be finite and >= 0, got {value!r}")


def _check_unitary(u: np.ndarray, tol: float) -> None:
    _check_within(
        adjoint(u) @ u - np.eye(u.shape[0]),
        tol,
        "matrix is not unitary within tolerance: ||U*U - 1|| =",
    )


def gap_branch_log(u) -> np.ndarray:
    """Hermitian H with exp(iH) = U, branch cut in the largest spectral gap.

    Eigenvalue angles are taken in [0, 2*pi) and sorted; the cut is placed at
    the midpoint of the largest circular gap (among equal largest gaps, the
    one with the smallest starting angle). Angles past the gap start are
    shifted down by 2*pi, and a final global shift by a multiple of 2*pi
    (which leaves exp(iH) unchanged) minimizes ||H||, ties keeping no shift.
    The spectrum of H therefore fits in an interval of length at most
    2*pi - (largest gap) whose image on the circle avoids the cut.
    """
    u = as_cmatrix(u)
    _check_unitary(u, 1e-10)
    q, lam = normal_eig(u)
    ang = np.mod(np.angle(lam), TWO_PI)
    s = np.sort(ang)
    n = len(s)
    gaps = np.empty(n)
    if n > 1:
        gaps[:-1] = np.diff(s)
    gaps[-1] = s[0] + TWO_PI - s[-1]
    cut_start = s[int(np.argmax(gaps))]
    shifted = np.where(ang > cut_start, ang - TWO_PI, ang)
    best = shifted
    best_norm = float(np.max(np.abs(shifted)))
    for k in (1.0, -1.0):
        cand = shifted + TWO_PI * k
        cn = float(np.max(np.abs(cand)))
        if cn < best_norm:
            best, best_norm = cand, cn
    return _hermitize((q * best) @ adjoint(q))


def principal_log_unitary(u) -> np.ndarray:
    """Hermitian H with exp(iH) = U and eigenvalue angles in (-pi, pi).

    Raises BranchPointError when the spectrum touches -1 (within 1e-9 of
    angle pi), where the principal branch is discontinuous.
    """
    u = as_cmatrix(u)
    _check_unitary(u, 1e-10)
    q, lam = normal_eig(u)
    ang = np.angle(lam)
    if np.any(np.pi - np.abs(ang) < 1e-9):
        raise BranchPointError(
            "spectrum touches -1; the principal logarithm is undefined"
        )
    return _hermitize((q * ang) @ adjoint(q))
