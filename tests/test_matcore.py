from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from helpers import haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from torlinks import matcore
from torlinks.matcore import (
    BranchPointError,
    DiagnosticsError,
    PreconditionError,
    adjoint,
    as_cmatrix,
    commutator,
    exp_i_herm,
    gap_branch_log,
    herm_eig,
    normal_eig,
    op_norm,
    principal_log_unitary,
)


def _random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _clock_shift(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n)
    omega = np.diag(np.exp(2j * np.pi * (n - k) / n))
    sigma = np.zeros((n, n), dtype=complex)
    sigma[np.arange(n - 1), np.arange(1, n)] = 1.0
    sigma[n - 1, 0] = 1.0
    return omega, sigma


# ---------------------------------------------------------------- op_norm


def test_op_norm_diagonal():
    assert op_norm(np.diag([1.0, -2.0])) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_nilpotent():
    assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_unitary_is_one():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 17):
        u = haar_unitary(n, rng)
        assert abs(op_norm(u) - 1.0) < 1e-12


def test_op_norm_unitary_invariance_and_submultiplicativity():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = haar_unitary(n, rng)
        v = haar_unitary(n, rng)
        assert abs(op_norm(u @ a @ v) - op_norm(a)) < 1e-11 * op_norm(a)
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10


def _norm_shape(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "dense":
        return z
    d = np.diag(np.diag(z))
    if kind == "diagonal":
        return d
    if kind == "permuted":
        return np.eye(n)[rng.permutation(n)] @ d
    omega, sigma = _clock_shift(n)
    if kind == "commutator":  # monomial: the pattern of Sigma
        return omega @ sigma - sigma @ omega
    return adjoint(omega) @ omega - np.eye(n)  # unitarity defect: diagonal


def _gram_reference(a: np.ndarray) -> float:
    g = adjoint(a) @ a
    return float(np.sqrt(max(float(np.linalg.eigvalsh((g + adjoint(g)) / 2.0)[-1]), 0.0)))


NORM_SHAPES = ("dense", "diagonal", "permuted", "commutator", "defect")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(NORM_SHAPES[1:]),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.integers(-190, 190),
)
def test_op_norm_reads_a_diagonal_gram_bit_for_bit(kind, n, seed, k):
    a = matcore._ldexp(_norm_shape(kind, n, np.random.default_rng(seed)), k)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as solve:
        norm = op_norm(a)
    assert solve.call_count == 0
    assert norm == _gram_reference(a)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(NORM_SHAPES),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.integers(-1100, 1100),
)
def test_op_norm_commutes_with_powers_of_two(kind, n, seed, k):
    a = _norm_shape(kind, n, np.random.default_rng(seed))
    parts = np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))
    if not parts.any():  # the commutator of the 1 x 1 clock and shift
        assert op_norm(matcore._ldexp(a, k)) == 0.0
        return
    smallest, largest = parts[parts > 0].min(), parts.max()
    # keep every nonzero part of 2^k a a normal float, and its norm (at most
    # 2n times its largest part) finite
    k = min(max(k, 1 - math.frexp(smallest)[1] - 1021), 1020 - math.frexp(2 * n * largest)[1])
    scaled = matcore._ldexp(a, k)
    norm = op_norm(a)
    assert op_norm(scaled) == math.ldexp(norm, k)
    assert matcore._norm_upper_bound(scaled) >= op_norm(scaled)
    if kind == "dense":
        assert norm == _gram_reference(a)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(NORM_SHAPES),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from((-210, -1, 0, 1, 210)),
)
def test_op_norm_of_the_negation_is_bit_for_bit(kind, n, seed, k):
    # every product in (-A)*(-A) equals that in A*A, so a Flat that ends on y
    # has ||a - y|| = ||-(b - a)|| from its length; 2^+-210 takes the scaled path
    a = matcore._ldexp(_norm_shape(kind, n, np.random.default_rng(seed)), k)
    assert op_norm(-a) == op_norm(a)


def test_op_norm_at_extreme_scales():
    # A*A overflows from about 1e154 and underflows below about 1e-162, so
    # each of these norms needs the power-of-two scaling
    for scale in (1e155, 1e160, 1e200, 1e300, 1e307, 1e-170, 1e-300, 1e-310):
        for a, norm in ((np.eye(3), 1.0), (np.array([[3.0, 4.0], [0.0, 0.0]]), 5.0)):
            assert op_norm(scale * a) == pytest.approx(norm * scale, rel=1e-12)
            assert matcore._norm_upper_bound(as_cmatrix(scale * a)) >= op_norm(scale * a)
    assert op_norm(1.7e308 * np.ones((2, 2))) == math.inf  # its norm exceeds every float
    assert op_norm(np.zeros((3, 3))) == 0.0


def test_op_norm_rejects_nonfinite():
    with pytest.raises(PreconditionError):
        op_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError):
        op_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_as_cmatrix_rejects_nonsquare():
    with pytest.raises(PreconditionError):
        as_cmatrix(np.zeros((2, 3)))


# ---------------------------------------------------------------- herm_eig


def test_herm_eig_pauli_x():
    q, w = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    # columns (1,-1)/sqrt(2) and (1,1)/sqrt(2) up to phase
    expect = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    for k in range(2):
        overlap = abs(np.vdot(expect[:, k], q[:, k]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_herm_eig_reconstruction_property():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8, 40, 128):
        a = _random_hermitian(n, rng)
        q, w = herm_eig(a)
        assert op_norm(adjoint(q) @ q - np.eye(n)) < 1e-12
        assert op_norm(a @ q - q @ np.diag(w)) <= 1e-11 * max(op_norm(a), 1.0)
        assert np.all(np.diff(w) >= 0)


def test_herm_eig_deterministic():
    rng = np.random.default_rng(12)
    a = _random_hermitian(9, rng)
    q1, w1 = herm_eig(a)
    q2, w2 = herm_eig(a.copy())
    assert np.array_equal(q1, q2)
    assert np.array_equal(w1, w2)


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(PreconditionError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- exp_i_herm


def test_exp_i_herm_diagonal():
    out = exp_i_herm(np.diag([np.pi, 0.0]))
    assert np.allclose(out, np.diag([-1.0, 1.0]), atol=1e-12)


def test_exp_i_herm_theta_zero():
    rng = np.random.default_rng(13)
    h = _random_hermitian(6, rng)
    assert np.allclose(exp_i_herm(h, 0.0), np.eye(6), atol=1e-12)


def test_exp_i_herm_scalar():
    assert exp_i_herm(np.array([[1.0]]))[0, 0] == pytest.approx(np.exp(1j), abs=1e-14)


def test_exp_i_herm_unitary():
    rng = np.random.default_rng(14)
    h = _random_hermitian(20, rng)
    u = exp_i_herm(h, 0.37)
    assert op_norm(adjoint(u) @ u - np.eye(20)) < 1e-12


# ---------------------------------------------------------------- normal_eig


def test_normal_eig_rotation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q, lam = normal_eig(a)
    assert sorted(np.round(lam.imag, 10)) == [-1.0, 1.0]
    assert np.allclose(lam.real, 0.0, atol=1e-12)
    assert op_norm(a @ q - q @ np.diag(lam)) < 1e-10


def test_normal_eig_diagonal_order():
    q, lam = normal_eig(np.diag([2.0, 1.0 + 1.0j]))
    # ascending lexicographic by (Re, Im)
    assert np.allclose(lam, [1.0 + 1.0j, 2.0], atol=1e-12)


def test_normal_eig_shift_matrix():
    _, sigma2 = _clock_shift(2)
    q, lam = normal_eig(sigma2)
    assert np.allclose(lam, [-1.0, 1.0], atol=1e-12)
    assert op_norm(adjoint(q) @ q - np.eye(2)) < 1e-12


def test_normal_eig_residual_bound():
    rng = np.random.default_rng(15)
    for n in (3, 7, 24):
        u = haar_unitary(n, rng)
        d = np.exp(2j * np.pi * rng.random(n)) * rng.random(n)
        a = (u * d) @ adjoint(u)
        q, lam = normal_eig(a)
        m = adjoint(q) @ a @ q
        assert op_norm(m - np.diag(np.diag(m))) <= 10.0 * 1e-10 * op_norm(a)
        assert np.allclose(sorted(lam), sorted(d), atol=1e-10)


def test_normal_eig_rejects_nonnormal():
    with pytest.raises(PreconditionError):
        normal_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("tol", [float("nan"), -1e-10, float("inf")])
def test_normal_eig_refuses_a_bad_tolerance_by_name(tol):
    # tol = NaN used to end in a DiagnosticsError after six draws
    with pytest.raises(PreconditionError, match="^tol must be finite and >= 0"):
        normal_eig(np.diag([0.5, 1.0j]), tol=tol)


@pytest.mark.parametrize("value", [2.5, True, -1, "3", None])
def test_check_count_refuses_what_is_not_a_count(value):
    with pytest.raises(PreconditionError, match=r"^k must be an integer >= 0, got "):
        matcore._check_count("k", value, 0)


@pytest.mark.parametrize("value", [0, 3, np.int64(3)])
def test_check_count_accepts_integers_at_or_above_its_least(value):
    matcore._check_count("k", value, 0)


def test_a_scalar_is_a_one_by_one_matrix():
    m = as_cmatrix(0.5)
    assert m.shape == (1, 1) and m.dtype == np.complex128 and m[0, 0] == 0.5


def test_simdiag_normal_raises_after_six_draws():
    # distinct eigenvalues, so no draw recurses; rounding leaves every
    # off-diagonal residual above a zero target
    rng = np.random.default_rng(16)
    u = haar_unitary(8, rng)
    a = (u * (rng.standard_normal(8) + 1j * rng.standard_normal(8))) @ adjoint(u)
    with mock.patch.object(matcore, "_simdiag", wraps=matcore._simdiag) as spy:
        with pytest.raises(DiagnosticsError, match="exceeds the target") as err:
            matcore._simdiag_normal([a], 0.0, 0)
    assert spy.call_count == 6
    assert err.value.worst_residual > 0.0


# ---------------------------------------------------------------- gap_branch_log

# Independent oracle: enumerate circular gaps of the eigenvalue angles and
# place the cut at the midpoint of the largest one. Frozen expectations below
# were derived by hand from that rule.


def test_gap_branch_log_identity():
    h = gap_branch_log(np.eye(4))
    assert op_norm(h) < 1e-12


def test_gap_branch_log_quarter_turn():
    # angles {0, pi/2}: largest gap starts at pi/2, wraps to 2*pi; both kept
    h = gap_branch_log(np.diag([1.0, 1.0j]))
    assert np.allclose(h, np.diag([0.0, np.pi / 2]), atol=1e-12)


def test_gap_branch_log_minus_one():
    # single eigenvalue -1: cut lands at angle 0, opposite the eigenvalue
    h = gap_branch_log(np.array([[-1.0]]))
    assert h[0, 0] == pytest.approx(np.pi, abs=1e-12)


def test_gap_branch_log_clock_two():
    # angles {0, pi}: two equal gaps, tie broken toward start angle 0,
    # so pi is wrapped down to -pi
    h = gap_branch_log(np.diag([1.0, -1.0]))
    assert np.allclose(h, np.diag([0.0, -np.pi]), atol=1e-12)


def test_gap_branch_log_round_trip():
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 8, 33, 64):
        u = haar_unitary(n, rng)
        h = gap_branch_log(u)
        assert op_norm(h - adjoint(h)) < 1e-12
        assert op_norm(exp_i_herm(h) - u) < 1e-10
        # spectrum fits in an interval of length <= 2*pi - 2*pi/n
        w = np.linalg.eigvalsh(h)
        assert w[-1] - w[0] <= 2 * np.pi - 2 * np.pi / n + 1e-9


def test_gap_branch_log_keeps_small_negative_angles():
    # the angle -1e-10 used to be reduced to 2 pi - 1e-10 and shifted back,
    # which left it off by 8e-18 (-1.00000008e-10); it keeps its last bits
    for phi in (1e-10, 1e-3):
        h = gap_branch_log(np.diag(np.exp(1j * np.array([phi, -phi]))))
        assert h[0, 1] == h[1, 0] == 0.0
        for got, want in zip(np.diag(h).real, (phi, -phi)):
            assert abs(got - want) <= 4.0 * np.spacing(phi)


def test_gap_branch_log_rejects_nonunitary():
    with pytest.raises(PreconditionError):
        gap_branch_log(np.diag([0.5, 1.0]))


# ---------------------------------------------------------------- principal log


def test_principal_log_small_angles():
    u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0])))
    h = principal_log_unitary(u)
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), [-1.2, 0.3, 2.0], atol=1e-12)
    assert op_norm(exp_i_herm(h) - u) < 1e-12


def test_principal_log_branch_point():
    with pytest.raises(BranchPointError):
        principal_log_unitary(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------- commutator


def test_commutator_diagonals_commute():
    a, b = np.diag([1.0, 2.0]), np.diag([3.0 + 1j, 4.0])
    assert op_norm(commutator(a, b)) == 0.0


def test_commutator_clock_shift_norm():
    # [Omega_n, Sigma_n] = (1 - exp(-2*pi*i/n)) * Omega_n Sigma_n, so the
    # norm is |1 - exp(-2*pi*i/n)| = 2*sin(pi/n)
    for n in (2, 3, 4, 9, 30):
        omega, sigma = _clock_shift(n)
        got = op_norm(commutator(omega, sigma))
        assert got == pytest.approx(2.0 * np.sin(np.pi / n), abs=1e-12)


def test_commutator_dimension_mismatch():
    with pytest.raises(PreconditionError):
        commutator(np.eye(2), np.eye(3))
