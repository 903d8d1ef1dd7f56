from __future__ import annotations

import cProfile
import pstats
import re
from unittest import mock

import numpy as np
import pytest
from helpers import haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from torlinks import matcore
from torlinks.jointspec import (
    NormalTuple,
    clifford_norm,
    clifford_rep,
    joint_diagonalize,
    joint_spectrum,
)
from torlinks.matcore import PreconditionError, adjoint, commutator, normal_eig, op_norm


def _commuting_tuple(n: int, count: int, rng: np.random.Generator) -> NormalTuple:
    """Random commuting normal contractions sharing one Haar eigenbasis."""
    q = haar_unitary(n, rng)
    mats = []
    for _ in range(count):
        d = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        mats.append((q * d) @ adjoint(q))
    return NormalTuple(mats, commutation_tol=1e-12, normality_tol=1e-12)


# ---------------------------------------------------------------- NormalTuple


def _extremal(t: float) -> np.ndarray:
    """[[0, a], [b, 0]] with |a|^2 = 1 + t and |b|^2 = 1 - t: A*A - 1 =
    diag(-t, t) and [A*, A] = diag(-2t, 2t), so ||[A*, A]|| = 2 ||A*A - 1||,
    the most the normality rule allows for."""
    return np.array([[0.0, np.sqrt(1.0 + t)], [np.sqrt(1.0 - t), 0.0]], dtype=complex)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 48),  # n
    st.sampled_from(["gaussian", "extremal"]),  # perturbation
    st.floats(-17.0, -8.0),  # log10 of its size
    st.floats(-12.0, -7.0),  # log10 tol
    st.integers(0, 2**16),  # seed
)
def test_the_normality_rule_accepts_only_normal_matrices(n, kind, log_size, log_tol, seed):
    # W + E for a Haar W and a perturbation E: a Gaussian one, or the
    # extremal pair conjugated by W in its leading 2 x 2 block
    rng = np.random.default_rng(seed)
    w = haar_unitary(n, rng)
    size, tol = 10.0**log_size, 10.0**log_tol
    if kind == "extremal" and n >= 2:
        m = np.eye(n, dtype=complex)
        m[:2, :2] = _extremal(size)
        a = w @ m @ adjoint(w)
    else:
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = w + size * e / op_norm(e)
    if matcore._normal_from_ata(matcore._ata(a), tol):
        assert op_norm(commutator(adjoint(a), a)) <= tol
    if size <= 1e-16 and tol >= 1e-10:
        # a unitary up to rounding passes at n = 48 with tol 1e-10
        assert matcore._normal_from_ata(matcore._ata(a), tol)


@pytest.mark.parametrize("t", [1e-3, 1e-6])
def test_the_normality_rule_refuses_the_extremal_pair_below_twice_its_gram_defect(t):
    a = _extremal(t)
    ata = matcore._ata(a)
    assert op_norm(ata - np.eye(2)) == pytest.approx(t, rel=1e-9)
    defect = op_norm(commutator(adjoint(a), a))
    assert defect == pytest.approx(2.0 * t, rel=1e-9)
    for tol in (1.01 * t, 1.5 * t, 1.99 * t):
        assert not matcore._normal_from_ata(ata, tol)
        with pytest.raises(PreconditionError, match="^matrix 0 has normality defect"):
            NormalTuple([a], normality_tol=tol)
        with pytest.raises(PreconditionError, match="^matrix is not normal within tolerance"):
            normal_eig(a, tol=tol)
    assert matcore._normal_from_ata(ata, 2.01 * t)


def test_the_normality_rule_never_fires_at_zero_tolerance_or_past_its_size():
    assert not matcore._normal_from_ata(np.eye(4, dtype=complex), 0.0)
    # 2 g = 12 n^2 u exceeds 1e-10 once n >= 274; the rule only needs diag
    # and norm bounds of A*A, so the identity stands in for a large unitary
    assert matcore._normal_from_ata(np.eye(273, dtype=complex), 1e-10)
    assert not matcore._normal_from_ata(np.eye(274, dtype=complex), 1e-10)


@pytest.mark.parametrize(
    "a, tol",
    [
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-10),  # nilpotent: the screen turns it away
        (_extremal(1e-3), 1.5e-3),  # a near-unitary the rule cannot settle
        (_extremal(1e-12), 1.5e-12),  # below the rule's rounding term
        (np.diag([0.5, 0.25j]) + 1e-6 * np.triu(np.ones((2, 2)), 1), 1e-8),
    ],
)
def test_normality_refusals_keep_their_messages(a, tol):
    # each refusal reads the exact ||[A*, A]|| as the full check does
    exact = op_norm(commutator(adjoint(a), a))
    want = f"matrix 0 has normality defect {exact:.3e} > {tol:.3e}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
        NormalTuple([a], normality_tol=tol)
    limit = tol * op_norm(a)
    want = f"matrix is not normal within tolerance: ||[A*, A]|| = {exact:.3e} > {limit:.3e}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
        normal_eig(a, tol=tol)


def test_tuple_validation_rejects_noncommuting():
    x = np.diag([1.0, -1.0])
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError):
        NormalTuple([x, s], commutation_tol=1e-10)


def test_infinite_commutation_tolerance_measures_no_commutator():
    # clock and shift do not commute: ||[omega, sigma]|| = 2 sin(pi / 4)
    omega = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    sigma = np.roll(np.eye(4), 1, axis=0)
    prof = cProfile.Profile()
    t = prof.runcall(NormalTuple, [omega, sigma], commutation_tol=float("inf"))
    assert t.N == 2
    commutators = sum(
        stat[1]
        for (path, _, name), stat in pstats.Stats(prof).stats.items()
        if path == matcore.__file__ and name == "commutator"
    )
    assert commutators == 0
    with pytest.raises(PreconditionError, match="commutator norm"):
        NormalTuple([omega, sigma], commutation_tol=1.0)


def test_tuple_validation_rejects_an_empty_matrix():
    with pytest.raises(PreconditionError, match=r"nonempty matrix, got shape \(0, 0\)"):
        NormalTuple([np.zeros((0, 0))])


def test_tuple_validation_rejects_noncontraction():
    with pytest.raises(PreconditionError):
        NormalTuple([np.diag([2.0, 0.0])])


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_bad_commutation_tolerance_is_refused_by_name(tol):
    # a NaN tolerance used to pass every commutator, and -1 reported
    # "commutator norm 1.414e+00 > -1.000e+00" instead of naming the tolerance
    omega = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    sigma = np.roll(np.eye(4), 1, axis=0)
    with pytest.raises(PreconditionError, match="^commutation_tol must be >= 0 or inf"):
        NormalTuple([omega, sigma], commutation_tol=tol)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_bad_normality_tolerance_is_refused_by_name(tol):
    # a NaN tolerance used to accept this nilpotent matrix as normal
    with pytest.raises(PreconditionError, match="^normality_tol must be finite and >= 0"):
        NormalTuple([np.array([[0.0, 0.5], [0.0, 0.0]])], normality_tol=tol)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_bad_cluster_tolerance_is_refused_by_name(tol):
    # NaN and inf used to turn cluster refinement off without a word
    with pytest.raises(PreconditionError, match="^cluster_tol must be finite and >= 0"):
        joint_diagonalize(NormalTuple([np.diag([0.5, 0.5])]), cluster_tol=tol)


def test_zero_and_infinite_commutation_tolerances_stay_valid():
    assert NormalTuple([np.diag([0.5, -0.5])] * 2, commutation_tol=0.0, normality_tol=0.0).N == 2
    omega = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    assert NormalTuple([omega, np.roll(np.eye(4), 1, axis=0)], commutation_tol=np.inf).N == 2


# ---------------------------------------------------------------- partition


def test_partition_diagonal_example():
    parts = matcore._hermitian_parts([np.diag([1.0j, 0.5])])
    assert np.allclose(parts[0], np.diag([0.0, 0.5]), atol=1e-14)
    assert np.allclose(parts[1], np.diag([1.0, 0.0]), atol=1e-14)


def test_partition_hermitian_fixed_point():
    h = np.array([[0.3, 0.1], [0.1, -0.2]])
    parts = matcore._hermitian_parts([h])
    assert np.allclose(parts[0], h, atol=1e-14)
    assert np.allclose(parts[1], 0.0, atol=1e-14)


def test_partition_reassembles_and_commutes():
    rng = np.random.default_rng(21)
    t = _commuting_tuple(8, 3, rng)
    parts = matcore._hermitian_parts(t.mats)
    assert len(parts) == 6
    for j, m in enumerate(t.mats):
        re, im = parts[j], parts[j + 3]
        assert op_norm(re + 1j * im - m) < 1e-13
        assert op_norm(re - adjoint(re)) < 1e-13
    worst = max(
        op_norm(commutator(a, b)) for i, a in enumerate(parts) for b in parts[i + 1 :]
    )
    assert worst < 1e-11


# ---------------------------------------------------------------- joint diag


def test_joint_diagonalize_already_diagonal():
    t = NormalTuple([np.diag([0.2, 0.9]), np.diag([0.5j, -0.1])])
    js = joint_diagonalize(t)
    assert js.residual < 1e-12
    assert np.allclose(js.points[:, 0], [0.2, 0.9], atol=1e-12)
    assert np.allclose(js.points[:, 1], [0.5j, -0.1], atol=1e-12)


def test_joint_diagonalize_conjugated_points():
    rng = np.random.default_rng(22)
    q = haar_unitary(2, rng)
    x1 = (q * np.array([0.25, 0.5])) @ adjoint(q)
    x2 = (q * np.array([0.75, 1.0])) @ adjoint(q)
    t = NormalTuple([x1, x2], commutation_tol=1e-12)
    pts = joint_spectrum(t)
    assert np.allclose(pts[:, 0], [0.25, 0.5], atol=1e-10)
    assert np.allclose(pts[:, 1], [0.75, 1.0], atol=1e-10)


def test_joint_diagonalize_single_matrix_matches_normal_eig():
    rng = np.random.default_rng(23)
    t = _commuting_tuple(7, 1, rng)
    js = joint_diagonalize(t)
    q, lam = normal_eig(t.mats[0])
    assert np.array_equal(js.q, q)
    assert np.array_equal(js.points[:, 0], lam)


def test_joint_diagonalize_degenerate_first_matrix():
    # the first matrix alone cannot separate the basis, but one random
    # combination of all the parts separates the three points: one _simdiag
    # call, with no cluster recursion and no redraw
    rng = np.random.default_rng(24)
    q = haar_unitary(3, rng)
    x1 = (q * np.array([0.5, 0.5, -0.25])) @ adjoint(q)
    x2 = (q * np.array([0.1, 0.7, 0.9])) @ adjoint(q)
    t = NormalTuple([x1, x2], commutation_tol=1e-12)
    with mock.patch.object(matcore, "_simdiag", wraps=matcore._simdiag) as spy:
        js = joint_diagonalize(t)
    assert spy.call_count == 1
    assert js.residual <= 1e-8
    got = sorted(zip(np.round(js.points[:, 0].real, 6), np.round(js.points[:, 1].real, 6)))
    assert got == [(-0.25, 0.9), (0.5, 0.1), (0.5, 0.7)]


def test_joint_diagonalize_residuals_random():
    rng = np.random.default_rng(25)
    for n, count in ((4, 2), (16, 3), (32, 2)):
        t = _commuting_tuple(n, count, rng)
        js = joint_diagonalize(t)
        assert js.residual <= 1e-8
        assert op_norm(adjoint(js.q) @ js.q - np.eye(n)) < 1e-10
        for j, m in enumerate(t.mats):
            d = adjoint(js.q) @ m @ js.q
            assert np.allclose(np.diag(d), js.points[:, j])


def test_joint_diagonalize_residual_bounds_the_exact_one():
    # a draw is accepted on the cheap off-diagonal bound, which is reported:
    # never below the exact off-diagonal norm, never above the target
    rng = np.random.default_rng(29)
    for n, count in ((1, 2), (4, 2), (16, 3), (32, 2)):
        t = _commuting_tuple(n, count, rng)
        js = joint_diagonalize(t)
        exact = 0.0
        for m in t.mats:
            d = adjoint(js.q) @ m @ js.q
            exact = max(exact, op_norm(d - np.diag(np.diag(d))))
        assert exact <= js.residual <= max(1e-8, 100.0 * t.commutation_tol)


def test_joint_diagonalize_row_order_deterministic():
    rng = np.random.default_rng(26)
    t = _commuting_tuple(9, 2, rng)
    a = joint_diagonalize(t, seed=0)
    b = joint_diagonalize(t, seed=0)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.points, b.points)
    keys = a.points[:, 0]
    assert np.all(np.diff(keys.real) > -1e-12)


def test_joint_diagonalize_rejects_soft_tuple():
    omega = np.diag([1.0, -1.0])
    sigma = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = NormalTuple([omega, sigma], commutation_tol=2.1)
    with pytest.raises(PreconditionError):
        joint_diagonalize(t)


def _near_collision(seed: int) -> tuple[np.ndarray, NormalTuple]:
    """Six joint points in C^2 and the commuting pair that has them, rotated
    by a Haar unitary. Points 0 and 1 differ by 2.2e-8 * (1, -1).

    A random positive combination of the Hermitian parts separates those two
    by |c_1 - c_2| * 2.2e-8, often within the cluster threshold 1e-8, while
    the compressed real parts are not scalar within 1e-8: the cluster has to
    be refined by a recursive draw.
    """
    rng = np.random.default_rng(seed)
    pts = 0.1 * (rng.uniform(-1.0, 1.0, (6, 2)) + 1j * rng.uniform(-1.0, 1.0, (6, 2)))
    pts[1] = pts[0] + 2.2e-8 * np.array([1.0, -1.0])
    q = haar_unitary(6, rng)
    return pts, NormalTuple([(q * pts[:, j]) @ adjoint(q) for j in range(2)])


def test_joint_diagonalize_refines_a_near_collision():
    recursed = 0
    for seed in range(8):
        pts, t = _near_collision(seed)
        with mock.patch.object(matcore, "_simdiag", wraps=matcore._simdiag) as spy:
            js = joint_diagonalize(t, seed=seed)
        recursed += any(c.args[0][0].shape[0] < 6 for c in spy.call_args_list)
        exact = 0.0
        for m in t.mats:
            d = adjoint(js.q) @ m @ js.q
            exact = max(exact, op_norm(d - np.diag(np.diag(d))))
        assert exact <= js.residual <= 1e-8
        # the same multiset: each constructed point has its own nearest row
        dist = np.abs(pts[:, None, :] - js.points[None, :, :]).max(axis=2)
        nearest = dist.argmin(axis=1)
        assert sorted(nearest) == list(range(6))
        assert dist[np.arange(6), nearest].max() < 1e-12
    assert recursed > 0


# ---------------------------------------------------------------- clifford


def test_clifford_rep_relations():
    for count in (1, 2, 3, 4, 5):
        gens = clifford_rep(count)
        dim = 2 ** ((count + 1) // 2)
        assert all(g.shape == (dim, dim) for g in gens)
        for j, g in enumerate(gens):
            assert op_norm(g - adjoint(g)) < 1e-14
            assert op_norm(g @ g - np.eye(dim)) < 1e-14
            for k in range(j + 1, count):
                h = gens[k]
                assert op_norm(g @ h + h @ g) < 1e-14


def test_clifford_norm_single_hermitian():
    x = np.diag([0.3, -0.9])
    _, nrm = clifford_norm([x])
    assert nrm == pytest.approx(0.9, abs=1e-12)


def test_clifford_norm_projection_pair():
    x1, x2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    cliff, nrm = clifford_norm([x1, x2])
    assert cliff.shape == (4, 4)
    # commuting Hermitian pair: norm^2 = ||x1^2 + x2^2|| = 1
    assert nrm == pytest.approx(1.0, abs=1e-12)


def test_clifford_norm_triangle_bound():
    rng = np.random.default_rng(27)
    for _ in range(10):
        count = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        mats = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(count)
        ]
        _, nrm = clifford_norm(mats)
        assert nrm <= sum(op_norm(m) for m in mats) + 1e-10


def test_clifford_norm_commuting_hermitian_identity():
    rng = np.random.default_rng(28)
    for _ in range(5):
        n = int(rng.integers(2, 10))
        count = int(rng.integers(2, 5))
        q = haar_unitary(n, rng)
        mats = [(q * (2.0 * rng.random(n) - 1.0)) @ adjoint(q) for _ in range(count)]
        mats = [(m + adjoint(m)) / 2 for m in mats]
        _, nrm = clifford_norm(mats)
        s = sum(m @ m for m in mats)
        assert nrm**2 == pytest.approx(op_norm(s), abs=1e-10)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: NormalTuple([]), "tuple must contain at least one matrix"),
        (lambda: NormalTuple([np.eye(2), np.eye(3)]), "all matrices must share one dimension"),
        (lambda: clifford_rep(0), "n_gens must be an integer >= 1, got 0"),
        (lambda: clifford_norm([np.eye(2), np.eye(3)]), "all matrices must share one dimension"),
        (lambda: joint_diagonalize(NormalTuple([np.eye(2)]), seed=-1),
         "seed must be an integer >= 0, got -1"),
    ],
)
def test_precondition_messages(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
