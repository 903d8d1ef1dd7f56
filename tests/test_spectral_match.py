from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from helpers import haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from torlinks import spectral_match
from torlinks.cli import decode_bundle, gen_bundle
from torlinks.homotopy import MODES, toral_links
from torlinks.jointspec import NormalTuple, joint_spectrum
from torlinks.matcore import PreconditionError, adjoint, commutator, op_norm
from torlinks.spectral_match import (
    _assign,
    bottleneck_assign,
    isospectral_approximant,
    spectral_cost_matrix,
)


def brute_force_bottleneck(cost: np.ndarray) -> tuple[float, float, tuple[int, ...]]:
    """Oracle: scan all permutations; order by (max cost, total cost, perm)."""
    n = cost.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        matched = [cost[i, perm[i]] for i in range(n)]
        key = (max(matched), sum(matched), perm)
        if best is None or key < best:
            best = key
    return best


def _close_tuples(n, count, delta, rng):
    q = haar_unitary(n, rng)
    xs, ys = [], []
    for _ in range(count):
        d = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        noise = delta * (rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        d2 = d + noise
        d2 = d2 / np.maximum(1.0, np.abs(d2))
        xs.append((q * d) @ adjoint(q))
        ys.append((q * d2) @ adjoint(q))
    kw = dict(commutation_tol=1e-12, normality_tol=1e-12)
    return NormalTuple(xs, **kw), NormalTuple(ys, **kw)


# ------------------------------------------------------------- cost matrix


def test_cost_matrix_single_points():
    c = spectral_cost_matrix(np.array([[0.0 + 0.0j]]), np.array([[3.0 + 4.0j]]))
    assert c[0, 0] == pytest.approx(5.0, abs=1e-14)


def test_cost_matrix_two_coordinates():
    px = np.array([[0.0, 0.0]], dtype=complex)
    py = np.array([[1.0, 1.0j]], dtype=complex)
    c = spectral_cost_matrix(px, py)
    assert c[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_cost_matrix_shape_mismatch():
    with pytest.raises(PreconditionError):
        spectral_cost_matrix(np.zeros((2, 1)), np.zeros((3, 1)))


# ------------------------------------------------------------- bottleneck


def test_bottleneck_prefers_swap():
    c = np.array([[0.5, 0.1], [0.2, 0.6]])
    m = bottleneck_assign(c)
    assert list(m.tau) == [1, 0]
    assert m.bottleneck == pytest.approx(0.2, abs=1e-14)


def test_bottleneck_refuses_an_empty_cost_matrix():
    with pytest.raises(PreconditionError, match="cost matrix is empty"):
        bottleneck_assign(np.zeros((0, 0)))


def test_bottleneck_zero_diagonal():
    m = bottleneck_assign(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert list(m.tau) == [0, 1]
    assert m.bottleneck == 0.0


def test_bottleneck_all_equal_ties_to_identity():
    m = bottleneck_assign(np.full((4, 4), 0.7))
    assert list(m.tau) == [0, 1, 2, 3]


def test_bottleneck_sum_tiebreak():
    # both perms have bottleneck 1.0; identity has smaller total
    c = np.array([[0.1, 1.0], [1.0, 0.2]])
    m = bottleneck_assign(c)
    assert list(m.tau) == [0, 1]
    assert m.sum_cost == pytest.approx(0.3, abs=1e-14)


def test_bottleneck_matches_brute_force():
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(1, 8))
        c = rng.random((n, n))
        if trial % 3 == 0:
            # quantized costs force ties
            c = np.round(c * 4) / 4.0
        m = bottleneck_assign(c)
        bb, bs, bp = brute_force_bottleneck(c)
        assert m.bottleneck == pytest.approx(bb, abs=1e-12)
        assert m.sum_cost == pytest.approx(bs, abs=1e-9)
        assert tuple(m.tau) == bp


@st.composite
def _cost_matrices(draw):
    """n x n costs for n <= 7 on a 1e-6 grid, or quantized to quarters to
    force ties."""
    n = draw(st.integers(1, 7))
    steps = 4 if draw(st.booleans()) else 10**6
    flat = draw(st.lists(st.integers(0, steps), min_size=n * n, max_size=n * n))
    return np.array(flat, dtype=float).reshape(n, n) / steps


def _lexicographic_bottleneck(cost: np.ndarray) -> tuple:
    """Oracle of the documented order: least bottleneck, then the first
    permutation whose total is within 1e-9 (relative) of the least total."""
    perms = list(itertools.permutations(range(cost.shape[0])))
    matched = [[cost[i, p[i]] for i in range(len(p))] for p in perms]
    b = min(max(m) for m in matched)
    s = min(sum(m) for m in matched if max(m) == b)
    tol = 1e-9 * (1.0 + s)
    return b, s, next(p for p, m in zip(perms, matched) if max(m) == b and sum(m) <= s + tol)


def test_bottleneck_property_against_brute_force():
    # the lexicographic pass starts from one min-sum assignment under the
    # bottleneck and moves it only when a smaller column also completes
    # optimally; some example must take that path
    moved = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_cost_matrices())
    def check(c):
        m = bottleneck_assign(c)
        b, s, perm = _lexicographic_bottleneck(c)
        assert m.bottleneck == b
        assert m.sum_cost == pytest.approx(s, abs=1e-9)
        assert tuple(m.tau) == perm
        _, cols = linear_sum_assignment(np.where(c <= b, c, c.shape[0] * c.max() + 1.0))
        moved.append(tuple(cols) != perm)

    check()
    assert any(moved)


def _spectral_costs(n: int, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Costs between n random points of the unit polydisc in C^2 and a copy
    moved by up to delta, in random order: the shape spectral matching sees."""
    px = np.sqrt(rng.random((n, 2))) * np.exp(2j * np.pi * rng.random((n, 2)))
    py = px + delta * rng.random((n, 2)) * np.exp(2j * np.pi * rng.random((n, 2)))
    return spectral_cost_matrix(px, py[rng.permutation(n)])


@st.composite
def _assignment_costs(draw):
    """n x n costs for n <= 64: uniform, quantized to quarters (ties), or
    spectral."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(("uniform", "quarters", "spectral")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "spectral":
        return _spectral_costs(n, draw(st.sampled_from((1e-3, 0.3))), rng)
    c = rng.random((n, n))
    return np.round(c * 4) / 4.0 if kind == "quarters" else c


def test_assign_is_optimal_with_dual_certificate():
    # scipy's solver is the oracle for the optimal sum; the duals prove
    # optimality on their own: feasible everywhere, tight on the assignment
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_assignment_costs())
    def check(c):
        n = c.shape[0]
        cols, u, v = _assign(c)
        assert sorted(cols) == list(range(n))
        best = c[linear_sum_assignment(c)].sum()
        assert c[np.arange(n), cols].sum() == pytest.approx(best, rel=1e-9, abs=1e-12)
        reduced = c - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-12
        assert np.abs(reduced[np.arange(n), cols]).max() <= 1e-12

    check()


def _hard_costs(family: str, n: int) -> np.ndarray:
    """Cost families that force many ties or long augmenting paths."""
    rng = np.random.default_rng(n)
    if family == "uniform":
        return rng.random((n, n))
    if family == "roots":
        # n-th roots of unity against a copy rotated by pi/n: two equal
        # nearest partners for every point
        z = np.exp(2j * np.pi * np.arange(n) / n)
        return spectral_cost_matrix(z, z * np.exp(1j * np.pi / n))
    # clusters of 4 equal points, against a 1e-3 shift or against themselves
    p = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    px = np.repeat(p, 4)[:n]
    return spectral_cost_matrix(px, px + (1e-3 if family == "clustered" else 0.0))


def _scipy_bottleneck(c: np.ndarray) -> tuple:
    """Oracle: the least threshold whose edges hold a permutation (scipy's
    solver on the indicator of the excess), and scipy's min-sum below it."""
    values = np.unique(c)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        over = (c > values[mid]).astype(float)
        lo, hi = (lo, mid) if over[linear_sum_assignment(over)].sum() == 0 else (mid + 1, hi)
    masked = np.where(c <= values[lo], c, c.shape[0] * c.max() + 1.0)
    return values[lo], masked[linear_sum_assignment(masked)].sum()


@pytest.mark.parametrize("family", ["uniform", "roots", "clustered", "clustered_self"])
@pytest.mark.parametrize("n", [4, 7, 16, 64])
def test_bottleneck_on_hard_families(family, n):
    c = _hard_costs(family, n)
    m = bottleneck_assign(c)
    b, s = _scipy_bottleneck(c)
    assert m.bottleneck == b
    assert m.sum_cost == pytest.approx(s, rel=1e-9)
    if n <= 7:
        assert tuple(m.tau) == _lexicographic_bottleneck(c)[2]


def test_bottleneck_rejects_bad_cost():
    with pytest.raises(PreconditionError):
        bottleneck_assign(np.array([[1.0, -0.5], [0.0, 1.0]]))
    with pytest.raises(PreconditionError):
        bottleneck_assign(np.array([[np.inf, 1.0], [0.0, 1.0]]))


# ------------------------------------------------------------- approximant


def _psi_distance(a, y):
    """max_j ||psi_j - y_j||, the distance the approximant achieves."""
    return max(op_norm(pj - yj) for pj, yj in zip(a.psi, y.mats))


def test_approximant_identical_tuples():
    rng = np.random.default_rng(32)
    x, _ = _close_tuples(6, 2, 0.0, rng)
    a = isospectral_approximant(x, x)
    assert _psi_distance(a, x) <= 1e-9
    for pj, xj in zip(a.psi, x.mats):
        assert op_norm(pj - xj) <= 1e-9


def test_approximant_diagonal_pair_bound():
    x = NormalTuple([np.diag([0.0, 1.0]), np.diag([0.0, 1.0])], commutation_tol=1e-12)
    eps = 1e-3
    y = NormalTuple(
        [np.diag([eps, 1.0 - eps]), np.diag([eps, 1.0 - eps])], commutation_tol=1e-12
    )
    a = isospectral_approximant(x, y)
    assert _psi_distance(a, y) <= np.sqrt(2.0) * eps + 1e-12
    assert a.matching.bottleneck <= np.sqrt(2.0) * eps + 1e-12


def test_approximant_scalar():
    x = NormalTuple([np.array([[0.5]])])
    y = NormalTuple([np.array([[0.6]])])
    a = isospectral_approximant(x, y)
    assert abs(abs(a.v[0, 0]) - 1.0) < 1e-12
    assert _psi_distance(a, y) == pytest.approx(0.1, abs=1e-12)


def test_approximant_invariants_random():
    rng = np.random.default_rng(33)
    for n, count in ((4, 2), (12, 3)):
        x, y = _close_tuples(n, count, 1e-3, rng)
        a = isospectral_approximant(x, y)
        assert op_norm(adjoint(a.v) @ a.v - np.eye(n)) < 1e-10
        for pj, xj in zip(a.psi, x.mats):
            sx = np.sort_complex(np.linalg.eigvals(xj))
            sp = np.sort_complex(np.linalg.eigvals(pj))
            assert np.max(np.abs(sx - sp)) < 1e-8
        for pj in a.psi:
            for yk in y.mats:
                assert op_norm(commutator(pj, yk)) < 1e-8
        assert _psi_distance(a, y) <= a.matching.bottleneck + 1e-9


def test_approximants_are_formed_once_on_first_read():
    rng = np.random.default_rng(35)
    x, y = _close_tuples(6, 3, 1e-3, rng)
    a = isospectral_approximant(x, y)
    assert "psi" not in vars(a)
    psi = a.psi
    assert a.psi is psi
    assert all(np.array_equal(pj, adjoint(a.v) @ xj @ a.v) for pj, xj in zip(psi, x.mats))


def test_toral_links_never_form_the_approximants(monkeypatch):
    # the curved factors start on x_j and are moved by the branch log of V;
    # no psi_j = V* x_j V is read (2N products each time it was formed)
    def refuse(self):
        raise AssertionError("psi formed")

    monkeypatch.setattr(spectral_match.Approximant, "psi", property(refuse))
    for mode in MODES:
        for perturb in ("within", "generic"):
            art = gen_bundle("commuting_pair", 6, N=3, delta=1e-2, seed=1, mode=mode,
                             perturb=perturb)
            loaded = decode_bundle(art, "mem")
            toral_links(loaded["x"], loaded["y"], mode=mode)


def test_bottleneck_assign_against_sum_assignment():
    rng = np.random.default_rng(34)
    x, y = _close_tuples(5, 2, 1e-2, rng)
    cost = spectral_cost_matrix(joint_spectrum(x), joint_spectrum(y))
    rows, cols = linear_sum_assignment(cost)
    hungarian = cost[rows, cols]
    b = bottleneck_assign(cost)
    assert hungarian.sum() <= b.sum_cost + 1e-12
    assert b.bottleneck <= hungarian.max() + 1e-12


def test_approximant_bound_equals_coordinate_bottleneck():
    rng = np.random.default_rng(35)
    x, y = _close_tuples(8, 2, 1e-2, rng)
    a = isospectral_approximant(x, y)
    px = joint_spectrum(x)
    py = joint_spectrum(y)
    per_coord = max(
        np.max(np.abs(px[:, j] - py[a.matching.tau, j])) for j in range(x.N)
    )
    assert _psi_distance(a, y) <= per_coord + 1e-9
    assert per_coord <= a.matching.bottleneck + 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bottleneck_assign(np.zeros((2, 3))), "cost matrix must be square, got (2, 3)"),
        (lambda: isospectral_approximant(NormalTuple([np.eye(2)]), NormalTuple([np.eye(3)])),
         "tuples must have matching dimensions and lengths"),
        (lambda: isospectral_approximant(
            NormalTuple([np.eye(2)]), NormalTuple([np.eye(2), np.eye(2)])
        ), "tuples must have matching dimensions and lengths"),
    ],
)
def test_precondition_messages(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
