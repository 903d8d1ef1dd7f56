from unittest import mock

import numpy as np
import pytest

from torlinks import softtorus
from torlinks.matcore import PreconditionError, adjoint, commutator, op_norm
from torlinks.softtorus import (
    GapUndefinedError,
    SpanNotStabilizedError,
    algebra_dimension,
    bott_index,
    clock_shift,
    soft_pair,
)


def test_clock_shift_size_two_matches_display():
    cs = clock_shift(2)
    assert np.allclose(cs.omega, np.diag([1.0, -1.0]))
    assert np.allclose(cs.sigma, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(cs.s2, np.diag([-1.0, 1.0]))
    assert np.allclose(cs.number, np.diag([2.0, 1.0]))
    assert np.allclose(cs.fourier, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_clock_shift_size_one_is_trivial():
    cs = clock_shift(1)
    for m in cs:
        assert m.shape == (1, 1)
        assert m[0, 0] == 1.0
    with pytest.raises(PreconditionError):
        clock_shift(0)


def test_clock_is_fourier_conjugate_of_shift():
    for n in (2, 3, 4, 7, 16, 33, 128, 256):
        cs = clock_shift(n)
        err = op_norm(cs.omega - adjoint(cs.fourier) @ cs.sigma @ cs.fourier)
        assert err <= 1e-12, f"n={n}: {err}"


def test_clock_shift_torsion_relations():
    for n in (2, 5, 16, 64):
        cs = clock_shift(n)
        assert op_norm(np.linalg.matrix_power(cs.omega, n) - np.eye(n)) <= 1e-11
        assert op_norm(np.linalg.matrix_power(cs.sigma, n) - np.eye(n)) <= 1e-11
        assert op_norm(cs.s2 @ cs.s2 - np.eye(n)) <= 1e-11


def test_clock_shift_commutator_norm_formula():
    for n in (2, 3, 4, 9, 30, 256):
        cs = clock_shift(n)
        got = op_norm(commutator(cs.omega, cs.sigma))
        assert abs(got - 2 * np.sin(np.pi / n)) <= 1e-12


def test_algebra_dimension_of_identity_is_one():
    assert algebra_dimension([np.eye(4)]) == 1


def test_algebra_dimension_of_clock_is_n():
    for n in (2, 3, 5, 8):
        cs = clock_shift(n)
        assert algebra_dimension([cs.omega]) == n


def test_algebra_dimension_sign_and_shift_fill_matrix_algebra():
    for n in (2, 3, 4, 5):
        cs = clock_shift(n)
        assert algebra_dimension([cs.s2, cs.sigma]) == n * n


def test_algebra_dimension_clock_and_shift_fill_matrix_algebra():
    cs = clock_shift(3)
    assert algebra_dimension([cs.omega, cs.sigma]) == 9


def test_algebra_dimension_flags_unstabilized_span():
    cs = clock_shift(8)
    with pytest.raises(SpanNotStabilizedError) as err:
        algebra_dimension([cs.s2, cs.sigma], max_len=2)
    assert 1 < err.value.partial < 64


def test_algebra_dimension_rejects_mixed_sizes():
    with pytest.raises(PreconditionError):
        algebra_dimension([np.eye(2), np.eye(3)])


def test_soft_pair_zero_delta_commutes():
    sp = soft_pair(8, 0.0)
    assert sp.defect == 0.0
    assert op_norm(commutator(sp.u, sp.v)) == 0.0
    assert op_norm(adjoint(sp.u) @ sp.u - np.eye(8)) <= 1e-12
    assert op_norm(adjoint(sp.v) @ sp.v - np.eye(8)) <= 1e-12


@pytest.mark.parametrize("delta", [float("nan"), -1.0, float("inf")])
def test_soft_pair_refuses_a_bad_delta(delta):
    # delta = NaN used to return the commuting pair
    with pytest.raises(PreconditionError, match="^delta must be finite and >= 0"):
        soft_pair(4, delta)


@pytest.mark.parametrize("call", [lambda: clock_shift(2.5), lambda: soft_pair(1, 0.1)])
def test_sizes_must_be_integer_counts(call):
    with pytest.raises(PreconditionError, match="^n must be an integer >= "):
        call()


def test_soft_pair_hits_exact_clock_shift_at_matching_softness():
    delta = 2 * np.sin(np.pi / 16)
    sp = soft_pair(16, delta)
    cs = clock_shift(16)
    assert np.array_equal(sp.u, cs.omega)
    assert np.array_equal(sp.v, cs.sigma)
    assert sp.defect == pytest.approx(delta)


def test_soft_pair_pads_small_clock_shift():
    sp = soft_pair(5, 2.0)  # m = 2 suffices at delta = 2
    assert np.allclose(sp.u[2:, 2:], np.eye(3))
    assert np.allclose(sp.v[2:, 2:], np.eye(3))
    assert sp.defect == pytest.approx(2.0)


def test_soft_pair_falls_back_to_commuting_when_too_stiff():
    # no m <= 6 reaches softness 1e-3
    sp = soft_pair(6, 1e-3)
    assert sp.defect <= 1e-3
    assert sp.defect == 0.0


def test_soft_pair_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        soft_pair(1, 0.5)
    with pytest.raises(PreconditionError):
        soft_pair(4, -0.1)


def test_bott_index_of_clock_shift_is_plus_one():
    for n in (16, 32):
        cs = clock_shift(n)
        r = bott_index(cs.omega, cs.sigma)
        assert r.index == 1
        assert r.winding == 1
        assert r.defect == pytest.approx(2 * np.sin(np.pi / n))
        assert r.gap >= 0.05


def test_bott_index_vanishes_for_commuting_pairs():
    sp = soft_pair(8, 0.0)
    r = bott_index(sp.u, sp.v)
    assert r.index == 0
    assert r.winding == 0
    # spectrum of the block matrix collapses onto {0, 1}
    assert r.gap >= 0.5 - 1e-9


def test_bott_index_of_identity_pair_is_zero():
    r = bott_index(np.eye(4), np.eye(4))
    assert r.index == 0
    assert r.winding == 0


def test_bott_index_gap_gating_refuses_soft_pairs():
    cs = clock_shift(4)
    with pytest.raises(GapUndefinedError):
        bott_index(cs.omega, cs.sigma)
    # the winding oracle itself is still fine when gating is disabled
    r = bott_index(cs.omega, cs.sigma, gap_tol=0.0)
    assert r.winding == 1


def test_bott_index_refuses_before_the_defect_and_winding():
    # a refused pair gets neither its commutator norm nor the eigenvalues
    # of u v u* v*, which the error would discard
    cs = clock_shift(4)
    with mock.patch.object(softtorus, "op_norm", side_effect=AssertionError), \
            mock.patch.object(np.linalg, "eigvals", side_effect=AssertionError):
        with pytest.raises(GapUndefinedError, match="spectral gap"):
            bott_index(cs.omega, cs.sigma)


def test_bott_index_defect_and_winding_keep_their_bits():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = np.linalg.qr(z)[0]
    pairs = [clock_shift(16)[:2], (w @ clock_shift(6).omega @ adjoint(w), clock_shift(6).sigma)]
    for u, v in pairs:
        r = bott_index(u, v, gap_tol=0.0)
        assert r.defect == op_norm(commutator(u, v))
        angles = np.angle(np.linalg.eigvals(u @ v @ adjoint(u) @ adjoint(v)))
        assert r.winding == int(np.rint(np.sum(angles) / (2 * np.pi)))


def test_bott_index_rejects_non_unitaries():
    with pytest.raises(PreconditionError):
        bott_index(np.eye(3) * 2.0, np.eye(3))
    with pytest.raises(PreconditionError):
        bott_index(np.eye(3), np.eye(4))


def test_algebra_dimension_of_no_matrices_is_one():
    # the empty set generates the scalars alone
    assert algebra_dimension([]) == 1
