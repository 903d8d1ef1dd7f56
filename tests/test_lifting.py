import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torlinks.cli import decode_bundle, gen_bundle
from torlinks.homotopy import Flat, certify
from torlinks.jointspec import NormalTuple
from torlinks.lifting import (
    LiftedHom,
    _decay_bound,
    iota2,
    kappa_compress,
    lifted_links,
)
from torlinks.matcore import PreconditionError, adjoint, exp_i_herm, herm_eig, op_norm
from torlinks.spectral_match import isospectral_approximant

REPORT_KEYS = {
    "hermiticity",
    "unitarity",
    "exp_identity",
    "kappa_identity_error",
    "phi_displacement",
    "hom_product_defect",
    "hom_star_defect",
    "hom_unit_defect",
    "decay_max_error",
}


def _haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _close_commuting_pairs(n, rng, delta):
    """Two exactly commuting pairs, entrywise delta-close in a rotated basis."""
    q = _haar_unitary(n, rng)
    m = int(np.ceil(np.sqrt(n)))
    xs = np.linspace(-0.7, 0.7, m)
    d1 = np.array([a + 1j * b for b in xs for a in xs])[:n]
    d2 = d1[rng.permutation(n)]
    x = NormalTuple([(q * d1) @ adjoint(q), (q * d2) @ adjoint(q)])
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (k + adjoint(k)) / 2
    w, v = np.linalg.eigh(k / op_norm(k))
    r = (v * np.exp(1j * (delta / 4) * w)) @ adjoint(v)
    e1 = d1 + delta / 4 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    e2 = d2 + delta / 4 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    y = NormalTuple(
        [r @ (q * e1) @ adjoint(q) @ adjoint(r), r @ (q * e2) @ adjoint(q) @ adjoint(r)]
    )
    return x, y


def test_iota2_doubles_blocks():
    assert np.allclose(iota2(np.array([[3.0]])), np.diag([3.0, 3.0]))
    assert np.allclose(iota2(np.eye(3)), np.eye(6))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert op_norm(iota2(x)) == pytest.approx(op_norm(x))


def test_kappa_inverts_iota2_exactly():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(kappa_compress(iota2(x)), x)
    assert kappa_compress(np.diag([1.0, 2.0]))[0, 0] == 1.0


def test_kappa_extracts_upper_left_block():
    a = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(kappa_compress(a), a[:2, :2])
    with pytest.raises(PreconditionError):
        kappa_compress(np.eye(3))


def test_z2_dilation_of_scalar_is_swap():
    lift = LiftedHom(np.array([[1.0]]))
    assert np.allclose(lift.what_s, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_z2_dilation_invariants():
    rng = np.random.default_rng(3)
    for n in (2, 5):
        lift = LiftedHom(_haar_unitary(n, rng))
        w = lift.what_s
        assert op_norm(w - adjoint(w)) <= 1e-12
        assert op_norm(w @ w - np.eye(2 * n)) <= 1e-12
        assert op_norm(exp_i_herm(lift.generator()) - w) <= 1e-10
    with pytest.raises(PreconditionError):
        LiftedHom(np.ones((2, 2)))


def test_lift_compression_is_bit_exact():
    rng = np.random.default_rng(4)
    lift = LiftedHom(_haar_unitary(4, rng))
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(kappa_compress(lift.apply(x)), x)


def test_lift_is_star_homomorphism_on_samples():
    rng = np.random.default_rng(5)
    lift = LiftedHom(_haar_unitary(3, rng))
    for _ in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert op_norm(lift.apply(a @ b) - lift.apply(a) @ lift.apply(b)) <= 1e-10
        assert op_norm(lift.apply(adjoint(a)) - adjoint(lift.apply(a))) <= 1e-12
    assert op_norm(lift.apply(np.eye(3)) - np.eye(6)) <= 1e-12
    with pytest.raises(PreconditionError):
        lift.apply(np.eye(4))


def test_lifted_links_scalars_are_flat_only():
    x = NormalTuple([np.array([[0.5]])])
    y = NormalTuple([np.array([[0.4]])])
    lift, bundle, report = lifted_links(x, y)
    assert len(bundle.links[0].segments) == 1
    assert isinstance(bundle.links[0].segments[0], Flat)
    assert np.allclose(bundle.x_mats[0], np.diag([0.5, 0.5]))
    assert np.allclose(bundle.y_mats[0], np.diag([0.4, 0.4]))
    assert report["kappa_identity_error"] == 0.0


@pytest.mark.parametrize("grid_points", [0, -1, 1, 2.5])
def test_lifted_links_refuses_a_grid_below_two_points(grid_points):
    # grid_points = 0 used to end in numpy's ValueError on an empty grid
    x = NormalTuple([np.array([[0.5]])])
    with pytest.raises(PreconditionError, match="^grid_points must be an integer >= 2, got "):
        lifted_links(x, x, grid_points=grid_points)


def test_lifted_links_identical_tuples():
    rng = np.random.default_rng(6)
    x, _ = _close_commuting_pairs(6, rng, 0.0)
    lift, bundle, report = lifted_links(x, x)
    slack = max(
        op_norm(phi - iota2(xj)) for phi, xj in zip(bundle.x_mats, x.mats)
    )
    assert bundle.epsilon_reported <= slack + 1e-9
    cert = certify(bundle, eps=max(slack, 1e-9))
    assert cert.passed


def test_lifted_links_close_pair_certifies():
    rng = np.random.default_rng(7)
    x, y = _close_commuting_pairs(8, rng, 1e-3)
    lift, bundle, report = lifted_links(x, y)
    cert = certify(bundle, eps=1.0)
    assert cert.passed
    # perfbench's lift check reads these keys; a renamed one would fail every op
    assert set(report) == REPORT_KEYS
    assert report["kappa_identity_error"] == 0.0
    assert report["hom_product_defect"] <= 1e-10
    assert report["hom_star_defect"] <= 1e-12
    assert report["hom_unit_defect"] <= 1e-12
    assert report["decay_max_error"] <= 1e-10
    assert report["exp_identity"] <= 1e-10
    # links end on the doubled targets
    for link, yj in zip(bundle.links, y.mats):
        assert op_norm(link.value(1.0) - iota2(yj)) <= 1e-9


def test_lifted_links_report_displacement_tracks_conjugator():
    # phi_displacement measures ||V*^2 x V^2 - x||; it collapses when X = Y
    rng = np.random.default_rng(8)
    x, y = _close_commuting_pairs(5, rng, 1e-2)
    _, _, report_far = lifted_links(x, y)
    _, _, report_same = lifted_links(x, x)
    assert report_same["phi_displacement"] <= report_far["phi_displacement"] + 1e-12
    assert report_same["phi_displacement"] <= 1e-9


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, by SVD rather than op_norm."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _decay_sample(s, q, w, psis, ts) -> float:
    """max over t and j of | ||[W_t, B_j]|| - |cos(pi t/2)| ||[S, B_j]|| |."""
    conjugators = (q[None] * np.exp(1j * np.outer(1.0 - ts, w))[:, None, :]) @ adjoint(q)
    decay = 0.0
    for psi in psis:
        b = iota2(psi)
        ref = _spectral_norms(s @ b - b @ s)
        lhs = _spectral_norms(conjugators @ b - b @ conjugators)
        decay = max(decay, np.max(np.abs(lhs - np.abs(np.cos(np.pi * ts / 2)) * ref)))
    return decay


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8),  # n
    st.integers(1, 3),  # N
    st.sampled_from([1e-3, 1e-2, 5e-2]),  # delta
    st.integers(0, 2**16),  # seed
    st.sampled_from(["within", "generic"]),
)
def test_lift_report_bounds_dense_samples(n, N, delta, seed, perturb):
    # the closed-form report entries must bound what a dense sample measures,
    # up to the rounding allowance of the certificate soundness tests
    art = gen_bundle("commuting_pair", n, N=N, delta=delta, seed=seed, perturb=perturb)
    loaded = decode_bundle(art, "mem")
    x, y = loaded["x"], loaded["y"]
    ts = np.linspace(0.0, 1.0, 1001)
    lift, _, report = lifted_links(x, y, seed=seed, grid_points=ts.size)

    q, w = herm_eig(lift.generator())
    psis = isospectral_approximant(x, y, seed=seed).psi
    decay = _decay_sample(lift.what_s, q, w, psis, ts)
    assert decay <= report["decay_max_error"] + 1e-12

    rng = np.random.default_rng(seed)
    for _ in range(20):
        a, b = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        a, b = a / op_norm(a), b / op_norm(b)
        product = op_norm(lift.apply(a @ b) - lift.apply(a) @ lift.apply(b))
        assert product <= report["hom_product_defect"] + 1e-12
        star = op_norm(lift.apply(adjoint(a)) - adjoint(lift.apply(a)))
        assert star <= report["hom_star_defect"] + 1e-12


@pytest.mark.parametrize("spoil", ["q", "w", "s"])
def test_decay_bound_covers_a_spoiled_decomposition(spoil):
    # the bound holds for any (q, w, S), not only for a decomposition of H
    # with e^{iH} = S, so a spoil at 1e-3 must stay covered with no rounding
    # allowance; each spoil loads one term of the bound: with S = q e^{iw} q*
    # kept, a non-unitary q loads ||q*q - 1|| and a shifted w loads phi, and a
    # moved S loads exp_identity
    rng = np.random.default_rng(10)
    n = 4
    lift = LiftedHom(_haar_unitary(n, rng))
    s = lift.what_s
    q, w = herm_eig(lift.generator())
    noise = 1e-3 * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
    if spoil == "q":
        q = q + noise
    elif spoil == "w":
        w = w + 1e-3 * rng.standard_normal(w.shape)
    if spoil == "s":
        s = s + noise
    else:
        s = (q * np.exp(1j * w)) @ adjoint(q)
    psis = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    exp_identity = op_norm((q * np.exp(1j * w)) @ adjoint(q) - s)
    ts = np.linspace(0.0, 1.0, 101)
    decay = _decay_sample(s, q, w, psis, ts)
    assert 1e-4 < decay <= _decay_bound(q, w, psis, exp_identity, ts.size)
