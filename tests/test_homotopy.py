import cProfile
import json
import logging
import pstats
import re

import numpy as np
import pytest

from torlinks import matcore, spectral_match
from torlinks.cli import (
    decode_bundle,
    decode_links,
    encode_certificate,
    encode_links,
    gen_bundle,
    json_text,
)
from torlinks.homotopy import (
    Conj,
    Flat,
    Geo,
    LinkBundle,
    MatrixPath,
    certify,
    path_curvature,
    path_length,
    project_solid_torus,
    toral_links,
    ujc_links,
    unitary_contraction_path,
)
from torlinks.jointspec import NormalTuple, joint_diagonalize
from torlinks.lifting import lifted_links
from torlinks.matcore import (
    PreconditionError,
    adjoint,
    commutator,
    op_norm,
)
from torlinks.ncrel import membership, preset
from torlinks.softtorus import bott_index, clock_shift
from torlinks.spectral_match import bottleneck_assign, spectral_cost_matrix

log = logging.getLogger(__name__)


def _haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _grid_points(n, radius=0.7):
    # well separated points in a disk, deterministic
    m = int(np.ceil(np.sqrt(n)))
    xs = np.linspace(-radius, radius, m)
    pts = np.array([x + 1j * y for y in xs for x in xs])[:n]
    return pts


def _commuting_pair(n, rng, hermitian=False, unitary=False):
    """Exactly commuting pair diagonal in a common Haar basis."""
    q = _haar_unitary(n, rng)
    if unitary:
        d1 = np.exp(2j * np.pi * (np.arange(n) + 0.1) / (n + 1))
        d2 = np.exp(2j * np.pi * rng.permutation(n) / (n + 2))
    elif hermitian:
        d1 = np.linspace(-0.9, 0.9, n)
        d2 = np.linspace(-0.5, 0.7, n)[rng.permutation(n)]
    else:
        d1 = _grid_points(n)
        d2 = _grid_points(n)[rng.permutation(n)]
    mats = [(q * d1) @ adjoint(q), (q * d2) @ adjoint(q)]
    return NormalTuple(mats), q, [d1, d2]


def _perturb_in_basis(q, diags, delta, rng, rotate=True, unitary=False):
    """Commuting tuple delta-close to q diag(d) q*: shifted entries, rotated basis."""
    n = len(diags[0])
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (k + adjoint(k)) / 2
    k /= op_norm(k)
    r = np.eye(n) if not rotate else _rot(k, delta / 4)
    mats = []
    for d in diags:
        if unitary:
            shift = delta / 4 * rng.uniform(-1.0, 1.0, n)
            nd = d * np.exp(1j * shift)
        else:
            shift = delta / 4 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            nd = d + shift
        mats.append(r @ (q * nd) @ adjoint(q) @ adjoint(r))
    return NormalTuple(mats)


def _rot(h, angle):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * angle * w)) @ adjoint(v)


# ---------------------------------------------------------------------------
# segments and paths
# ---------------------------------------------------------------------------


def test_flat_segment_evaluates_affinely():
    a = np.zeros((2, 2))
    b = np.eye(2)
    seg = Flat(a, b)
    assert np.allclose(seg.value(0.25), 0.25 * np.eye(2))
    assert seg.length == pytest.approx(1.0)


def test_conj_segment_orbit_and_exact_length():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + adjoint(h)) / 2
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    seg = Conj(h, b)
    assert seg.length == pytest.approx(op_norm(commutator(h, b)))
    # spot check the orbit formula at s = 0.37
    u = _rot(h, -0.37)
    assert op_norm(seg.value(0.37) - u @ b @ adjoint(u)) < 1e-12


def test_conj_of_commuting_base_is_constant():
    h = np.diag([1.0, 2.0])
    b = np.diag([5.0, -3.0])
    seg = Conj(h, b)
    assert seg.length == 0.0
    assert np.allclose(seg.value(0.9), b)


def test_geo_segment_is_scalar_circle():
    seg = Geo(np.array([[1.0]]), np.array([[2 * np.pi]]))
    for t in (0.0, 0.25, 0.5):
        assert abs(seg.value(t)[0, 0] - np.exp(2j * np.pi * t)) < 1e-14
    assert seg.length == pytest.approx(2 * np.pi)


def test_segment_rejects_mismatched_shapes():
    with pytest.raises(PreconditionError):
        Flat(np.eye(2), np.eye(3))
    with pytest.raises(PreconditionError):
        Conj(np.eye(2), np.eye(3))


def test_path_requires_continuity():
    a, b, c = np.zeros((2, 2)), np.eye(2), 2 * np.eye(2)
    MatrixPath([Flat(a, b), Flat(b, c)])  # fine
    with pytest.raises(PreconditionError):
        MatrixPath([Flat(a, b), Flat(c, c)])


def test_concat_hits_middle_value():
    a, b, c = np.zeros((2, 2)), np.eye(2), 3 * np.eye(2)
    p = MatrixPath(MatrixPath([Flat(a, b)]).segments + MatrixPath([Flat(b, c)]).segments)
    assert op_norm(p.value(0.5) - b) < 1e-12
    assert op_norm(p.value(0.0) - a) < 1e-12
    assert op_norm(p.value(1.0) - c) < 1e-12
    assert op_norm(p.value(0.75) - 2 * np.eye(2)) < 1e-12


def test_concat_rejects_mismatched_endpoints():
    a, b = np.zeros((2, 2)), np.eye(2)
    with pytest.raises(PreconditionError):
        MatrixPath(MatrixPath([Flat(a, b)]).segments + MatrixPath([Flat(a, b)]).segments)


def test_concat_of_constants_is_constant():
    d = np.diag([1.0, 2.0])
    p = MatrixPath(MatrixPath([Flat(d, d)]).segments + MatrixPath([Flat(d, d)]).segments)
    assert p.exact_length() == 0.0
    assert np.allclose(p.value(0.3), np.diag([1.0, 2.0]))


# ---------------------------------------------------------------------------
# length and curvature functionals
# ---------------------------------------------------------------------------


def test_path_length_flat_and_constant():
    a, b = np.zeros((2, 2)), np.diag([3.0, 1.0])
    assert path_length(MatrixPath([Flat(a, b)])) == pytest.approx(3.0)
    assert path_length(MatrixPath([Flat(b, b)])) == 0.0


def test_path_length_conj_matches_commutator_norm():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + adjoint(h)) / 2
    b = rng.standard_normal((5, 5))
    p = MatrixPath([Conj(h, b)])
    # the polygonal cross-check inside path_length validates constant speed
    assert path_length(p) == pytest.approx(op_norm(commutator(h, b)))


def test_path_length_polygonal_agreement_on_mixed_path():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + adjoint(h)) / 2
    b = np.diag([0.5, -0.2, 0.1j])
    curved = Conj(0.8 * h, b)
    p = MatrixPath([curved, Flat(curved.end, np.zeros((3, 3)))])
    exact = p.exact_length()
    ts = np.linspace(0, 1, 1000)
    vals = [p.value(t) for t in ts]
    poly = sum(op_norm(v2 - v1) for v1, v2 in zip(vals, vals[1:]))
    assert abs(poly - exact) <= 1e-3 * exact
    assert path_length(p) == pytest.approx(exact)


def test_curvature_of_flat_segment_is_zero():
    p = MatrixPath([Flat(np.zeros((2, 2)), np.eye(2))])
    assert path_curvature(p, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_curvature_of_unit_circle_is_one():
    p = MatrixPath([Geo(np.array([[1.0]]), np.array([[2 * np.pi]]))])
    assert path_curvature(p, 0.5) == pytest.approx(1.0, abs=1e-4)


def test_curvature_of_radius_r_circle_is_reciprocal():
    for r in (0.5, 2.0):
        p = MatrixPath([Geo(np.array([[r]]), np.array([[2 * np.pi]]))])
        assert path_curvature(p, 0.3) == pytest.approx(1.0 / r, rel=1e-3)


def test_curvature_rejects_segment_joints():
    a, b, c = np.zeros((2, 2)), np.eye(2), 2 * np.eye(2)
    p = MatrixPath([Flat(a, b), Flat(b, c)])
    with pytest.raises(PreconditionError):
        path_curvature(p, 0.5)
    with pytest.raises(PreconditionError):
        path_curvature(p, 0.5004)
    with pytest.raises(PreconditionError):
        path_curvature(p, 0.001)


def test_curvature_of_stationary_path_is_zero():
    eye = np.eye(3)
    assert path_curvature(MatrixPath([Flat(eye, eye)]), 0.5) == 0.0


def test_curved_factor_curvature_length_product_logged():
    # measured (not asserted): kappa * length stays modest for conjugation arcs
    rng = np.random.default_rng(19)
    t, q, diags = _commuting_pair(5, rng)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = 0.3 * (h + adjoint(h))
    p = MatrixPath([Conj(h, t.mats[0])])
    kappa = path_curvature(p, 0.5)
    log.info("curved factor: kappa=%.4f length=%.4f kappa*length=%.4f",
             kappa, p.exact_length(), kappa * p.exact_length())


# ---------------------------------------------------------------------------
# toral links
# ---------------------------------------------------------------------------


def test_scalar_link_is_single_flat():
    x = NormalTuple([np.array([[0.5]])])
    y = NormalTuple([np.array([[0.6]])])
    bundle = toral_links(x, y)
    assert len(bundle.links) == 1
    assert len(bundle.links[0].segments) == 1
    assert isinstance(bundle.links[0].segments[0], Flat)
    assert bundle.lengths[0] == pytest.approx(0.1)


def test_identical_tuples_give_constant_links():
    rng = np.random.default_rng(0)
    x, _, _ = _commuting_pair(6, rng)
    bundle = toral_links(x, x)
    assert bundle.epsilon_reported <= 1e-9
    assert max(bundle.lengths) <= 1e-9
    cert = certify(bundle, eps=1e-9)
    assert cert.passed


def test_close_pair_links_certify(caplog):
    rng = np.random.default_rng(1)
    delta = 1e-3
    x, q, diags = _commuting_pair(8, rng)
    y = _perturb_in_basis(q, diags, delta, rng)
    bundle = toral_links(x, y)
    cert = certify(bundle, eps=1.0)
    assert cert.passed
    assert cert.endpoint_errors.max() <= 1e-9
    assert cert.commutation.max() <= 1e-9
    big_c = max(bundle.lengths) / delta
    log.info("link length / delta = %.3f", big_c)
    assert big_c < 100.0


def test_links_commute_even_with_scalar_member():
    # a scalar member has a motionless curved factor; the schedules of the
    # other links must still line up with it so that pairwise commutators
    # stay small at intermediate times
    rng = np.random.default_rng(5)
    n = 5
    q = _haar_unitary(n, rng)
    d2 = _grid_points(n)
    x = NormalTuple([0.3 * np.eye(n), (q * d2) @ adjoint(q)])
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (k + adjoint(k)) / 2
    r = _rot(k / op_norm(k), 2e-3)
    y = NormalTuple([r @ m @ adjoint(r) for m in x.mats])
    bundle = toral_links(x, y)
    assert bundle.lengths[1] > 0
    for t in (0.1, 0.25, 0.4, 0.6, 0.9):
        c = op_norm(commutator(bundle.links[0].value(t), bundle.links[1].value(t)))
        assert c <= 1e-10


def test_hermitian_mode_keeps_paths_hermitian():
    rng = np.random.default_rng(2)
    x, q, diags = _commuting_pair(6, rng, hermitian=True)
    y = _perturb_in_basis(q, diags, 1e-3, rng)
    y = NormalTuple([(m + adjoint(m)) / 2 for m in y.mats])
    bundle = toral_links(x, y, mode="hermitian")
    cert = certify(bundle, eps=0.1)
    assert cert.passed
    assert cert.mode_defects is not None
    assert cert.mode_defects.max() <= 1e-9


def test_unitary_mode_keeps_paths_unitary():
    rng = np.random.default_rng(4)
    x, q, diags = _commuting_pair(6, rng, unitary=True)
    y = _perturb_in_basis(q, diags, 1e-2, rng, unitary=True)
    bundle = toral_links(x, y, mode="unitary")
    cert = certify(bundle, eps=0.5)
    assert cert.passed
    assert cert.mode_defects.max() <= 1e-9
    for link in bundle.links:
        for t in (0.2, 0.5, 0.8):
            v = link.value(t)
            assert op_norm(adjoint(v) @ v - np.eye(6)) <= 1e-9


def test_mode_validation_rejects_wrong_inputs():
    x = NormalTuple([np.diag([0.5j, -0.5j])])  # normal, not hermitian
    with pytest.raises(PreconditionError):
        toral_links(x, x, mode="hermitian")
    with pytest.raises(PreconditionError):
        toral_links(x, x, mode="unitary")
    with pytest.raises(PreconditionError):
        toral_links(x, x, mode="spherical")


def test_toral_links_has_no_objective_knob():
    # the construction always uses the bottleneck matching
    x = NormalTuple([np.diag([0.5, -0.5])])
    with pytest.raises(TypeError):
        toral_links(x, x, objective="sum")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_constant_bundle_is_clean():
    rng = np.random.default_rng(9)
    x, _, _ = _commuting_pair(4, rng)
    bundle = toral_links(x, x)
    cert = certify(bundle, eps=1e-9)
    assert cert.passed
    worst = cert.worst()
    assert worst["normality"] <= 1e-12
    assert worst["commutation"] <= 1e-12
    assert worst["distance_to_target"] <= 1e-12


def test_certify_flags_tampered_endpoint():
    rng = np.random.default_rng(10)
    x, q, diags = _commuting_pair(4, rng)
    y = _perturb_in_basis(q, diags, 1e-3, rng)
    bundle = toral_links(x, y)
    bundle.y_mats[0] = bundle.y_mats[0] + 0.05 * np.eye(4)
    cert = certify(bundle, eps=1.0)
    assert not cert.passed
    assert cert.endpoint_errors[0, 1] > 1e-9


def test_certify_respects_eps_budget():
    x = NormalTuple([np.array([[0.5]])])
    y = NormalTuple([np.array([[0.9]])])
    bundle = toral_links(x, y)
    assert certify(bundle, eps=0.5).passed
    assert not certify(bundle, eps=0.1).passed


_EIGVALSH_FILE = np.linalg.eigvalsh.__wrapped__.__code__.co_filename


def _matcore_calls(fn, *args, **kwargs):
    """Result of fn and its calls to matcore.op_norm / matcore.herm_eig, to
    numpy.linalg.eigvalsh, to spectral_match._assign ("solve", a full
    assignment solve) and to spectral_match._augment ("augment", one
    augmenting path; "lex_augment" counts those that bottleneck_assign's
    lexicographic pass makes itself) (cProfile); op_norm of a zero matrix
    solves nothing."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args, **kwargs)
    names = ("op_norm", "herm_eig", "eigvalsh", "solve", "augment", "lex_augment")
    counts = dict.fromkeys(names, 0)
    for (path, _, name), stat in pstats.Stats(prof).stats.items():
        if path == spectral_match.__file__ and name == "_assign":
            counts["solve"] += stat[1]
        elif path == spectral_match.__file__ and name == "_augment":
            counts["augment"] += stat[1]
            by_caller = {caller: calls[1] for (_, _, caller), calls in stat[4].items()}
            counts["lex_augment"] += by_caller.get("bottleneck_assign", 0)
        elif name in counts and path == (
            _EIGVALSH_FILE if name == "eigvalsh" else matcore.__file__
        ):
            counts[name] += stat[1]
    return result, counts


def test_norm_and_decomposition_budget():
    # n = 16, N = 3, normal mode: a 101-point certify made 1218 op_norm calls
    # and a 201-point epsilon sampler put toral_links at 670; the shared H
    # used to be decomposed 12 times in toral_links and 6 times on decode
    loaded = decode_bundle(gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0), "mem")
    x, y = loaded["x"], loaded["y"]
    bundle, built = _matcore_calls(toral_links, x, y, seed=0)
    assert built["op_norm"] <= 100
    assert built["herm_eig"] == 1
    # the min-sum assignment of the costs already has the bottleneck, so the
    # masked solve that followed it (2 solves before) re-routes nothing
    assert built["solve"] == 1

    artifact = json.loads(json_text(encode_links(bundle)))
    _, decoded = _matcore_calls(decode_links, artifact, "mem")
    assert decoded["herm_eig"] == 1
    # one decomposition serves the curved factors, e^{iH} = What_s and the
    # decay bound; a 101-point decay grid and 10 sampled hom pairs made 363
    # op_norm calls
    (_, lifted_bundle, _), lifted = _matcore_calls(lifted_links, x, y, seed=0)
    assert lifted["herm_eig"] == 1
    assert lifted["op_norm"] <= 50

    # certify solves only for the norms that stay exact: endpoints, norms
    # against 1, distances, and defect terms too large for the cheap bound.
    # With exact defect norms it made 45 / 54 / 60 eigvalsh calls, and 45 on
    # the lifted bundle; unitary mode sampled its Geo pieces at the grid
    # points (336 op_norm calls) before that. A bundle in memory keeps the
    # distance samples behind its epsilon_reported, so certify reads them
    # instead of evaluating them again (21 / 21 / 24 eigvalsh calls, as the
    # decoded bundle still makes); toral_links made 24 / 24 / 36 before its
    # joint diagonalization accepted draws on the cheap residual bound. A
    # flat factor that ends on y_j takes its distances from its length
    # (17 / 15 / 21 in normal and hermitian mode, and 15 on the lift before)
    budgets = {"normal": (14, 12, 18), "hermitian": (14, 12, 18), "unitary": (26, 12, 24)}
    for mode, (link_budget, cert_budget, decoded_budget) in budgets.items():
        art = gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0, mode=mode)
        loaded = decode_bundle(art, "mem")
        bundle, built = _matcore_calls(toral_links, loaded["x"], loaded["y"], mode=mode, seed=0)
        assert built["eigvalsh"] <= link_budget, mode
        cert, checked = _matcore_calls(certify, bundle, bundle.epsilon_reported)
        assert cert.passed
        assert checked["op_norm"] <= 120
        assert checked["eigvalsh"] <= cert_budget, mode
        decoded = decode_links(json.loads(json_text(encode_links(bundle))), "mem")
        assert decoded._distance_samples is None
        recert, rechecked = _matcore_calls(certify, decoded, bundle.epsilon_reported)
        assert rechecked["eigvalsh"] <= decoded_budget, mode
        assert json_text(encode_certificate(recert)) == json_text(encode_certificate(cert))
    cert, checked = _matcore_calls(certify, lifted_bundle, lifted_bundle.epsilon_reported)
    assert cert.passed
    assert checked["eigvalsh"] <= 12


def test_matching_and_diagonalization_budget():
    # the bottleneck is bracketed by the row and column minima and one
    # min-sum assignment, and the lexicographic pass takes its witness's
    # columns with no solve: an n = 64 matching made 64 assignment solves,
    # then 2 to 4. Here the row minima form the assignment and its largest
    # cost is b*, so no augmenting path runs at all
    for perturb in ("within", "generic"):
        art = gen_bundle("commuting_pair", 64, N=3, delta=1e-2, seed=0, perturb=perturb)
        loaded = decode_bundle(art, "mem")
        points = [joint_diagonalize(loaded[key]).points for key in ("x", "y")]
        _, calls = _matcore_calls(bottleneck_assign, spectral_cost_matrix(*points))
        assert calls["solve"] == 1, perturb
        assert calls["augment"] == 0, perturb
    # a lexicographic candidate is completed by one augmenting path, never a
    # full solve: the witness is the swap, and the identity ties with it
    matching, calls = _matcore_calls(bottleneck_assign, np.array([[0.5, 0.25], [0.5, 0.25]]))
    assert list(matching.tau) == [0, 1]
    assert calls["solve"] == 1
    assert calls["lex_augment"] == 1
    # each draw is accepted on the cheap off-diagonal bound (3 eigensolves)
    loaded = decode_bundle(gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0), "mem")
    _, calls = _matcore_calls(joint_diagonalize, loaded["x"])
    assert calls["eigvalsh"] == 0


def test_path_checks_each_join_once():
    # a path decides its one join from a norm bound, so an exact join needs no
    # eigensolve, and a join off by 2e-9 is still refused with the exact gap
    a, b, c = np.zeros((3, 3)), np.eye(3) / 2, np.eye(3)
    p, q = MatrixPath([Flat(a, b)]), MatrixPath([Flat(b, c)])
    path, calls = _matcore_calls(MatrixPath, p.segments + q.segments)
    assert calls["op_norm"] == 0 and calls["eigvalsh"] == 0
    assert list(path.joints()) == [0.0, 0.5, 1.0]
    with pytest.raises(PreconditionError, match="gap 2.000e-09"):
        MatrixPath([Flat(a, b), Flat(b + 2e-9 * np.eye(3), c)])


def test_path_refuses_segments_of_different_sizes():
    with pytest.raises(PreconditionError, match=r"shapes \(3, 3\) and \(2, 2\) differ"):
        MatrixPath([Flat(np.zeros((3, 3)), np.eye(3)), Flat(np.eye(2), np.zeros((2, 2)))])


def test_input_checks_solve_only_where_a_bound_fails():
    # a clock/shift pair is monomial and unitary: its normality and
    # contraction checks pass on Schur's bound, and nothing is solved
    cs = clock_shift(64)
    _, calls = _matcore_calls(NormalTuple, [cs.omega, cs.sigma], commutation_tol=np.inf)
    assert calls["eigvalsh"] == 0
    # a dense commuting tuple has Frobenius and Schur bounds above 1, so only
    # its N contraction checks fall back to the exact norm
    art = gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0)
    mats = [np.array(m) for m in decode_bundle(art, "mem")["x"].mats]
    _, calls = _matcore_calls(NormalTuple, mats)
    assert calls["eigvalsh"] <= 3
    # bott_index solves only for the spectrum of e(u, v): the scale ||Sigma||
    # of normal_eig(v) and the stored defect ||[u, v]|| have diagonal Gram
    # matrices, and its unitarity and normality checks pass on the cheap
    # bound (7 eigensolves before those checks, 3 before the diagonal Gram)
    _, calls = _matcore_calls(bott_index, cs.omega, cs.sigma)
    assert calls["eigvalsh"] == 1
    # every soft-torus relation defect of the pair is monomial (3 before)
    for bound in (1.0, 1e-2):
        rset = preset("soft_torus", bound)
        assignment = dict(zip(rset.variables, [cs.omega, cs.sigma]))
        _, calls = _matcore_calls(membership, assignment, rset)
        assert calls["op_norm"] == 5
        assert calls["eigvalsh"] == 0
    # a dense bundle's norms all go to the eigensolver, as they did before
    # the diagonal Gram shortcut
    counts = {"within": (14, 12), "generic": (26, 12)}
    for perturb, (link_solves, cert_solves) in counts.items():
        art = gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0, perturb=perturb)
        loaded = decode_bundle(art, "mem")
        bundle, built = _matcore_calls(toral_links, loaded["x"], loaded["y"], seed=0)
        assert built["eigvalsh"] == built["op_norm"] == link_solves
        _, checked = _matcore_calls(certify, bundle, bundle.epsilon_reported)
        assert checked["eigvalsh"] == cert_solves


def test_path_keeps_the_callers_segments():
    h = np.diag([1.0, -1.0])
    segs = [Conj(h, np.array([[0.0, 1.0], [1.0, 0.0]]))]
    segs.append(Flat(segs[0].end, np.zeros((2, 2))))
    path = MatrixPath(list(segs))
    assert all(kept is seg for kept, seg in zip(path.segments, segs))
    # each of the k = 2 segments runs for 1/2 of the clock
    assert path.locate(0.75) == (1, 0.5)
    assert path.max_speed() == 2 * max(seg.length for seg in segs)


def test_bundle_refuses_links_with_different_segment_counts():
    a, b = np.diag([0.5, -0.5]), np.diag([0.25, 0.1])
    lone = MatrixPath([Flat(a, b)])
    split = MatrixPath([Flat(a, (a + b) / 2), Flat((a + b) / 2, b)])
    with pytest.raises(PreconditionError, match=r"segment counts \[1, 2\]"):
        LinkBundle([lone, split], [a, a], [b, b], 0.0)


def test_bundle_checks_its_shape():
    a = np.diag([0.5, -0.5])
    link = MatrixPath([Flat(a, a)])
    # an empty bundle is refused before certify reads its first link
    with pytest.raises(PreconditionError, match=r"count \(0, 0, 0\)"):
        certify(LinkBundle([], [], [], 0.0), 1.0)
    with pytest.raises(PreconditionError, match=r"count \(1, 2, 1\)"):
        LinkBundle([link], [a, a], [a], 0.0)
    with pytest.raises(PreconditionError, match="dimension: link 0 is 2 x 2"):
        LinkBundle([link], [a], [np.eye(3)], 0.0)
    with pytest.raises(PreconditionError, match="dimension"):
        LinkBundle([link, MatrixPath([Flat(np.eye(3), np.eye(3))])], [a, a], [a, a], 0.0)


def test_certify_mixed_kind_pair_is_conservative():
    # both links stay diagonal, so they commute; a Geo against a Flat has no
    # closed form, and its Lipschitz bound fails once both move
    d = np.diag([0.6, -0.4])
    geo = MatrixPath([Geo(d, 0.1 * np.diag([1.0, 2.0]))])
    flat = MatrixPath([Flat(d, 0.5 * d)])
    bundle = LinkBundle([geo, flat], [d, d], [geo.end, flat.end], 0.0)
    cert = certify(bundle, eps=1.0)
    assert not cert.passed
    assert cert.normality.max() <= 1e-12
    assert cert.commutation.max() > 1e-3


# ---------------------------------------------------------------------------
# unitary paths
# ---------------------------------------------------------------------------


def test_contraction_path_for_sign_matrix():
    u = np.diag([1.0, -1.0])
    path, report = unitary_contraction_path(u)
    assert op_norm(path.value(0.0) - u) < 1e-12
    assert op_norm(path.value(1.0) - np.eye(2)) < 1e-12
    assert report["length"] == pytest.approx(np.pi)
    assert report["length"] <= report["gap_interval_bound"] + 1e-9


def test_contraction_path_commutes_with_functions_of_u():
    rng = np.random.default_rng(12)
    u = _haar_unitary(5, rng)
    path, report = unitary_contraction_path(u)
    assert report["length"] <= 2 * np.pi
    for t in (0.0, 0.3, 0.7, 1.0):
        v = path.value(t)
        assert op_norm(adjoint(v) @ v - np.eye(5)) < 1e-10
        for a in (u, u @ u, adjoint(u)):
            assert op_norm(commutator(v, a)) <= 1e-12


def test_contraction_path_haar_sweep_stays_below_two_pi():
    rng = np.random.default_rng(13)
    for n in (2, 3, 6):
        for _ in range(5):
            u = _haar_unitary(n, rng)
            path, report = unitary_contraction_path(u)
            assert report["length"] <= 2 * np.pi
            assert op_norm(path.value(0.0) - u) < 1e-10


def test_contraction_path_antipodal_cluster_needs_long_arc():
    # both eigenvalues sit just around -1; the branch cut keeps them in one
    # short arc, so the generator norm is pi + d even though the arc itself
    # is only 2d long -- the sharp per-dimension norm bound needs spectra
    # that do not straddle the far side of the circle
    d = 0.3
    u = np.diag([np.exp(1j * (np.pi - d)), np.exp(1j * (np.pi + d))])
    path, report = unitary_contraction_path(u)
    assert report["length"] == pytest.approx(np.pi + d)
    assert report["length"] > report["gap_interval_bound"]
    assert report["length"] <= 2 * np.pi - np.pi / 2


# ---------------------------------------------------------------------------
# joint-conjugation links
# ---------------------------------------------------------------------------


def test_ujc_scalar_arc_angle():
    # What* W = diag(e^{-i phi}, 1) turns the first basis vector by -phi; an X
    # that this turn moves keeps the curved factor, whose generator is
    # diag(-phi, 0) (at n = 1 the factor has length 0 and is dropped)
    phi = 0.5
    w = np.eye(2)
    w_hat = np.diag([np.exp(1j * phi), 1.0])
    x = NormalTuple([0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])])
    bundle = ujc_links(x, x, w, w_hat)
    conj, flat = bundle.links[0].segments
    assert conj.h == pytest.approx(np.diag([-phi, 0.0]))
    # ||[H, X]|| = phi / 2, and the flat factor undoes the turn of the
    # off-diagonal entries: ||(e^{i phi} - 1) / 2|| = sin(phi / 2)
    assert conj.length == pytest.approx(phi / 2)
    assert flat.length == pytest.approx(np.sin(phi / 2))
    assert bundle.lengths[0] == pytest.approx(phi / 2 + np.sin(phi / 2))
    assert certify(bundle, eps=0.3).passed  # the path strays sin(phi / 2) from X
    assert not certify(bundle, eps=0.2).passed


def test_ujc_identical_conjugators_give_flat_motion():
    rng = np.random.default_rng(15)
    x, q, diags = _commuting_pair(4, rng)
    y = _perturb_in_basis(q, diags, 1e-2, rng, rotate=False)
    w = _haar_unitary(4, rng)
    bundle = ujc_links(x, y, w, w)
    cert = certify(bundle, eps=0.05)
    assert cert.passed
    assert max(bundle.lengths) <= 1e-2 + 1e-9
    # W = What makes Z exactly 1, so the curved factors have length 0.0 and
    # are dropped, for a Haar W as for W = 1
    for u in (w, np.eye(4)):
        bundle = ujc_links(x, y, u, u)
        assert all(
            len(link.segments) == 1 and isinstance(link.segments[0], Flat)
            for link in bundle.links
        )


def test_ujc_pure_conjugation_bundle():
    rng = np.random.default_rng(16)
    x, _, _ = _commuting_pair(5, rng)
    w = _haar_unitary(5, rng)
    s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    s = (s + adjoint(s)) / 2
    w_hat = w @ _rot(s / op_norm(s), 0.05)
    z = adjoint(w_hat) @ w
    y = NormalTuple([adjoint(z) @ m @ z for m in x.mats])
    bundle = ujc_links(x, y, w, w_hat)
    cert = certify(bundle, eps=0.2)
    assert cert.passed
    assert cert.commutation.max() <= 1e-10  # common conjugation is exact


def test_ujc_rejects_antipodal_conjugators():
    with pytest.raises(PreconditionError):
        ujc_links(
            NormalTuple([np.eye(2)]),
            NormalTuple([np.eye(2)]),
            np.eye(2),
            -np.eye(2),
        )


def test_every_builder_starts_its_shared_conjugation_at_x():
    # toral, lifted and ujc links all run Conj(H, x_j) and then a flat
    # factor, one H for the whole bundle, so each link starts at its x_j
    rng = np.random.default_rng(17)
    x, q, diags = _commuting_pair(4, rng)
    y = _perturb_in_basis(q, diags, 1e-2, rng)
    w = _haar_unitary(4, rng)
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w_hat = w @ _rot((k + adjoint(k)) / op_norm(k + adjoint(k)), 0.05)
    bundles = {
        "toral": toral_links(x, y),
        "lifted": lifted_links(x, y)[1],
        "ujc": ujc_links(x, y, w, w_hat),
    }
    for name, bundle in bundles.items():
        first = [link.segments[0] for link in bundle.links]
        assert all(isinstance(c, Conj) for c in first), name
        assert all(c.base is xj for c, xj in zip(first, bundle.x_mats)), name
        assert all(c.h is first[0].h for c in first), name
        assert first[0].length > 0.0, name


# ---------------------------------------------------------------------------
# solid-torus projection
# ---------------------------------------------------------------------------


def test_projection_of_scalar_circle_is_helix():
    r = 0.5
    p = MatrixPath([Geo(np.array([[r]]), np.array([[2 * np.pi]]))])
    rows = project_solid_torus(p, samples=5)
    assert rows.shape == (5, 6)
    for row in rows:
        t = row[0]
        assert row[1] == 0.0
        assert row[2] == pytest.approx(r * np.cos(2 * np.pi * t), abs=1e-12)
        assert row[3] == pytest.approx(r * np.sin(2 * np.pi * t), abs=1e-12)
        assert row[4] == pytest.approx(np.cos(2 * np.pi * t), abs=1e-12)
        assert row[5] == pytest.approx(np.sin(2 * np.pi * t), abs=1e-12)


def test_projection_of_diagonal_path_tracks_eigenvalues():
    p = MatrixPath([Flat(np.diag([0.2, -0.4]), np.diag([0.3, -0.1]))])
    rows = project_solid_torus(p, samples=3)
    # row layout: all k for t=0, then t=0.5, then t=1
    assert rows[0][2] == pytest.approx(0.2)
    assert rows[1][2] == pytest.approx(-0.4)
    assert rows[2][2] == pytest.approx(0.25)
    assert rows[3][2] == pytest.approx(-0.25)
    assert rows[4][2] == pytest.approx(0.3)
    assert rows[5][2] == pytest.approx(-0.1)


def test_projection_of_zero_matrix_sits_at_center():
    z = np.zeros((3, 3))
    rows = project_solid_torus(MatrixPath([Flat(z, z)]), samples=4)
    assert np.max(np.abs(rows[:, 2:4])) == 0.0


def test_projection_rejects_bad_inputs():
    q = MatrixPath([Flat(1.5 * np.eye(2), 1.5 * np.eye(2))])
    with pytest.raises(PreconditionError):
        project_solid_torus(q)


_STILL = MatrixPath([Flat(0.5 * np.eye(2), 0.5 * np.eye(2))])
_STILL_BUNDLE = LinkBundle([_STILL], [_STILL.start], [_STILL.end], epsilon_reported=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: certify(_STILL_BUNDLE, 1.0, grid_points=1), "grid needs at least two points"),
        (lambda: _STILL.locate(1.5), "path time 1.5 outside [0, 1]"),
        (lambda: project_solid_torus(_STILL, samples=1), "need at least two samples"),
        (lambda: Geo(np.eye(2), np.eye(3)), "geodesic generator and base differ in shape"),
    ],
)
def test_precondition_messages(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
