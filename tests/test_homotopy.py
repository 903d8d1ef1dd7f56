import cProfile
import functools
import json
import logging
import math
import pstats
import re

import numpy as np
import pytest
from helpers import polygonal_length, stencil_curvature
from hypothesis import given, settings
from hypothesis import strategies as st

from torlinks import homotopy, matcore, spectral_match
from torlinks.cli import (
    decode_bundle,
    decode_links,
    encode_certificate,
    encode_links,
    encode_matrix,
    gen_bundle,
    json_text,
    main as cli_main,
)
from torlinks.homotopy import (
    Conj,
    Flat,
    Geo,
    LinkBundle,
    MODES,
    MatrixPath,
    _conj_family,
    certify,
    path_curvature,
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
    exp_i_herm,
    gap_branch_log,
    op_norm,
    principal_log_unitary,
)
from torlinks.ncrel import membership, preset
from torlinks.softtorus import bott_index, clock_shift
from torlinks.spectral_match import (
    bottleneck_assign,
    isospectral_approximant,
    spectral_cost_matrix,
)

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
    assert MatrixPath([Flat(a, b)]).exact_length() == pytest.approx(3.0)
    assert MatrixPath([Flat(b, b)]).exact_length() == 0.0


def test_path_length_conj_matches_commutator_norm():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + adjoint(h)) / 2
    b = rng.standard_normal((5, 5))
    p = MatrixPath([Conj(h, b)])
    exact = p.exact_length()
    assert exact == pytest.approx(op_norm(commutator(h, b)))
    # the polygonal sum validates constant speed
    assert abs(polygonal_length(p) - exact) <= 1e-3 * exact + 1e-12


def test_path_length_polygonal_agreement_on_mixed_path():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + adjoint(h)) / 2
    b = np.diag([0.5, -0.2, 0.1j])
    curved = Conj(0.8 * h, b)
    p = MatrixPath([curved, Flat(curved.end, np.zeros((3, 3)))])
    exact = p.exact_length()
    assert abs(polygonal_length(p) - exact) <= 1e-3 * exact
    assert exact == pytest.approx(op_norm(commutator(0.8 * h, b)) + op_norm(curved.end))


def test_curvature_of_flat_segment_is_zero():
    p = MatrixPath([Flat(np.zeros((2, 2)), np.eye(2))])
    assert path_curvature(p, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_curvature_of_unit_circle_is_one():
    p = MatrixPath([Geo(np.array([[1.0]]), np.array([[2 * np.pi]]))])
    assert path_curvature(p, 0.5) == pytest.approx(1.0, abs=1e-4)


def test_curvature_of_radius_r_circle_is_reciprocal():
    for r in (0.5, 2.0):
        p = MatrixPath([Geo(np.array([[r]]), np.array([[2 * np.pi]]))])
        assert path_curvature(p, 0.3) == pytest.approx(1.0 / r, rel=1e-12)


def test_curvature_rejects_segment_joints():
    # only an interior joint is refused: any other t lies in one segment,
    # whose curvature is a constant
    a, b, c = np.zeros((2, 2)), np.eye(2), 2 * np.eye(2)
    p = MatrixPath([Flat(a, b), Flat(b, c)])
    with pytest.raises(PreconditionError, match="curvature is undefined at segment joints"):
        path_curvature(p, 0.5)
    assert path_curvature(p, 0.5004) == 0.0
    assert path_curvature(p, 0.001) == 0.0


def test_curvature_of_stationary_path_is_zero():
    eye = np.eye(3)
    assert path_curvature(MatrixPath([Flat(eye, eye)]), 0.5) == 0.0


def _random_segment(kind, n, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + adjoint(h))
    return Conj(h, b) if kind is Conj else Geo(b, h)


@functools.cache
def _curved_paths():
    """(path, t) with t inside a curved segment, by name: random Conj and Geo
    segments for n = 1..6, and the curved factors the link builders make."""
    cases = {
        f"{kind.__name__.lower()}-n{n}": (MatrixPath([_random_segment(kind, n, 10 * n)]), 0.3)
        for kind in (Conj, Geo)
        for n in range(1, 7)
    }
    rng = np.random.default_rng(19)
    x, q, diags = _commuting_pair(5, rng)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    cases["curved-factor"] = (MatrixPath([Conj(0.3 * (h + adjoint(h)), x.mats[0])]), 0.5)
    y = _perturb_in_basis(q, diags, 1e-2, rng)
    cases["toral"] = (toral_links(x, y).links[1], 0.25)
    cases["lifted"] = (lifted_links(x, y)[1].links[0], 0.25)
    u, uq, udiags = _commuting_pair(4, rng, unitary=True)
    uy = _perturb_in_basis(uq, udiags, 1e-2, rng, unitary=True)
    cases["toral-unitary-geo"] = (toral_links(u, uy, mode="unitary").links[0], 0.75)
    cases["contraction"] = (unitary_contraction_path(_haar_unitary(5, rng)), 0.6)
    return cases


@pytest.mark.parametrize("name", list(_curved_paths()))
def test_curvature_agrees_with_the_stencil(name):
    # the exact ||gamma''|| / ||gamma'||^2 of the segment against central
    # differences of five path values 1e-3 apart (error O(1e-6) relative)
    path, t = _curved_paths()[name]
    exact = path_curvature(path, t)
    assert abs(exact - stencil_curvature(path, t)) <= 1e-4 * exact
    log.info("%s: kappa=%.4f kappa*length=%.4f", name, exact, exact * path.exact_length())


def test_curvature_reads_the_segment(monkeypatch):
    # one op_norm of gamma'' on a curved segment, none on a flat one, and no
    # path value on either
    curved = MatrixPath([_random_segment(Geo, 4, 1)])
    flat = MatrixPath([Flat(np.zeros((4, 4)), np.eye(4))])
    for kind in (Geo, Flat):
        monkeypatch.setattr(kind, "value", lambda *_: pytest.fail("a path value was evaluated"))
    for path, norms in ((curved, 1), (flat, 0)):
        _, calls = _matcore_calls(path_curvature, path, 0.5)
        assert calls["op_norm"] == norms


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
    worst = cert.worst
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


_LINALG_FILE = np.linalg.eigvalsh.__wrapped__.__code__.co_filename

#: what _matcore_calls counts: name -> (file, function)
_COUNTED = {
    "op_norm": (matcore.__file__, "_op_norm"),
    "herm_eig": (matcore.__file__, "herm_eig"),
    "ata": (matcore.__file__, "_ata"),
    "gram": (matcore.__file__, "_gram"),
    "check_within": (matcore.__file__, "_check_within"),
    "eigvalsh": (_LINALG_FILE, "eigvalsh"),
    "eigh": (_LINALG_FILE, "eigh"),
    "cholesky": (_LINALG_FILE, "cholesky"),
    "solve": (spectral_match.__file__, "_assign"),
    "augment": (spectral_match.__file__, "_augment"),
}


def _matcore_calls(fn, *args, **kwargs):
    """Result of fn and its calls (cProfile) to matcore._op_norm ("op_norm",
    every exact norm: op_norm's and those taken from a product the caller
    formed; op_norm of a zero matrix solves nothing), matcore.herm_eig,
    matcore._ata ("ata", one product A*A; "ata_by" maps each calling
    function's name to its count), matcore._gram and matcore._check_within,
    to numpy.linalg.eigvalsh, eigh and cholesky, to spectral_match._assign
    ("solve", a full assignment solve) and to spectral_match._augment
    ("augment", one augmenting path; "lex_augment" counts those that
    bottleneck_assign's lexicographic pass makes itself)."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args, **kwargs)
    key_of = {where: key for key, where in _COUNTED.items()}
    counts = dict.fromkeys([*_COUNTED, "lex_augment"], 0)
    counts["ata_by"] = {}
    for (path, _, name), stat in pstats.Stats(prof).stats.items():
        key = key_of.get((path, name))
        if key is not None:
            counts[key] += stat[1]
        if key == "ata":
            for (_, _, caller), calls in stat[4].items():
                counts["ata_by"][caller] = counts["ata_by"].get(caller, 0) + calls[1]
        if key == "augment":
            by_caller = {caller: calls[1] for (_, _, caller), calls in stat[4].items()}
            counts["lex_augment"] += by_caller.get("bottleneck_assign", 0)
    return result, counts


def test_norm_and_decomposition_budget():
    # n = 16, N = 3, normal mode: a 101-point certify made 1218 op_norm calls
    # and a 201-point epsilon sampler put toral_links at 670; the shared H
    # used to be decomposed 12 times in toral_links and 6 times on decode
    loaded = decode_bundle(gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0), "mem")
    x, y = loaded["x"], loaded["y"]
    bundle, built = _matcore_calls(toral_links, x, y, seed=0)
    assert built["op_norm"] <= 100
    # this `within` bundle's conjugation is proven shorter than JOIN_TOL from
    # ||V - 1||, so H is never formed nor decomposed (1 decomposition before)
    assert built["herm_eig"] == 0
    # the min-sum assignment of the costs already has the bottleneck, so the
    # masked solve that followed it (2 solves before) re-routes nothing
    assert built["solve"] == 1

    # this `within` bundle's curved factors move less than JOIN_TOL and are
    # dropped, so its links file holds no H; a `generic` one holds one H,
    # decomposed once on decode
    artifact = json.loads(json_text(encode_links(bundle)))
    _, decoded = _matcore_calls(decode_links, artifact, "mem")
    assert decoded["herm_eig"] == 0
    art = gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0, perturb="generic")
    loaded = decode_bundle(art, "mem")
    artifact = json.loads(json_text(encode_links(toral_links(loaded["x"], loaded["y"], seed=0))))
    _, decoded = _matcore_calls(decode_links, artifact, "mem")
    assert decoded["herm_eig"] == 1
    # one decomposition serves the curved factors, e^{iH} = What_s and the
    # decay bound; a 101-point decay grid and 10 sampled hom pairs made 363
    # op_norm calls
    (_, lifted_bundle, _), lifted = _matcore_calls(lifted_links, x, y, seed=0)
    assert lifted["herm_eig"] == 1
    assert lifted["op_norm"] <= 50
    # its flat factors start on the curved factors' ends, whose distances to
    # y_j are their lengths (24 eigensolves when they started on iota2(psi_j));
    # 21 before curved factors within JOIN_TOL were dropped
    assert lifted["eigvalsh"] == 18

    # certify solves only for the norms that stay exact: endpoints, norms
    # against 1 that no Cholesky factorization proves (a unitary base's, and
    # every Geo base's), distances, and defect terms too large for the cheap
    # bound. With exact defect norms it made 45 / 54 / 60 eigvalsh calls, and
    # 45 on the lifted bundle; unitary mode sampled its Geo pieces at the
    # grid points (336 op_norm calls) before that. A bundle in memory keeps the
    # distance samples behind its epsilon_reported, so certify reads them
    # instead of evaluating them again (21 / 21 / 24 eigvalsh calls, as the
    # decoded bundle still makes); toral_links made 24 / 24 / 36 before its
    # joint diagonalization accepted draws on the cheap residual bound. A
    # flat factor that ends on y_j takes its distances from its length
    # (17 / 15 / 21 in normal and hermitian mode, and 15 on the lift before).
    # Proving the other norms against 1 took certify from 12 / 12 / 12 to
    # 3 / 3 / 12, the decoded bundle's from 18 / 18 / 24 to 9 / 9 / 24, the
    # lift's from 12 to 3, and toral_links from 14 / 14 / 26 to 13 / 13 / 22.
    # Exact joints took toral_links to 10 / 10 / 19 (each joint distance is
    # read once: a flat factor's length, or one norm shared by a Conj and the
    # Geo after it), certify to 0 / 0 / 9 (a link starts on x_j itself) and
    # the decoded bundle's to 3 / 3 / 18. Reading the endpoint error at t = 1
    # from the last segment's distance tree took unitary certify from 9 to 6
    # and the decoded bundle's from 18 to 15. Dropping the curved factors
    # within JOIN_TOL, which `within` bundles have, took toral_links to
    # 7 / 7 / 16, unitary certify to 3 and the decoded bundles' to 0 / 0 / 9.
    # Proving that drop from ||V - 1|| before H is formed took toral_links to
    # 3 / 3 / 12 (no scale of V, no speeds ||[H, x_j]||)
    budgets = {"normal": (3, 0, 0), "hermitian": (3, 0, 0), "unitary": (12, 3, 9)}
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
    assert checked["eigvalsh"] == 0  # 3 before exact joints


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


def test_input_checks_solve_only_where_a_bound_fails(tmp_path):
    # a clock/shift pair is monomial and unitary: its contraction checks
    # pass on Schur's bound, and nothing is solved; each normality check is
    # settled from ||A*A - 1|| and never reaches _check_within, so the one
    # product A*A per matrix is all it forms (2 products per matrix before:
    # AA* too)
    cs = clock_shift(64)
    _, calls = _matcore_calls(NormalTuple, [cs.omega, cs.sigma], commutation_tol=np.inf)
    assert calls["eigvalsh"] == calls["gram"] == calls["cholesky"] == 0
    assert calls["ata"] == 2
    assert calls["check_within"] == 0
    # a dense commuting tuple has Frobenius and Schur bounds above 1, so its
    # N contraction checks are proven by Cholesky (3 eigensolves before)
    art = gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0)
    mats = [np.array(m) for m in decode_bundle(art, "mem")["x"].mats]
    _, calls = _matcore_calls(NormalTuple, mats)
    assert calls["eigvalsh"] == 0
    # bott_index solves only for the spectrum of e(u, v): the scale ||Sigma||
    # of normal_eig(v) and the stored defect ||[u, v]|| have diagonal Gram
    # matrices, and its unitarity and normality checks pass on the cheap
    # bound (7 eigensolves before those checks, 3 before the diagonal Gram)
    _, calls = _matcore_calls(bott_index, cs.omega, cs.sigma)
    assert calls["eigvalsh"] == 1
    # at n = 16, U*U and V*V are formed once each by the unitarity checks;
    # normal_eig(v) reads V*V from its check and forms none of its own (one
    # before), and the stored defect's Gram is the only other product A*A
    _, calls = _matcore_calls(bott_index, *clock_shift(16)[:2])
    assert calls["ata_by"] == {"_check_unitary": 2, "_gram": 1}
    # every soft-torus relation defect of the pair is monomial (3 before)
    for bound in (1.0, 1e-2):
        rset = preset("soft_torus", bound)
        assignment = dict(zip(rset.variables, [cs.omega, cs.sigma]))
        _, calls = _matcore_calls(membership, assignment, rset)
        assert calls["op_norm"] == 5
        assert calls["eigvalsh"] == 0
    # a dense bundle's stored norms go to the eigensolver; its shared H is
    # Hermitian, so herm_eig takes no scale (14 / 26 before), and the norms
    # certify compares with 1 are proven (12 before); exact joints read each
    # joint distance once and start every link on x_j (13 / 25 and 3 before);
    # `within` links are one flat piece each (10 before), a drop proven from
    # ||V - 1|| before any conjugation is built (7 before)
    counts = {"within": (3, 0), "generic": (22, 0)}
    for perturb, (link_solves, cert_solves) in counts.items():
        art = gen_bundle("commuting_pair", 16, N=3, delta=1e-2, seed=0, perturb=perturb)
        loaded = decode_bundle(art, "mem")
        bundle, built = _matcore_calls(toral_links, loaded["x"], loaded["y"], seed=0)
        assert built["eigvalsh"] == built["op_norm"] == link_solves
        _, checked = _matcore_calls(certify, bundle, bundle.epsilon_reported)
        assert checked["eigvalsh"] == cert_solves
    # n = 64, N = 3, call by call, and a whole gen -> link -> certify through
    # the CLI. `within` made 63 eigensolves before the Cholesky proofs, with
    # 9, 14, 12, 7 and 18 by call; 37 before exact joints, with 3, 13, 3, 6
    # and 9; 25 before its curved factors, within JOIN_TOL, were dropped, with
    # 3, 10, 0, 6 and 3; 16 before that drop was proven from ||V - 1||, with
    # 3, 7, 0, 3 and 0, and 4 eigh calls in the chain. `generic` keeps
    # [Conj, Flat] links. The decoded certify forms one product A*A per Flat
    # end and Conj base, read by its normality term and its norm, and one per
    # exact distance; with each read forming its own, it formed 12 and 35
    counts = {
        "within": ((3, 3, 0, 3, 0), 12, 2, 6),
        "generic": ((3, 24, 0, 6, 17), 56, 6, 26),
    }
    for perturb, (by_call, chain, chain_eigh, recert_grams) in counts.items():
        art = gen_bundle("commuting_pair", 64, N=3, delta=1e-2, seed=0, perturb=perturb)
        # decode_bundle: the displacements ||x_j - y_j||, which are stored
        loaded, decode_calls = _matcore_calls(decode_bundle, json.loads(json_text(art)), "mem")
        bundle, link_calls = _matcore_calls(toral_links, loaded["x"], loaded["y"], seed=0)
        cert, cert_calls = _matcore_calls(certify, bundle, bundle.epsilon_reported)
        # decode_links: the lengths ||[H, x_j]|| of the Conj pieces, and
        # ||y_j - a_j|| of the flat ones
        artifact = json.loads(json_text(encode_links(bundle)))
        decoded, links_calls = _matcore_calls(decode_links, artifact, "m")
        # the distances ||x_j - y_j|| at the start of each Conj piece
        recert, recert_calls = _matcore_calls(certify, decoded, bundle.epsilon_reported)
        calls = (decode_calls, link_calls, cert_calls, links_calls, recert_calls)
        assert tuple(c["eigvalsh"] for c in calls) == by_call, perturb
        assert recert_calls["ata"] == recert_grams, perturb
        assert json_text(encode_certificate(recert)) == json_text(encode_certificate(cert))
        b, c, links, rc = (str(tmp_path / f"{perturb}-{f}") for f in ("b", "c", "l", "rc"))
        codes, calls = _matcore_calls(
            lambda: [
                cli_main(["gen", "--n", "64", "--N", "3", "--delta", "1e-2", "--perturb", perturb,
                          "--seed", "5", "--output", b]),
                cli_main(["link", "--input", b, "--output", c, "--links-output", links]),
                cli_main(["certify", "--input", links, "--output", rc]),
            ]
        )
        assert codes == [0, 0, 0]
        assert (calls["eigvalsh"], calls["eigh"]) == (chain, chain_eigh), perturb
    # gen -> lift at n = 32, N = 2 (24 eigensolves before exact joints, 20
    # before the curved factors within JOIN_TOL were dropped)
    r, lc, ll, lr = (str(tmp_path / f) for f in ("r.json", "lc.json", "ll.json", "lr.json"))
    codes, calls = _matcore_calls(
        lambda: [
            cli_main(["gen", "--n", "32", "--N", "2", "--delta", "1e-2", "--seed", "5",
                      "--output", r]),
            cli_main(["lift", "--input", r, "--output", lc, "--links-output", ll,
                      "--report-output", lr]),
        ]
    )
    assert codes == [0, 0]
    assert calls["eigvalsh"] == 18


def test_path_keeps_the_callers_segments():
    h = np.diag([1.0, -1.0])
    segs = [Conj(h, np.array([[0.0, 1.0], [1.0, 0.0]]))]
    segs.append(Flat(segs[0].end, np.zeros((2, 2))))
    path = MatrixPath(list(segs))
    assert all(kept is seg for kept, seg in zip(path.segments, segs))
    # each of the k = 2 segments runs for 1/2 of the clock
    assert path.locate(0.75) == (1, 0.5)
    assert path.max_speed() == 2 * max(seg.length for seg in segs)


def test_locate_is_exact_at_every_segment_end():
    # (t - i/k) k rounds off 1 at some joints once k >= 5 (k = 5, t = 1 gave
    # s = 0.9999999999999998), so value(t) evaluated a curved piece next to
    # its cached end
    h = np.array([[0.3, 0.1j], [-0.1j, -0.2]])
    for k in range(1, 13):
        segs = [Conj(h, np.array([[0.4, 0.1], [0.1, -0.2]]))]
        while len(segs) < k:
            segs.append(segs[-1]._same_generator(segs[-1].end))
        path = MatrixPath(segs)
        for i, t in enumerate(path.joints()[1:]):
            assert path.locate(t) == (i, 1.0), (k, i)
            assert path.value(t) is path.segments[i].end, (k, i)


def test_five_flats_ending_on_y_have_endpoint_error_zero():
    # the endpoint error at t = 1 is the last Flat's distance at s = 1, and
    # that Flat ends on y; read off value(1.0) at s = 1 - 2^-52, it was 1.5e-16
    rng = np.random.default_rng(23)
    points = [rng.uniform(-0.25, 0.25, (3, 3)) + 1j * rng.uniform(-0.25, 0.25, (3, 3))
              for _ in range(6)]
    link = MatrixPath([Flat(a, b) for a, b in zip(points, points[1:])])
    assert link.value(1.0) is link.segments[-1].b
    bundle = LinkBundle([link], [points[0]], [points[-1]], epsilon_reported=1.0)
    cert = certify(bundle, 1.0)
    assert (cert.endpoint_errors == 0.0).all()


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


class _Still:
    """A segment of no kind the package knows, standing at the identity."""

    n, length = 2, 0.0
    start = end = np.eye(2, dtype=complex)

    def value(self, _s):
        return self.start


def _refused_shapes():
    """(mode, links, refusal) for each shape that no link constructor builds."""
    a, b = np.diag([0.6, -0.4]), np.diag([0.5, 0.2])
    u = np.diag(np.exp(1j * np.array([0.3, -1.1])))
    h = np.array([[0.2, 0.1], [0.1, -0.3]], dtype=complex)
    flat, geo = MatrixPath([Flat(a, b)]), MatrixPath([Geo(u, h)])

    def conj_second(gen, base):  # [Flat, Conj], as a hand-made file may put them
        return MatrixPath([Flat(base, 0.9 * base), Conj(gen, 0.9 * base)])

    return {
        "hermitian-geo": ("hermitian", [geo], "links[0].segments[0]: a Geo segment in hermitian"),
        "unitary-flat": ("unitary", [MatrixPath([Flat(u, u)])], "[0]: a Flat segment in unitary"),
        "normal-geo": ("normal", [geo], "links[0].segments[0]: a Geo segment in normal mode"),
        "geo-beside-flat": ("unitary", [geo, flat], "links[1].segments[0]: a Flat segment in"),
        "conj-beside-flat": (
            "normal",
            [flat, MatrixPath([Conj(h, a)])],
            "links[1].segments[0]: a Conj segment unlike links[0].segments[0] in kind or H",
        ),
        "conj-different-h": (
            "normal",
            [conj_second(h, a), conj_second(2.0 * h, b)],
            "links[1].segments[1]: a Conj segment unlike links[0].segments[1] in kind or H",
        ),
        "foreign-class": ("normal", [MatrixPath([_Still()])], "[0]: a _Still segment in normal"),
    }


def test_bundle_names_an_unknown_mode():
    # the mode is refused before any segment is read
    link = MatrixPath([Flat(np.eye(2), np.eye(2))])
    with pytest.raises(PreconditionError, match=re.escape("unknown mode 'foo'")):
        LinkBundle([link], [link.start], [link.end], 0.0, mode="foo")


@pytest.mark.parametrize("shape", list(_refused_shapes()))
def test_bundle_refuses_shapes_no_constructor_builds(shape):
    # toral_links, ujc_links and lifted_links build [Conj, Flat] or [Flat] in
    # normal and hermitian mode and [Conj, Geo] or [Geo] in unitary mode, with
    # one H for every Conj at a share; certify bounds only those shapes
    mode, links, refusal = _refused_shapes()[shape]
    x, y = [link.start for link in links], [link.end for link in links]
    with pytest.raises(PreconditionError, match=re.escape(refusal)):
        LinkBundle(links, x, y, 0.0, mode=mode)


# ---------------------------------------------------------------------------
# unitary paths
# ---------------------------------------------------------------------------


def test_contraction_path_for_sign_matrix():
    u = np.diag([1.0, -1.0])
    path = unitary_contraction_path(u)
    assert op_norm(path.value(0.0) - u) < 1e-12
    assert op_norm(path.value(1.0) - np.eye(2)) < 1e-12
    assert path.exact_length() == pytest.approx(np.pi)
    assert path.exact_length() <= 2 * np.pi - 2 * np.pi / 2 + 1e-9


def test_contraction_path_commutes_with_functions_of_u():
    rng = np.random.default_rng(12)
    u = _haar_unitary(5, rng)
    path = unitary_contraction_path(u)
    assert path.exact_length() <= 2 * np.pi
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
            path = unitary_contraction_path(u)
            assert path.exact_length() <= 2 * np.pi
            assert op_norm(path.value(0.0) - u) < 1e-10


def test_contraction_path_antipodal_cluster_needs_long_arc():
    # both eigenvalues sit just around -1; the branch cut keeps them in one
    # short arc, so the generator norm is pi + d even though the arc itself
    # is only 2d long -- the sharp per-dimension norm bound needs spectra
    # that do not straddle the far side of the circle
    d = 0.3
    u = np.diag([np.exp(1j * (np.pi - d)), np.exp(1j * (np.pi + d))])
    length = unitary_contraction_path(u).exact_length()
    assert length == pytest.approx(np.pi + d)
    assert length > 2 * np.pi - 2 * np.pi / 2
    assert length <= 2 * np.pi - np.pi / 2


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
    # toral (in every mode), lifted and ujc links all run Conj(H, x_j) and then
    # a second factor, one H for the whole bundle, so each link starts on x_j
    # itself, and the second factor starts on the very matrix the conjugation
    # ends on: certify reads both ends as exact
    bundles = {}
    for mode in MODES:
        loaded = decode_bundle(gen_bundle("commuting_pair", 4, N=2, delta=1e-2, seed=11,
                                          mode=mode, perturb="generic"), "mem")
        bundles[f"toral-{mode}"] = toral_links(loaded["x"], loaded["y"], mode=mode)
    rng = np.random.default_rng(17)
    x, q, diags = _commuting_pair(4, rng)
    y = _perturb_in_basis(q, diags, 1e-2, rng)
    w = _haar_unitary(4, rng)
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w_hat = w @ _rot((k + adjoint(k)) / op_norm(k + adjoint(k)), 0.05)
    bundles["lifted"] = lifted_links(x, y)[1]
    bundles["ujc"] = ujc_links(x, y, w, w_hat)
    for name, bundle in bundles.items():
        first = [link.segments[0] for link in bundle.links]
        assert all(isinstance(c, Conj) for c in first), name
        assert all(c.base is xj for c, xj in zip(first, bundle.x_mats)), name
        assert all(c.value(0.0) is xj for c, xj in zip(first, bundle.x_mats)), name
        assert all(c.h is first[0].h for c in first), name
        assert first[0].length > 0.0, name
        assert all(link.segments[1].start is c.end for link, c in zip(bundle.links, first)), name
        cert = certify(bundle, bundle.epsilon_reported)
        assert (cert.endpoint_errors[:, 0] == 0.0).all(), name


def test_each_conj_family_member_caches_its_own_end():
    rng = np.random.default_rng(19)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + adjoint(h)) / 2
    bases = [np.diag(rng.standard_normal(3) / 4).astype(complex) for _ in range(3)]
    family = _conj_family(h, bases)
    for seg, base in zip(family, bases):
        assert seg.end is seg.end  # computed once
        assert np.array_equal(seg.end, Conj(h, base).end)
        assert seg.value(1.0) is seg.end
        assert seg.value(0.0) is seg.base
    # a copy taken after the first end was cached computes its own
    late = family[0]._same_generator(bases[1])
    assert np.array_equal(late.end, family[1].end)
    assert not np.array_equal(late.end, family[0].end)


def test_dropped_curved_factors_start_on_x():
    # at n = 1 and on a diagonal pair whose conjugator is diagonal, every
    # curved factor has length 0.0: each link is then its flat factor from x_j
    # itself, never from the curved end (which rounds), and the numbers are
    # those of the factor from psi_j, which equals x_j bit for bit here
    pairs = []
    for mode in ("normal", "hermitian", "unitary"):
        loaded = decode_bundle(gen_bundle("commuting_pair", 1, N=2, delta=0.3, seed=2,
                                          mode=mode), "mem")
        pairs.append((loaded["x"], loaded["y"], mode))
    x = NormalTuple([np.diag([0.5, -0.25j, 0.1 + 0.2j]), np.diag([0.3, 0.3j, -0.4])])
    y = NormalTuple([np.diag([0.52, -0.2j, 0.1 + 0.25j]), np.diag([0.31, 0.28j, -0.41])])
    pairs.append((x, y, "normal"))
    for x, y, mode in pairs:
        psi = spectral_match.isospectral_approximant(x, y).psi
        assert all(np.array_equal(p, xj) for p, xj in zip(psi, x.mats))
        bundles = [toral_links(x, y, mode=mode), lifted_links(x, y)[1]]
        for bundle in bundles:
            assert all(len(link.segments) == 1 for link in bundle.links)
            assert all(link.start is xj for link, xj in zip(bundle.links, bundle.x_mats))
            cert = certify(bundle, bundle.epsilon_reported)
            assert (cert.endpoint_errors[:, 0] == 0.0).all()
            if bundle.mode != "unitary":  # flat factors, which land on y_j
                assert (cert.endpoint_errors == 0.0).all()
                lengths = [op_norm(yj - xj) for xj, yj in zip(bundle.x_mats, bundle.y_mats)]
                assert bundle.lengths == lengths
                assert bundle.epsilon_reported == max(lengths) + 1e-12
    # the diagonal pair, as the parent construction read it
    for bundle in (toral_links(x, y), lifted_links(x, y)[1]):
        assert bundle.lengths == [0.04999999999999999, 0.019999999999999962]
        assert bundle.epsilon_reported == 0.05000000000099999


def _small_conjugation(mats, scale, rng):
    """W and What = W e^{i eps K}, K Hermitian, with eps such that the longest
    curved factor around H = log(What* W) = -eps K, max_j ||[H, m_j]||, is
    about ``scale``; and that H."""
    n = mats[0].shape[0]
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (k + adjoint(k)) / 2
    eps = scale / max(op_norm(commutator(k, m)) for m in mats)
    w = _haar_unitary(n, rng)
    w_hat = w @ _rot(k, eps)
    return w, w_hat, principal_log_unitary(adjoint(w_hat) @ w)


def test_curved_factors_within_join_tol_are_dropped():
    # a curved factor no longer than JOIN_TOL ends within JOIN_TOL of x_j, the
    # gap a path accepts at a joint, so each link is its second factor alone,
    # from x_j itself; a curved factor just longer keeps [Conj, second factor]
    rng = np.random.default_rng(23)
    x, q, diags = _commuting_pair(5, rng)
    y = _perturb_in_basis(q, diags, 1e-2, rng, rotate=False)
    u, uq, udiags = _commuting_pair(5, rng, unitary=True)
    uy = _perturb_in_basis(uq, udiags, 1e-2, rng, rotate=False, unitary=True)
    for scale, kept in ((0.5 * homotopy.JOIN_TOL, False), (2.0 * homotopy.JOIN_TOL, True)):
        w, w_hat, h = _small_conjugation(x.mats, scale, rng)
        _, _, uh = _small_conjugation(u.mats, scale, rng)
        unitary = homotopy._link_bundle(u.mats, uy.mats, "unitary", _conj_family(uh, u.mats))
        bundles = {"normal": (ujc_links(x, y, w, w_hat), h, Flat), "unitary": (unitary, uh, Geo)}
        for mode, (bundle, gen, second) in bundles.items():
            longest = max(c.length for c in _conj_family(gen, bundle.x_mats))
            assert scale / 2 < longest < 2 * scale, (mode, longest)
            shapes = [[type(seg) for seg in link.segments] for link in bundle.links]
            if kept:
                assert shapes == [[Conj, second]] * len(bundle.links), mode
                for link in bundle.links:
                    assert link.segments[1].start is link.segments[0].end, mode
            else:
                assert shapes == [[second]] * len(bundle.links), mode
                assert all(link.start is xj for link, xj in zip(bundle.links, bundle.x_mats))
                if mode == "normal":
                    lengths = [op_norm(yj - xj) for xj, yj in zip(bundle.x_mats, bundle.y_mats)]
                    assert bundle.lengths == lengths
            cert = certify(bundle, bundle.epsilon_reported)
            assert cert.passed, (mode, scale)
            assert (cert.endpoint_errors[:, 0] == 0.0).all(), mode


#: H's angles are read off V's computed eigenvalues, each off by a rounding
#: error absolute on the unit circle, not relative to the angle; a speed
#: ||[H, x]|| read from the computed H may exceed its exact value by about
#: twice that (2 ulp(2 pi) covers it at these sizes)
_ANGLE_ROUNDING = 2.0 * float(np.spacing(2.0 * np.pi))


def _contraction(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a / op_norm(a)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 32),  # n
    st.floats(-13.0, -8.0),  # log10 eps
    st.sampled_from(["dense", "rank_one"]),  # K; rank one keeps ||V - 1||_F near ||V - 1||
    st.integers(0, 2**16),  # seed
)
def test_a_proven_drop_bounds_every_conjugation_speed(n, log_eps, kind, seed):
    # V = e^{i eps K}, ||K|| = 1: wherever the bound from ||V - 1|| proves the
    # drop, every speed ||[H, x]|| around H = gap_branch_log(V) of a
    # contraction x is within JOIN_TOL / 2 and, up to the rounding of H's
    # angles, within the bound; it proves it once eps n <= 1e-11 and never
    # once eps >= 1e-9, where the speeds can exceed JOIN_TOL / 2
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "rank_one":
        k = np.outer(k[:, 0], k[:, 0].conj())
    k = (k + adjoint(k)) / 2
    eps = 10.0**log_eps
    v = exp_i_herm(k / op_norm(k), eps)
    bound = homotopy._conj_speed_bound(v)
    h = gap_branch_log(v)
    speeds = [op_norm(commutator(h, _contraction(n, rng))) for _ in range(3)]
    if eps * n <= 1e-11:
        assert bound <= homotopy.JOIN_TOL / 2
    if eps >= 1e-9:
        assert bound > homotopy.JOIN_TOL / 2
    if bound <= homotopy.JOIN_TOL / 2:
        assert max(speeds) <= homotopy.JOIN_TOL / 2
        assert max(speeds) <= bound + _ANGLE_ROUNDING


@pytest.mark.parametrize("angle", [1e-10, 1e-3, 0.5, 1.0, math.pi / 2 - 1e-3])
def test_the_drop_bound_is_reached_by_a_commutator_of_twice_the_norms(angle):
    # H = diag(h, -h) and the swap x give ||[H, x]|| = 2 h = 2 ||H|| ||x||, and
    # ||V - 1|| = 2 sin(h / 2), so the bound 2 * 2 arcsin(r / 2) is met up to
    # rounding, with no room to halve its angle. A diagonal V's angles are
    # exact, and gap_branch_log keeps a small negative one to its last bits,
    # so the speed is 2 h within a few ulps (2 ulp(2 pi), 1.8e-15, when the
    # angle -h went through 2 pi - h)
    h = angle * np.diag([1.0, -1.0]).astype(complex)
    v = np.diag(np.exp(1j * np.diag(h)))
    speed = op_norm(commutator(gap_branch_log(v), np.array([[0.0, 1.0], [1.0, 0.0]])))
    ulps = 4.0 * float(np.spacing(2.0 * angle))
    assert abs(speed - 2.0 * angle) <= ulps
    bound = homotopy._conj_speed_bound(v)
    assert speed - ulps <= bound <= speed * (1.0 + 1e-9) + ulps


def test_a_conjugator_past_a_quarter_turn_falls_back():
    # ||V - 1|| > sqrt(2): an angle may pass pi / 2, so the bound says nothing
    # (sqrt(2) itself, at angle pi / 2, is over once widened for rounding)
    for angle in (math.pi / 2, math.pi / 2 + 1e-3, math.pi):
        assert homotopy._conj_speed_bound(np.diag([1.0, np.exp(1j * angle)])) == math.inf
    assert homotopy._conj_speed_bound(np.diag([1.0, np.exp(1.5j)])) < math.inf


def test_the_proven_drop_builds_the_links_the_speeds_would(monkeypatch):
    # with the drop from ||V - 1|| switched off, every bundle builds its
    # conjugation and drops it on its computed speeds: `within` and `generic`
    # bundles in every mode, Y = X, n = 1, and a `within` bundle whose
    # matching permutes eigenvalues and keeps [Conj, Flat] get the same links
    # and certificates either way
    cases = [(16, 3, 1e-2, 0, mode, perturb) for mode in MODES for perturb in ("within", "generic")]
    cases += [(16, 3, 0.0, 1, "normal", "within"), (1, 2, 1e-2, 2, "normal", "generic")]
    cases += [(8, 2, 0.3, 1, "hermitian", "within")]
    proven, shapes = [], []
    for n, N, delta, seed, mode, perturb in cases:
        art = gen_bundle("commuting_pair", n, N=N, delta=delta, seed=seed, mode=mode, perturb=perturb)
        loaded = decode_bundle(art, "mem")
        x, y = loaded["x"], loaded["y"]
        texts = []
        for off in (False, True):
            with monkeypatch.context() as m:
                if off:
                    m.setattr(homotopy, "_conj_speed_bound", lambda v: math.inf)
                bundle = toral_links(x, y, mode=mode)
            cert = certify(bundle, bundle.epsilon_reported)
            texts.append((json_text(encode_links(bundle)), json_text(encode_certificate(cert))))
        assert texts[0] == texts[1], (n, mode, perturb)
        bound = homotopy._conj_speed_bound(isospectral_approximant(x, y).v)
        proven.append(bound <= homotopy.JOIN_TOL / 2)
        shapes.append(len(bundle.links[0].segments))
    assert proven == [True, False] * 3 + [True, True, False]
    assert shapes == [1, 2] * 3 + [1, 1, 2]


#: |fl(UV) - UV| <= g |U| |V| entrywise for complex n x n products, with
#: g = sqrt(2) gamma_{n+2} <= 1.42 (n + 2) u (Higham, sections 3.1 and 3.6),
#: and each sum or difference of matrices rounds once more. Writing
#: A = ||a0||_F + ||a1||_F and B = ||b0||_F + ||b1||_F, the product of sums
#: F(a0 + a1, b0 + b1) - C0 - C1 is within (4 g + 18 u) A B of the exact
#: middle term and F(a0, b1) + F(a1, b0) within (2 g + 6 u) A B, so the two
#: differ by at most (6 g + 24 u) A B <= 17 (n + 2) u A B in the Frobenius
#: norm; the test allows twice that
_MIDDLE_ROUNDING = 34.0 * 2.0**-53


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 24),  # n
    st.sampled_from(["commutator", "normality"]),
    st.lists(st.integers(-30, 30), min_size=4, max_size=4),  # binary scales of a0, a1, b0, b1
    st.integers(0, 2**16),  # seed
)
def test_the_flat_middle_term_from_a_product_of_sums(n, form_name, scales, seed):
    # C01 = F(a0, b1) + F(a1, b0), formed as F(a0 + a1, b0 + b1) - C0 - C1 with
    # three forms instead of four, stays within the rounding of the direct sum
    rng = np.random.default_rng(seed)
    a0, a1, b0, b1 = (
        math.ldexp(1.0, e) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for e in scales
    )
    form = commutator if form_name == "commutator" else homotopy._normality_form
    c0, c01, c1 = homotopy._flat_form_terms(form, Flat(a0, a1), Flat(b0, b1))
    assert np.array_equal(c0, form(a0, b0)) and np.array_equal(c1, form(a1, b1))
    direct = form(a0, b1) + form(a1, b0)
    frob = functools.partial(np.linalg.norm, ord="fro")
    allowed = _MIDDLE_ROUNDING * (n + 2) * (frob(a0) + frob(a1)) * (frob(b0) + frob(b1))
    assert frob(c01 - direct) <= allowed


def test_lifted_within_links_are_one_flat_piece():
    # on a `within` bundle whose matching keeps every eigenvalue in place, V
    # is block diagonal in X's eigenbasis, so the lift's conjugation moves
    # Phi(x_j) by rounding only: each lifted link is the flat piece from
    # Phi(x_j) to iota2(y_j)
    loaded = decode_bundle(gen_bundle("commuting_pair", 8, N=3, delta=1e-2, seed=3), "mem")
    x, y = loaded["x"], loaded["y"]
    lift, bundle, report = lifted_links(x, y)
    curved = _conj_family(lift.generator(), bundle.x_mats)
    assert 0.0 < max(c.length for c in curved) <= homotopy.JOIN_TOL
    assert all(
        [type(seg) for seg in link.segments] == [Flat] and link.start is xj
        for link, xj in zip(bundle.links, bundle.x_mats)
    )
    lengths = [op_norm(yj - xj) for xj, yj in zip(bundle.x_mats, bundle.y_mats)]
    assert bundle.lengths == lengths
    assert certify(bundle, bundle.epsilon_reported).passed
    assert report["kappa_identity_error"] == 0.0


def test_a_joint_off_by_less_than_join_tol_is_read_on_both_sides(monkeypatch):
    # a hand-edited links file whose second factor starts 1e-10 off the curved
    # end: the joint is not exact, so its distance is taken on each side, and
    # the certificate is the one computed with no distance shared at all
    for mode in ("normal", "unitary"):
        loaded = decode_bundle(gen_bundle("commuting_pair", 4, N=2, delta=1e-2, seed=12,
                                          mode=mode, perturb="generic"), "mem")
        bundle = toral_links(loaded["x"], loaded["y"], mode=mode)
        obj = json.loads(json_text(encode_links(bundle)))
        key = "base" if mode == "unitary" else "a"
        for link, entry in zip(bundle.links, obj["links"]):
            obj["matrices"].append(encode_matrix(link.segments[0].end + 1e-10 * np.eye(4)))
            entry["segments"][1][key] = len(obj["matrices"]) - 1
        off = decode_links(obj, "off")
        for link in off.links:
            gap = op_norm(link.segments[1].start - link.segments[0].end)
            assert 0.0 < gap < homotopy.JOIN_TOL
        cert = certify(off, off.epsilon_reported)
        with monkeypatch.context() as m:
            m.setattr(homotopy, "_joint_distances", lambda link, y, samples=None: [
                {} for _ in link.segments
            ])
            fresh = certify(off, off.epsilon_reported)
        assert json_text(encode_certificate(cert)) == json_text(encode_certificate(fresh)), mode


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


def test_projection_rows_run_over_k_within_each_t():
    # row i * n + k holds entry k at sample i, as the per-entry loop wrote it
    path = unitary_contraction_path(_haar_unitary(3, np.random.default_rng(21)))
    rows = project_solid_torus(path, samples=7)
    ts = np.linspace(0.0, 1.0, 7)
    expected = np.array(
        [
            [t, k, d.real, d.imag, np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)]
            for t in ts
            for k, d in enumerate(np.diag(path.value(t)))
        ]
    )
    assert rows.shape == (21, 6)
    assert np.array_equal(rows[:, :4], expected[:, :4])
    assert np.allclose(rows[:, 4:], expected[:, 4:], rtol=0.0, atol=1e-15)


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
        (lambda: certify(_STILL_BUNDLE, 1.0, grid_points=1),
         "grid_points must be an integer >= 2, got 1"),
        (lambda: certify(_STILL_BUNDLE, 1.0, grid_points=2.5),
         "grid_points must be an integer >= 2, got 2.5"),
        (lambda: _STILL.locate(1.5), "path time 1.5 outside [0, 1]"),
        (lambda: path_curvature(_STILL, 2.0), "path time 2.0 outside [0, 1]"),
        (lambda: project_solid_torus(_STILL, samples=1), "samples must be an integer >= 2, got 1"),
        (lambda: Geo(np.eye(2), np.eye(3)), "geodesic generator and base differ in shape"),
    ],
)
def test_precondition_messages(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
