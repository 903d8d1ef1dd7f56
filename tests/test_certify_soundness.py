"""The analytic certificate against a dense-grid oracle.

``certify`` bounds each quantity per segment instead of sampling it, and
``epsilon_reported`` comes from Lipschitz bisection instead of a 201-point
sampler. Here every table entry must bound the sampled value from above, the
verdicts must agree with a grid-only certificate, and the reported epsilon
must lie between the sampled maximum and the sampler's own epsilon. Every
``worst`` entry must bound the largest sample of its quantity and every table
entry of its check, and every certificate must decide ``passed`` from its own
stored numbers.
"""

import json

import numpy as np
import pytest
from dense_oracle import dense_passed, dense_tables, dense_worst, sampled_epsilon, stored_verdict
from hypothesis import given, settings
from hypothesis import strategies as st

from torlinks import homotopy
from torlinks.cli import decode_bundle, encode_certificate, gen_bundle, json_text
from torlinks.homotopy import Flat, Geo, LinkBundle, MatrixPath, certify, toral_links, ujc_links
from torlinks.jointspec import NormalTuple
from torlinks.matcore import adjoint, exp_i_herm, op_norm, principal_log_unitary
from torlinks.softtorus import soft_pair

TABLES = (
    "normality",
    "contraction_excess",
    "distance_to_target",
    "commutation",
    "mode_defects",
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

shapes = st.tuples(
    st.integers(1, 8),  # n
    st.integers(1, 4),  # N
    st.sampled_from([1e-3, 1e-2, 5e-2]),  # delta
    st.integers(0, 2**16),  # seed
    st.sampled_from(["within", "generic"]),
)


#: each table of a Certificate and the ``worst`` entry of its check
WORST_OF_TABLE = {
    "endpoint_errors": "endpoint",
    "normality": "normality",
    "contraction_excess": "contraction_excess",
    "distance_to_target": "distance_to_target",
    "commutation": "commutation",
    "mode_defects": "mode_defect",
}


def _checked_certify(bundle, eps, **kw):
    """homotopy.certify, whose artifact decides ``passed`` from its own
    numbers and whose tables stay within their ``worst`` entries."""
    cert = homotopy.certify(bundle, eps, **kw)
    obj = json.loads(json_text(encode_certificate(cert)))
    assert obj["passed"] == stored_verdict(obj)
    for table, key in WORST_OF_TABLE.items():
        bound = getattr(cert, table)
        if bound is not None and bound.size:
            assert bound.max() <= cert.worst[key] + 1e-12, table
    return cert


@pytest.fixture(autouse=True, scope="module")
def _every_certificate_is_checked():
    """Every certify call in this module goes through _checked_certify."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(globals(), "certify", _checked_certify)
        yield


def _tuples(n, N, delta, seed, perturb, mode="normal"):
    art = gen_bundle("commuting_pair", n, N=N, delta=delta, seed=seed, mode=mode, perturb=perturb)
    loaded = decode_bundle(art, "mem")
    return loaded["x"], loaded["y"]


def _check_against_oracle(bundle):
    eps = bundle.epsilon_reported
    cert = certify(bundle, eps)
    oracle = dense_tables(bundle)
    assert np.array_equal(cert.endpoint_errors, oracle["endpoint_errors"])
    for key in TABLES:
        bound, sample = getattr(cert, key), oracle[key]
        if sample is None:
            assert bound is None
            continue
        assert bound.shape == sample.shape
        assert np.all(bound >= sample - 1e-12), key

    assert cert.passed == dense_passed(oracle, eps)
    grid_max, sampler_eps = sampled_epsilon(bundle)
    assert grid_max <= eps <= sampler_eps

    below = 0.99 * grid_max
    if below > 0:
        assert not certify(bundle, below).passed
        assert not dense_passed(oracle, below)
    return cert


@PROPERTY
@given(shapes, st.sampled_from(["normal", "hermitian", "unitary"]))
def test_toral_certificate_bounds_dense_oracle(shape, mode):
    x, y = _tuples(*shape, mode=mode)
    bundle = toral_links(x, y, mode=mode, seed=shape[3])
    assert _check_against_oracle(bundle).passed


@PROPERTY
@given(shapes, st.floats(0.0, 0.5))
def test_ujc_certificate_bounds_dense_oracle(shape, angle):
    # Y is the commuting target conjugated by Z = What* W, so the flat factor
    # joins two commuting tuples and the links certify
    n, N, delta, seed, _ = shape
    x, y = _tuples(n, N, delta, seed, "within")
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = k + adjoint(k)
    w_hat = w @ exp_i_herm(k / op_norm(k), angle)
    z = adjoint(w_hat) @ w
    y = NormalTuple([adjoint(z) @ m @ z for m in y.mats])
    bundle = ujc_links(x, y, w, w_hat)
    assert _check_against_oracle(bundle).passed


def test_criterion_1_grid_verdicts_match_dense_oracle():
    # the acceptance grid of criterion 1 up to n = 16 (the dense oracle at
    # n = 64 alone would take half a minute), at eps = epsilon_reported and
    # just below the largest sampled distance
    sizes = (4, 16)
    grids = {
        "normal": [
            (n, N, d, s) for n in sizes for N in (2, 3) for d in (1e-3, 1e-2) for s in range(5)
        ],
        "hermitian": [(n, 2, d, s) for n in sizes for d in (1e-3, 1e-2) for s in range(3)],
        "unitary": [(n, 2, d, s) for n in sizes for d in (1e-3, 1e-2) for s in range(3)],
    }
    for mode, grid in grids.items():
        for n, N, delta, seed in grid:
            x, y = _tuples(n, N, delta, seed, "within", mode=mode)
            bundle = toral_links(x, y, mode=mode, seed=seed)
            oracle = dense_tables(bundle)
            eps = bundle.epsilon_reported
            below = 0.99 * oracle["distance_to_target"].max()
            for e in (eps, below):
                assert certify(bundle, e).passed == dense_passed(oracle, e), (mode, n, N, seed, e)


# Constructor-shaped bundles whose bound terms no constructed bundle needs:
# each drops below the oracle if the term it exercises is left out.


def _hand_built(links, y_mats, mode):
    """A bundle of ``links`` to ``y_mats`` reporting the epsilon toral_links would."""
    eps, _ = homotopy._sup_distance(links, y_mats)
    return LinkBundle(links, [link.start for link in links], list(y_mats), eps, mode=mode)


@pytest.mark.parametrize("n, softness", [(16, 0.5), (64, 0.2)])
def test_soft_torus_geodesics_bound_dense_oracle(n, softness):
    # (u, v) = soft_pair and each member times e^{i delta K}: H = log(u0* u1)
    # does not commute with the other link's base, so the Geo pair bound needs
    # its ||B1|| ||[H1, B2]|| terms
    rng = np.random.default_rng(0)
    pair = soft_pair(n, softness)
    links = []
    for base in (pair.u, pair.v):
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        end = base @ exp_i_herm((k + adjoint(k)) / op_norm(k + adjoint(k)), 0.1)
        links.append(MatrixPath([Geo(base, principal_log_unitary(adjoint(base) @ end))]))
    cert = _check_against_oracle(_hand_built(links, [link.end for link in links], "unitary"))
    assert cert.commutation.max() > softness  # the pair is soft, so this fails


def test_geodesic_of_a_non_unitary_base_bounds_dense_oracle():
    # B*B is not 1, so a B e^{i s H} drifts off normal by up to ||[H, B*B]||
    b = np.diag([0.9, 0.5, 0.3, 0.1]).astype(complex)
    h = np.random.default_rng(1).standard_normal((4, 4)) + 0j
    link = MatrixPath([Geo(b, (h + h.T) / 2)])
    cert = _check_against_oracle(_hand_built([link], [link.end], "unitary"))
    assert cert.normality.max() > 0.1


def test_flat_between_normal_ends_bounds_dense_oracle():
    # both ends are normal but do not commute, so the normality of
    # (1-s) a + s b is s(1-s) ||[a*, b] + [b*, a]||, which peaks inside
    a, b = np.diag([0.5, 0.5j]), np.array([[0.0, 0.5], [0.5, 0.0]])
    cert = _check_against_oracle(_hand_built([MatrixPath([Flat(a, b)])], [b], "normal"))
    assert cert.worst["normality"] == pytest.approx(0.125, rel=1e-12)


def test_flat_ending_off_its_target_bounds_dense_oracle():
    # the distance along a Flat that misses y is not its length
    a, b = np.diag([0.5, -0.2, 0.1]), np.diag([-0.3, 0.4, 0.2])
    y = b + 0.5 * np.eye(3)
    cert = _check_against_oracle(_hand_built([MatrixPath([Flat(a, b)])], [y], "normal"))
    assert cert.worst["endpoint"] == 0.5
    assert cert.worst["distance_to_target"] == 1.1


@PROPERTY
@given(shapes, st.sampled_from(["normal", "hermitian", "unitary"]))
def test_worst_bounds_the_dense_maxima(shape, mode):
    x, y = _tuples(*shape, mode=mode)
    bundle = toral_links(x, y, mode=mode, seed=shape[3])
    cert = certify(bundle, bundle.epsilon_reported)
    dense = dense_worst(dense_tables(bundle))
    assert set(cert.worst) == set(dense)
    for key, value in dense.items():
        assert cert.worst[key] >= value - 1e-12, key


def test_epsilon_between_the_grid_maximum_and_the_supremum_fails_on_its_worst_entry():
    # epsilon just above the largest distance table entry: every entry the
    # grid reads is within it, but the supremum that decides the verdict is
    # not, and the certificate's worst says so
    for mode in ("normal", "hermitian", "unitary"):
        for seed in range(6):
            x, y = _tuples(16, 3, 1e-2, seed, "generic", mode=mode)
            bundle = toral_links(x, y, mode=mode, seed=seed)
            eps = (1.0 + 1e-9) * certify(bundle, bundle.epsilon_reported).distance_to_target.max()
            cert = certify(bundle, eps)
            assert not cert.passed, (mode, seed)
            assert cert.distance_to_target.max() <= eps < cert.worst["distance_to_target"]
            tols = cert.tolerances
            assert cert.worst["endpoint"] <= tols.endpoint
            assert cert.worst["normality"] <= tols.normality
            assert cert.worst["contraction_excess"] <= tols.contraction
            assert cert.worst["commutation"] <= tols.commutation
            assert cert.worst.get("mode_defect", 0.0) <= tols.mode_defect
