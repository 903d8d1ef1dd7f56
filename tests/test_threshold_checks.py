"""Tolerance checks decided from a cheap norm bound decide as the exact norm does.

Every input check that only compares a norm with a tolerance goes through
``matcore._threshold_norm``: it accepts on min(Frobenius, Schur) and falls
back to ``op_norm`` otherwise. These property tests put each check's defect
at tol * (1 +- 1e-6) on the shapes where a bound is tight -- rank one
(Frobenius), diagonal unitaries and permutations (Schur), zero -- and on
dense Hermitian unitaries, where the fallback decides.

Certificate entries follow the same idea one step removed: a normality,
commutator or mode-defect term takes the cheap bound only while the bound,
times the term's weight, is at most 1e-3 of its tolerance. Hand-built
bundles put that weighted bound just below and just above the cut, and an
exact defect at the tolerance itself.

Where the cheap bound misses, ``matcore._proves_norm_at_most`` may still
prove ||A|| <= t by a Cholesky factorization. A property test puts ||A|| at
t (1 +- 1e-13) with clustered top singular values and at extreme scales;
hand-built bundles check that certify's norms against 1 read as exact.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from helpers import haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from torlinks import homotopy, matcore
from torlinks.cli import decode_bundle, encode_certificate, gen_bundle, json_text
from torlinks.homotopy import (
    JOIN_TOL,
    CertTolerances,
    Conj,
    Flat,
    Geo,
    LinkBundle,
    MatrixPath,
    certify,
    toral_links,
)
from torlinks.jointspec import CONTRACTION_SLACK, NormalTuple
from torlinks.matcore import (
    DiagnosticsError,
    PreconditionError,
    adjoint,
    commutator,
    herm_eig,
    normal_eig,
    op_norm,
)

SHAPES = ("zero", "rank_one", "diagonal", "permutation", "dense")
TOLS = (1e-10, 1e-6, 1e-3)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + adjoint(a)) / 2.0


def _shape(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """An exactly Hermitian n x n matrix of norm 1 (or 0) of the given kind."""
    if kind == "zero":
        return np.zeros((n, n), dtype=np.complex128)
    if kind == "rank_one":  # ||A||_F = ||A||_2
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    if kind == "diagonal":  # a diagonal unitary: Schur's bound is tight
        return np.diag(rng.choice([-1.0, 1.0], n)).astype(np.complex128)
    if kind == "permutation":  # row and column sums 1: Schur's bound is tight
        p = np.eye(n)[rng.permutation(n)]
        return ((p + p.T) / 2.0).astype(np.complex128)
    w = haar_unitary(n, rng)  # a dense Hermitian unitary: only the fallback decides
    return _hermitize((w * rng.choice([-1.0, 1.0], n)) @ adjoint(w))


def _scale(k: np.ndarray, limit: float, side: int) -> float:
    """t with ||t k|| = limit (1 + side 1e-6); 1 when k is zero up to rounding
    (a shape that commutes with the partner)."""
    nk = op_norm(k)
    return limit * (1.0 + side * 1e-6) / nk if nk > 1e-8 else 1.0


def _site(site: str, a: np.ndarray, side: int, tol: float, rng: np.random.Generator):
    """(call, defect, limit, shown): ``call`` runs one tolerance check on an
    input whose defect matrix ``defect`` has norm about limit (1 + side 1e-6);
    ``shown`` formats the exact norm as the rejection message prints it."""
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    shift = np.roll(eye, 1, axis=0)  # commutes with few shapes; [diagonal, shift] is monomial
    g = _hermitize(shift)
    h0 = np.diag(np.linspace(-1.0, 1.0, n)).astype(np.complex128)
    sci = "{:.3e}".format
    if site == "join":
        d = _scale(a, JOIN_TOL, side) * a
        call = lambda: MatrixPath([Flat(eye, 0 * eye), Flat(d, eye)])
        return call, 0 * eye - d, JOIN_TOL, sci
    if site == "contraction":
        limit = 1.0 + CONTRACTION_SLACK
        m = _scale(a, limit, side) * a
        return lambda: NormalTuple([m]), m, limit, repr
    if site == "commutator":
        m2 = _scale(commutator(a / 2, shift), tol, side) * shift
        call = lambda: NormalTuple([a / 2, m2], commutation_tol=tol)
        return call, commutator(a / 2, m2), tol, sci
    if site == "normality":
        # [m*, m] = (i t / 2) [a, g] for m = (a + i t g) / 2
        m = (a + 1j * _scale(commutator(a, g) / 2, tol, side) * g) / 2
        call = lambda: NormalTuple([m], normality_tol=tol)
        return call, adjoint(m) @ m - m @ adjoint(m), tol, sci
    if site == "hermitian":
        m = h0 + 1j * _scale(2 * a, 1e-10 * op_norm(h0), side) * a
        limit = 1e-10 * max(op_norm(m), 1e-300)
        return lambda: herm_eig(m), m - adjoint(m), limit, sci
    if site == "normal":
        m = h0 + 1j * _scale(2 * commutator(h0, a), tol * op_norm(h0), side) * a
        limit = tol * max(op_norm(m), 1e-300)
        return lambda: normal_eig(m, tol), commutator(adjoint(m), m), limit, sci
    if site == "unitary":
        # u*u - 1 = 2 t a + t^2 a^2 for u = w (1 + t a), w unitary
        u = haar_unitary(n, rng) @ (eye + _scale(2 * a, tol, side) * a)
        call = lambda: matcore._check_unitary(u, tol)
        return call, adjoint(u) @ u - eye, tol, sci
    if site == "mode_hermitian":
        t = NormalTuple([1j * _scale(2 * a, tol, side) * a])
        call = lambda: homotopy._validate_mode(t, "hermitian", tol, "x")
        return call, t.mats[0] - adjoint(t.mats[0]), tol, sci
    # mode_unitary: u*u - 1 = -2 t p + t^2 p^2 for u = 1 - t p, p = a^2 >= 0
    p = _hermitize(a @ a)
    t = NormalTuple([eye - _scale(2 * p, tol, side) * p])
    call = lambda: homotopy._validate_mode(t, "unitary", tol, "x")
    return call, adjoint(t.mats[0]) @ t.mats[0] - eye, tol, sci


cases = st.tuples(
    st.sampled_from(SHAPES),
    st.integers(1, 8),  # n
    st.sampled_from([-1, 1]),  # defect just below or just above the tolerance
    st.sampled_from(TOLS),
    st.integers(0, 2**16),  # seed
)

SITES = (
    "join",
    "contraction",
    "commutator",
    "normality",
    "hermitian",
    "normal",
    "unitary",
    "mode_hermitian",
    "mode_unitary",
)


@pytest.mark.parametrize("site", SITES)
@settings(max_examples=40, deadline=None)
@given(cases)
def test_each_check_decides_as_the_exact_norm(site, case):
    kind, n, side, tol, seed = case
    rng = np.random.default_rng(seed)
    call, defect, limit, shown = _site(site, _shape(kind, n, rng), side, tol, rng)
    exact = op_norm(defect)
    try:
        call()
        message = None
    except PreconditionError as e:
        message = str(e)
    except DiagnosticsError:  # normal_eig passed its check, then failed to diagonalize
        message = None
    assert (message is not None) == (exact > limit), (site, kind, exact, limit)
    if message is not None:
        assert shown(exact) in message


@settings(max_examples=200, deadline=None)
@given(cases, st.sampled_from(["hermitian", "permutation", "phases"]))
def test_threshold_norm_matches_op_norm(case, form):
    kind, n, side, tol, seed = case
    rng = np.random.default_rng(seed)
    a = _shape(kind, n, rng)
    if form == "permutation" and kind != "zero":  # a non-Hermitian permutation
        a = np.eye(n, dtype=np.complex128)[rng.permutation(n)]
    elif form == "phases":  # a scaled unitary or a rank-one u w*
        a = a @ np.diag(np.exp(2j * np.pi * rng.random(n)))
    d = _scale(a, tol, side) * a
    exact = op_norm(d)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as solve:
        value = matcore._threshold_norm(d, tol)
    if side < 0 and (kind != "dense" or form == "permutation"):
        assert solve.call_count == 0  # a tight bound accepts without an eigensolve
    assert (value > tol) == (exact > tol)
    assert value >= exact * (1.0 - 1e-12)  # an upper bound up to rounding
    if value > tol:
        assert value == exact


def _fresh_grams(mp: pytest.MonkeyPatch) -> None:
    """Every norm read from a product A*A that its caller formed (the
    ``ata`` argument) forms its own instead."""
    threshold, exact = matcore._threshold_norm, matcore._op_norm
    mp.setattr(matcore, "_threshold_norm", lambda a, tol, ata=None: threshold(a, tol))
    mp.setattr(matcore, "_op_norm", lambda a, ata=None: exact(a))


def _outcome(call):
    """The refusal ``call`` raises, or the bytes of what it returns."""
    try:
        out = call()
    except (PreconditionError, DiagnosticsError) as e:
        return f"{type(e).__name__}: {e}"
    return [a.tobytes() for a in out] if isinstance(out, tuple) else None


@pytest.mark.parametrize("site", ["contraction", "normality", "normal"])
@settings(max_examples=40, deadline=None)
@given(cases)
def test_a_shared_gram_reads_as_a_fresh_one(site, case):
    # NormalTuple and normal_eig form A*A once, for [A*, A] and for the norm
    # (its Cholesky proof, or normal_eig's scale): with every norm forming its
    # own product, each refusal, its message and normal_eig's output are the
    # same bytes
    kind, n, side, tol, seed = case
    outcomes = []
    for fresh in (False, True):
        rng = np.random.default_rng(seed)
        call, *_ = _site(site, _shape(kind, n, rng), side, tol, rng)
        with pytest.MonkeyPatch.context() as mp:
            if fresh:
                _fresh_grams(mp)
            outcomes.append(_outcome(call))
    assert outcomes[0] == outcomes[1]


def test_certificates_read_shared_grams_as_fresh_ones():
    # certify forms A*A once per Flat end and curved base, for its normality
    # term, its norm (proof or exact), a Geo's drift and a unitary defect:
    # toral bundles of every mode ([Conj, Flat] and [Conj, Geo]), a Geo of a
    # non-unitary base and a Flat from a norm above 1 certify to the same text
    # with every norm forming its own product
    bundles = []
    for mode in ("normal", "hermitian", "unitary"):
        art = gen_bundle("commuting_pair", 8, N=3, delta=1e-2, seed=4, mode=mode, perturb="generic")
        loaded = decode_bundle(art, "mem")
        bundles.append(toral_links(loaded["x"], loaded["y"], mode=mode))
    rng = np.random.default_rng(5)
    b = np.diag([0.9, 0.5, 0.3, 0.1]).astype(complex)
    geo = MatrixPath([Geo(b, _hermitize(rng.standard_normal((4, 4)) + 0j))])
    bundles.append(LinkBundle([geo], [b], [geo.end], 1.0, mode="unitary"))
    a, c = 1.2 * haar_unitary(4, rng), _with_singular_values(np.array([0.5]), 4, rng)
    bundles.append(LinkBundle([MatrixPath([Flat(a, c)])], [a], [c], 1.0))
    for bundle in bundles:
        texts = []
        for fresh in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if fresh:
                    _fresh_grams(mp)
                texts.append(json_text(encode_certificate(certify(bundle, 1.0))))
        assert texts[0] == texts[1]


def test_zero_norm_needs_no_eigensolve(monkeypatch):
    def refuse(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert op_norm(np.zeros((4, 4))) == 0.0
    assert matcore._threshold_norm(np.zeros((4, 4)), 0.0) == 0.0


# --- certificate terms ---------------------------------------------------------


def _frozen(base: np.ndarray) -> MatrixPath:
    """A motionless link: the orbit of ``base`` under the generator 0."""
    return MatrixPath([Conj(np.zeros_like(base), base)])


def _term_case(term: str, s: float):
    """(bundle, table, m, weight, tol): every entry of the certificate table
    ``table`` bounds weight * ||m|| for a hand-built bundle, m is s times a
    fixed matrix, and the entry is checked against ``tol``."""
    rng = np.random.default_rng(7)
    n = 4
    a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h0 = _hermitize(a0)
    h1 = _hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    tols = CertTolerances()
    if term == "normality":  # [a*, a] is quadratic in a, with no cancellation
        a = np.sqrt(s) * a0
        bundle = LinkBundle([_frozen(a)], [a], [a], 0.0)
        return bundle, "normality", commutator(adjoint(a), a), 1.0, tols.normality
    if term == "commutation":  # exactly Hermitian, hence normal, bases
        a, b = s * h0, h1 / op_norm(h1)
        bundle = LinkBundle([_frozen(a), _frozen(b)], [a, b], [a, b], 0.0)
        return bundle, "commutation", commutator(a, b), 1.0, tols.commutation
    if term == "mode_defect":
        a = s * a0
        bundle = LinkBundle([_frozen(a)], [a], [a], 0.0, mode="hermitian")
        return bundle, "mode_defects", a - adjoint(a), 1.0, tols.mode_defect
    # two Geo pieces B e^{i s H} with B = 1/2: of the four commutator terms
    # only ||B1|| ||B2|| ||[Ha, Hb]|| is nonzero, with weight 1/4
    half = 0.5 * np.eye(n, dtype=np.complex128)
    ga, gb = Geo(half, 2.0 * s * h0), Geo(half, 2.0 * h1)
    links = [MatrixPath([ga]), MatrixPath([gb])]
    bundle = LinkBundle(links, [half, half], [ga.end, gb.end], 0.0, mode="unitary")
    return bundle, "commutation", commutator(ga.h, gb.h), 0.25, tols.commutation


TERMS = ("normality", "commutation", "mode_defect", "geo_weighted")


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("term", TERMS)
def test_certificate_term_is_cheap_only_below_a_thousandth_of_its_tolerance(term, side):
    *_, m1, weight, tol = _term_case(term, 1.0)
    limit = 1e-3 * tol
    s = limit * (1.0 + side * 1e-6) / (weight * matcore._norm_upper_bound(m1))
    bundle, table, m, weight, tol = _term_case(term, s)
    cheap = weight * matcore._norm_upper_bound(m)
    exact = weight * op_norm(m)
    assert (cheap <= limit) == (side < 0)
    assert cheap > 1.01 * exact  # the two paths give different entries
    entries = getattr(certify(bundle, 1.0), table)
    if side < 0:
        assert np.all(entries == cheap)
        assert np.all(entries >= exact) and np.all(entries <= limit)
    else:
        assert np.all(entries == exact)


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("term", ["normality", "commutation"])
def test_certificate_verdict_at_the_tolerance_follows_the_exact_norm(term, side):
    *_, m1, weight, tol = _term_case(term, 1.0)
    bundle, _, m, weight, tol = _term_case(term, tol * (1.0 + side * 1e-6) / (weight * op_norm(m1)))
    assert (weight * op_norm(m) <= tol) == (side < 0)
    assert certify(bundle, 1.0).passed == (side < 0)


# --- norms proven by a Cholesky factorization ---------------------------------


def _with_singular_values(top: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """U diag(s) V* for Haar U, V, with s the values ``top`` followed by
    values uniform below min(top)."""
    s = np.concatenate([top, min(top) * rng.random(n - len(top))])
    return (haar_unitary(n, rng) * s) @ adjoint(haar_unitary(n, rng))


proofs = st.tuples(
    st.integers(1, 128),  # n
    st.sampled_from(["near", "clustered", "margin", "unitary"]),
    st.sampled_from([-1, 1]),  # ||A|| just below or just above t
    st.sampled_from([1e-10, 1e-3, 1.0, 1.0 + CONTRACTION_SLACK, 7.5]),  # t
    st.sampled_from([0, 190, -190, 210, -210]),  # A and t scaled by 2^e, exactly
    st.integers(0, 2**16),  # seed
)


@settings(max_examples=150, deadline=None)
@given(proofs)
def test_a_cholesky_proof_bounds_the_norm(case):
    n, kind, side, t, e, seed = case
    rng = np.random.default_rng(seed)
    r = matcore._CHOLESKY_ROUNDING * n * n
    if kind == "unitary":
        a = t * haar_unitary(n, rng)
    elif kind == "margin":  # well inside the allowance r
        a = _with_singular_values(np.array([t * (1.0 - 8.0 * r)]), n, rng)
    else:  # one top value, or up to n equal to within 1e-15
        k = 1 if kind == "near" else int(rng.integers(1, n + 1))
        top = t * (1.0 + side * 1e-13) * (1.0 - 1e-15 * np.arange(k))
        a = _with_singular_values(top, n, rng)
    a, t = matcore._ldexp(a, e), math.ldexp(t, e)
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as factor:
        proved, gram = matcore._proves_norm_at_most(a, t)
    if proved:
        assert op_norm(a) <= t
    if not 2.0**-200 <= np.abs(a).max() <= 2.0**200:  # outside, op_norm rescales
        assert not proved and gram is None
    elif kind == "margin":
        assert proved
    if kind == "unitary":  # every column norm is t up to rounding
        assert factor.call_count == 0


@pytest.mark.parametrize("n", [4, 16, 64])
def test_the_proof_keeps_its_rounding_allowance(n):
    # (s / n) J, J the all-ones matrix, has norm s exactly and columns of
    # norm s / sqrt(n), so the proof is attempted: it must fail within r / 4
    # of t and succeed 4 r below it
    r = matcore._CHOLESKY_ROUNDING * n * n
    for s, proved in ((1.0 - r / 4.0, False), (1.0 - 4.0 * r, True)):
        a = np.full((n, n), s / n, dtype=np.complex128)
        assert matcore._proves_norm_at_most(a, 1.0)[0] == proved, s


@pytest.mark.parametrize(
    "norms",
    [(0.5, 0.9), (0.5, 1.5), (1.5, 0.5), (1.2, 1.5), (1.0, 0.5)],
    ids=["both-below", "below-then-above", "above-then-below", "both-above", "unitary-start"],
)
def test_certify_norms_against_one_read_as_exact(norms, monkeypatch):
    # a Flat from norm c0 to c1, then a Conj around its end: a norm settled
    # at most 1 by the cheap bound or a proof enters as that bound, and a
    # chord through one settled end and one end above 1 would tilt, so every
    # certificate matches the exact-norm one
    rng = np.random.default_rng(11)
    n = 6
    a, b = (
        haar_unitary(n, rng) if c == 1.0 else _with_singular_values(np.array([c]), n, rng)
        for c in norms
    )
    h = _hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    flat = Flat(a, b)
    link = MatrixPath([flat, Conj(h / op_norm(h), flat.end)])
    bundle = LinkBundle([link], [a], [link.end], 1.0)
    cert = certify(bundle, 1.0)
    exact = (1.0 - cert.grid[:51] * 2.0) * norms[0] + cert.grid[:51] * 2.0 * norms[1]
    assert np.allclose(cert.contraction_excess[0, :51], np.maximum(exact - 1.0, 0.0))
    with monkeypatch.context() as m:
        m.setattr(matcore, "_threshold_norm", lambda a, tol, ata=None: op_norm(a))
        exact_norms = certify(bundle, 1.0)
    assert json_text(encode_certificate(cert)) == json_text(encode_certificate(exact_norms))
