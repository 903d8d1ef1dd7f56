"""Tests for the noncommutative relation DSL: parsing, printing, evaluation."""

import importlib.resources
import re

import numpy as np
import pytest
from helpers import haar_unitary

from torlinks.matcore import PreconditionError, adjoint, op_norm
from torlinks.ncrel import (
    EQ0,
    NORM_LE,
    MembershipReport,
    NCPoly,
    ParseError,
    Relation,
    RelationSet,
    evaluate,
    membership,
    parse,
    preset,
    to_text,
    variable,
)
from torlinks.softtorus import clock_shift


def _random_poly(rng, names=("u", "v", "w"), max_terms=5, max_len=4):
    terms = []
    for _ in range(rng.integers(0, max_terms + 1)):
        word = tuple(
            (str(rng.choice(names)), bool(rng.integers(0, 2)))
            for _ in range(rng.integers(0, max_len + 1))
        )
        style = rng.integers(0, 4)
        if style == 0:
            coeff = complex(int(rng.integers(-3, 4)), 0.0)
        elif style == 1:
            coeff = complex(rng.standard_normal(), 0.0)
        elif style == 2:
            coeff = complex(0.0, rng.standard_normal())
        else:
            coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((coeff, word))
    return NCPoly(tuple(terms))


# --- canonical form ----------------------------------------------------------


def test_like_words_merge_and_zeros_drop():
    u = ("u", False)
    p = NCPoly(((1.0, (u,)), (2.0, (u,)), (-3.0, (u,)), (4.0, ())))
    assert p.terms == ((4.0 + 0j, ()),)
    assert (variable("u") - variable("u")).terms == ()


def test_terms_sort_by_length_then_letters():
    p = parse("v u + u + u u' - 1")
    words = [w for _, w in p.terms]
    assert words == [
        (),
        (("u", False),),
        (("u", False), ("u", True)),
        (("v", False), ("u", False)),
    ]


def test_variables_are_sorted_names():
    assert parse("v u h'").variables == ("h", "u", "v")
    assert parse("1").variables == ()


def test_invalid_letters_rejected():
    with pytest.raises(PreconditionError):
        NCPoly(((1.0, (("U", False),)),))
    with pytest.raises(PreconditionError):
        NCPoly(((1.0, (("norm", False),)),))
    with pytest.raises(PreconditionError):
        NCPoly(((1.0, (("2x", False),)),))


def test_operator_algebra_matches_parsing():
    u, v = variable("u"), variable("v")
    assert u * v - v * u == parse("u v - v u")
    assert u * u.adjoint() - 1 == parse("u u' - 1")
    assert (u * v).adjoint() == parse("v' u'")
    assert 2 * u + u == parse("3 u")
    assert (1 - u) * (1 + u) == parse("1 - u u")


# --- parsing -----------------------------------------------------------------


def test_parse_word_minus_identity():
    p = parse("u u' - 1")
    assert p.terms == ((-1.0 + 0j, ()), (1.0 + 0j, (("u", False), ("u", True))))


def test_parse_commutator():
    p = parse("u v - v u")
    assert p.terms == (
        (1.0 + 0j, (("u", False), ("v", False))),
        (-1.0 + 0j, (("v", False), ("u", False))),
    )


def test_parse_norm_relation():
    r = parse("norm(u v - v u) <= 0.5")
    assert isinstance(r, RelationSet)
    assert len(r.relations) == 1
    rel = r.relations[0]
    assert rel.kind == NORM_LE and rel.bound == 0.5
    assert rel.poly == parse("u v - v u")


def test_parse_equality_relation():
    r = parse("u u' - 1 = 0")
    assert r.relations[0].kind == EQ0
    assert r.relations[0].poly == parse("u u' - 1")


def test_parse_multiline_with_comments():
    text = """
    # two unitaries, soft commutation
    u u' - 1 = 0   # range
    u' u - 1 = 0

    norm(u v - v u) <= 0.25
    """
    r = parse(text)
    assert [rel.kind for rel in r.relations] == [EQ0, EQ0, NORM_LE]
    assert r.variables == ("u", "v")


def test_parse_star_and_juxtaposition_agree():
    assert parse("u*v*w") == parse("u v w")
    assert parse("2*u") == parse("2 u")


def test_parse_adjoint_of_group():
    assert parse("(u v)'") == parse("v' u'")
    assert parse("u''") == parse("u")
    assert parse("(u + v)'") == parse("u' + v'")


def test_parse_complex_literals():
    p = parse("(1.5-2i) u")
    assert p.terms == ((1.5 - 2j, (("u", False),)),)
    assert parse("(2i)").terms == ((2j, ()),)
    assert parse("(-0.5+1e-3i)").terms == ((complex(-0.5, 1e-3), ()),)
    # a parenthesized real is just a grouped expression
    assert parse("(1.5) u") == parse("1.5 u")


def test_parse_unary_minus_and_precedence():
    assert parse("- u + v") == parse("v - u")
    assert parse("u v + w") == variable("u") * variable("v") + variable("w")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("u @ v")
    assert err.value.line == 1 and err.value.column == 3

    with pytest.raises(ParseError) as err:
        parse("u v - v u = 1")
    assert "right-hand side" in str(err.value)

    with pytest.raises(ParseError):
        parse("u +")
    with pytest.raises(ParseError):
        parse("norm u <= 1")
    with pytest.raises(ParseError):
        parse("u norm")  # reserved word inside an expression
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("u u' - 1 = 0 extra = 0")


def test_parse_error_at_a_stray_closing_paren():
    with pytest.raises(ParseError, match="expected an expression, found '\\)'") as err:
        parse("u + )")
    assert (err.value.line, err.value.column) == (1, 5)


@pytest.mark.parametrize(
    "text, position",
    [("u +", (1, 4)), ("(u", (1, 3)), ("u u' - 1 = 0\nnorm(u) <=", (2, 11))],
)
def test_parse_error_at_end_of_input_points_past_the_last_token(text, position):
    with pytest.raises(ParseError, match="found end of input") as err:
        parse(text)
    assert (err.value.line, err.value.column) == position


@pytest.mark.parametrize(
    "text, literal, position",
    [
        ("1e400 u", "1e400", (1, 1)),
        ("norm(u) <= 1e400", "1e400", (1, 12)),
        ("u = 1e400", "1e400", (1, 5)),
        ("v + (1e400+2i) u", "1e400", (1, 6)),
        ("v + (2-1e400i) u", "1e400", (1, 8)),
        ("v + (\n-1e400i) u", "1e400", (2, 2)),  # no literal spans lines: '(' stands alone
    ],
)
def test_parse_refuses_a_number_that_is_not_finite(text, literal, position):
    # "1e400 u" parsed as a polynomial that printed as "(inf-nani) u", text
    # that parses again in the variables inf, nani and u
    with pytest.raises(ParseError, match=re.escape(f"number {literal!r} is not finite")) as err:
        parse(text)
    assert (err.value.line, err.value.column) == position


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse("1e300 1e300 v"),
        lambda: parse("1e308 u + 1e308 u"),
        lambda: 1e300 * (1e300 * variable("u")),
        lambda: NCPoly(((float("nan"), (("u", False),)),)),
    ],
)
def test_polynomial_refuses_a_coefficient_that_is_not_finite(make):
    # arithmetic on finite literals can still overflow
    with pytest.raises(PreconditionError, match=r"coefficient \(.*\) is not finite"):
        make()


@pytest.mark.parametrize(
    "text, position",
    [
        ("1e300 1e300 v", (1, 7)),
        ("u u' - 1 = 0\n1e300 1e300 u = 0", (2, 7)),
        ("u * 1e300 * 1e300", (1, 13)),
        ("1e308 u + 1e308 u", (1, 11)),
        ("v = 0\n1e308 u - (-1e308) u = 0", (2, 11)),
    ],
)
def test_parse_refuses_an_overflowing_coefficient_at_its_factor(text, position):
    # the product or sum that overflows is refused at the factor or term it adds
    with pytest.raises(ParseError, match=r"coefficient \(.*\) is not finite") as err:
        parse(text)
    assert (err.value.line, err.value.column) == position


def test_complex_literal_stays_on_its_line():
    # a newline inside the parentheses ends the relation, so the literal is
    # refused where its line ends instead of joining the next line
    with pytest.raises(ParseError, match="expected '\\)', found end of input") as err:
        parse("u + (1\n+2i) = 0\nv = 0")
    assert (err.value.line, err.value.column) == (1, 7)
    rset = parse("u + ( 1\t+ 2i\r) = 0\nv = 0")
    assert [to_text(r) for r in rset.relations] == ["(1.0+2.0i) + u = 0", "v = 0"]


# --- printing ----------------------------------------------------------------


def test_to_text_frozen_forms():
    assert to_text(parse("u u' - 1")) == "- 1.0 + u u'"
    assert to_text(parse("u v - v u")) == "u v - v u"
    assert to_text(NCPoly(())) == "0"
    assert to_text(parse("(0.5+1i) u")) == "(0.5+1.0i) u"
    assert to_text(parse("norm(u v - v u) <= 0.5").relations[0]) == "norm(u v - v u) <= 0.5"
    assert to_text(parse("h - h' = 0").relations[0]) == "h - h' = 0"


def test_str_is_to_text():
    rset = parse("u u' - 1 = 0\nnorm(u v - v u) <= 0.5")
    for obj in (rset.relations[0].poly, rset.relations[1], rset):
        assert str(obj) == to_text(obj)


def test_round_trip_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = _random_poly(rng)
        assert parse(to_text(p)) == p


def test_relation_set_round_trip():
    rset = preset("soft_torus", 0.1)
    again = parse(to_text(rset))
    assert again.relations == rset.relations


# --- evaluation ----------------------------------------------------------------


def test_unitarity_defect_vanishes_on_shift():
    cs = clock_shift(2)
    out = evaluate(parse("u u' - 1"), {"u": cs.sigma})
    assert np.all(out == 0)


def test_commutator_norm_matches_closed_form():
    p = parse("u v - v u")
    for n in (3, 5, 8, 16):
        cs = clock_shift(n)
        val = op_norm(evaluate(p, {"u": cs.omega, "v": cs.sigma}))
        assert abs(val - 2 * np.sin(np.pi / n)) <= 1e-12


def test_hermitian_defect_vanishes():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + adjoint(a)
    assert np.all(evaluate(parse("h - h'"), {"h": h}) == 0)


def test_constant_polynomial_uses_assignment_dimension():
    out = evaluate(parse("2"), {"u": np.eye(3)})
    assert np.array_equal(out, 2 * np.eye(3))


def test_evaluate_errors():
    with pytest.raises(PreconditionError):
        evaluate(parse("u v"), {"u": np.eye(2)})
    with pytest.raises(PreconditionError):
        evaluate(parse("u v"), {"u": np.eye(2), "v": np.eye(3)})
    with pytest.raises(PreconditionError):
        evaluate(parse("1"), {})


def test_evaluation_is_a_star_homomorphism():
    rng = np.random.default_rng(11)
    assign = {"u": haar_unitary(4, rng), "v": haar_unitary(4, rng)}
    for _ in range(40):
        p = _random_poly(rng, names=("u", "v"), max_terms=4, max_len=3)
        q = _random_poly(rng, names=("u", "v"), max_terms=4, max_len=3)
        prod = evaluate(p * q, assign) - evaluate(p, assign) @ evaluate(q, assign)
        assert op_norm(prod) <= 1e-12 * max(1.0, op_norm(evaluate(p, assign)))
        star = evaluate(p.adjoint(), assign) - adjoint(evaluate(p, assign))
        assert op_norm(star) <= 1e-12


# --- membership ----------------------------------------------------------------


def test_clock_shift_pair_sits_in_wide_soft_torus():
    cs = clock_shift(4)
    report = membership({"u": cs.omega, "v": cs.sigma}, preset("soft_torus", 1.5))
    assert report.member
    assert abs(report.defects[-1] - np.sqrt(2)) <= 1e-12
    assert all(d <= 1e-15 for d in report.defects[:-1])


def test_commuting_unitaries_pass_at_zero_bound():
    n = 6
    u = np.diag((-1.0 + 0j) ** np.arange(n))
    report = membership({"u": u, "v": np.eye(n, dtype=complex)}, preset("soft_torus", 0.0))
    assert report.member and all(d == 0.0 for d in report.defects)


def test_non_unitary_fails_with_defect_value():
    report = membership({"u": 2 * np.eye(2, dtype=complex)}, preset("circle"))
    assert not report.member
    assert report.defects[0] == pytest.approx(3.0, abs=1e-12)
    assert report.passed == (False, False)


def test_membership_monotone_in_slack():
    cs = clock_shift(8)
    assign = {"u": cs.omega, "v": cs.sigma}
    rset = preset("soft_torus", 0.5)
    verdicts = [membership(assign, rset, s).member for s in (0.0, 1e-8, 0.1, 0.3, 1.0)]
    assert verdicts == sorted(verdicts)  # once passing, stays passing


def test_soft_torus_membership_matches_commutator_threshold():
    for n in range(3, 13):
        cs = clock_shift(n)
        assign = {"u": cs.omega, "v": cs.sigma}
        for delta in (0.1, 0.5, 1.0, 1.9, 2.0):
            got = membership(assign, preset("soft_torus", delta), slack=1e-12).member
            assert got == (2 * np.sin(np.pi / n) <= delta + 1e-12)


def test_membership_report_serializes():
    report = membership({"h": np.eye(2, dtype=complex)}, preset("interval"))
    d = report.to_dict()
    assert d["member"] is True
    assert len(d["relations"]) == 2
    assert d["relations"][1]["bound"] == 1.0


def test_membership_rejects_bad_slack():
    with pytest.raises(PreconditionError):
        membership({"u": np.eye(2)}, preset("circle"), slack=-1.0)


# --- presets -------------------------------------------------------------------


def test_preset_relation_lists():
    interval = preset("interval")
    assert [r.kind for r in interval.relations] == [EQ0, NORM_LE]
    assert interval.relations[1].bound == 1.0
    assert interval.variables == ("h",)

    torus = preset("soft_torus", 0.1)
    assert torus.name == "soft_torus"
    assert len(torus.relations) == 5
    assert torus.relations[-1].kind == NORM_LE and torus.relations[-1].bound == 0.1
    assert torus.variables == ("u", "v")

    free = preset("free_pair")
    assert len(free.relations) == 4
    assert all(r.kind == EQ0 for r in free.relations)

    cylinder = preset("soft_cylinder", 0.2)
    assert cylinder.variables == ("h", "u")
    assert to_text(cylinder.relations[-1]) == "norm(h u - u h) <= 0.2"

    z2xz = preset("soft_z2xz", 0.3)
    squares = [r for r in z2xz.relations if r.poly == parse("u u - 1")]
    assert len(squares) == 1


def test_preset_validation():
    with pytest.raises(PreconditionError):
        preset("moebius")
    with pytest.raises(PreconditionError):
        preset("soft_torus")
    with pytest.raises(PreconditionError):
        preset("circle", 0.1)
    with pytest.raises(PreconditionError):
        preset("soft_torus", -0.5)


def test_unknown_preset_is_named_before_its_parameter():
    # a parameter on an unknown name was refused as "takes no parameter"
    with pytest.raises(PreconditionError, match="unknown preset 'nosuch'"):
        preset("nosuch", 1.0)


def test_relation_validation():
    with pytest.raises(PreconditionError):
        Relation(parse("u"), EQ0, bound=0.5)
    with pytest.raises(PreconditionError):
        Relation(parse("u"), NORM_LE, bound=-1.0)
    with pytest.raises(PreconditionError):
        Relation(parse("u"), "between")
    with pytest.raises(PreconditionError):
        RelationSet((parse("u"),))


def test_bundled_intertwiner_example_file():
    text = importlib.resources.files("torlinks").joinpath("data/iso_delta.rel").read_text()
    rset = parse(text)
    assert len(rset.relations) == 7
    assert rset.variables == ("w", "x", "y", "z")

    x = np.diag([0.3, -0.2, 0.5j])
    assign = {"x": x, "y": x, "z": x, "w": np.eye(3, dtype=complex)}
    assert membership(assign, rset, slack=1e-12).member

    assign["z"] = x + 0.2 * np.eye(3)
    assert not membership(assign, rset, slack=1e-12).member


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: variable("u") + "x", "cannot interpret str as a polynomial"),
        (lambda: to_text(3), "cannot render int"),
        (lambda: parse("u )"), "line 1, column 3: trailing input after expression, found ')'"),
    ],
)
def test_precondition_messages(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
