"""Normed noncommutative *-polynomial relations: parse, evaluate, check.

A tiny text format describes *-polynomials over noncommuting variables and
relation sets built from them:

    u u' - 1 = 0
    v v' - 1 = 0
    norm(u v - v u) <= 0.5

Grammar, informally: variables are ``[a-z][a-z0-9]*`` (``norm`` is reserved),
postfix ``'`` takes adjoints, juxtaposition or ``*`` multiplies, ``+``/``-``
add, and complex scalars are written ``(a+bi)``; bare nonnegative numbers are
real scalars.  A file holds one relation per line -- either ``expr = 0`` or
``norm(expr) <= bound`` -- with ``#`` comments; text with no relation markers
parses as a single polynomial.

Membership checks evaluate every relation at a concrete matrix assignment and
compare operator-norm defects against the bounds plus a slack tolerance.
"""

from __future__ import annotations

import dataclasses
import operator
import re
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .matcore import PreconditionError, _check_tolerance, adjoint, as_cmatrix, op_norm

__all__ = [
    "MembershipReport",
    "NCPoly",
    "ParseError",
    "Relation",
    "RelationSet",
    "evaluate",
    "membership",
    "parse",
    "preset",
    "to_text",
    "variable",
]

_NAME_RE = re.compile(r"[a-z][a-z0-9]*\Z")
_RESERVED = frozenset({"norm"})


class ParseError(PreconditionError):
    """Syntax error in relation text; carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _check_letter(letter) -> tuple[str, bool]:
    name, star = letter
    if not _NAME_RE.match(name) or name in _RESERVED:
        raise PreconditionError(f"invalid variable name {name!r}")
    return str(name), bool(star)


@dataclass(frozen=True)
class NCPoly:
    """A *-polynomial in canonical form.

    ``terms`` holds ``(coefficient, word)`` pairs where a word is a tuple of
    letters ``(name, starred)``; like words are merged, zero coefficients
    dropped, and terms sorted by word length then letters, so equal
    polynomials compare equal.  ``variables`` is the sorted tuple of names
    that actually occur.
    """

    terms: tuple = ()
    variables: tuple = field(init=False)

    def __post_init__(self):
        merged: dict[tuple, complex] = {}
        for coeff, word in self.terms:
            key = tuple(_check_letter(l) for l in word)
            merged[key] = merged.get(key, 0j) + complex(coeff)
        for c in merged.values():
            if not np.isfinite(c):
                raise PreconditionError(f"coefficient {c} is not finite")
        canon = tuple(
            (merged[w], w)
            for w in sorted((w for w, c in merged.items() if c != 0), key=lambda w: (len(w), w))
        )
        names = sorted({name for _, word in canon for name, _ in word})
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "variables", tuple(names))

    def adjoint(self) -> "NCPoly":
        return NCPoly(
            tuple(
                (c.conjugate(), tuple((nm, not st) for nm, st in reversed(w)))
                for c, w in self.terms
            )
        )

    def __add__(self, other) -> "NCPoly":
        other = _as_poly(other)
        return NCPoly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> "NCPoly":
        return NCPoly(tuple((-c, w) for c, w in self.terms))

    def __sub__(self, other) -> "NCPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "NCPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "NCPoly":
        other = _as_poly(other)
        return NCPoly(
            tuple((c1 * c2, w1 + w2) for c1, w1 in self.terms for c2, w2 in other.terms)
        )

    def __rmul__(self, other) -> "NCPoly":
        return _as_poly(other) * self

    def __str__(self) -> str:
        return to_text(self)


def _as_poly(x) -> NCPoly:
    if isinstance(x, NCPoly):
        return x
    if isinstance(x, (int, float, complex)) and not isinstance(x, bool):
        return NCPoly(((complex(x), ()),))
    raise PreconditionError(f"cannot interpret {type(x).__name__} as a polynomial")


def variable(name: str) -> NCPoly:
    """The polynomial consisting of the single letter `name`."""
    return NCPoly(((1.0 + 0j, ((name, False),)),))


EQ0 = "eq0"
NORM_LE = "norm_le"


@dataclass(frozen=True)
class Relation:
    """One relation: either ``poly = 0`` or ``norm(poly) <= bound``."""

    poly: NCPoly
    kind: str = EQ0
    bound: float = 0.0

    def __post_init__(self):
        if self.kind not in (EQ0, NORM_LE):
            raise PreconditionError(f"unknown relation kind {self.kind!r}")
        b = float(self.bound)
        if self.kind == EQ0 and b != 0.0:
            raise PreconditionError("an equality relation has bound 0")
        _check_tolerance("relation bound", b)
        object.__setattr__(self, "bound", b)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class RelationSet:
    """An ordered list of relations sharing one pool of variables."""

    relations: tuple = ()
    name: str | None = None

    def __post_init__(self):
        rels = tuple(self.relations)
        for r in rels:
            if not isinstance(r, Relation):
                raise PreconditionError("RelationSet entries must be Relation values")
        object.__setattr__(self, "relations", rels)

    @property
    def variables(self) -> tuple:
        return tuple(sorted({v for r in self.relations for v in r.poly.variables}))

    def __str__(self) -> str:
        return to_text(self)


# --- printing ---------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _word_text(word) -> str:
    return " ".join(name + ("'" if star else "") for name, star in word)


def _term_chunks(coeff: complex, word) -> tuple[str, str]:
    """Return (sign, chunk) where sign is '+' or '-' and chunk omits it."""
    if coeff.imag == 0.0:
        sign = "-" if coeff.real < 0 else "+"
        mag = abs(coeff.real)
        if not word:
            return sign, _fmt_float(mag)
        if mag == 1.0:
            return sign, _word_text(word)
        return sign, f"{_fmt_float(mag)} {_word_text(word)}"
    lit = "({}{}{}i)".format(
        _fmt_float(coeff.real),
        "+" if coeff.imag >= 0 else "-",
        _fmt_float(abs(coeff.imag)),
    )
    if not word:
        return "+", lit
    return "+", f"{lit} {_word_text(word)}"


def to_text(obj) -> str:
    """Render a polynomial, relation, or relation set; parse() inverts it."""
    if isinstance(obj, NCPoly):
        if not obj.terms:
            return "0"
        parts = []
        for i, (coeff, word) in enumerate(obj.terms):
            sign, chunk = _term_chunks(coeff, word)
            if i == 0:
                parts.append(chunk if sign == "+" else f"- {chunk}")
            else:
                parts.append(f"{sign} {chunk}")
        return " ".join(parts)
    if isinstance(obj, Relation):
        if obj.kind == EQ0:
            return f"{to_text(obj.poly)} = 0"
        return f"norm({to_text(obj.poly)}) <= {_fmt_float(obj.bound)}"
    if isinstance(obj, RelationSet):
        return "\n".join(to_text(r) for r in obj.relations)
    raise PreconditionError(f"cannot render {type(obj).__name__}")


# --- tokenizer / parser ------------------------------------------------------

_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    | (?P<cplx>\([ \t\r]*(?:(?P<re>[+-]?{_FLOAT})[ \t\r]*(?P<sign>[+-])[ \t\r]*(?P<im>{_FLOAT})i
                             |(?P<imonly>[+-]?{_FLOAT})i)[ \t\r]*\))
    | (?P<number>{_FLOAT})
    | (?P<le><=)
    | (?P<ident>[a-z][a-z0-9]*)
    | (?P<prime>')
    | (?P<star>\*)
    | (?P<plus>\+)
    | (?P<minus>-)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<eq>=)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        line, col = _past(chunk, line, col)
        pos = m.end()
    return tokens


def _past(chunk: str, line: int, col: int) -> tuple[int, int]:
    """Line and column just past ``chunk`` when it starts at (line, col)."""
    newlines = chunk.count("\n")
    if newlines:
        return line + newlines, len(chunk) - chunk.rfind("\n")
    return line, col + len(chunk)


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> _Token:
        """The next token, consumed; every caller has peeked that there is one."""
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.fail(f"expected {what}")
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        if tok is None:  # every cursor holds a token; the input ends just past the last
            last = self.tokens[-1]
            line, col = _past(last.text, last.line, last.column)
            raise ParseError(message + ", found end of input", line, col)
        raise ParseError(message + f", found {tok.text!r}", tok.line, tok.column)


def _number(text: str, line: int, column: int) -> float:
    """A number literal as a float; one too large to be finite is refused where it stands."""
    if not np.isfinite(x := float(text)):
        raise ParseError(f"number {text!r} is not finite", line, column)
    return x


def _parse_cplx(tok: _Token) -> complex:
    m = _TOKEN_RE.match(tok.text)  # the literal matches as itself, parts and all
    part = {g: _number(m[g], *_past(tok.text[: m.start(g)], tok.line, tok.column))
            for g in ("re", "im", "imonly") if m[g] is not None}
    if "imonly" in part:
        return complex(0.0, part["imonly"])
    return complex(part["re"], -part["im"] if m["sign"] == "-" else part["im"])


_FACTOR_START = ("cplx", "number", "ident", "lparen")


def _parse_primary(cur: _Cursor) -> NCPoly:
    tok = cur.peek()
    if tok is None:
        cur.fail("expected an expression")
    if tok.kind == "cplx":
        cur.advance()
        return _as_poly(_parse_cplx(tok))
    if tok.kind == "number":
        cur.advance()
        return _as_poly(_number(tok.text, tok.line, tok.column))
    if tok.kind == "ident":
        if tok.text in _RESERVED:
            raise ParseError(f"{tok.text!r} is reserved", tok.line, tok.column)
        cur.advance()
        return variable(tok.text)
    if tok.kind == "lparen":
        cur.advance()
        inner = _parse_expr(cur)
        cur.expect("rparen", "')'")
        return inner
    cur.fail("expected an expression")


def _parse_factor(cur: _Cursor) -> NCPoly:
    p = _parse_primary(cur)
    while (tok := cur.peek()) is not None and tok.kind == "prime":
        cur.advance()
        p = p.adjoint()
    return p


def _finite_at(tok: _Token, combine, p: NCPoly, q: NCPoly) -> NCPoly:
    """combine(p, q), refused at ``tok`` when a coefficient overflows."""
    try:
        return combine(p, q)
    except PreconditionError as e:  # NCPoly's refusal of a non-finite coefficient
        raise ParseError(str(e), tok.line, tok.column) from None


def _parse_term(cur: _Cursor) -> NCPoly:
    p = _parse_factor(cur)
    while (tok := cur.peek()) is not None and tok.kind in ("star", *_FACTOR_START):
        if tok.kind == "star":
            cur.advance()
            tok = cur.peek()  # the factor's first token; _parse_factor refuses None
        p = _finite_at(tok, operator.mul, p, _parse_factor(cur))
    return p


def _parse_expr(cur: _Cursor) -> NCPoly:
    tok = cur.peek()
    negate = False
    if tok is not None and tok.kind in ("plus", "minus"):
        cur.advance()
        negate = tok.kind == "minus"
    p = _parse_term(cur)
    if negate:
        p = -p
    while (tok := cur.peek()) is not None and tok.kind in ("plus", "minus"):
        cur.advance()
        start = cur.peek()
        q = _parse_term(cur)
        p = _finite_at(start, operator.add, p, -q if tok.kind == "minus" else q)
    return p


def _parse_relation(cur: _Cursor) -> Relation:
    tok = cur.peek()
    if tok is not None and tok.kind == "ident" and tok.text == "norm":
        cur.advance()
        cur.expect("lparen", "'(' after norm")
        poly = _parse_expr(cur)
        cur.expect("rparen", "')'")
        cur.expect("le", "'<='")
        btok = cur.expect("number", "a nonnegative bound")
        return Relation(poly, NORM_LE, _number(btok.text, btok.line, btok.column))
    poly = _parse_expr(cur)
    cur.expect("eq", "'=' or 'norm(...) <='")
    ztok = cur.expect("number", "0 on the right-hand side")
    if _number(ztok.text, ztok.line, ztok.column) != 0.0:
        raise ParseError("right-hand side must be 0", ztok.line, ztok.column)
    return Relation(poly, EQ0)


def parse(text: str):
    """Parse relation text into a RelationSet, or a bare expression into NCPoly."""
    tokens = _tokenize(text)
    is_relations = any(t.kind in ("eq", "le") for t in tokens)
    if not is_relations:
        cur = _Cursor([t for t in tokens if t.kind != "newline"])
        if cur.peek() is None:
            raise ParseError("empty input", 1, 1)
        poly = _parse_expr(cur)
        if cur.peek() is not None:
            cur.fail("trailing input after expression")
        return poly
    relations = []
    lines: list[list[_Token]] = [[]]
    for t in tokens:
        if t.kind == "newline":
            lines.append([])
        else:
            lines[-1].append(t)
    for toks in lines:
        if not toks:
            continue
        cur = _Cursor(toks)
        relations.append(_parse_relation(cur))
        if cur.peek() is not None:
            cur.fail("trailing input after relation")
    return RelationSet(tuple(relations))


# --- evaluation and membership ----------------------------------------------


def _assignment(assign, needed) -> tuple[dict, int]:
    mats = {}
    n = None
    for name, value in assign.items():
        m = as_cmatrix(value)
        if n is None:
            n = m.shape[0]
        elif m.shape[0] != n:
            raise PreconditionError(
                f"dimension mismatch: {name!r} is {m.shape[0]}x{m.shape[0]}, expected {n}x{n}"
            )
        mats[name] = m
    for name in needed:
        if name not in mats:
            raise PreconditionError(f"unknown variable {name!r}: no matrix assigned")
    if n is None:
        raise PreconditionError("empty assignment: cannot infer matrix dimension")
    return mats, n


def evaluate(p: NCPoly, assign: dict) -> np.ndarray:
    """Evaluate a polynomial at a matrix assignment (adjoint letters -> conjugate transpose)."""
    mats, n = _assignment(assign, p.variables)
    out = np.zeros((n, n), dtype=complex)
    for coeff, word in p.terms:
        letters = (adjoint(mats[name]) if star else mats[name] for name, star in word)
        out += coeff * (reduce(np.matmul, letters) if word else np.eye(n, dtype=complex))
    return out


@dataclass(frozen=True)
class MembershipReport:
    """Per-relation defects from a membership check, JSON-friendly."""

    member: bool
    slack: float
    relations: tuple
    defects: tuple
    bounds: tuple
    passed: tuple

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "slack": self.slack,
            "relations": [
                {"relation": r, "defect": d, "bound": b, "passed": ok}
                for r, d, b, ok in zip(self.relations, self.defects, self.bounds, self.passed)
            ],
        }


def membership(assign: dict, rset: RelationSet, slack: float = 0.0) -> MembershipReport:
    """Check whether the assignment satisfies every relation up to `slack`.

    Equality relations pass when the defect norm is at most `slack`; normed
    relations pass when it is at most bound + slack.
    """
    slack = float(slack)
    _check_tolerance("slack", slack)
    texts, defects, bounds, passed = [], [], [], []
    for rel in rset.relations:
        defect = op_norm(evaluate(rel.poly, assign))
        bound = rel.bound if rel.kind == NORM_LE else 0.0
        texts.append(to_text(rel))
        defects.append(defect)
        bounds.append(bound)
        passed.append(bool(defect <= bound + slack))
    return MembershipReport(
        member=all(passed),
        slack=slack,
        relations=tuple(texts),
        defects=tuple(defects),
        bounds=tuple(bounds),
        passed=tuple(passed),
    )


# --- presets ------------------------------------------------------------------

_UNITARY = "{0} {0}' - 1 = 0\n{0}' {0} - 1 = 0"
_HERMITIAN_CONTRACTION = "{0} - {0}' = 0\nnorm({0}) <= 1"


#: name -> (relations, the commutator a soft preset bounds by its parameter)
_PRESETS = {
    "interval": (_HERMITIAN_CONTRACTION.format("h"), None),
    "circle": (_UNITARY.format("u"), None),
    "free_pair": (_UNITARY.format("u") + "\n" + _UNITARY.format("v"), None),
    "soft_torus": (_UNITARY.format("u") + "\n" + _UNITARY.format("v"), "u v - v u"),
    "soft_cylinder": (
        _HERMITIAN_CONTRACTION.format("h") + "\n" + _UNITARY.format("u"),
        "h u - u h",
    ),
    "soft_z2xz": (
        _UNITARY.format("u") + "\nu u - 1 = 0\n" + _UNITARY.format("v"),
        "u v - v u",
    ),
}


def preset(name: str, parameter: float | None = None) -> RelationSet:
    """Relation sets for the standard soft/exact generator-and-relation algebras.

    ``interval`` (one Hermitian contraction), ``circle`` (one unitary),
    ``free_pair`` (two unitaries, no commutation constraint), and the softened
    families ``soft_torus(delta)``, ``soft_cylinder(delta)`` (Hermitian
    contraction + unitary), and ``soft_z2xz(epsilon)`` (adds u^2 = 1) which
    bound the commutator norm by the parameter.
    """
    if name not in _PRESETS:
        raise PreconditionError(f"unknown preset {name!r}")
    text, bounded = _PRESETS[name]
    if bounded is None:
        if parameter is not None:
            raise PreconditionError(f"preset {name!r} takes no parameter")
    else:
        if parameter is None:
            raise PreconditionError(f"preset {name!r} needs a commutator bound")
        parameter = float(parameter)
        _check_tolerance("preset parameter", parameter)
        text += f"\nnorm({bounded}) <= {parameter!r}"
    rset = parse(text)
    return dataclasses.replace(rset, name=name)
