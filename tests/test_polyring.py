"""Exact polynomial arithmetic: ring laws, substitution, printing, division."""

import ast
import pathlib
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

import uschub
from uschub.polyring import (
    ExactDivisionError,
    Polynomial,
    ONE,
    ZERO,
    c,
    cpoly,
    complete_sym,
    d,
    divide_by_difference,
    elementary_sym,
    g,
    parse_json,
    parse_text,
    q,
    sum_by_key,
    x,
    y,
)

VARS = (x(1), x(2), x(3), y(1), c(1, 1), c(1, 2), c(2, 2), d(1, 1), g(1, 1), g(2, 1))


@st.composite
def polys(draw):
    total = ZERO
    for _ in range(draw(st.integers(0, 4))):
        term = Polynomial.const(draw(st.integers(-4, 4)))
        for v in draw(st.lists(st.sampled_from(VARS), max_size=3)):
            term = term * Polynomial.var(v)
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO
    assert p * ZERO == ZERO
    assert Polynomial.sum([p, r, s, 2]) == p + r + s + 2
    assert Polynomial.sum([]) == ZERO
    assert sum_by_key([(1, p), (2, r), (1, s)]) == {k: v for k, v in ((1, p + s), (2, r)) if v}


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_substitution_is_a_homomorphism(p, r):
    image = {x(1): cpoly(1, 1) + 2, x(2): ZERO, y(1): Polynomial.var(x(3))}.get
    assert (p + r).substitute(image) == p.substitute(image) + r.substitute(image)
    assert (p * r).substitute(image) == p.substitute(image) * r.substitute(image)
    assert p.substitute(lambda v: None) == p


@settings(max_examples=60, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert parse_text(p.text()) == p


@settings(max_examples=60, deadline=None)
@given(polys())
def test_json_round_trip(p):
    assert parse_json(p.to_json()) == p


@settings(max_examples=40, deadline=None)
@given(polys())
def test_divide_by_difference_recovers_the_cofactor(p):
    a, b = x(1), x(2)
    product = (Polynomial.var(a) - Polynomial.var(b)) * p
    assert divide_by_difference(product, a, b) == p


def test_divide_by_difference_rejects_remainders():
    with pytest.raises(ExactDivisionError):
        divide_by_difference(Polynomial.var(x(1)), x(1), x(2))


def test_integer_coercion():
    p = cpoly(1, 1)
    assert p + 1 == 1 + p == p + ONE
    assert p * 3 == p + p + p
    assert 2 - p == -(p - 2)


def test_powers_square_only_while_bits_remain(monkeypatch):
    p = parse_text("x1 + 2*y1 - c1(2)")
    assert p ** 0 == ONE
    assert p ** 1 == p
    powers = [ONE]
    for _ in range(9):
        powers.append(powers[-1] * p)
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    for e in range(1, 10):
        calls.clear()
        assert p ** e == powers[e]
        assert len(calls) <= bin(e).count("1") + e.bit_length() - 1, e


def test_elementary_symmetric_values():
    assert elementary_sym(0, 2, kind="x") == ONE
    assert elementary_sym(1, 2, kind="x") == parse_text("x1 + x2")
    assert elementary_sym(2, 3, kind="x") == parse_text("x1*x2 + x1*x3 + x2*x3")
    assert elementary_sym(3, 2, kind="x") == ZERO


def test_elementary_and_complete_convolve_to_zero():
    # sum_i (-1)^i e_i h_{p-i} = 0 for p >= 1, over the same alphabet
    for k in (1, 2, 3):
        for p in (1, 2, 3):
            total = ZERO
            for i in range(0, p + 1):
                sign = -1 if i % 2 else 1
                term = elementary_sym(i, k, kind="y") * complete_sym(p - i, k)
                total = total + term * sign
            assert total == ZERO


def test_degrees_follow_the_variable_grading():
    assert cpoly(3, 5).degree() == 3
    assert Polynomial.var(g(2, 1)).degree() == 2
    assert Polynomial.var(g(2, 2)).degree() == 3
    assert Polynomial.var(q(1)).degree() == 2
    assert Polynomial.var(x(4)).degree() == 1
    assert ZERO.degree() == -1


def test_coefficient_extraction():
    p = parse_text("3*c1(1)*x1 - 2*x1 + 5")
    mono = next(iter(Polynomial.var(x(1)).terms()))
    split = p.coefficients_by("x")
    assert split[mono] == parse_text("3*c1(1) - 2")
    assert split[()] == Polynomial.const(5)


def test_text_formatting_is_stable():
    p = parse_text("c2(2) - c1(2)*d1(1) + d1(1)*d1(2) - d2(2)")
    assert p.text() == "-c1(2)*d1(1) + c2(2) + d1(1)*d1(2) - d2(2)"
    assert ZERO.text() == "0"
    assert (ZERO - ONE).text() == "-1"


def test_parse_rejects_garbage(time_limit):
    with pytest.raises(ValueError):
        parse_text("c1(1) +")
    with pytest.raises(ValueError):
        parse_text("z9(9)")
    # a stray '^', juxtaposed factors and a trailing '*'
    for text in ("x1^", "x1^x2", "x1^2^3", "2 3", "x1 x2", "c1(1)*"):
        with time_limit(2), pytest.raises(ValueError):
            parse_text(text)


# Strings over the parser's token alphabet: whole factors (one out of range)
# or raw characters, glued by operators, broken operators or nothing.
FACTORS = ("c1(1)", "c2(3)", "d1(2)", "g1[0]", "g2[1]", "h1[2]", "x1", "x2", "y3", "q1",
           "0", "1", "2", "17", "c9(2)")
GLUES = (" + ", " - ", "*", "-", "+", "^", "^2", " ", "", "+-")
TEXTS = st.lists(
    st.tuples(st.sampled_from(GLUES),
              st.sampled_from(FACTORS) | st.text("cdghxyq0123456789()[]+-*^ ", max_size=2)),
    max_size=8,
).map(lambda parts: "".join(glue + factor for glue, factor in parts))


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(TEXTS)
def test_parse_raises_or_round_trips(text):
    try:
        p = parse_text(text)
    except ValueError:
        return
    assert parse_text(p.text()) == p


def test_constants_hash_like_the_ints_they_equal():
    assert len({Polynomial.const(3), 3}) == 1
    assert hash(ZERO) == hash(0)
    assert hash(Polynomial.const(-7)) == hash(-7)


def test_no_module_imports_fractions():
    # The package computes over the integers; rational arithmetic stays in
    # the reference routes under tests/.
    offenders = []
    for path in sorted(pathlib.Path(uschub.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders
