"""Exact polynomial arithmetic: ring laws, substitution, printing, parsing."""

import ast
import copy
import os
import pathlib
import pickle
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

import uschub
from oracles import substitute_reference, sum_by_key
from uschub.permutations import all_perms
from uschub.polyring import (
    Polynomial,
    ONE,
    Variable,
    ZERO,
    add_product,
    c,
    clear_caches,
    cpoly,
    complete_sym,
    d,
    determinant,
    elementary_sym,
    g,
    h,
    parse_json,
    parse_text,
    q,
    x,
    y,
)
from uschub.schubert import universal_double

VARS = (x(1), x(2), x(3), y(1), c(1, 1), c(1, 2), c(2, 2), d(1, 1), g(1, 1), g(2, 1))


@st.composite
def polys(draw, variables=VARS):
    total = ZERO
    for _ in range(draw(st.integers(0, 4))):
        term = Polynomial.const(draw(st.integers(-4, 4)))
        for v in draw(st.lists(st.sampled_from(variables), max_size=3)):
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
    table = {x(1): (c(1, 1), -1), x(2): None, y(1): (x(3), 1), c(1, 2): (x(1), 1)}
    assert (p + r).relabel(table) == p.relabel(table) + r.relabel(table)
    assert (p * r).relabel(table) == p.relabel(table) * r.relabel(table)
    assert p.relabel({}) == p


# A relabel table over c, d, x and y sends a variable to 0 (None), or to +-1 times a variable of the pool:
# itself, one the table keeps, or one that another entry also reaches, so their exponents merge.
RELABEL_POOL = (c(1, 1), c(1, 2), d(1, 1), d(2, 2), x(1), x(2), y(1), y(2))
ENTRIES = st.none() | st.tuples(st.sampled_from(RELABEL_POOL), st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@given(polys(RELABEL_POOL), st.dictionaries(st.sampled_from(RELABEL_POOL), ENTRIES))
@example(parse_text("x1^2*x3 + 5*x1*y1 - x2^3 + c1(1)*x3"), {x(1): (x(3), 1), x(2): (x(3), -1), y(1): None})
def test_relabel_matches_the_reference(p, table):
    def image(v):
        return None if v not in table else ZERO if table[v] is None else Polynomial.var(table[v][0]) * table[v][1]

    expected = substitute_reference(p, image)
    assert p.relabel(table) == expected


@settings(max_examples=100, deadline=None)
@given(polys(RELABEL_POOL), st.permutations(RELABEL_POOL), st.lists(st.sampled_from((1, -1)), min_size=8, max_size=8))
def test_relabel_through_a_permutation_of_its_keys_skips_the_sweep(p, images, signs):
    # distinct images inside the keys never meet each other or a kept variable, as omega relies on
    table = {v: (w, sign) for v, w, sign in zip(RELABEL_POOL, images, signs)}
    image = {v: Polynomial.var(w) * sign for v, (w, sign) in table.items()}
    assert p.relabel(table) == substitute_reference(p, image.get)


# Every paired family at two points, so a relabel can land on a variable the term already holds.
RELABEL_VARS = (c(1, 1), c(1, 2), d(1, 1), d(1, 2), g(1, 0), g(1, 1), h(1, 0), h(1, 1), x(1))


def relabel_reference(p: Polynomial, trade: dict[str, str]) -> Polynomial:
    return substitute_reference(
        p, lambda v: Polynomial.var(Variable(trade[v.kind], v.i, v.j)) if v.kind in trade else None
    )


# A trade keeps i and j, so it runs inside c/d or inside g/h, whose classes share their degrees.
TRADES = st.sampled_from(("cd", "gh")).flatmap(lambda pair: st.tuples(st.sampled_from(pair), st.sampled_from(pair)))


@settings(max_examples=150, deadline=None)
@given(polys(RELABEL_VARS), TRADES)
def test_relabels_match_the_reference(p, trade):
    a, b = trade
    assert p.rename_kind(a, b) == relabel_reference(p, {a: b})
    if a != b:
        assert p.swap_kinds(a, b) == relabel_reference(p, {a: b, b: a})


def test_relabels_of_the_doubles_of_s4_match_the_reference():
    for w in all_perms(4):
        double = universal_double(w, 3)
        assert double.swap_kinds("c", "d") == relabel_reference(double, {"c": "d", "d": "c"}), w
        assert double.rename_kind("d", "c") == relabel_reference(double, {"d": "c"}), w
        assert double.rename_kind("c", "d") == relabel_reference(double, {"c": "d"}), w


def test_relabels_refuse_unpaired_families():
    # a trade across c/d and g/h gave a class the other family's degree, or an index out of its range: c1(0)
    calls = (lambda p: p.rename_kind("c", "x"), lambda p: p.swap_kinds("y", "d"),
             lambda p: p.rename_kind("c", "g"), lambda p: p.swap_kinds("h", "d"))
    for call in calls:
        with pytest.raises(ValueError):
            call(parse_text("c1(1)"))


@settings(max_examples=60, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert parse_text(p.text()) == p


@settings(max_examples=60, deadline=None)
@given(polys())
def test_json_round_trip(p):
    assert parse_json(p.to_json()) == p


def test_integer_coercion():
    p = cpoly(1, 1)
    assert p + 1 == 1 + p == p + ONE
    assert p * 3 == p + p + p
    assert 2 - p == -(p - 2)


@pytest.mark.parametrize("build, message", [
    (lambda: d(2, 1), "d-variable needs 1 <= i <= j, got d2(1)"),
    (lambda: g(0, 0), "g-variable needs i >= 1, j >= 0, got g0[0]"),
    (lambda: h(1, -1), "h-variable needs i >= 1, j >= 0, got h1[-1]"),
    (lambda: x(0), "x-variable needs i >= 1, got x0"),
    (lambda: y(0), "y-variable needs i >= 1, got y0"),
    (lambda: q(1, 0), "q-variable needs i >= 1 and a positive degree, got q1 deg 0"),
    (lambda: Variable("c", 1, 2, 7), "c1(2) has degree 1, got 7"),
    (lambda: Variable("c", 3, 2, 3), "c-variable needs 1 <= i <= j, got c3(2)"),
    (lambda: Variable("x", 1, 4, 1), "the variable kinds are c, d, g, h with a j and x, y, q without, got 'x', j = 4"),
    (lambda: Variable("z", 1, None, 1), "the variable kinds are c, d, g, h with a j and x, y, q without, got 'z', j = None"),
    (lambda: Polynomial.var(x(1)) ** -1, "negative powers are not defined"),
])
def test_out_of_range_indices_and_negative_powers_are_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


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


def test_complete_symmetric_edges():
    # h_0 is 1 over any window, empty or not; h_p with p > 0 over no variables and h_{-1} are 0
    assert complete_sym(0, 0) == ONE
    assert complete_sym(0, 3, offset=2) == ONE
    assert complete_sym(2, 0) == ZERO
    assert complete_sym(-1, 2) == ZERO


def test_determinant_edges():
    p = parse_text("x1 + 2*y3")
    assert determinant([[p]]) == p
    assert determinant([[ZERO]]) == ZERO
    assert determinant([]) == ONE


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


def test_add_product_takes_a_polynomial_or_its_term_dict_with_a_scale():
    a, b = parse_text("2*x1 - c1(1) + 1"), parse_text("x1 + 3*g1[1]")
    for left in (a, a.terms()):
        acc = {}
        add_product(acc, left, b)
        assert Polynomial(acc) == a * b
        add_product(acc, left, b, -3)
        assert Polynomial(acc) == a * b * -2
        # coefficients that cancel stay in the accumulator as zeros
        add_product(acc, left, b, 2)
        assert len(acc) == len(a * b) and set(acc.values()) == {0}


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
    assert hash(Polynomial.var(x(1)) ** 0 * 5) == hash(5)


def test_a_polynomial_keeps_its_hash_order_and_text():
    p = parse_text("c1(2)*x1^2 - 3*q1 + g2[1]*d1(1)")
    fresh = Polynomial(p.terms())
    # the first use computes each one, later uses read it back
    assert p.text() is p.text() and p.text() == fresh.text()
    assert hash(p) == hash(p) == hash(fresh) == hash(frozenset(p.terms().items()))
    assert p.latex() == fresh.latex() and p.to_json() == fresh.to_json()
    assert p.sorted_terms() is p.sorted_terms() and p.sorted_terms() == fresh.sorted_terms()
    assert p.text() == fresh.text() == "-3*q1 + c1(2)*x1^2 + d1(1)*g2[1]"
    # a copy carries the terms only: a kept hash is one of this process's variable identities
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and not hasattr(twin, "_hash") and twin.text() == p.text()


def test_variables_are_interned():
    assert x(1) is x(1)
    assert Variable("c", 1, 2, 1) is c(1, 2)
    assert q(1) is not q(1, 3)
    for v in (c(1, 2), g(2, 0), x(4), q(1, 3)):
        assert pickle.loads(pickle.dumps(v)) is v
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
    p = parse_text("c1(2)*x1^2 - 3*q1")
    assert pickle.loads(pickle.dumps(p)) == p
    assert hash(parse_text("x1*y2")) == hash(Polynomial.var(y(2)) * Polynomial.var(x(1)))
    # the memos may be emptied, but live polynomials keep their variables
    v = c(1, 5)
    clear_caches()
    assert c(1, 5) is v


def test_variables_are_immutable_and_hash_by_identity():
    v = x(1)
    with pytest.raises(AttributeError):
        v.i = 2
    with pytest.raises(AttributeError):
        del v.kind
    assert (v.kind, v.i, v.j, v.degree) == ("x", 1, None, 1)
    # equality and hashing stay the C-level identity slots
    assert Variable.__hash__ is object.__hash__
    assert Variable.__eq__ is object.__eq__


def test_variables_come_in_package_order():
    p = parse_text("x1 + y2 + d1(1) + h1[0] + c2(3) + c1(7)*x1")
    assert p.variables() == [c(1, 7), c(2, 3), d(1, 1), h(1, 0), x(1), y(2)]
    assert ZERO.variables() == []


def test_parse_json_builds_canonical_monomials():
    def term(*pairs):
        return {"terms": [{"coeff": "3", "vars": [{"kind": "x", "i": i, "exp": e} for i, e in pairs]}]}

    assert parse_json(term((1, 1), (1, 1))) == parse_text("3*x1^2")
    assert parse_json(term((1, 0))) == 3
    assert parse_json(term((1, 0))).text() == "3"
    assert parse_json(term((2, 1), (1, 0), (2, 2))) == parse_text("3*x2^3")
    for bad in (-2, 1.5, "2", True, None):
        with pytest.raises(ValueError):
            parse_json(term((1, bad)))


def _one_variable(**entry) -> dict:
    return {"terms": [{"coeff": "1", "vars": [entry]}]}


@pytest.mark.parametrize("document, field", [
    ({"terms": [{"coeff": 1.5, "vars": []}]}, "coeff"),
    ({"terms": [{"coeff": True, "vars": []}]}, "coeff"),
    ({"terms": [{"coeff": "1.5", "vars": []}]}, "coeff"),
    ({"terms": [{"vars": []}]}, "coeff"),
    ({}, "terms"),
    ({"terms": [{"coeff": "1"}]}, "vars"),
    (_one_variable(kind="x", exp=1), "i"),
    (_one_variable(kind="c", i=True, j=2, exp=1), "i"),
    (_one_variable(kind="x", i=1.0, exp=1), "i"),
    (_one_variable(kind="c", i=1, exp=1), "j"),
    (_one_variable(kind="x", i=1, j=2, exp=1), "j"),
    (_one_variable(kind="q", i=1, degree=2.0, exp=1), "degree"),
    (_one_variable(kind="z", i=1, exp=1), "kind"),
    (_one_variable(kind="x", i=1), "exp"),
], ids=("float-coeff", "bool-coeff", "float-text-coeff", "no-coeff", "no-terms", "no-vars", "no-i", "bool-i",
        "float-i", "no-j", "stray-j", "float-degree", "unknown-kind", "no-exp"))
def test_parse_json_names_the_malformed_field(document, field):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        parse_json(document)


def test_parse_json_reads_a_coefficient_as_an_int_or_the_text_int_reads():
    for coeff in (-12, "-12", " -12 ", "-1_2"):
        assert parse_json({"terms": [{"coeff": coeff, "vars": []}]}) == -12


_INTERNING = """
from uschub.permutations import Permutation
from uschub.polyring import _INTERNED, Variable, c, parse_json, q, x
from uschub.schubert import universal_single

bad_i = {"terms": [{"coeff": "1", "vars": [{"kind": "c", "i": True, "j": 2, "exp": 1}]}]}
interned = len(_INTERNED)
for build in (lambda: x(1.0), lambda: c(True, 2), lambda: q(1, 2.0), lambda: parse_json(bad_i), lambda: x(0.5),
              lambda: Variable("c", 1, 2, 7), lambda: Variable("c", 3, 2, 3), lambda: Variable("x", 1, 4, 1),
              lambda: Variable("z", 1, None, 1)):
    try:
        build()
        print("accepted")
    except (TypeError, ValueError) as exc:
        print(type(exc).__name__)
print(len(_INTERNED) - interned)
print(x(1).text())
print(universal_single(Permutation((1, 3, 2)), 2).to_polynomial("c").text())
"""


def test_non_integer_indices_never_enter_the_intern_table():
    # 1.0 and True equal 1, so an interned x1.0 would answer every later x(1) in the process:
    # run in a child so that a regression cannot rename the variables of later tests
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(uschub.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _INTERNING], env=env, text=True, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    refusals = ["TypeError"] * 3 + ["ValueError", "TypeError"] + ["ValueError"] * 4
    assert done.stdout.split() == [*refusals, "0", "x1", "c1(2)"]


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


def test_every_import_in_the_package_is_used():
    # An imported name that the module never reads is a leftover of a
    # refactor; a re-export says so with "# noqa: F401" on its line.
    unused = []
    for path in sorted(pathlib.Path(uschub.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert not unused
