"""Universal polynomials: the table, construction routes, codes, duality."""

import copy
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frozen import CLASSICAL_TABLE, S3_TABLE
from oracles import (
    classical_double,
    code_products,
    d_to_y,
    divided_difference_reference,
    e_expand,
    universal_double_reference,
)
from uschub import schubert
from uschub.permutations import Permutation, all_perms
from uschub.polyring import ONE, ZERO, Polynomial, c, complete_sym, cpoly, elementary_sym, g, parse_text, q, x, y
from uschub.schubert import (
    MElement,
    classical_single,
    divided_difference,
    peel,
    schubert_expand_M,
    universal_cy,
    universal_double,
    universal_single,
)
from uschub.specialize import classical_specialize, zero_y


def test_s3_double_table():
    for word, expected in S3_TABLE.items():
        assert universal_double(Permutation(word), 2) == parse_text(expected)


def test_classical_small_table():
    for word, expected in CLASSICAL_TABLE.items():
        assert classical_single(Permutation(word)) == parse_text(expected)


def test_classical_staircase_top():
    for m in (2, 3, 4):
        w0 = Permutation.longest(m)
        mono = Polynomial.one()
        for i in range(1, m):
            mono = mono * Polynomial.var(x(i)) ** (m - i)
        assert classical_single(w0) == mono


def test_classical_is_homogeneous_of_degree_length():
    for w in all_perms(4):
        p = classical_single(w)
        degrees = {sum(e for _, e in mono) for mono in p.terms()}
        assert degrees == {w.length()} or (w.length() == 0 and degrees == {0})


def test_divided_difference_squares_to_zero():
    p = classical_single(Permutation((3, 1, 4, 2))) * parse_text("x1*x3^2")
    for k in (1, 2, 3):
        once = divided_difference(p, k)
        assert divided_difference(once, k) == ZERO


def test_divided_difference_braid_relation():
    p = parse_text("x1^3*x2 + 2*x2*x3^2")
    lhs = divided_difference(divided_difference(divided_difference(p, 1), 2), 1)
    rhs = divided_difference(divided_difference(divided_difference(p, 2), 1), 2)
    assert lhs == rhs


# Both degree-1 families around the swapped pairs, and bystanders of other kinds
# that sort before, between and after them.
DD_VARS = (c(1, 2), g(1, 1), *(x(i) for i in range(1, 5)), *(y(i) for i in range(1, 5)), q(1))


@st.composite
def dd_polys(draw):
    terms: dict = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = draw(st.dictionaries(st.sampled_from(DD_VARS), st.integers(1, 5), max_size=4))
        mono = tuple(sorted(exps.items(), key=lambda p: p[0].key))
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-5, 5))
    return Polynomial(terms)


@settings(max_examples=150, deadline=None)
@given(dd_polys(), st.integers(1, 3), st.sampled_from("xy"))
def test_divided_difference_matches_the_reference(p, k, kind):
    assert divided_difference(p, k, kind) == divided_difference_reference(p, k, kind)


def test_degree_one_family_users_refuse_other_kinds():
    # divided_difference read every kind but "x" as y: kind "X" sent x1 to 0 and kind "z" sent y1 to 1
    calls = {
        "divided_difference": lambda kind: divided_difference(parse_text("x1 + y1"), 1, kind),
        "elementary_sym": lambda kind: elementary_sym(1, 2, kind=kind),
        "complete_sym": lambda kind: complete_sym(1, 2, kind=kind),
    }
    for name, call in calls.items():
        for kind in ("X", "z", "c"):
            with pytest.raises(ValueError, match=f"^{name} expects the x or y family$"):
                call(kind)


def test_divided_difference_kills_symmetric_input():
    sym = parse_text("x1*x2 + x1 + x2")
    assert divided_difference(sym, 1) == ZERO


def test_construction_routes_agree_on_s4():
    # At n = 4 the codes are padded: the ladder climbs w's own S_m, and its codes are padded with 0s on return.
    for n in (3, 4):
        for w in all_perms(4):
            ladder = universal_single(w, n)
            assert ladder.codes == e_expand(classical_single(w), n).codes
            assert zero_y(universal_cy(w, n)) == ladder.to_polynomial("c")


def test_single_forms_are_stable_in_n():
    # the ladder climbs w's own S_m only, whatever n is; e_expand writes the classical polynomial in the codes of n
    for m, sizes in ((4, (3, 4, 5)), (5, (4, 5))):
        for w in all_perms(m):
            for n in sizes:
                assert universal_single(w, n) == e_expand(classical_single(w), n), (w, n)


def test_cy_route_is_the_double_polynomial_in_y():
    # 504 cases: the y ladder climbs w's own S_m, so its form must not change with n
    for m in range(1, 6):
        for w in all_perms(m):
            for n in range(max(m - 1, 1), 7):
                assert universal_cy(w, n) == d_to_y(universal_double(w, n)), (w, n)


def test_classical_specialization_matches_the_oracles():
    for w in all_perms(4):
        single = universal_single(w, 3).to_polynomial("c")
        assert classical_specialize(single) == classical_single(w)
        assert classical_specialize(universal_double(w, 3)) == classical_double(w)


def test_leading_code_is_unital_on_s4():
    for w in all_perms(4):
        el = universal_single(w, 3)
        lead = max(el.codes)
        assert lead == w.code_tail(3)
        assert el.codes[lead] == 1
        assert all(code <= lead for code in el.codes)


def test_duality_swaps_kinds_with_a_sign():
    for w in all_perms(4):
        flipped = universal_double(w, 3).swap_kinds("c", "d")
        expected = universal_double(w.inverse(), 3)
        if w.length() % 2:
            expected = -expected
        assert flipped == expected


def test_double_matches_the_reference():
    for m in range(1, 6):
        for n in (m - 1, m):
            for w in all_perms(m):
                assert universal_double(w, n) == universal_double_reference(w, n), (w, n)


def test_double_polynomials_are_stable():
    for w in all_perms(3):
        assert universal_double(w, 2) == universal_double(w, 3)


def test_single_codes_are_stable_under_padding():
    for w in all_perms(3):
        padded = {code + (0,): v for code, v in universal_single(w, 2).codes.items()}
        assert padded == universal_single(w, 3).codes


def test_melement_round_trip():
    for w in all_perms(4):
        el = universal_single(w, 3)
        back = MElement.from_polynomial(el.to_polynomial("c"), 3)
        assert back.codes == el.codes


def test_code_polynomials_match_the_product_route():
    for w in all_perms(4):
        el = universal_single(w, 3)
        for kind in ("c", "d"):
            assert el.to_polynomial(kind) == code_products(el, kind), (w, kind)


def test_ladder_levels_stop_at_the_budget(monkeypatch):
    monkeypatch.setattr(schubert, "LADDER_BUDGET", 1)
    top = MElement({(1, 2, 3): 1}, 3)
    assert top.partial(1).codes == {(0, 2, 3): 1}
    with pytest.raises(ArithmeticError, match="more than 1 codes at one level"):
        top.partial(2)


def test_a_walk_stopped_at_the_ladder_budget_leaves_no_level_cached(monkeypatch):
    # At 20 codes a level, the walk from the top of S_7 down to s_6 (20 levels, which the same budget
    # allows one climb) finishes five levels, of 1 to 16 codes, before it stops at 32; none may stay.
    monkeypatch.setattr(schubert, "LADDER_BUDGET", 20)
    schubert.clear_caches()
    with pytest.raises(ArithmeticError, match="codes at one level"):
        universal_single(Permutation((1, 2, 3, 4, 5, 7, 6)), 6)
    assert universal_single.cache_info().currsize == 0 and schubert._levels(7, "single") == {}


def test_a_climb_longer_than_the_budget_is_refused_before_it_builds(monkeypatch):
    # the cycle 2, 3, ..., m, 1 climbs (m-1)(m-2)/2 levels in S_m, and only the recursion limit stopped it when
    # levels nested
    monkeypatch.setattr(schubert, "LADDER_BUDGET", 5)
    schubert.clear_caches()
    with pytest.raises(ArithmeticError, match="the ladder needs more than 5 levels"):
        universal_single(Permutation((2, 3, 4, 5, 1)), 4)  # six levels
    assert schubert._levels(5, "single") == {}
    assert universal_single(Permutation((2, 3, 5, 4, 1)), 4) == MElement({(0, 0, 1, 4): 1}, 4)  # five levels
    schubert.clear_caches()


def test_a_short_word_builds_only_the_levels_of_its_own_size():
    # the identity climbed all n(n+1)/2 levels of S_{n+1}, past the interpreter's limit from n = 34 while each level
    # was one nested call; its trimmed word is the longest word of S_0, one level in the table of size 0
    schubert.clear_caches()
    assert universal_single(Permutation.identity(), 300) == MElement({(0,) * 300: 1}, 300)
    assert list(schubert._levels(0, "single")) == [()] and schubert._levels(300, "single") == {}
    schubert.clear_caches()


def test_a_word_asked_at_several_n_builds_its_levels_once():
    # each n filled a table of its own with the same 436 levels of S_31, padded: 1,308 levels for three sizes
    schubert.clear_caches()
    w = Permutation((*range(2, 32), 1))
    for n in (30, 31, 32):
        assert universal_single(w, n).codes == {(0,) * 29 + (30,) + (0,) * (n - 30): 1}
    assert sum(len(schubert._levels(size, "single")) for size in range(34)) == 436
    schubert.clear_caches()


def test_melements_are_immutable_and_share_their_polynomials():
    el = universal_single(Permutation((1, 3, 2)), 2)
    codes, poly = dict(el.codes), el.to_polynomial("c")
    for name in ("codes", "n", "_polys"):
        with pytest.raises(AttributeError, match="MElement is immutable"):
            setattr(el, name, {})
        with pytest.raises(AttributeError, match="MElement is immutable"):
            delattr(el, name)
    # the memoized level and its polynomial are intact, and each family is built once
    assert universal_single(Permutation((1, 3, 2)), 2) is el and el.codes == codes and el.n == 2
    assert el.to_polynomial("c") is el.to_polynomial() is poly
    assert el.to_polynomial("d") is el.to_polynomial("d") and el.to_polynomial("d") != poly
    assert pickle.loads(pickle.dumps(el)) == el and copy.copy(el) == el and copy.deepcopy(el) == el


def test_melement_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="'x'"):
        universal_single(Permutation((2, 1)), 2).to_polynomial("x")


def test_melement_validates_codes():
    with pytest.raises(ValueError):
        MElement({(2, 0): 1}, 2)
    with pytest.raises(ValueError):
        MElement({(1, 0, 0): 1}, 2)


def test_melement_refuses_bool_entries():
    # True met the bound as 1 and printed as [True]
    MElement({(1,): 1}, 1)
    with pytest.raises(TypeError, match="code entries must be ints"):
        MElement({(True,): 1}, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: MElement({(1,): 1}, 1).partial(0), "operator index 0 outside 1..1"),
    (lambda: MElement.from_polynomial(cpoly(1, 1) ** 2, 1), "monomial ((c1(1), 2),) is not a plain code product"),
])
def test_melement_refuses_a_bad_operator_index_and_a_square(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_long_climbs_answer_below_the_recursion_limit():
    # one nested call per ladder level passed the interpreter's limit at n = 34; the ladder is a loop, and the cycle
    # 2, 3, ..., 48, 1 climbs 47 * 46 / 2 = 1,081 levels below the top of S_48, past the default limit of 1,000
    schubert.clear_caches()
    try:
        assert universal_single(Permutation((*range(2, 49), 1)), 47) == MElement({(0,) * 46 + (47,): 1}, 47)
        assert len(schubert._levels(48, "single")) == 1 + 1_081
    finally:
        schubert.clear_caches()


def test_the_y_ladder_refuses_a_dominant_product_past_the_budget(time_limit):
    # m! terms in w's own S_m: only the recursion limit stopped s_40 at n = 40, and a loop would start on a 41!-term
    # product
    with time_limit(1), pytest.raises(ArithmeticError, match=r"the dominant product at n = 40 has [\d,]+ terms"):
        universal_cy(Permutation((*range(1, 40), 41, 40)), 40)
    with pytest.raises(ArithmeticError) as err:
        universal_cy(Permutation((*range(1, 8), 9, 8)), 8)
    assert str(err.value) == "the dominant product at n = 8 has 362,880 terms, more than 131,072"
    # a short word climbs its own S_m: both were refused when every word climbed all of S_{n+1}
    with time_limit(1):
        assert universal_cy(Permutation((2, 1)), 40).text() == "c1(1) - y1"
    assert universal_cy(Permutation.identity(), 8) == ONE
    # the fit check reads w itself, whose inverse is (3,1,2)
    with pytest.raises(ValueError, match=r"^\(2,3,1\) does not fit in S_2$"):
        universal_cy(Permutation((2, 3, 1)), 1)


def test_expand_inverts_the_basis():
    for w in all_perms(4):
        assert schubert_expand_M(universal_single(w, 3)) == {w: 1}


def test_expand_is_linear():
    u, v = Permutation((2, 3, 1)), Permutation((3, 1, 2))
    combo = universal_single(u, 3).to_polynomial("c") * 5 - universal_single(v, 3).to_polynomial("c") * 2
    assert schubert_expand_M(MElement.from_polynomial(combo, 3)) == {u: 5, v: -2}


S4 = sorted(all_perms(4), key=lambda w: w.word)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(S4), st.integers(-9, 9).filter(bool), max_size=len(S4)))
def test_expand_recovers_any_combination(combo):
    total = Polynomial.sum(universal_single(w, 3).to_polynomial("c") * co for w, co in combo.items())
    assert schubert_expand_M(MElement.from_polynomial(total, 3)) == combo


def test_expand_transition_products():
    # c1(1) c1(2) carries the two length-two members above the simple ones
    got = schubert_expand_M(MElement.from_polynomial(cpoly(1, 1) * cpoly(1, 2), 2))
    assert got == {Permutation((2, 3, 1)): 1, Permutation((3, 1, 2)): 1}


def test_peel_expands_over_polynomial_coefficients():
    # A unitriangular basis over Z[g] on the terms 0 < 1 < 2: element t leads at t.
    g1, g2 = parse_text("g1[1]"), parse_text("g2[1]")
    basis = {0: {0: ONE, 1: g1, 2: g2 - 1}, 1: {1: ONE, 2: 2 * g1}, 2: {2: ONE}}
    coeffs = {"A": g1 + 1, "B": g2, "C": Polynomial.const(3)}
    combo = {t: Polynomial.sum(a * basis[i].get(t, ZERO) for i, a in enumerate(coeffs.values())) for t in range(3)}
    assert combo[2] == g1 * g2 + g2 - g1 - 1 + 2 * g1 * g2 + 3
    assert peel(combo, lambda t: ("ABC"[t], basis[t]), key=lambda t: t) == coeffs
    # a lead that writes a term the peel has already passed breaks the order
    wrong = {**basis, 1: {0: g1, 1: ONE}}
    with pytest.raises(AssertionError, match="earlier term"):
        peel(combo, lambda t: ("ABC"[t], wrong[t]), key=lambda t: t)


def test_classical_single_of_the_identity_is_one():
    assert classical_single(Permutation.identity()) == ONE


def test_double_rejects_too_small_n():
    with pytest.raises(ValueError) as err:
        universal_double(Permutation((3, 2, 1)), 1)
    assert str(err.value) == "(3,2,1) does not fit in S_2"


def test_double_refuses_a_word_that_does_not_fit_before_building_a_ladder(time_limit):
    # the identity's ladder at n was built first, and only then did w's fit check raise
    schubert.clear_caches()
    with time_limit(1), pytest.raises(ValueError, match=r"does not fit in S_41"):
        universal_double(Permutation((*range(1, 42), 43, 42)), 40)
    assert universal_single.cache_info().currsize == 0


def test_cold_climbs_run_a_few_dozen_frames_deep():
    # every ladder nested calls per level, 2(n + 1) at most for universal_single and one per level for the others
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    schubert.clear_caches()
    sys.setrecursionlimit(depth + 40)
    try:
        cycle = universal_single(Permutation((*range(2, 62), 1)), 60)  # a cold climb: 1,771 levels of S_61
        assert cycle.codes == {(0,) * 59 + (60,): 1} and cycle.to_polynomial("c").text() == "c60(60)"
        w = Permutation((*range(1, 49), 50, 49))
        assert classical_single(w) == Polynomial.sum(Polynomial.var(x(i)) for i in range(1, 50))
        for w in all_perms(6):
            universal_single(w, 5), universal_cy(w, 5)
    finally:
        sys.setrecursionlimit(limit)
        schubert.clear_caches()


def test_single_rejects_too_small_n():
    with pytest.raises(ValueError):
        universal_single(Permutation((2, 3, 1)), 1)


def test_double_of_identity_is_one():
    assert universal_double(Permutation.identity(), 3) == Polynomial.one()
    assert universal_single(Permutation.identity(), 0).to_polynomial("c") == Polynomial.one()
