"""Universal polynomials: the table, construction routes, codes, duality."""

import pytest

from frozen import CLASSICAL_TABLE, S3_TABLE
from oracles import e_expand
from uschub.permutations import Permutation, all_perms
from uschub.polyring import ZERO, Polynomial, cpoly, parse_text, x, y
from uschub.schubert import (
    MElement,
    classical_double,
    classical_single,
    d_to_y,
    divided_difference,
    schubert_expand_M,
    schubert_expand_polynomial,
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


def test_divided_difference_kills_symmetric_input():
    sym = parse_text("x1*x2 + x1 + x2")
    assert divided_difference(sym, 1) == ZERO


def test_construction_routes_agree_on_s4():
    # At n = 4 the window is padded: the ladder starts at longest(5).
    for n in (3, 4):
        for w in all_perms(4):
            ladder = universal_single(w, n)
            assert ladder.codes == e_expand(classical_single(w), n).codes
            assert zero_y(universal_cy(w, n)) == ladder.to_polynomial("c")


def test_cy_route_is_the_double_polynomial_in_y():
    for w in all_perms(4):
        assert universal_cy(w, 3) == d_to_y(universal_double(w, 3))


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


def test_double_polynomials_are_stable():
    for w in all_perms(3):
        assert universal_double(w, 2) == universal_double(w, 3)


def test_single_codes_are_stable_under_padding():
    for w in all_perms(3):
        assert universal_single(w, 2).pad(3).codes == universal_single(w, 3).codes


def test_melement_round_trip():
    for w in all_perms(4):
        el = universal_single(w, 3)
        back = MElement.from_polynomial(el.to_polynomial("c"), 3, "c")
        assert back.codes == el.codes


def test_melement_validates_codes():
    with pytest.raises(ValueError):
        MElement({(2, 0): 1}, 2)
    with pytest.raises(ValueError):
        MElement({(1, 0, 0): 1}, 2)


def test_expand_inverts_the_basis():
    for w in all_perms(4):
        assert schubert_expand_M(universal_single(w, 3)) == {w: 1}


def test_expand_is_linear():
    u, v = Permutation((2, 3, 1)), Permutation((3, 1, 2))
    combo = universal_single(u, 3).to_polynomial("c") * 5 - universal_single(v, 3).to_polynomial("c") * 2
    assert schubert_expand_polynomial(combo, 3) == {u: 5, v: -2}


def test_expand_transition_products():
    # c1(1) c1(2) carries the two length-two members above the simple ones
    got = schubert_expand_polynomial(cpoly(1, 1) * cpoly(1, 2), 2)
    assert got == {Permutation((2, 3, 1)): 1, Permutation((3, 1, 2)): 1}


def test_single_rejects_too_small_n():
    with pytest.raises(ValueError):
        universal_single(Permutation((2, 3, 1)), 1)


def test_double_of_identity_is_one():
    assert universal_double(Permutation.identity(), 3) == Polynomial.one()
    assert universal_single(Permutation.identity(), 0).to_polynomial("c") == Polynomial.one()
