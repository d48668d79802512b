"""Specializations: the g alphabet, quantum and classical limits, flags."""

from hashlib import sha256

import pytest

from frozen import C_FROM_G, FLAG_DIGEST, G_FORM_S6_DIGEST, QUANTUM_231, QUANTUM_312, QUANTUM_DIGEST
from oracles import classical_reference, flag_map_reference, to_g_form_reference
from uschub.cli import _profiles
from uschub.formulas import product_rule
from uschub.permutations import Permutation, all_perms
from uschub.polyring import (
    MEMOS,
    ONE,
    Polynomial,
    ZERO,
    c,
    clear_caches,
    cpoly,
    dpoly,
    elementary_sym,
    g,
    parse_text,
    x,
)
from uschub.schubert import classical_single, universal_double, universal_single
from uschub.specialize import (
    FlagProfile,
    _monomial_image,
    _specialize,
    c_from_g,
    c_from_g_det,
    c_from_g_paths,
    classical_specialize,
    g_classical,
    partial_flag_specialize,
    quantum_specialize,
    round_points,
    to_g_form,
    zero_y,
)


def test_c_from_g_small_values():
    for (i, k), expected in C_FROM_G.items():
        assert c_from_g(i, k) == parse_text(expected)
    assert c_from_g(0, 3) == ONE
    assert c_from_g(4, 3) == ZERO


@pytest.mark.parametrize("chern", (cpoly, dpoly, elementary_sym, c_from_g, c_from_g_det, c_from_g_paths),
                         ids=lambda fn: fn.__name__)
def test_chern_classes_are_one_at_zero_and_vanish_outside_the_rank(chern):
    # c_0 = 1 and c_i = 0 for i < 0 or i > k, for every constructor of the i-th class of a rank-k bundle
    for k in range(4):
        assert [chern(i, k) for i in (-1, 0, k + 1, k + 2)] == [ZERO, ONE, ZERO, ZERO], k


def test_c_from_g_routes_agree():
    for k in range(0, 8):
        for i in range(0, k + 1):
            base = c_from_g(i, k)
            assert base == c_from_g_det(i, k), (i, k)
            assert base == c_from_g_paths(i, k), (i, k)
    assert c_from_g_det(5, 3) == c_from_g_paths(5, 3) == ZERO


def test_c_from_g_recursion_step():
    # c_s(k+1) = c_s(k) + sum_{r=0}^{s-1} g_{k+1-r}[r] c_{s-r-1}(k-r)
    for k in range(1, 5):
        for s in range(1, k + 1):
            total = c_from_g(s, k)
            for r in range(0, s):
                total = total + Polynomial.var(g(k + 1 - r, r)) * c_from_g(s - r - 1, k - r)
            assert total == c_from_g(s, k + 1)


def test_an_int_point_takes_one_recursion_step():
    # c_2(3) -> c_2(2) + g_3[0] c_1(2) + g_2[1] and c_3(3) -> g_3[0] c_2(2) + g_2[1] c_1(1) + g_1[2]; the rest is kept
    p = parse_text("c2(3)*c1(2)*x1 + c3(3) + c1(4)")
    stepped = _specialize(p, 3)
    assert stepped == parse_text("c2(2)*c1(2)*x1 + g3[0]*c1(2)^2*x1 + g2[1]*c1(2)*x1"
                                 " + g3[0]*c2(2) + g2[1]*c1(1) + g1[2] + c1(4)")
    assert to_g_form(stepped) == to_g_form(p)


def test_c_from_g_printed_monomial():
    mono = next(iter(parse_text("g1[0]*g2[2]*g5[0]*g6[1]*g9[0]").terms()))
    assert c_from_g(8, 9).terms().get(mono, 0) == 1


def test_quantum_values():
    got = quantum_specialize(universal_single(Permutation((2, 3, 1)), 2).to_polynomial("c"))
    assert got == parse_text(QUANTUM_231)
    got = quantum_specialize(universal_single(Permutation((3, 1, 2)), 2).to_polynomial("c"))
    assert got == parse_text(QUANTUM_312)


def test_quantum_forms_of_s5_are_pinned():
    lines = [
        f"{','.join(map(str, w.as_tuple(5)))}: {quantum_specialize(universal_single(w, 4).to_polynomial('c')).text()}"
        for w in all_perms(5)
    ]
    assert sha256("\n".join(lines).encode()).hexdigest() == QUANTUM_DIGEST


def test_quantum_matches_the_two_pass_reference():
    full = FlagProfile((1, 2, 3, 4))
    for w in all_perms(5):
        single = universal_single(w, 4).to_polynomial("c")
        assert quantum_specialize(single) == flag_map_reference(single, full), w


def test_quantum_refuses_double_inputs():
    with pytest.raises(ValueError):
        quantum_specialize(universal_double(Permutation((2, 1, 3)), 2))


def test_g_route_collapses_to_the_classical_polynomial():
    for w in all_perms(4):
        single = universal_single(w, 3).to_polynomial("c")
        assert g_classical(to_g_form(single)) == classical_single(w)


def test_g_classical_reads_c_as_elementary_symmetric():
    for w in all_perms(4):
        single = universal_single(w, 3).to_polynomial("c")
        assert g_classical(single) == classical_specialize(single), w


def test_zero_y_only_touches_y():
    p = parse_text("x1*y1 + y2^2 + c1(1)")
    assert zero_y(p) == parse_text("c1(1)")


def test_flag_profile_validation():
    for bad in ((), (0, 2), (2, 2), (3, 1)):
        with pytest.raises(ValueError):
            FlagProfile(bad)


def test_flag_profile_accessors():
    profile = FlagProfile((2, 4))
    assert profile.l == 2
    assert profile.top == 4
    assert profile.k_(1) == 2 and profile.k_(2) == 2
    assert profile.q_degree(1) == 4
    full = FlagProfile((1, 2, 3))
    assert [full.q_degree(i) for i in (1, 2)] == [2, 2]


def test_flag_profile_members():
    full = FlagProfile((1, 2, 3))
    assert sum(1 for _ in full.members()) == 6
    half = FlagProfile((2, 4))
    members = list(half.members())
    assert Permutation((2, 4, 1, 3)) in members
    assert Permutation((3, 1, 2, 4)) not in members
    assert all(w.has_descents_only_in((2, 4)) for w in members)


def test_partial_flag_routes_agree():
    for top in (2, 3):
        for mask in range(1, 1 << top):
            profile = FlagProfile(tuple(i for i in range(1, top + 1) if mask & (1 << (i - 1))))
            for w in profile.members():
                assert partial_flag_specialize(w, profile, route="A") == partial_flag_specialize(
                    w, profile, route="B"
                )


def test_flag_forms_inside_5_are_pinned():
    lines = [
        f"{','.join(map(str, N.N))}: {','.join(map(str, w.as_tuple(N.top)))}: {partial_flag_specialize(w, N).text()}"
        for N in _profiles(5)
        for w in N.members()
    ]
    assert len(lines) == 633
    assert sha256("\n".join(lines).encode()).hexdigest() == FLAG_DIGEST


def test_full_flag_is_the_quantum_specialization():
    profile = FlagProfile((1, 2, 3))
    for w in profile.members():
        expected = quantum_specialize(universal_single(w, 2).to_polynomial("c"))
        assert partial_flag_specialize(w, profile) == expected


def test_partial_flag_example():
    profile = FlagProfile((2, 4))
    got = partial_flag_specialize(Permutation((2, 4, 1, 3)), profile)
    assert got == parse_text("x1*x2^2 + x1^2*x2")


def test_partial_flag_rejects_non_members():
    with pytest.raises(ValueError):
        partial_flag_specialize(Permutation((3, 1, 2)), FlagProfile((2, 4)))


def test_partial_flag_rejects_an_unknown_route():
    with pytest.raises(ValueError) as err:
        partial_flag_specialize(Permutation((2, 1)), FlagProfile((1, 2)), route="C")
    assert str(err.value) == "unknown route 'C'"


def test_classical_specialize_example():
    got = classical_specialize(parse_text("c2(2) - d1(1)*c1(2)"))
    assert got == parse_text("x1*x2 - y1*x1 - y1*x2")


def test_g_forms_of_s6_are_pinned():
    lines = [
        f"{','.join(map(str, w.as_tuple(6)))}: {to_g_form(universal_single(w, 5).to_polynomial('c')).text()}"
        for w in all_perms(6)
    ]
    assert len(lines) == 720
    assert sha256("\n".join(lines).encode()).hexdigest() == G_FORM_S6_DIGEST


def _kernel_cases():
    """(call, expected) pairs: each specialization beside its substitution reference."""
    full = FlagProfile((1, 2, 3, 4))
    for w in all_perms(5):
        single = universal_single(w, 4).to_polynomial("c")
        yield (lambda p=single: quantum_specialize(p)), flag_map_reference(single, full)
        yield (lambda p=single: to_g_form(p)), to_g_form_reference(single)
        yield (lambda p=single: classical_specialize(p)), classical_reference(single)
    for profile in _profiles(5):
        for w in profile.members():
            single = universal_single(w, max(profile.top - 1, 1)).to_polynomial("c")
            for route, p in (("A", single), ("B", round_points(single, {"c": profile.N}))):
                yield (lambda w=w, N=profile, r=route: partial_flag_specialize(w, N, r)), flag_map_reference(p, profile)
    for w in all_perms(4):
        double = universal_double(w, 3)
        yield (lambda p=double: to_g_form(p)), to_g_form_reference(double)
        yield (lambda p=double: classical_specialize(p)), classical_reference(double)
    for k in range(5):
        for i in range(k + 1):
            for j in range(k + 1):
                report = product_rule(i, j, k)
                for side in (report.lhs, report.rhs):
                    yield (lambda p=side: to_g_form(p)), to_g_form_reference(side)
                    yield (lambda p=side: g_classical(p)), flag_map_reference(side, FlagProfile((1,)))


def test_kernel_matches_the_substitution_references_cold_and_warm():
    cases = list(_kernel_cases())
    assert len(cases) == 360 + 2 * 633 + 48 + 4 * 55
    for index, (call, expected) in enumerate(cases):
        clear_caches()
        assert call() == expected, f"case {index}, cold"
        assert call() == expected, f"case {index}, warm"


def test_monomial_image_memo_is_bounded_and_cleared():
    assert _monomial_image in MEMOS and _monomial_image.cache_info().maxsize <= 4096
    to_g_form(universal_single(Permutation((3, 1, 4, 2)), 3).to_polynomial("c"))
    assert _monomial_image.cache_info().currsize > 0
    clear_caches()
    assert _monomial_image.cache_info().currsize == 0


def test_long_monomials_do_not_recurse():
    xs = tuple((x(i), 1) for i in range(1, 1501))
    got = to_g_form(Polynomial({xs + ((c(1, 1), 1),): 1}))
    assert got == Polynomial({((g(1, 0), 1),) + xs: 1})
    # here every variable maps, so the memo key is 1,500 variables long
    assert g_classical(Polynomial({tuple((g(i, 0), 1) for i in range(1, 1501)): 3})) == Polynomial({xs: 3})


# (polynomial, the same rounded down to the ranks (2, 4))
_ROUNDING = [
    # c1(1) lies below the first rank, so its term vanishes; c3(3) rounds to rank 2 < 3 and vanishes
    ("c1(1)*c2(3) + c1(2) + c3(3)", "c1(2)"),
    ("c1(3) + c2(3) + c2(5) + c4(5)", "c1(2) + c2(2) + c2(4) + c4(4)"),
    ("c1(2)*c1(3) - c2(2)*c1(4)^2", "c1(2)^2 - c2(2)*c1(4)^2"),
    ("c1(1)^3 + c1(5)*x1 + g1[1]", "c1(4)*x1 + g1[1]"),
    ("7", "7"),
]


@pytest.mark.parametrize("before, after", _ROUNDING)
def test_round_down_ranks_sends_each_point_to_the_largest_rank_below(before, after):
    # route B's rounding of c-points down to a profile's cut points
    assert round_points(parse_text(before), {"c": FlagProfile((2, 4)).N}) == parse_text(after)


@pytest.mark.parametrize("before, after", _ROUNDING)
def test_round_points_rounds_each_family_to_its_own_ranks(before, after):
    # as interval-mode locus_formula calls it: both families at once, c left alone by ranks that cover it
    before, after = (parse_text(text).rename_kind("c", "d") * parse_text("c1(3)") for text in (before, after))
    assert round_points(before, {"c": (1, 2, 3), "d": (2, 4)}) == after
