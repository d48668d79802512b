"""Specializations: the g alphabet, quantum and classical limits, flags."""

from hashlib import sha256

import pytest

from frozen import C_FROM_G, FLAG_DIGEST, QUANTUM_231, QUANTUM_312, QUANTUM_DIGEST
from oracles import flag_map_reference
from uschub.cli import _profiles
from uschub.permutations import Permutation, all_perms
from uschub.polyring import ONE, Polynomial, ZERO, g, parse_text
from uschub.schubert import classical_single, universal_double, universal_single
from uschub.specialize import (
    FlagProfile,
    c_from_g,
    c_from_g_det,
    c_from_g_paths,
    classical_specialize,
    g_classical,
    partial_flag_specialize,
    quantum_specialize,
    to_g_form,
    zero_y,
)


def test_c_from_g_small_values():
    for (i, k), expected in C_FROM_G.items():
        assert c_from_g(i, k) == parse_text(expected)
    assert c_from_g(0, 3) == ONE
    assert c_from_g(4, 3) == ZERO


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


def test_classical_specialize_example():
    got = classical_specialize(parse_text("c2(2) - d1(1)*c1(2)"))
    assert got == parse_text("x1*x2 - y1*x1 - y1*x2")
