"""Permutation combinatorics: group laws, codes, diagrams, pattern classes."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from uschub.permutations import Permutation, _from_reversed_code, _trim, all_perms, conjugate, parse_oneline
from uschub.polyring import MEMOS, clear_caches

perms = st.permutations(range(1, 6)).map(Permutation)
# S_1 .. S_7, so operands of a product may differ in size
small_perms = st.integers(1, 7).flatmap(lambda m: st.permutations(range(1, m + 1))).map(Permutation)


def assert_derived(p):
    """A derived permutation is one the validating constructor accepts, with its word trimmed."""
    assert p == Permutation(p.word)
    assert _trim(p.word) == p.word


@settings(max_examples=150, deadline=None)
@given(small_perms, small_perms)
def test_derived_words_are_valid_and_trimmed(u, v):
    assert_derived(u * v)
    assert_derived(u.inverse())
    assert (u * v).as_tuple(7) == tuple(u(v(i)) for i in range(1, 8))
    for n in range(max(u.size - 1, 0), 7):
        w = Permutation.from_code_tail(u.code_tail(n))
        assert_derived(w)
        assert w == u
    w = Permutation.from_lehmer(u.lehmer_code())
    assert_derived(w)
    assert w == u
    assert u.left_descents() == set(u.inverse().descents())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.sets(st.integers(1, 7), min_size=1))
def test_derived_constructors_are_valid_and_trimmed(a, b, cuts):
    if a != b:
        assert_derived(Permutation.t(a, b))
    assert_derived(Permutation.longest(a))
    assert_derived(Permutation.longest_with_descents_in(tuple(cuts)))
    for w in all_perms(min(a, 4)):
        assert_derived(w)


def test_permutations_are_immutable():
    p = Permutation((2, 1))
    h = hash(p)
    with pytest.raises(AttributeError):
        p._w = (1,)
    with pytest.raises(AttributeError):
        del p._w
    # shared memoized objects stay intact
    s1 = Permutation.s(1)
    assert s1 is Permutation.s(1) is Permutation.t(1, 2)
    with pytest.raises(AttributeError):
        s1._w = ()
    assert p.word == (2, 1) and hash(p) == h
    assert s1.word == (2, 1)
    # copies go back through the validating constructor, not through attribute writes
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.copy(p) == p and copy.deepcopy(p) == p


def test_memoized_constructors_are_registered_and_bounded():
    assert Permutation.t.__func__ in MEMOS and _from_reversed_code in MEMOS
    assert _from_reversed_code.cache_info().maxsize == 1 << 12
    Permutation.from_code_tail((1, 0))
    clear_caches()
    assert _from_reversed_code.cache_info().currsize == 0


@settings(max_examples=80, deadline=None)
@given(perms, perms, perms)
def test_group_laws(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * u.inverse() == Permutation.identity()
    assert u.inverse().inverse() == u
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=80, deadline=None)
@given(perms)
def test_length_statistics(u):
    assert u.length() == u.inverse().length()
    assert sum(u.code_tail(5)) == u.length()


def test_composition_order():
    u = Permutation((2, 1, 3))
    v = Permutation((1, 3, 2))
    # (u * v)(i) = u(v(i)): v sends 2 -> 3, then u fixes 3
    assert (u * v)(2) == 3
    assert (u * v).word == (2, 3, 1)


def test_longest_element():
    for m in (1, 2, 3, 4, 5):
        w0 = Permutation.longest(m)
        assert w0.length() == m * (m - 1) // 2
        assert w0 * w0 == Permutation.identity()
        assert w0.as_tuple(m) == tuple(range(m, 0, -1))


def test_trailing_fixed_points_are_trimmed():
    assert Permutation((2, 1, 3)).word == (2, 1)
    assert Permutation((1, 2, 3)).word == ()
    assert Permutation((2, 1)).as_tuple(4) == (2, 1, 3, 4)
    assert Permutation((2, 1, 3)) == Permutation((2, 1))


def test_code_round_trip():
    for n in (2, 3, 4):
        seen = set()
        for w in all_perms(n + 1):
            code = w.code_tail(n)
            assert len(code) == n
            assert all(0 <= ik <= k for k, ik in enumerate(code, start=1))
            assert Permutation.from_code_tail(code) == w
            seen.add(code)
        assert len(seen) == math.factorial(n + 1)


def test_code_matches_its_definition():
    # i_k counts the positions j <= k with w(j) > w(k+1)
    for w in all_perms(5):
        expected = tuple(
            sum(1 for j in range(1, k + 1) if w(j) > w(k + 1)) for k in range(1, 5)
        )
        assert w.code_tail(4) == expected


def test_codiagram_small_cases():
    # boxes (i, j) with w(i+1) <= j and w^{-1}(j+1) <= i
    assert Permutation((2, 1)).codiagram(1) == frozenset({(1, 1)})
    assert Permutation.identity().codiagram(3) == frozenset()
    assert Permutation((2, 3, 1)).codiagram(2) == frozenset({(2, 1), (2, 2)})
    assert Permutation((3, 1, 2)).codiagram(2) == frozenset({(1, 2), (2, 2)})


def test_codiagram_size_equals_length():
    for w in all_perms(5):
        assert len(w.codiagram(4)) == w.length()


def test_codiagram_rows_match_the_code():
    for w in all_perms(5):
        code = w.code_tail(4)
        boxes = w.codiagram(4)
        for k in range(1, 5):
            assert sum(1 for (i, _) in boxes if i == k) == code[k - 1]


def test_descents():
    assert Permutation((2, 4, 1, 3)).descents() == (2,)
    assert Permutation((3, 2, 1)).descents() == (1, 2)
    assert Permutation.identity().descents() == ()
    assert Permutation((2, 4, 1, 3)).has_descents_only_in((2, 4))
    assert not Permutation((3, 1, 2)).has_descents_only_in((2, 4))


def test_grassmannian_means_at_most_one_descent():
    for w in all_perms(5):
        assert w.is_grassmannian() == (len(w.descents()) <= 1)


def test_vexillary_count_in_s5():
    assert sum(1 for w in all_perms(5) if w.is_vexillary()) == 103


def test_vexillary_small_cases():
    assert Permutation((2, 1, 4, 3)).is_vexillary() is False
    assert Permutation((3, 1, 4, 2)).is_vexillary() is True
    assert Permutation.identity().is_vexillary() is True


def test_longest_with_descents_in():
    w = Permutation.longest_with_descents_in((2, 4))
    assert w == Permutation((3, 4, 1, 2))
    # the last cut point bounds the group, so (1, 2, 3) is the full flag in S_3
    assert Permutation.longest_with_descents_in((1, 2, 3)) == Permutation.longest(3)


def test_all_perms_is_lexicographic():
    words = [w.as_tuple(3) for w in all_perms(3)]
    assert words == sorted(words)
    assert len(words) == 6


def test_parse_oneline():
    assert parse_oneline("2,3,1") == Permutation((2, 3, 1))
    assert parse_oneline("231") == Permutation((2, 3, 1))
    with pytest.raises(ValueError):
        parse_oneline("2,2,1")
    with pytest.raises(ValueError):
        parse_oneline("abc")


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation((1, 1)), "not a permutation word: (1, 1)"),
    (lambda: Permutation((0, 1)), "not a permutation word: (0, 1)"),
    (lambda: Permutation([3, 1]), "not a permutation word: (3, 1)"),
    (lambda: Permutation.from_lehmer((3, 0)), "invalid Lehmer code (3, 0)"),
    (lambda: Permutation.from_code_tail((0, 3)), "entry i_2 = 3 outside 0..2"),
    (lambda: Permutation.from_code_tail([2]), "entry i_1 = 2 outside 0..1"),
    (lambda: Permutation.t(2, 2), "bad transposition (2, 2)"),
    (lambda: parse_oneline("1,,2"), "cannot read permutation from '1,,2'"),
    (lambda: parse_oneline("2,2,1"), "not a permutation word: (2, 2, 1)"),
    (lambda: Permutation((2, 1))(0), "positions are 1-based"),
    (lambda: Permutation((2, 1, 4, 3)).grassmannian_data(), "(2,1,4,3) has more than one descent"),
    (lambda: Permutation.longest_with_descents_in(()), "need a nonempty set of positive cut points"),
])
def test_public_input_is_validated(build, message):
    # derived words skip the check; every word a caller hands in still meets it
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build", [
    lambda: Permutation.from_code_tail((1.0,)),
    lambda: Permutation.from_code_tail([0, 1.0]),
    lambda: Permutation.t(1.0, 2),
    lambda: Permutation.s(1.0),
    lambda: Permutation.from_lehmer((1.0, 0)),
    lambda: Permutation((2.0, 1)),
    lambda: Permutation.t(True, 2),
    lambda: Permutation.s(True),
    lambda: Permutation.from_code_tail((True,)),
])
def test_non_integer_entries_are_rejected_whatever_is_cached(build):
    # equal integer inputs already in the memos must not answer for them
    for _ in range(2):
        with pytest.raises(TypeError):
            build()
        Permutation.from_code_tail((1,))
        Permutation.from_code_tail((0, 1))
        Permutation.t(1, 2)


def test_conjugate_partition():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)
