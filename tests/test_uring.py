"""The finite quotient ring: normal forms, duality pairing, the twist."""

from hashlib import sha256
from itertools import combinations_with_replacement

import pytest

from frozen import NF_DIGESTS, NF_X1_CUBED_N2
from oracles import inner_product_full
from uschub import polyring, schubert, uring
from uschub.permutations import Permutation, all_perms
from uschub.polyring import ONE, Polynomial, ZERO, parse_text, x
from uschub.specialize import c_from_g, g_classical
from uschub.uring import (
    RingElement,
    UniversalRing,
    check_diagonal_vanishing,
    check_orthogonality,
    inner_product,
    multiply_expand,
    normal_form,
    omega,
    schubert_basis_expand,
    staircase_rank_report,
    universal_ring,
)

S1 = Permutation((2, 1))
S2 = Permutation((1, 3, 2))
ID = Permutation.identity()


def _xp(i: int) -> Polynomial:
    return Polynomial.var(x(i))


# -- normal forms ---------------------------------------------------------------

def test_relations_at_n1():
    assert normal_form(_xp(1) + _xp(2), 1) == RingElement.zero(1)
    assert normal_form(_xp(1) ** 2, 1) == normal_form(parse_text("g1[1]"), 1)


def test_high_powers_reduce_past_the_recursion_limit():
    # each rewrite step lowers x1's exponent by 2, so 2500 steps here
    assert normal_form(_xp(1) ** 5000, 1) == normal_form(parse_text("g1[1]^2500"), 1)


def test_x1_cubed_at_n2():
    reduced = normal_form(_xp(1) ** 3, 2)
    assert set(reduced.coeffs) == set(NF_X1_CUBED_N2)
    for exps, text in NF_X1_CUBED_N2.items():
        assert reduced.coefficient(exps) == parse_text(text)


def test_normal_forms_match_the_frozen_digest():
    for n, digest in NF_DIGESTS.items():
        lines = []
        for d in range(n * (n + 1) // 2 + 3):
            for combo in combinations_with_replacement(range(1, n + 2), d):
                mono = ONE
                for i in combo:
                    mono = mono * _xp(i)
                lines.append(f"{mono.text()}: {normal_form(mono, n).text()}")
        assert sha256("\n".join(sorted(lines)).encode()).hexdigest() == digest, n


def test_normal_form_is_idempotent():
    samples = [
        _xp(1) ** 3,
        _xp(2) ** 2 * _xp(3),
        parse_text("g1[1]") * _xp(1) + _xp(3) ** 2,
        (_xp(1) + _xp(2) + _xp(3)) ** 2,
    ]
    for p in samples:
        e = normal_form(p, 2)
        assert normal_form(e.to_polynomial(), 2) == e


def test_normal_form_is_a_ring_map():
    ring = universal_ring(2)
    pairs = [
        (_xp(1), _xp(1) ** 2),
        (_xp(1) + _xp(2), _xp(2) * _xp(3)),
        (_xp(3) ** 2, parse_text("g1[1]") + _xp(1) * _xp(2)),
    ]
    for p, q in pairs:
        direct = normal_form(p * q, 2)
        staged = ring.multiply(normal_form(p, 2), normal_form(q, 2))
        assert direct == staged


def test_reduction_commutes_with_dropping_brackets():
    # killing g[j >= 1] first or last lands on the same classical image
    samples = [_xp(1) ** 3, _xp(1) ** 2 * _xp(2), (_xp(1) + _xp(3)) ** 2]
    for p in samples:
        late = g_classical(normal_form(p, 2).to_polynomial())
        early = g_classical(normal_form(g_classical(p), 2).to_polynomial())
        assert g_classical(normal_form(late, 2).to_polynomial()) == g_classical(
            normal_form(early, 2).to_polynomial()
        )


def test_element_validation():
    with pytest.raises(ValueError):
        RingElement(2, {(1, 0): ONE})
    with pytest.raises(ValueError):
        RingElement(2, {(3, 0, 0): ONE})
    with pytest.raises(ValueError):
        RingElement(2, {(0, 0, 1): ONE})
    with pytest.raises(ValueError):
        RingElement(1, {(0, 0): ONE}) + RingElement.zero(2)


def test_staircase_rank():
    for n in (1, 2):
        report = staircase_rank_report(n)
        assert report["full_rank"] is True
        assert report["top_degree"] == n * (n + 1) // 2
    dims = [row["dimension"] for row in staircase_rank_report(2)["degrees"]]
    assert dims == [1, 2, 3, 4]


def test_rank_report_rejects_a_non_monic_rule(monkeypatch):
    ring = universal_ring(2)
    doubled = {exps: coeff * 2 for exps, coeff in ring._rules[1].items()}
    monkeypatch.setitem(ring._rules, 1, doubled)
    assert staircase_rank_report(2)["full_rank"] is False


def test_rank_report_rejects_a_rule_outside_the_ideal(monkeypatch):
    # still monic and triangular, but c_i(3) no longer rewrites to zero
    ring = UniversalRing(2)
    flipped = dict(ring._rules[2])
    flipped[(1, 1)] = -flipped[(1, 1)]
    monkeypatch.setitem(ring._rules, 2, flipped)
    monkeypatch.setattr(uring, "universal_ring", lambda n: ring)
    assert ring.rules_are_triangular()
    assert staircase_rank_report(2)["full_rank"] is False


# -- the basis and its products ----------------------------------------------------

def test_basis_expansion_inverts_the_basis():
    ring = universal_ring(2)
    for w in all_perms(3):
        assert schubert_basis_expand(ring.schubert(w)) == {w: ONE}


def test_classical_peel_names_the_permutation_of_the_lead():
    # x1 + x2 is S_132: x2 leads once exponents are compared from the last variable
    ring = universal_ring(2)
    assert ring._expand_classical({(1, 0, 0): 1, (0, 1, 0): 1}) == {S2: 1}


def test_clear_caches_empties_every_memo():
    universal_ring(2).schubert(S1)
    schubert.universal_single(S1, 2)
    schubert.universal_double(S1, 2)
    c_from_g(2, 3)
    ring = universal_ring(2)
    assert any(memo.cache_info().currsize for memo in polyring.MEMOS)
    schubert.clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in polyring.MEMOS)
    assert universal_ring(2) is not ring


def test_quantum_flavored_products():
    assert {w: p.text() for w, p in multiply_expand(S1, S1, 2).items()} == {
        Permutation((3, 1, 2)): "1",
        ID: "g1[1]",
    }
    assert multiply_expand(S1, S2, 2) == {
        Permutation((2, 3, 1)): ONE,
        Permutation((3, 1, 2)): ONE,
    }
    assert {w: p.text() for w, p in multiply_expand(S2, S2, 2).items()} == {
        Permutation((2, 3, 1)): "1",
        ID: "g2[1]",
    }
    assert multiply_expand(S2, S1, 2) == multiply_expand(S1, S2, 2)


def test_top_cell_products_leave_the_window():
    ring = universal_ring(2)
    w0 = Permutation((3, 2, 1))
    product = ring.multiply(ring.schubert(w0), ring.schubert(S1))
    expansion = schubert_basis_expand(product)
    for w, coeff in expansion.items():
        assert coeff.degree() + w.length() == w0.length() + 1


# -- the pairing --------------------------------------------------------------------

def test_inner_product_unit():
    one = normal_form(ONE, 1)
    x1 = normal_form(_xp(1), 1)
    assert inner_product(one, x1) == ONE
    assert inner_product(one, one) == ZERO


def _dual(ring: UniversalRing, v: Permutation):
    return ring.normal_form(ring.omega(ring.schubert(v * ring.w0).to_polynomial()))


def _routes_agree(ring: UniversalRing, a, b) -> bool:
    return ring.inner_product(a, b) == inner_product_full(ring, a, b) == ring.inner_product_w0(a, b)


def test_inner_product_routes_agree(time_limit):
    for n in (1, 2):
        ring = universal_ring(n)
        perms = list(all_perms(n + 1))
        elements = [ring.schubert(w) for w in perms] + [_dual(ring, v) for v in perms]
        elements += [normal_form(p, n) for p in (ONE, _xp(1), _xp(1) * _xp(n + 1) ** 2)]
        for a in elements:
            for b in elements:
                assert _routes_agree(ring, a, b), (n, a, b)
    ring = universal_ring(3)
    with time_limit(30):
        for v in (Permutation((2, 1)), Permutation((1, 3, 2)), Permutation((2, 4, 1, 3)), ring.w0):
            dual = _dual(ring, v)
            for u in all_perms(4):
                assert _routes_agree(ring, ring.schubert(u), dual), (u, v)


def test_orthogonality_against_some_duals_at_n4(time_limit):
    # the duals of e and s_1 are left out: they take 7-18 s each to reduce
    ring = universal_ring(4)
    with time_limit(10):
        duals = {v: _dual(ring, v) for v in (Permutation((1, 3, 2, 5, 4)), Permutation((3, 1, 4, 2, 5)), ring.w0)}
        for u in all_perms(5):
            su = ring.schubert(u)
            for v, dual in duals.items():
                assert ring.inner_product(su, dual) == (ONE if u == v else ZERO), (u, v)


# -- the twist ----------------------------------------------------------------------

def test_omega_values():
    assert omega(_xp(1), 1) == -_xp(2)
    assert omega(parse_text("g1[1]"), 2) == parse_text("g2[1]")
    assert omega(parse_text("g1[2]"), 2) == parse_text("-g1[2]")


def test_omega_is_an_involution():
    samples = [
        _xp(1) ** 2 + _xp(3),
        parse_text("g1[1]") * _xp(2),
        parse_text("g2[1] - g1[2]"),
    ]
    for p in samples:
        assert omega(omega(p, 2), 2) == p


def test_omega_rejects_out_of_range():
    with pytest.raises(ValueError):
        omega(_xp(3), 1)
    with pytest.raises(ValueError):
        omega(parse_text("g3[2]"), 2)


# -- the verification sweeps ---------------------------------------------------------

def test_orthogonality_small():
    for n in (1, 2):
        report = check_orthogonality(n)
        assert report["failures"] == []
        assert report["checked"] == (len(list(all_perms(n + 1)))) ** 2


def test_diagonal_vanishing_small():
    report = check_diagonal_vanishing(2)
    assert report["failures"] == []
    assert report["checked"] == 5
