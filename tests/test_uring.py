"""The finite quotient ring: normal forms, duality pairing, the twist."""

import re
from hashlib import sha256
from itertools import combinations_with_replacement, product

import pytest

from frozen import DUAL_NF_DIGEST, MULTIPLY_DIGEST, NF_DIGESTS, NF_X1_CUBED_N2
from oracles import (
    inner_product_full,
    normal_form_reference,
    omega_reference,
    rules_reference,
    schubert_basis_expand_reference,
)
from uschub import polyring, schubert, uring
from uschub.permutations import Permutation, all_perms
from uschub.polyring import ONE, Polynomial, ZERO, c, g, parse_text, x
from uschub.specialize import c_from_g, g_classical, to_g_form
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
        assert reduced.coeffs.get(exps, ZERO) == parse_text(text)


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


def test_dual_normal_forms_match_the_frozen_digest():
    # the 24 omega-duals at n = 3, then the 120 at n = 4
    lines = []
    for n in (3, 4):
        ring = universal_ring(n)
        lines += [_dual(ring, v).text() for v in sorted(all_perms(n + 1), key=lambda w: (w.length(), w.word))]
    assert sha256("\n".join(lines).encode()).hexdigest() == DUAL_NF_DIGEST


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


def test_normal_form_matches_the_reference():
    # every Schubert element and omega-dual at n = 1..3, and a few samples, some
    # with high powers of x_{n+1} and g_k[0]; each normal form also survives the
    # round trip through to_polynomial
    for n, top_power in ((1, 60), (2, 40), (3, 12)):
        ring = universal_ring(n)
        polys = [_xp(1) ** (n + 2), (_xp(1) + _xp(n + 1)) ** 3, parse_text("g1[1]*x1 + g1[0]^2*x2 - 3"),
                 _xp(n + 1) ** top_power,
                 parse_text(f"g{n + 1}[0]^{top_power // 2}*x1 - g1[1]*x{n + 1}^5*g{n + 1}[0]^2 + 2*g1[0]^7*x{n + 1}"),
                 parse_text(f"x{n + 1}^3 - g{n + 1}[0]^2*x{n + 1} + g{n}[0]^4*x{n + 1}^2 - x{n}^3*g{n + 1}[0]^2")]
        for w in all_perms(n + 1):
            polys.append(ring.schubert(w).to_polynomial())
            polys.append(ring.omega(ring.schubert(w * ring.w0).to_polynomial()))
        for p in polys:
            e = normal_form(p, n)
            assert e == normal_form_reference(p, n), (n, p)
            assert normal_form(e.to_polynomial(), n) == e, (n, p)


def test_top_is_the_walk_with_a_degree_floor():
    # every exponent tuple over x_1..x_{n+1} up to two degrees above the top, at n = 1..3
    for n in (1, 2, 3):
        ring = UniversalRing(n)
        stair = (*range(n, 0, -1), 0)
        bound = n * (n + 1) // 2 + 2
        for exps in product(range(bound + 1), repeat=n + 1):
            if sum(exps) <= bound:
                top = ring._nf_monomial(exps, ring.top_degree).get(stair, ZERO)
                assert top == ring._nf_monomial(exps).get(stair, ZERO), (n, exps)


def test_walks_stop_at_the_budget(monkeypatch):
    monkeypatch.setattr(uring, "WALK_BUDGET", 50)
    ring = UniversalRing(2)
    with pytest.raises(ArithmeticError, match="more than 50 stored g-terms"):
        ring.normal_form(_xp(2) ** 30)
    with pytest.raises(ArithmeticError, match="more than 50 stored g-terms"):
        ring._nf_monomial((0, 30, 0), ring.top_degree)
    with pytest.raises(ArithmeticError, match="more than 50 stored g-terms"):
        ring.normal_form(_xp(3) ** 30)
    assert ring.normal_form(_xp(2) ** 3) == normal_form_reference(_xp(2) ** 3, 2)
    assert ring.normal_form(_xp(3) ** 3) == normal_form_reference(_xp(3) ** 3, 2)


@pytest.mark.parametrize("text, n, message", [
    # several foreign variables in one monomial: the first in package order is
    # named, a g_k[0] ranking as x_k; across monomials, the first bad term is
    ("g4[0]*g5[1]", 3, "g5[1] is outside Z[g+] for n = 3"),
    ("g5[0]*c1(1)", 3, "unexpected variable c1(1) in reduction"),
    ("x5*d2(3)*h1[1]", 3, "unexpected variable d2(3) in reduction"),
    ("g6[0]*x5", 3, "unexpected variable x5 in reduction"),
    ("g5[0]*y1", 3, "unexpected variable x5 in reduction"),
    ("q1*x4", 3, "unexpected variable q1 in reduction"),
    ("h1[0]*g3[2]", 3, "g3[2] is outside Z[g+] for n = 3"),
    ("x1 + g2[3]*x4 + c1(2)", 3, "g2[3] is outside Z[g+] for n = 3"),
    ("g3[0]*h2[1] + x3*x4", 2, "unexpected variable h2[1] in reduction"),
    ("x2^3*g1[0]*g2[1]*g4[0]", 2, "unexpected variable x4 in reduction"),
    ("g1[1]*x2 + x3^2*g2[1] + h1[0]*x1", 1, "g2[1] is outside Z[g+] for n = 1"),
    # foreign variables are rejected even where x_{n+1} = -(x_1 + ... + x_n) cancels them
    ("d1(1)*x4 + d1(1)*x1 + d1(1)*x2 + d1(1)*x3", 3, "unexpected variable d1(1) in reduction"),
    # the whole input is split before any tuple is walked, so x4^40 never meets the walk budget
    ("x4^40 + d1(1)", 3, "unexpected variable d1(1) in reduction"),
])
def test_foreign_variables_are_named_in_package_order(text, n, message):
    with pytest.raises(ValueError) as err:
        normal_form(parse_text(text), n)
    assert str(err.value) == message


def test_groups_that_cancel_are_never_walked():
    # x4 and g4[0] share x-slot 4; walking x4^40 alone would exceed the walk budget
    assert normal_form(parse_text("x4^40 - g4[0]^40"), 3) == RingElement.zero(3)


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
    # x1^-1 failed in the Schubert expansion, and True read as the exponent 1
    with pytest.raises(ValueError, match=r"exponent entry -1 of \(-1, 0\)"):
        RingElement(1, {(-1, 0): ONE})
    with pytest.raises(TypeError, match=r"exponent entry True of \(True, 0\)"):
        RingElement(1, {(True, 0): ONE})
    for coeff in (1, None):
        with pytest.raises(TypeError, match=f"coefficient {coeff} of \\(0, 0\\) is not a Polynomial"):
            RingElement(1, {(0, 0): coeff})



def test_ring_made_elements_pass_the_validating_constructor():
    # normal forms and products skip the checks of RingElement(n, coeffs); they must pass them all the same
    for n in (1, 2, 3):
        ring = universal_ring(n)
        perms = list(all_perms(n + 1))
        made = [ring.normal_form(ring.schubert(w).to_polynomial()) for w in perms]
        made += [_dual(ring, v) for v in perms]
        made += [ring.multiply(ring.schubert(u), ring.schubert(v)) for u in perms for v in perms]
        for e in made:
            assert RingElement(n, e.coeffs) == e, (n, e)


@pytest.mark.parametrize("coeff, message", [
    (Polynomial.var(c(1, 1)), "c1(1) is outside Z[g+] for n = 2"),
    (Polynomial.var(x(1)) * Polynomial.var(g(1, 1)), "x1 is outside Z[g+] for n = 2"),
    (Polynomial.var(g(1, 0)), "g1[0] is outside Z[g+] for n = 2"),
    (Polynomial.var(g(3, 1)) + Polynomial.var(g(1, 3)), "g1[3] is outside Z[g+] for n = 2"),
])
def test_foreign_coefficient_variables_are_refused(coeff, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RingElement(2, {(0, 0, 0): Polynomial.var(g(1, 1)), (1, 0, 0): coeff})
    with pytest.raises(ValueError, match="outside"):
        inner_product(RingElement(2, {(0, 0, 0): coeff}), RingElement(2, {(2, 1, 0): ONE}))

def test_rules_match_the_reference():
    # built on split forms; the reference substitutes g_k[0] and x_{n+1} away on whole polynomials
    for n in range(1, 7):
        assert UniversalRing(n)._rules == rules_reference(n), n


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
    flipped[(1, 1, 0)] = -flipped[(1, 1, 0)]
    monkeypatch.setitem(ring._rules, 2, flipped)
    monkeypatch.setattr(uring, "universal_ring", lambda n: ring)
    assert ring.rules_are_triangular()
    assert staircase_rank_report(2)["full_rank"] is False


# -- the basis and its products ----------------------------------------------------

def test_schubert_elements_are_their_reduced_g_forms():
    # the split g-form, never walked, is the normal form of the g-form
    for n in range(1, 5):
        ring = universal_ring(n)
        for w in all_perms(n + 1):
            assert ring.schubert(w) == ring.normal_form(to_g_form(schubert.universal_single(w, n).to_polynomial())), w


def test_elements_of_another_ring_are_rejected():
    a = universal_ring(2).schubert(S1)
    b = universal_ring(3).schubert(Permutation((3, 2, 1)))
    r3 = universal_ring(3)
    for call in (lambda: r3.inner_product(a, b), lambda: r3.multiply(a, b), lambda: r3.multiply(b, a),
                 lambda: r3.schubert_basis_expand(a), lambda: inner_product(a, b), lambda: inner_product(b, a)):
        with pytest.raises(ValueError, match="mixed ambient n"):
            call()


def test_basis_expansion_inverts_the_basis():
    ring = universal_ring(2)
    for w in all_perms(3):
        assert schubert_basis_expand(ring.schubert(w)) == {w: ONE}


def test_basis_expansion_matches_the_reference():
    # every product over S_3 (n = 2) and S_4 (n = 3), every omega-dual, samples, and three at n = 4
    for n in (2, 3):
        ring = universal_ring(n)
        perms = list(all_perms(n + 1))
        elements = [ring.multiply(ring.schubert(u), ring.schubert(v)) for u in perms for v in perms]
        elements += [_dual(ring, v) for v in perms]
        elements += [normal_form(p, n) for p in (_xp(1) ** (n + 2), (_xp(1) + _xp(n + 1)) ** 3,
                                                 parse_text("g1[1]*x1 + g1[0]^2*x2 - 3"))]
        for e in elements:
            assert ring.schubert_basis_expand(e) == schubert_basis_expand_reference(ring, e), (n, e)
    ring = universal_ring(4)
    for u, v in (((1, 2, 4, 5, 3), (5, 4, 2, 1, 3)), ((2, 1, 3, 5, 4), (3, 1, 4, 2, 5)),
                 ((1, 3, 2, 5, 4), (2, 4, 1, 3, 5))):
        e = ring.multiply(ring.schubert(Permutation(u)), ring.schubert(Permutation(v)))
        assert ring.schubert_basis_expand(e) == schubert_basis_expand_reference(ring, e), (u, v)


def test_products_match_the_frozen_digest():
    def word(w: Permutation) -> str:
        return ",".join(map(str, w.as_tuple(4)))

    lines = []
    for u in all_perms(4):
        for v in all_perms(4):
            expansion = multiply_expand(u, v, 3)
            for w in sorted(expansion, key=lambda w: (w.length(), w.word)):
                lines.append(f"{word(u)} * {word(v)} -> {word(w)}: {expansion[w].text()}")
    assert sha256("\n".join(lines).encode()).hexdigest() == MULTIPLY_DIGEST


def test_products_sum_back_from_their_basis_expansions():
    # sums, scalings and hashes of elements, which only the bench's checks otherwise run
    ring = universal_ring(2)
    for u, v in product(all_perms(3), repeat=2):
        total = RingElement.zero(2)
        for w, coeff in multiply_expand(u, v, 2).items():
            total = total + ring.schubert(w).scale(coeff)
        expected = ring.multiply(ring.schubert(u), ring.schubert(v))
        assert total == expected, (u, v)
        assert hash(total) == hash(expected), (u, v)

def test_classical_peel_names_the_permutation_of_the_lead():
    # x1 + x2 is S_132: x2 leads once exponents are compared from the last variable
    assert schubert_basis_expand(RingElement(2, {(1, 0, 0): ONE, (0, 1, 0): ONE})) == {S2: ONE}


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
    # the duals of e and s_1 are left out: they take about 3 s and 1 s to reduce
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


OMEGA_SAMPLES = [
    _xp(1) ** 2 + _xp(3),
    parse_text("g1[1]") * _xp(2),
    parse_text("g2[1] - g1[2]"),
]


def test_omega_is_an_involution():
    for p in OMEGA_SAMPLES:
        assert omega(omega(p, 2), 2) == p


def test_omega_matches_the_reference():
    # every Schubert element and omega-dual at n = 1..3, and the involution samples
    for n in (1, 2, 3):
        ring = universal_ring(n)
        for w in all_perms(n + 1):
            for p in (ring.schubert(w).to_polynomial(), _dual(ring, w).to_polynomial()):
                assert omega(p, n) == omega_reference(p, n), (n, p)
                assert ring.omega(p) == omega(p, n)
    for p in OMEGA_SAMPLES:
        assert omega(p, 2) == omega_reference(p, 2), p


def test_omega_table_permutes_its_keys():
    # relabel reads from such a table that no terms merge, so omega runs no merge sweep
    for n in range(1, 7):
        table = universal_ring(n).omega_table
        assert sorted(w.key for w, _ in table.values()) == sorted(v.key for v in table), n


@pytest.mark.parametrize("build", [
    lambda: UniversalRing(True),
    lambda: UniversalRing(2.0),
    lambda: omega(_xp(1), True),
    lambda: normal_form(_xp(1), True),
], ids=["ring-bool", "ring-float", "omega-bool", "normal-form-bool"])
def test_a_non_int_ring_size_is_refused_whatever_is_cached(build):
    # UniversalRing(True) built R_1 with n = True; the cached n = 1 ring and table must not answer for it
    normal_form(_xp(1), 1)
    assert omega(_xp(1), 1) == -_xp(2)
    with pytest.raises(TypeError, match="the size of R_n must be an int"):
        build()


def test_omega_rejects_out_of_range():
    # across terms, the first variable without an image in package order is named
    for text, n, message in (
        ("x3", 1, "x3 is outside x_1..x_2"),
        ("g3[2]", 2, "g3[2] has no mirror for n = 2"),
        ("g1[0]", 2, "unexpected variable g1[0] under omega"),
        ("x9*g3[2] + c1(1)*x1", 2, "unexpected variable c1(1) under omega"),
    ):
        for route in (omega, omega_reference):
            with pytest.raises(ValueError) as err:
                route(parse_text(text), n)
            assert str(err.value) == message, (route, text)


def test_a_ring_needs_n_of_at_least_1():
    # omega reads the refusal from UniversalRing
    for build in (UniversalRing, lambda n: omega(ONE, n)):
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n must be at least 1$"):
                build(n)


def test_omega_builds_no_rules():
    # the rewrite rules of R_8 take seconds, and omega reads none of them
    polyring.clear_caches()
    assert omega(_xp(1), 8) == -_xp(9)
    assert "_rules" not in vars(universal_ring(8))


def test_rules_are_built_when_a_walk_first_leaves_the_staircase(time_limit):
    # x1 is on the staircase of R_8, so its normal form reads no rule; x1^2 * x1 leaves the staircase of R_2
    polyring.clear_caches()
    with time_limit(1):
        assert normal_form(_xp(1), 8).to_polynomial() == _xp(1)
    assert "_rules" not in vars(universal_ring(8))
    ring = universal_ring(2)
    square = ring.normal_form(_xp(1) ** 2)
    assert "_rules" not in vars(ring)
    cube = ring.multiply(square, ring.normal_form(_xp(1)))
    assert "_rules" in vars(ring)
    assert cube == normal_form_reference(_xp(1) ** 3, 2)


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
