"""Determinantal formulas, the expression census, rewriting, loci, pushforwards."""

import random
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from frozen import (
    CENSUS_FAILURES,
    CENSUS_HITS,
    CENSUS_TOTAL,
    DET19_WITNESSES,
    LOCUS_INTERVAL_DIGEST,
    RENDER_DIGESTS,
    VEXILLARY_S5,
)
from oracles import rewrite_no_squares_reference, substitute_reference
from uschub import formulas
from uschub.cli import main
from uschub.formulas import (
    DetSpec,
    RankProfile,
    product_family,
    det19_census,
    det19_matches,
    det19_search,
    det_D,
    dominant_formula,
    member_two_term,
    f_poly,
    grassmannian_det,
    gysin_check,
    lemma42_reduced,
    locus_formula,
    product_rule,
    remark47_first_sum,
    render_locus,
    rewrite_no_squares,
    split_by_g,
    _rule_rhs,
    _square_key,
)
from uschub.permutations import Permutation, all_perms
from uschub.polyring import ONE, Polynomial, ZERO, cpoly, g, parse_text, x, y
from uschub.schubert import schubert_expand_M, universal_cy, universal_double, universal_single
from uschub.specialize import (
    FlagProfile,
    c_from_g,
    classical_specialize,
    partial_flag_specialize,
    round_points,
    to_g_form,
)


# -- entry polynomials and determinants ------------------------------------------

def test_f_poly_values():
    assert f_poly(0, 2, 1, 0) == ONE
    assert f_poly(-1, 2, 1, 0) == ZERO
    assert f_poly(1, 1, 1, 0) == parse_text("c1(1) - y1")
    assert f_poly(1, 2, 3, 1) == parse_text("c1(3) - y2 - y3")


def test_det_D_values():
    assert det_D(1, 1, 0) == parse_text("c1(1) - y1")
    for k in (1, 2, 3):
        for b in (0, 1, 2):
            assert det_D(k, 0, b) == ONE


def test_det_D_classical_product():
    # D(k, n, 0) classically becomes the full difference product
    for k in (1, 2):
        for n in (1, 2, 3):
            expected = ONE
            for p in range(1, n + 1):
                for qq in range(1, k + 1):
                    expected = expected * (Polynomial.var(x(p)) - Polynomial.var(y(qq)))
            assert classical_specialize(det_D(k, n, 0)) == expected


def test_reduced_det_at_k1_is_det_D():
    for a in (1, 2, 3):
        for b in (0, 1):
            assert lemma42_reduced(1, a, b, {(1, 1)}) == det_D(1, a, b)


def test_reduced_det_under_a_flag_context():
    # profile (2, 4): the only surviving bracket variable is g1[3]
    nonzero = {(1, 3)}
    kill = {}
    for poly in (det_D(2, 2, 0), lemma42_reduced(2, 2, 0, nonzero)):
        for v in to_g_form(poly).variables():
            if v.kind == "g" and v.j >= 1 and (v.i, v.j) not in nonzero:
                kill[v] = ZERO
    reduced = substitute_reference(to_g_form(lemma42_reduced(2, 2, 0, nonzero)), kill.get)
    full = substitute_reference(to_g_form(det_D(2, 2, 0)), kill.get)
    assert reduced == full


def test_reduced_det_rejects_a_band_violation():
    with pytest.raises(ValueError):
        lemma42_reduced(2, 1, 3, {(1, 1)})


def test_dominant_formula():
    assert dominant_formula(FlagProfile((3,))) == ONE
    assert dominant_formula(FlagProfile((1, 2))) == parse_text("c1(1) - y1")
    for top in (2, 3):
        for mask in range(1, 1 << top):
            profile = FlagProfile(tuple(i for i in range(1, top + 1) if mask & (1 << (i - 1))))
            w0 = profile.longest_member()
            assert dominant_formula(profile) == universal_cy(w0, profile.top - 1)


def test_grassmannian_determinant():
    assert grassmannian_det(Permutation.identity()) == ONE
    assert grassmannian_det(Permutation((2, 1))) == parse_text("c1(1) - y1")
    for w in all_perms(4):
        if w.is_grassmannian():
            assert grassmannian_det(w) == universal_cy(w, max(w.size - 1, 1))


# -- the one-determinant search ----------------------------------------------------

def test_detspec_shape():
    spec = DetSpec((2,), (3,))
    assert spec.determinant() == cpoly(2, 3)
    assert spec.label() == "D_{2}(3)"
    kron = DetSpec((1, 0), (2, 0)).matrix()
    assert kron[1] == [ZERO, ONE]


def test_value_classes_keep_their_dataclass_semantics():
    # FlagProfile, DetSpec, RankProfile and ProductRuleReport were dataclasses;
    # as named tuples they compare, print and validate as before, and the three
    # that were frozen hash as before.  ProductRuleReport is now read-only too.
    pairs = [
        (FlagProfile((1, 3)), FlagProfile((1, 3))),
        (DetSpec((2, 1), (3, 2)), DetSpec((2, 1), (3, 2))),
        (RankProfile((1, 2), (2,)), RankProfile((1, 2), (2,))),
        (product_rule(1, 1, 2), product_rule(1, 1, 2)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert FlagProfile((1, 3)) != FlagProfile((1, 2))
    assert DetSpec((2,), (3,)) != DetSpec((2,), (2,))
    assert FlagProfile([1, 2]) == FlagProfile((1, 2))
    assert type(FlagProfile([1, 2]).N) is tuple
    for obj, field in ((FlagProfile((1,)), "N"), (DetSpec((2,), (3,)), "a"), (RankProfile((1,), (1,)), "B")):
        with pytest.raises(AttributeError):
            setattr(obj, field, (4,))
    for bad in ((), [2, 1], (0, 2), (2, 2)):
        with pytest.raises(ValueError, match=r"^cut points must be strictly increasing and positive: \("):
            FlagProfile(bad)
    with pytest.raises(ValueError, match="^rank list A must be strictly increasing and positive$"):
        RankProfile((), (1,))
    with pytest.raises(ValueError, match="^rank list B must be strictly increasing and positive$"):
        RankProfile((1,), (2, 2))
    assert repr(DetSpec((2,), (3,))) == "DetSpec(a=(2,), b=(3,))"
    assert repr(FlagProfile([1, 2])) == "FlagProfile(N=(1, 2))"
    assert repr(product_rule(0, 0, 0)) == "ProductRuleReport(i=0, j=0, k=0, lhs=1, rhs=1, equal_in_g=True)"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 6), max_size=4))
def test_flag_and_rank_profiles_accept_the_same_cut_points(points):
    # one rule for both: nonempty, positive and strictly increasing, stored as a tuple
    valid = bool(points) and points[0] >= 1 and all(a < b for a, b in zip(points, points[1:]))
    for build in (FlagProfile, lambda v: RankProfile(v, v)):
        if valid:
            assert all(type(field) is tuple and field == tuple(points) for field in build(points))
        else:
            with pytest.raises(ValueError, match="must be strictly increasing and positive"):
                build(points)


def test_cut_points_and_ranks_must_be_ints():
    # a profile refuses them itself, before any polynomial holds one
    for points in ((1.0, 2), (True, 2), (1, 1.5), ("1", "2"), "12", (1, False)):
        for build in (FlagProfile, lambda v: RankProfile(v, (1,)), lambda v: RankProfile((1,), v)):
            with pytest.raises(TypeError, match=r"^cut points and ranks must be ints, got \("):
                build(points)
    # answered x1, answered x1, answered c1(2) - d1(2); the last two failed only in Variable
    cases = (
        lambda: partial_flag_specialize(Permutation((2, 1)), FlagProfile((1.0, 2))),
        lambda: partial_flag_specialize(Permutation((2, 1)), FlagProfile((True, 2))),
        lambda: locus_formula(Permutation((1, 3, 2)), RankProfile((2.0,), (2.0,))),
        lambda: round_points(parse_text("c1(1) + c1(2)"), {"c": FlagProfile((1.5, 3)).N}),
        lambda: locus_formula(Permutation((2, 3, 1)), RankProfile((2.0,), (1.0, 2)), mode="interval"),
    )
    for case in cases:
        with pytest.raises(TypeError, match="^cut points and ranks must be ints"):
            case()


def test_rank_profiles_store_tuples():
    a, b = RankProfile([1, 2], [2]), RankProfile((1, 2), (2,))
    assert a == b and hash(a) == hash(b)
    assert type(a.A) is type(a.B) is tuple


def test_search_agrees_with_the_laplace_determinant():
    # every row order of every w in S_{n+1}, hits and misses, against the polynomial route
    for n in range(1, 5):
        for w in all_perms(n + 1):
            code, target = w.code_tail(n), universal_single(w, n).to_polynomial("c")
            orders = (sigma.as_tuple(n) for sigma in all_perms(n))
            specs = (DetSpec(tuple(code[p - 1] for p in st), st) for st in orders)
            expected = [(spec.b, spec) for spec in specs if spec.determinant() == target]
            assert [(sigma.as_tuple(n), spec) for sigma, spec in det19_matches(w, n)] == expected, w


def test_search_finds_the_known_witnesses():
    for word, (a, b) in DET19_WITNESSES.items():
        sigma, spec = det19_search(Permutation(word), 4)
        assert (spec.a, spec.b) == (a, b)
        assert spec.determinant() == universal_single(Permutation(word), 4).to_polynomial("c")


def test_search_witnesses_are_unique_for_the_printed_three():
    for word in ((5, 1, 4, 2, 3), (3, 5, 1, 2, 4), (3, 2, 5, 1, 4)):
        hits = list(det19_matches(Permutation(word), 4))
        assert len(hits) == 1


def test_search_absence():
    assert det19_search(Permutation((1, 5, 3, 2, 4)), 4) is None
    assert list(det19_matches(Permutation((1, 5, 3, 2, 4)), 4)) == []


def test_census_of_s4_is_complete():
    census = det19_census(3)
    assert len(census) == 24
    assert all(hit is not None for _, hit in census)


def test_census_of_s5_pinned():
    census = det19_census(4)
    assert len(census) == CENSUS_TOTAL
    failures = {w.as_tuple(5) for w, hit in census if hit is None}
    assert failures == CENSUS_FAILURES
    assert sum(1 for _, hit in census if hit is not None) == CENSUS_HITS
    vexillary_failures = sum(1 for wt in failures if Permutation(wt).is_vexillary())
    assert vexillary_failures == 6
    assert sum(1 for w in all_perms(5) if w.is_vexillary()) == VEXILLARY_S5


def test_census_of_s6_failures_and_the_n_dependence():
    w = Permutation((4, 1, 3, 6, 2, 5))
    assert det19_search(w, 5) is None
    sigma, spec = det19_search(w, 6)
    assert (sigma.as_tuple(6), spec.label()) == ((5, 3, 6, 4, 2, 1), "D_{1,0,0,3,1,1}(5,3,6,4,2,1)")
    failures = {w.as_tuple(6) for w, hit in det19_census(5) if hit is None}
    assert len(failures) == 148
    # every word of S_6 holding a failure of S_5 as a pattern fails too; 3 failures hold none of them
    containing = {w.as_tuple(6) for w in all_perms(6) if any(w.contains_pattern(u) for u in CENSUS_FAILURES)}
    assert len(containing) == 145 and containing <= failures
    assert failures - containing == {(1, 4, 3, 6, 5, 2), (1, 4, 6, 3, 5, 2), (4, 1, 3, 6, 2, 5)}


def test_census_hits_verify():
    for w, (_, spec) in det19_census(3):
        assert spec.determinant() == universal_single(w, 3).to_polynomial("c")


# -- the product rule ------------------------------------------------------------

def test_family_membership_data():
    assert [(w.word, a, b) for w, a, b in product_family(1, 1, 1)] == [((), 1, 2)]
    assert [(w.word, a, b) for w, a, b in product_family(1, 2, 2)] == [((2, 1), 1, 3)]
    for (i, j, k) in ((1, 1, 3), (2, 1, 3), (2, 2, 4)):
        for w, a, b in product_family(i, j, k):
            assert a < b
            assert a + b == 2 * k + 3 - (i + j)
            assert a <= k + 1 - max(i, j)
            assert w.is_grassmannian()


def test_two_term_form_matches_the_member_polynomials():
    for k in (2, 3, 4):
        for w, a, b in product_family(1, 1, k) + product_family(2, 1, k):
            assert member_two_term(a, b, k) == universal_single(w, k).to_polynomial("c")


def test_product_rule_holds_in_g():
    for k in range(0, 4):
        for i in range(0, k + 1):
            for j in range(0, k + 1):
                assert product_rule(i, j, k).equal_in_g


def test_product_rule_example_112():
    report = product_rule(1, 1, 2)
    assert report.lhs == cpoly(1, 2) * cpoly(1, 2)
    assert report.rhs == parse_text("c1(2)*c1(3) + c2(2) - c2(3) + g2[1]")


def test_zero_index_collapses_the_rule():
    report = product_rule(0, 2, 3)
    assert to_g_form(report.rhs) == to_g_form(cpoly(2, 3))


def test_the_one_step_verdict_is_the_g_form_verdict(monkeypatch):
    # equal_in_g steps the c-points k+1 down once; the full g-forms of both sides must give the same verdict, on
    # every triple and on each right side with its first g-term doubled, which both must refuse
    changed = {}
    for k in range(0, 6):
        for i in range(0, k + 1):
            for j in range(0, k + 1):
                report = product_rule(i, j, k)
                assert report.equal_in_g == (to_g_form(report.lhs) == to_g_form(report.rhs)), (i, j, k)
                gterms = [m for m in report.rhs.terms() if any(v.kind == "g" for v, _ in m)]
                if gterms:
                    changed[i, j, k] = report.rhs + Polynomial({gterms[0]: 1})
    assert len(changed) > 50
    monkeypatch.setattr(formulas, "_rule_rhs", lambda *triple: changed[triple])
    for (i, j, k), rhs in changed.items():
        by_g_form = to_g_form(cpoly(i, k) * cpoly(j, k)) == to_g_form(rhs)
        assert (product_rule.__wrapped__(i, j, k).equal_in_g, by_g_form) == (False, False), (i, j, k)


def test_every_g_of_the_rule_sits_at_level_k_plus_1():
    # what the one-step check needs: each g_s[t] of the right side has s + t = k+1, and no c-point passes k+1
    for k in range(0, 9):
        for i in range(0, k + 1):
            for j in range(0, k + 1):
                for v in _rule_rhs(i, j, k).variables():
                    assert v.i + v.j == k + 1 if v.kind == "g" else v.kind == "c" and v.j <= k + 1, (i, j, k, v)


def test_first_sum_values():
    assert remark47_first_sum(0, 0, 2) == ONE
    assert remark47_first_sum(1, 0, 1) == cpoly(1, 1)


def test_first_sum_is_the_family_sum():
    for k in range(0, 4):
        for i in range(0, k + 1):
            for j in range(0, k + 1):
                total = ZERO
                for w, _, _ in product_family(i + 1, j + 1, k + 1):
                    total = total + universal_single(w, k + 1).to_polynomial("c")
                assert remark47_first_sum(i, j, k) == total
    # _rule_rhs reads both unshifted family sums in closed form: the family at k+1, and the family at k
    # (g_k[1]'s), which is empty when i or j is 0; here through the members' two-term forms, for k <= 6
    for k in range(0, 7):
        for i in range(0, k + 1):
            for j in range(0, k + 1):
                if k < 6:
                    family = product_family(i + 1, j + 1, k + 1)
                    total = Polynomial.sum(member_two_term(a, b, k + 1) for _, a, b in family)
                    assert total == remark47_first_sum(i, j, k), (i, j, k)
                total = Polynomial.sum(member_two_term(a, b, k) for _, a, b in product_family(i, j, k))
                assert total == (remark47_first_sum(i - 1, j - 1, k - 1) if i and j else ZERO), (i, j, k)


def test_classically_only_the_first_sum_survives():
    from uschub.polyring import elementary_sym

    for k in range(1, 4):
        for i in range(0, k + 1):
            for j in range(0, k + 1):
                reduced = classical_specialize(remark47_first_sum(i, j, k))
                expected = elementary_sym(i, k, kind="x") * elementary_sym(j, k, kind="x")
                assert reduced == expected


# -- square elimination ------------------------------------------------------------

def _no_same_point_squares(p):
    for mono in p.terms():
        seen = set()
        for v, e in mono:
            if v.kind != "c":
                continue
            if e > 1 or v.j in seen:
                return False
            seen.add(v.j)
    return True


def test_rewrite_squares_away():
    samples = [
        cpoly(1, 1) * cpoly(1, 1),
        cpoly(2, 2) * cpoly(1, 2) + cpoly(1, 1),
        cpoly(2, 3) * cpoly(2, 3) * cpoly(1, 1),
        (cpoly(1, 2) + cpoly(2, 2)) * (cpoly(1, 2) - cpoly(2, 2)),
    ]
    for p in samples:
        flat = rewrite_no_squares(p)
        assert _no_same_point_squares(flat)
        assert to_g_form(flat) == to_g_form(p)
        assert rewrite_no_squares(flat) == flat


def test_rewrite_matches_the_reference():
    rng = random.Random(11)
    # points up to 4 by hand; the reference takes seconds on random ones there
    catalog = [cpoly(1, 4) ** 2 * cpoly(2, 4), cpoly(3, 4) * cpoly(2, 4) * cpoly(1, 1),
               cpoly(2, 3) ** 2 * cpoly(1, 3) * cpoly(3, 3)]
    for _ in range(60):
        p = ZERO
        for _ in range(rng.randint(1, 3)):
            term = Polynomial.const(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 5)):
                k = rng.randint(1, 3)
                term = term * cpoly(rng.randint(1, k), k)
            if rng.random() < 0.3:
                term = term * Polynomial.var(g(rng.randint(1, 3), rng.randint(0, 2)))
            p = p + term
        catalog.append(p)
    for p in catalog:
        assert rewrite_no_squares(p) == rewrite_no_squares_reference(p), p


def test_every_rule_term_sorts_after_its_pair():
    # The key adds over factors, so this is the termination argument for every
    # monomial: each rewrite writes only terms that the peel reaches later.
    # With i or j = 0 the pair is a single factor and is never rewritten.
    for k in range(1, 7):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                (pair,) = (cpoly(i, k) * cpoly(j, k)).terms()
                for mono in _rule_rhs(i, j, k).terms():
                    assert _square_key(mono) > _square_key(pair), (i, j, k, mono)


def test_tenth_power_eliminates_within_the_budget():
    # The worklist rewrote a monomial each time it came back and stopped at
    # SQUARE_BUDGET after about 28 s.
    p = parse_text("c1(1)^10")
    flat = rewrite_no_squares(p)
    assert _no_same_point_squares(flat)
    # Both g-forms agree; the flat one is too large to expand, so compare them at integer points.
    for seed in (1, 2):
        rng, values = random.Random(seed), {}

        def g_at(v):
            return Polynomial.const(values.setdefault(v, rng.randint(-9, 9))) if v.kind == "g" else None

        def at(v):
            return substitute_reference(c_from_g(v.i, v.j), g_at) if v.kind == "c" else g_at(v)

        assert substitute_reference(flat, at) == substitute_reference(p, at)


def test_square_elimination_stops_at_the_budget(monkeypatch, capsys):
    monkeypatch.setattr(formulas, "SQUARE_BUDGET", 3)
    with pytest.raises(ArithmeticError, match="writes more than 3 terms"):
        rewrite_no_squares(cpoly(1, 2) ** 4)
    assert main(["expand", "c1(2)^4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_a_huge_exponent_reaches_the_budget_without_a_list_of_its_size(monkeypatch):
    # the pair at each point was picked from a list with one entry per unit of exponent
    monkeypatch.setattr(formulas, "SQUARE_BUDGET", 100)
    with pytest.raises(ArithmeticError, match="writes more than 100 terms"):
        rewrite_no_squares(parse_text("c1(1)^99999999999"))


def test_rewrite_rejects_other_kinds():
    # the first foreign variable in package order is named, before a c-point past the bound
    with pytest.raises(ValueError, match=r"^expand works on c/g polynomials, found d1\(1\)$"):
        rewrite_no_squares(parse_text("c1(5) + x1 + d1(1)"), 2)


def test_square_expansion_in_the_schubert_basis():
    flat = rewrite_no_squares(cpoly(1, 1) * cpoly(1, 1))
    slices = {}
    for gpart, el in split_by_g(flat, 2).items():
        gtext = Polynomial({gpart: 1}).text()
        slices[gtext] = schubert_expand_M(el)
    assert slices == {
        "1": {Permutation((3, 1, 2)): 1},
        "g1[1]": {Permutation.identity(): 1},
    }


# -- loci and pushforwards -----------------------------------------------------------

def test_locus_strict_example():
    profile = RankProfile((2,), (2,))
    p = locus_formula(Permutation((1, 3, 2)), profile)
    assert p == parse_text("c1(2) - d1(2)")
    assert render_locus(p, profile) == "c1(E1) - c1(F1)"


def test_locus_requires_containment():
    with pytest.raises(ValueError):
        locus_formula(Permutation((2, 1)), RankProfile((2,), (2,)))


@pytest.mark.parametrize("build, message", [
    (lambda: det_D(0, 1, 0), "window size k must be positive"),
    (lambda: locus_formula(Permutation((2, 1)), RankProfile((1,), (1,)), mode="loose"), "unknown mode 'loose'"),
])
def test_a_bad_window_or_locus_mode_is_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_locus_interval_mode_snaps_points():
    w = Permutation((2, 3, 1))
    # d1(2) snaps down to d1(1); d2(2) snaps to d2(1) which vanishes
    p = locus_formula(w, RankProfile((2,), (1,)), mode="interval")
    assert p == parse_text("-c1(2)*d1(1) + c2(2) + d1(1)^2")
    full = locus_formula(w, RankProfile((2,), (1, 2)), mode="interval")
    assert full == parse_text("-c1(2)*d1(1) + c2(2) + d1(1)*d1(2) - d2(2)")
    with pytest.raises(ValueError):
        locus_formula(Permutation((1, 3, 2)), RankProfile((1, 3), (1, 3)), mode="interval")


def test_interval_loci_of_s5_are_pinned():
    subsets = [tuple(i for i in range(1, 5) if mask >> (i - 1) & 1) for mask in range(1, 16)]
    lines = []
    for w in all_perms(5):
        for A in subsets:
            for B in subsets:
                prof = RankProfile(A, B)
                if prof.covers_descents(w):
                    case = " ".join(",".join(map(str, t)) for t in (w.as_tuple(5), A, B))
                    lines.append(f"{case}: {render_locus(locus_formula(w, prof, mode='interval'), prof)}\n")
    assert len(lines) == 2930
    assert sha256("".join(lines).encode()).hexdigest() == LOCUS_INTERVAL_DIGEST


def test_locus_strict_on_every_covering_profile_of_s4():
    subsets = [tuple(i for i in range(1, 4) if mask & (1 << (i - 1))) for mask in range(1, 8)]
    for w in all_perms(4):
        for A in subsets:
            for B in subsets:
                profile = RankProfile(A, B)
                if profile.contains_codiagram(w):
                    locus_formula(w, profile)


def _rendered_lines() -> dict[str, list[str]]:
    """Every printed form the renderer digests cover, one line per object."""
    lines: dict[str, list[str]] = {"text": [], "latex": [], "melement": [], "locus": []}
    for w in all_perms(4):
        p = universal_double(w, 3)
        lines["text"].append(f"{w.as_tuple(4)}: {p.text()}")
        lines["latex"].append(f"{w.as_tuple(4)}: {p.latex()}")
    for w in all_perms(5):
        lines["melement"].append(f"{w.as_tuple(5)}: {universal_single(w, 4).text()}")
    subsets = [tuple(i for i in range(1, 4) if mask & (1 << (i - 1))) for mask in range(1, 8)]
    for w in all_perms(4):
        for A in subsets:
            for B in subsets:
                profile = RankProfile(A, B)
                if profile.contains_codiagram(w):
                    rendered = render_locus(locus_formula(w, profile), profile)
                    lines["locus"].append(f"{w.as_tuple(4)} {A} {B}: {rendered}")
    return lines


def test_renderers_match_the_frozen_digests():
    for name, lines in _rendered_lines().items():
        assert sha256("\n".join(lines).encode()).hexdigest() == RENDER_DIGESTS[name], name


def test_gysin_sweep():
    for k in range(0, 5):
        for i in range(0, k + 1):
            assert gysin_check(k, i)
    with pytest.raises(ValueError):
        gysin_check(2, 3)
