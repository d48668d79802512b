"""Acceptance sweep: one numbered criterion per test, one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines, or
``python tests/test_acceptance.py`` to run the twelve criteria standalone.
Criterion 9 asserts that the search finds expressions for 113 of the 120
permutations of S_5: every hit's determinant is confirmed by the two
construction routes the search does not use (the ``e_expand`` reference in
``tests/oracles.py`` and the y = 0 reduction of the mixed form), and an
exhaustive search over all row orders finds none for the 7 failures.  The
stated count of 112 is printed beside it and reported, not asserted.
"""

import sys
import time
from itertools import combinations

from frozen import (
    CENSUS_FAILURES,
    CENSUS_HITS,
    CLASSICAL_TABLE,
    DET19_WITNESSES,
    QUANTUM_231,
    QUANTUM_312,
    S3_TABLE,
    STATED_CENSUS_HITS,
    VEXILLARY_S5,
)
from oracles import e_expand
from uschub.formulas import (
    DetSpec,
    RankProfile,
    det19_census,
    det19_search,
    dominant_formula,
    grassmannian_det,
    gysin_check,
    locus_formula,
    product_rule,
    remark47_first_sum,
)
from uschub.permutations import Permutation, all_perms
from uschub.polyring import elementary_sym, parse_text
from uschub.schubert import (
    classical_single,
    universal_cy,
    universal_double,
    universal_single,
)
from uschub.specialize import (
    FlagProfile,
    c_from_g,
    c_from_g_det,
    c_from_g_paths,
    classical_specialize,
    partial_flag_specialize,
    quantum_specialize,
    zero_y,
)
from uschub.uring import (
    check_diagonal_vanishing,
    check_orthogonality,
    staircase_rank_report,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    print(line)
    print(line, file=sys.stderr)
    assert ok, detail


def test_criterion_01_golden_table():
    start = time.time()
    bad = [
        word
        for word, text in S3_TABLE.items()
        if universal_double(Permutation(word), 2) != parse_text(text)
    ]
    elapsed = time.time() - start
    report(
        1,
        not bad and elapsed < 1.0,
        f"all six double polynomials on S_3 match the golden table ({elapsed:.2f}s)",
    )


def test_criterion_02_three_routes_agree():
    start = time.time()
    bad = []
    for w in all_perms(5):
        ladder = universal_single(w, 4)
        if e_expand(classical_single(w), 4) != ladder:
            bad.append((w.word, "e_expand"))
        if zero_y(universal_cy(w, 4)) != ladder.to_polynomial("c"):
            bad.append((w.word, "zero_y"))
    elapsed = time.time() - start
    report(
        2,
        not bad and elapsed < 60.0,
        f"ladder, e_expand, and y=0 routes agree on all 120 of S_5 ({elapsed:.1f}s)",
    )


def test_criterion_03_classical_oracle():
    bad = [
        w.word
        for w in all_perms(5)
        if classical_specialize(universal_single(w, 4).to_polynomial("c"))
        != classical_single(w)
    ]
    spot = all(
        classical_single(Permutation(word)) == parse_text(text)
        for word, text in CLASSICAL_TABLE.items()
    )
    report(
        3,
        not bad and spot,
        "classical specialization equals the divided-difference oracle on S_5",
    )


def test_criterion_04_leading_code_is_unital():
    bad = []
    for w in all_perms(5):
        el = universal_single(w, 4)
        lead = max(el.codes)
        if lead != w.code_tail(4) or el.codes[lead] != 1:
            bad.append(w.word)
    report(4, not bad, "lex-leading code on S_5 is the modified code, coefficient 1")


def test_criterion_05_duality_and_stability():
    bad = []
    for w in all_perms(4):
        flipped = universal_double(w, 3).swap_kinds("c", "d")
        expected = universal_double(w.inverse(), 3)
        if w.length() % 2:
            expected = -expected
        if flipped != expected:
            bad.append(w.word)
    stable = all(
        universal_double(w, 2) == universal_double(w, 3) for w in all_perms(3)
    )
    report(
        5,
        not bad and stable,
        "kind swap carries the length sign on S_4; S_3 doubles are stable in S_4",
    )


def test_criterion_06_quantum():
    v231 = quantum_specialize(universal_single(Permutation((2, 3, 1)), 2).to_polynomial("c"))
    v312 = quantum_specialize(universal_single(Permutation((3, 1, 2)), 2).to_polynomial("c"))
    values = v231 == parse_text(QUANTUM_231) and v312 == parse_text(QUANTUM_312)
    routes = all(
        c_from_g(i, k) == c_from_g_det(i, k) == c_from_g_paths(i, k)
        for k in range(0, 6)
        for i in range(0, k + 1)
    )
    mono = next(iter(parse_text("g1[0]*g2[2]*g5[0]*g6[1]*g9[0]").terms()))
    printed = c_from_g(8, 9).terms().get(mono, 0) == 1
    report(
        6,
        values and routes and printed,
        "quantum values match; recursion, determinant, and path sums agree to k=5",
    )


def _profiles(top: int):
    for r in range(1, top + 1):
        for N in combinations(range(1, top + 1), r):
            yield FlagProfile(N)


def test_criterion_07_flag_profiles():
    start = time.time()
    bad = []
    members = 0
    for profile in _profiles(4):
        if dominant_formula(profile) != universal_cy(
            profile.longest_member(), profile.top - 1
        ):
            bad.append((profile.ranks, "dominant"))
        for w in profile.members():
            members += 1
            if partial_flag_specialize(w, profile, route="A") != partial_flag_specialize(
                w, profile, route="B"
            ):
                bad.append((profile.ranks, w.word))
    elapsed = time.time() - start
    report(
        7,
        not bad and elapsed < 300.0,
        f"dominant formula and both flag routes agree over {members} members"
        f" of 15 profiles ({elapsed:.1f}s)",
    )


def test_criterion_08_grassmannian_determinant():
    bad = [
        w.word
        for w in all_perms(5)
        if w.is_grassmannian()
        and grassmannian_det(w) != universal_cy(w, max(w.size - 1, 1))
    ]
    report(8, not bad, "single determinant matches on every Grassmannian w in S_5")


def _words(words) -> str:
    return ", ".join(" ".join(map(str, w)) for w in sorted(words))


def test_criterion_09_census():
    start = time.time()
    records = det19_census(4)
    by_word = {tuple(rec["w"]): rec for rec in records}
    problems = []
    wrong = [
        word
        for word, (a, b) in DET19_WITNESSES.items()
        if by_word[word]["spec"] != {"a": list(a), "b": list(b)}
    ]
    if wrong:
        problems.append(f"witnesses wrong: {_words(wrong)}")
    if by_word[(1, 5, 3, 2, 4)]["spec"] is not None:
        problems.append("non-example 1 5 3 2 4 has an expression")
    failures = {w for w, rec in by_word.items() if rec["spec"] is None}
    if failures != CENSUS_FAILURES:
        problems.append(
            f"failure set differs: missing {_words(CENSUS_FAILURES - failures) or '-'},"
            f" extra {_words(failures - CENSUS_FAILURES) or '-'}"
        )
    hits = len(records) - len(failures)
    if hits != CENSUS_HITS:
        problems.append(f"count {hits} is not {CENSUS_HITS}")
    # The search compares against universal_single (the ladder); confirm
    # every hit with the two construction routes it did not use.
    mismatched = {"e_expand": [], "zero_y": []}
    for word, rec in by_word.items():
        if rec["spec"] is None:
            continue
        w = Permutation(word)
        det = DetSpec(tuple(rec["spec"]["a"]), tuple(rec["spec"]["b"])).determinant()
        if det != e_expand(classical_single(w), 4).to_polynomial("c"):
            mismatched["e_expand"].append(word)
        if det != zero_y(universal_cy(w, 4)):
            mismatched["zero_y"].append(word)
    for route, words in mismatched.items():
        if words:
            problems.append(f"route mismatch ({route}): {_words(words)}")
    matched = [w for w in failures if det19_search(Permutation(w), 4, exhaustive=True)]
    if matched:
        problems.append(f"exhaustive search matches failures: {_words(matched)}")
    vexillary = sum(1 for w in all_perms(5) if w.is_vexillary())
    if vexillary != VEXILLARY_S5:
        problems.append(f"vexillary count {vexillary} is not {VEXILLARY_S5}")
    elapsed = time.time() - start
    if elapsed >= 600.0:
        problems.append(f"took {elapsed:.1f}s, limit 600s")
    checked = "; ".join(problems) or (
        f"witnesses, the non-example, both other routes on every hit, exhaustive"
        f" search on the {len(failures)} failures and vexillary count {vexillary}"
        f" verified ({elapsed:.1f}s)"
    )
    report(
        9,
        not problems,
        f"found {hits} of 120 (stated: {STATED_CENSUS_HITS},"
        f" difference {hits - STATED_CENSUS_HITS:+d}); {checked}",
    )


def test_criterion_10_product_rule():
    bad = []
    for k in range(0, 5):
        for i in range(0, k + 1):
            for j in range(0, k + 1):
                if not product_rule(i, j, k).equal_in_g:
                    bad.append((i, j, k, "g"))
                reduced = classical_specialize(remark47_first_sum(i, j, k))
                wanted = elementary_sym(i, k, kind="x") * elementary_sym(j, k, kind="x")
                if reduced != wanted:
                    bad.append((i, j, k, "classical"))
    report(
        10,
        not bad,
        "product rule holds in g and classically collapses to e_i*e_j for k <= 4",
    )


def test_criterion_11_diagrams_and_loci():
    sizes = all(len(w.codiagram(5)) == w.length() for w in all_perms(6))
    subsets = [
        tuple(i for i in range(1, 4) if mask & (1 << (i - 1))) for mask in range(1, 8)
    ]
    covered = 0
    for w in all_perms(4):
        for A in subsets:
            for B in subsets:
                profile = RankProfile(A, B)
                if profile.contains_codiagram(w):
                    covered += 1
                    locus_formula(w, profile)  # raises if a variable escapes A x B
    gysin = all(gysin_check(k, i) for k in range(0, 5) for i in range(0, k + 1))
    report(
        11,
        sizes and covered > 0 and gysin,
        f"codiagram sizes match lengths on S_6; {covered} covered loci stay inside"
        " their profiles; Gysin pushforwards check to k=4",
    )


def test_criterion_12_universal_ring():
    start = time.time()
    ranks = all(staircase_rank_report(n)["full_rank"] for n in (1, 2, 3))
    pairing_failures = []
    for n in (1, 2, 3):
        pairing_failures.extend(check_orthogonality(n)["failures"])
    diagonal = check_diagonal_vanishing(3)
    elapsed = time.time() - start
    report(
        12,
        ranks and not pairing_failures and not diagonal["failures"] and elapsed < 900.0,
        f"staircase bases full-rank to n=3; {576 + 36 + 4} dual pairings are"
        f" orthonormal; doubles vanish on the diagonal in S_4 ({elapsed:.1f}s)",
    )


def _main() -> int:
    criteria = [
        test_criterion_01_golden_table,
        test_criterion_02_three_routes_agree,
        test_criterion_03_classical_oracle,
        test_criterion_04_leading_code_is_unital,
        test_criterion_05_duality_and_stability,
        test_criterion_06_quantum,
        test_criterion_07_flag_profiles,
        test_criterion_08_grassmannian_determinant,
        test_criterion_09_census,
        test_criterion_10_product_rule,
        test_criterion_11_diagrams_and_loci,
        test_criterion_12_universal_ring,
    ]
    failed = 0
    for fn in criteria:
        try:
            fn()
        except AssertionError:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
