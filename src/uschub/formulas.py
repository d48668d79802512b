"""Determinantal formulas, the product rule, locus classes, Gysin check.

Everything here is built from two determinant shapes and one family of
Grassmannian index sets:

  * f_m(k, a, b) = sum_p (-1)^p c_{m-p}(a) h_p(y_{b+1}..y_{b+k}) and the
    k x k determinants D(k, a, b) assembled from them; products of these
    give the dominant mixed polynomials, and row-constant variants are
    valid in suitably degenerate g-contexts.
  * C(a, b), the matrix with entries c_{a_i+j-i}(b_i) and Kronecker rows
    where a_i = 0, searched over row orders to express single universal
    polynomials as one determinant.
  * product_family(i, j, k), the Grassmannian permutations entering the product
    rule for c_i(k) c_j(k): their sums come in Remark 4.7's closed form, and
    the explicit two-term forms of their polynomials give the shifted terms.

The locus emitter renames evaluation points to bundle tags in rendered
output only; the underlying polynomial algebra never changes kinds.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import permutations

from .permutations import Permutation, all_perms
from .polyring import (
    ONE,
    ZERO,
    Monomial,
    Polynomial,
    Variable,
    add_product,
    complete_sym,
    cpoly,
    determinant,
    dpoly,
    g,
    memo,
    x,
)
from .schubert import MElement, peel, universal_double, universal_single
from .specialize import FlagProfile, _cut_points, _specialize, round_points


# -- f and D ------------------------------------------------------------------

def f_poly(m: int, k: int, a: int, b: int) -> Polynomial:
    """Alternating convolution of c(a) against h over the window y_{b+1}..y_{b+k}."""
    return Polynomial.sum(cpoly(m - p, a) * complete_sym(p, k, offset=b, kind="y") * (-1) ** p for p in range(m + 1))


def det_D(k: int, a: int, b: int) -> Polynomial:
    """The k x k determinant with (i, j) entry f_{a+j-i}(k, a+k-i, b)."""
    if k < 1:
        raise ValueError("window size k must be positive")
    mat = [
        [f_poly(a + j - i, k, a + k - i, b) for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    return determinant(mat)


def lemma42_reduced(k: int, a: int, b: int, nonzero: set[tuple[int, int]]) -> Polynomial:
    """Row-constant variant of det_D, valid when the g-context is degenerate.

    nonzero lists the (i, j) with j >= 1 whose g_i[j] survive the
    context's substitution; the variant needs all of them to miss the
    band a < i+j < a+k, and raises otherwise.
    """
    for (i, j) in nonzero:
        if j >= 1 and a < i + j < a + k:
            raise ValueError(
                f"g{i}[{j}] lies in the band {a} < i+j < {a + k}; reduction invalid"
            )
    mat = [
        [f_poly(a + j - i, k, a, b) for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    return determinant(mat)


def dominant_formula(profile: FlagProfile) -> Polynomial:
    """Product of determinants for the longest member of the profile."""
    total = ONE
    for i in range(1, profile.l):
        total = total * det_D(
            profile.k_(i + 1), profile.n_(i), profile.top - profile.n_(i + 1)
        )
    return total


def grassmannian_det(w: Permutation) -> Polynomial:
    """One determinant for a Grassmannian permutation's mixed polynomial."""
    r, lam, mu, phi = w.grassmannian_data()
    mat = [
        [f_poly(mu[i - 1] + j - i, phi[i - 1], r + j - 1, 0) for j in range(1, len(mu) + 1)]
        for i in range(1, len(mu) + 1)
    ]
    return determinant(mat)


# -- one-determinant search ----------------------------------------------------

class DetSpec(namedtuple("DetSpec", "a b")):
    """Row data for the matrix C(a, b): top indices a, evaluation points b."""

    __slots__ = ()

    def matrix(self) -> list[list[Polynomial]]:
        n = len(self.a)
        return [
            [cpoly(a + j - i, b) if a else ONE if j == i else ZERO for j in range(1, n + 1)]
            for i, (a, b) in enumerate(zip(self.a, self.b), start=1)
        ]

    def determinant(self) -> Polynomial:
        return determinant(self.matrix())

    def to_json(self) -> dict:
        return {"a": list(self.a), "b": list(self.b)}

    def label(self) -> str:
        return (
            "D_{" + ",".join(map(str, self.a)) + "}(" + ",".join(map(str, self.b)) + ")"
        )


def _det_is(a: tuple[int, ...], b: tuple[int, ...], target: dict[tuple[int, ...], int]) -> bool:
    """Whether det C(a, b) is the code combination ``target``, read in code space.

    The rows sit at the distinct points b, so a column choice tau gives one
    code, with index a_i + tau(i) - i at point b_i (0 on a Kronecker row), and
    no two choices give the same code: the determinant is sum sgn(tau) code(tau).
    Walk the choices row by row and stop at the first code target lacks or signs
    otherwise; then every code of target must have been met.
    """
    n = len(a)
    # (column, index) per row, leaving out the zero entries: index below 0 or above the point
    choices = [[(j, ai + j - i) for j in range(n) if 0 <= ai + j - i <= bi] if ai else [(i, 0)]
               for i, (ai, bi) in enumerate(zip(a, b))]
    code, found = [0] * n, 0

    def walk(i: int, used: int, sign: int) -> bool:
        nonlocal found
        if i == n:
            found += 1
            return target.get(tuple(code)) == sign
        for j, index in choices[i]:
            if not used >> j & 1:
                code[b[i] - 1] = index
                # each used column right of j is one inversion of tau
                if not walk(i + 1, used | 1 << j, -sign if (used >> j).bit_count() & 1 else sign):
                    return False
        return True

    return walk(0, 0, 1) and found == len(target)


def det19_matches(w: Permutation, n: int) -> Iterator[tuple[Permutation, DetSpec]]:
    """Row orders sigma making det C(a, b) equal w's single polynomial, in lex order.

    a = (code_{sigma(1)}, ..., code_{sigma(n)}) and b = sigma itself;
    yields (sigma, DetSpec) pairs, each compared with w's codes by ``_det_is``.
    """
    code = w.code_tail(n)
    target = universal_single(w, n).codes
    for st in permutations(range(1, n + 1)):
        a = tuple(code[p - 1] for p in st)
        if _det_is(a, st, target):
            yield Permutation(st), DetSpec(a, st)


# A cold bench query round (seeds 1-3) searches 120 words, 50-53 of them repeats; typed: 2.0 misses the entry of 2.
@memo(maxsize=1 << 10, typed=True)
def det19_search(w: Permutation, n: int) -> tuple[Permutation, DetSpec] | None:
    """The lex-first (sigma, DetSpec) of ``det19_matches``, or None."""
    return next(det19_matches(w, n), None)


def det19_record(w: Permutation, n: int, hit: tuple[Permutation, DetSpec] | None) -> dict:
    """JSON record of one search result (sigma, DetSpec), or nulls for None."""
    return {
        "w": list(w.as_tuple(n + 1)),
        "sigma": list(hit[0].as_tuple(n)) if hit else None,
        "spec": hit[1].to_json() if hit else None,
    }


def det19_census(n: int) -> list[tuple[Permutation, tuple[Permutation, DetSpec] | None]]:
    """(w, lex-first search hit or None) for every w in S_{n+1}."""
    return [(w, det19_search(w, n)) for w in all_perms(n + 1)]


# -- the product rule -----------------------------------------------------------

def product_family(i: int, j: int, k: int) -> list[tuple[Permutation, int, int]]:
    """Grassmannian w in S_{k+1} with descent at k-1 entering the rule.

    Members are fixed by (a, b) = (w(k), w(k+1)) with a < b,
    a <= k+1-max(i,j) and a+b = 2k+3-(i+j); the remaining values fill
    positions 1..k-1 in increasing order.  The pair (a, b) = (k, k+1)
    yields the identity and is kept: the degenerate case carries the
    rule's pure-g terms.
    """
    out = []
    s = 2 * k + 3 - (i + j)
    for a in range(1, min(k + 1 - max(i, j), k + 1) + 1):
        b = s - a
        if b <= a or b > k + 1:
            continue
        rest = [v for v in range(1, k + 2) if v not in (a, b)]
        word = rest + [a, b]
        out.append((Permutation(word), a, b))
    return out


def member_two_term(a: int, b: int, k: int, p: int = 0) -> Polynomial:
    """Two-term form of the polynomial of the product_family member with data (a, b),
    after interchanging the values k-p and k when p > 0."""
    return (
        cpoly(k - a - p, k - 1 - p) * cpoly(k + 1 - b, k)
        - cpoly(k - b - p, k - 1 - p) * cpoly(k + 1 - a, k)
    )


@memo
def _rule_rhs(i: int, j: int, k: int) -> Polynomial:
    """Right side of the rule for c_i(k) c_j(k), in the proof's explicit form.

    The family at k+1, plus g_k[1] times the family at k, both summed in
    Remark 4.7's closed form (the family at k is empty when i or j is 0),
    plus g_{k-p}[p+1] times the shifted forms of its members with w(k-p) > w(k).
    """
    parts = [remark47_first_sum(i, j, k)]
    if i and j:
        parts.append(Polynomial.var(g(k, 1)) * remark47_first_sum(i - 1, j - 1, k - 1))
    family = product_family(i, j, k)
    for p in range(1, k):
        gp = Polynomial.var(g(k - p, p + 1))
        parts += [gp * member_two_term(a, b, k, p) for (w, a, b) in family if w(k - p) > w(k)]
    return Polynomial.sum(parts)


ProductRuleReport = namedtuple("ProductRuleReport", "i j k lhs rhs equal_in_g")


# A cold bench query round (seeds 1-3) checks 120 rules, 75-76 of them repeats; typed: True misses the entry of 1.
@memo(maxsize=1 << 8, typed=True)
def product_rule(i: int, j: int, k: int) -> ProductRuleReport:
    """Both sides of the rule for c_i(k) c_j(k), compared in g after one recursion step takes their points k+1 to k:
    every g there sits at level k+1, and the c_i(m), m <= k, are unitriangular in the lower g's, so they are free."""
    if not (0 <= i <= k and 0 <= j <= k):
        raise ValueError("need 0 <= i, j <= k")
    lhs, rhs = cpoly(i, k) * cpoly(j, k), _rule_rhs(i, j, k)
    return ProductRuleReport(i, j, k, lhs, rhs, not _specialize(lhs - rhs, k + 1))


def remark47_first_sum(i: int, j: int, k: int) -> Polynomial:
    """Closed form of the rule's leading sum:
    sum_{l>=0} c_{i-l}(k+1) c_{j+l}(k) - sum_{l>=1} c_{i-l}(k) c_{j+l}(k+1)."""
    return Polynomial.sum(
        [cpoly(i - l, k + 1) * cpoly(j + l, k) for l in range(0, i + 1)]
        + [-cpoly(i - l, k) * cpoly(j + l, k + 1) for l in range(1, i + 1)]
    )


# -- square elimination -----------------------------------------------------------

# The most terms the rewrites of one square elimination may write.
SQUARE_BUDGET = 500_000


def _square_key(mono: Monomial) -> tuple[int, int, int]:
    """(-c-degree, sum of i*k, -number of factors) over the c_i(k)^e in mono."""
    degree = weight = factors = 0
    for v, e in mono:
        if v.kind == "c":
            degree, weight, factors = degree - v.i * e, weight + v.i * v.j * e, factors - e
    return degree, weight, factors


# A cold bench query round (seeds 1-3) eliminates 120 expressions, 65-69 of them repeats.
@memo(maxsize=1 << 9, typed=True)
def rewrite_no_squares(p: Polynomial, n: int | None = None) -> Polynomial:
    """Eliminate all same-point products c_i(k) c_j(k) with i, j >= 1.

    A ``peel``: a square-free monomial is its own label, and one with pairs
    leads m - rest * (right side of the product rule) at its largest pair
    (k, i, j), labelled None.  That right side sorts after c_i(k) c_j(k) by
    ``_square_key``: a g-term lowers the c-degree, a g-free one at k+1 adds
    to the weight, one at b = k+2 fuses the pair into c_{i+j}(k).  The key
    adds over factors, so each distinct monomial is rewritten once.
    """
    # both errors name the first offending variable in package order, a foreign one before a far c-point
    variables = p.variables()
    if foreign := next((v for v in variables if v.kind not in ("c", "g")), None):
        raise ValueError(f"expand works on c/g polynomials, found {foreign.text()}")
    if n is not None and (far := next((v.j for v in variables if v.kind == "c" and v.j > n), None)):
        raise ValueError(f"c-point {far} exceeds the stated bound {n}")
    written = 0

    def lead(mono: Monomial) -> tuple[Monomial | None, dict[Monomial, int]]:
        nonlocal written
        # (point, index) per c factor, at most twice, largest first: the top pair is the first two at one point
        found = sorted(((v.j, v.i) for v, e in mono if v.kind == "c" for _ in range(min(e, 2))), reverse=True)
        pair = next(((k, i, j) for (k, i), (at, j) in zip(found, found[1:]) if at == k), None)
        if pair is None:
            return mono, {mono: 1}
        k, i, j = pair
        exps = dict(mono)
        exps[Variable("c", i, k, i)] -= 1
        exps[Variable("c", j, k, j)] -= 1
        # dropping exponents keeps the monomial's variable order
        rest = tuple((v, e) for v, e in exps.items() if e)
        relation = {mono: 1}
        add_product(relation, {rest: -1}, _rule_rhs(i, j, k))
        written += len(relation) - 1
        if written > SQUARE_BUDGET:
            raise ArithmeticError(f"square elimination writes more than {SQUARE_BUDGET:,} terms")
        return None, relation

    return Polynomial({mono: coeff for mono, coeff in peel(p.terms(), lead, _square_key).items() if mono is not None})


def split_by_g(p: Polynomial, n: int) -> dict[Monomial, MElement]:
    """View a square-free c/g polynomial as g-monomial -> code combination."""
    out: dict[Monomial, MElement] = {}
    for gpart, cof in p.coefficients_by("g").items():
        out[gpart] = MElement.from_polynomial(cof, n)
    return out


# -- degeneracy locus emitter -------------------------------------------------------

class RankProfile(namedtuple("RankProfile", "A B")):
    """Strictly increasing rank lists for the two sides of a bundle chain."""

    __slots__ = ()

    def __new__(cls, A, B):
        A, B = (_cut_points(ranks, f"rank list {name} must be strictly increasing and positive")
                for name, ranks in (("A", A), ("B", B)))
        return super().__new__(cls, A, B)

    def contains_codiagram(self, w: Permutation) -> bool:
        n = max(w.size - 1, 1)
        As, Bs = set(self.A), set(self.B)
        return all(i in As and j in Bs for (i, j) in w.codiagram(n))

    def covers_descents(self, w: Permutation) -> bool:
        return (
            w.has_descents_only_in(self.A)
            and w.left_descents() <= set(self.B)
        )


def locus_formula(w: Permutation, profile: RankProfile, mode: str = "strict") -> Polynomial:
    """Chern-class formula for the degeneracy locus of w over a rank profile.

    Strict mode requires the codiagram inside A x B, and the mixed
    polynomial then only mentions admissible evaluation points.
    Interval mode only needs descents of w in A and of w inverse in B;
    points are rounded down to A and B by ``round_points`` (dropping
    those below the range, capping those above).
    """
    n = max(w.size - 1, 1)
    p = universal_double(w, n)
    if mode == "strict":
        if not profile.contains_codiagram(w):
            raise ValueError(f"codiagram of {w} is not inside A x B")
        As, Bs = set(profile.A), set(profile.B)
        for v in p.variables():
            if v.kind == "c" and v.j not in As:
                raise AssertionError("occurrence outside A contradicts the containment")
            if v.kind == "d" and v.j not in Bs:
                raise AssertionError("occurrence outside B contradicts the containment")
        return p
    if mode != "interval":
        raise ValueError(f"unknown mode {mode!r}")
    if not profile.covers_descents(w):
        raise ValueError(f"descents of {w} or its inverse escape the profile")
    return round_points(p, {"c": profile.A, "d": profile.B})


def render_locus(p: Polynomial, profile: RankProfile) -> str:
    """Text form with evaluation points renamed to bundle tags E_p / F_q."""
    tags = {"c": {a: f"E{idx}" for idx, a in enumerate(profile.A, start=1)},
            "d": {b: f"F{idx}" for idx, b in enumerate(profile.B, start=1)}}
    def name(v: Variable) -> str:
        return f"c{v.i}({tags[v.kind][v.j]})" if v.kind in tags else v.text()

    return p.render(name, "*", "^{}")


# -- projective-bundle pushforward check ------------------------------------------

def gysin_check(k: int, i: int) -> bool:
    """Pushforward of c_k(K-dual twisted) c_i(H) along a hyperplane bundle.

    K has rank k (classes kept as c_a(k)); G has rank k+1 (classes kept
    as d_b(k+1)); the hyperplane class is carried by x_1.  The linear
    pushforward sends x_1^{k+r} to (-1)^r s_r(G) with s the inverse
    Chern series, and lower powers to zero.  True when the result is
    c_i(K).
    """
    if not 0 <= i <= k:
        raise ValueError("need 0 <= i <= k")
    zeta = Polynomial.var(x(1))
    top = Polynomial.sum((-1) ** a * cpoly(a, k) * zeta ** (k - a) for a in range(0, k + 1))
    ch = Polynomial.sum((-1) ** b * dpoly(i - b, k + 1) * zeta ** b for b in range(0, i + 1))
    prod = top * ch

    max_r = i
    segre: list[Polynomial] = [ONE]
    for r in range(1, max_r + 1):
        segre.append(-Polynomial.sum(dpoly(t, k + 1) * segre[r - t] for t in range(1, min(r, k + 1) + 1)))

    pushed = []
    for zpart, cof in prod.coefficients_by("x").items():
        m = zpart[0][1] if zpart else 0
        if m >= k:
            pushed.append((-1) ** (m - k) * cof * segre[m - k])
    return Polynomial.sum(pushed) == cpoly(i, k)
