"""Variable specializations: classical, the g-form, quantum, partial flag.

The g-form is the bridge: c_i(k) is a polynomial in variables g_s[t]
through the recursion

    c_i(k) = c_i(k-1) + sum_{j>=0} g_{k-j}[j] c_{i-j-1}(k-j-1),

with c_0 = 1 and c_i(k) = 0 outside 0 <= i <= k.  Two independent
characterizations are provided as oracles: the coefficient of T^{k-i}
in det(A + IT) for the k x k matrix A with g_i[j-i] above the diagonal
and -1 just below it, and the sum over families of disjoint intervals
covering exactly i of the vertices 1..k, where an interval of t+1
vertices starting at s contributes the factor g_s[t].

Every specialization is one pass of _specialize(p, rule), through a memo of
each variable's image per rule and a bounded memo of monomial images, each
built from its prefix's.  The rules are "gform", "classical" (c, d -> e_i of
the x's, y's) and the flag map of a profile N: g_i[0] -> x_i, one g per adjacent
block pair -> a signed q of degree n_{i+1} - n_{i-1}, every other g -> 0, c_i(j)
-> the map of its g-form.  Its one-block case N = (1) is the classical ring
(g_classical); its full flag (1, ..., m), for every m at once, is "quantum".
An int point m is one step of the recursion above at k = m, the rest kept.
"""

from __future__ import annotations

from collections import namedtuple

from .permutations import Permutation, all_perms
from .polyring import (
    ONE,
    ZERO,
    Monomial,
    Polynomial,
    Variable,
    _chern_edge,
    add_product,
    clear_caches,  # noqa: F401  (bench/ empties the memos by this name)
    cpoly,
    determinant,
    elementary_sym,
    g,
    memo,
    q,
    x,
)
from .schubert import universal_single


def _cut_points(points, error: str) -> tuple[int, ...]:
    """Cut points or ranks as a tuple; a non-int (bool too) is a TypeError, a list not rising from 0 ValueError(error)."""
    points = tuple(points)
    if any(type(p) is not int for p in points):
        raise TypeError(f"cut points and ranks must be ints, got {points}")
    if not points or any(b <= a for a, b in zip((0, *points), points)):
        raise ValueError(error.format(points))
    return points


class FlagProfile(namedtuple("FlagProfile", "N")):
    """Strictly increasing cut points N = (n_1, ..., n_l)."""

    __slots__ = ()

    def __new__(cls, N):
        return super().__new__(cls, _cut_points(N, "cut points must be strictly increasing and positive: {}"))

    @property
    def l(self) -> int:
        return len(self.N)

    @property
    def top(self) -> int:
        return self.N[-1]

    def n_(self, i: int) -> int:
        """n_i with n_0 = 0."""
        return 0 if i == 0 else self.N[i - 1]

    def k_(self, i: int) -> int:
        return self.n_(i) - self.n_(i - 1)

    def q_degree(self, i: int) -> int:
        """Degree of q_i, namely n_{i+1} - n_{i-1}."""
        return self.n_(i + 1) - self.n_(i - 1)

    def is_member(self, w: Permutation) -> bool:
        """Whether w lies in the subgroup with descents inside N."""
        return w.size <= self.top and w.has_descents_only_in(self.N)

    def longest_member(self) -> Permutation:
        return Permutation.longest_with_descents_in(self.N)

    def members(self):
        return (w for w in all_perms(self.top) if self.is_member(w))


# -- the c -> g expansion ------------------------------------------------------

@memo
def c_from_g(i: int, k: int) -> Polynomial:
    """c_i(k) as a polynomial in the g variables.

    The recursion in k is unrolled down to c_i(i-1) = 0, so each recursive
    call has a smaller i and the depth stays at most i, however large k is.
    """
    if (edge := _chern_edge(i, k)) is not None:
        return edge
    return Polynomial.sum(
        Polynomial.var(g(m - j, j)) * c_from_g(i - j - 1, m - j - 1) for m in range(i, k + 1) for j in range(i)
    )


def c_from_g_det(i: int, k: int) -> Polynomial:
    """Oracle: coefficient of T^{k-i} in det(A + IT).

    A is k x k with entry g_r[s-r] at (r, s) for r <= s, -1 at
    (r+1, r), zero elsewhere.  T is carried as x_1, which no entry holds.
    """
    if (edge := _chern_edge(i, k)) is not None:
        return edge
    mat = [
        [Polynomial.var(g(r, s - r)) if r <= s else -ONE if r == s + 1 else ZERO for s in range(1, k + 1)]
        for r in range(1, k + 1)
    ]
    for r in range(k):
        mat[r][r] += Polynomial.var(x(1))
    power = ((x(1), k - i),) if k > i else ()
    return determinant(mat).coefficients_by("x").get(power, ZERO)


def c_from_g_paths(i: int, k: int) -> Polynomial:
    """Oracle: sum over disjoint interval families covering i of k vertices."""
    if (edge := _chern_edge(i, k)) is not None:
        return edge

    def walk(start: int, left: int) -> Polynomial:
        # sum over families using vertices >= start that cover `left` more
        if left == 0:
            return ONE
        return Polynomial.sum(
            Polynomial.var(g(s, t)) * walk(s + t + 1, left - t - 1)
            for s in range(start, k - left + 2)
            for t in range(0, min(left, k + 1 - s))
        )

    return walk(1, i)


def to_g_form(p: Polynomial) -> Polynomial:
    """Substitute c_i(j) -> c_from_g(i, j) and d_i(j) -> the h analogue."""
    return _specialize(p, "gform")


# -- terminal substitutions ---------------------------------------------------

def classical_specialize(p: Polynomial) -> Polynomial:
    """c_i(j) -> e_i(x_1..x_j) and d_i(j) -> e_i(y_1..y_j)."""
    return _specialize(p, "classical")


def g_classical(p: Polynomial) -> Polynomial:
    """g_i[0] -> x_i, every g_i[j], j >= 1, to zero and c_i(j) -> e_i(x_1..x_j): the flag map of the profile (1)."""
    return _specialize(p, FlagProfile((1,)))


def zero_y(p: Polynomial) -> Polynomial:
    return p.relabel({v: None for v in p.variables() if v.kind == "y"})


def quantum_specialize(p: Polynomial) -> Polynomial:
    """The full flag's map at every length: g_i[0] -> x_i, g_i[1] -> q_i, g_i[j] -> 0 for j >= 2, each c_i(j)
    through its g-form.  d or h variables have no quantum reading here and raise."""
    return _specialize(p, "quantum")


@memo
def _rule_image(v: Variable, rule: str | int | FlagProfile) -> Polynomial | None:
    """One variable's image under ``rule``, None keeping it.  An int m: c_i(m) -> its recursion step.  "gform":
    c_i(j) -> c_from_g(i, j), d_i(j) -> its h analogue.  "classical": c_i(j) -> e_i(x_1..x_j), d_i(j) -> e_i(y_1..y_j).
    A FlagProfile: g_i[0] -> x_i, g_{n_{i-1}+1}[k_i + k_{i+1} - 1] -> (-1)^{k_{i+1}+1} q_i of degree n_{i+1} - n_{i-1},
    every other g_s[t], t >= 1, -> 0, and c_i(j) -> the map of c_from_g(i, j).  "quantum", the full flag's map:
    g_i[0] -> x_i, g_i[1] -> q_i, every other g_s[t] -> 0, c_i(j) through its g-form, and a d or h variable raises."""
    if isinstance(rule, int):
        return None if v.kind != "c" or v.j != rule else Polynomial.sum([cpoly(v.i, rule - 1)] + [
            Polynomial.var(g(rule - j, j)) * cpoly(v.i - j - 1, rule - j - 1) for j in range(v.i)])
    if rule == "gform" and v.kind in "cd":
        return c_from_g(v.i, v.j) if v.kind == "c" else c_from_g(v.i, v.j).rename_kind("g", "h")
    if rule == "classical" and v.kind in "cd":
        return elementary_sym(v.i, v.j, kind="x" if v.kind == "c" else "y")
    if rule == "quantum" and v.kind in "dh":
        raise ValueError("quantum specialization is defined for single polynomials only")
    if rule in ("gform", "classical") or v.kind not in "cg":
        return None
    if v.kind == "c":
        return _specialize(c_from_g(v.i, v.j), rule)
    if v.j == 0:
        return Polynomial.var(x(v.i))
    if rule == "quantum":
        return Polynomial.var(q(v.i)) if v.j == 1 else ZERO
    for i in range(1, rule.l):
        if (v.i, v.j) == (rule.n_(i - 1) + 1, rule.k_(i) + rule.k_(i + 1) - 1):
            return Polynomial.var(q(i, degree=rule.q_degree(i))) * (-1) ** (rule.k_(i + 1) + 1)
    return ZERO


# A cold bench query round looks up 2.1-2.4 k mapped monomials, 0.8-0.9 k of them new (seeds 1-3).
@memo(maxsize=1 << 12)
def _monomial_image(mapped: Monomial, rule: str | int | FlagProfile) -> Polynomial:
    """The image of a monomial whose every variable maps: its prefix's image times the last power."""
    v, e = mapped[-1]
    image = _rule_image(v, rule) if e == 1 else _rule_image(v, rule) ** e
    return _monomial_image(mapped[:-1], rule) * image if len(mapped) > 1 else image


# A session maps the same forms again: a cold bench query round (seeds 1-3) specializes 515-540 times, 153-160 repeats.
@memo(maxsize=1 << 10, typed=True)
def _specialize(p: Polynomial, rule: str | int | FlagProfile) -> Polynomial:
    """p under ``rule``: a term holding a zero image is dropped, every other adds co * kept * the image of its
    mapped part, read through the memo :func:`_monomial_image`, to one dict."""
    images = {v: img for v in p.variables() if (img := _rule_image(v, rule)) is not None}
    acc: dict[Monomial, int] = {}
    for m, co in p.terms().items():
        mapped = tuple(pair for pair in m if pair[0] in images)
        if all(images[v] for v, _ in mapped):
            kept = tuple(pair for pair in m if pair[0] not in images) if len(mapped) < len(m) else ()
            for k in range(32, len(mapped), 32):  # short to long, so a cold monomial recurses at most 32 deep
                _monomial_image(mapped[:k], rule)
            add_product(acc, {kept: co}, _monomial_image(mapped, rule) if mapped else ONE)
    return Polynomial(acc)


def round_points(p: Polynomial, ranks: dict[str, tuple[int, ...]]) -> Polynomial:
    """Send each c_i(j) or d_i(j) of a family ``ranks`` lists, "c" or "d", to the same class at the largest
    listed rank r <= j, or to 0 when i > r or no rank is <= j (c_i of a rank-0 bundle vanishes): one relabel."""
    at = {v: max((r for r in ranks[v.kind] if r <= v.j), default=0) for v in p.variables() if v.kind in ranks}
    return p.relabel({v: (Variable(v.kind, v.i, r), 1) if v.i <= r else None for v, r in at.items()})


def partial_flag_specialize(w: Permutation, profile: FlagProfile, route: str = "A") -> Polynomial:
    """The flag-profile quantum polynomial of w, by either route.

    Route A applies the profile substitution to the single universal
    polynomial, each c_i(j) read through its g-form.  Route B first rounds
    every c_i(j) down to the profile's cut points, then does the same;
    the two must agree for members of the profile's subgroup.
    """
    if not profile.is_member(w):
        raise ValueError(f"{w} has descents outside the profile {profile.N}")
    n = max(profile.top - 1, 1)
    p = universal_single(w, n).to_polynomial("c")
    if route == "B":
        p = round_points(p, {"c": profile.N})
    elif route != "A":
        raise ValueError(f"unknown route {route!r}")
    return _specialize(p, profile)

