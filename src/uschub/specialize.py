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

Downstream substitutions then read off the classical ring
(g_i[0] -> x_i, the rest to zero), the quantum ring (g_i[1] -> q_i
kept), or the partial-flag quantum ring for a profile N, where one
surviving g per adjacent block pair becomes a signed q of degree
n_{i+1} - n_{i-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .permutations import Permutation
from .polyring import (
    ONE,
    ZERO,
    Polynomial,
    Variable,
    cpoly,
    elementary_sym,
    g,
    q,
    x,
    y,
)
from .schubert import universal_single

_c_from_g_cache: dict[tuple[int, int], Polynomial] = {}


def clear_caches() -> None:
    _c_from_g_cache.clear()


@dataclass(frozen=True)
class FlagProfile:
    """Strictly increasing cut points N = (n_1, ..., n_l)."""

    N: tuple[int, ...]

    def __post_init__(self):
        N = tuple(self.N)
        object.__setattr__(self, "N", N)
        if not N or any(b <= a for a, b in zip(N, N[1:])) or N[0] < 1:
            raise ValueError(f"cut points must be strictly increasing and positive: {N}")

    @classmethod
    def parse(cls, text: str) -> "FlagProfile":
        return cls(tuple(int(p) for p in text.split(",")))

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

    def block_of(self, j: int) -> int:
        """Largest cut point n_k <= j; errors below n_1."""
        best = None
        for nk in self.N:
            if nk <= j:
                best = nk
        if best is None:
            raise ValueError(f"rank {j} lies below the first cut point {self.N[0]}")
        return best

    def longest_member(self) -> Permutation:
        return Permutation.longest_with_descents_in(self.N)

    def members(self):
        from .permutations import all_perms

        for w in all_perms(self.top):
            if self.is_member(w):
                yield w


# -- the c -> g expansion ------------------------------------------------------

def c_from_g(i: int, k: int) -> Polynomial:
    """c_i(k) as a polynomial in the g variables."""
    if i == 0:
        return ONE
    if i < 0 or i > k:
        return ZERO
    key = (i, k)
    hit = _c_from_g_cache.get(key)
    if hit is not None:
        return hit
    total = c_from_g(i, k - 1)
    for j in range(0, min(i, k)):
        total = total + Polynomial.var(g(k - j, j)) * c_from_g(i - j - 1, k - j - 1)
    _c_from_g_cache[key] = total
    return total


def c_from_g_det(i: int, k: int) -> Polynomial:
    """Oracle: coefficient of T^{k-i} in det(A + IT).

    A is k x k with entry g_r[s-r] at (r, s) for r <= s, -1 at
    (r+1, r), zero elsewhere.  The determinant is expanded exactly with
    T carried as an extra formal variable via per-power bookkeeping.
    """
    if i == 0:
        return ONE
    if i < 0 or i > k:
        return ZERO
    entries: dict[tuple[int, int], dict[int, Polynomial]] = {}
    for r in range(1, k + 1):
        for s in range(1, k + 1):
            by_t: dict[int, Polynomial] = {}
            if r <= s:
                by_t[0] = Polynomial.var(g(r, s - r))
            elif r == s + 1:
                by_t[0] = Polynomial.const(-1)
            if r == s:
                by_t[1] = ONE
            if by_t:
                entries[(r, s)] = by_t

    def minor_det(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, Polynomial]:
        if not rows:
            return {0: ONE}
        r = rows[0]
        acc: dict[int, Polynomial] = {}
        for pos, s in enumerate(cols):
            cell = entries.get((r, s))
            if not cell:
                continue
            sub = minor_det(rows[1:], cols[:pos] + cols[pos + 1:])
            sign = -1 if pos % 2 else 1
            for t1, p1 in cell.items():
                for t2, p2 in sub.items():
                    term = p1 * p2 * sign
                    if term:
                        acc[t1 + t2] = acc.get(t1 + t2, ZERO) + term
        return {t: p for t, p in acc.items() if p}

    full = minor_det(tuple(range(1, k + 1)), tuple(range(1, k + 1)))
    return full.get(k - i, ZERO)


def c_from_g_paths(i: int, k: int) -> Polynomial:
    """Oracle: sum over disjoint interval families covering i of k vertices."""
    if i == 0:
        return ONE
    if i < 0 or i > k:
        return ZERO

    def walk(start: int, left: int) -> Polynomial:
        # sum over families using vertices >= start that cover `left` more
        if left == 0:
            return ONE
        total = ZERO
        for s in range(start, k - left + 2):
            for t in range(0, left):
                if s + t > k:
                    break
                tail = walk(s + t + 1, left - t - 1)
                if tail:
                    total = total + Polynomial.var(g(s, t)) * tail
        return total

    return walk(1, i)


def to_g_form(p: Polynomial) -> Polynomial:
    """Substitute c_i(j) -> c_from_g(i, j) and d_i(j) -> the h analogue."""
    mapping: dict[Variable, Polynomial] = {}
    for v in p.variables():
        if v.kind == "c":
            mapping[v] = c_from_g(v.i, v.j)
        elif v.kind == "d":
            mapping[v] = c_from_g(v.i, v.j).rename_kind("g", "h")
    return p.substitute(mapping) if mapping else p


# -- terminal substitutions ---------------------------------------------------

def classical_specialize(p: Polynomial) -> Polynomial:
    """c_i(j) -> e_i(x_1..x_j) and d_i(j) -> e_i(y_1..y_j)."""
    mapping: dict[Variable, Polynomial] = {}
    for v in p.variables():
        if v.kind == "c":
            mapping[v] = elementary_sym(v.i, v.j, kind="x")
        elif v.kind == "d":
            mapping[v] = elementary_sym(v.i, v.j, kind="y")
    return p.substitute(mapping) if mapping else p


def g_classical(p: Polynomial) -> Polynomial:
    """g_i[0] -> x_i, h_i[0] -> y_i, everything of bracket degree > 0 to zero."""
    mapping: dict[Variable, Polynomial] = {}
    for v in p.variables():
        if v.kind == "g":
            mapping[v] = Polynomial.var(x(v.i)) if v.j == 0 else ZERO
        elif v.kind == "h":
            mapping[v] = Polynomial.var(y(v.i)) if v.j == 0 else ZERO
    return p.substitute(mapping) if mapping else p


def zero_y(p: Polynomial) -> Polynomial:
    mapping = {v: ZERO for v in p.variables() if v.kind == "y"}
    return p.substitute(mapping) if mapping else p


def quantum_specialize(p: Polynomial) -> Polynomial:
    """g_i[0] -> x_i, g_i[1] -> q_i, g_i[j] -> 0 for j >= 2.

    A polynomial still in c variables is converted through the g-form
    first; d or h variables have no quantum reading here and raise.
    """
    if any(v.kind in ("d", "h") for v in p.variables()):
        raise ValueError("quantum specialization is defined for single polynomials only")
    p = to_g_form(p)
    mapping: dict[Variable, Polynomial] = {}
    for v in p.variables():
        if v.kind == "g":
            if v.j == 0:
                mapping[v] = Polynomial.var(x(v.i))
            elif v.j == 1:
                mapping[v] = Polynomial.var(q(v.i))
            else:
                mapping[v] = ZERO
    return p.substitute(mapping) if mapping else p


def partial_flag_substitution(profile: FlagProfile) -> dict[Variable, Polynomial]:
    """The surviving g variables for a profile and their images.

    Maps g_{n_{i-1}+1}[k_i + k_{i+1} - 1] -> (-1)^{k_{i+1}+1} q_i, with q_i
    of degree n_{i+1} - n_{i-1}; every other g_s[t], t >= 1 dies.
    """
    q_of: dict[Variable, Polynomial] = {}
    for i in range(1, profile.l):
        var = g(profile.n_(i - 1) + 1, profile.k_(i) + profile.k_(i + 1) - 1)
        sign = (-1) ** (profile.k_(i + 1) + 1)
        q_of[var] = Polynomial.var(q(i, degree=profile.q_degree(i))) * sign
    return q_of


def _apply_flag_map(p: Polynomial, profile: FlagProfile) -> Polynomial:
    q_of = partial_flag_substitution(profile)
    mapping: dict[Variable, Polynomial] = {}
    for v in p.variables():
        if v.kind != "g":
            continue
        if v.j == 0:
            mapping[v] = Polynomial.var(x(v.i))
        else:
            mapping[v] = q_of.get(v, ZERO)
    return p.substitute(mapping) if mapping else p


def round_down_ranks(p: Polynomial, profile: FlagProfile) -> Polynomial:
    """Send each c_i(j) to c_i(n_k) for the largest cut point n_k <= j."""
    mapping: dict[Variable, Polynomial] = {}
    for v in p.variables():
        if v.kind == "c":
            mapping[v] = cpoly(v.i, profile.block_of(v.j))
    return p.substitute(mapping) if mapping else p


def partial_flag_specialize(w: Permutation, profile: FlagProfile, route: str = "A") -> Polynomial:
    """The flag-profile quantum polynomial of w, by either route.

    Route A converts the single universal polynomial straight to the
    g-form and applies the profile substitution.  Route B first rounds
    every c_i(j) down to the profile's cut points, then does the same;
    the two must agree for members of the profile's subgroup.
    """
    if not profile.is_member(w):
        raise ValueError(f"{w} has descents outside the profile {profile.N}")
    n = max(profile.top - 1, 1)
    p = universal_single(w, n).to_polynomial("c")
    if route == "B":
        p = round_down_ranks(p, profile)
    elif route != "A":
        raise ValueError(f"unknown route {route!r}")
    return _apply_flag_map(to_g_form(p), profile)

