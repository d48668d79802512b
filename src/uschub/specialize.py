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

from .permutations import Permutation
from .polyring import (
    ONE,
    ZERO,
    Polynomial,
    Variable,
    clear_caches,  # noqa: F401  (bench/ empties the memos by this name)
    cpoly,
    elementary_sym,
    g,
    memo,
    q,
    sum_by_key,
    x,
    y,
)
from .schubert import universal_single


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

@memo
def c_from_g(i: int, k: int) -> Polynomial:
    """c_i(k) as a polynomial in the g variables.

    The recursion in k is unrolled down to c_i(i-1) = 0, so each recursive
    call has a smaller i and the depth stays at most i, however large k is.
    """
    if i == 0:
        return ONE
    if i < 0 or i > k:
        return ZERO
    return Polynomial.sum(
        Polynomial.var(g(m - j, j)) * c_from_g(i - j - 1, m - j - 1) for m in range(i, k + 1) for j in range(i)
    )


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
        terms = []
        for pos, s in enumerate(cols):
            cell = entries.get((r, s))
            if not cell:
                continue
            sub = minor_det(rows[1:], cols[:pos] + cols[pos + 1:])
            sign = -1 if pos % 2 else 1
            terms.extend((t1 + t2, p1 * p2 * sign) for t1, p1 in cell.items() for t2, p2 in sub.items())
        return sum_by_key(terms)

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
        return Polynomial.sum(
            Polynomial.var(g(s, t)) * walk(s + t + 1, left - t - 1)
            for s in range(start, k - left + 2)
            for t in range(0, min(left, k + 1 - s))
        )

    return walk(1, i)


def to_g_form(p: Polynomial) -> Polynomial:
    """Substitute c_i(j) -> c_from_g(i, j) and d_i(j) -> the h analogue."""
    def image(v: Variable) -> Polynomial | None:
        if v.kind == "c":
            return c_from_g(v.i, v.j)
        if v.kind == "d":
            return c_from_g(v.i, v.j).rename_kind("g", "h")
        return None

    return p.substitute(image)


# -- terminal substitutions ---------------------------------------------------

def classical_specialize(p: Polynomial) -> Polynomial:
    """c_i(j) -> e_i(x_1..x_j) and d_i(j) -> e_i(y_1..y_j)."""
    return p.substitute(
        lambda v: elementary_sym(v.i, v.j, kind="x" if v.kind == "c" else "y") if v.kind in "cd" else None
    )


def g_classical(p: Polynomial) -> Polynomial:
    """g_i[0] -> x_i, h_i[0] -> y_i, everything of bracket degree > 0 to zero."""
    def image(v: Variable) -> Polynomial | None:
        if v.kind not in "gh":
            return None
        return Polynomial.var((x if v.kind == "g" else y)(v.i)) if v.j == 0 else ZERO

    return p.substitute(image)


def zero_y(p: Polynomial) -> Polynomial:
    return p.substitute(lambda v: ZERO if v.kind == "y" else None)


def quantum_specialize(p: Polynomial) -> Polynomial:
    """g_i[0] -> x_i, g_i[1] -> q_i, g_i[j] -> 0 for j >= 2.

    A polynomial still in c variables is converted through the g-form
    first; d or h variables have no quantum reading here and raise.
    """
    if any(v.kind in ("d", "h") for v in p.variables()):
        raise ValueError("quantum specialization is defined for single polynomials only")

    def image(v: Variable) -> Polynomial | None:
        if v.kind != "g":
            return None
        if v.j == 0:
            return Polynomial.var(x(v.i))
        return Polynomial.var(q(v.i)) if v.j == 1 else ZERO

    return to_g_form(p).substitute(image)


def _apply_flag_map(p: Polynomial, profile: FlagProfile) -> Polynomial:
    """g_i[0] -> x_i and the profile's surviving g variables to signed q's.

    Maps g_{n_{i-1}+1}[k_i + k_{i+1} - 1] -> (-1)^{k_{i+1}+1} q_i, with q_i
    of degree n_{i+1} - n_{i-1}; every other g_s[t], t >= 1 dies.
    """
    q_at = {(profile.n_(i - 1) + 1, profile.k_(i) + profile.k_(i + 1) - 1): i for i in range(1, profile.l)}

    def image(v: Variable) -> Polynomial | None:
        if v.kind != "g":
            return None
        if v.j == 0:
            return Polynomial.var(x(v.i))
        i = q_at.get((v.i, v.j))
        if i is None:
            return ZERO
        return Polynomial.var(q(i, degree=profile.q_degree(i))) * (-1) ** (profile.k_(i + 1) + 1)

    return p.substitute(image)


def round_down_ranks(p: Polynomial, profile: FlagProfile) -> Polynomial:
    """Send each c_i(j) to c_i(n_k) for the largest cut point n_k <= j."""
    return p.substitute(lambda v: cpoly(v.i, profile.block_of(v.j)) if v.kind == "c" else None)


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

