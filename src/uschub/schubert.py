"""Schubert polynomials: classical, and the universal forms in Chern classes.

Three flavours are constructed here, all exact:

  * classical_single(w)       in Z[x_1, x_2, ...]
  * universal_single(w, n)    an integer combination of bounded codes
                              (i_1, ..., i_n), i_k <= k, standing for the
                              products c_{i_1}(1) ... c_{i_n}(n)
  * universal_cy(w, n) /      mixed forms with a second alphabet, in
    universal_double(w, n)    Z[c; y] and Z[c; d] respectively

The universal single form is built by the code-level ladder operator
(MElement.partial): the longest element of S_{n+1} has the single code
(1, 2, ..., n), and each step down to w applies the operator at an
ascent.  Everything stays in integer code combinations.  The classical
polynomials come from the divided-difference ladder that starts at the
dominant staircase monomial; classical_single is the oracle the
universal form must specialize to.  The tests hold further oracles in
tests/oracles.py: the double Schubert polynomial classical_double, the
substitution d_to_y, and e_expand, the basis change from classical_single
to code combinations.

Codes are converted to and from permutations via the count
code_tail(w)_k = #{j <= k : w(j) > w(k+1)}, which is also the key to
expanding an arbitrary code combination in the Schubert basis: the code
of w is the lexicographically largest code in the expansion of w's
polynomial and carries coefficient 1, so leading-term peeling
terminates.
"""

from __future__ import annotations

from collections.abc import Callable
from math import prod

from .permutations import Permutation
from .polyring import (
    ONE,
    Polynomial,
    clear_caches,  # noqa: F401  (bench/ empties the memos by this name)
    cpoly,
    divide_by_difference,
    dpoly,
    memo,
    signed_sum,
    x,
    y,
)


# -- divided differences ---------------------------------------------------

def divided_difference(p: Polynomial, k: int, kind: str = "x") -> Polynomial:
    """(p - s_k p) / (v_k - v_{k+1}) in the chosen degree-1 family."""
    mk = x if kind == "x" else y
    a, b = mk(k), mk(k + 1)
    swapped = p.substitute(lambda v: Polynomial.var(b if v == a else a) if v in (a, b) else None)
    return divide_by_difference(p - swapped, a, b)


# -- classical polynomials -------------------------------------------------

@memo
def classical_single(w: Permutation) -> Polynomial:
    """Schubert polynomial of w in the x variables."""
    if w.is_identity():
        return ONE
    m = w.size
    if w == Permutation.longest(m):
        result = ONE
        for i in range(1, m):
            result = result * (Polynomial.var(x(i)) ** (m - i))
        return result
    k = next(k for k in range(1, m) if w(k) < w(k + 1))
    return divided_difference(classical_single(w * Permutation.s(k)), k)


# -- code combinations -------------------------------------------------------

class MElement:
    """Integer combination of bounded codes of a fixed length n.

    A code (i_1, ..., i_n) with 0 <= i_k <= k stands for the product
    c_{i_1}(1) c_{i_2}(2) ... c_{i_n}(n), with c_0(k) read as 1.  The
    class holds no arithmetic; sums and products belong to the polynomial
    side.
    """

    __slots__ = ("codes", "n")

    def __init__(self, codes: dict[tuple[int, ...], int], n: int):
        clean: dict[tuple[int, ...], int] = {}
        for code, coeff in codes.items():
            if len(code) != n:
                raise ValueError(f"code {code} does not have length {n}")
            for k, ik in enumerate(code, start=1):
                if not 0 <= ik <= k:
                    raise ValueError(f"code {code} breaks the bound i_{k} <= {k}")
            if coeff:
                clean[code] = coeff
        self.codes = clean
        self.n = n

    def pad(self, n: int) -> "MElement":
        if n < self.n:
            raise ValueError("cannot shrink a code combination")
        ext = (0,) * (n - self.n)
        return MElement({code + ext: v for code, v in self.codes.items()}, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MElement)
            and self.n == other.n
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.codes.items())))

    def __bool__(self) -> bool:
        return bool(self.codes)

    def partial(self, k: int) -> "MElement":
        """The ladder operator indexed k, acting on code entries k-1 and k.

        With (a, b) the entries at positions k-1 and k (a = 0 when
        k = 1), the image of [a, b] is

            sum_{i>=0} [a+i, b-1-i] - sum_{i>=1} [b-1-i, a+i]   if a >= b-1,
            sum_{i>=0} [b-1+i, a-i] - sum_{i>=1} [a-i, b-1+i]   if a <= b-2,

        where a pair leaves the grid (entry at k-1 outside 0..k-1 or at
        k outside 0..k) it is dropped.
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"operator index {k} outside 1..{self.n}")
        out: dict[tuple[int, ...], int] = {}
        for code, coeff in self.codes.items():
            a = code[k - 2] if k >= 2 else 0
            b = code[k - 1]
            pairs: list[tuple[int, int, int]] = []
            if a >= b - 1:
                for i in range(0, b):
                    pairs.append((a + i, b - 1 - i, 1))
                for i in range(1, b):
                    pairs.append((b - 1 - i, a + i, -1))
            else:
                for i in range(0, a + 1):
                    pairs.append((b - 1 + i, a - i, 1))
                for i in range(1, a + 1):
                    pairs.append((a - i, b - 1 + i, -1))
            for p_, q_, s_ in pairs:
                if p_ < 0 or q_ < 0 or p_ > k - 1 or q_ > k:
                    continue
                if k >= 2:
                    nc = code[: k - 2] + (p_, q_) + code[k:]
                else:
                    if p_ != 0:
                        continue
                    nc = (q_,) + code[1:]
                out[nc] = out.get(nc, 0) + s_ * coeff
        return MElement(out, self.n)

    def to_polynomial(self, kind: str = "c") -> Polynomial:
        make = cpoly if kind == "c" else dpoly
        return Polynomial.sum(
            prod((make(i, alpha) for alpha, i in enumerate(code, start=1) if i), start=Polynomial.const(coeff))
            for code, coeff in self.codes.items()
        )

    @classmethod
    def from_polynomial(cls, p: Polynomial, n: int, kind: str = "c") -> "MElement":
        codes: dict[tuple[int, ...], int] = {}
        for mono, coeff in p.terms().items():
            code = [0] * n
            for v, e in mono:
                if v.kind != kind or e != 1:
                    raise ValueError(f"monomial {mono} is not a plain code product")
                if v.j > n or code[v.j - 1]:
                    raise ValueError(f"monomial {mono} is not a plain code product")
                code[v.j - 1] = v.i
            key = tuple(code)
            codes[key] = codes.get(key, 0) + coeff
        return cls(codes, n)

    def text(self) -> str:
        return signed_sum([
            ("[" + ",".join(map(str, code)) + "]", self.codes[code])
            for code in sorted(self.codes, reverse=True)
        ], "*")

    def __repr__(self) -> str:
        return self.text()


# -- universal single form ---------------------------------------------------

@memo
def universal_single(w: Permutation, n: int | None = None) -> MElement:
    """The code combination of w, built by the ladder operator from the top code.

    The longest element of S_{n+1} has the single code (1, 2, ..., n); each
    step down applies ``partial(k)`` at an ascent k of w.
    """
    if n is None:
        n = max(w.size - 1, 1)
    if w.size > n + 1:
        raise ValueError(f"{w} does not fit in S_{n + 1}")
    if w == Permutation.longest(n + 1):
        return MElement({tuple(range(1, n + 1)): 1}, n)
    k = next(k for k in range(1, n + 1) if w(k) < w(k + 1))
    return universal_single(w * Permutation.s(k), n).partial(k)


# bench/workloads.py still calls the ladder by this name; keep the alias
# while it does.
universal_single_inductive = universal_single


# -- universal double forms ---------------------------------------------------

@memo
def universal_cy(w: Permutation, n: int | None = None) -> Polynomial:
    """The mixed form in c and y, from the dominant product by y-ladders.

    The top element of S_{n+1} gets
    prod_{i=1}^{n} sum_{j=0}^{i} c_{i-j}(i) (-y_{n+1-i})^j, and each
    step down multiplies by -1 and applies the y divided difference at
    a position k whose value k sits left of k+1.
    """
    if n is None:
        n = max(w.size - 1, 1)
    if w.size > n + 1:
        raise ValueError(f"{w} does not fit in S_{n + 1}")
    if w == Permutation.longest(n + 1):
        result = ONE
        for i in range(1, n + 1):
            yv = Polynomial.var(y(n + 1 - i))
            result = result * Polynomial.sum(cpoly(i - j, i) * ((-1) ** j) * (yv ** j) for j in range(0, i + 1))
        return result
    inv = w.inverse()
    k = next(k for k in range(1, n + 1) if inv(k) < inv(k + 1))
    return -divided_difference(universal_cy(Permutation.s(k) * w, n), k, kind="y")


@memo
def universal_double(w: Permutation, n: int | None = None) -> Polynomial:
    """The mixed form in c and d: sum of (-1)^{l(v)} S_u(c) S_v(d) over
    factorizations u(i) = v(w(i)) with l(u) = l(w) - l(v)."""
    if n is None:
        n = max(w.size - 1, 1)
    if w.size > n + 1:
        raise ValueError(f"{w} does not fit in S_{n + 1}")
    lw = w.length()
    from .permutations import all_perms

    parts = []
    for v in all_perms(n + 1):
        lv = v.length()
        if lv > lw:
            continue
        u = v * w
        if u.length() != lw - lv:
            continue
        term = (
            universal_single(u, n).to_polynomial("c")
            * universal_single(v, n).to_polynomial("d")
        )
        parts.append((-1) ** lv * term)
    return Polynomial.sum(parts)


# -- Schubert-basis expansion -------------------------------------------------

def peel(
    coeffs: dict,
    lead: Callable[[tuple], tuple[Permutation, dict]],
    key: Callable[[tuple], tuple],
) -> dict[Permutation, int]:
    """Expand an integer combination in a unitriangular basis.

    ``lead(t)`` names the basis element led by the term t, as w and its
    coefficients: t carries 1 there and every other term is smaller under
    ``key``.  Peeling the largest term each time strictly lowers the lead,
    so the walk ends.
    """
    rest = dict(coeffs)
    out: dict[Permutation, int] = {}
    while rest:
        top = max(rest, key=key)
        coeff = rest.pop(top)
        w, element = lead(top)
        out[w] = coeff
        assert element.get(top) == 1, "leading term is not unital"
        for term, cf in element.items():
            if term == top:
                continue
            assert key(term) < key(top), "expansion produced a larger term"
            v = rest.get(term, 0) - coeff * cf
            if v:
                rest[term] = v
            else:
                rest.pop(term, None)
    return out


def schubert_expand_M(el: MElement) -> dict[Permutation, int]:
    """Expand a code combination in the basis of single universal forms.

    The lexicographically largest code of w's combination is its own code
    tail, with coefficient 1.
    """
    def lead(code: tuple[int, ...]) -> tuple[Permutation, dict]:
        w = Permutation.from_code_tail(code)
        return w, universal_single(w, el.n).codes

    return peel(el.codes, lead, key=tuple)


def schubert_expand_polynomial(p: Polynomial, n: int, kind: str = "c") -> dict[Permutation, int]:
    """Expand a polynomial in plain code products into the Schubert basis."""
    return schubert_expand_M(MElement.from_polynomial(p, n, kind))
