"""Schubert polynomials: classical, and the universal forms in Chern classes.

Three flavours are constructed here, all exact:

  * classical_single(w)       in Z[x_1, x_2, ...]
  * universal_single(w, n)    an integer combination of bounded codes
                              (i_1, ..., i_n), i_k <= k, standing for the
                              products c_{i_1}(1) ... c_{i_n}(n)
  * universal_cy(w, n) /      mixed forms with a second alphabet, in
    universal_double(w, n)    Z[c; y] and Z[c; d] respectively

classical_single, universal_single and universal_cy are one loop (_ladder)
up a word's first ascents to the longest word and back down from its top
form, each level built once into a table per ladder and size.  The single
form steps by the code operator MElement.partial from the top code of w's
own S_m, (1, ..., m-1) padded to length n, so everything stays in integer
code combinations; the classical polynomial, the oracle it must specialize
to, by x divided differences from the staircase monomial of S_m, and
universal_cy by y divided differences from the dominant product, up the
word of w^{-1}.  The tests hold further oracles in tests/oracles.py: the
double Schubert polynomial classical_double, the substitution d_to_y, and
e_expand, the basis change from classical_single to code combinations.

Codes are converted to and from permutations via the count
code_tail(w)_k = #{j <= k : w(j) > w(k+1)}, which is also the key to
expanding an arbitrary code combination in the Schubert basis: the code
of w is the lexicographically largest code in the expansion of w's
polynomial and carries coefficient 1.  ``peel`` expands in any such
unitriangular basis, popping the least term under a key from a heap;
here the key puts the largest code first, and uschub.uring (Schubert
elements) and uschub.formulas (square elimination) peel with it too.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from heapq import heapify, heappop, heappush
from math import factorial, prod

from .permutations import Permutation, check_code
from .polyring import (
    ONE,
    Monomial,
    Polynomial,
    Variable,
    _degree_one_family,
    clear_caches,  # noqa: F401  (bench/ empties the memos by this name)
    cpoly,
    memo,
    signed_sum,
    x,
    y,
)


# -- divided differences ---------------------------------------------------

def divided_difference(p: Polynomial, k: int, kind: str = "x") -> Polynomial:
    """(p - s_k p) / (a - b) with a, b = v_k, v_{k+1} in the chosen degree-1 family.

    Term by term from the closed form, for i > j,
    (a^i b^j - a^j b^i) / (a - b) = sum_{t < i-j} a^{i-1-t} b^{j+t}.
    """
    mk = _degree_one_family(kind, "divided_difference")
    a, b = mk(k), mk(k + 1)
    acc: dict[Monomial, int] = {}
    for m, co in p.terms().items():
        # a and b are adjacent in package order: the monomial is its smaller variables, a^i b^j, its larger ones
        start = end = bisect_left(m, a.key, key=lambda pair: pair[0].key)
        i = j = 0
        if end < len(m) and m[end][0] is a:
            i, end = m[end][1], end + 1
        if end < len(m) and m[end][0] is b:
            j, end = m[end][1], end + 1
        if i == j:
            continue
        if i < j:
            i, j, co = j, i, -co
        before, after = m[:start], m[end:]
        for t in range(i - j):
            ea, eb = i - 1 - t, j + t
            mono = before + (((a, ea),) if ea else ()) + (((b, eb),) if eb else ()) + after
            acc[mono] = acc.get(mono, 0) + co
    return Polynomial(acc)


# -- the ladder, and the classical polynomials ---------------------------------

@memo
def _levels(size: int, ladder: str) -> dict:
    """The levels one ladder has built at one size, keyed by their words; clear_caches empties them."""
    return {}


def _ladder(word: tuple[int, ...], levels: dict, top: Callable[[], object], step: Callable[[object, int], object]):
    """The level of ``word`` in the table ``levels``: climb by swapping first ascents k, up to a built level or the
    longest word of ``word``'s length, then swap back down, applying ``step(form, k)`` per k from that level or
    ``top()``.  The new levels enter the table together after the last, so a climb that raises leaves none behind."""
    built, ks, word, k = {}, [], list(word), 1
    # an empty table holds no level to meet, so the climb keys no word until the top
    while not levels or (key := tuple(word)) not in levels:
        # positions 1..k fall after the swap at k, so the next first ascent is k - 1 or past k
        k = next((j for j in range(max(k - 1, 1), len(word)) if word[j - 1] < word[j]), 0)
        if not k:  # the longest word
            built[key := tuple(word)] = top()
            break
        if len(ks) == LADDER_BUDGET:  # before the levels are built: each holds one word and at least one term
            raise ArithmeticError(f"the ladder needs more than {LADDER_BUDGET:,} levels")
        ks.append(k)
        word[k - 1], word[k] = word[k], word[k - 1]
    form = built[key] if built else levels[key]
    for k in reversed(ks):
        word[k - 1], word[k] = word[k], word[k - 1]
        form = built[tuple(word)] = step(form, k)
    levels.update(built)
    return form


@memo
def classical_single(w: Permutation) -> Polynomial:
    """Schubert polynomial of w in the x variables: x divided differences down from x_1^(m-1) ... x_(m-1) in S_m."""
    m = w.size
    return _ladder(w.word, _levels(m, "classical"), lambda: Polynomial({tuple((x(i), m - i) for i in range(1, m)): 1}),
                   divided_difference)


# -- code combinations -------------------------------------------------------

# The most codes one ladder level may hold (s_{m-1} in S_m peaks at 2^(m-2)), levels one climb may
# build ((m-1)(m-2)/2 for the cycle 2, 3, ..., m, 1 in S_m) and terms universal_cy's top form may hold ((n+1)! at n).
LADDER_BUDGET = 1 << 17


# Codes repeat: the 720 doubles of S_6 convert 1,440 codes 763 k times, a cold bench query round ~400 codes 9-10 k.
@memo(maxsize=1 << 12)
def _code_monomial(code: tuple[int, ...], kind: str) -> Monomial:
    """The sorted monomial kind_{i_1}(1) ... kind_{i_n}(n), reading a zero entry as 1."""
    pairs = sorted((i, point) for point, i in enumerate(code, start=1) if i)
    return tuple((Variable(kind, i, point, i), 1) for i, point in pairs)


class MElement:
    """Integer combination of bounded codes of a fixed length n.

    A code (i_1, ..., i_n) with 0 <= i_k <= k stands for the product
    c_{i_1}(1) c_{i_2}(2) ... c_{i_n}(n), with c_0(k) read as 1.  The
    class holds no arithmetic; sums and products belong to the polynomial
    side.  An element is immutable, as the memoized ladder shares its
    levels, and each builds its polynomial once per family.
    """

    __slots__ = ("codes", "n", "_polys")

    def __init__(self, codes: dict[tuple[int, ...], int], n: int):
        for code in codes:
            if len(check_code(code)) != n:
                raise ValueError(f"code {code} does not have length {n}")
        object.__setattr__(self, "codes", {code: coeff for code, coeff in codes.items() if coeff})
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_polys", {})

    def __setattr__(self, name, *value):
        raise AttributeError(f"MElement is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return MElement, (self.codes, self.n)

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

        With (a, b) the entries at positions k-1 and k (a = 0 when k = 1)
        and lo <= hi the numbers a and b-1 in order, the image of [a, b] is

            sum_{i=0}^{lo} [hi+i, lo-i] - sum_{i=1}^{lo} [lo-i, hi+i],

        where a pair that leaves the grid (entry at k-1 above k-1 or at k
        above k) is dropped.
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"operator index {k} outside 1..{self.n}")
        out: dict[tuple[int, ...], int] = {}
        for code, coeff in self.codes.items():
            a, b = (code[k - 2] if k > 1 else 0), code[k - 1]
            lo, hi = (a, b - 1) if a < b - 1 else (b - 1, a)
            for i in range(lo + 1):
                for p_, q_, s_ in ((hi + i, lo - i, 1), (lo - i, hi + i, -1)) if i else ((hi, lo, 1),):
                    if p_ <= k - 1 and q_ <= k:
                        # at k = 1 the entry at k-1 is a fixed 0 outside the code
                        nc = code[: k - 2] + (p_, q_) + code[k:] if k > 1 else (q_,) + code[1:]
                        out[nc] = out.get(nc, 0) + s_ * coeff
            if len(out) > LADDER_BUDGET:
                raise ArithmeticError(f"the ladder needs more than {LADDER_BUDGET:,} codes at one level")
        return MElement(out, self.n)

    def to_polynomial(self, kind: str = "c") -> Polynomial:
        """The combination in the c or d family: one shared polynomial per family, built on first use."""
        if kind not in ("c", "d"):
            raise ValueError(f"a code combination reads in the c or d family, not {kind!r}")
        poly = self._polys.get(kind)
        if poly is None:
            poly = self._polys[kind] = Polynomial({
                _code_monomial(code, kind): coeff for code, coeff in self.codes.items()
            })
        return poly

    @classmethod
    def from_polynomial(cls, p: Polynomial, n: int) -> "MElement":
        codes: dict[tuple[int, ...], int] = {}
        for mono, coeff in p.terms().items():
            code = [0] * n
            for v, e in mono:
                if v.kind != "c" or e != 1 or v.j > n or code[v.j - 1]:
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
def universal_single(w: Permutation, n: int) -> MElement:
    """The code combination of w, the same in every S_{n+1} that holds w: its unique expansion in the codes.

    The climb stays in S_m, m = max(w.size, 1), as w(m) only falls, from the longest word's code (1, ..., m-1,
    0, ..., 0) of length n; each step down applies ``partial(k)`` at the first ascent k of w.
    """
    w.as_tuple(n + 1)  # raises unless w fits in S_{n+1}
    m = max(w.size, 1)
    return _ladder(w.as_tuple(m), _levels(n, "single"), lambda: MElement({(*range(1, m), *(0,) * (n + 1 - m)): 1}, n),
                   MElement.partial)


# bench/workloads.py still calls the ladder by this name; keep the alias
# while it does.
universal_single_inductive = universal_single


# -- universal double forms ---------------------------------------------------

@memo
def universal_cy(w: Permutation, n: int) -> Polynomial:
    """The mixed form in c and y, from the dominant product by y-ladders.

    The top element of S_{n+1} gets
    prod_{i=1}^{n} sum_{j=0}^{i} c_{i-j}(i) (-y_{n+1-i})^j, and each
    step down multiplies by -1 and applies the y divided difference at
    a position k whose value k sits left of k+1: a first ascent of w^{-1}.
    """
    w.as_tuple(n + 1)  # raises unless w fits in S_{n+1}
    if (terms := factorial(n + 1)) > LADDER_BUDGET:  # one factor of i + 1 terms per i, in distinct variables
        raise ArithmeticError(f"the dominant product at n = {n} has {terms:,} terms, more than {LADDER_BUDGET:,}")
    return _ladder(w.inverse().as_tuple(n + 1), _levels(n + 1, "cy"), lambda: prod((
        Polynomial.sum(cpoly(i - j, i) * (-1) ** j * Polynomial.var(y(n + 1 - i)) ** j for j in range(i + 1))
        for i in range(1, n + 1)
    ), start=ONE), lambda p, k: -divided_difference(p, k, kind="y"))


@memo
def universal_double(w: Permutation, n: int) -> Polynomial:
    """The mixed form in c and d: sum of (-1)^{l(v)} S_u(c) S_v(d) over
    factorizations u(i) = v(w(i)) with l(u) = l(w) - l(v).

    The factorizations are walked level by level from (v, u) = (e, w); a
    step takes both to s_k v and s_k u for each descent k of u^{-1} that is
    not one of v^{-1}, so l(u) drops by one as l(v) grows by one.  Those
    descents are read off the words: the values k standing right of k+1.
    """
    acc: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    level, sign = {(Permutation.identity(), w)}, 1
    while level:
        for v, u in level:
            # u before v: on the first level u = w and v = e, so a w that does not fit is refused before e's level
            ccodes, dcodes = universal_single(u, n).codes.items(), universal_single(v, n).codes.items()
            for ccode, cc in ccodes:
                for dcode, dc in dcodes:
                    acc[ccode, dcode] = acc.get((ccode, dcode), 0) + sign * cc * dc
        level = {
            (Permutation.s(k) * v, Permutation.s(k) * u)
            for v, u in level
            for k in u.left_descents() - v.left_descents()
        }
        sign = -sign
    # c sorts before d, so a c-monomial followed by a d-monomial is sorted
    return Polynomial({
        _code_monomial(ccode, "c") + _code_monomial(dcode, "d"): coeff for (ccode, dcode), coeff in acc.items()
    })


# -- Schubert-basis expansion -------------------------------------------------

def peel(coeffs: dict, lead: Callable[[tuple], tuple[object, dict]], key: Callable[[tuple], tuple]) -> dict:
    """Expand a combination in a unitriangular basis, coefficients in any commutative ring (ints, Z[g+]).

    ``lead(t)`` names the basis element led by the term t, as a hashable
    label and its coefficients: t carries 1 there and every other term
    sorts after it under ``key``.  The least term is peeled from a heap,
    and a peel only adds later terms, so each term is led once: codes,
    R_n staircases (uschub.uring) and product-rule relations (uschub.formulas).
    """
    rest = dict(coeffs)
    heap = [(key(t), t) for t in rest]
    heapify(heap)
    out: dict = {}
    while heap:
        order, top = heappop(heap)
        coeff = rest.pop(top)
        if not coeff:
            continue
        label, element = lead(top)
        out[label] = coeff
        assert element.get(top) == 1, "leading term is not unital"
        for term, cf in element.items():
            if term == top:
                continue
            if term not in rest:  # a pending term is on the heap, so it sorts after top
                later = key(term)
                assert later > order, "expansion produced an earlier term"
                rest[term] = 0
                heappush(heap, (later, term))
            rest[term] -= coeff * cf
    return out


def schubert_expand_M(el: MElement) -> dict[Permutation, int]:
    """Expand a code combination in the basis of single universal forms.

    The lexicographically largest code of w's combination is its own code
    tail, with coefficient 1, so the peel takes the largest code first.
    """
    def lead(code: tuple[int, ...]) -> tuple[Permutation, dict]:
        w = Permutation.from_code_tail(code)
        return w, universal_single(w, el.n).codes

    return peel(el.codes, lead, key=lambda code: tuple(-i for i in code))
