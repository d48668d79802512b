"""The universal ring R_n and exact computation inside it.

R_n is Z[g][x_1, ..., x_{n+1}] modulo the ideal generated by the top
Chern ladder c_1(n+1), ..., c_{n+1}(n+1), where each c_i(n+1) is the
g-variable polynomial with g_k[0] read as x_k.  Over the coefficient
ring Z[g+] (the g_i[j] with j >= 1, i + j <= n+1) the quotient is free
with the staircase monomials x^a, a_i <= n+1-i, as a basis, and the
Schubert elements indexed by S_{n+1} form a second basis.

Normal forms come from a monic triangular rewrite, the universal
analogue of the standard Groebner basis h_{n+2-k}(x_1..x_k) of the
coinvariant ideal.  The first relation is linear and eliminates x_{n+1}
up front.  Write c_i(n+1) = e_i(x_1..x_{n+1}) + T_i, with T_i the part
that involves g+, and U(t) = 1 - sum_i T_i t^i.  Since the generating
series of the c_i(n+1) is zero modulo the ideal, for k = 1..n and
m = n+2-k

    h_m(x_1..x_k) = (-1)^m sum_{j=0}^{n+1-k} e_j(x_{k+1}..x_{n+1}) [t^{m-j}] U(t)^{-1}

in R_n.  This rule rewrites x_k^m: the other monomials of h_m are
lex-smaller with higher indices ranking higher, and every term on the
right has lower x-degree, since each T_i carries a g+ factor.  So
repeated rewriting of any exponent a_k >= n+2-k terminates on the
staircase; the result is memoized per exponent tuple.

The inner product of two elements is the coefficient of the top
staircase monomial x_1^n ... x_n in the normal form of their product.
It is read without building the product: ``top(exps)``, the top
coefficient of the normal form of x^exps, is memoized, and <a, b> is the
sum of a_alpha b_beta top(alpha + beta).  A rewrite step never raises
x-degree, so top vanishes below x-degree n(n+1)/2, and those pairs are
skipped.  An equivalent route reads the coefficient of the longest
permutation in the Schubert-basis expansion of the product, and the
routes are compared in tests.
"""

from __future__ import annotations

from math import comb

from .permutations import Permutation, all_perms
from .polyring import (
    ONE,
    Monomial,
    Polynomial,
    Variable,
    ZERO,
    clear_caches,  # noqa: F401  (bench/ empties the memos by this name)
    complete_sym,
    elementary_sym,
    g,
    memo,
    sum_by_key,
    x,
)
from .schubert import classical_single, peel, universal_double, universal_single
from .specialize import c_from_g


@memo
def universal_ring(n: int) -> "UniversalRing":
    return UniversalRing(n)


def _x_monomial(exps: tuple[int, ...]) -> Polynomial:
    p = ONE
    for i, e in enumerate(exps, start=1):
        if e:
            p = p * Polynomial.var(x(i)) ** e
    return p


class RingElement:
    """A reduced element of R_n: staircase x-monomials with g+ coefficients.

    Keys of ``coeffs`` are exponent tuples of length n+1 whose last entry
    is always 0 (the eliminated variable) and whose i-th entry is at most
    n+1-i.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[tuple[int, ...], Polynomial]):
        self.n = n
        clean = {}
        for exps, poly in coeffs.items():
            if len(exps) != n + 1 or exps[-1] != 0:
                raise ValueError("exponent tuple must have length n+1 and end in 0")
            if any(exps[i] > n + 1 - (i + 1) for i in range(n + 1)):
                raise ValueError("exponents exceed the staircase bound")
            if poly:
                clean[exps] = poly
        self.coeffs = clean

    @classmethod
    def zero(cls, n: int) -> "RingElement":
        return cls(n, {})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.n != other.n:
            raise ValueError("mixed ambient n")
        return RingElement(self.n, sum_by_key([*self.coeffs.items(), *other.coeffs.items()]))

    def scale(self, poly: Polynomial | int) -> "RingElement":
        if isinstance(poly, int):
            poly = Polynomial.const(poly)
        return RingElement(self.n, {e: poly * p for e, p in self.coeffs.items()})

    def coefficient(self, exps: tuple[int, ...]) -> Polynomial:
        return self.coeffs.get(exps, ZERO)

    def to_polynomial(self) -> Polynomial:
        return Polynomial.sum(poly * _x_monomial(exps[:-1]) for exps, poly in self.coeffs.items())

    def text(self) -> str:
        return self.to_polynomial().text()

    def __repr__(self) -> str:
        return f"RingElement(n={self.n}, {self.text()})"


def _top_staircase(n: int) -> tuple[int, ...]:
    return tuple(n + 1 - i for i in range(1, n + 1)) + (0,)


def _rewrite_order(exps: tuple[int, ...]) -> tuple:
    """x-degree first, then lex with higher indices ranking higher."""
    return (sum(exps), exps[::-1])


class UniversalRing:
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        self.w0 = Permutation.longest(n + 1)
        # x_{n+1} -> -(x_1 + ... + x_n): the linear generator, g-free.
        self._drop = -elementary_sym(1, n)
        # Coefficients of U(t)^{-1}, from inv[r] = sum_i T_i inv[r-i]; T_1 = 0.
        tails = {i: self._to_xg(c_from_g(i, n + 1) - elementary_sym(i, n + 1)) for i in range(2, n + 2)}
        inv = [ONE]
        for r in range(1, n + 2):
            inv.append(Polynomial.sum(tails[i] * inv[r - i] for i in range(2, min(r, n + 1) + 1)))
        # rules[k]: the relation x_k^m + (smaller terms) = 0, m = n+2-k, by x-exponent.
        self._rules: dict[int, dict[tuple[int, ...], Polynomial]] = {}
        for k in range(1, n + 1):
            m = n + 2 - k
            right = Polynomial.sum(elementary_sym(j, n + 1 - k, offset=k) * inv[m - j] for j in range(m))
            relation = complete_sym(m, k, kind="x") - self._to_xg(right) * (-1) ** m
            self._rules[k] = self._by_x_exponent(relation)
        self._nf: dict[tuple[int, ...], RingElement] = {}
        self._top_degree = n * (n + 1) // 2
        self._top_exps = _top_staircase(n)[:-1]
        self._tops: dict[tuple[int, ...], Polynomial] = {}

    # -- presentation -------------------------------------------------------

    def _to_xg(self, p: Polynomial) -> Polynomial:
        """g_k[0] -> x_k, with x_{n+1} eliminated."""
        def image(v: Variable) -> Polynomial | None:
            if v.i == self.n + 1 and (v.kind == "x" or v.kind == "g" and v.j == 0):
                return self._drop
            return Polynomial.var(x(v.i)) if v.kind == "g" and v.j == 0 else None

        return p.substitute(image)

    def _by_x_exponent(self, p: Polynomial) -> dict[tuple[int, ...], Polynomial]:
        """Split a polynomial in x_1..x_n with g+ coefficients by x-exponent tuple."""
        out: dict[tuple[int, ...], dict] = {}
        for mono, coeff in p.terms().items():
            exps = [0] * self.n
            gmono = []
            for v, e in mono:
                if v.kind == "x" and v.i <= self.n:
                    exps[v.i - 1] = e
                elif v.kind == "g" and v.j >= 1:
                    if v.i + v.j > self.n + 1:
                        raise ValueError(f"{v.text()} is outside Z[g+] for n = {self.n}")
                    gmono.append((v, e))
                else:
                    raise ValueError(f"unexpected variable {v.text()} in reduction")
            out.setdefault(tuple(exps), {})[tuple(gmono)] = coeff
        return {exps: Polynomial(terms) for exps, terms in out.items()}

    def _lead(self, k: int) -> tuple[int, ...]:
        """Exponent tuple of x_k^{n+2-k}, the leading term of rule k."""
        return (0,) * (k - 1) + (self.n + 2 - k,) + (0,) * (self.n - k)

    def rules_are_triangular(self) -> bool:
        """Each rule is monic in x_k^{n+2-k} and every other term is smaller."""
        for k, rule in self._rules.items():
            lead = self._lead(k)
            if rule.get(lead) != ONE:
                return False
            if any(_rewrite_order(exps) >= _rewrite_order(lead) for exps in rule if exps != lead):
                return False
        return True

    # -- normal form ----------------------------------------------------------

    def _rewrite(self, exps: tuple[int, ...]) -> list[tuple[tuple[int, ...], Polynomial]] | None:
        """One rewrite step: x^exps = sum of coeff * x^key, or None on the staircase."""
        k = next((k for k in range(self.n, 0, -1) if exps[k - 1] > self.n + 1 - k), None)
        if k is None:
            return None
        # x^exps = x^base * x_k^m, and x_k^m = -(the rest of rule k)
        lead = self._lead(k)
        base = tuple(a - b for a, b in zip(exps, lead))
        return [
            (tuple(a + b for a, b in zip(base, shift)), -coeff)
            for shift, coeff in self._rules[k].items()
            if shift != lead
        ]

    def _nf_monomial(self, exps: tuple[int, ...]) -> RingElement:
        # An explicit stack, not recursion: x_1^a at n = 1 takes a/2 steps.
        pending = [exps]
        while pending:
            top = pending[-1]
            if top in self._nf:
                pending.pop()
                continue
            step = self._rewrite(top)
            if step is None:
                self._nf[top] = RingElement(self.n, {top + (0,): ONE})
                continue
            missing = [key for key, _ in step if key not in self._nf]
            if missing:
                pending.extend(missing)
                continue
            self._nf[top] = RingElement(self.n, sum_by_key(
                (stair, coeff * poly) for key, coeff in step for stair, poly in self._nf[key].coeffs.items()
            ))
        return self._nf[exps]

    def top(self, exps: tuple[int, ...]) -> Polynomial:
        """The coefficient of x_1^n ... x_n in the normal form of x^exps, in Z[g+]."""
        if sum(exps) < self._top_degree:
            return ZERO
        # An explicit stack, as in _nf_monomial; keys below the top degree add nothing.
        pending = [exps]
        while pending:
            cur = pending[-1]
            if cur in self._tops:
                pending.pop()
                continue
            step = self._rewrite(cur)
            if step is None:
                self._tops[cur] = ONE if cur == self._top_exps else ZERO
                continue
            step = [(key, coeff) for key, coeff in step if sum(key) >= self._top_degree]
            missing = [key for key, _ in step if key not in self._tops]
            if missing:
                pending.extend(missing)
                continue
            self._tops[cur] = Polynomial.sum(coeff * self._tops[key] for key, coeff in step)
        return self._tops[exps]

    def _reduce(self, p: Polynomial) -> RingElement:
        """Reduce a polynomial in x_1..x_n with g+ coefficients."""
        return RingElement(self.n, sum_by_key(
            (stair, scalar * poly)
            for exps, scalar in self._by_x_exponent(p).items()
            for stair, poly in self._nf_monomial(exps).coeffs.items()
        ))

    def normal_form(self, p: Polynomial) -> RingElement:
        return self._reduce(self._to_xg(p))

    # -- Schubert basis --------------------------------------------------------

    @memo
    def schubert(self, w: Permutation) -> RingElement:
        if w.size > self.n + 1:
            raise ValueError(f"{w.word} does not lie in S_{self.n + 1}")
        from .specialize import to_g_form

        poly = self._to_xg(to_g_form(universal_single(w, self.n).to_polynomial()))
        # Staircase support is automatic: x_k enters only through the
        # squarefree ladders at levels k..n, one power each.
        return RingElement(self.n, {e + (0,): c for e, c in self._by_x_exponent(poly).items()})

    def _expand_classical(self, slice_coeffs: dict[tuple[int, ...], int]) -> dict[Permutation, int]:
        """Integer combination of classical Schubert polynomials with these coefficients.

        x^{lehmer(w)} leads classical_single(w) with coefficient 1 in the
        order that compares exponents from the last variable (Macdonald),
        so peeling the largest exponent in that order names w.
        """
        def lead(exps: tuple[int, ...]) -> tuple[Permutation, dict]:
            w = Permutation.from_lehmer(exps)
            element = {}
            for mono, c in classical_single(w).terms().items():
                key = [0] * (self.n + 1)
                for v, e in mono:
                    key[v.i - 1] = e
                element[tuple(key)] = c
            return w, element

        return peel(slice_coeffs, lead, key=lambda exps: exps[::-1])

    def schubert_basis_expand(self, e: RingElement) -> dict[Permutation, Polynomial]:
        """Write e as sum of a_w(g) times the Schubert elements, a_w in Z[g+]."""
        remainder = dict(e.coeffs)
        out: list[tuple[Permutation, Polynomial]] = []
        guard = 0
        while remainder:
            guard += 1
            if guard > 10_000:
                raise ArithmeticError("Schubert expansion failed to terminate")
            slices: dict[Monomial, dict[tuple[int, ...], int]] = {}
            for exps, poly in remainder.items():
                for gmono, coeff in poly.terms().items():
                    slices.setdefault(gmono, {})[exps] = coeff
            min_deg = min(sum(v.degree * e_ for v, e_ in m) for m in slices)
            parts = list(remainder.items())
            for gmono in sorted(slices, key=lambda m: (tuple(sorted((v.sort_key(), e_) for v, e_ in m)))):
                if sum(v.degree * e_ for v, e_ in gmono) != min_deg:
                    continue
                gscalar = Polynomial({gmono: 1})
                for w, coeff in self._expand_classical(slices[gmono]).items():
                    out.append((w, gscalar * Polynomial.const(coeff)))
                    parts += [(exps, gscalar * poly * Polynomial.const(-coeff))
                              for exps, poly in self.schubert(w).coeffs.items()]
            remainder = sum_by_key(parts)
        return sum_by_key(out)

    # -- products and the pairing ----------------------------------------------

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        return self._reduce(a.to_polynomial() * b.to_polynomial())

    def multiply_expand(self, u: Permutation, v: Permutation) -> dict:
        product = self.multiply(self.schubert(u), self.schubert(v))
        return self.schubert_basis_expand(product)

    def inner_product(self, a: RingElement, b: RingElement) -> Polynomial:
        """The top staircase coefficient of a*b, without building the product."""
        return Polynomial.sum(
            self.top(tuple(i + j for i, j in zip(alpha[:-1], beta[:-1]))) * pa * pb
            for alpha, pa in a.coeffs.items()
            for beta, pb in b.coeffs.items()
            if sum(alpha) + sum(beta) >= self._top_degree
        )

    def inner_product_w0(self, a: RingElement, b: RingElement) -> Polynomial:
        expansion = self.schubert_basis_expand(self.multiply(a, b))
        return expansion.get(self.w0, ZERO)

    # -- the involution ----------------------------------------------------------

    def omega(self, p: Polynomial) -> Polynomial:
        n = self.n

        def image(v: Variable) -> Polynomial:
            if v.kind == "x":
                if not 1 <= v.i <= n + 1:
                    raise ValueError(f"{v.text()} is outside x_1..x_{n + 1}")
                return -Polynomial.var(x(n + 2 - v.i))
            if v.kind == "g" and (v.j or 0) >= 1:
                target = n + 2 - v.i - v.j
                if target < 1:
                    raise ValueError(f"{v.text()} has no mirror for n = {n}")
                mirror = Polynomial.var(g(target, v.j))
                return mirror if v.j % 2 else -mirror
            raise ValueError(f"unexpected variable {v.text()} under omega")

        return p.substitute(image)


def normal_form(p: Polynomial, n: int) -> RingElement:
    return universal_ring(n).normal_form(p)


def omega(p: Polynomial, n: int) -> Polynomial:
    return universal_ring(n).omega(p)


def schubert_basis_expand(e: RingElement) -> dict[Permutation, Polynomial]:
    return universal_ring(e.n).schubert_basis_expand(e)


def multiply_expand(u: Permutation, v: Permutation, n: int) -> dict:
    return universal_ring(n).multiply_expand(u, v)


def inner_product(a: RingElement, b: RingElement) -> Polynomial:
    if a.n != b.n:
        raise ValueError("mixed ambient n")
    return universal_ring(a.n).inner_product(a, b)


def staircase_rank_report(n: int) -> dict:
    """Certify that the staircase monomials span R_n, with the slice sizes to the top degree.

    The rewrite rules must each be monic in x_k^{n+2-k} with every other
    term smaller, so rewriting terminates on the staircase, and every
    generator c_i(n+1) must rewrite to zero, so the rules cover the ideal.
    Each degree row gives the number of x-monomials in x_1..x_n.
    """
    ring = universal_ring(n)
    top = n * (n + 1) // 2
    full_rank = ring.rules_are_triangular() and not any(
        ring.normal_form(c_from_g(i, n + 1)) for i in range(1, n + 2)
    )
    degrees = [{"degree": d, "dimension": comb(d + n - 1, n - 1)} for d in range(top + 1)]
    return {"n": n, "top_degree": top, "full_rank": full_rank, "degrees": degrees}


def check_orthogonality(n: int) -> dict:
    """Pair every Schubert element against the twisted dual family."""
    ring = universal_ring(n)
    w0 = ring.w0
    perms = sorted(all_perms(n + 1), key=lambda w: (w.length(), w.word))
    duals = {}
    for v in perms:
        image = ring.omega(ring.schubert(v * w0).to_polynomial())
        duals[v.word] = ring.normal_form(image)
    checked = 0
    failures = []
    for u in perms:
        su = ring.schubert(u)
        for v in perms:
            value = ring.inner_product(su, duals[v.word])
            expected = ONE if u.word == v.word else ZERO
            checked += 1
            if value != expected:
                failures.append(
                    {"u": list(u.word), "v": list(v.word), "value": value.text()}
                )
    return {"n": n, "checked": checked, "failures": failures}


def check_diagonal_vanishing(n: int) -> dict:
    """Substitute the second alphabet by the first in every double element."""
    checked = 0
    failures = []
    for w in sorted(all_perms(n + 1), key=lambda w: (w.length(), w.word)):
        if w.is_identity():
            continue
        merged = universal_double(w, n).rename_kind("d", "c")
        checked += 1
        if merged:
            failures.append({"w": list(w.word), "value": merged.text()})
    return {"n": n, "checked": checked, "failures": failures}
