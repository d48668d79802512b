"""The universal ring R_n and exact computation inside it.

R_n is Z[g][x_1, ..., x_{n+1}] modulo the ideal generated by the top
Chern ladder c_1(n+1), ..., c_{n+1}(n+1), where each c_i(n+1) is the
g-variable polynomial with g_k[0] read as x_k.  Over the coefficient
ring Z[g+] (the g_i[j] with j >= 1, i + j <= n+1) the quotient is free
with the staircase monomials x^a, a_i <= n+1-i, as a basis, and the
Schubert elements indexed by S_{n+1} form a second basis.

Normal forms come from a monic triangular rewrite, the universal
analogue of the standard Groebner basis h_{n+2-k}(x_1..x_k) of the
coinvariant ideal.  The first relation is linear: x_{n+1} = -(x_1 + ... +
x_n).  Write c_i(n+1) = e_i(x_1..x_{n+1}) + T_i, with T_i the part that
involves g+, and U(t) = 1 - sum_i T_i t^i.  Since the generating series
of the c_i(n+1) is zero modulo the ideal, for k = 1..n and m = n+2-k

    h_m(x_1..x_k) = (-1)^m sum_{j=0}^{n+1-k} e_j(x_{k+1}..x_{n+1}) [t^{m-j}] U(t)^{-1}

in R_n, which with x_{n+1} eliminated is a rule in x_1..x_n.  This rule
rewrites x_k^m: the other monomials of h_m are lex-smaller with higher
indices ranking higher, and every term on the right has lower x-degree,
since each T_i carries a g+ factor.  So repeated rewriting of any
exponent a_k >= n+2-k terminates on the staircase.

All of it runs on split forms, {exponent tuple over x_1..x_{n+1}:
coefficient in Z[g+]}: a per-ring table sends x_k and g_k[0] to slot k and
g+ to the coefficient, and a product adds exponent tuples.  The rules are
computed so, and a Schubert element is the split of its g-form, which is
already reduced.  A normal form reads each input term once into raw term
dicts by exponent tuple, drops the groups that cancel, then walks each
tuple on one budget, memoizing one form per tuple.  ``add_product`` adds a
group's coefficient times its walked form, one term dict per staircase
key, and the sums become Polynomials once, at the end; the element is
built without re-checking what the ring made.  The walk steps x_{n+1}^b,
b > 0, to (-(x_1 + ... + x_n))^b; the rules lose x_{n+1} by the same step.

The Schubert-basis expansion is the peel of uschub.schubert over the
staircase exponents, with coefficients in Z[g+]: the g-free part of the
Schubert element of w is the classical Schubert polynomial, led by
x^{lehmer(w)}, and every term carrying g+ has lower x-degree.

The inner product of two elements is the coefficient of the top
staircase monomial x_1^n ... x_n in the normal form of their product.
It is read without building the product: with top(exps) the top
coefficient of the normal form of x^exps, <a, b> is the sum of a_alpha
b_beta top(alpha + beta).  top is the same rewrite walk with a degree
floor of n(n+1)/2: a rewrite step never raises x-degree, and x_1^n ... x_n
is the only staircase monomial of that degree, so the walk may drop every
key below the floor, and pairs below it are skipped.  An equivalent route
reads the coefficient of the longest permutation in the Schubert-basis
expansion of the product, and the routes are compared in tests.

The ring owns its per-n tables: the split, omega's, the x variables and
the top staircase.  They are built with it, and the rules the first time a
walk leaves the staircase, so a ring that only splits or relabels costs
none of them.  The involution omega permutes the variables of R_n up to
sign, so it is a signed relabel of each term through the ring's table.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from operator import add

from .permutations import Permutation, all_perms
from .polyring import (
    ONE,
    Monomial,
    Polynomial,
    Variable,
    ZERO,
    add_product,
    clear_caches,  # noqa: F401  (bench/ empties the memos by this name)
    complete_sym,
    elementary_sym,
    g,
    memo,
    x,
)
from .schubert import peel, universal_double, universal_single
from .specialize import c_from_g, to_g_form


@memo(typed=True)  # typed: universal_ring(True) misses the R_1 entry, and UniversalRing refuses it
def universal_ring(n: int) -> "UniversalRing":
    return UniversalRing(n)


# The most g-terms one normal-form or top walk may store before it gives up.
WALK_BUDGET = 650_000


@memo
def _drop_power(n: int, b: int) -> list[tuple[tuple[int, ...], Polynomial]]:
    """-(-(x_1 + ... + x_n))^b as (shift, coefficient) pairs: the rewrite step of x_{n+1}^b.

    A shift has length n+1 and ends in -b, so adding it to an exponent
    tuple with x_{n+1}^b trades that power for one term of the expansion.
    """
    # (exponents of x_1.., coefficient, what is left of b), x_1^b first
    terms = [((), (-1) ** (b + 1), b)]
    for _ in range(n - 1):
        terms = [(exps + (a,), coeff * comb(left, a), left - a) for exps, coeff, left in terms for a in range(left, -1, -1)]
    return [((*exps, left, -b), Polynomial.const(coeff)) for exps, coeff, left in terms]


def _over_budget(exps: tuple[int, ...]) -> ArithmeticError:
    # x_{n+1}'s exponent is named only when it is not 0
    shown = exps if exps[-1] else exps[:-1]
    return ArithmeticError(f"reducing the x-exponents {shown} needs more than {WALK_BUDGET:,} stored g-terms")


class RingElement:
    """A reduced element of R_n: staircase x-monomials with g+ coefficients.

    Keys of ``coeffs`` are exponent tuples over x_1..x_{n+1}, the keys of
    the walk table, whose i-th entry is at most n+1-i; so the last entry,
    x_{n+1}'s, is always 0.  Coefficients may hold only the g_i[j] of Z[g+],
    the g keys of the ring's omega table.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[tuple[int, ...], Polynomial]):
        self.n = n
        ring = universal_ring(n)
        for exps, poly in coeffs.items():
            if len(exps) != n + 1:
                raise ValueError(f"exponent tuple {exps} must have length n+1 = {n + 1}")
            for e, top in zip(exps, ring.top_stair):
                if type(e) is not int:  # a bool too: True would read as the exponent 1
                    raise TypeError(f"exponent entry {e!r} of {exps} is not an int")
                if not 0 <= e <= top:
                    raise ValueError(f"exponent entry {e} of {exps} is outside 0..{top}, the staircase bound")
            if not isinstance(poly, Polynomial):
                raise TypeError(f"coefficient {poly!r} of {exps} is not a Polynomial")
        if foreign := [v for p in coeffs.values() for v in p.variables() if v.kind != "g" or v not in ring.omega_table]:
            raise ValueError(f"{min(foreign).text()} is outside Z[g+] for n = {n}")
        self.coeffs = {exps: poly for exps, poly in coeffs.items() if poly}

    @classmethod
    def _of(cls, n: int, coeffs: dict[tuple[int, ...], Polynomial]) -> "RingElement":
        """An element the ring made, staircase keys and nonzero Z[g+] coefficients: no checks."""
        e = object.__new__(cls)
        e.n, e.coeffs = n, coeffs
        return e

    @classmethod
    def zero(cls, n: int) -> "RingElement":
        return cls(n, {})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingElement) and (self.n, self.coeffs) == (other.n, other.coeffs)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.n != other.n:
            raise ValueError("mixed ambient n")
        keys = {**self.coeffs, **other.coeffs}
        return RingElement(self.n, {e: self.coeffs.get(e, ZERO) + other.coeffs.get(e, ZERO) for e in keys})

    def scale(self, poly: Polynomial | int) -> "RingElement":
        return RingElement(self.n, {e: p * poly for e, p in self.coeffs.items()})

    def to_polynomial(self) -> Polynomial:
        # g sorts before x, so a g-monomial followed by an x-monomial is sorted
        xs = universal_ring(self.n)._xs
        out: dict[Monomial, int] = {}
        for exps, poly in self.coeffs.items():
            xmono = tuple([pair for pair in zip(xs, exps) if pair[1]])
            for gmono, co in poly.terms().items():
                out[gmono + xmono] = co
        return Polynomial(out)

    def text(self) -> str:
        return self.to_polynomial().text()

    def __repr__(self) -> str:
        return f"RingElement(n={self.n}, {self.text()})"


def _rewrite_order(exps: tuple[int, ...]) -> tuple:
    """x-degree first, then lex with higher indices ranking higher."""
    return (sum(exps), exps[::-1])


class UniversalRing:
    def __init__(self, n: int):
        if type(n) is not int:
            raise TypeError(f"the size of R_n must be an int, got {n!r}")
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        # omega on the variables of R_n: x_1..x_{n+1} and Z[g+]'s g_i[j], j >= 1, i + j <= n+1.
        domain = [*map(x, range(1, n + 2)), *(g(i, j) for j in range(1, n + 1) for i in range(1, n + 2 - j))]
        self.omega_table = {v: _omega_image(v, n) for v in domain}
        # The split: x_k and g_k[0] go to x-slot k-1, g+ (omega's other variables) to None.
        self._slot = {v: None if v.kind == "g" else v.i - 1 for v in domain}
        self._slot.update((g(k, 0), k - 1) for k in range(1, n + 2))
        self.w0 = Permutation.longest(n + 1)
        self._xs = tuple(map(x, range(1, n + 1)))
        # One normal-form table per degree floor: {x-exponents: {staircase: coefficient}}.
        self._nf: dict[int, dict[tuple[int, ...], dict[tuple[int, ...], Polynomial]]] = {}
        self.top_degree = n * (n + 1) // 2
        # x_1^n ... x_n over x_1..x_{n+1}: entry i-1 is the staircase bound n+1-i
        self.top_stair = (*range(n, 0, -1), 0)

    @cached_property
    def _rules(self) -> dict[int, dict[tuple[int, ...], Polynomial]]:
        """rules[k]: the relation h_m(x_1..x_k) - (-1)^m sum_j e_j(x_{k+1}..x_{n+1}) inv[m-j] = 0, led by x_k^m."""
        # e_i(x_1..x_{n+1}) cancels from the split of c_i(n+1), which leaves T_i.  The coefficients of U(t)^{-1}
        # follow from inv[r] = sum_i T_i inv[r-i]; T_1 = 0.
        n, split = self.n, self._by_x_exponent
        tails = {i: split(c_from_g(i, n + 1) - elementary_sym(i, n + 1)) for i in range(2, n + 2)}
        inv = [{(0,) * (n + 1): ONE}]
        for r in range(1, n + 2):
            inv.append(self._combine(self._products((tails[i], inv[r - i]) for i in range(2, r + 1))))
        rules = {}
        for k in range(1, n + 1):
            m = n + 2 - k
            relation = self._combine(self._products([(split(complete_sym(m, k, kind="x")), inv[0])] + [
                (split(elementary_sym(j, n + 1 - k, offset=k) * (-1) ** (m + 1)), inv[m - j]) for j in range(m)]))
            # x_{n+1}^b leaves once, by the walk's own step; that step reads no rules, so it runs while they are built
            rules[k] = self._combine((-poly, dict(self._rewrite(exps))) if exps[-1] else (poly, {exps: ONE})
                                     for exps, poly in relation.items())
        return rules

    # -- presentation -------------------------------------------------------

    def _by_x_exponent(self, p: Polynomial) -> dict[tuple[int, ...], dict[Monomial, int]]:
        """Split a polynomial in x_1..x_{n+1} over Z[g+] by exponent tuple, g_k[0] counted as x_k.

        Each group is a term dict {g+ monomial: int}; groups that cancel are
        dropped.  A monomial with foreign variables raises ValueError naming
        the first in package order, a g_k[0] ranking as x_k.
        """
        slot, size = self._slot, self.n + 1
        out: dict[tuple[int, ...], dict[Monomial, int]] = {}
        for mono, coeff in p.terms().items():
            exps = [0] * size
            gmono = []
            try:
                for v, e in mono:
                    k = slot[v]
                    if k is None:
                        gmono.append((v, e))
                    else:
                        exps[k] += e
            except KeyError:
                v = min(x(v.i) if v.kind == "g" and v.j == 0 else v for v, _ in mono if v not in slot)
                raise ValueError(f"{v.text()} is outside Z[g+] for n = {self.n}" if v.kind == "g"
                                 else f"unexpected variable {v.text()} in reduction") from None
            terms = out.setdefault(tuple(exps), {})
            gmono = tuple(gmono)
            terms[gmono] = terms.get(gmono, 0) + coeff
        return {exps: terms for exps, terms in out.items() if any(terms.values())}

    def _lead(self, k: int) -> tuple[int, ...]:
        """Exponent tuple of x_k^{n+2-k}, the leading term of rule k."""
        return (0,) * (k - 1) + (self.n + 2 - k,) + (0,) * (self.n + 1 - k)

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
        """One rewrite step, x_{n+1}^b first: x^exps = -(sum of coeff * x^key), or None on the staircase."""
        if exps[-1]:
            return [(tuple(map(add, exps, shift)), coeff) for shift, coeff in _drop_power(self.n, exps[-1])]
        k = next((k for k in range(self.n, 0, -1) if exps[k - 1] > self.n + 1 - k), None)
        if k is None:
            return None
        # x^exps = x^base * x_k^m, and x_k^m = -(the rest of rule k)
        lead = self._lead(k)
        base = tuple(a - b for a, b in zip(exps, lead))
        return [
            (tuple(a + b for a, b in zip(base, shift)), coeff)
            for shift, coeff in self._rules[k].items()
            if shift != lead
        ]

    def _combine(self, parts, scale: int = 1) -> dict[tuple[int, ...], Polynomial]:
        """scale * sum of scalar * form over (scalar, {x-exponents: coefficient}) pairs, by ``add_product`` per key."""
        acc: dict[tuple[int, ...], dict[Monomial, int]] = {}
        for scalar, form in parts:
            for stair, poly in form.items():
                add_product(acc.setdefault(stair, {}), scalar, poly, scale)
        return {stair: poly for stair, terms in acc.items() if (poly := Polynomial(terms))}

    def _products(self, pairs):
        """The sum of products of split forms, as (scalar, form) pairs for ``_combine``: exponent tuples add."""
        return ((pa, {tuple(map(add, ea, eb)): pb for eb, pb in b.items()}) for a, b in pairs for ea, pa in a.items())

    def _nf_monomial(self, exps: tuple[int, ...], floor: int = 0) -> dict[tuple[int, ...], Polynomial]:
        """The normal form of x^exps as {staircase exponents: coefficient in Z[g+]}.

        Rewrite keys of x-degree below ``floor`` are dropped; no step raises
        x-degree, so only staircase terms below the floor are lost.
        """
        nf = self._nf.setdefault(floor, {})
        if exps in nf:
            return nf[exps]
        # An explicit stack, not recursion: x_1^a at n = 1 takes a/2 steps.
        pending = [exps]
        stored = 0
        while pending:
            cur = pending[-1]
            if cur in nf:
                pending.pop()
                continue
            step = self._rewrite(cur)
            if step is None:
                nf[cur] = {cur: ONE}
            else:
                step = [(key, coeff) for key, coeff in step if sum(key) >= floor]
                missing = [key for key, _ in step if key not in nf]
                if missing:
                    pending.extend(missing)
                    continue
                nf[cur] = self._combine(((coeff, nf[key]) for key, coeff in step), -1)
            stored += sum(map(len, nf[cur].values()))
            if stored > WALK_BUDGET:
                raise _over_budget(exps)
        return nf[exps]

    def _reduce(self, split: dict[tuple[int, ...], Polynomial | dict[Monomial, int]]) -> RingElement:
        forms = ((scalar, self._nf_monomial(exps)) for exps, scalar in split.items())
        return RingElement._of(self.n, self._combine(forms))

    def normal_form(self, p: Polynomial) -> RingElement:
        return self._reduce(self._by_x_exponent(p))

    # -- Schubert basis --------------------------------------------------------

    @memo
    def schubert(self, w: Permutation) -> RingElement:
        # Reduced as it is: x_s comes at most once from each c_i(k), k >= s, and each g_s[t], t >= 1, has s+t <= n.
        split = self._by_x_exponent(to_g_form(universal_single(w, self.n).to_polynomial()))
        return RingElement(self.n, {exps: Polynomial(terms) for exps, terms in split.items()})

    def schubert_basis_expand(self, e: RingElement) -> dict[Permutation, Polynomial]:
        """Write e as sum of a_w(g) times the Schubert elements, a_w in Z[g+].

        The staircase x^a leads sigma_w for w = from_lehmer(a): the other
        g-free terms of sigma_w are Macdonald-smaller at the same x-degree
        and every term with g+ has lower x-degree, so ``peel`` takes the
        highest x-degree first and, within it, the largest exponents
        compared from the last variable.
        """
        def lead(exps: tuple[int, ...]) -> tuple[Permutation, dict[tuple[int, ...], Polynomial]]:
            w = Permutation.from_lehmer(exps)
            return w, self.schubert(w).coeffs

        if e.n != self.n:
            raise ValueError("mixed ambient n")
        return peel(e.coeffs, lead, lambda exps: (-sum(exps), tuple(-a for a in reversed(exps))))

    # -- products and the pairing ----------------------------------------------

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        if {a.n, b.n} != {self.n}:
            raise ValueError("mixed ambient n")
        return self._reduce(self._combine(self._products([(a.coeffs, b.coeffs)])))

    def multiply_expand(self, u: Permutation, v: Permutation) -> dict:
        return self.schubert_basis_expand(self.multiply(self.schubert(u), self.schubert(v)))

    def inner_product(self, a: RingElement, b: RingElement) -> Polynomial:
        """The top staircase coefficient of a*b, without building the product."""
        if {a.n, b.n} != {self.n}:
            raise ValueError("mixed ambient n")
        # x_1^n ... x_n is the only staircase key at the floor's degree, so a form of the floor walk holds it at most
        floor, top = self.top_degree, self.top_stair
        right = [(floor - sum(beta), beta, pb) for beta, pb in b.coeffs.items()]
        acc: dict[Monomial, int] = {}
        for alpha, pa in a.coeffs.items():
            degree = sum(alpha)
            inner: dict[Monomial, int] = {}
            for least, beta, pb in right:
                if degree >= least:
                    add_product(inner, pb, self._nf_monomial(tuple(map(add, alpha, beta)), floor).get(top, ZERO))
            add_product(acc, inner, pa)
        return Polynomial(acc)

    def inner_product_w0(self, a: RingElement, b: RingElement) -> Polynomial:
        return self.schubert_basis_expand(self.multiply(a, b)).get(self.w0, ZERO)

    # -- the involution ----------------------------------------------------------

    def omega(self, p: Polynomial) -> Polynomial:
        """The involution as one signed relabel through the ring's table, which permutes its keys: no terms merge."""
        table = self.omega_table
        if not table.keys() >= {v for m in p.terms() for v, _ in m}:
            # the image rules raise on the first variable without an image, in package order
            _omega_image(next(v for v in p.variables() if v not in table), self.n)
        return p.relabel(table)


def normal_form(p: Polynomial, n: int) -> RingElement:
    return universal_ring(n).normal_form(p)


def _omega_image(v: Variable, n: int) -> tuple[Variable, int]:
    """x_i -> -x_{n+2-i} and g_i[j] -> (-1)^{j+1} g_{n+2-i-j}[j], as (image, sign)."""
    if v.kind == "x":
        if not 1 <= v.i <= n + 1:
            raise ValueError(f"{v.text()} is outside x_1..x_{n + 1}")
        return x(n + 2 - v.i), -1
    if v.kind == "g" and (v.j or 0) >= 1:
        target = n + 2 - v.i - v.j
        if target < 1:
            raise ValueError(f"{v.text()} has no mirror for n = {n}")
        return g(target, v.j), 1 if v.j % 2 else -1
    raise ValueError(f"unexpected variable {v.text()} under omega")


def omega(p: Polynomial, n: int) -> Polynomial:
    return universal_ring(n).omega(p)


def schubert_basis_expand(e: RingElement) -> dict[Permutation, Polynomial]:
    return universal_ring(e.n).schubert_basis_expand(e)


def multiply_expand(u: Permutation, v: Permutation, n: int) -> dict:
    return universal_ring(n).multiply_expand(u, v)


def inner_product(a: RingElement, b: RingElement) -> Polynomial:
    return universal_ring(a.n).inner_product(a, b)


def staircase_rank_report(n: int) -> dict:
    """Certify that the staircase monomials span R_n, with the slice sizes to the top degree.

    The rewrite rules must each be monic in x_k^{n+2-k} with every other
    term smaller, so rewriting terminates on the staircase, and every
    generator c_i(n+1) must rewrite to zero, so the rules cover the ideal.
    Each degree row gives the number of x-monomials in x_1..x_n.
    """
    ring = universal_ring(n)
    full_rank = ring.rules_are_triangular() and not any(ring.normal_form(c_from_g(i, n + 1)) for i in range(1, n + 2))
    degrees = [{"degree": d, "dimension": comb(d + n - 1, n - 1)} for d in range(ring.top_degree + 1)]
    return {"n": n, "top_degree": ring.top_degree, "full_rank": full_rank, "degrees": degrees}


def check_orthogonality(n: int) -> dict:
    """Pair every Schubert element against the twisted dual family."""
    ring = universal_ring(n)
    perms = sorted(all_perms(n + 1), key=lambda w: (w.length(), w.word))
    duals = [ring.normal_form(ring.omega(ring.schubert(v * ring.w0).to_polynomial())) for v in perms]
    failures = [
        {"u": list(u.word), "v": list(v.word), "value": value.text()}
        for u in perms
        for v, dual in zip(perms, duals)
        if (value := ring.inner_product(ring.schubert(u), dual)) != (ONE if u.word == v.word else ZERO)
    ]
    return {"n": n, "checked": len(perms) ** 2, "failures": failures}


def check_diagonal_vanishing(n: int) -> dict:
    """Substitute the second alphabet by the first in every double element."""
    perms = [w for w in sorted(all_perms(n + 1), key=lambda w: (w.length(), w.word)) if not w.is_identity()]
    failures = [{"w": list(w.word), "value": merged.text()}
                for w in perms if (merged := universal_double(w, n).rename_kind("d", "c"))]
    return {"n": n, "checked": len(perms), "failures": failures}
