"""Reference routes the tests compare the library against.

``classical_double`` builds double Schubert polynomials by divided
differences from the dominant product, and ``d_to_y`` reads a mixed c/d
form in c and y; the y-ladder ``uschub.schubert.universal_cy`` is checked
against both.

The universal single polynomial of w is also the classical Schubert
polynomial of w written in the triangular basis of products
e_{i_1}(x_1) e_{i_2}(x_1,x_2) ... e_{i_n}(x_1..x_n), with e_i of the
first k variables renamed to c_i(k).  ``e_expand(classical_single(w), n)``
computes that expansion by inverting one transition matrix per degree
over the rationals.  It is slow (each degree's table is a Gauss-Jordan
inversion) and independent of the ladder operator that
``uschub.schubert.universal_single`` uses, which is why it lives here.

``inner_product_full`` pairs two elements of R_n by building and reducing
the whole product, then reading its top staircase coefficient; the
library reads that coefficient through a memoized functional instead.

``rules_reference`` builds the rewrite rules of R_n on whole polynomials,
substituting g_k[0] -> x_k and x_{n+1} -> -(x_1 + ... + x_n) through its
own image function ``xg_image``, which ``normal_form_reference`` uses too;
the library builds the rules on split forms and never substitutes.

``omega_reference`` is the involution of R_n as a substitution with one
image polynomial per variable; the library relabels each term through a
per-n table of (image, sign) pairs.

``to_g_form_reference``, ``classical_reference`` and ``flag_map_reference``
are the specializations as term-by-term substitutions through
``substitute_reference``, the h analogue of each g-form included; the flag map
builds the whole g-form with ``to_g_form_reference`` and then maps its g
variables.  The library maps each c_i(j) once per rule, and reads each
monomial's mapped part through one bounded memo, built from its prefix's.

``substitute_reference``, ``normal_form_reference``,
``schubert_basis_expand_reference`` and ``code_products`` build every
intermediate product as its own ``Polynomial`` and sum the results:
term-by-term substitution, reduction in R_n and the Schubert-basis
expansion in R_n regrouped by ``sum_by_key``, and code combinations as
products of ``cpoly``/``dpoly``.  The library does the same work in one
dict accumulator per call, and peels against the g-free parts of its own
Schubert elements where the reference expansion peels against
``classical_single``.  The reference peel, ``peel_max_first``, rescans
the remaining terms for the largest each round; the library's ``peel``
pops the least term from a heap.

``universal_double_reference`` tests every v in S_{n+1} for a
factorization of w and builds one product per factorization found;
``rewrite_no_squares_reference`` rescans all terms for the largest
same-point pair and rebuilds the whole polynomial at every step.  The
library walks only the real factorizations, and rewrites one term at a
time at its own largest pair.

``divided_difference_reference`` swaps v_k and v_{k+1} by substitution
and divides p - s_k p by v_k - v_{k+1} with a Horner sweep
(``divide_by_difference``); the library maps each monomial straight to
its quotient terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _itproduct
from math import prod

from uschub.formulas import _rule_rhs
from uschub.permutations import Permutation, all_perms
from uschub.polyring import (
    ONE,
    ZERO,
    Monomial,
    Polynomial,
    Variable,
    _mono_degree,
    complete_sym,
    cpoly,
    dpoly,
    elementary_sym,
    g,
    h,
    q,
    x,
    y,
)
from uschub.schubert import MElement, classical_single, divided_difference, universal_single
from uschub.specialize import FlagProfile, c_from_g
from uschub.uring import RingElement, UniversalRing, universal_ring

_classical_double_cache: dict[tuple[int, ...], Polynomial] = {}
_e_basis_cache: dict[tuple[int, int], tuple] = {}
_reference_nf: dict[int, dict[tuple[int, ...], RingElement]] = {}


def classical_double(w: Permutation) -> Polynomial:
    """Double Schubert polynomial of w in x and y."""
    key = w.word
    hit = _classical_double_cache.get(key)
    if hit is not None:
        return hit
    if w.is_identity():
        result = ONE
    else:
        m = w.size
        top = Permutation.longest(m)
        if w == top:
            result = ONE
            for i in range(1, m):
                for j in range(1, m + 1 - i):
                    result = result * (Polynomial.var(x(i)) - Polynomial.var(y(j)))
        else:
            k = next(k for k in range(1, m) if w(k) < w(k + 1))
            result = divided_difference(classical_double(w * Permutation.s(k)), k)
    _classical_double_cache[key] = result
    return result


def sum_by_key(pairs) -> dict:
    """Sum the polynomials that share a key, one :meth:`Polynomial.sum` per key.

    Keys whose sum is zero are left out.
    """
    groups: dict = {}
    for key, poly in pairs:
        groups.setdefault(key, []).append(poly)
    return {key: total for key, group in groups.items() if (total := Polynomial.sum(group))}


def d_to_y(p: Polynomial) -> Polynomial:
    """Substitute every d_i(j) by the elementary symmetric e_i(y_1..y_j)."""
    mapping = {
        v: elementary_sym(v.i, v.j, kind="y")
        for v in p.variables()
        if v.kind == "d"
    }
    return substitute_reference(p, mapping.get)


def inner_product_full(ring: UniversalRing, a: RingElement, b: RingElement) -> Polynomial:
    return ring.multiply(a, b).coeffs.get(ring.top_stair, ZERO)


def substitute_reference(p: Polynomial, image) -> Polynomial:
    """The ring homomorphism sending each variable v to ``image(v)``, called once per distinct variable in
    package order (None keeps v): one product per term, coefficient times each image power."""
    imgs: dict = {}
    for v in p.variables():
        img = image(v)
        if img is not None:
            imgs[v] = img if isinstance(img, Polynomial) else Polynomial.const(img)
    if not imgs:
        return p
    parts = []
    for m, co in p.terms().items():
        kept = []
        factor = Polynomial.const(co)
        for v, e in m:
            img = imgs.get(v)
            if img is None:
                kept.append((v, e))
            else:
                factor = factor * (img ** e)
                if not factor:
                    break
        if factor:
            parts.append(Polynomial({tuple(kept): 1}) * factor)
    return Polynomial.sum(parts)


def _nf_monomial_reference(ring: UniversalRing, exps: tuple[int, ...]) -> RingElement:
    nf = _reference_nf.setdefault(ring.n, {})
    pending = [exps]
    while pending:
        top = pending[-1]
        if top in nf:
            pending.pop()
            continue
        step = ring._rewrite(top)
        if step is None:
            nf[top] = RingElement(ring.n, {top: ONE})
            continue
        missing = [key for key, _ in step if key not in nf]
        if missing:
            pending.extend(missing)
            continue
        nf[top] = RingElement(ring.n, sum_by_key(
            (stair, -coeff * poly) for key, coeff in step for stair, poly in nf[key].coeffs.items()
        ))
    return nf[exps]


def normal_form_reference(p: Polynomial, n: int) -> RingElement:
    """The normal form in R_n with one Polynomial per product, regrouped by ``sum_by_key``."""
    ring = universal_ring(n)
    return RingElement(n, sum_by_key(
        (stair, Polynomial(terms) * poly)
        for exps, terms in ring._by_x_exponent(substitute_reference(p, xg_image(n))).items()
        for stair, poly in _nf_monomial_reference(ring, exps).coeffs.items()
    ))


def xg_image(n: int):
    """The image function g_k[0] -> x_k and x_{n+1}, g_{n+1}[0] -> -(x_1 + ... + x_n), for substitution."""
    def image(v: Variable) -> Polynomial | None:
        if v.i == n + 1 and (v.kind == "x" or v.kind == "g" and v.j == 0):
            return -elementary_sym(1, n)
        return Polynomial.var(x(v.i)) if v.kind == "g" and v.j == 0 else None

    return image


def rules_reference(n: int) -> dict[int, dict[tuple[int, ...], Polynomial]]:
    """The rewrite rules of R_n built on whole polynomials, with g_k[0] and x_{n+1} substituted away.

    Rule k is the relation x_k^m + (smaller terms) = 0, m = n+2-k, as {exponents over x_1..x_{n+1}: coefficient}.
    """
    image = xg_image(n)
    tails = {i: substitute_reference(c_from_g(i, n + 1) - elementary_sym(i, n + 1), image) for i in range(2, n + 2)}
    inv = [ONE]
    for r in range(1, n + 2):
        inv.append(Polynomial.sum(tails[i] * inv[r - i] for i in range(2, min(r, n + 1) + 1)))
    rules = {}
    for k in range(1, n + 1):
        m = n + 2 - k
        right = Polynomial.sum(elementary_sym(j, n + 1 - k, offset=k) * inv[m - j] for j in range(m))
        relation = complete_sym(m, k, kind="x") - substitute_reference(right, image) * (-1) ** m
        rules[k] = {tuple(dict(xmono).get(x(i), 0) for i in range(1, n + 2)): coeff
                    for xmono, coeff in relation.coefficients_by("x").items()}
    return rules


def omega_reference(p: Polynomial, n: int) -> Polynomial:
    """The involution by ``substitute_reference``, one image polynomial per variable."""

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

    return substitute_reference(p, image)


def to_g_form_reference(p: Polynomial) -> Polynomial:
    """c_i(j) -> c_from_g(i, j) and d_i(j) -> the same with every g_s[t] read as h_s[t]."""
    def image(v: Variable) -> Polynomial | None:
        if v.kind not in "cd":
            return None
        gform = c_from_g(v.i, v.j)
        return gform if v.kind == "c" else substitute_reference(gform, lambda u: Polynomial.var(h(u.i, u.j)))

    return substitute_reference(p, image)


def classical_reference(p: Polynomial) -> Polynomial:
    """c_i(j) -> e_i(x_1..x_j) and d_i(j) -> e_i(y_1..y_j)."""
    return substitute_reference(
        p, lambda v: elementary_sym(v.i, v.j, kind="x" if v.kind == "c" else "y") if v.kind in "cd" else None
    )


def flag_map_reference(p: Polynomial, profile: FlagProfile) -> Polynomial:
    """The flag map in two passes: the whole g-form of ``p``, then an image for each g variable.

    Maps g_i[0] -> x_i and g_{n_{i-1}+1}[k_i + k_{i+1} - 1] -> (-1)^{k_{i+1}+1} q_i,
    with q_i of degree n_{i+1} - n_{i-1}; every other g_s[t], t >= 1 dies.
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

    return substitute_reference(to_g_form_reference(p), image)


def peel_max_first(coeffs: dict, lead, key) -> dict:
    """Expand an integer combination in a unitriangular basis by a full rescan.

    ``lead(t)`` names the basis element led by the term t, as a label and
    its coefficients: t carries 1 there and every other term is smaller
    under ``key``.  Each round scans all remaining terms for the largest.
    """
    rest = dict(coeffs)
    out: dict = {}
    while rest:
        top = max(rest, key=key)
        coeff = rest.pop(top)
        label, element = lead(top)
        out[label] = coeff
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


def _expand_classical_reference(ring: UniversalRing, slice_coeffs: dict[tuple[int, ...], int]) -> dict[Permutation, int]:
    """Peel a combination of classical Schubert polynomials against ``classical_single``."""
    def lead(exps: tuple[int, ...]) -> tuple[Permutation, dict]:
        w = Permutation.from_lehmer(exps)
        element = {}
        for mono, c in classical_single(w).terms().items():
            key = [0] * (ring.n + 1)
            for v, e in mono:
                key[v.i - 1] = e
            element[tuple(key)] = c
        return w, element

    return peel_max_first(slice_coeffs, lead, key=lambda exps: exps[::-1])


def schubert_basis_expand_reference(ring: UniversalRing, e: RingElement) -> dict[Permutation, Polynomial]:
    """The Schubert-basis expansion in R_n, one round per least g-degree, regrouped by ``sum_by_key``."""
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
        for gmono in sorted(slices, key=lambda m: tuple((v.key, e_) for v, e_ in m)):
            if sum(v.degree * e_ for v, e_ in gmono) != min_deg:
                continue
            gscalar = Polynomial({gmono: 1})
            for w, coeff in _expand_classical_reference(ring, slices[gmono]).items():
                out.append((w, gscalar * Polynomial.const(coeff)))
                parts += [(exps, gscalar * poly * Polynomial.const(-coeff))
                          for exps, poly in ring.schubert(w).coeffs.items()]
        remainder = sum_by_key(parts)
    return sum_by_key(out)


def divide_by_difference(p: Polynomial, a: Variable, b: Variable) -> Polynomial:
    """Exact quotient p / (a - b); raises if the division leaves a remainder.

    Works by synthetic division in ``a``: the coefficients of the
    quotient are built by a Horner sweep, and the final carry must
    vanish.
    """
    by_exp: dict[int, dict[Monomial, int]] = {}
    for m, co in p.terms().items():
        by_exp.setdefault(dict(m).get(a, 0), {})[tuple((v, e) for v, e in m if v != a)] = co
    apoly, bpoly = Polynomial.var(a), Polynomial.var(b)
    parts = []
    carry = ZERO
    for e in range(max(by_exp, default=0), 0, -1):
        qe = Polynomial(by_exp.get(e)) + carry
        parts.append(qe * (apoly ** (e - 1)))
        carry = bpoly * qe
    if Polynomial(by_exp.get(0)) + carry:
        raise ArithmeticError("division by variable difference left a remainder")
    return Polynomial.sum(parts)


def divided_difference_reference(p: Polynomial, k: int, kind: str = "x") -> Polynomial:
    """(p - s_k p) / (v_k - v_{k+1}) in the chosen degree-1 family."""
    mk = x if kind == "x" else y
    a, b = mk(k), mk(k + 1)
    swapped = substitute_reference(p, lambda v: Polynomial.var(b if v == a else a) if v in (a, b) else None)
    return divide_by_difference(p - swapped, a, b)


def universal_double_reference(w: Permutation, n: int) -> Polynomial:
    """The mixed form in c and d: sum of (-1)^{l(v)} S_u(c) S_v(d) over
    factorizations u(i) = v(w(i)) with l(u) = l(w) - l(v)."""
    if w.size > n + 1:
        raise ValueError(f"{w} does not fit in S_{n + 1}")
    lw = w.length()
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


def rewrite_no_squares_reference(p: Polynomial, n: int | None = None, budget: int = 10**6) -> Polynomial:
    """Eliminate all same-point products c_i(k) c_j(k) with i, j >= 1.

    Repeatedly replaces the offending pair with the largest (k, i, j)
    by the explicit right side of the product rule; the result lives in
    c and g variables, with every monomial's c-part square-free across
    evaluation points.  The step budget guards the termination argument.
    """
    for v in p.variables():
        if v.kind not in ("c", "g"):
            raise ValueError("rewrite_no_squares expects a polynomial in c (and g)")
        if n is not None and v.kind == "c" and v.j > n:
            raise ValueError(f"c-point {v.j} exceeds the stated bound {n}")
    work = p
    steps = 0
    while True:
        best = None
        for mono, _ in work.terms().items():
            by_point: dict[int, list[int]] = {}
            for v, e in mono:
                if v.kind == "c":
                    by_point.setdefault(v.j, []).extend([v.i] * e)
            for point, tops in by_point.items():
                if len(tops) >= 2:
                    tops.sort(reverse=True)
                    cand = (point, tops[0], tops[1])
                    if best is None or cand > best:
                        best = cand
        if best is None:
            return work
        steps += 1
        if steps > budget:
            raise RuntimeError("square elimination exceeded its step budget")
        k, i, j = best
        replacement = _rule_rhs(i, j, k)
        ci, cj = Variable("c", i, k, i), Variable("c", j, k, j)
        parts = []
        for mono, coeff in work.terms().items():
            counts = dict(mono)
            if counts.get(ci, 0) >= 1 and counts.get(cj, 0) >= (2 if i == j else 1):
                counts[ci] -= 1
                counts[cj] -= 1
                # dropping exponents keeps the monomial's variable order
                rest = tuple((v, e) for v, e in counts.items() if e)
                parts.append(Polynomial({rest: coeff}) * replacement)
            else:
                parts.append(Polynomial({mono: coeff}))
        work = Polynomial.sum(parts)


def code_products(el: MElement, kind: str = "c") -> Polynomial:
    """``MElement.to_polynomial`` as a sum of products of ``cpoly``/``dpoly`` factors."""
    make = cpoly if kind == "c" else dpoly
    return Polynomial.sum(
        prod((make(i, alpha) for alpha, i in enumerate(code, start=1) if i), start=Polynomial.const(coeff))
        for code, coeff in el.codes.items()
    )


def homogeneous_parts(p: Polynomial) -> dict[int, Polynomial]:
    parts: dict[int, dict[Monomial, int]] = {}
    for m, co in p.terms().items():
        parts.setdefault(_mono_degree(m), {})[m] = co
    return {deg: Polynomial(t) for deg, t in sorted(parts.items())}


def invert(a) -> list[list[Fraction]]:
    m = [[Fraction(v) for v in row] for row in a]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("invert needs a square matrix")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _codes_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    out = [
        code
        for code in _itproduct(*(range(k + 1) for k in range(1, n + 1)))
        if sum(code) == d
    ]
    out.sort()
    return out


def _staircase_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    out = [
        j
        for j in _itproduct(*(range(n + 2 - k) for k in range(1, n + 1)))
        if sum(j) == d
    ]
    out.sort()
    return out


def _e_basis(n: int, d: int):
    """Codes, staircase exponents and the integer inverse transition at degree d."""
    key = (n, d)
    hit = _e_basis_cache.get(key)
    if hit is not None:
        return hit
    codes = _codes_of_degree(n, d)
    monos = _staircase_exponents(n, d)
    if len(codes) != len(monos):
        raise RuntimeError(f"basis size mismatch at n={n}, d={d}")
    index = {j: r for r, j in enumerate(monos)}
    mat = [[0] * len(codes) for _ in monos]
    for col, code in enumerate(codes):
        prod = ONE
        for alpha, i in enumerate(code, start=1):
            if i:
                prod = prod * elementary_sym(i, alpha)
        for mono, coeff in prod.terms().items():
            exps = [0] * n
            for v, e in mono:
                exps[v.i - 1] = e
            mat[index[tuple(exps)]][col] = coeff
    inv = invert(mat)
    for row in inv:
        for entry in row:
            if entry.denominator != 1:
                raise RuntimeError(f"transition at n={n}, d={d} is not unimodular")
    inv_int = [[int(entry) for entry in row] for row in inv]
    result = (codes, monos, inv_int)
    _e_basis_cache[key] = result
    return result


def e_expand(p: Polynomial, n: int) -> MElement:
    """Write p in the basis of products e_{i_1}(x_1)...e_{i_n}(x_1..x_n).

    p must be an integer polynomial in x_1..x_n supported on exponents
    j_k <= n+1-k; the expansion is then unique with integer
    coefficients, returned as the code combination.
    """
    for v in p.variables():
        if v.kind != "x" or v.i > n:
            raise ValueError(f"e_expand needs a polynomial in x_1..x_{n}")
    out: dict[tuple[int, ...], int] = {}
    for deg, part in homogeneous_parts(p).items():
        codes, monos, inv = _e_basis(n, deg)
        index = {j: r for r, j in enumerate(monos)}
        b = [0] * len(monos)
        for mono, coeff in part.terms().items():
            exps = [0] * n
            for v, e in mono:
                exps[v.i - 1] = e
            row = index.get(tuple(exps))
            if row is None:
                raise ValueError(f"monomial {mono} lies outside the staircase for n={n}")
            b[row] = coeff
        for col, code in enumerate(codes):
            a = sum(inv[col][r] * b[r] for r in range(len(b)))
            if a:
                out[code] = a
    return MElement(out, n)
