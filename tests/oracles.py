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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _itproduct

from uschub.permutations import Permutation
from uschub.polyring import ONE, Monomial, Polynomial, _mono_degree, elementary_sym, x, y
from uschub.schubert import MElement, divided_difference
from uschub.uring import RingElement, UniversalRing, _top_staircase

_classical_double_cache: dict[tuple[int, ...], Polynomial] = {}
_e_basis_cache: dict[tuple[int, int], tuple] = {}


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


def d_to_y(p: Polynomial) -> Polynomial:
    """Substitute every d_i(j) by the elementary symmetric e_i(y_1..y_j)."""
    mapping = {
        v: elementary_sym(v.i, v.j, kind="y")
        for v in p.variables()
        if v.kind == "d"
    }
    return p.substitute(mapping.get)


def inner_product_full(ring: UniversalRing, a: RingElement, b: RingElement) -> Polynomial:
    return ring.multiply(a, b).coefficient(_top_staircase(ring.n))


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
