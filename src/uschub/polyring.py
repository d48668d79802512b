"""Exact sparse polynomial arithmetic in tagged variable families.

All coefficients are arbitrary-precision Python ints, so every operation
is exact.  Variables come from seven indexed families:

    c_i(j), d_i(j)    1 <= i <= j, graded degree i
    g_i[j], h_i[j]    i >= 1, j >= 0, graded degree j + 1
    x_i, y_i          i >= 1, graded degree 1
    q_i               i >= 1, caller-assigned degree (2 by default)

The conventions c_0(j) = 1 and c_i(j) = 0 for i < 0 or i > j are applied
by the expression-level constructors :func:`cpoly` and friends; a raw
:class:`Variable` always has indices inside the legal range.

A monomial is a sorted tuple of (variable, exponent) pairs and a
polynomial is a dict from monomials to nonzero ints.  Polynomials are
treated as immutable values.
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

KINDS = "cdghxyq"
_KIND_RANK = {k: r for r, k in enumerate(KINDS)}
_PAIRED = frozenset("cdgh")


# Every memoized function of the package, in the order it was defined.
MEMOS: list = []


def memo(fn):
    """``functools.cache`` whose cache :func:`clear_caches` empties."""
    cached = functools.cache(fn)
    MEMOS.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo in the package."""
    for cached in MEMOS:
        cached.cache_clear()


class ExactDivisionError(ArithmeticError):
    """Raised when a supposedly exact polynomial division leaves a remainder."""


@dataclass(frozen=True)
class Variable:
    """One tagged symbol.  Ordering is kind rank, then indices, then degree."""

    kind: str
    i: int
    j: int | None
    degree: int

    def sort_key(self) -> tuple[int, int, int, int]:
        return (_KIND_RANK[self.kind], self.i, -1 if self.j is None else self.j, self.degree)

    def __lt__(self, other: "Variable") -> bool:
        return self.sort_key() < other.sort_key()

    def _name(self, left: str, right: str) -> str:
        """Kind, first index between ``left`` and ``right``, then (j) or [j] if paired."""
        if self.kind in "cd":
            return f"{self.kind}{left}{self.i}{right}({self.j})"
        if self.kind in "gh":
            return f"{self.kind}{left}{self.i}{right}[{self.j}]"
        return f"{self.kind}{left}{self.i}{right}"

    def text(self) -> str:
        return self._name("", "")

    def latex(self) -> str:
        return self._name("_{", "}")

    def __repr__(self) -> str:
        return self.text()


def c(i: int, j: int) -> Variable:
    if not 1 <= i <= j:
        raise ValueError(f"c-variable needs 1 <= i <= j, got c{i}({j})")
    return Variable("c", i, j, i)


def d(i: int, j: int) -> Variable:
    if not 1 <= i <= j:
        raise ValueError(f"d-variable needs 1 <= i <= j, got d{i}({j})")
    return Variable("d", i, j, i)


def g(i: int, j: int) -> Variable:
    if i < 1 or j < 0:
        raise ValueError(f"g-variable needs i >= 1, j >= 0, got g{i}[{j}]")
    return Variable("g", i, j, j + 1)


def h(i: int, j: int) -> Variable:
    if i < 1 or j < 0:
        raise ValueError(f"h-variable needs i >= 1, j >= 0, got h{i}[{j}]")
    return Variable("h", i, j, j + 1)


def x(i: int) -> Variable:
    if i < 1:
        raise ValueError(f"x-variable needs i >= 1, got x{i}")
    return Variable("x", i, None, 1)


def y(i: int) -> Variable:
    if i < 1:
        raise ValueError(f"y-variable needs i >= 1, got y{i}")
    return Variable("y", i, None, 1)


def q(i: int, degree: int = 2) -> Variable:
    if i < 1 or degree < 1:
        raise ValueError(f"q-variable needs i >= 1 and a positive degree, got q{i} deg {degree}")
    return Variable("q", i, None, degree)


Monomial = tuple[tuple[Variable, int], ...]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc: dict[Variable, int] = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda p: p[0].sort_key()))


def _mono_degree(m: Monomial) -> int:
    return sum(v.degree * e for v, e in m)


def _mono_key(m: Monomial):
    return (_mono_degree(m), tuple((v.sort_key(), e) for v, e in m))


class Polynomial:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): 1})

    @classmethod
    def const(cls, n: int) -> "Polynomial":
        return cls({(): n})

    @classmethod
    def var(cls, v: Variable) -> "Polynomial":
        return cls({((v, 1),): 1})

    @classmethod
    def sum(cls, parts: Iterable["Polynomial | int"]) -> "Polynomial":
        """The sum of polynomials and ints, in one pass over their terms."""
        acc: dict[Monomial, int] = {}
        for part in parts:
            if isinstance(part, int):
                part = cls.const(part)
            for m, co in part._terms.items():
                acc[m] = acc.get(m, 0) + co
        return cls(acc)

    # -- basic queries -------------------------------------------------

    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda t: _mono_key(t[0]))

    def variables(self) -> set[Variable]:
        return {v for m in self._terms for v, _ in m}

    def degree(self) -> int:
        """Graded degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(_mono_degree(m) for m in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.const(other)
        return None

    def __add__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for m, co in o._terms.items():
            acc[m] = acc.get(m, 0) + co
        return Polynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -co for m, co in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for m, co in o._terms.items():
            acc[m] = acc.get(m, 0) - co
        return Polynomial(acc)

    def __rsub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial({m: co * other for m, co in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms or not other._terms:
            return Polynomial()
        acc: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative powers are not defined")
        result = Polynomial.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a constant hashes like the int it equals, as __eq__ requires
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and () in self._terms:
            return hash(self._terms[()])
        return hash(frozenset(self._terms.items()))

    # -- structural operations ------------------------------------------

    def substitute(self, image: Callable[[Variable], "Polynomial | int | None"]) -> "Polynomial":
        """Ring homomorphism sending each variable v to ``image(v)``; None keeps v.

        ``image`` is called once per distinct variable; when it maps none,
        the polynomial itself is returned.
        """
        imgs: dict[Variable, Polynomial] = {}
        for v in self.variables():
            img = image(v)
            if img is not None:
                imgs[v] = img if isinstance(img, Polynomial) else Polynomial.const(img)
        if not imgs:
            return self
        parts = []
        for m, co in self._terms.items():
            kept: list[tuple[Variable, int]] = []
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

    def _relabel(self, trade: dict[str, str]) -> "Polynomial":
        """Move every variable of a paired family to the family ``trade`` names for it."""
        if not set(trade) | set(trade.values()) <= _PAIRED:
            raise ValueError("kind renaming only applies to the c/d/g/h families")
        return self.substitute(
            lambda v: Polynomial.var(Variable(trade[v.kind], v.i, v.j, v.degree)) if v.kind in trade else None
        )

    def rename_kind(self, src: str, dst: str) -> "Polynomial":
        """Send one paired family to another, e.g. every c_i(j) -> d_i(j)."""
        return self._relabel({src: dst})

    def swap_kinds(self, a: str, b: str) -> "Polynomial":
        """Exchange two paired families in one pass, e.g. c <-> d."""
        return self._relabel({a: b, b: a})

    def coefficients_by(self, kinds: str) -> dict[Monomial, "Polynomial"]:
        """Split into {monomial in the given kinds: cofactor polynomial}."""
        out: dict[Monomial, dict[Monomial, int]] = {}
        for m, co in self._terms.items():
            part = tuple((v, e) for v, e in m if v.kind in kinds)
            rest = tuple((v, e) for v, e in m if v.kind not in kinds)
            out.setdefault(part, {})[rest] = co
        return {part: Polynomial(t) for part, t in out.items()}

    # -- printing and parsing -------------------------------------------

    def render(self, name: Callable[[Variable], str], times: str, power: str) -> str:
        """Signed sum of the sorted terms: variables printed by ``name``, joined by
        ``times``, exponents above 1 through the ``power`` format."""
        return signed_sum([
            (times.join([name(v) if e == 1 else name(v) + power.format(e) for v, e in m]), co)
            for m, co in self.sorted_terms()
        ], times)

    def text(self) -> str:
        return self.render(Variable.text, "*", "^{}")

    def latex(self) -> str:
        return self.render(Variable.latex, " ", "^{{{}}}")

    def to_json(self) -> dict:
        terms = []
        for m, co in self.sorted_terms():
            vars_out = []
            for v, e in m:
                entry: dict = {"kind": v.kind, "i": v.i}
                if v.j is not None:
                    entry["j"] = v.j
                if v.kind == "q":
                    entry["degree"] = v.degree
                entry["exp"] = e
                vars_out.append(entry)
            terms.append({"coeff": str(co), "vars": vars_out})
        return {"terms": terms}

    def __repr__(self) -> str:
        return self.text()


ZERO = Polynomial.zero()
ONE = Polynomial.one()


def signed_sum(terms: Iterable[tuple[str, int]], times: str) -> str:
    """Print ordered (body, coeff) pairs as ``a - 2*b + c``; an empty body is the unit."""
    chunks: list[str] = []
    for body, co in terms:
        mag = abs(co)
        piece = body if mag == 1 and body else f"{mag}{times}{body}" if body else str(mag)
        if chunks:
            chunks.append((" - " if co < 0 else " + ") + piece)
        else:
            chunks.append("-" + piece if co < 0 else piece)
    return "".join(chunks) or "0"


def sum_by_key(pairs: Iterable[tuple[object, Polynomial]]) -> dict:
    """Sum the polynomials that share a key, one :meth:`Polynomial.sum` per key.

    Keys whose sum is zero are left out.
    """
    groups: dict = {}
    for key, poly in pairs:
        groups.setdefault(key, []).append(poly)
    return {key: total for key, group in groups.items() if (total := Polynomial.sum(group))}


# -- convention-aware expression constructors ----------------------------

def cpoly(i: int, j: int) -> Polynomial:
    """c_i(j) with the conventions c_0 = 1 and out-of-range = 0."""
    if i == 0:
        return ONE
    if i < 0 or i > j:
        return ZERO
    return Polynomial.var(c(i, j))


def dpoly(i: int, j: int) -> Polynomial:
    if i == 0:
        return ONE
    if i < 0 or i > j:
        return ZERO
    return Polynomial.var(d(i, j))


def elementary_sym(i: int, k: int, offset: int = 0, kind: str = "x") -> Polynomial:
    """e_i over the window of k variables of a degree-1 family starting after ``offset``."""
    if kind not in ("x", "y"):
        raise ValueError("elementary_sym expects the x or y family")
    if i == 0:
        return ONE
    if i < 0 or i > k:
        return ZERO
    mk = x if kind == "x" else y
    acc: dict[Monomial, int] = {}
    for combo in combinations(range(offset + 1, offset + k + 1), i):
        m = tuple((mk(idx), 1) for idx in combo)
        acc[m] = 1
    return Polynomial(acc)


def complete_sym(p: int, k: int, offset: int = 0, kind: str = "y") -> Polynomial:
    """h_p over the window of k variables starting after ``offset``."""
    if kind not in ("x", "y"):
        raise ValueError("complete_sym expects the x or y family")
    if p == 0:
        return ONE
    if p < 0 or k <= 0:
        return ZERO
    mk = x if kind == "x" else y
    acc: dict[Monomial, int] = {}
    for combo in combinations_with_replacement(range(offset + 1, offset + k + 1), p):
        counts: dict[int, int] = {}
        for idx in combo:
            counts[idx] = counts.get(idx, 0) + 1
        m = tuple((mk(idx), e) for idx, e in sorted(counts.items()))
        acc[m] = acc.get(m, 0) + 1
    return Polynomial(acc)


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<var>[cd]\d+\(\d+\)|[gh]\d+\[\d+\]|[xyq]\d+)"
    r"|(?P<num>\d+)"
    r"|(?P<op>[+\-*^])"
    r")"
)

# Variable constructors by kind; their arguments are the indices, then a q-degree.
_VARIABLE = {"c": c, "d": d, "g": g, "h": h, "x": x, "y": y, "q": q}


def _tokenize(s: str) -> list:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial text near {s[pos:pos+12]!r}")
        pos = m.end()
        if m.group("var"):
            name = m.group("var")
            tokens.append(("var", _VARIABLE[name[0]](*map(int, re.findall(r"\d+", name)))))
        elif m.group("num"):
            tokens.append(("num", int(m.group("num"))))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_text(s: str) -> Polynomial:
    """Inverse of :meth:`Polynomial.text` (q-degrees read as the default).

    The text is a sum of signed products::

        text   := sign* term (sign+ term)*        sign := '+' | '-'
        term   := factor ('*' factor)*
        factor := integer | variable ['^' integer]

    Anything else, such as a stray '^', a trailing '*' or two factors
    side by side with no operator, raises ValueError.
    """
    tokens = _tokenize(s)
    if not tokens:
        raise ValueError("empty polynomial text")
    tokens.append(("end", None))
    idx = 0

    def fail(expected: str):
        kind, val = tokens[idx]
        found = "the end of the text" if kind == "end" else repr(str(val))
        raise ValueError(f"expected {expected} in polynomial text, found {found}")

    def factor() -> Polynomial:
        nonlocal idx
        kind, val = tokens[idx]
        if kind not in ("num", "var"):
            fail("a number or a variable")
        idx += 1
        if kind == "num":
            return Polynomial.const(val)
        if tokens[idx] != ("op", "^"):
            return Polynomial.var(val)
        idx += 1
        if tokens[idx][0] != "num":
            fail("an integer exponent after '^'")
        idx += 1
        return Polynomial.var(val) ** tokens[idx - 1][1]

    terms = []
    while True:
        sign = 1
        while tokens[idx] in (("op", "+"), ("op", "-")):
            sign = -sign if tokens[idx][1] == "-" else sign
            idx += 1
        term = factor() * sign
        while tokens[idx] == ("op", "*"):
            idx += 1
            term = term * factor()
        terms.append(term)
        if tokens[idx][0] == "end":
            return Polynomial.sum(terms)
        if tokens[idx] not in (("op", "+"), ("op", "-")):
            fail("'+', '-' or '*'")


def parse_json(data: dict | str) -> Polynomial:
    """Inverse of :meth:`Polynomial.to_json`."""
    if isinstance(data, str):
        data = json.loads(data)
    acc: dict[Monomial, int] = {}
    for t in data["terms"]:
        coeff = int(t["coeff"])
        pairs: list[tuple[Variable, int]] = []
        for v in t["vars"]:
            make = _VARIABLE.get(v["kind"])
            if make is None:
                raise ValueError(f"unknown variable kind {v['kind']!r}")
            pairs.append((make(v["i"], *(v[key] for key in ("j", "degree") if key in v)), v["exp"]))
        m = tuple(sorted(pairs, key=lambda p: p[0].sort_key()))
        acc[m] = acc.get(m, 0) + coeff
    return Polynomial(acc)


# -- exact division by a variable difference -------------------------------

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
        raise ExactDivisionError("division by variable difference left a remainder")
    return Polynomial.sum(parts)
