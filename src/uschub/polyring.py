"""Exact sparse polynomial arithmetic in tagged variable families.

All coefficients are arbitrary-precision Python ints, so every operation
is exact.  Variables come from seven indexed families:

    c_i(j), d_i(j)    1 <= i <= j, graded degree i
    g_i[j], h_i[j]    i >= 1, j >= 0, graded degree j + 1
    x_i, y_i          i >= 1, graded degree 1
    q_i               i >= 1, caller-assigned degree (2 by default)

The conventions c_0(j) = 1 and c_i(j) = 0 for i < 0 or i > j live in
:func:`_chern_edge`, which :func:`cpoly` and the other expression-level
constructors read; a raw :class:`Variable` has indices in the legal range.

Variables are interned, one object per (kind, i, j, degree), so they are
compared and hashed by identity.  A monomial is a sorted tuple of
(variable, exponent) pairs and a polynomial is a dict from monomials to
nonzero ints.  Polynomials are treated as immutable values.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Iterable
from itertools import combinations, combinations_with_replacement, groupby
from operator import itemgetter

KINDS = "cdghxyq"
_KIND_RANK = {k: r for r, k in enumerate(KINDS)}
_PAIRED = frozenset("cdgh")


# Every memoized function of the package, in the order it was defined.
MEMOS: list = []


def memo(fn=None, *, maxsize: int | None = None, typed: bool = False):
    """``functools.lru_cache``, unbounded unless ``maxsize`` is given, that :func:`clear_caches` empties."""
    if fn is None:
        return functools.partial(memo, maxsize=maxsize, typed=typed)
    cached = functools.lru_cache(maxsize=maxsize, typed=typed)(fn)
    MEMOS.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo in the package."""
    for cached in MEMOS:
        cached.cache_clear()


# One Variable per (kind, i, j, degree); never emptied, as live polynomials rely on identity.
_INTERNED: dict[tuple, "Variable"] = {}


class Variable:
    """One interned tagged symbol.  Ordering is kind rank, then indices, then degree."""

    __slots__ = ("kind", "i", "j", "degree", "key", "_text", "_latex")

    def __new__(cls, kind: str, i: int, j: int | None, degree: int) -> "Variable":
        # before the lookup: 1.0 and True equal 1, so x1.0 or cTrue(2) would be interned under the key of x1 or c1(2)
        if not (type(i) is type(degree) is int and (j is None or type(j) is int)):
            raise TypeError(f"variable indices and degree must be ints, got {kind}, {i!r}, {j!r}, {degree!r}")
        ident = (kind, i, j, degree)
        v = _INTERNED.get(ident)
        if v is None:
            v = object.__new__(cls)
            key = (_KIND_RANK[kind], i, -1 if j is None else j, degree)
            for name, value in zip(cls.__slots__, (*ident, key)):
                object.__setattr__(v, name, value)
            # both names once per variable, not once per occurrence in a render
            object.__setattr__(v, "_text", v._name("", ""))
            object.__setattr__(v, "_latex", v._name("_{", "}"))
            # publish only a finished object, and keep the first if two threads race
            v = _INTERNED.setdefault(ident, v)
        return v

    def __setattr__(self, name, *value):
        raise AttributeError(f"Variable is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Variable, (self.kind, self.i, self.j, self.degree)

    def __lt__(self, other: "Variable") -> bool:
        return self.key < other.key

    def _name(self, left: str, right: str) -> str:
        """Kind, first index between ``left`` and ``right``, then (j) or [j] if paired."""
        if self.kind in "cd":
            return f"{self.kind}{left}{self.i}{right}({self.j})"
        if self.kind in "gh":
            return f"{self.kind}{left}{self.i}{right}[{self.j}]"
        return f"{self.kind}{left}{self.i}{right}"

    def text(self) -> str:
        return self._text

    def latex(self) -> str:
        return self._latex

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


# Products repeat: a cold bench query round makes 25-33 k (31 % miss); the x_2^40 walk in R_3, 2.69 M (196 k miss).
@memo(maxsize=1 << 11)
def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted monomials in one sweep; a variable on one side only keeps its input pair."""
    out: list[tuple[Variable, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        pa, pb = a[i], b[j]
        if pa[0] is pb[0]:
            out.append((pa[0], pa[1] + pb[1]))
            i, j = i + 1, j + 1
        elif pa[0].key < pb[0].key:
            out.append(pa)
            i += 1
        else:
            out.append(pb)
            j += 1
    return (*out, *a[i:], *b[j:])


def _mono_degree(m: Monomial) -> int:
    return sum(v.degree * e for v, e in m)


def _term_key(term: tuple[Monomial, int]):
    """Render order of a term: graded degree, then the (variable key, exponent) pairs, built in one pass."""
    degree, pairs = 0, []
    for v, e in term[0]:
        degree += v.degree * e
        pairs.append((v.key, e))
    return degree, pairs


class Polynomial:
    """Immutable sparse polynomial with int coefficients.

    Construction fills ``_terms`` only.  The hash, the sorted term order and
    the text are computed on first use and kept in their own slots, so a
    shared value (a memoized form, a specialization) pays for each once.
    """

    __slots__ = ("_terms", "_hash", "_order", "_text")

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if c}

    def __reduce__(self):
        # the terms only: a kept hash reads the identities of this process's variables
        return Polynomial, (self._terms,)

    # -- constructors -------------------------------------------------

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

    def sorted_terms(self) -> tuple[tuple[Monomial, int], ...]:
        """The terms in render order, sorted on first use and kept."""
        order = getattr(self, "_order", None)
        if order is None:
            self._order = order = tuple(sorted(self._terms.items(), key=_term_key))
        return order

    def variables(self) -> list[Variable]:
        """The distinct variables, in package order (smallest first)."""
        return sorted({v for m in self._terms for v, _ in m}, key=lambda v: v.key)

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

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, (Polynomial, int)):
            return NotImplemented
        return Polynomial.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, (Polynomial, int)):
            return NotImplemented
        return Polynomial.sum((self, -other))

    def __rsub__(self, other) -> "Polynomial":
        if not isinstance(other, (Polynomial, int)):
            return NotImplemented
        return Polynomial.sum((other, -self))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial({m: co * other for m, co in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Monomial, int] = {}
        add_product(acc, self, other)
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
        if isinstance(other, int):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            terms = self._terms
            # a constant hashes like the int it equals, as __eq__ requires
            constant = not terms or len(terms) == 1 and () in terms
            self._hash = h = hash(terms.get((), 0)) if constant else hash(frozenset(terms.items()))
        return h

    # -- structural operations ------------------------------------------

    def relabel(self, table: dict[Variable, tuple[Variable, int] | None]) -> "Polynomial":
        """Send each variable v of ``table`` to sign * w for its entry (w, sign), or to 0 for None, and keep
        every other variable.  A term maps to at most one term, so nothing is multiplied; variables that land on
        one variable add their exponents, in a sweep that runs only when the table lets two of them meet (a
        table that permutes its own keys never does)."""
        targets = {img[0] for img in table.values() if img}
        sweep = len(targets) < len(table) - [*table.values()].count(None) or not table.keys() >= targets
        image = table.get
        acc: dict[Monomial, int] = {}
        for m, co in self._terms.items():
            out = []
            for v, e in m:
                if (img := image(v, v)) is not v:  # v itself only when v is kept
                    if img is None:
                        break
                    v, sign = img
                    co *= sign ** e
                out.append((v, e))
            else:
                out.sort(key=lambda pair: pair[0].key)
                if sweep:  # sorted, so the variables that meet are neighbours
                    out = [(v, sum(e for _, e in run)) for v, run in groupby(out, itemgetter(0))]
                m = tuple(out)
                acc[m] = acc.get(m, 0) + co
        return Polynomial(acc)

    def rename_kind(self, src: str, dst: str) -> "Polynomial":
        """Send one paired family to another, e.g. every c_i(j) -> d_i(j)."""
        return self.relabel(_trade_table(self, {src: dst}))

    def swap_kinds(self, a: str, b: str) -> "Polynomial":
        """Exchange two paired families in one pass, e.g. c <-> d."""
        return self.relabel(_trade_table(self, {a: b, b: a}))

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
        text = getattr(self, "_text", None)
        if text is None:
            self._text = text = self.render(Variable.text, "*", "^{}")
        return text

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


ZERO = Polynomial()
ONE = Polynomial.one()


def _trade_table(p: Polynomial, trade: dict[str, str]) -> dict[Variable, tuple[Variable, int]]:
    """The relabel table moving each variable of ``p`` in a paired family to the family ``trade`` names."""
    if not set(trade) | set(trade.values()) <= _PAIRED:
        raise ValueError("kind renaming only applies to the c/d/g/h families")
    return {v: (Variable(trade[v.kind], v.i, v.j, v.degree), 1) for v in p.variables() if v.kind in trade}


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


def add_product(acc: dict[Monomial, int], a: "Polynomial | dict[Monomial, int]", b: Polynomial, scale: int = 1) -> None:
    """acc += scale * a * b, term by term, ``a`` a polynomial or its term dict: the one multiply-accumulate
    kernel.  Coefficients that cancel stay in ``acc`` as zeros; ``Polynomial(acc)`` drops them.
    """
    for m1, c1 in (a._terms if isinstance(a, Polynomial) else a).items():
        c1 *= scale
        for m2, c2 in b._terms.items():
            m = _mono_mul(m1, m2) if m1 and m2 else m1 or m2
            acc[m] = acc.get(m, 0) + c1 * c2


def determinant(mat: list[list[Polynomial]]) -> Polynomial:
    """The determinant of a square polynomial matrix, by Laplace expansion along the first row."""
    if not mat:
        return ONE
    return Polynomial.sum(
        entry * determinant([row[:col] + row[col + 1:] for row in mat[1:]]) * (-1) ** col
        for col, entry in enumerate(mat[0])
        if entry
    )


# -- convention-aware expression constructors ----------------------------

def _chern_edge(i: int, k: int) -> Polynomial | None:
    """c_i of a rank-k bundle where the convention fixes it: 1 at i = 0, 0 for i < 0 or i > k; None for 1..k."""
    return None if 0 < i <= k else ONE if i == 0 else ZERO


def _degree_one_family(kind: str, caller: str) -> Callable[[int], Variable]:
    if kind not in ("x", "y"):
        raise ValueError(f"{caller} expects the x or y family")
    return x if kind == "x" else y


def cpoly(i: int, j: int) -> Polynomial:
    """c_i(j) with the conventions c_0 = 1 and out-of-range = 0."""
    if (edge := _chern_edge(i, j)) is not None:
        return edge
    return Polynomial.var(c(i, j))


def dpoly(i: int, j: int) -> Polynomial:
    if (edge := _chern_edge(i, j)) is not None:
        return edge
    return Polynomial.var(d(i, j))


def elementary_sym(i: int, k: int, offset: int = 0, kind: str = "x") -> Polynomial:
    """e_i over the window of k variables of a degree-1 family starting after ``offset``."""
    mk = _degree_one_family(kind, "elementary_sym")
    if (edge := _chern_edge(i, k)) is not None:
        return edge
    acc: dict[Monomial, int] = {}
    for combo in combinations(range(offset + 1, offset + k + 1), i):
        m = tuple((mk(idx), 1) for idx in combo)
        acc[m] = 1
    return Polynomial(acc)


def complete_sym(p: int, k: int, offset: int = 0, kind: str = "y") -> Polynomial:
    """h_p over the window of k variables starting after ``offset``."""
    mk = _degree_one_family(kind, "complete_sym")
    if p < 0:  # combinations_with_replacement refuses a negative length
        return ZERO
    # each multiset is one sorted combination, so each monomial occurs once, with coefficient 1
    return Polynomial({
        tuple((mk(idx), len(list(run))) for idx, run in groupby(combo)): 1
        for combo in combinations_with_replacement(range(offset + 1, offset + k + 1), p)
    })


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


# A session parses the same texts again: a cold bench query round (seeds 1-3) parses 120, 64-67 of them repeats.
@memo(maxsize=1 << 9, typed=True)
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


_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")  # what int() reads in base 10: a JSON coefficient's text


def parse_json(data: dict | str) -> Polynomial:
    """Inverse of :meth:`Polynomial.to_json`; repeated variables merge, zero exponents drop.  A missing or ill-typed
    field raises ValueError naming it: a coefficient is an int or its text, any other number an int, exponents >= 0."""
    if isinstance(data, str):
        import json

        data = json.loads(data)

    def field(entry, key: str, ok: Callable[[object], bool] = lambda v: type(v) is int):  # a bool is no int
        if not ok(value := entry.get(key) if isinstance(entry, dict) else None):
            raise ValueError(f"polynomial JSON field {key!r} is missing or malformed in {entry!r}")
        return value

    acc: dict[Monomial, int] = {}
    for t in field(data, "terms", lambda v: type(v) is list):
        coeff = int(field(t, "coeff", lambda v: type(v) is int or type(v) is str and _INT_TEXT.fullmatch(v)))
        exps: dict[Variable, int] = {}
        for v in field(t, "vars", lambda v: type(v) is list):
            kind = field(v, "kind", lambda k: type(k) is str and k in _VARIABLE)
            indices = ("i", "j") if kind in _PAIRED else ("i", "degree") if kind == "q" and "degree" in v else ("i",)
            if stray := [key for key in v if key not in ("kind", "exp", *indices)]:
                raise ValueError(f"polynomial JSON field {stray[0]!r} does not belong to a {kind}-variable")
            exp = field(v, "exp", lambda e: type(e) is int and e >= 0)
            var = _VARIABLE[kind](*(field(v, key) for key in indices))
            exps[var] = exps.get(var, 0) + exp
        m = tuple(sorted(((var, e) for var, e in exps.items() if e), key=lambda p: p[0].key))
        acc[m] = acc.get(m, 0) + coeff
    return Polynomial(acc)
