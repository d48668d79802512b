"""Permutations in one-line notation, with the combinatorics the calculator needs.

A permutation is stored as its one-line word with trailing fixed points
trimmed, so (2,1,3,4) and (2,1) are the same object.  Values act on all
positive integers; positions beyond the stored word are fixed.

Conventions used throughout:

    length          number of inversions
    descents        positions k with w(k) > w(k+1)
    lehmer_code     L_k = #{j > k : w(j) < w(k)}
    code_tail(n)    i_k = #{j <= k : w(j) > w(k+1)}, for w in S_{n+1};
                    the sequence (i_1, ..., i_n) satisfies i_k <= k and
                    determines w
    codiagram(n)    D'(w) = {(i,j) : w(i+1) <= j, w^{-1}(j+1) <= i},
                    drawn inside the n x n grid
"""

from __future__ import annotations

from itertools import combinations, permutations as _itperms

from .polyring import memo


def _trim(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    while n > 0 and word[n - 1] == n:
        n -= 1
    return word[:n]


class Permutation:
    """An immutable permutation; a word from outside is checked, a derived one is trusted."""

    __slots__ = ("_w",)

    def __init__(self, word):
        word = tuple(word)
        # before the sort, which takes (2.0, 1) for a permutation
        if not {int}.issuperset(map(type, word)):
            raise TypeError(f"permutation entries must be ints: {word}")
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation word: {word}")
        object.__setattr__(self, "_w", _trim(word))

    @classmethod
    def _of(cls, word: tuple[int, ...]) -> "Permutation":
        """Wrap a word this module derived from valid ones, trimming it without the sort."""
        p = object.__new__(cls)
        object.__setattr__(p, "_w", _trim(word))
        return p

    def __setattr__(self, name, *value):
        raise AttributeError(f"Permutation is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Permutation, (self._w,)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls) -> "Permutation":
        return cls._of(())

    @classmethod
    def s(cls, k: int) -> "Permutation":
        """Adjacent transposition swapping k and k+1."""
        return cls.t(k, k + 1)

    @classmethod
    @memo(typed=True)  # typed: t(1.0, 2) and t(True, 2) miss the (1, 2) entry and fail in the body
    def t(cls, a: int, b: int) -> "Permutation":
        """Transposition swapping a and b, one shared object per pair."""
        if a == b or a < 1 or b < 1:
            raise ValueError(f"bad transposition ({a}, {b})")
        a, b = min(a, b), max(a, b)
        word = list(range(1, b + 1))
        word[a - 1], word[b - 1] = b, a
        return cls(word)  # the checking constructor, which refuses t(True, 2); once per pair

    @classmethod
    def longest(cls, m: int) -> "Permutation":
        """The order-reversing word (m, m-1, ..., 1)."""
        return cls._of(tuple(range(m, 0, -1)))

    @classmethod
    def longest_with_descents_in(cls, N: tuple[int, ...]) -> "Permutation":
        """Maximal-length permutation whose descents lie inside N.

        N = (n_1 < ... < n_l) gives the block sizes; the word sends
        n_{p-1} + i to n_l - n_p + i for 1 <= i <= n_p - n_{p-1}.
        """
        N = tuple(sorted(set(N)))
        if not N or N[0] < 1:
            raise ValueError("need a nonempty set of positive cut points")
        nl = N[-1]
        word: list[int] = []
        prev = 0
        for np in N:
            word.extend(range(nl - np + 1, nl - np + (np - prev) + 1))
            prev = np
        return cls._of(tuple(word))

    @classmethod
    def from_lehmer(cls, code: tuple[int, ...]) -> "Permutation":
        remaining = list(range(1, len(code) + 1))
        word = []
        for L in code:
            if L >= len(remaining):
                raise ValueError(f"invalid Lehmer code {code}")
            word.append(remaining.pop(L))
        return cls._of(tuple(word))

    # -- basic structure --------------------------------------------------

    @property
    def word(self) -> tuple[int, ...]:
        return self._w

    @property
    def size(self) -> int:
        """Length of the trimmed word (0 for the identity)."""
        return len(self._w)

    def as_tuple(self, n: int) -> tuple[int, ...]:
        if n < len(self._w):
            raise ValueError(f"{self} does not fit in S_{n}")
        return self._w + tuple(range(len(self._w) + 1, n + 1))

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError("positions are 1-based")
        return self._w[i - 1] if i <= len(self._w) else i

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._w == other._w

    def __hash__(self):
        return hash(self._w)

    def __repr__(self) -> str:
        return "(" + ",".join(map(str, self._w)) + ")" if self._w else "(id)"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (u * v)(i) = u(v(i))."""
        u, v = self._w, other._w
        if len(v) > len(u):  # u fixes every point past its word
            u += tuple(range(len(u) + 1, len(v) + 1))
        return Permutation._of(tuple([u[j - 1] for j in v]) + u[len(v):])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._w)
        for i, v in enumerate(self._w, start=1):
            inv[v - 1] = i
        return Permutation._of(tuple(inv))

    def length(self) -> int:
        w = self._w
        return sum(1 for i, j in combinations(range(len(w)), 2) if w[i] > w[j])

    def descents(self) -> tuple[int, ...]:
        w = self._w + (len(self._w) + 1,)
        return tuple(k for k in range(1, len(self._w) + 1) if w[k - 1] > w[k])

    def left_descents(self) -> frozenset[int]:
        """The values k standing right of k+1: the descents of the inverse."""
        seen: set[int] = set()
        out = []
        for v in self._w:
            if v + 1 in seen:
                out.append(v)
            seen.add(v)
        return frozenset(out)

    def has_descents_only_in(self, N) -> bool:
        allowed = set(N)
        return all(k in allowed for k in self.descents())

    def is_identity(self) -> bool:
        return not self._w

    # -- codes -------------------------------------------------------------

    def lehmer_code(self) -> tuple[int, ...]:
        w = self._w
        n = len(w)
        return tuple(sum(1 for j in range(k + 1, n) if w[j] < w[k]) for k in range(n))

    def code_tail(self, n: int) -> tuple[int, ...]:
        """The bounded code (i_1, ..., i_n) of w viewed in S_{n+1}."""
        w = self.as_tuple(n + 1)
        return tuple(
            sum(1 for j in range(k) if w[j] > w[k]) for k in range(1, n + 1)
        )

    @classmethod
    def from_code_tail(cls, code: tuple[int, ...]) -> "Permutation":
        """Inverse of :meth:`code_tail`: recovers w in S_{n+1} from (i_1..i_n)."""
        return _from_reversed_code(check_code(code)[::-1])

    # -- diagrams ------------------------------------------------------------

    def codiagram(self, n: int) -> frozenset[tuple[int, int]]:
        w, inv = self.as_tuple(n + 1), self.inverse().as_tuple(n + 1)
        return frozenset(
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if w[i] <= j and inv[j] <= i
        )

    # -- pattern conditions -----------------------------------------------

    def contains_pattern(self, pattern: tuple[int, ...]) -> bool:
        w = self._w
        k = len(pattern)
        rel = tuple(sorted(range(k), key=lambda i: pattern[i]))
        for pos in combinations(range(len(w)), k):
            vals = [w[p] for p in pos]
            if tuple(sorted(range(k), key=lambda i: vals[i])) == rel:
                return True
        return False

    def is_vexillary(self) -> bool:
        return not self.contains_pattern((2, 1, 4, 3))

    def is_grassmannian(self) -> bool:
        return len(self.descents()) <= 1

    def grassmannian_data(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """For a Grassmannian permutation: (descent r, shape, conjugate shape, flag).

        The flag has one entry per part of the conjugate shape and is
        read off the Lehmer code of the inverse: entry for a nonzero
        code position i is max{j >= i : code_j >= code_i}.  The
        identity reports (0, (), (), ()).
        """
        des = self.descents()
        if len(des) > 1:
            raise ValueError(f"{self} has more than one descent")
        r = max(des, default=0)  # the identity's r = 0 leaves every part empty
        lam = tuple(self(r + 1 - i) - (r + 1 - i) for i in range(1, r + 1))
        lam = lam[: next((i for i, p in enumerate(lam) if p == 0), len(lam))]
        mu = conjugate(lam)
        code = self.inverse().lehmer_code()
        phi = tuple(
            max(j + 1 for j in range(i, len(code)) if code[j] >= code[i])
            for i in range(len(code))
            if code[i] > 0
        )
        return (r, lam, mu, phi)


def check_code(code) -> tuple[int, ...]:
    """The code (i_1, ..., i_n) as a tuple, once each entry is checked: an int (a bool is not) with 0 <= i_k <= k."""
    code = tuple(code)
    for k, ik in enumerate(code, start=1):  # one pass: the ladder checks every code of every level it builds
        if type(ik) is not int:
            raise TypeError(f"code entries must be ints: {code}")
        if not 0 <= ik <= k:
            raise ValueError(f"entry i_{k} = {ik} outside 0..{k}")
    return code


# In a cold bench ``query`` round 94 % of the calls repeat a code already
# decoded in that round (3 rounds, seed 1: 1,979 hits, 128 misses).  Entries are checked before the lookup.
@memo(maxsize=1 << 12)
def _from_reversed_code(lehmer: tuple[int, ...]) -> Permutation:
    """w = w0 v w0 in S_m, m = n+1, where v has Lehmer code (i_n, ..., i_1, 0): w(i) = m+1 - v(m+1-i)."""
    m = len(lehmer) + 1
    v = Permutation.from_lehmer(lehmer + (0,)).as_tuple(m)
    return Permutation._of(tuple(m + 1 - v[m - i] for i in range(1, m + 1)))


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, max(lam, default=0) + 1))


def all_perms(n: int):
    """All of S_n in lexicographic one-line order."""
    for word in _itperms(range(1, n + 1)):
        yield Permutation._of(word)


def parse_oneline(text: str) -> Permutation:
    """Read a one-line word, either comma-separated or as a digit string."""
    text = text.strip()
    parts = text.split(",") if "," in text else list(text)
    if not parts or not all(part.strip().isdecimal() for part in parts):
        raise ValueError(f"cannot read permutation from {text!r}")
    return Permutation(int(part) for part in parts)
