"""The three benchmark workloads: the seeded round of requests, how each
request is served, and the correctness gate that checks the outputs after
timing.

Each workload is a closed loop with one client: the next request is sent only
after the previous one has returned, as with a calculator whose caller waits
for the answer.  A run serves several rounds of requests, each drawn from the
seed (see ``run.py``); the package sees only the generated inputs.

``query``  one in-process library session per round; caches start empty and
           persist for the round.
``ring``   computations in R_3: one pass from cold, then the same pass warm.
``cli``    one fresh ``python -m uschub.cli`` process per request.

The traffic mix (verb shares, group shares, the Zipf exponent, the heavy,
error-path and malformed shares of ``cli``) is synthetic: the repository
records no usage, so the shares are chosen to give every layer a real share
of the time, and are fixed per round so that every seed carries the same mix.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from bisect import bisect_right
from collections import namedtuple
from itertools import permutations as _itperms

from tracing import TRACE_PREFIX

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _inversions(word: tuple[int, ...]) -> int:
    return sum(1 for a in range(len(word)) for b in range(a + 1, len(word)) if word[a] > word[b])


def _word_text(word: tuple[int, ...]) -> str:
    return ",".join(map(str, word))


def _quota(rng: random.Random, weights: tuple[tuple[str, int], ...], size: int) -> list[str]:
    """``size`` labels in a seeded order, each label exactly in proportion to its weight."""
    total = sum(w for _, w in weights)
    labels = [label for label, w in weights for _ in range(w * size // total)]
    labels += [weights[0][0]] * (size - len(labels))
    rng.shuffle(labels)
    return labels


def _zipf_cum(count: int, exponent: float) -> list[float]:
    cum, total = [], 0.0
    for rank in range(1, count + 1):
        total += rank ** -exponent
        cum.append(total)
    return cum


def _stratified(rng: random.Random, cum: list[float], count: int) -> list[int]:
    """``count`` draws of an index by the cumulative weights ``cum``, in a seeded order.

    Systematic sampling: evenly spaced points behind one random offset, so
    every seed draws each index as often as its weight says, up to one draw.
    """
    total, offset = cum[-1], rng.random()
    picks = [min(bisect_right(cum, (k + offset) * total / count), len(cum) - 1) for k in range(count)]
    rng.shuffle(picks)
    return picks


class Popularity:
    """Skewed popularity of the permutations of S_m, m in the given groups.

    A group has a fixed share, a length class inside it a share in
    proportion to the class size, and a member of the class a Zipf weight
    by its rank in a seeded order.  The shares keep the cost mix the same
    from seed to seed while the Zipf ranks make a few members popular.
    ``lengths`` limits the length classes of a group.
    """

    EXPONENT = 1.1

    def __init__(self, rng: random.Random, shares: dict[int, float], lengths: dict[int, frozenset] | None = None):
        self.shares = shares
        self.weights: dict[int, list[tuple[tuple[int, ...], float]]] = {}
        for m in sorted(shares):
            by_len: dict[int, list[tuple[int, ...]]] = {}
            for word in _itperms(range(1, m + 1)):
                length = _inversions(word)
                if lengths is None or m not in lengths or length in lengths[m]:
                    by_len.setdefault(length, []).append(word)
            size = sum(len(words) for words in by_len.values())
            self.weights[m] = []
            for length in sorted(by_len):
                words = by_len[length]
                rng.shuffle(words)
                zipf = [rank ** -self.EXPONENT for rank in range(1, len(words) + 1)]
                scale = len(words) / size / sum(zipf)
                self.weights[m] += [(word, z * scale) for word, z in zip(words, zipf)]

    def draws(self, rng: random.Random, count: int, groups=None) -> list[tuple[int, tuple[int, ...]]]:
        """``count`` stratified draws of (m, word) from the given groups, in a seeded order."""
        groups = sorted(groups or self.shares)
        share = sum(self.shares[g] for g in groups)
        pool, cum, total = [], [], 0.0
        for m in groups:
            for word, weight in self.weights[m]:
                total += weight * self.shares[m] / share
                pool.append((m, word))
                cum.append(total)
        return [pool[i] for i in _stratified(rng, cum, count)]


def _c_g_expression(rng: random.Random, max_point: int, g_share: float = 0.3) -> str:
    """Sum of 1-3 signed products of c_i(j), sometimes with a g factor.

    Points are drawn from a narrow range so that same-point products, which
    ``expand`` must eliminate first, are common.  Three factors stay at points
    <= 2: three at point 3 or 4 cascade into point 5, and the first such
    request builds the S_6 tables, seconds long.
    """
    terms = []
    for _ in range(rng.randint(1, 3)):
        count = rng.randint(1, 3)
        top = min(max_point, 2) if count == 3 else max_point
        factors = []
        for _ in range(count):
            j = rng.randint(max(1, top - 1), top)
            factors.append(f"c{rng.randint(1, j)}({j})")
        if rng.random() < g_share:
            factors.append(f"g{rng.randint(1, 3)}[{rng.randint(1, 2)}]")
        coeff = rng.choice((1, 1, 1, 2, 3))
        terms.append(("" if coeff == 1 else f"{coeff}*") + "*".join(factors))
    return _join_terms(rng, terms)


def _join_terms(rng: random.Random, terms: list[str]) -> str:
    out = terms[0]
    for term in terms[1:]:
        out += rng.choice((" + ", " - ")) + term
    return out


def _ring_expression(rng: random.Random, n: int, max_degree: int, with_c: bool) -> str:
    """Sum of 1-4 signed monomials in x, g+ (and c) of degree at most max_degree."""
    top = n + 1
    factors = [(f"x{i}", 1) for i in range(1, top + 1)]
    factors += [(f"g{s}[{t}]", t + 1) for t in range(1, top) for s in range(1, top - t + 1)]
    if with_c:
        factors += [(f"c{i}({j})", i) for j in range(1, top + 1) for i in range(1, j + 1)]
    terms = []
    for _ in range(rng.randint(1, 4)):
        budget = rng.randint(1, max_degree)
        chosen = []
        while budget > 0:
            name, deg = rng.choice(factors)
            if deg > budget:
                break
            chosen.append(name)
            budget -= deg
        if not chosen:
            chosen.append("x1")
        coeff = rng.choice((1, 1, 2, 3))
        terms.append(("" if coeff == 1 else f"{coeff}*") + "*".join(chosen))
    return _join_terms(rng, terms)


def digest(keys_and_outputs) -> str:
    h = hashlib.sha256()
    for key, output in keys_and_outputs:
        h.update(repr(key).encode())
        h.update(b"\0")
        h.update(str(output).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- query --------------------------------------------------------------------------

class QueryWorkload:
    """An in-process library session over S_4..S_6 with mixed verbs.

    A round is ``ROUND`` requests with each verb's share exact.  ``single`` and
    ``classical`` draw from S_4..S_6, the other verbs from S_4..S_5: on S_6 one
    cold double costs 1-6 s, and one g-form or one search that finds no
    determinant up to 2 s, uncached, so a few popular words would decide the
    round.  S_6 words have length <= 4 or >= 11: the ``_e_basis`` tables of
    those degrees cost about a second from cold, where each middle degree
    costs 1-2.5 s and would make a round too long to repeat.  ``expand``
    draws from a catalog of expressions with points <= 3.

    The popularity ranking and the catalog come from a fixed seed: the cost
    of a word or an expression varies tenfold, so a ranking drawn per seed
    moved the median latency by a quarter from seed to seed.  For the same
    reason the flag cuts and locus ranks of a word are fixed (drawn from the
    word).  The seed of a round sets its order, its sampling offsets
    and the product-rule indices.
    """

    name = "query"
    ROUND = 1000
    round_s = 2.5
    min_rounds = 3
    max_rounds = None
    reset_each_round = True
    VERBS = (
        ("single", 16), ("double", 8), ("classical", 8), ("quantum", 8), ("gform", 8),
        ("flag", 8), ("locus", 8), ("expand", 12), ("search-det19", 12), ("product-rule", 12),
    )
    SHARES = {4: 0.40, 5: 0.35, 6: 0.25}
    S6_LENGTHS = frozenset(range(0, 5)) | frozenset(range(11, 16))
    EXPRESSIONS = 150  # expand draws from a catalog of this many, Zipf-skewed
    CATALOG_SEED = 0

    def __init__(self, seed: int):
        from uschub import formulas, permutations, polyring, schubert, specialize

        self.formulas, self.permutations, self.polyring = formulas, permutations, polyring
        self.schubert, self.specialize = schubert, specialize
        fixed = random.Random(self.CATALOG_SEED)
        self.popularity = Popularity(fixed, self.SHARES, {6: self.S6_LENGTHS})
        self.expressions = [_c_g_expression(fixed, fixed.randint(2, 3)) for _ in range(self.EXPRESSIONS)]
        self.expr_cum = _zipf_cum(self.EXPRESSIONS, Popularity.EXPONENT)
        self.seed = seed
        self.requests = self.round_requests(0)

    def round_requests(self, r: int) -> list:
        """Round r of a run: its own draw from the seed, round 0 from the seed alone."""
        rng = random.Random(self.seed if r == 0 else f"{self.seed}:{r}")
        verbs = _quota(rng, self.VERBS, self.ROUND)
        picks = {}
        for verb, _ in self.VERBS:
            count = verbs.count(verb)
            if verb == "expand":
                picks[verb] = iter([self.expressions[i] for i in _stratified(rng, self.expr_cum, count)])
            elif verb == "product-rule":
                picks[verb] = iter([k + 1 for k in _stratified(rng, [1, 2, 3, 4], count)])
            else:
                small = verb not in ("single", "classical")
                picks[verb] = iter(self.popularity.draws(rng, count, (4, 5) if small else None))
        return [self._request(rng, verb, next(picks[verb])) for verb in verbs]

    def _request(self, rng: random.Random, verb: str, pick):
        if verb == "product-rule":
            k = pick
            return ("product-rule", rng.randint(0, k), rng.randint(0, k), k)
        if verb == "expand":
            return ("expand", pick)
        m, word = pick
        own = random.Random(int("".join(map(str, word))))
        if verb == "flag":
            w = self.permutations.Permutation(word)
            cuts = set(w.descents()) | {m} | {k for k in range(1, m) if own.random() < 0.5}
            return ("flag", word, tuple(sorted(cuts)))
        if verb == "locus":
            w = self.permutations.Permutation(word)
            n = max(w.size - 1, 1)
            cod = w.codiagram(n)
            a = {i for i, _ in cod} | {k for k in range(1, n + 1) if own.random() < 0.3}
            b = {j for _, j in cod} | {k for k in range(1, n + 1) if own.random() < 0.3}
            return ("locus", word, tuple(sorted(a or {1})), tuple(sorted(b or {1})))
        return (verb, word, m - 1)

    def reset(self) -> None:
        from uschub import uring

        self.schubert.clear_caches()
        self.specialize.clear_caches()
        uring.clear_caches()

    def serve(self, req) -> str:
        sch, spec, frm, P = self.schubert, self.specialize, self.formulas, self.permutations.Permutation
        verb = req[0]
        if verb == "product-rule":
            r = frm.product_rule(*req[1:])
            return f"lhs: {r.lhs.text()}\nrhs: {r.rhs.text()}\nequal: {r.equal_in_g}"
        if verb == "expand":
            return self._expand(req[1])
        if verb == "flag":
            return spec.partial_flag_specialize(P(req[1]), spec.FlagProfile(req[2])).text()
        if verb == "locus":
            profile = frm.RankProfile(req[2], req[3])
            return frm.render_locus(frm.locus_formula(P(req[1]), profile), profile)
        w, n = P(req[1]), req[2]
        if verb == "double":
            return sch.universal_double(w, n).text()
        if verb == "search-det19":
            hit = frm.det19_search(w, n)
            if hit is None:
                return "none"
            sigma, ds = hit
            return f"a={_word_text(ds.a)} b={_word_text(ds.b)} sigma={_word_text(sigma.as_tuple(n))}"
        single = sch.universal_single(w, n).to_polynomial("c")
        if verb == "single":
            return single.text()
        if verb == "classical":
            return spec.classical_specialize(single).text()
        if verb == "quantum":
            return spec.quantum_specialize(single).text()
        return spec.to_g_form(single).text()

    def _flat_and_rows(self, expr: str):
        frm = self.formulas
        flat = frm.rewrite_no_squares(self.polyring.parse_text(expr))
        n = max([v.j for v in flat.variables() if v.kind == "c"] + [1])
        rows = []
        for gpart, el in sorted(frm.split_by_g(flat, n).items()):
            expansion = self.schubert.schubert_expand_M(el)
            for w in sorted(expansion, key=lambda u: (u.length(), u.as_tuple(n + 1))):
                rows.append((gpart, w, expansion[w]))
        return flat, n, rows

    def _expand(self, expr: str) -> str:
        _, n, rows = self._flat_and_rows(expr)
        Poly = self.polyring.Polynomial
        return "\n".join(
            f"{coeff} * {Poly({gpart: 1}).text()} * S({_word_text(w.as_tuple(n + 1))})"
            for gpart, w, coeff in rows
        )

    # -- the gate --------------------------------------------------------------------

    @staticmethod
    def output_of(out):
        return out

    @staticmethod
    def timed_out(out) -> bool:
        return False

    def check(self, reqs_and_outputs) -> tuple[dict, dict]:
        """Independent routes for every distinct request; returns ({request: problem}, {})."""
        sch, spec, frm, P = self.schubert, self.specialize, self.formulas, self.permutations.Permutation
        problems: dict = {}
        c_points: set[tuple[int, int]] = set()
        for req, out in reqs_and_outputs:
            verb = req[0]
            try:
                if verb in ("single", "classical", "quantum", "gform", "search-det19"):
                    w, n = P(req[1]), req[2]
                    single = sch.universal_single(w, n).to_polynomial("c")
                    inductive = sch.universal_single_inductive(w, n).to_polynomial("c")
                    if inductive != single:
                        problems[req] = "universal_single differs from universal_single_inductive"
                        continue
                    if verb == "single":
                        # the y-ladder from w0 costs about 10 s per word of S_6; S_4..S_5 only
                        if len(req[1]) < 6 and spec.zero_y(sch.universal_cy(w, n)) != single:
                            problems[req] = "universal_single differs from zero_y(universal_cy)"
                        expected = single.text()
                    elif verb == "classical":
                        expected = sch.classical_single(w).text()
                    elif verb in ("quantum", "gform"):
                        c_points |= {(v.i, v.j) for v in single.variables()}
                        expected = out
                    else:
                        expected = self._check_det19(out, inductive)
                elif verb == "double":
                    w, n = P(req[1]), req[2]
                    expected = self._check_duality(w, n)
                elif verb == "locus":
                    w = P(req[1])
                    expected = out if self._check_duality(w, max(w.size - 1, 1)) is not None else None
                elif verb == "flag":
                    expected = spec.partial_flag_specialize(P(req[1]), spec.FlagProfile(req[2]), route="B").text()
                elif verb == "expand":
                    expected = out if self._check_expand(req[1]) else None
                else:
                    k = req[3]
                    expected = out if out.endswith("equal: True") else None
                    c_points |= {(a, j) for j in range(1, k + 2) for a in range(1, j + 1)}
            except Exception as exc:  # a crash in the oracle is a finding, not a benchmark error
                problems[req] = f"oracle raised {type(exc).__name__}: {exc}"
                continue
            if expected is None:
                problems.setdefault(req, "independent route disagrees")
            elif expected != out:
                problems.setdefault(req, "output differs from the independent route")
        for i, k in sorted(c_points):
            base = spec.c_from_g(i, k)
            if base != spec.c_from_g_det(i, k) or base != spec.c_from_g_paths(i, k):
                problems[("c_from_g", i, k)] = "c_from_g disagrees with c_from_g_det or c_from_g_paths"
        return problems, {}

    def _check_det19(self, out: str, target):
        if out == "none":
            return out
        fields = dict(part.split("=") for part in out.split())
        ds = self.formulas.DetSpec(
            tuple(map(int, fields["a"].split(","))), tuple(map(int, fields["b"].split(",")))
        )
        return out if ds.determinant() == target else None

    def _check_duality(self, w, n):
        """Kind swap equals the signed double of the inverse; returns the double's text."""
        double = self.schubert.universal_double(w, n)
        expected = self.schubert.universal_double(w.inverse(), n)
        if w.length() % 2:
            expected = -expected
        return double.text() if double.swap_kinds("c", "d") == expected else None

    def _check_expand(self, expr: str) -> bool:
        """The Schubert expansion sums back to the square-free polynomial."""
        flat, n, rows = self._flat_and_rows(expr)
        Poly = self.polyring.Polynomial
        total = Poly()
        for gpart, w, coeff in rows:
            total = total + Poly({gpart: coeff}) * self.schubert.universal_single_inductive(w, n).to_polynomial("c")
        return total == flat


# -- ring -------------------------------------------------------------------------------

class RingWorkload:
    """R_3: one pass from cold, then the same pass twice on the warm ring.

    A pass is a seeded shuffle of all 576 pairings <sigma_u, omega(sigma_{v w0})>
    over S_4 x S_4 (the w0 row reaches the top degree 12), with one
    ``multiply_expand``, ``normal_form`` or ``omega`` request after every 8
    pairings.  A cold pass costs 20-30 s, most of it the degree 9-12 tables,
    so a run affords one; the warm passes add latency samples taken at
    other times.
    """

    name = "ring"
    N = 3
    round_s = 10.0
    min_rounds = 3
    max_rounds = 3
    reset_each_round = False

    def __init__(self, seed: int):
        from uschub import permutations, polyring, specialize, uring

        self.uring, self.polyring, self.specialize = uring, polyring, specialize
        self.P = permutations.Permutation
        self.words = [tuple(w) for w in _itperms(range(1, self.N + 2))]
        rng = random.Random(seed)
        pairs = [(u, v) for u in self.words for v in self.words]
        rng.shuffle(pairs)
        self.requests = []
        for index, (u, v) in enumerate(pairs):
            self.requests.append(("inner", u, v))
            if index % 8 == 7:
                kind = (index // 8) % 3
                if kind == 0:
                    self.requests.append(("multiply", rng.choice(self.words), rng.choice(self.words)))
                elif kind == 1:
                    self.requests.append(("normal-form", _ring_expression(rng, self.N, 8, with_c=True)))
                else:
                    self.requests.append(("omega", _ring_expression(rng, self.N, 8, with_c=False)))

    def round_requests(self, r: int) -> list:
        """Every round is the same pass: the first cold, the second warm."""
        return self.requests

    def reset(self) -> None:
        from uschub import schubert

        self.uring.clear_caches()
        schubert.clear_caches()
        self.specialize.clear_caches()

    def _dual(self, ring, v):
        return ring.normal_form(ring.omega(ring.schubert(self.P(v) * ring.w0).to_polynomial()))

    def serve(self, req) -> str:
        ring = self.uring.universal_ring(self.N)
        verb = req[0]
        if verb == "inner":
            return ring.inner_product(ring.schubert(self.P(req[1])), self._dual(ring, req[2])).text()
        if verb == "multiply":
            return self._render(self.uring.multiply_expand(self.P(req[1]), self.P(req[2]), self.N))
        if verb == "normal-form":
            p = self.specialize.to_g_form(self.polyring.parse_text(req[1]))
            return self.uring.normal_form(p, self.N).to_polynomial().text()
        return self.uring.omega(self.polyring.parse_text(req[1]), self.N).text()

    def _render(self, expansion) -> str:
        n1 = self.N + 1
        return "\n".join(
            f"{_word_text(w.as_tuple(n1))}: {expansion[w].text()}"
            for w in sorted(expansion, key=lambda u: (u.length(), u.as_tuple(n1)))
        )

    @staticmethod
    def output_of(out):
        return out

    @staticmethod
    def timed_out(out) -> bool:
        return False

    def check(self, reqs_and_outputs) -> tuple[dict, dict]:
        """Independent routes for every distinct request; returns ({request: problem}, {})."""
        ring = self.uring.universal_ring(self.N)
        parse = self.polyring.parse_text
        problems: dict = {}
        for index, (req, out) in enumerate(reqs_and_outputs):
            verb = req[0]
            try:
                if verb == "inner":
                    ok = out == ("1" if req[1] == req[2] else "0")
                    if ok and index % 24 == 0:
                        su = ring.schubert(self.P(req[1]))
                        ok = ring.inner_product_w0(su, self._dual(ring, req[2])).text() == out
                elif verb == "multiply":
                    u, v = self.P(req[1]), self.P(req[2])
                    expansion = ring.multiply_expand(u, v)
                    total = self.uring.RingElement.zero(self.N)
                    for w, coeff in expansion.items():
                        total = total + ring.schubert(w).scale(coeff)
                    ok = total == ring.multiply(ring.schubert(u), ring.schubert(v)) and self._render(expansion) == out
                elif verb == "normal-form":
                    ok = ring.normal_form(parse(out)).to_polynomial().text() == out
                else:
                    ok = ring.omega(parse(out)) == parse(req[1])
            except Exception as exc:  # a crash in the oracle is a finding, not a benchmark error
                problems[req] = f"oracle raised {type(exc).__name__}: {exc}"
                continue
            if not ok:
                problems[req] = "output disagrees with the independent route"
        return problems, {}


# -- cli --------------------------------------------------------------------------------------

CliRequest = namedtuple("CliRequest", "argv kind")
CliRequest.__doc__ = """kind: light, heavy, error or malformed; the last two must exit 1 with a message."""


class CliWorkload:
    """One fresh ``python -m uschub.cli`` process per request.

    A round is 59 requests in a seeded order with a fixed mix, so that every
    seed carries the same share of each kind, and two rounds give more than
    100 successful servings, ten of them beyond the 90th percentile:
      3 heavy      ``single`` on a word of S_6 of length 6, ``census --n 4``
                   and ``verify all`` (every suite at its default size)
      5 error      one each of: repeated value, value out of range, missing
                   ``--profile``, dangling sign, not a digit (all must exit 1)
      3 malformed  a trailing '^', a juxtaposition ``... 2`` and a trailing
                   '*' (all must exit 1)
      48 light     three of each of sixteen light verb slots (``LIGHT``),
                   one each on S_3, S_4 and S_5, the ring verbs at n <= 2
    Expressions keep their points <= 2, so no request pays for the S_6 tables.
    """

    name = "cli"
    round_s = 18.0
    LIGHT = ("single", "single", "single", "double", "double", "specialize", "specialize",
             "specialize", "locus", "expand", "expand", "search-det19", "product-rule", "table",
             "ring", "ring")
    LIGHT_EACH = 3
    min_rounds = 2
    max_rounds = None
    reset_each_round = True
    LIMIT_S = {"light": 2.0, "error": 2.0, "malformed": 2.0, "heavy": 30.0}
    ERRORS = ("repeated", "range", "profile", "sign", "digit")
    RULES = ("classical", "classical-double", "gform", "quantum", "flag")
    # the nth ring request: two at n = 1, then four at n = 2
    RING_ACTIONS = ("normal-form", "rank", "multiply", "inner", "omega", "verify-25")
    MALFORMED = ("caret", "juxtaposition", "star")

    def __init__(self, seed: int):
        self.seed = seed
        self.requests = self.round_requests(0)

    def round_requests(self, r: int) -> list:
        """Round r of a run: its own draw from the seed, round 0 from the seed alone."""
        rng = random.Random(self.seed if r == 0 else f"{self.seed}:{r}")
        heavy = [self._heavy_argv(rng, kind) for kind in ("single", "census", "verify")]
        error = [self._error_argv(rng, kind) for kind in self.ERRORS]
        malformed = [self._malformed_argv(rng, kind) for kind in self.MALFORMED]
        light, nth = [], {}
        for copy in range(self.LIGHT_EACH):
            for verb in self.LIGHT:
                nth[verb] = nth.get(verb, -1) + 1
                light.append(self._light_argv(rng, verb, copy, nth[verb]))
        requests = ([CliRequest(a, "heavy") for a in heavy] + [CliRequest(a, "error") for a in error]
                    + [CliRequest(a, "malformed") for a in malformed]
                    + [CliRequest(a, "light") for a in light])
        rng.shuffle(requests)
        return requests

    def _heavy_argv(self, rng: random.Random, kind: str) -> tuple[str, ...]:
        if kind == "single":
            word = list(range(1, 7))
            while _inversions(tuple(word)) != 6:
                rng.shuffle(word)
            return ("single", "".join(map(str, word)))
        if kind == "census":
            return ("census", "--n", "4")
        return ("verify", "all")

    def _error_argv(self, rng: random.Random, kind: str) -> tuple[str, ...]:
        word = list(range(1, 5))
        rng.shuffle(word)
        text = "".join(map(str, word))
        if kind == "repeated":
            return ("single", text[:-1] + text[0])
        if kind == "range":
            return ("double", text + "9")
        if kind == "profile":
            return ("specialize", text, "--rule", "flag")
        if kind == "sign":
            return ("expand", _c_g_expression(rng, 2, g_share=0.0) + " +")
        return ("single", text.replace(text[1], "a"))

    def _malformed_argv(self, rng: random.Random, kind: str) -> tuple[str, ...]:
        expr = _c_g_expression(rng, 2, g_share=0.0)
        suffix = {"caret": "^", "juxtaposition": " 2", "star": "*"}[kind]
        return ("expand", expr + suffix)

    def _light_argv(self, rng: random.Random, verb: str, copy: int, nth: int) -> tuple[str, ...]:
        """The copy-th request of a light slot, the nth of its verb in the round.

        Copies 0, 1, 2 work on S_3, S_4, S_5 (ring: n = 1, 2, 2), on a word of
        length m(m-1)/4 rounded down, and the nth ``specialize`` or ``ring``
        request takes the nth rule or action of a fixed cycle.  The 90th
        percentile falls among the S_5 requests, whose cost grows with the
        length of the word and depends on the rule or action, so fixing both
        gives every seed the same cost mix; the seed still draws the words,
        formats and expressions and the order of the round.
        """
        m = 3 + copy
        word = list(range(1, m + 1))
        while _inversions(tuple(word)) != m * (m - 1) // 4:
            rng.shuffle(word)
        w = "".join(map(str, word))
        fmt = rng.choice(("text", "text", "text", "latex", "json"))
        if verb == "single":
            return ("single", w, "--format", fmt)
        if verb == "double":
            return ("double", w, "--format", fmt)
        if verb == "specialize":
            rule = self.RULES[nth % len(self.RULES)]
            if rule != "flag":
                return ("specialize", w, "--rule", rule, "--format", fmt)
            descents = {k for k in range(1, m) if word[k - 1] > word[k]}
            cuts = sorted(descents | {m} | {k for k in range(1, m) if rng.random() < 0.5})
            return ("specialize", w, "--rule", "flag", "--profile", _word_text(tuple(cuts)),
                    "--route", rng.choice("AB"), "--format", fmt)
        if verb == "locus":
            # a word of S_4 has its codiagram inside {1,2,3} x {1,2,3}
            small = "".join(map(str, rng.sample(range(1, 5), 4)))
            return ("locus", small, "--ranks-e", "1,2,3", "--ranks-f", "1,2,3", "--format", fmt)
        if verb == "expand":
            return ("expand", _c_g_expression(rng, 2), "--format", rng.choice(("text", "json")))
        if verb == "search-det19":
            return ("search-det19", w) + (("--exhaustive",) if copy == 1 else ())
        if verb == "product-rule":
            k = copy + 1
            return ("product-rule", "--i", str(rng.randint(0, k)), "--j", str(rng.randint(0, k)),
                    "--k", str(k), "--format", fmt)
        if verb == "table":
            return ("table", "--n", str(min(copy + 1, 2)), "--format", fmt)
        action = self.RING_ACTIONS[nth % len(self.RING_ACTIONS)]
        n = min(copy + 1, 2)
        if action == "multiply":
            u, v = ("".join(map(str, rng.sample(range(1, n + 2), n + 1))) for _ in range(2))
            return ("ring", "multiply", u, v, "--n", str(n), "--format", fmt)
        if action in ("rank", "verify-25", "verify-26"):
            return ("ring", action, "--n", str(n))
        count = 2 if action == "inner" else 1
        exprs = tuple(_ring_expression(rng, n, 2 * n + 1, with_c=False) for _ in range(count))
        if action == "omega":
            return ("ring", action) + exprs + ("--n", str(n), "--format", fmt)
        return ("ring", action) + exprs + ("--n", str(n))

    def reset(self) -> None:
        pass

    def serve(self, req: CliRequest, traced: bool = False):
        """Run one child; returns (exit code or 'timeout', stdout, stderr, trace aggregate)."""
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), *req.argv]
        else:
            cmd = [sys.executable, "-m", "uschub.cli", *req.argv]
        try:
            proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True,
                                  timeout=self.LIMIT_S[req.kind])
        except subprocess.TimeoutExpired:
            return ("timeout", "", "", None)
        stderr = proc.stderr.decode("utf-8", "replace")
        aggregate = None
        if traced and TRACE_PREFIX in stderr:
            stderr, _, tail = stderr.rpartition(TRACE_PREFIX)
            aggregate = json.loads(tail)
        return (proc.returncode, proc.stdout.decode("utf-8", "replace"), stderr, aggregate)

    @staticmethod
    def output_of(result) -> tuple:
        """The part of a child's result that must be deterministic."""
        return (result[0], result[1])

    @staticmethod
    def timed_out(result) -> bool:
        return result[0] == "timeout"

    def check(self, reqs_and_outputs) -> tuple[dict, dict]:
        """Returns (problems, expectation failures).

        A problem is a well-formed request whose exit code or stdout differs
        from the in-process rendering.  An expectation failure is an error-path
        or malformed request that did not exit 1 with a message: a request
        failure, counted in ``failed``, but not a wrong answer from a
        well-formed request.  Time-outs never reach this check (see ``run.py``).
        """
        from uschub import cli

        problems: dict = {}
        expected_fail: dict = {}
        for req, result in reqs_and_outputs:
            code, out, err, _ = result
            if req.kind in ("error", "malformed"):
                if code != 1 or out or not err.strip():
                    expected_fail[req] = f"exit {code} with stdout {out[:40]!r}; expected exit 1 and a message"
                continue
            buf_out, buf_err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(buf_out), redirect_stderr(buf_err):
                    want = cli.main(list(req.argv))
            except SystemExit as exc:
                want = exc.code
            if (want, buf_out.getvalue()) != (code, out):
                problems[req] = f"exit {code} vs in-process {want}, or stdout differs"
        return problems, expected_fail


WORKLOADS = {w.name: w for w in (QueryWorkload, RingWorkload, CliWorkload)}
