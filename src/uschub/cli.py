"""Command-line surface.

One verb per task: construct single or double universal polynomials,
specialize them, emit degeneracy-locus formulas, expand expressions in
the Schubert basis, search for determinantal expressions, work inside
the universal quotient ring, print the small tables, and run the
verification sweeps.

Exit codes: 0 on success, 1 on domain or usage errors, 2 when a sweep
finds a failing identity.  Output is deterministic: the same arguments
produce the same bytes.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable

from .permutations import Permutation, all_perms, parse_oneline
from .polyring import Polynomial, parse_text, q, x

# Every handler and suite imports the modules it runs after its arguments are
# checked, so a fresh process loads (and compiles) only what its verb needs.

# -- small helpers --------------------------------------------------------------

def _parse_perm(text: str) -> tuple[Permutation, int]:
    """Permutation plus the raw word length (before trailing fixed points drop)."""
    text = text.strip()
    raw = len(text.split(",")) if "," in text else len(text)
    return parse_oneline(text), raw


def _word_and_n(args) -> tuple[Permutation, int]:
    """The word argument and --n, which defaults to the raw word length less one."""
    w, raw = _parse_perm(args.word)
    return w, args.n if args.n is not None else max(raw - 1, 0)


def _word(w: Permutation, n: int) -> str:
    return ",".join(str(v) for v in w.as_tuple(n))


def _emit(fmt: str, record: Callable[[], object], lines: Callable[[], Iterable[str]]) -> None:
    """Print ``record()`` as JSON under --format json, else each of ``lines()``.

    Only the one the format asks for is built.
    """
    if fmt == "json":
        import json

        print(json.dumps(record(), indent=2, sort_keys=True))
    else:
        for line in lines():
            print(line)


def _poly_text(p: Polynomial, fmt: str) -> str:
    return p.latex() if fmt == "latex" else p.text()


def _print_poly(p: Polynomial, fmt: str) -> None:
    _emit(fmt, p.to_json, lambda: [_poly_text(p, fmt)])


def _print_rows(rows: list[tuple[Permutation, Polynomial]], n: int, fmt: str, key: str) -> None:
    """One ``w: polynomial`` line per row, or a JSON list of {w, key} records."""
    _emit(fmt, lambda: [{"w": list(w.as_tuple(n + 1)), key: p.to_json()} for w, p in rows],
          lambda: (f"{_word(w, n + 1)}: {_poly_text(p, fmt)}" for w, p in rows))


def _by_length(expansion: dict[Permutation, object], n: int) -> list[tuple[Permutation, object]]:
    """The terms of a Schubert-basis expansion in R_n, by length and then one-line word."""
    return sorted(expansion.items(), key=lambda t: (t[0].length(), t[0].as_tuple(n + 1)))


# -- polynomial verbs -------------------------------------------------------------

def _single_form(w: Permutation, n: int) -> Polynomial:
    from .schubert import universal_single

    return universal_single(w, n).to_polynomial("c")


def _double_form(w: Permutation, n: int) -> Polynomial:
    from .schubert import universal_double

    return universal_double(w, n)


# Each --rule of specialize but flag, which builds from its profile instead: the
# construction of the word, then the name of its map in ``specialize``.
_RULES = {
    "classical": (_single_form, "classical_specialize"),
    "classical-double": (_double_form, "classical_specialize"),
    "gform": (_single_form, "to_g_form"),
    "quantum": (_single_form, "quantum_specialize"),
}
_FORMS = {"single": (_single_form, None), "double": (_double_form, None), **_RULES}


def _cmd_form(args) -> int:
    """The verbs single and double, and specialize by its --rule."""
    w, n = _word_and_n(args)
    rule = getattr(args, "rule", args.verb)
    if rule == "flag":
        if args.profile is None:
            raise ValueError("rule 'flag' needs --profile")
        from .specialize import FlagProfile, partial_flag_specialize

        out = partial_flag_specialize(w, FlagProfile(args.profile), route=args.route)
    else:
        build, name = _FORMS[rule]
        out = build(w, n)
        if name:
            from . import specialize

            out = getattr(specialize, name)(out)
    _print_poly(out, args.format)
    return 0


def _cmd_locus(args) -> int:
    w, _ = _parse_perm(args.word)
    from .formulas import RankProfile, locus_formula, render_locus

    profile = RankProfile(args.ranks_e, args.ranks_f)
    mode = "interval" if args.interval else "strict"
    p = locus_formula(w, profile, mode=mode)
    _emit(args.format, lambda: {"polynomial": p.to_json(), "rendered": render_locus(p, profile)},
          lambda: [p.latex() if args.format == "latex" else render_locus(p, profile)])
    return 0


def _cmd_expand(args) -> int:
    p = parse_text(args.expr)  # a malformed expression exits before formulas loads
    from .formulas import rewrite_no_squares, split_by_g
    from .schubert import schubert_expand_M

    flat = rewrite_no_squares(p, args.n)
    points = [v.j for v in flat.variables() if v.kind == "c"]
    n = max(points + [args.n if args.n is not None else 1])
    rows = []
    for gpart, el in sorted(split_by_g(flat, n).items()):
        gtext = Polynomial({gpart: 1}).text() if gpart else ""
        rows += [(gtext, w, coeff) for w, coeff in _by_length(schubert_expand_M(el), n)]

    def line(gtext: str, w: Permutation, coeff: int) -> str:
        head = f"{coeff} * " if coeff != 1 else ""
        mid = f"{gtext} * " if gtext else ""
        return f"{head}{mid}S({_word(w, n + 1)})"

    _emit(args.format,
          lambda: [{"g": gtext or None, "w": list(w.as_tuple(n + 1)), "coeff": coeff} for gtext, w, coeff in rows],
          lambda: (line(*row) for row in rows))
    return 0


# -- searches and reports ----------------------------------------------------------

def _cmd_product_rule(args) -> int:
    from .formulas import product_rule

    report = product_rule(args.i, args.j, args.k)
    _emit(args.format, lambda: {
        "i": report.i,
        "j": report.j,
        "k": report.k,
        "lhs": report.lhs.to_json(),
        "rhs": report.rhs.to_json(),
        "equal": report.equal_in_g,
    }, lambda: [
        f"lhs: {_poly_text(report.lhs, args.format)}",
        f"rhs: {_poly_text(report.rhs, args.format)}",
        f"equal in g: {'yes' if report.equal_in_g else 'NO'}",
    ])
    return 0 if report.equal_in_g else 2


def _hit_text(hit, n: int) -> str:
    """One det19 search hit (sigma, DetSpec) as printed, or "none"."""
    return "none" if hit is None else f"{hit[1].label()}  sigma={_word(hit[0], n)}"


def _cmd_search_det19(args) -> int:
    w, n = _word_and_n(args)
    from .formulas import det19_matches, det19_record, det19_search

    hits = list(det19_matches(w, n)) if args.exhaustive else [det19_search(w, n)]
    _emit(args.format,
          lambda: [det19_record(w, n, hit) for hit in hits] if args.exhaustive else det19_record(w, n, hits[0]),
          lambda: (_hit_text(hit, n) for hit in hits or [None]))
    return 0


def _cmd_census(args) -> int:
    from .formulas import det19_census, det19_record

    n = args.n
    census = det19_census(n)
    _emit(args.format, lambda: [det19_record(w, n, hit) for w, hit in census], lambda: [
        *(f"{_word(w, n + 1)}: {_hit_text(hit, n)}" for w, hit in census),
        f"expressed {sum(1 for _, hit in census if hit)} of {len(census)}",
    ])
    return 0


def _cmd_table(args) -> int:
    n = args.n
    words = sorted(all_perms(n + 1), key=lambda u: (-u.length(), u.as_tuple(n + 1)))
    _print_rows([(w, _double_form(w, n)) for w in words], n, args.format, "polynomial")
    return 0


# -- the quotient ring -------------------------------------------------------------

def _take(exprs: list[str], count: int, action: str) -> list[str]:
    if len(exprs) != count:
        raise ValueError(f"ring {action} takes {count} expression(s), got {len(exprs)}")
    return exprs


def _cmd_ring(args) -> int:
    action, n, fmt = args.action, args.n, args.format
    if action == "multiply":
        (u, ru), (v, rv) = map(_parse_perm, _take(args.exprs, 2, action))
        n = n if n is not None else max(ru, rv) - 1
    elif n is None:
        raise ValueError("ring actions need an explicit --n")
    if n < 1:
        raise ValueError(f"ring {action} needs --n >= 1, got {n}")
    from . import uring

    if action == "multiply":
        _print_rows(_by_length(uring.multiply_expand(u, v, n), n), n, fmt, "coeff")
    elif action == "omega":
        _print_poly(uring.omega(parse_text(_take(args.exprs, 1, action)[0]), n), fmt)
    elif action in ("normal-form", "expand", "inner"):
        exprs = _take(args.exprs, 2 if action == "inner" else 1, action)
        els = [uring.normal_form(parse_text(expr), n) for expr in exprs]
        if action == "expand":
            _print_rows(_by_length(uring.schubert_basis_expand(els[0]), n), n, fmt, "coeff")
        else:
            _print_poly(uring.inner_product(*els) if action == "inner" else els[0].to_polynomial(), fmt)
    elif action == "rank":
        _take(args.exprs, 0, action)
        report = uring.staircase_rank_report(n)
        _emit(fmt, lambda: report, lambda: [
            *(f"degree {row['degree']}: dimension {row['dimension']}" for row in report["degrees"]),
            "full rank" if report["full_rank"] else "RANK DROP",
        ])
        return 0 if report["full_rank"] else 2
    else:
        _take(args.exprs, 0, action)
        report = uring.check_orthogonality(n) if action == "verify-25" else uring.check_diagonal_vanishing(n)
        _emit(fmt, lambda: report, lambda: [
            *(f"FAIL {failure}" for failure in report["failures"]),
            f"checked {report['checked']}, failures {len(report['failures'])}",
        ])
        return 0 if not report["failures"] else 2
    return 0


# -- verification suites -------------------------------------------------------------

Check = tuple[str, bool, str]


def _tally(label: str, items, ok: Callable[..., bool]) -> Check:
    """Passes when ``ok`` holds for every item; the detail reads ``passed/total``."""
    items = list(items)
    passed = sum(1 for item in items if ok(item))
    return (label, passed == len(items), f"{passed}/{len(items)}")


def _suite_routes(n: int) -> list[Check]:
    from .schubert import universal_cy, universal_single
    from .specialize import zero_y

    def agree(w: Permutation) -> bool:
        return universal_single(w, n).to_polynomial("c") == zero_y(universal_cy(w, n))

    return [_tally(f"construction routes agree on S_{n + 1}", all_perms(n + 1), agree)]


def _suite_classical(n: int) -> list[Check]:
    from .schubert import classical_single, universal_single
    from .specialize import classical_specialize

    def agree(w: Permutation) -> bool:
        return classical_specialize(universal_single(w, n).to_polynomial("c")) == classical_single(w)

    return [_tally(f"classical specialization matches divided differences on S_{n + 1}",
                   all_perms(n + 1), agree)]


def _suite_leading(n: int) -> list[Check]:
    from .schubert import universal_single

    def unital(w: Permutation) -> bool:
        el = universal_single(w, n)
        lead = max(el.codes)
        return lead == w.code_tail(n) and el.codes[lead] == 1

    return [_tally(f"lex-leading code is the modified code with coefficient 1 on S_{n + 1}",
                   all_perms(n + 1), unital)]


def _suite_duality(n: int) -> list[Check]:
    from .schubert import universal_double

    def dual(w: Permutation) -> bool:
        flipped = universal_double(w, n).swap_kinds("c", "d")
        expected = universal_double(w.inverse(), n)
        if w.length() % 2:
            expected = -expected
        return flipped == expected

    return [
        _tally(f"kind swap equals signed inverse on S_{n + 1}", all_perms(n + 1), dual),
        _tally(f"double polynomials are stable under S_{n} -> S_{n + 1}", all_perms(n),
               lambda w: universal_double(w, n - 1) == universal_double(w, n)),
    ]


def _suite_quantum(kmax: int) -> list[Check]:
    from .schubert import universal_single
    from .specialize import c_from_g, c_from_g_det, c_from_g_paths, quantum_specialize

    x1, x2, q1 = Polynomial.var(x(1)), Polynomial.var(x(2)), Polynomial.var(q(1))
    checks: list[Check] = []
    got = quantum_specialize(universal_single(Permutation((2, 3, 1)), 2).to_polynomial("c"))
    checks.append(("quantum form of 2,3,1 is x1*x2 + q1", got == x1 * x2 + q1, got.text()))
    got = quantum_specialize(universal_single(Permutation((3, 1, 2)), 2).to_polynomial("c"))
    checks.append(("quantum form of 3,1,2 is x1^2 - q1", got == x1 * x1 - q1, got.text()))
    pairs = [(i, k) for k in range(1, kmax + 1) for i in range(1, k + 1)]

    def agree(pair: tuple[int, int]) -> bool:
        i, k = pair
        base = c_from_g(i, k)
        return base == c_from_g_det(i, k) and base == c_from_g_paths(i, k)

    checks.append(_tally(f"recursion, determinant and path expansions agree for i <= k <= {kmax}",
                         pairs, agree))
    mono = parse_text("g1[0]*g2[2]*g5[0]*g6[1]*g9[0]").terms()
    coeff = c_from_g(8, 9).terms().get(next(iter(mono)), 0)
    checks.append(("c8(9) contains the monomial x1 g2[2] x5 g6[1] x9", coeff == 1, f"coefficient {coeff}"))
    return checks


def _profiles(top: int):
    from .specialize import FlagProfile

    for mask in range(1, 1 << top):
        yield FlagProfile(tuple(i for i in range(1, top + 1) if mask & (1 << (i - 1))))


def _suite_flags(top: int) -> list[Check]:
    from .formulas import dominant_formula
    from .schubert import universal_cy
    from .specialize import FlagProfile, partial_flag_specialize

    profiles = list(_profiles(top))

    def dominant_ok(profile: FlagProfile) -> bool:
        w0 = profile.longest_member()
        return dominant_formula(profile) == universal_cy(w0, profile.top - 1)

    def routes_ok(profile: FlagProfile) -> bool:
        return all(
            partial_flag_specialize(w, profile, route="A")
            == partial_flag_specialize(w, profile, route="B")
            for w in profile.members()
        )

    checks = [
        _tally(f"dominant member formula holds for all profiles inside {top}", profiles, dominant_ok),
        _tally(f"both flag routes agree for all members of profiles inside {top}", profiles, routes_ok),
    ]
    return [(label, ok, f"{detail} profiles") for label, ok, detail in checks]


def _suite_grassmannian(n: int) -> list[Check]:
    from .formulas import grassmannian_det
    from .schubert import universal_cy

    def agree(w: Permutation) -> bool:
        return grassmannian_det(w) == universal_cy(w, max(w.size - 1, 1))

    return [_tally(f"descent-set determinant matches on Grassmannian members of S_{n + 1}",
                   (w for w in all_perms(n + 1) if w.is_grassmannian()), agree)]


_PRINTED_SPECS = {
    (5, 1, 4, 2, 3): ((2, 2, 1, 1), (4, 3, 2, 1)),
    (3, 5, 1, 2, 4): ((1, 0, 2, 2), (4, 1, 3, 2)),
    (3, 2, 5, 1, 4): ((1, 0, 1, 3), (4, 2, 1, 3)),
}


def _suite_census(n: int) -> list[Check]:
    from .formulas import DetSpec, det19_census

    census = dict(det19_census(n))
    hits = sum(1 for hit in census.values() if hit)
    checks: list[Check] = []
    if n == 4:
        for wt, (a, b) in sorted(_PRINTED_SPECS.items()):
            hit = census[Permutation(wt)]
            checks.append((f"search finds {DetSpec(a, b).label()} for {','.join(map(str, wt))}",
                           hit is not None and hit[1] == (a, b), str(hit and hit[1].to_json())))
        hit = census[Permutation((1, 5, 3, 2, 4))]
        checks.append(("1,5,3,2,4 admits no expression", hit is None, str(hit and hit[1].to_json())))
        vex = sum(1 for w in all_perms(5) if w.is_vexillary())
        checks.append(("vexillary count in S_5 is 103", vex == 103, str(vex)))
        checks.append((
            "expressions found for exactly 112 of 120",
            hits == 112,
            f"found {hits}",
        ))
    else:
        checks.append((f"census over S_{n + 1} ran", True, f"found {hits} of {len(census)}"))
    return checks


def _suite_product_rule(kmax: int) -> list[Check]:
    from .formulas import product_rule, remark47_first_sum
    from .specialize import classical_specialize, g_classical

    triples = [(i, j, k) for k in range(0, kmax + 1) for i in range(0, k + 1) for j in range(0, k + 1)]

    def both(triple: tuple[int, int, int]) -> tuple[bool, bool]:
        report = product_rule(*triple)
        reduced = classical_specialize(remark47_first_sum(*triple))
        return report.equal_in_g, reduced == g_classical(report.lhs)

    results = {t: both(t) for t in triples}
    return [
        _tally(f"product rule holds in g for 0 <= i, j <= k <= {kmax}", triples, lambda t: results[t][0]),
        _tally(f"classically only the leading sum survives for k <= {kmax}", triples,
               lambda t: results[t][1]),
    ]


def _suite_diagrams(n: int) -> list[Check]:
    from .formulas import RankProfile, gysin_check, locus_formula

    checks = [_tally(f"modified diagram size equals length on S_{n + 1}", all_perms(n + 1),
                     lambda w: len(w.codiagram(n)) == w.length())]
    subsets = [tuple(i for i in range(1, 4) if mask & (1 << (i - 1))) for mask in range(1, 8)]
    occ_bad = []
    for w in all_perms(4):
        for A in subsets:
            for B in subsets:
                profile = RankProfile(A, B)
                if not profile.contains_codiagram(w):
                    continue
                try:
                    locus_formula(w, profile, mode="strict")
                except AssertionError:
                    occ_bad.append((w, A, B))
    checks.append((
        "evaluation points stay inside any covering rank profile on S_4",
        not occ_bad,
        f"{len(occ_bad)} escapes",
    ))
    pairs = [(k, i) for k in range(0, 5) for i in range(0, k + 1)]
    checks.append(_tally("projective-bundle pushforward identity holds for 0 <= i <= k <= 4",
                         pairs, lambda p: gysin_check(*p)))
    return checks


def _suite_ring(n: int) -> list[Check]:
    from . import uring

    rank = uring.staircase_rank_report(n)
    orth = uring.check_orthogonality(n)
    diag = uring.check_diagonal_vanishing(n)
    return [
        (f"staircase monomials are a basis through degree {rank['top_degree']} at n={n}",
         rank["full_rank"], f"{len(rank['degrees'])} degrees"),
        (f"Schubert classes pair to the identity matrix at n={n}",
         not orth["failures"], f"{orth['checked']} pairs"),
        (f"double polynomials vanish on the diagonal for S_{n + 1}",
         not diag["failures"], f"{diag['checked']} checked"),
    ]


# Each suite's function, default --n and least --n: below the least a suite
# checks nothing, or S_0 (duality).
_SUITES = {
    "routes": (_suite_routes, 4, 0),
    "classical": (_suite_classical, 4, 0),
    "leading": (_suite_leading, 4, 0),
    "duality": (_suite_duality, 3, 1),
    "quantum": (_suite_quantum, 5, 1),
    "flags": (_suite_flags, 4, 1),
    "grassmannian": (_suite_grassmannian, 4, 0),
    "census": (_suite_census, 4, 0),
    "product-rule": (_suite_product_rule, 4, 0),
    "diagrams": (_suite_diagrams, 5, 0),
    "ring": (_suite_ring, 2, 1),
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    sizes = {name: args.n if args.n is not None else _SUITES[name][1] for name in names}
    for name, n in sizes.items():
        if n < _SUITES[name][2]:
            raise ValueError(f"verify {name} needs --n >= {_SUITES[name][2]}, got {n}")
    failures = 0
    for name, n in sizes.items():
        for label, ok, detail in _SUITES[name][0](n):
            print(f"{'ok' if ok else 'FAIL'} {name}: {label} ({detail})")
            failures += 0 if ok else 1
    print("all checks passed" if not failures else f"{failures} check(s) failed")
    return 0 if not failures else 2


# -- parser --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage failures print help to stderr and exit 1, keeping 2 for verification."""

    def error(self, message):
        self.print_help(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format(sub, choices=("text", "latex", "json")) -> None:
    sub.add_argument("--format", choices=choices, default="text")


def _size(text: str) -> int:
    """The type of every --n: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """The type of --profile, --ranks-e and --ranks-f: comma-separated ints."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated ints: {text!r}") from None


def _add_n(sub, default: int | None = None) -> None:
    sub.add_argument("--n", type=_size, default=default)


def _verb(verbs, name: str, summary: str, handler: Callable[..., int], /, **positionals) -> argparse.ArgumentParser:
    """The sub-command ``name``; each keyword adds a positional with those add_argument options."""
    sub = verbs.add_parser(name, help=summary)
    for dest, options in positionals.items():
        sub.add_argument(dest, **options)
    sub.set_defaults(handler=handler)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uschub", description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    sub = _verb(verbs, "single", "single universal polynomial of a permutation", _cmd_form,
                word={"help": "one-line permutation, comma-separated or digits"})
    _add_n(sub)
    _add_format(sub)

    sub = _verb(verbs, "double", "double universal polynomial of a permutation", _cmd_form, word={})
    _add_n(sub)
    _add_format(sub)

    sub = _verb(verbs, "specialize", "specialize the polynomial of a permutation", _cmd_form, word={})
    sub.add_argument("--rule", required=True, choices=(*_RULES, "flag"))
    _add_n(sub)
    sub.add_argument("--profile", type=_int_list, default=None, help="cut points for --rule flag, e.g. 2,4")
    sub.add_argument("--route", choices=("A", "B"), default="A")
    _add_format(sub)

    sub = _verb(verbs, "locus", "degeneracy-locus class over a rank profile", _cmd_locus, word={})
    sub.add_argument("--ranks-e", type=_int_list, required=True, help="ranks of the source chain, e.g. 1,2,3")
    sub.add_argument("--ranks-f", type=_int_list, required=True, help="ranks of the target chain")
    sub.add_argument("--interval", action="store_true",
                     help="snap evaluation points down instead of requiring containment")
    _add_format(sub)

    sub = _verb(verbs, "expand", "expand a c/g polynomial in the Schubert basis", _cmd_expand, expr={})
    _add_n(sub)
    _add_format(sub, choices=("text", "json"))

    sub = _verb(verbs, "product-rule", "both sides of the same-point product rule", _cmd_product_rule)
    sub.add_argument("--i", type=int, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    _add_format(sub)

    sub = _verb(verbs, "search-det19", "determinantal expression search for one permutation", _cmd_search_det19,
                word={})
    _add_n(sub)
    sub.add_argument("--exhaustive", action="store_true")
    _add_format(sub, choices=("text", "json"))

    sub = _verb(verbs, "census", "determinantal expression search over a full S_{n+1}", _cmd_census)
    _add_n(sub, default=4)
    _add_format(sub, choices=("text", "json"))

    actions = ("normal-form", "expand", "multiply", "inner", "omega", "rank", "verify-25", "verify-26")
    sub = _verb(verbs, "ring", "work inside the universal quotient ring", _cmd_ring,
                action={"choices": actions}, exprs={"nargs": "*"})
    _add_n(sub)
    _add_format(sub)

    sub = _verb(verbs, "table", "table of double polynomials for S_{n+1}", _cmd_table)
    _add_n(sub, default=2)
    _add_format(sub)

    sub = _verb(verbs, "verify", "run a verification sweep", _cmd_verify, suite={"choices": (*_SUITES, "all")})
    _add_n(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
