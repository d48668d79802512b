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
import json
import sys
from collections.abc import Callable

from . import uring
from .formulas import (
    DetSpec,
    RankProfile,
    det19_census,
    det19_record,
    det19_search,
    dominant_formula,
    grassmannian_det,
    gysin_check,
    locus_formula,
    product_rule,
    remark47_first_sum,
    render_locus,
    rewrite_no_squares,
    split_by_g,
)
from .permutations import Permutation, all_perms, parse_oneline
from .polyring import Polynomial, parse_text, q, x
from .schubert import (
    classical_single,
    schubert_expand_M,
    universal_cy,
    universal_double,
    universal_single,
)
from .specialize import (
    FlagProfile,
    c_from_g,
    c_from_g_det,
    c_from_g_paths,
    classical_specialize,
    g_classical,
    partial_flag_specialize,
    quantum_specialize,
    to_g_form,
    zero_y,
)

# -- small helpers --------------------------------------------------------------

def _parse_perm(text: str) -> tuple[Permutation, int]:
    """Permutation plus the raw word length (before trailing fixed points drop)."""
    text = text.strip()
    raw = len(text.split(",")) if "," in text else len(text)
    return parse_oneline(text), raw


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _word(w: Permutation, n: int) -> str:
    return ",".join(str(v) for v in w.as_tuple(n))


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _poly_out(p: Polynomial, fmt: str) -> str:
    if fmt == "latex":
        return p.latex()
    if fmt == "json":
        return _json_dumps(p.to_json())
    return p.text()


def _print_rows(rows: list[tuple[Permutation, Polynomial]], n: int, fmt: str, key: str) -> None:
    """One ``w: polynomial`` line per row, or a JSON list of {w, key} records."""
    if fmt == "json":
        print(_json_dumps([{"w": list(w.as_tuple(n + 1)), key: p.to_json()} for w, p in rows]))
    else:
        for w, p in rows:
            print(f"{_word(w, n + 1)}: {_poly_out(p, fmt)}")


def _print_expansion(expansion: dict[Permutation, Polynomial], n: int, fmt: str) -> None:
    """A Schubert-basis expansion in R_n, by length and then one-line word."""
    rows = sorted(expansion.items(), key=lambda t: (t[0].length(), t[0].as_tuple(n + 1)))
    _print_rows(rows, n, fmt, "coeff")


def _default_n(args, raw: int) -> int:
    return args.n if args.n is not None else max(raw - 1, 0)


# -- polynomial verbs -------------------------------------------------------------

def _cmd_single(args) -> int:
    w, raw = _parse_perm(args.word)
    n = _default_n(args, raw)
    print(_poly_out(universal_single(w, n).to_polynomial("c"), args.format))
    return 0


def _cmd_double(args) -> int:
    w, raw = _parse_perm(args.word)
    n = _default_n(args, raw)
    print(_poly_out(universal_double(w, n), args.format))
    return 0


def _cmd_specialize(args) -> int:
    w, raw = _parse_perm(args.word)
    n = _default_n(args, raw)
    if args.rule == "classical":
        out = classical_specialize(universal_single(w, n).to_polynomial("c"))
    elif args.rule == "classical-double":
        out = classical_specialize(universal_double(w, n))
    elif args.rule == "gform":
        out = to_g_form(universal_single(w, n).to_polynomial("c"))
    elif args.rule == "quantum":
        out = quantum_specialize(universal_single(w, n).to_polynomial("c"))
    else:
        if args.profile is None:
            raise ValueError("rule 'flag' needs --profile")
        profile = FlagProfile.parse(args.profile)
        out = partial_flag_specialize(w, profile, route=args.route)
    print(_poly_out(out, args.format))
    return 0


def _cmd_locus(args) -> int:
    w, _ = _parse_perm(args.word)
    profile = RankProfile(_ints(args.ranks_e), _ints(args.ranks_f))
    mode = "interval" if args.interval else "strict"
    p = locus_formula(w, profile, mode=mode)
    if args.format == "json":
        print(_json_dumps({"polynomial": p.to_json(), "rendered": render_locus(p, profile)}))
    elif args.format == "latex":
        print(p.latex())
    else:
        print(render_locus(p, profile))
    return 0


def _cmd_expand(args) -> int:
    p = parse_text(args.expr)
    bad = [v for v in p.variables() if v.kind not in ("c", "g")]
    if bad:
        raise ValueError(f"expand works on c/g polynomials, found {bad[0].text()}")
    flat = rewrite_no_squares(p, args.n)
    points = [v.j for v in flat.variables() if v.kind == "c"]
    n = max(points + [args.n if args.n is not None else 1])
    rows = []
    for gpart, el in sorted(split_by_g(flat, n).items()):
        gtext = Polynomial({gpart: 1}).text() if gpart else ""
        for w, coeff in sorted(
            schubert_expand_M(el).items(), key=lambda t: (t[0].length(), t[0].as_tuple(n + 1))
        ):
            rows.append((gtext, w, coeff))
    if args.format == "json":
        print(_json_dumps([
            {"g": gtext or None, "w": list(w.as_tuple(n + 1)), "coeff": coeff}
            for gtext, w, coeff in rows
        ]))
    else:
        for gtext, w, coeff in rows:
            head = f"{coeff} * " if coeff != 1 else ""
            mid = f"{gtext} * " if gtext else ""
            print(f"{head}{mid}S({_word(w, n + 1)})")
    return 0


# -- searches and reports ----------------------------------------------------------

def _cmd_product_rule(args) -> int:
    report = product_rule(args.i, args.j, args.k)
    if args.format == "json":
        print(_json_dumps({
            "i": report.i,
            "j": report.j,
            "k": report.k,
            "lhs": report.lhs.to_json(),
            "rhs": report.rhs.to_json(),
            "equal": report.equal_in_g,
        }))
    else:
        render = (lambda p: p.latex()) if args.format == "latex" else (lambda p: p.text())
        print(f"lhs: {render(report.lhs)}")
        print(f"rhs: {render(report.rhs)}")
        print(f"equal in g: {'yes' if report.equal_in_g else 'NO'}")
    return 0 if report.equal_in_g else 2


def _cmd_search_det19(args) -> int:
    w, raw = _parse_perm(args.word)
    n = _default_n(args, raw)
    if args.exhaustive:
        hits = det19_search(w, n, exhaustive=True)
        if args.format == "json":
            print(_json_dumps([det19_record(w, n, hit) for hit in hits]))
        elif not hits:
            print("none")
        else:
            for sigma, spec in hits:
                print(f"{spec.label()}  sigma={_word(sigma, n)}")
        return 0
    hit = det19_search(w, n)
    if args.format == "json":
        print(_json_dumps(det19_record(w, n, hit)))
    elif hit is None:
        print("none")
    else:
        print(f"{hit[1].label()}  sigma={_word(hit[0], n)}")
    return 0


def _cmd_census(args) -> int:
    records = det19_census(args.n)
    if args.format == "json":
        print(_json_dumps(records))
        return 0
    hits = 0
    for rec in records:
        wtext = ",".join(str(v) for v in rec["w"])
        if rec["spec"] is None:
            print(f"{wtext}: none")
            continue
        hits += 1
        spec = DetSpec(tuple(rec["spec"]["a"]), tuple(rec["spec"]["b"]))
        print(f"{wtext}: {spec.label()}  sigma={','.join(str(v) for v in rec['sigma'])}")
    print(f"expressed {hits} of {len(records)}")
    return 0


def _cmd_table(args) -> int:
    n = 2 if args.n is None else args.n
    words = sorted(all_perms(n + 1), key=lambda u: (-u.length(), u.as_tuple(n + 1)))
    _print_rows([(w, universal_double(w, n)) for w in words], n, args.format, "polynomial")
    return 0


# -- the quotient ring -------------------------------------------------------------

def _ring_n(args) -> int:
    if args.n is None:
        raise ValueError("ring actions need an explicit --n")
    return args.n


def _take(exprs: list[str], count: int, action: str) -> list[str]:
    if len(exprs) != count:
        raise ValueError(f"ring {action} takes {count} expression(s), got {len(exprs)}")
    return exprs


def _cmd_ring(args) -> int:
    action = args.action
    if action == "multiply":
        words = _take(args.exprs, 2, action)
        u, ru = _parse_perm(words[0])
        v, rv = _parse_perm(words[1])
        n = args.n if args.n is not None else max(ru, rv) - 1
        _print_expansion(uring.multiply_expand(u, v, n), n, args.format)
        return 0
    n = _ring_n(args)
    if action == "normal-form":
        el = uring.normal_form(parse_text(_take(args.exprs, 1, action)[0]), n)
        print(_poly_out(el.to_polynomial(), args.format))
        return 0
    if action == "expand":
        el = uring.normal_form(parse_text(_take(args.exprs, 1, action)[0]), n)
        _print_expansion(uring.schubert_basis_expand(el), n, args.format)
        return 0
    if action == "inner":
        exprs = _take(args.exprs, 2, action)
        a = uring.normal_form(parse_text(exprs[0]), n)
        b = uring.normal_form(parse_text(exprs[1]), n)
        print(_poly_out(uring.inner_product(a, b), args.format))
        return 0
    if action == "omega":
        out = uring.omega(parse_text(_take(args.exprs, 1, action)[0]), n)
        print(_poly_out(out, args.format))
        return 0
    if action == "rank":
        report = uring.staircase_rank_report(n)
        if args.format == "json":
            print(_json_dumps(report))
        else:
            for row in report["degrees"]:
                print(f"degree {row['degree']}: dimension {row['dimension']}")
            print("full rank" if report["full_rank"] else "RANK DROP")
        return 0 if report["full_rank"] else 2
    _take(args.exprs, 0, action)
    report = uring.check_orthogonality(n) if action == "verify-25" else uring.check_diagonal_vanishing(n)
    if args.format == "json":
        print(_json_dumps(report))
    else:
        for failure in report["failures"]:
            print(f"FAIL {failure}")
        print(f"checked {report['checked']}, failures {len(report['failures'])}")
    return 0 if not report["failures"] else 2


# -- verification suites -------------------------------------------------------------

Check = tuple[str, bool, str]


def _tally(label: str, items, ok: Callable[..., bool]) -> Check:
    """Passes when ``ok`` holds for every item; the detail reads ``passed/total``."""
    items = list(items)
    passed = sum(1 for item in items if ok(item))
    return (label, passed == len(items), f"{passed}/{len(items)}")


def _suite_routes(n: int) -> list[Check]:
    def agree(w: Permutation) -> bool:
        return universal_single(w, n).to_polynomial("c") == zero_y(universal_cy(w, n))

    return [_tally(f"construction routes agree on S_{n + 1}", all_perms(n + 1), agree)]


def _suite_classical(n: int) -> list[Check]:
    def agree(w: Permutation) -> bool:
        return classical_specialize(universal_single(w, n).to_polynomial("c")) == classical_single(w)

    return [_tally(f"classical specialization matches divided differences on S_{n + 1}",
                   all_perms(n + 1), agree)]


def _suite_leading(n: int) -> list[Check]:
    def unital(w: Permutation) -> bool:
        el = universal_single(w, n)
        lead = max(el.codes)
        return lead == w.code_tail(n) and el.codes[lead] == 1

    return [_tally(f"lex-leading code is the modified code with coefficient 1 on S_{n + 1}",
                   all_perms(n + 1), unital)]


def _suite_duality(n: int) -> list[Check]:
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
    for mask in range(1, 1 << top):
        yield FlagProfile(tuple(i for i in range(1, top + 1) if mask & (1 << (i - 1))))


def _suite_flags(top: int) -> list[Check]:
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
    records = det19_census(n)
    hits = sum(1 for rec in records if rec["spec"] is not None)
    checks: list[Check] = []
    if n == 4:
        for wt, (a, b) in sorted(_PRINTED_SPECS.items()):
            rec = next(r for r in records if tuple(r["w"]) == wt)
            ok = rec["spec"] is not None and (
                tuple(rec["spec"]["a"]) == a and tuple(rec["spec"]["b"]) == b
            )
            label = DetSpec(a, b).label()
            checks.append((f"search finds {label} for {','.join(map(str, wt))}", ok, str(rec["spec"])))
        rec = next(r for r in records if tuple(r["w"]) == (1, 5, 3, 2, 4))
        checks.append(("1,5,3,2,4 admits no expression", rec["spec"] is None, str(rec["spec"])))
        vex = sum(1 for w in all_perms(5) if w.is_vexillary())
        checks.append(("vexillary count in S_5 is 103", vex == 103, str(vex)))
        checks.append((
            "expressions found for exactly 112 of 120",
            hits == 112,
            f"found {hits}",
        ))
    else:
        checks.append((f"census over S_{n + 1} ran", True, f"found {hits} of {len(records)}"))
    return checks


def _suite_product_rule(kmax: int) -> list[Check]:
    triples = [(i, j, k) for k in range(0, kmax + 1) for i in range(0, k + 1) for j in range(0, k + 1)]

    def both(triple: tuple[int, int, int]) -> tuple[bool, bool]:
        report = product_rule(*triple)
        reduced = classical_specialize(remark47_first_sum(*triple))
        return report.equal_in_g, reduced == g_classical(to_g_form(report.lhs))

    results = {t: both(t) for t in triples}
    return [
        _tally(f"product rule holds in g for 0 <= i, j <= k <= {kmax}", triples, lambda t: results[t][0]),
        _tally(f"classically only the leading sum survives for k <= {kmax}", triples,
               lambda t: results[t][1]),
    ]


def _suite_diagrams(n: int) -> list[Check]:
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


_SUITES = {
    "routes": (_suite_routes, 4),
    "classical": (_suite_classical, 4),
    "leading": (_suite_leading, 4),
    "duality": (_suite_duality, 3),
    "quantum": (_suite_quantum, 5),
    "flags": (_suite_flags, 4),
    "grassmannian": (_suite_grassmannian, 4),
    "census": (_suite_census, 4),
    "product-rule": (_suite_product_rule, 4),
    "diagrams": (_suite_diagrams, 5),
    "ring": (_suite_ring, 2),
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        fn, default_n = _SUITES[name]
        n = args.n if args.n is not None else default_n
        for label, ok, detail in fn(n):
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uschub", description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    sub = verbs.add_parser("single", help="single universal polynomial of a permutation")
    sub.add_argument("word", help="one-line permutation, comma-separated or digits")
    sub.add_argument("--n", type=int, default=None)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_single)

    sub = verbs.add_parser("double", help="double universal polynomial of a permutation")
    sub.add_argument("word")
    sub.add_argument("--n", type=int, default=None)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_double)

    sub = verbs.add_parser("specialize", help="specialize the polynomial of a permutation")
    sub.add_argument("word")
    sub.add_argument("--rule", required=True,
                     choices=("classical", "classical-double", "gform", "quantum", "flag"))
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--profile", default=None, help="cut points for --rule flag, e.g. 2,4")
    sub.add_argument("--route", choices=("A", "B"), default="A")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_specialize)

    sub = verbs.add_parser("locus", help="degeneracy-locus class over a rank profile")
    sub.add_argument("word")
    sub.add_argument("--ranks-e", required=True, help="ranks of the source chain, e.g. 1,2,3")
    sub.add_argument("--ranks-f", required=True, help="ranks of the target chain")
    sub.add_argument("--interval", action="store_true",
                     help="snap evaluation points down instead of requiring containment")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_locus)

    sub = verbs.add_parser("expand", help="expand a c/g polynomial in the Schubert basis")
    sub.add_argument("expr")
    sub.add_argument("--n", type=int, default=None)
    _add_format(sub, choices=("text", "json"))
    sub.set_defaults(handler=_cmd_expand)

    sub = verbs.add_parser("product-rule", help="both sides of the same-point product rule")
    sub.add_argument("--i", type=int, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_product_rule)

    sub = verbs.add_parser("search-det19", help="determinantal expression search for one permutation")
    sub.add_argument("word")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--exhaustive", action="store_true")
    _add_format(sub, choices=("text", "json"))
    sub.set_defaults(handler=_cmd_search_det19)

    sub = verbs.add_parser("census", help="determinantal expression search over a full S_{n+1}")
    sub.add_argument("--n", type=int, default=4)
    _add_format(sub, choices=("text", "json"))
    sub.set_defaults(handler=_cmd_census)

    sub = verbs.add_parser("ring", help="work inside the universal quotient ring")
    sub.add_argument("action", choices=(
        "normal-form", "expand", "multiply", "inner", "omega", "rank", "verify-25", "verify-26"))
    sub.add_argument("exprs", nargs="*")
    sub.add_argument("--n", type=int, default=None)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_ring)

    sub = verbs.add_parser("table", help="table of double polynomials for S_{n+1}")
    sub.add_argument("--n", type=int, default=None)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_table)

    sub = verbs.add_parser("verify", help="run a verification sweep")
    sub.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    sub.add_argument("--n", type=int, default=None)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:  # RecursionError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
