"""End-to-end checks of the command surface: output bytes, exit codes, JSON."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
from hashlib import sha256

import pytest

import uschub
from frozen import (
    CENSUS_N4_DIGESTS,
    CENSUS_N5_DIGEST,
    CENSUS_N5_HITS,
    EXPAND_DIGESTS,
    HELP_DIGESTS,
    QUANTUM_231,
    SEARCH_DET19_DIGESTS,
    VERIFY_CENSUS_STDOUT,
)
from uschub import schubert
from uschub.cli import build_parser, main
from uschub.formulas import det19_census, det19_record
from uschub.permutations import Permutation
from uschub.polyring import ONE, parse_json
from uschub.schubert import MElement, universal_single

GOLDEN = pathlib.Path(__file__).parent / "golden" / "s3_table.txt"
README = pathlib.Path(__file__).parent.parent / "README.md"


def run(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


# -- plain construction ----------------------------------------------------------

def test_single_text():
    assert run("single", "2,3,1") == (0, "c2(2)\n", "")


def _readme_examples() -> list[tuple[str, list[str]]]:
    """(command, the lines shown under it) for each ``$ uschub`` line of a README code block."""
    examples, shown, fenced = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ uschub "):
            shown = []
            examples.append((line.removeprefix("$ uschub "), shown))
        elif shown is not None and line:
            shown.append(line)
        else:
            shown = None
    return examples


def test_readme_examples_print_what_the_readme_shows():
    examples = _readme_examples()
    assert len(examples) == 16
    for command, shown in examples:
        command, _, _ = command.partition("#")
        command, pipe, tail = command.partition("|")
        assert tail.strip() == ("tail -1" if pipe else ""), command
        code, out, err = run(*shlex.split(command))
        assert (code, err) == (0, ""), command
        assert (out.splitlines()[-1:] if pipe else out.splitlines()) == shown, command


def test_single_latex():
    assert run("single", "2,3,1", "--format", "latex") == (0, "c_{2}(2)\n", "")


def test_single_json_round_trip():
    code, out, _ = run("single", "3,1,2", "--format", "json")
    assert code == 0
    parsed = parse_json(json.loads(out))
    assert parsed == universal_single(Permutation((3, 1, 2)), 2).to_polynomial("c")


def test_double_text():
    assert run("double", "2,1") == (0, "c1(1) - d1(1)\n", "")


def test_specialize_quantum():
    assert run("specialize", "2,3,1", "--rule", "quantum") == (0, QUANTUM_231 + "\n", "")


# -- the table --------------------------------------------------------------------

def test_table_matches_the_golden_file():
    code, out, _ = run("table", "--n", "2")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_table_small():
    assert run("table", "--n", "1")[1] == "2,1: c1(1) - d1(1)\n1,2: 1\n"
    assert run("table", "--n", "0")[1] == "1: 1\n"


# -- expansion and the search -------------------------------------------------------

def test_expand_square():
    code, out, _ = run("expand", "c1(1)^2")
    assert code == 0
    assert out == "S(3,1,2)\ng1[1] * S(1,2,3)\n"


def test_expand_product():
    assert run("expand", "c1(1)*c1(2)")[1] == "S(2,3,1)\nS(3,1,2)\n"


def test_expand_of_high_same_point_powers_is_pinned(time_limit):
    # Ran for about 10 s while square elimination rescanned and rebuilt the
    # whole polynomial at every step.
    with time_limit(5):
        code, out, err = run("expand", "c1(4)^4*c2(4)^2")
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == "2c6475578f6337c87a572f17bb3ac31a5b9efb8b142bd30ef4267ff877690a0e"


@pytest.mark.parametrize("expr", sorted(EXPAND_DIGESTS))
def test_expand_of_eighth_powers_is_pinned_and_quick(expr):
    # 5.5 s and 15 s while square elimination rewrote a monomial each time it came back
    start = time.monotonic()
    code, out, err = run("expand", expr)
    assert time.monotonic() - start < 2
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == EXPAND_DIGESTS[expr]


def test_search_hit_and_miss():
    code, out, _ = run("search-det19", "5,1,4,2,3")
    assert (code, out) == (0, "D_{2,2,1,1}(4,3,2,1)  sigma=4,3,2,1\n")
    assert run("search-det19", "1,5,3,2,4")[1] == "none\n"


def test_search_json():
    code, out, _ = run("search-det19", "5,1,4,2,3", "--format", "json")
    record = json.loads(out)
    assert record["w"] == [5, 1, 4, 2, 3]
    assert record["spec"] == {"a": [2, 2, 1, 1], "b": [4, 3, 2, 1]}
    assert record["sigma"] == [4, 3, 2, 1]


@pytest.mark.parametrize("args", sorted(SEARCH_DET19_DIGESTS), ids="-".join)
def test_search_output_is_pinned(args):
    code, out, err = run("search-det19", *args[:-1], "--format", args[-1])
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == SEARCH_DET19_DIGESTS[args]


def test_product_rule_report():
    code, out, _ = run("product-rule", "--i", "1", "--j", "1", "--k", "2")
    assert code == 0
    assert out.endswith("equal in g: yes\n")


# -- loci ---------------------------------------------------------------------------

def test_locus_render_and_json():
    code, out, _ = run("locus", "1,3,2", "--ranks-e", "2", "--ranks-f", "2")
    assert (code, out.strip()) == (0, "c1(E1) - c1(F1)")
    code, out, _ = run(
        "locus", "1,3,2", "--ranks-e", "2", "--ranks-f", "2", "--format", "json"
    )
    record = json.loads(out)
    assert record["rendered"] == "c1(E1) - c1(F1)"
    assert parse_json(record["polynomial"]).text() == "c1(2) - d1(2)"


# -- the census -----------------------------------------------------------------------

def test_census_text_summary():
    code, out, _ = run("census", "--n", "3")
    assert code == 0
    assert out.rstrip().endswith("expressed 24 of 24")


@pytest.mark.parametrize("fmt", sorted(CENSUS_N4_DIGESTS))
def test_census_of_s5_output_is_pinned(fmt):
    code, out, err = run("census", "--n", "4", "--format", fmt)
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == CENSUS_N4_DIGESTS[fmt]


def test_census_of_s6_output_is_pinned():
    code, out, err = run("census", "--n", "5")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"expressed {CENSUS_N5_HITS} of 720"
    assert sha256(out.encode()).hexdigest() == CENSUS_N5_DIGEST


def test_census_json_is_the_library_census():
    code, out, _ = run("census", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [det19_record(w, 3, hit) for w, hit in det19_census(3)]


def test_census_is_deterministic():
    first = run("census", "--n", "3", "--format", "json")
    second = run("census", "--n", "3", "--format", "json")
    assert first == second


# -- verification plumbing -------------------------------------------------------------

def test_verify_duality_passes():
    code, out, _ = run("verify", "duality", "--n", "2")
    assert code == 0
    assert out.rstrip().endswith("all checks passed")


def test_verify_census_fails_the_stated_count():
    code, out, _ = run("verify", "census")
    assert code == 2
    assert "FAIL census" in out
    assert "found 113" in out
    assert out == VERIFY_CENSUS_STDOUT


def test_ring_actions():
    assert run("ring", "normal-form", "x1^2", "--n", "1") == (0, "g1[1]\n", "")
    code, out, _ = run("ring", "verify-26", "--n", "2")
    assert (code, out) == (0, "checked 5, failures 0\n")
    code, out, _ = run("ring", "verify-25", "--n", "1")
    assert code == 0


def test_ring_multiply_prints_no_zero_coefficients(time_limit):
    # a slice of the expansion that cancels to zeros must not be peeled into a "w: 0" row
    with time_limit(10):
        code, out, err = run("ring", "multiply", "1,2,4,5,3", "5,4,2,1,3", "--n", "4")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert rows and not [row for row in rows if row.endswith(": 0")]


# -- failure modes -----------------------------------------------------------------------

def test_domain_error_exits_1():
    code, out, err = run("single", "9,9")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("action", ["rank", "verify-25", "verify-26"])
@pytest.mark.parametrize("exprs", [("x1",), ("21", "x1")])
def test_ring_actions_without_expressions_refuse_stray_ones(action, exprs):
    assert run("ring", action, *exprs, "--n", "1") == (
        1, "", f"error: ring {action} takes 0 expression(s), got {len(exprs)}\n")


@pytest.mark.parametrize("args, message", [
    (("specialize", "2,1", "--rule", "flag"), "rule 'flag' needs --profile"),
    (("ring", "normal-form", "x1"), "ring actions need an explicit --n"),
    (("product-rule", "--i", "3", "--j", "0", "--k", "2"), "need 0 <= i, j <= k"),
], ids=("flag-without-profile", "ring-without-n", "product-rule-out-of-range"))
def test_a_request_missing_its_size_or_out_of_range_exits_1(args, message):
    assert run(*args) == (1, "", f"error: {message}\n")


def test_ring_multiply_outside_s_n_plus_1_exits_1():
    assert run("ring", "multiply", "321", "21", "--n", "1") == (1, "", "error: (3,2,1) does not fit in S_2\n")


def test_profile_parses_as_comma_separated_ints():
    args = build_parser().parse_args(["specialize", "1", "--rule", "flag", "--profile", "2,4"])
    assert args.profile == (2, 4)


@pytest.mark.parametrize("args", [
    ("specialize", "2,1,3", "--rule", "flag", "--profile", "2,a"),
    ("specialize", "2,1,3", "--rule", "flag", "--profile", ""),
    ("locus", "1,3,2", "--ranks-f", "2", "--ranks-e", "a"),
    ("locus", "1,3,2", "--ranks-e", "2", "--ranks-f", "2,"),
], ids=("profile", "empty-profile", "ranks-e", "ranks-f"))
def test_a_bad_int_list_is_a_usage_error_naming_its_option(args):
    # each exited 1 with the bare "invalid literal for int() with base 10"
    option, bad = args[-2:]
    code, out, err = run(*args)
    assert (code, out) == (1, "")
    assert "usage" in err
    assert err.endswith(f"error: argument {option}: invalid comma-separated ints: {bad!r}\n")


@pytest.mark.parametrize("word", ("1,,2", "1,a", ",", "1a34"))
def test_a_bad_word_says_it_cannot_be_read(word):
    # the comma-separated ones exited 1 with the bare "invalid literal for int() with base 10"
    assert run("single", word) == (1, "", f"error: cannot read permutation from {word!r}\n")


def test_g_variables_outside_the_coefficient_ring_exit_1():
    for args in (
        ("ring", "expand", "g9[9]", "--n", "1"),
        ("ring", "normal-form", "g9[9]*x1", "--n", "1"),
        ("ring", "inner", "g3[3]", "x1", "--n", "1"),
    ):
        code, out, err = run(*args)
        assert (code, out) == (1, ""), args
        assert err.startswith("error:"), args


def test_foreign_variables_exit_1_even_when_they_cancel():
    # x4 = -(x1 + x2 + x3) in R_3 cancels every d-term, yet d1(1) is not in the ring
    code, out, err = run("ring", "normal-form", "d1(1)*x4 + d1(1)*x1 + d1(1)*x2 + d1(1)*x3", "--n", "3")
    assert (code, out, err) == (1, "", "error: unexpected variable d1(1) in reduction\n")


def test_too_deep_a_recursion_exits_1_without_a_traceback(monkeypatch):
    def too_deep(w, n):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(schubert, "universal_single", too_deep)
    assert run("single", "1", "--n", "3") == (1, "", "error: maximum recursion depth exceeded\n")


def test_a_bug_is_not_reported_as_an_error_line(monkeypatch):
    # every budget raises ArithmeticError, so a plain RuntimeError is a fault and leaves main with its traceback
    def broken(w, n):
        raise RuntimeError("generator raised StopIteration")

    monkeypatch.setattr(schubert, "universal_single", broken)
    with pytest.raises(RuntimeError, match="generator raised StopIteration"):
        main(["single", "1", "--n", "3"])


def cycle(m: int) -> str:
    """The cycle 2, 3, ..., m, 1, whose climb in its own S_m is (m-1)(m-2)/2 levels of one code each."""
    return ",".join(map(str, [*range(2, m + 1), 1]))


def test_a_climb_past_the_budget_is_refused_in_a_time_independent_of_n(time_limit):
    # the climb keyed its word of length n + 1 at every level: 17-22 s at n = 20,000 before it exited 1
    for m in (600, 20_000):
        with time_limit(5):
            code, out, err = run("single", cycle(m))
        assert (code, out, err) == (1, "", "error: the ladder needs more than 131,072 levels\n")


def test_a_climb_of_45k_levels_answers_and_one_past_the_budget_exits_1(time_limit):
    # n = 300 nested up to 2(n + 1) ladder calls and exited 1 past the interpreter's limit; the ladder is a loop now,
    # and the cycle's (m-1)(m-2)/2 levels pass LADDER_BUDGET from m = 514
    try:
        with time_limit(30):
            assert run("single", cycle(301)) == (0, "c300(300)\n", "")
    finally:
        schubert.clear_caches()
    with time_limit(10):
        code, out, err = run("single", cycle(600))
    assert (code, out, err) == (1, "", "error: the ladder needs more than 131,072 levels\n")


def test_short_words_answer_at_any_n(time_limit):
    # the identity and 2,1 climbed all of S_{n+1}: past the interpreter's recursion limit from n = 34 while every
    # ladder level was one nested call, about 2 s and 246 MB at n = 300, and refused from n = 512
    with time_limit(2):
        assert run("single", "1", "--n", "600") == (0, "1\n", "")
        assert run("double", "21", "--n", "300") == (0, "c1(1) - d1(1)\n", "")
        assert run("single", "1", "--n", "35") == (0, "1\n", "")
        assert run("double", "21", "--n", "40") == (0, "c1(1) - d1(1)\n", "")
        assert run("specialize", "2,1", "--rule", "gform", "--n", "40") == (0, "g1[0]\n", "")
        assert universal_single(Permutation((2, 1)), 40) == MElement({(1,) + (0,) * 39: 1}, 40)
        assert universal_single(Permutation.identity(), 60).to_polynomial("c") == ONE


def test_ladder_answers_long_and_padded_words(time_limit):
    # Both ran for more than 20 s when the construction climbed by divided
    # differences and inverted one rational matrix per degree.
    with time_limit(10):
        assert run("single", "1,2,3,4,5,6,7,8,9,10,12,11") == (0, "c1(11)\n", "")
        assert run("single", "4,3,2,1", "--n", "6") == (0, "c1(1)*c2(2)*c3(3)\n", "")


@pytest.mark.parametrize("args, out, levels", [
    (("single", cycle(48), "--n", "47"), "c47(47)\n", 1 + 1_081),
    (("double", cycle(12)), "99c289b70a995b2e7bc4d5d938b00501b4587559abc017c84e12279be7f51afd", 706),
    (("specialize", cycle(48), "--rule", "classical"), "*".join(f"x{i}" for i in range(1, 48)) + "\n", 1 + 1_081),
], ids=["single", "double", "specialize"])
def test_long_climbs_answer(args, out, levels, time_limit):
    # each exited 1 at the interpreter's recursion limit when every ladder level was one nested call.  A cycle in S_48
    # climbs 1,081 levels below its top; the double of the cycle in S_12 (80,900 bytes, given by its digest) climbs
    # the single forms of all its factors, 706 levels of S_12
    schubert.clear_caches()
    try:
        with time_limit(10):
            code, text, err = run(*args)
        assert (code, err) == (0, "") and out in (text, sha256(text.encode()).hexdigest())
        assert len(schubert._levels(len(args[1].split(",")), "single")) == levels
    finally:
        schubert.clear_caches()


def test_long_ladders_exit_1_at_the_budget():
    # s_30 in S_31 ran without bound: its ladder levels grow to 2^29 codes.  A
    # child process keeps the ladder memo (about 150 MB at the budget) out of
    # the test process.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(uschub.__file__).parent.parent)}
    word = ",".join(map(str, [*range(1, 30), 31, 30]))
    done = subprocess.run([sys.executable, "-m", "uschub.cli", "single", word], env=env, text=True,
                          capture_output=True, timeout=10)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error:") and "codes at one level" in done.stderr


def test_malformed_expression_exits_1(time_limit):
    with time_limit(10):
        code, out, err = run("expand", "x1^")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_high_powers_in_the_ring_answer_or_exit_1_in_bounded_time():
    # The first two ran without bound before each reduction walk had a budget;
    # x4^24 answered after 72-90 s while each tuple of the x_4 expansion had a
    # budget of its own, and must stop on the one budget of its walk.  Child
    # processes keep the walks' memos out of the test process, and run side by side.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(uschub.__file__).parent.parent)}
    deadline = time.monotonic() + 10
    must_stop = ("ring", "normal-form", "x4^24", "--n", "3")
    children = {
        args: subprocess.Popen([sys.executable, "-m", "uschub.cli", *args], env=env, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for args in (("ring", "normal-form", "x2^301", "--n", "2"), ("ring", "inner", "x1", "x2^40", "--n", "3"),
                     must_stop)
    }
    try:
        for args, child in children.items():
            out, err = child.communicate(timeout=max(deadline - time.monotonic(), 0))
            assert child.returncode in ((1,) if args == must_stop else (0, 1)), args
            if child.returncode:
                assert out == "" and err.startswith("error:"), args
    finally:
        for child in children.values():
            child.kill()


# The rest of a valid command line for each verb that takes --n.
N_ARGS = {
    "census": (),
    "double": ("1",),
    "expand": ("c1(1)",),
    "ring": ("rank",),
    "search-det19": ("1",),
    "single": ("1",),
    "specialize": ("1", "--rule", "quantum"),
    "table": (),
    "verify": ("quantum",),
}


def _verbs_with_n() -> list[str]:
    verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(name for name, sub in verbs.choices.items() if "--n" in sub._option_string_actions)


@pytest.mark.parametrize("verb", _verbs_with_n())
def test_negative_n_is_a_usage_error(verb):
    # Each of these reached the constructions unchecked; verify printed
    # "all checks passed" over no cases and exited 0.
    code, out, err = run(verb, *N_ARGS[verb], "--n", "-1")
    assert (code, out) == (1, "")
    assert "argument --n: must be at least 0, got -1" in err


BELOW_THE_LEAST_N = [
    # verify quantum and flags checked nothing at --n 0, printed (0/0) and exited 0;
    # verify duality asked for the polynomials at n - 1 = -1
    *(("verify", suite) for suite in ("quantum", "flags", "duality", "ring")),
    ("verify", "all"),
    *(("ring", action, *exprs) for action, exprs in (
        ("normal-form", ("x1",)), ("expand", ("x1",)), ("multiply", ("2,1", "2,1")), ("inner", ("1", "x1")),
        ("omega", ("x1",)), ("rank", ()), ("verify-25", ()), ("verify-26", ()))),
]


@pytest.mark.parametrize("args", BELOW_THE_LEAST_N, ids=lambda args: "-".join(args[:2]))
def test_n_below_the_least_exits_1_naming_it(args):
    verb, name = args[:2]
    first = "duality" if name == "all" else name  # the first suite of the sweep that needs n >= 1
    assert run(*args, "--n", "0") == (1, "", f"error: {verb} {first} needs --n >= 1, got 0\n")


@pytest.mark.parametrize("args", sorted(HELP_DIGESTS), ids=lambda args: args[0] if len(args) > 1 else "uschub")
def test_help_output_is_pinned(args, monkeypatch):
    # argparse reads the terminal width from COLUMNS when it builds each formatter
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(*args)
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == HELP_DIGESTS[args]


def test_usage_error_prints_help():
    code, _, err = run("nonsense")
    assert code == 1
    assert "usage" in err


def test_missing_argument_is_a_usage_error():
    code, _, err = run("product-rule", "--i", "1")
    assert code == 1
    assert "usage" in err


def test_errors_name_the_smallest_variable_under_any_hash_seed():
    # Each input holds several bad variables; the message names the first in
    # package order, whatever the string hashes or the object addresses are.
    cases = (
        (("expand", "x1 + y2 + d1(1) + h1[0]"), "error: expand works on c/g polynomials, found d1(1)\n"),
        (("ring", "omega", "x7 + x9 + x5", "--n", "2"), "error: x5 is outside x_1..x_3\n"),
        (("expand", "c1(5) + c1(7)", "--n", "3"), "error: c-point 5 exceeds the stated bound 3\n"),
    )
    src = str(pathlib.Path(uschub.__file__).parent.parent)
    for args, expected in cases:
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-m", "uschub.cli", *args],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stdout, done.stderr) == (1, "", expected), (args, seed)


# Runs one command in the child, then prints the names of the loaded modules
# as the last line of stdout.
_LOADED = (
    "import sys\n"
    "from uschub.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('#loaded', *sorted(sys.modules))\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("args, code, absent, present", [
    (("single", "2,1,4,3"), 0,
     ("uschub.uring", "uschub.formulas", "uschub.specialize", "dataclasses", "inspect", "json"), ()),
    (("expand", "c1(1)^"), 1, ("uschub.formulas",), ()),
    (("ring", "normal-form", "x1", "--n", "1"), 0, (), ("uschub.uring",)),
], ids=("single", "malformed-expand", "ring"))
def test_each_verb_loads_only_the_modules_it_runs(args, code, absent, present):
    # A fresh process per request compiles every module it imports when no
    # bytecode is cached; modules loaded in-process by other tests hide this.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(uschub.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _LOADED, *args], env=env, text=True,
                          capture_output=True, timeout=30)
    assert done.returncode == code, done.stderr
    _, _, loaded = done.stdout.rpartition("#loaded ")
    loaded = set(loaded.split())
    assert "uschub.cli" in loaded
    assert not loaded & set(absent)
    assert set(present) <= loaded
