"""End-to-end checks of the command surface: output bytes, exit codes, JSON."""

import contextlib
import io
import json
import pathlib

from frozen import QUANTUM_231
from uschub.cli import main
from uschub.formulas import det19_census
from uschub.permutations import Permutation
from uschub.polyring import parse_json
from uschub.schubert import universal_single

GOLDEN = pathlib.Path(__file__).parent / "golden" / "s3_table.txt"


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


def test_census_json_is_the_library_census():
    code, out, _ = run("census", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == det19_census(3)


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


def test_ring_actions():
    assert run("ring", "normal-form", "x1^2", "--n", "1") == (0, "g1[1]\n", "")
    code, out, _ = run("ring", "verify-26", "--n", "2")
    assert (code, out) == (0, "checked 5, failures 0\n")
    code, out, _ = run("ring", "verify-25", "--n", "1")
    assert code == 0


# -- failure modes -----------------------------------------------------------------------

def test_domain_error_exits_1():
    code, out, err = run("single", "9,9")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_g_variables_outside_the_coefficient_ring_exit_1():
    for args in (
        ("ring", "expand", "g9[9]", "--n", "1"),
        ("ring", "normal-form", "g9[9]*x1", "--n", "1"),
        ("ring", "inner", "g3[3]", "x1", "--n", "1"),
    ):
        code, out, err = run(*args)
        assert (code, out) == (1, ""), args
        assert err.startswith("error:"), args


def test_too_deep_a_recursion_exits_1_without_a_traceback(time_limit):
    word = ",".join(map(str, [*range(1, 45), 46, 45]))
    with time_limit(30):
        code, out, err = run("single", word)
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_ladder_answers_long_and_padded_words(time_limit):
    # Both ran for more than 20 s when the construction climbed by divided
    # differences and inverted one rational matrix per degree.
    with time_limit(10):
        assert run("single", "1,2,3,4,5,6,7,8,9,10,12,11") == (0, "c1(11)\n", "")
        assert run("single", "4,3,2,1", "--n", "6") == (0, "c1(1)*c2(2)*c3(3)\n", "")


def test_malformed_expression_exits_1(time_limit):
    with time_limit(10):
        code, out, err = run("expand", "x1^")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_usage_error_prints_help():
    code, _, err = run("nonsense")
    assert code == 1
    assert "usage" in err


def test_missing_argument_is_a_usage_error():
    code, _, err = run("product-rule", "--i", "1")
    assert code == 1
    assert "usage" in err
