"""A session answers repeated requests from its memos, and those answers equal cold ones."""

import json
import random

import pytest

from uschub.formulas import (
    RankProfile,
    det19_record,
    det19_search,
    locus_formula,
    product_rule,
    render_locus,
    rewrite_no_squares,
    split_by_g,
)
from uschub.permutations import Permutation
from uschub.polyring import MEMOS, Polynomial, clear_caches, parse_text
from uschub.schubert import schubert_expand_M, universal_double, universal_single
from uschub.specialize import (
    FlagProfile,
    _specialize,
    classical_specialize,
    partial_flag_specialize,
    quantum_specialize,
    to_g_form,
)

VERBS = ("single", "double", "classical", "quantum", "gform", "flag", "strict", "interval",
         "expand", "search-det19", "product-rule")

# few words, so that one form goes through several maps, as in a session
WORDS = ((2, 1, 4, 3), (3, 1, 4, 2), (1, 4, 3, 2), (2, 5, 3, 1, 4), (3, 1, 5, 2, 4), (4, 2, 5, 1, 3))

# c/g expressions for the square elimination, each with a same-point product
EXPRESSIONS = (
    "c1(2)^2",
    "c1(1)*c2(2) + c1(2)^2 - g1[1]",
    "2*c1(2)*c2(2) - g2[0]*c1(1)^2",
    "c2(3)^2 + g1[1]*c1(3)*c2(3)",
    "c1(3)*c2(3) - c1(2)*c1(3) + 3*c1(1)^3",
)


def _request(rng: random.Random, verb: str) -> tuple:
    if verb == "product-rule":
        k = rng.randint(1, 4)
        return (verb, rng.randint(0, k), rng.randint(0, k), k)
    if verb == "expand":
        return (verb, rng.choice(EXPRESSIONS))
    word = rng.choice(WORDS)
    w, m = Permutation(word), len(word)
    if verb == "flag":
        return (verb, w, tuple(sorted(set(w.descents()) | {m} | {k for k in range(1, m) if rng.random() < 0.5})))
    if verb == "strict":
        cod = w.codiagram(m - 1)
        a = {i for i, _ in cod} | {k for k in range(1, m) if rng.random() < 0.3}
        b = {j for _, j in cod} | {k for k in range(1, m) if rng.random() < 0.3}
        return (verb, w, tuple(sorted(a or {1})), tuple(sorted(b or {1})))
    if verb == "interval":
        a = set(w.descents()) | {k for k in range(1, m) if rng.random() < 0.3}
        b = set(w.left_descents()) | {k for k in range(1, m) if rng.random() < 0.3}
        return (verb, w, tuple(sorted(a or {1})), tuple(sorted(b or {1})))
    return (verb, w, m - 1)


def _answer(req: tuple) -> tuple[str, list[Polynomial]]:
    """The text of one request, with the polynomials it printed."""
    verb = req[0]
    if verb == "product-rule":
        report = product_rule(*req[1:])
        polys = [report.lhs, report.rhs]
        tail = str(report.equal_in_g)
    elif verb == "expand":
        flat = rewrite_no_squares(parse_text(req[1]))
        n = max([v.j for v in flat.variables() if v.kind == "c"] + [1])
        polys = [flat]
        tail = "\n".join(
            f"{coeff} * {Polynomial({gpart: 1}).text()} * S{w.as_tuple(n + 1)}"
            for gpart, el in sorted(split_by_g(flat, n).items())
            for w, coeff in sorted(schubert_expand_M(el).items(), key=lambda item: item[0].as_tuple(n + 1))
        )
    elif verb in ("strict", "interval"):
        profile = RankProfile(req[2], req[3])
        p = locus_formula(req[1], profile, verb)
        polys, tail = [p], render_locus(p, profile)
    elif verb == "flag":
        polys, tail = [partial_flag_specialize(req[1], FlagProfile(req[2]))], ""
    elif verb == "search-det19":
        polys, tail = [], json.dumps(det19_record(req[1], req[2], det19_search(req[1], req[2])))
    elif verb == "double":
        polys, tail = [universal_double(req[1], req[2])], ""
    else:
        el = universal_single(req[1], req[2])
        single = el.to_polynomial("c")
        assert el.to_polynomial("c") is single
        maps = {"single": lambda p: p, "classical": classical_specialize, "quantum": quantum_specialize,
                "gform": to_g_form}
        polys, tail = [maps[verb](single)], ""
    shown = [f"{p.text()}\n{p.latex()}\n{json.dumps(p.to_json())}" for p in polys]
    return "\n".join([*shown, tail]), polys


def test_warm_answers_equal_cold_answers():
    rng = random.Random(34)
    pool = [_request(rng, verb) for verb in VERBS for _ in range(4)]
    # popular requests first, drawn with a Zipf-like skew, so the session repeats them
    session = rng.choices(pool, weights=[1 / rank for rank in range(1, len(pool) + 1)], k=150)
    assert len(set(session)) < len(session)
    cold = {}
    for req in pool:
        clear_caches()
        cold[req] = _answer(req)[0]
        assert _answer(req)[0] == cold[req], req
    clear_caches()
    for req in session:  # one session: each answer may read what the earlier ones cached
        text, polys = _answer(req)
        assert text == cold[req], req
        for p in polys:
            fresh = Polynomial(p.terms())
            assert (hash(p), p.text(), p.latex(), p.to_json()) == (
                hash(fresh), fresh.text(), fresh.latex(), fresh.to_json()
            ), req
    clear_caches()
    assert [_answer(req)[0] for req in pool] == [cold[req] for req in pool]


WHOLE_VALUE_MEMOS = (_specialize, rewrite_no_squares, parse_text, det19_search, product_rule)


def test_whole_value_memos_are_bounded_typed_and_cleared():
    for memo in WHOLE_VALUE_MEMOS:
        assert memo in MEMOS
        assert memo.cache_parameters()["maxsize"] is not None and memo.cache_parameters()["typed"]
    text = "c1(2)^2 - g1[1]"
    p = parse_text(text)
    assert parse_text(text) is p and rewrite_no_squares(p) is rewrite_no_squares(p)
    assert product_rule(1, 1, 2) is product_rule(1, 1, 2)
    clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in WHOLE_VALUE_MEMOS)
    assert parse_text(text) is not p and parse_text(text) == p


def test_memo_keys_are_typed():
    # an untyped memo answers a float or bool argument with the cached answer of the equal int
    clear_caches()
    w = Permutation((2, 1, 3))
    assert det19_search(w, 2) is not None
    assert product_rule(1, 1, 2).equal_in_g
    with pytest.raises(TypeError):
        det19_search(w, 2.0)
    with pytest.raises(TypeError):
        product_rule(1, 1, 2.0)
    with pytest.raises(TypeError):
        product_rule(True, 1, 2)
    p = parse_text("c1(2)^2 + g1[1]*c1(1)*c2(2)")
    flat = rewrite_no_squares(p, 2)
    assert rewrite_no_squares(p, 2.0) == flat
    assert rewrite_no_squares.cache_info().currsize == 2
