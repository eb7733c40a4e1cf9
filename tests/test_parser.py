import random

import pytest

from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import (
    divided_power,
    free_spec,
    gamma_gen,
    random_element,
    zero,
)
from dpalg.parser import MAX_DEPTH, EvalError, ParseError, parse, parse_and_evaluate

RANK1 = free_spec(ZZ, 1, 8)
RANK2 = free_spec(ZZ, 2, 8)


def test_parse_product_of_gammas():
    ast = parse("g2(x1)*g3(x1)")
    assert ast == ("product", [("gamma", 2, ("gen", 1)), ("gamma", 3, ("gen", 1))])


def test_parse_gamma_of_sum():
    ast = parse("g2(x1 + 3*x2)")
    assert ast == ("gamma", 2, ("sum", [("gen", 1), ("product", [("int", 3), ("gen", 2)])]))


def test_parse_rejects_gamma_zero():
    with pytest.raises(ParseError) as err:
        parse("g0(x1)")
    assert err.value.offset == 1


def test_parse_reports_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse("g2(x1")
    assert err.value.offset == len("g2(x1")
    assert ")" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse("x1 + + x2")
    assert err.value.offset == 5


def test_parse_unknown_generator():
    with pytest.raises(ParseError):
        parse("x3", generator_count=2)
    parse("x3", generator_count=3)


def test_eval_examples():
    assert parse_and_evaluate("g2(x1)*g3(x1)", RANK1).terms == {((0, 5),): 10}
    assert parse_and_evaluate("x1*x1", RANK1).terms == {((0, 2),): 2}
    assert parse_and_evaluate("g2(g2(x1))", RANK1).terms == {((0, 4),): 3}


def test_eval_scalars_and_signs():
    assert parse_and_evaluate("0", RANK1) == zero(RANK1)
    assert parse_and_evaluate("0 - x1", RANK1) == -gamma_gen(RANK1, 0, 1)
    assert parse_and_evaluate("-x1", RANK1) == -gamma_gen(RANK1, 0, 1)
    assert parse_and_evaluate("2*x1 - x1", RANK1) == gamma_gen(RANK1, 0, 1)
    with pytest.raises(EvalError):
        parse_and_evaluate("5", RANK1)
    with pytest.raises(EvalError):
        parse_and_evaluate("x1 + 3", RANK1)


def test_eval_parenthesized():
    lhs = parse_and_evaluate("(x1 + x2)*(x1 - x2)", RANK2)
    x, y = gamma_gen(RANK2, 0, 1), gamma_gen(RANK2, 1, 1)
    assert lhs == (x + y) * (x - y)


def test_eval_respects_scalar_axiom():
    el = parse_and_evaluate("g3(2*x1)", RANK1)
    assert el.terms == {((0, 3),): 8}


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(7)])
def test_roundtrip_parse_print(ring):
    rng = random.Random(99)
    for rank in (1, 2):
        spec = free_spec(ring, rank, 8)
        for _ in range(120):
            el = random_element(spec, rng, max_terms=4)
            assert parse_and_evaluate(str(el), spec) == el


def test_roundtrip_includes_gamma_forms():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        el = divided_power(n, random_element(RANK2, rng, max_terms=2))
        assert parse_and_evaluate(str(el), RANK2) == el


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nesting deeper") as info:
        parse("g2(" * 1500 + "x1" + ")" * 1500)
    assert info.value.offset == 3 * MAX_DEPTH + 2
    with pytest.raises(ParseError, match="nesting deeper") as info:
        parse("(" * 3000 + "x1" + ")" * 3000)
    assert info.value.offset == MAX_DEPTH


def test_nesting_up_to_the_limit_evaluates():
    deep = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert parse_and_evaluate(deep, RANK1) == gamma_gen(RANK1, 0, 1)
    nested = "g1(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert parse_and_evaluate(nested, RANK1) == gamma_gen(RANK1, 0, 1)
