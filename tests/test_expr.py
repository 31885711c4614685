import random
from fractions import Fraction

import pytest

import helpers
from qwirt.quaternion import Quaternion, K
from qwirt.slicefn import variable, conj_variable, constant, monomial, format_slice
from qwirt.expr import (parse, parse_slice, lower, max_variable_index,
                        ExpressionSyntaxError, ArityError, MAX_NESTING)


def test_basic_lowering():
    assert parse_slice("x1*x2") == monomial(2, (1, 1))
    assert parse_slice("x1") == variable(1, 1)
    assert parse_slice("~x1") == conj_variable(1, 1)
    assert parse_slice("conj(x2)") == conj_variable(2, 2)
    assert parse_slice("3") == constant(1, Quaternion(3))
    assert parse_slice("1/2+3i-2/5k") == \
        constant(1, Quaternion(Fraction(1, 2), 3, 0, Fraction(-2, 5)))


def test_grammar_exercise():
    f = parse_slice("x1^2*(1+2i) + ~x1*k")
    expected = monomial(1, (2,), coeff=Quaternion(1, 2)) + \
        conj_variable(1, 1) * constant(1, K)
    assert f == expected


def test_product_reorders_through_the_algebra():
    assert parse_slice("x2*x1") == parse_slice("x1*x2") == monomial(2, (1, 1))


def test_precedence_and_unary_minus():
    assert parse_slice("-x1") == -variable(1, 1)
    assert parse_slice("x1 - x1") == parse_slice("0*x1")
    assert parse_slice("x1*(-2)") == variable(1, 1) * constant(1, Quaternion(-2))
    assert parse_slice("x1^2*x1") == variable(1, 1) ** 3
    assert parse_slice("2*x1 + 1") == \
        constant(1, Quaternion(2)) * variable(1, 1) + constant(1, Quaternion(1))


def test_power_binds_tighter_than_product():
    assert parse_slice("x1*x2^2") == variable(2, 1) * variable(2, 2) ** 2


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1*")
    assert err.value.offset == 3
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 $ x2")
    assert err.value.offset == 3
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("(x1")
    assert err.value.offset == 3
    with pytest.raises(ExpressionSyntaxError):
        parse("x1^(2)")
    with pytest.raises(ExpressionSyntaxError):
        parse("x1 x2")


def test_decimals_parse_exactly_as_in_point_literals():
    assert parse_slice("x1*(1.5)") == parse_slice("x1*(3/2)")
    assert parse_slice("0.25i - 2.5") == \
        constant(1, Quaternion(Fraction(-5, 2), Fraction(1, 4)))
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1^2.5")
    assert err.value.offset == 3


def test_arity_errors():
    node = parse("x3*x1")
    assert max_variable_index(node) == 3
    with pytest.raises(ArityError):
        lower(node, 2)
    assert parse_slice("x3*x1", n=3) == monomial(3, (1, 0, 1))


def test_long_chains_lower_without_recursing_per_operand():
    # a sum or product is a left-nested chain; a recursion per binary node
    # overflowed the interpreter stack near a thousand operands
    count = 3000
    text = "+".join("x%d" % (1 + index % 3) for index in range(count))
    node = parse(text)
    assert max_variable_index(node) == 3
    expected = variable(3, 1) + variable(3, 2) + variable(3, 3)
    assert lower(node, 3) == expected * constant(3, Quaternion(count // 3))
    assert parse_slice("-".join(["x1"] * 2001)) == -variable(1, 1) * \
        constant(1, Quaternion(1999))
    assert parse_slice("*".join(["x1"] * 32)) == variable(1, 1) ** 32


def test_parentheses_nested_past_the_cap_are_a_syntax_error():
    deepest = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_slice(deepest) == variable(1, 1)
    for depth in (MAX_NESTING + 1, 1000):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x2*" + "(" * depth + "x1" + ")" * depth)
        assert err.value.offset == 3 + MAX_NESTING
        assert "nested deeper than %d" % MAX_NESTING in str(err.value)


def test_ambient_inference():
    assert parse_slice("x2").n == 2
    assert parse_slice("5").n == 1


def test_round_trip_fixed_corpus():
    corpus = [
        "x1", "~x1", "x1*x2", "x1^2*(1+2i) + ~x1*k", "1/2+3i-2/5k",
        "x1*x2*x3 - x2^2", "conj(x1)*j", "x1^3*(1/3) + x2*(-1+i)",
    ]
    for text in corpus:
        f = parse_slice(text)
        assert parse_slice(format_slice(f), n=f.n) == f


def test_round_trip_random_polynomials():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n)
        assert parse_slice(format_slice(f), n=n) == f
