import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from qwirt.quaternion import (Quaternion, K, LONG_DIGIT_RUN, MAX_DIGITS)
from qwirt.slicefn import variable, conj_variable, constant, monomial, format_slice
from qwirt.expr import (parse, parse_slice, lower, max_variable_index,
                        tokenize, _TOKEN_RE, ExpressionSyntaxError, ArityError,
                        MAX_NESTING)


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


def reference_tokenize(text):
    """The tokenizer as it read each token group by group, with its refusal
    of a zero denominator."""
    run = LONG_DIGIT_RUN.search(text)
    if run:
        raise ExpressionSyntaxError("number has %d digits, more than the %d "
                                    "accepted" % (len(run.group()), MAX_DIGITS),
                                    run.start())
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ExpressionSyntaxError("unexpected character %r" % text[pos], pos)
        if not match.group("ws"):
            if match.group("var"):
                tokens.append(("var", int(match.group("varidx")), pos))
            elif match.group("conj"):
                tokens.append(("conj", "conj", pos))
            elif match.group("number"):
                number = match.group("number")
                if "/" in number and int(number.partition("/")[2]) == 0:
                    raise ExpressionSyntaxError(
                        "number %r has a zero denominator" % number, pos)
                tokens.append(("number", Fraction(number), pos))
            elif match.group("unit"):
                tokens.append(("unit", match.group("unit"), pos))
            else:
                tokens.append(("op", match.group("op"), pos))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


# Every token kind, with digits that are not ASCII, and text that no token
# matches: a bare x, a letter, a dot and a symbol.
_PIECES = ("x1", "x23", "x007", "x\u0663", "conj", "con", "(", ")", "~",
           "+", "-", "*", "^", "0", "12", "1/2", "0.25", "3/", "1.",
           "\u0663", "i", "j", "k", " ", "\t", "x", "q", ".", "$")


def tokens_or_error(tokenizer, text):
    """The tokens, or the error's type, message and offset."""
    try:
        return tokenizer(text)
    except ExpressionSyntaxError as err:
        return type(err), str(err), err.offset


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_tokens_match_the_group_by_group_tokenizer(text):
    # the same kinds, values, value types and offsets, or the same error
    # at the same offset
    got = tokens_or_error(tokenize, text)
    want = tokens_or_error(reference_tokenize, text)
    assert got == want
    if isinstance(want, list):
        assert [type(value) for _, value, _ in got] \
            == [type(value) for _, value, _ in want]
