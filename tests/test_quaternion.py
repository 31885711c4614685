import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qwirt import quaternion
from qwirt.quaternion import (Quaternion, RealArgumentError, parse_quaternion,
                              format_quaternion, hamilton, ONE, I, J, K)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)
# ints and Fractions side by side, zeros and negatives included
exact_scalars = st.one_of(st.just(0), st.integers(-50, 50),
                          st.fractions(min_value=-50, max_value=50,
                                       max_denominator=60))
exact_quaternions = st.builds(Quaternion, exact_scalars, exact_scalars,
                              exact_scalars, exact_scalars)


def test_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == Quaternion(-1)
    assert I * J * K == Quaternion(-1)


def test_identity_and_distributivity():
    q = Quaternion(2, Fraction(1, 2), -1, 3)
    assert ONE * q == q
    assert q * ONE == q
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


@given(quaternions, quaternions, quaternions)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(quaternions, quaternions)
def test_conjugation_antiautomorphism(a, b):
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    assert a.conjugate().conjugate() == a
    assert a + a.conjugate() == Quaternion(2 * a.w)


@given(quaternions)
def test_inverse(q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            q.inverse()
    else:
        assert q * q.inverse() == ONE
        assert q.inverse() * q == ONE


def test_inverse_examples():
    assert I.inverse() == -I
    assert Quaternion(2).inverse() == Quaternion(Fraction(1, 2))
    inv = Quaternion(1, 1).inverse()
    assert inv == Quaternion(Fraction(1, 2), Fraction(-1, 2))
    assert Quaternion(1, 1) * inv == ONE


def test_norm_multiplicative():
    a = Quaternion(0.25, -1.5, 2.0, 0.75)
    b = Quaternion(-3.0, 0.5, 1.25, -2.0)
    assert abs(abs(a * b) - abs(a) * abs(b)) < 1e-12 * abs(a) * abs(b)


def test_imaginary_unit_examples():
    assert Quaternion(2, 3).imaginary_unit() == Quaternion(0.0, 1.0, 0.0, 0.0)
    u = Quaternion(1, 1, 1, 1).imaginary_unit()
    s = 1 / math.sqrt(3)
    assert abs(u - Quaternion(0.0, s, s, s)) < 1e-15
    with pytest.raises(RealArgumentError):
        Quaternion(5).imaginary_unit()


@given(quaternions)
def test_unit_squares_to_minus_one(q):
    if q.im_norm_sq() == 0:
        return
    u = q.imaginary_unit()
    assert abs(u * u - Quaternion(-1)) < 1e-12


@given(quaternions)
def test_slice_reconstruction(q):
    if q.im_norm_sq() == 0:
        return
    u = q.imaginary_unit()
    beta = math.sqrt(float(q.im_norm_sq()))
    assert abs(Quaternion(float(q.w)) + u * beta - q.to_float()) < 1e-12


def test_split_slice_real_axis():
    alpha, beta, unit = Quaternion(3).split_slice()
    assert (alpha, beta) == (3.0, 0.0)
    assert unit == Quaternion(0.0, 1.0, 0.0, 0.0)


def test_parse_examples():
    assert parse_quaternion("1/2+3i-2/5k") == \
        Quaternion(Fraction(1, 2), 3, 0, Fraction(-2, 5))
    assert parse_quaternion("-j") == -J
    assert parse_quaternion("4") == Quaternion(4)
    assert parse_quaternion("0.5") == Quaternion(Fraction(1, 2))
    with pytest.raises(ValueError):
        parse_quaternion("1 2i")
    with pytest.raises(ValueError):
        parse_quaternion("")
    with pytest.raises(ValueError):
        parse_quaternion("3q")


@given(quaternions)
def test_literal_round_trip(q):
    assert parse_quaternion(format_quaternion(q)) == q


@given(exact_quaternions, exact_quaternions)
def test_exact_product_is_hamilton_over_fractions(a, b):
    want = hamilton(tuple(map(Fraction, a.components())),
                    tuple(map(Fraction, b.components())))
    got = (a * b).components()
    assert got == want
    assert [str(c) for c in got] == [str(c) for c in want]
    assert str(a * b) == format_quaternion(Quaternion(*want))


@pytest.fixture
def hamilton_calls(monkeypatch):
    """The operands of every ``hamilton`` call that products make."""
    calls = []

    def recording(p, q):
        calls.append((tuple(p), tuple(q)))
        return hamilton(p, q)

    monkeypatch.setattr(quaternion, "hamilton", recording)
    return calls


@pytest.mark.parametrize("a, b, kind", [
    (Quaternion(0.5, -1.25, 2.0, 0.1), Quaternion(-3.0, 0.5, 1.25, -2.0), float),
    (Quaternion(Fraction(1, 3), 2, 0, -1), Quaternion(0.5, 0, Fraction(1, 7), 3),
     float),
    (Quaternion(1, 0.0, 0, 0), Quaternion(Fraction(2, 3), -1, 1, 1), float),
    (Quaternion(-0.0, 1.0, 0.0, 0.0), Quaternion(0.0, 0.0, -1.0, 0.0), float),
    (Quaternion(1, -2, 0, 3), Quaternion(0, 4, -1, 1), int),
    (Quaternion(Fraction(1, 2), 0, Fraction(-2, 3), 1),
     Quaternion(3, Fraction(1, 4), 0, -5), Fraction),
])
def test_products_call_hamilton_on_the_components(a, b, kind, hamilton_calls):
    got = (a * b).components()
    assert hamilton_calls == [(a.components(), b.components())]
    # repr tells 1 from 1.0 and -0.0 from 0.0: types and bits are unchanged
    want = hamilton(a.components(), b.components())
    assert list(map(repr, got)) == list(map(repr, want))
    assert all(type(c) is kind for c in got)
