"""Ring laws and canonical-form behavior of ExactScalar."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhcalc.scalar import (
    HALF,
    ONE,
    SQRT2,
    SQRT2_FLOAT,
    TWO,
    ZERO,
    ExactScalar,
    NotDyadic,
    sqrt2_pow,
)


def _as_fractions(s):
    # Oracle view: value = p + q*sqrt(2) with exact rationals p, q.
    return Fraction(s.a, 2**s.e), Fraction(s.b, 2**s.e)


def test_add_half_plus_quarter():
    # 1/2 + 1/4 = 3/4, oracle checked via Fraction
    x = ExactScalar(1, 0, 1)
    y = ExactScalar(1, 0, 2)
    z = x + y
    assert z == ExactScalar(3, 0, 2)
    assert _as_fractions(z)[0] == Fraction(1, 2) + Fraction(1, 4)


def test_mul_conjugates():
    # (1 + sqrt2)(1 - sqrt2) = 1 - 2 = -1
    assert ExactScalar(1, 1, 0) * ExactScalar(1, -1, 0) == ExactScalar(-1, 0, 0)


def test_canonical_zero():
    assert ExactScalar(0, 0, 5) == ZERO
    assert ExactScalar(0, 0, 5).e == 0


def test_canonical_reduces_common_factors():
    s = ExactScalar(4, 2, 3)
    assert (s.a, s.b, s.e) == (2, 1, 2)
    s2 = ExactScalar(8, 0, 3)
    assert (s2.a, s2.b, s2.e) == (1, 0, 0)
    assert ExactScalar(3 << 5000, 0, 10_000) == ExactScalar(3, 0, 5000)
    s3 = ExactScalar(-(5 << 7), 3 << 9, 100)
    assert (s3.a, s3.b, s3.e) == (-5, 3 << 2, 93)
    assert ExactScalar(7 << 50, 0, 20) == ExactScalar(7 << 30, 0, 0)


def test_negative_exponent_normalizes():
    # (1 + 0*sqrt2)/2^-2 means multiplying by 4
    assert ExactScalar(1, 0, -2) == ExactScalar(4, 0, 0)


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == TWO
    assert sqrt2_pow(2) == TWO
    assert sqrt2_pow(1) == SQRT2
    assert sqrt2_pow(0) == ONE
    assert sqrt2_pow(-1) == ExactScalar(0, 1, 1)
    assert sqrt2_pow(-2) == HALF
    assert sqrt2_pow(3) == ExactScalar(0, 2, 0)
    assert sqrt2_pow(-3) == ExactScalar(0, 1, 2)


def test_dyadic_casts():
    assert HALF.is_dyadic
    assert HALF.as_dyadic() == (1, 1)
    assert ExactScalar(6, 0, 0).as_dyadic() == (6, 0)
    assert not SQRT2.is_dyadic
    with pytest.raises(NotDyadic):
        SQRT2.as_dyadic()


def test_int_mixing():
    assert ONE + 1 == TWO
    assert 2 * HALF == ONE
    assert TWO - 1 == ONE
    assert 1 - TWO == -ONE


def test_text_form():
    assert str(ExactScalar(3, -1, 2)) == "(3 + -1*sqrt2)/2^2"
    assert str(ZERO) == "(0 + 0*sqrt2)/2^0"


def test_json_round_trip():
    s = ExactScalar(2**80 + 1, -(3**40), 7)
    obj = s.to_json()
    assert obj["a"] == str(2**80 + 1)
    assert isinstance(obj["e"], int)
    assert ExactScalar.from_json(obj) == s


def test_ring_laws_bulk():
    # 1000+ random cases across add/mul laws, seeded for reproducibility.
    rng = random.Random(20260816)

    def draw():
        return ExactScalar(
            rng.randint(-(2**20), 2**20),
            rng.randint(-(2**20), 2**20),
            rng.randint(0, 20),
        )

    for _ in range(1100):
        x, y, z = draw(), draw(), draw()
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x + (-x) == ZERO


@given(
    st.integers(-(2**20), 2**20),
    st.integers(-(2**20), 2**20),
    st.integers(0, 20),
)
@settings(max_examples=300)
def test_canonicalization_preserves_value(a, b, e):
    raw = (a + b * SQRT2_FLOAT) / 2.0**e
    assert abs(ExactScalar(a, b, e).to_float() - raw) < 1e-9


@given(
    st.integers(-(2**40), 2**40),
    st.integers(-(2**40), 2**40),
    st.integers(0, 30),
)
@settings(max_examples=300)
def test_canonical_form_is_minimal(a, b, e):
    s = ExactScalar(a, b, e)
    if s.e > 0:
        assert s.a % 2 != 0 or s.b % 2 != 0
    if s.a == 0 and s.b == 0:
        assert s.e == 0


@given(st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=200)
def test_sqrt2_pow_is_multiplicative(j, k):
    assert sqrt2_pow(j) * sqrt2_pow(k) == sqrt2_pow(j + k)
