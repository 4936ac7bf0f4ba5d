"""Exact rationals, radical trees, and the sine/cosine table."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pi_kiln import exact
from pi_kiln.errors import NegativeUnderSqrt, UnsupportedAngle
from pi_kiln.exact import (
    RadicalExpr,
    cos_pi_rational,
    golden_ratio,
    radical_eval,
    sin_pi_rational,
    sqrt_expr,
    trig_table,
)
from pi_kiln.numerics import PrecisionContext

CTX = PrecisionContext(30)
CTX50 = PrecisionContext(50)


def test_multinomial():
    assert exact.multinomial([2]) == 1  # (2)!/2! = 1
    assert exact.multinomial([1, 1]) == 2  # (1+1)!/(1! 1!) = 2
    assert exact.multinomial([2, 1]) == 3


@given(st.fractions().filter(lambda q: q != 0))
def test_rational_arithmetic_exact(q):
    assert q * (1 / q) == 1


# ---------------------------------------------------------------------------
# radicals
# ---------------------------------------------------------------------------


def test_radical_eval_constant():
    v = radical_eval(RadicalExpr.number(Fraction(1, 2)), CTX)
    assert v == CTX.parse("0.5")


def test_radical_sqrt2_over_2_squares_to_half():
    e = sqrt_expr(2) / 2
    v = radical_eval(e, CTX)
    half = CTX.parse("0.5")
    assert abs(v * v - half) <= CTX.ulp() * 8


def test_golden_ratio_defining_identity():
    phi = radical_eval(golden_ratio(), CTX)
    one = CTX.one()
    assert abs(phi * phi - (phi + one)) <= CTX.ulp() * 8


def test_negative_under_sqrt():
    with pytest.raises(NegativeUnderSqrt):
        radical_eval(sqrt_expr(-2), CTX)


def test_sexpr_rendering():
    e = sqrt_expr(2) / 2
    assert e.to_sexpr() == "(div (sqrt 2) 2)"
    assert RadicalExpr.number(Fraction(1, 2)).to_sexpr() == "1/2"


# ---------------------------------------------------------------------------
# trig table
# ---------------------------------------------------------------------------


def test_quarter_angle():
    v = radical_eval(sin_pi_rational(Fraction(1, 4)), CTX)
    s22 = radical_eval(sqrt_expr(2) / 2, CTX)
    assert v == s22


def test_tenth_angle_matches_golden_ratio_form():
    # sin(pi/10) = (sqrt 5 - 1)/4 = 1/(2*phi)
    v = radical_eval(sin_pi_rational(Fraction(1, 10)), CTX)
    phi = radical_eval(golden_ratio(), CTX)
    inv = CTX.one() / (phi * 2)
    assert abs(v - inv) <= CTX.ulp() * 8
    assert abs(v.to_float() - 0.3090169943749474) < 1e-15


def test_fifth_angle_numeric():
    v = radical_eval(sin_pi_rational(Fraction(1, 5)), CTX)
    assert abs(v.to_float() - 0.5877852522924731) < 1e-15


def test_unsupported_angle():
    with pytest.raises(UnsupportedAngle):
        sin_pi_rational(Fraction(1, 7))


def test_pythagorean_identity_all_entries():
    table = trig_table()
    ulp = CTX50.ulp()
    one = CTX50.one()
    for x, (s_expr, c_expr) in table.items():
        s = radical_eval(s_expr, CTX50)
        c = radical_eval(c_expr, CTX50)
        assert abs(s * s + c * c - one) <= ulp * 4, f"x={x}"


def test_shift_antisymmetry():
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 10), Fraction(5, 6)):
        a = radical_eval(sin_pi_rational(x), CTX)
        b = radical_eval(sin_pi_rational(x + 1), CTX)
        assert (a + b).is_zero()


def test_mod_two_reduction():
    a = radical_eval(sin_pi_rational(Fraction(1, 4)), CTX)
    b = radical_eval(sin_pi_rational(Fraction(9, 4)), CTX)
    assert a == b
    c = radical_eval(sin_pi_rational(Fraction(-1, 4)), CTX)
    assert (a + c).is_zero()


def test_against_float_trig():
    for x in (Fraction(1, 6), Fraction(1, 3), Fraction(2, 5), Fraction(3, 10), Fraction(7, 6)):
        s = radical_eval(sin_pi_rational(x), CTX).to_float()
        c = radical_eval(cos_pi_rational(x), CTX).to_float()
        assert abs(s - math.sin(math.pi * float(x))) < 1e-14
        assert abs(c - math.cos(math.pi * float(x))) < 1e-14
