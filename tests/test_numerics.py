"""Fixed-point engine: exactness, ulp contracts, round-trips."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pi_kiln import numerics
from pi_kiln.errors import (
    DivisionByZero,
    NegativeOperand,
    NonPositiveOperand,
    ScaleMismatch,
)
from pi_kiln.numerics import BigFixed, PrecisionContext

CTX = PrecisionContext(30)
ULP = CTX.ulp()


def fx(text: str, ctx: PrecisionContext = CTX) -> BigFixed:
    return ctx.parse(text)


def as_fraction(v: BigFixed) -> Fraction:
    return v.to_fraction()


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


def test_context_scale_formula():
    ctx = PrecisionContext(30)
    assert ctx.scale == math.ceil(40 * math.log2(10))


def test_context_rejects_nonpositive_digits():
    with pytest.raises(ValueError):
        PrecisionContext(0)


# ---------------------------------------------------------------------------
# add / sub
# ---------------------------------------------------------------------------


def test_add_exact_dyadic():
    assert fx("1.5") + fx("2.25") == fx("3.75")


def test_add_identity():
    x = fx("0.123456789")
    assert x + CTX.zero() == x


def test_scale_mismatch_raises():
    a = PrecisionContext(15).one()
    b = PrecisionContext(30).one()
    with pytest.raises(ScaleMismatch):
        a + b


@given(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-(2**80), max_value=2**80),
)
def test_add_associative_commutative(ma, mb, mc):
    a, b, c = (BigFixed(m, CTX.scale) for m in (ma, mb, mc))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


# ---------------------------------------------------------------------------
# mul / div
# ---------------------------------------------------------------------------


def test_mul_exact_dyadic():
    assert fx("0.5") * fx("0.5") == fx("0.25")


def test_div_one_third_contract():
    one = CTX.one()
    r = one / CTX.from_int(3)
    # defining property of truncating division: within 1 ulp of the true quotient
    assert abs(as_fraction(r) - Fraction(1, 3)) < Fraction(1, 2**CTX.scale)
    # multiplying back by 3 can lose at most |b| = 3 ulp
    assert abs((r * 3) - one) <= ULP * 3


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        CTX.one() / CTX.zero()


@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(2**40), max_value=2**40).filter(lambda m: m != 0),
)
def test_div_mul_round_trip(ma, mb):
    a = BigFixed(ma, CTX.scale)
    b = BigFixed(mb << 20, CTX.scale)
    q = a / b
    back = q * b
    # |q - a/b| < 1 ulp, so |q*b - a| < |b|*ulp + 1 ulp of the multiply
    budget = Fraction(abs(b.to_fraction())) * Fraction(1, 2**CTX.scale) + Fraction(
        2, 2**CTX.scale
    )
    assert abs(as_fraction(back) - as_fraction(a)) <= budget


@given(st.fractions(min_value=-1000, max_value=1000))
def test_from_fraction_one_ulp(q):
    v = CTX.from_fraction(q)
    assert abs(as_fraction(v) - q) < Fraction(1, 2**CTX.scale)
    # truncation toward zero is sign-symmetric
    assert CTX.from_fraction(-q).mantissa == -v.mantissa


# ---------------------------------------------------------------------------
# sqrt
# ---------------------------------------------------------------------------


def test_sqrt_zero():
    assert numerics.sqrt(CTX.zero()) == CTX.zero()


def test_sqrt_two_squares_back():
    ctx = PrecisionContext(40)
    v = numerics.sqrt(ctx.from_int(2))
    assert abs(v * v - ctx.from_int(2)) <= ctx.ulp() * 2


def test_sqrt_dyadic_exact():
    v = numerics.sqrt(fx("2.25"))
    assert v == fx("1.5")


def test_sqrt_negative():
    with pytest.raises(NegativeOperand):
        numerics.sqrt(CTX.from_int(-1))


@given(st.integers(min_value=0, max_value=7 << 60))
@settings(max_examples=60)
def test_sqrt_contract_small_range(m):
    # values in [0, ~3.5): |r^2 - a| <= 2 ulp
    a = BigFixed(m % (3 << CTX.scale), CTX.scale)
    r = numerics.sqrt(a)
    assert abs(r * r - a) <= ULP * 2


# ---------------------------------------------------------------------------
# ln / exp / pow
# ---------------------------------------------------------------------------


def test_ln_one_is_zero():
    assert numerics.ln(CTX.one()) == CTX.zero()


def test_exp_zero_is_one():
    assert numerics.exp(CTX.zero()) == CTX.one()


def test_ln_nonpositive():
    with pytest.raises(NonPositiveOperand):
        numerics.ln(CTX.zero())
    with pytest.raises(NonPositiveOperand):
        numerics.ln(CTX.from_int(-3))


def test_exp_ln_round_trip_seven():
    v = numerics.exp(numerics.ln(CTX.from_int(7)))
    assert abs(v - CTX.from_int(7)) <= ULP * 8


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
def test_round_trips_across_precisions(digits):
    ctx = PrecisionContext(digits)
    ulp = ctx.ulp()
    two = ctx.from_int(2)
    assert abs(numerics.sqrt(two) * numerics.sqrt(two) - two) <= ulp * 2
    for n in (2, 7, 10):
        v = numerics.exp(numerics.ln(ctx.from_int(n)))
        assert abs(v - ctx.from_int(n)) <= ulp * 8
    x = ctx.parse("0.375")
    assert abs(numerics.ln(numerics.exp(x)) - x) <= ulp * 8


def test_ln_against_float():
    v = numerics.ln(CTX.from_int(2))
    assert abs(v.to_float() - math.log(2)) < 1e-15


def test_exp_against_float():
    v = numerics.exp(CTX.one())
    assert abs(v.to_float() - math.e) < 1e-15


def test_working_context_and_finish():
    ctx = PrecisionContext(30)
    assert ctx.working(5).requested_digits == 33  # terms count as at least 10
    assert ctx.working(1000).requested_digits == 35
    wctx = ctx.working(1000)
    value, bound = ctx.finish(-wctx.one(), -wctx.ulp())
    assert value == -ctx.one()
    assert bound == ctx.ulp() * 2  # sub-ulp bound truncates to 0, then 2 ulp


def test_ipow():
    v = numerics.ipow(fx("1.5"), 3)
    assert abs(v - fx("3.375")) <= ULP * 4


# ---------------------------------------------------------------------------
# precision stability and I/O
# ---------------------------------------------------------------------------


def test_extra_digits_never_change_prefix():
    # Raising requested_digits by 10 must not change previously correct digits.
    lo = PrecisionContext(30)
    hi = PrecisionContext(40)
    for n in (2, 3, 5, 7):
        a = lo.render(numerics.sqrt(lo.from_int(n)))
        b = hi.render(numerics.sqrt(hi.from_int(n)))
        assert b.startswith(a)


def test_render_exact_width():
    ctx = PrecisionContext(15)
    s = ctx.render(ctx.parse("3.25"))
    assert s == "3." + "25".ljust(15, "0")
    assert len(s.split(".")[1]) == 15


def test_render_negative():
    ctx = PrecisionContext(15)
    assert ctx.render(ctx.parse("-0.5")).startswith("-0.5")


@pytest.mark.parametrize("digits", [4301, 10_000])
def test_render_beyond_int_str_limit(digits):
    ctx = PrecisionContext(digits)
    values = [
        ctx.from_fraction(Fraction(1, 3)),
        ctx.from_fraction(Fraction(-22, 7)),
        ctx.from_fraction(Fraction(1, 10**4500)) + ctx.from_int(12),  # a long run of zeros
        BigFixed((7**20000) % (1 << ctx.scale), ctx.scale),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = []
        for v in values:
            m = abs(v.mantissa)
            whole = m >> v.scale
            frac = ((m - (whole << v.scale)) * 10**digits) >> v.scale
            expected.append(f"{'-' if v.mantissa < 0 else ''}{whole}.{str(frac).zfill(digits)}")
    finally:
        sys.set_int_max_str_digits(limit)
    assert [ctx.render(v) for v in values] == expected


def test_parse_rational_text():
    v = CTX.parse("3/4")
    assert as_fraction(v) == Fraction(3, 4)


def test_parse_render_round_trip():
    ctx = PrecisionContext(20)
    s = ctx.render(ctx.parse("12.25"))
    assert ctx.parse(s) == ctx.parse("12.25")


def test_scientific_rendering():
    assert BigFixed(1, CTX.scale).to_scientific() == "9.18e-41"  # 2**-133
    v = CTX.parse("0.00123")
    assert v.to_scientific() == "1.22e-03" or v.to_scientific() == "1.23e-03"
    assert CTX.zero().to_scientific() == "0"
    big = CTX.from_int(12345)
    assert big.to_scientific() == "1.23e+04"


def test_to_float_large_mantissa():
    ctx = PrecisionContext(100)
    v = ctx.from_int(3)
    assert v.to_float() == 3.0
