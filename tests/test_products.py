"""Product catalog: limits, corrections, convergence classes, sieve."""

import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pi_kiln import numerics, products
from pi_kiln.errors import OutOfRange, PoleAtInteger, UnknownId, UnsupportedAngle
from pi_kiln.exact import radical_eval, sin_pi_rational
from pi_kiln.numerics import PrecisionContext
from pi_kiln.oracle import reference_pi, reference_pi_power
from pi_kiln.products import (
    CATALOG,
    catalog_eval,
    catalog_ids,
    catalog_limit,
    euler_wallis,
    functional_equation_check,
    golden_ratio_check,
    prime_sieve,
    viete,
)

CTX = PrecisionContext(30)
EW_XS = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1, 5),
    Fraction(1, 10),
    Fraction(1, 3),
    Fraction(1, 6),
)


# ---------------------------------------------------------------------------
# Euler-Wallis
# ---------------------------------------------------------------------------


def test_single_factor_exact():
    res = euler_wallis(Fraction(1, 2), 1, "none", CTX)
    assert res.value.to_fraction() == Fraction(3, 4)
    assert res.factors_used == 1 and not res.corrected


def test_out_of_range():
    with pytest.raises(OutOfRange):
        euler_wallis(Fraction(3, 2), 10, "none", CTX)
    with pytest.raises(OutOfRange):
        euler_wallis(Fraction(0), 10, "none", CTX)


def test_half_corrected_close_to_two_over_pi():
    res = euler_wallis(Fraction(1, 2), 10_000, "first_order", CTX)
    target = CTX.from_int(2) / reference_pi(CTX)
    err = abs(res.value - target)
    assert err <= res.error_bound
    assert err.to_float() < 1e-8


@pytest.mark.parametrize("x", EW_XS)
def test_all_catalog_points_match_table_limits(x):
    # value * pi * x should approach sin(pi x) from the exact table
    res = euler_wallis(x, 4000, "first_order", CTX)
    pi = reference_pi(CTX)
    s = radical_eval(sin_pi_rational(x), CTX)
    lhs = res.value * pi.mul_fraction(x)
    slack = (pi.mul_fraction(x) * res.error_bound) + CTX.ulp() * 64
    assert abs(lhs - s) <= slack


def test_correction_improves_quadratically():
    # corrected error shrinks >= 4x when N doubles (it is ~1/N^3)
    pi = reference_pi(CTX)
    target = CTX.from_int(2) / pi
    errs = []
    for n in (256, 512, 1024):
        res = euler_wallis(Fraction(1, 2), n, "first_order", CTX)
        errs.append(abs(res.value - target).to_float())
    assert errs[0] / errs[1] >= 4
    assert errs[1] / errs[2] >= 4


def test_uncorrected_error_scales_like_1_over_n():
    pi = reference_pi(CTX)
    target = CTX.from_int(2) / pi
    e1 = abs(euler_wallis(Fraction(1, 2), 500, "none", CTX).value - target).to_float()
    e2 = abs(euler_wallis(Fraction(1, 2), 1000, "none", CTX).value - target).to_float()
    assert 1.7 <= e1 / e2 <= 2.3


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_unique_and_complete():
    ids = catalog_ids()
    assert len(ids) == len(set(ids)) == 12
    for spec in CATALOG.values():
        assert spec.convergence_class in ("quadratic", "geometric", "prime", "slow")


def test_unknown_id():
    with pytest.raises(UnknownId):
        catalog_eval("bogus", 10, CTX)
    with pytest.raises(UnknownId):
        catalog_limit("bogus", CTX)


def test_wallis_first_factor():
    res = catalog_eval("wallis", 1, CTX, correction="none")
    # (2/1)(2/3) = 4/3, not dyadic: representable only to 1 ulp
    assert abs(res.value.to_fraction() - Fraction(4, 3)) < Fraction(4, 2**CTX.scale)


def test_wallis_and_odd_square_envelope():
    # uncorrected error <= calibrated C/N
    for pid, c_env in (("wallis", 0.5), ("odd-square", 0.3)):
        limit = catalog_limit(pid, CTX)
        for n in (500, 2000):
            res = catalog_eval(pid, n, CTX, correction="none")
            err = abs(res.value - limit).to_float()
            assert err <= c_env / n, (pid, n)
            assert err <= res.error_bound.to_float()


def test_odd_square_limit():
    res = catalog_eval("odd-square", 3000, CTX)
    target = reference_pi(CTX) / 4
    assert abs(res.value - target) <= res.error_bound


def test_corrected_quadratic_class_shrink():
    for pid in ("wallis", "odd-square", "euler-wallis-1-3"):
        limit = catalog_limit(pid, CTX)
        errs = []
        for n in (128, 256):
            res = catalog_eval(pid, n, CTX, correction="first_order")
            errs.append(abs(res.value - limit).to_float())
        assert errs[0] / errs[1] >= 4, pid


# ---------------------------------------------------------------------------
# Viete
# ---------------------------------------------------------------------------


def test_viete_single_iteration():
    res = viete(1, CTX)
    # single factor: 2/sqrt(2) = sqrt(2)
    assert abs(res.value - numerics.sqrt(CTX.from_int(2))) <= CTX.ulp() * 8


def test_viete_sixty_iterations_40_digits():
    ctx = PrecisionContext(40)
    res = viete(60, ctx)
    target = reference_pi(ctx) / 2
    err = abs(res.value - target)
    assert err <= res.error_bound
    assert err.to_float() < 1e-30


def test_viete_monotone_increasing():
    vals = [viete(m, CTX).value for m in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_viete_error_model_factor_of_ten():
    ctx = PrecisionContext(40)
    target = reference_pi(ctx) / 2
    for m in (3, 6, 10, 15):
        err = abs(viete(m, ctx).value - target).to_float()
        model = 4.0**-m
        assert model / 10 <= err / 0.65 <= model * 10, m
        # and the bound stays honest
        assert err <= viete(m, ctx).error_bound.to_float()


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def test_sieve_small():
    assert prime_sieve(10) == [2, 3, 5, 7]


def test_sieve_hundred_against_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    expected = [n for n in range(2, 101) if is_prime(n)]
    got = prime_sieve(100)
    assert got == expected
    assert len(got) == 25


def test_sieve_million_count():
    primes = prime_sieve(10**6)
    assert len(primes) == 78498
    assert primes[-1] == 999983


def test_sieve_every_limit_against_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    expected = []
    for limit in range(2, 3001):
        if is_prime(limit):
            expected.append(limit)
        assert prime_sieve(limit) == expected, limit


def _fresh_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [n for n in range(limit + 1) if flags[n]]


def test_sieve_memo_serves_any_order_of_limits(monkeypatch):
    # start from an empty memo, then rise, fall, repeat and rise again
    monkeypatch.setattr(products, "_sieved_to", 1)
    monkeypatch.setattr(products, "_sieved_primes", array("I"))
    limits = (2, 3, 10, 9, 97, 2, 1000, 1000, 999, 30, 5000, 4999, 101, 7919, 7918, 3, 20000, 2)
    for limit in limits:
        got = prime_sieve(limit)
        assert got == _fresh_sieve(limit), limit
        got.append(4)  # a caller's edit to the list
        got[0] = 6
    assert products._sieved_to == 20000
    assert prime_sieve(20000) == _fresh_sieve(20000)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(min_value=1, max_value=2**700), p=st.integers(min_value=2, max_value=10**7))
def test_zeta2_step_nested_floors(a, p):
    # _euler_zeta2's step against the floor of a * p^2 / (p^2 - 1)
    p2 = p * p
    assert a + a // (p - 1) // (p + 1) == a * p2 // (p2 - 1)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(OutOfRange):
        prime_sieve(1)


def test_zeta2_million():
    res = catalog_eval("euler-zeta2", 10**6, CTX)
    target = reference_pi_power(2, CTX) / 6
    err = abs(res.value - target)
    assert err.to_float() <= 1e-6
    assert err <= res.error_bound


def test_pi4_demo_tolerance():
    # frozen from the calibration run: |value - pi/4| = 1.7e-6 at sieve 1e6
    res = catalog_eval("euler-pi4", 10**6, CTX)
    target = reference_pi(CTX) / 4
    err = abs(res.value - target)
    assert err.to_float() <= 1e-5
    assert err <= res.error_bound


# ---------------------------------------------------------------------------
# nested exponent
# ---------------------------------------------------------------------------


def test_nested_exponent_200():
    # frozen from the calibration run: error 9.7e-3 at n=200, ~0.36 ln n / n
    res = catalog_eval("nested-exponent", 200, CTX)
    target = reference_pi(CTX) / 2
    err = abs(res.value - target)
    assert err.to_float() <= 2e-2
    assert err <= res.error_bound


def test_nested_exponent_converges():
    target = reference_pi(CTX) / 2
    e1 = abs(catalog_eval("nested-exponent", 50, CTX).value - target).to_float()
    e2 = abs(catalog_eval("nested-exponent", 200, CTX).value - target).to_float()
    assert e2 < e1


# ---------------------------------------------------------------------------
# golden ratio / functional equation
# ---------------------------------------------------------------------------


def test_golden_ratio_residual():
    r = golden_ratio_check(10_000, CTX)
    assert r.to_float() <= 1e-6


def test_golden_ratio_residual_decreases():
    r1 = golden_ratio_check(500, CTX).to_float()
    r2 = golden_ratio_check(1000, CTX).to_float()
    assert r2 < r1


def test_golden_ratio_algebraic_identity():
    # with the exact limit substituted the residual vanishes:
    # (4 pi^2/25) (sin(pi/5) * 5/pi)^2 = 4 sin^2(pi/5) = 3 - phi
    s = radical_eval(sin_pi_rational(Fraction(1, 5)), CTX)
    phi = radical_eval(__import__("pi_kiln.exact", fromlist=["golden_ratio"]).golden_ratio(), CTX)
    lhs = s * s * 4
    rhs = CTX.from_int(3) - phi
    assert abs(lhs - rhs) <= CTX.ulp() * 32


@pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 10)])
def test_functional_equation(x):
    ctx = PrecisionContext(50)
    assert functional_equation_check(x, ctx) <= ctx.ulp() * 8


def test_functional_equation_guards():
    with pytest.raises(PoleAtInteger):
        functional_equation_check(Fraction(2), CTX)
    with pytest.raises(UnsupportedAngle):
        functional_equation_check(Fraction(1, 7), CTX)


# ---------------------------------------------------------------------------
# integer kernels against the Fraction loops they replace
# ---------------------------------------------------------------------------


def _unfinished(monkeypatch):
    """Make results come back at working precision, so kernels compare exactly."""
    monkeypatch.setattr(PrecisionContext, "finish", lambda self, value, bound: (value, bound))


def _fraction_quadratic_product(
    factor, n, correction, ctx, tail_coef, tail_shift, err_corrected, err_plain
):
    """The quadratic product loop with one Fraction and one mul_fraction per factor."""
    wctx = ctx.working(n)
    acc = wctx.one()
    for m in range(1, n + 1):
        acc = acc.mul_fraction(factor(m))
    if correction == "first_order":
        b = Fraction(n + tail_shift)
        psi = 1 / b - 1 / (2 * b * b)
        acc = acc * numerics.exp(wctx.from_fraction(tail_coef * psi))
        err_log = err_corrected / n**3
    else:
        err_log = err_plain / n
    return acc, abs(acc).mul_fraction(2 * err_log) + wctx.ulp() * (2 * n + 32)


def _fraction_prime_product(limit, ctx, zeta2):
    """The two prime-product loops with one Fraction per prime."""
    primes = prime_sieve(limit)
    wctx = ctx.working(len(primes))
    acc = wctx.one()
    for p in primes:
        if zeta2:
            acc = acc.mul_fraction(Fraction(p * p, p * p - 1))
        elif p != 2:
            acc = acc.mul_fraction(Fraction(p, p + (-1 if p % 4 == 1 else 1)))
    if zeta2:
        bound = abs(acc).mul_fraction(Fraction(2, limit))
    else:
        bound = wctx.from_fraction(Fraction(3, math.isqrt(limit) * limit.bit_length()))
    return acc, bound + wctx.ulp() * (len(primes) + 32)


CORRECTIONS = st.sampled_from(("none", "first_order"))
DIGITS = st.integers(min_value=5, max_value=120)


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(min_value=2, max_value=400),
    p_share=st.floats(min_value=0, max_value=1),
    n=st.integers(min_value=1, max_value=300),
    correction=CORRECTIONS,
    digits=DIGITS,
)
def test_euler_wallis_kernel_matches_fraction_loop(q, p_share, n, correction, digits):
    x = Fraction(1 + int(p_share * (q - 2)), q)
    x2 = x * x
    ctx = PrecisionContext(digits)
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        res = euler_wallis(x, n, correction, ctx)
    assert (res.value, res.error_bound) == _fraction_quadratic_product(
        lambda m: 1 - x2 / (m * m), n, correction, ctx, -x2, 0, x2 / 6 + x2 * x2 / 4, x2
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300), correction=CORRECTIONS, digits=DIGITS
)
def test_wallis_and_odd_square_kernels_match_fraction_loop(n, correction, digits):
    ctx = PrecisionContext(digits)
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        wallis = catalog_eval("wallis", n, ctx, correction)
        odd_square = catalog_eval("odd-square", n, ctx, correction)
    quarter, twelfth = Fraction(1, 4), Fraction(1, 12)
    assert (wallis.value, wallis.error_bound) == _fraction_quadratic_product(
        lambda m: Fraction(4 * m * m, 4 * m * m - 1),
        n, correction, ctx, quarter, 0, twelfth, quarter,
    )
    assert (odd_square.value, odd_square.error_bound) == _fraction_quadratic_product(
        lambda m: 1 - Fraction(1, (2 * m + 1) ** 2),
        n, correction, ctx, -quarter, Fraction(1, 2), twelfth, quarter,
    )


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(min_value=2, max_value=10**4), digits=DIGITS)
def test_prime_product_kernels_match_fraction_loop(limit, digits):
    ctx = PrecisionContext(digits)
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        zeta2 = catalog_eval("euler-zeta2", limit, ctx)
        pi4 = catalog_eval("euler-pi4", limit, ctx)
    assert (zeta2.value, zeta2.error_bound) == _fraction_prime_product(limit, ctx, True)
    assert (pi4.value, pi4.error_bound) == _fraction_prime_product(limit, ctx, False)
