"""Infinite products with pi (or the golden ratio) as their limit.

Quadratic-class products (factors 1 + O(1/n^2)) get an optional first-order
tail correction: the log of the discarded tail is analytically ~ coef * psi_N
with psi_N = 1/N - 1/(2 N^2), so multiplying by exp(coef * psi_N) upgrades
O(1/N) error to O(1/N^3).  The nested-exponent product is evaluated entirely
in log space; the two prime products run over an ascending sieve.  Every
result carries an honest error bound (demo-class entries use calibrated
envelopes, recorded next to the evaluator).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import numerics
from .errors import OutOfRange, PoleAtInteger, UnknownId
from .exact import golden_ratio, radical_eval, sin_pi_rational
from .numerics import BigFixed, PrecisionContext, _div_trunc
from .oracle import limit_context, reference_pi, reference_pi_power


@dataclass(frozen=True)
class ProductSpec:
    """A catalog product.  Like a harness.SERIES entry, it names the parameters
    it needs and takes and has evaluate(params, ctx, n) and limit(params, ctx)."""

    id: str
    description: str
    limit_expr: str
    convergence_class: str  # "quadratic" | "geometric" | "prime" | "slow"
    # (n, correction, ctx) -> ProductResult if the spec takes a correction, else (n, ctx)
    product: Callable = field(repr=False, compare=False)
    # wctx -> the exact limit at that scale, from the oracle pi and exact radicals
    exact: Callable = field(repr=False, compare=False)
    needs = ()

    @property
    def options(self) -> tuple:
        # only the quadratic class has an analytic tail to correct
        return ("correction",) if self.convergence_class == "quadratic" else ()

    def evaluate(self, params: dict, ctx: PrecisionContext, n: int) -> ProductResult:
        return catalog_eval(self.id, n, ctx, correction_of(params))

    def limit(self, params: dict, ctx: PrecisionContext) -> BigFixed:
        return catalog_limit(self.id, ctx)


@dataclass(frozen=True)
class ProductResult:
    value: BigFixed
    factors_used: int
    corrected: bool
    error_bound: BigFixed

    def __post_init__(self) -> None:
        if self.error_bound.mantissa <= 0:
            raise ValueError("error_bound must be positive")


# tail corrections of the quadratic class, in the order the CLI lists them
CORRECTIONS = ("none", "first_order")


def correction_of(params: dict) -> str:
    """The correction params name (first_order if none), spelled as in CORRECTIONS."""
    correction = params.get("correction", "first_order").replace("-", "_")
    if correction not in CORRECTIONS:
        raise UnknownId(f"unknown correction {params['correction']!r}")
    return correction


def _psi(n: int, beta: Fraction) -> Fraction:
    """Two-term tail of sum_{m>n} 1/(m+beta)^2; undershoots by <= 1/(6 (n+beta)^3)."""
    b = n + beta
    return 1 / b - 1 / (2 * b * b)


# ---------------------------------------------------------------------------
# Euler-Wallis product and its rational instances
# ---------------------------------------------------------------------------


def _quadratic_product(
    factor: Callable[[int], tuple],
    n: int,
    correction: str,
    ctx: PrecisionContext,
    tail_coef: Fraction,
    tail_shift: Fraction,
    err_corrected: Fraction,
    err_plain: Fraction,
) -> ProductResult:
    """prod_{m=1..n} factor(m) for exact factors 1 + O(1/m^2).

    factor(m) returns the factor as a pair of positive ints (num, den), not
    necessarily in lowest terms.  Each step sets a = floor(a * num / den) on
    the working mantissa a: that is the truncation mul_fraction makes, since
    every operand is positive, and the floor of a rational does not depend on
    how it is written, so no per-step gcd is needed.

    The log of the discarded tail is ~ tail_coef * psi_n(tail_shift), so
    correction="first_order" multiplies by exp of that.  The log of what
    remains is at most err_corrected/n^3 after the correction and err_plain/n
    without it.
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if correction not in CORRECTIONS:
        raise ValueError(f"unknown correction {correction!r}")
    wctx = ctx.working(n)
    a = wctx.one().mantissa
    for m in range(1, n + 1):
        num, den = factor(m)
        a = a * num // den
    acc = BigFixed(a, wctx.scale)
    corrected = correction == "first_order"
    if corrected:
        acc = acc * numerics.exp(wctx.from_fraction(tail_coef * _psi(n, tail_shift)))
        err_log = err_corrected / n**3
    else:
        err_log = err_plain / n
    bound = abs(acc).mul_fraction(2 * err_log) + wctx.ulp() * (2 * n + 32)
    value, bound = ctx.finish(acc, bound)
    return ProductResult(value, n, corrected, bound)


def euler_wallis(x: Fraction, n: int, correction: str, ctx: PrecisionContext) -> ProductResult:
    """prod_{m=1..n} (1 - x^2/m^2) -> sin(pi x)/(pi x), for 0 < x < 1.

    correction="first_order" multiplies by exp(-x^2 psi_n), cancelling the
    leading log-tail; the remaining bound is O(1/n^3).
    """
    x = Fraction(x)
    if not (0 < x < 1):
        raise OutOfRange(f"euler_wallis requires 0 < x < 1, got {x}")
    x2 = x * x
    # psi truncation + the quartic term of ln(1 - x^2/m^2)
    err_corrected = x2 / 6 + x2 * x2 / 4
    # 1 - x^2/m^2 = (q^2 m^2 - p^2) / (q^2 m^2) with x = p/q
    p2, q2 = x.numerator**2, x.denominator**2

    def factor(m: int) -> tuple:
        den = q2 * m * m
        return den - p2, den

    return _quadratic_product(factor, n, correction, ctx, -x2, Fraction(0), err_corrected, x2)


def _wallis(n: int, correction: str, ctx: PrecisionContext) -> ProductResult:
    """prod (2m)^2 / ((2m-1)(2m+1)) -> pi/2."""
    return _quadratic_product(
        lambda m: (4 * m * m, 4 * m * m - 1),
        n, correction, ctx, Fraction(1, 4), Fraction(0), Fraction(1, 12), Fraction(1, 4),
    )


def _odd_square(n: int, correction: str, ctx: PrecisionContext) -> ProductResult:
    """prod (1 - 1/(2m+1)^2) -> pi/4."""
    return _quadratic_product(
        lambda m: (4 * m * (m + 1), (2 * m + 1) ** 2),
        n, correction, ctx, Fraction(-1, 4), Fraction(1, 2), Fraction(1, 12), Fraction(1, 4),
    )


# ---------------------------------------------------------------------------
# Classic products
# ---------------------------------------------------------------------------


def viete(iterations: int, ctx: PrecisionContext) -> ProductResult:
    """prod 1/cos(pi/2^m) -> pi/2 via nested radicals r_{m+1} = sqrt(2 + r_m).

    The partial product equals 2^m sin(pi/2^(m+1)), so the error follows
    (pi^3/48) 4^-m; the bound uses 0.8 * 4^-m plus radical truncation noise.
    """
    if iterations < 1:
        raise OutOfRange("iterations must be >= 1")
    wctx = ctx.working(iterations)
    two = wctx.from_int(2)
    r = numerics.sqrt(two)
    acc = wctx.one()
    for _ in range(iterations):
        acc = acc * two / r
        r = numerics.sqrt(two + r)
    bound = wctx.from_fraction(Fraction(4, 5) / 4**iterations) + wctx.ulp() * (
        4 * iterations + 32
    )
    value, bound = ctx.finish(acc, bound)
    return ProductResult(value, iterations, False, bound)


# ---------------------------------------------------------------------------
# Prime products
# ---------------------------------------------------------------------------


# The largest sieve so far: the primes up to _sieved_to, kept as a compact
# array (4 bytes a prime, not a list of int objects); smaller limits are
# served by slicing it.
_sieved_to = 1
_sieved_primes = array("I")


def _primes_upto(limit: int) -> array:
    """All primes <= limit, ascending, as a fresh array (sieve of Eratosthenes
    over odd numbers, run only when limit exceeds every earlier limit).

    flags[i] stands for the odd number 2i + 1; striking the odd multiples of
    p from p^2 on is a step of p in i.
    """
    global _sieved_to, _sieved_primes
    if limit < 2:
        raise OutOfRange("limit must be >= 2")
    if limit > _sieved_to:
        size = (limit + 1) // 2
        flags = bytearray(b"\x01") * size
        flags[0] = 0  # 1 is not prime
        for i in range(1, (math.isqrt(limit) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                start = p * p // 2
                flags[start::p] = bytes((size - 1 - start) // p + 1)
        primes = array("I" if limit < 1 << 32 else "Q", (2,))
        primes.extend(itertools.compress(range(1, limit + 1, 2), flags))
        _sieved_to, _sieved_primes = limit, primes
    return _sieved_primes[: bisect.bisect_right(_sieved_primes, limit)]


def prime_sieve(limit: int) -> list:
    """All primes <= limit, ascending."""
    return list(_primes_upto(limit))


def _euler_zeta2(limit: int, ctx: PrecisionContext) -> ProductResult:
    primes = _primes_upto(limit)
    wctx = ctx.working(len(primes))
    # each factor p^2/(p^2 - 1) > 0, so floor is mul_fraction's truncation;
    # floor(a p^2 / (p^2 - 1)) = a + floor(a / (p^2 - 1)), and nested floors
    # compose: floor(floor(a / (p - 1)) / (p + 1)) = floor(a / (p^2 - 1))
    a = wctx.one().mantissa
    for p in primes:
        a += a // (p - 1) // (p + 1)
    acc = BigFixed(a, wctx.scale)
    # sum_{p > limit} 1/(p^2-1) <= sum_{n > limit} 1/(n^2-1) <= 1/limit
    bound = abs(acc).mul_fraction(Fraction(2, limit)) + wctx.ulp() * (len(primes) + 32)
    value, bound = ctx.finish(acc, bound)
    return ProductResult(value, len(primes), False, bound)


def _euler_pi4(limit: int, ctx: PrecisionContext) -> ProductResult:
    """Conditionally convergent: odd primes ascending, p/(p + (-1)^((p+1)/2)).

    No quantitative tail estimate is attempted; the bound is a calibrated
    envelope ~2/(sqrt(limit) ln limit) (observed errors: 1.4e-3 at 1e3,
    1.0e-3 at 1e4, 2.7e-4 at 1e5, 1.7e-6 at 1e6).
    """
    primes = _primes_upto(limit)
    wctx = ctx.working(len(primes))
    # each factor p/(p -+ 1) > 0, so floor is mul_fraction's truncation
    a = wctx.one().mantissa
    for p in primes[1:]:
        a = a * p // (p - 1 if p % 4 == 1 else p + 1)
    bound = wctx.from_fraction(Fraction(3, math.isqrt(limit) * limit.bit_length()))
    bound = bound + wctx.ulp() * (len(primes) + 32)
    value, bound = ctx.finish(BigFixed(a, wctx.scale), bound)
    return ProductResult(value, len(primes), False, bound)


# ---------------------------------------------------------------------------
# Nested-exponent product (log space)
# ---------------------------------------------------------------------------


def _nested_exponent(n: int, ctx: PrecisionContext) -> ProductResult:
    """prod (1/2n)^(2/(2n-1)) * [prod_{k<=n} (2k)^(2k)/(2k-1)^(2k-1)]^(4/(4n^2-1)).

    Rational exponents make direct powering awkward, so the whole partial
    product is accumulated as a log.  Convergence is slow; the calibrated
    envelope bit_length(n)/n tracks the observed ~0.36 ln(n)/n error with a
    factor ~4 of headroom (observed: 2.8e-2 at 50, 9.7e-3 at 200).
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    wctx = ctx.working(n)
    total = inner = 0  # working mantissas
    for m in range(1, n + 1):
        ln_even = numerics.ln(wctx.from_int(2 * m)).mantissa
        ln_odd = numerics.ln(wctx.from_int(2 * m - 1)).mantissa
        inner += ln_even * (2 * m) - ln_odd * (2 * m - 1)
        total -= _div_trunc(ln_even * 2, 2 * m - 1)
        total += _div_trunc(inner * 4, 4 * m * m - 1)
    bound = wctx.from_fraction(Fraction(n.bit_length(), n)) + wctx.ulp() * (8 * n + 32)
    value, bound = ctx.finish(numerics.exp(BigFixed(total, wctx.scale)), bound)
    return ProductResult(value, n, False, bound)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

# the sine factorization's catalog points x, with the closed form of its limit
EULER_WALLIS_POINTS = (
    (Fraction(1, 4), "2*sqrt(2)/pi"),
    (Fraction(1, 2), "2/pi"),
    (Fraction(1, 5), "5*sqrt(3-phi)/(2*pi)"),
    (Fraction(1, 10), "5/(pi*phi)"),
    (Fraction(1, 3), "3*sqrt(3)/(2*pi)"),
    (Fraction(1, 6), "3/pi"),
)


def _euler_wallis_entry(x: Fraction, limit_expr: str) -> ProductSpec:
    return ProductSpec(
        f"euler-wallis-{x.numerator}-{x.denominator}",
        f"prod (1 - x^2/n^2), the sine factorization, at x = {x}",
        limit_expr,
        "quadratic",
        functools.partial(euler_wallis, x),
        lambda wctx: radical_eval(sin_pi_rational(x), wctx) / reference_pi(wctx).mul_fraction(x),
    )


def _pi_over(m: int) -> Callable:
    return lambda wctx: reference_pi(wctx) / m


CATALOG: dict = {
    spec.id: spec
    for spec in (
        *(_euler_wallis_entry(x, limit_expr) for x, limit_expr in EULER_WALLIS_POINTS),
        ProductSpec(
            "wallis", "prod (2n/(2n-1)) (2n/(2n+1))", "pi/2", "quadratic", _wallis, _pi_over(2)
        ),
        ProductSpec(
            "odd-square", "prod (1 - 1/(2n+1)^2)", "pi/4", "quadratic", _odd_square, _pi_over(4)
        ),
        ProductSpec(
            "viete", "prod 1/cos(pi/2^n) via nested radicals", "pi/2", "geometric", viete, _pi_over(2)
        ),
        ProductSpec(
            "euler-zeta2", "prod p^2/(p^2-1) over primes", "pi^2/6", "prime", _euler_zeta2,
            lambda wctx: reference_pi_power(2, wctx) / 6,
        ),
        ProductSpec(
            "euler-pi4", "prod p/(p + (-1)^((p+1)/2)) over odd primes", "pi/4", "prime",
            _euler_pi4, _pi_over(4),
        ),
        ProductSpec(
            "nested-exponent", "prod (1/2n)^(2/(2n-1)) [prod (2k)^2k/(2k-1)^(2k-1)]^(4/(4n^2-1))",
            "pi/2", "slow", _nested_exponent, _pi_over(2),
        ),
    )
}


def catalog_ids() -> list:
    return list(CATALOG)


def catalog_spec(id: str) -> ProductSpec:
    if id not in CATALOG:
        raise UnknownId(f"no catalog entry {id!r}")
    return CATALOG[id]


def catalog_eval(
    id: str, n: int, ctx: PrecisionContext, correction: str = "first_order"
) -> ProductResult:
    """Evaluate a catalog entry with n factors (or iterations, or sieve limit).

    The correction flag applies to the entries that take one (the quadratic
    class); the others have no analytic first-order tail and ignore it.
    """
    spec = catalog_spec(id)
    if spec.options:
        return spec.product(n, correction, ctx)
    return spec.product(n, ctx)


def catalog_limit(id: str, ctx: PrecisionContext) -> BigFixed:
    """The exact limit of a catalog entry, via the oracle pi and exact radicals."""
    wctx = limit_context(ctx)
    return catalog_spec(id).exact(wctx).rescale(ctx.scale)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def golden_ratio_check(n: int, ctx: PrecisionContext) -> BigFixed:
    """Residual |3 - (4 pi^2 / 25) prod(1 - 1/(25 m^2))^2 - phi|, oracle pi."""
    wctx = ctx.working(n)
    prod = euler_wallis(Fraction(1, 5), n, "first_order", wctx)
    p_w = prod.value.rescale(wctx.scale)
    pi2 = reference_pi_power(2, wctx)
    phi = radical_eval(golden_ratio(), wctx)
    three = wctx.from_int(3)
    residual = three - (pi2 * p_w * p_w).mul_fraction(Fraction(4, 25)) - phi
    return abs(residual).rescale(ctx.scale)


def functional_equation_check(x: Fraction, ctx: PrecisionContext) -> BigFixed:
    """|x h(x) + (x+1) h(x+1)| for h = sin(pi t)/(pi t), via exact table values.

    Reduces to |sin(pi x) + sin(pi (x+1))|, identically zero up to radical
    evaluation ulps; both x and x+1 must be table angles.
    """
    x = Fraction(x)
    if x.denominator == 1:
        raise PoleAtInteger("functional equation check requires non-integer x")
    a = radical_eval(sin_pi_rational(x), ctx)
    b = radical_eval(sin_pi_rational(x + 1), ctx)
    return abs(a + b)
