"""Doubly-infinite series identities evaluated to requested precision.

Every doubly-infinite sum is first paired (index +n with -n) so the summation
order is fixed and the k = 0 case converges absolutely.  Two engines then
apply, chosen by the sign structure of the paired terms:

* alternating streams: Chebyshev-polynomial acceleration with geometric error
  decay ~ (3 + sqrt 8)^-N;
* single-sign streams (partial-fraction pole sums): direct summation to N
  plus an Euler-Maclaurin tail whose correction depth adapts to the target
  precision, with the error bound taken from the first omitted correction.

Working precision inside a run is requested + guard + ceil(log10 terms)
digits; results are truncated back to the caller's scale and every returned
error bound covers both the method error and the accumulated truncation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import numerics
from .bruno import bk_eval
from .errors import CoincidentPoints, NonAlternating, OutOfRange, PoleAtInteger
from .numerics import BigFixed, PrecisionContext, _div_trunc
from .oracle import reference_pi

_ACCEL_RHO_LN = math.log(3 + math.sqrt(8))


@dataclass(frozen=True)
class SeriesResult:
    value: BigFixed
    error_bound: BigFixed
    terms_used: int
    method: str  # "direct" | "accelerated"

    def __post_init__(self) -> None:
        if self.error_bound.mantissa <= 0:
            raise ValueError("error_bound must be positive")
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")


@dataclass(frozen=True)
class PairedTermStream:
    """Head term (index 0) plus exact paired terms u_n combining +n and -n.

    The head is a Fraction; pair(n) returns u_n as an unreduced int pair
    (num, den) with den > 0, so no gcd is taken per term.  Partial sums over
    u_1..u_N reproduce the symmetric truncation sum_{|n| <= N} identically.
    """

    head: Fraction
    pair: Callable[[int], tuple]


# ---------------------------------------------------------------------------
# Alternating engine (Chebyshev acceleration)
# ---------------------------------------------------------------------------


def _chebyshev_d(n: int) -> int:
    """d_n = ((3+sqrt8)^n + (3-sqrt8)^n) / 2, an exact integer: the rational
    part a of (3 + 2 sqrt2)^n = a + b sqrt2, by repeated squaring."""
    a, b = 1, 0
    for bit in bin(n)[2:]:
        a, b = a * a + 2 * b * b, 2 * a * b
        if bit == "1":
            a, b = 3 * a + 4 * b, 2 * a + 3 * b
    return a


def _check_alternating(stream: PairedTermStream):
    """Sign pattern of u_1..u_16; returns +-1 (or 0 if all zero)."""
    sigma = 0
    anchor = 0
    for n in range(1, 17):
        num, _ = stream.pair(n)
        if num == 0:
            continue
        s = 1 if num > 0 else -1
        if sigma == 0:
            sigma, anchor = s, n
        elif s != sigma * (-1) ** (n - anchor):
            raise NonAlternating(f"paired terms u_{anchor} and u_{n} break alternation")
    return sigma, anchor


def _chebyshev_sum(terms, n_terms: int, d: int, w: int) -> int:
    """2^w * sum_j c_j a_j / d as an int off by under 3/2, for the N = n_terms
    int pairs (num_j, den_j), den_j > 0, of the terms a_j = |num_j| / den_j,
    and d = _chebyshev_d(N): the sum in Algorithm 1 of Cohen, Rodriguez
    Villegas and Zagier (2000), on plain integers at the binary scale w.

    The weights b_j and c_j are integer coefficients of the shifted Chebyshev
    polynomial, so the b_j update divides exactly.  The final division by d
    drops about log2 d bits, so each term is built only to the scale that
    division keeps: with s = max(bitlen(d) - bitlen(N) - 2, 0), the term
    enters an integer accumulator as floor(|num_j| c_j 2^(w-s) / den_j), or
    as (|num_j| c_j) // (den_j 2^(s-w)) when w < s, the same floor since
    nested floors compose; the result is trunc(acc 2^s / d).  Each floor loses
    under one unit of acc, worth 2^s / d units of the result, and
    N 2^s <= d / 2, so the floors cost under 1/2 in all and the final
    truncation under 1.

    The loop carries the weights pre-shifted, b_j 2^(w-s) and c_j 2^(w-s)
    when w > s, so no term is shifted.  The b_j update still divides exactly,
    since b_j x / y is an integer and so is b_j 2^(w-s) x / y; every floor,
    and so the result, is the same int as with unshifted weights.
    """
    s = max(d.bit_length() - n_terms.bit_length() - 2, 0)
    up, down = max(w - s, 0), max(s - w, 0)
    b, c = -1 << up, -d << up
    acc = 0
    for j, (num, den) in enumerate(terms):
        c = b - c
        acc += abs(num) * c // (den << down)
        b = b * (2 * (j + n_terms) * (j - n_terms)) // ((2 * j + 1) * (j + 1))
    return _div_trunc(acc << s, d)


def accelerated_alternating_sum(
    stream: PairedTermStream, ctx: PrecisionContext, n_terms: int | None = None
) -> SeriesResult:
    """Chebyshev acceleration of head + sum of alternating paired terms.

    N defaults to ceil(digits * ln 10 / ln(3 + sqrt 8)) + 5, giving error
    ~ (3+sqrt8)^-N below the requested precision with margin.  The terms
    a_j = |u_{j+1}| go through _chebyshev_sum at the working scale, which is
    off by under 3/2 ulp, well inside the (N + 8) ulp of the bound.
    """
    if n_terms is None:
        n_terms = math.ceil(ctx.requested_digits * math.log(10) / _ACCEL_RHO_LN) + 5
    if n_terms < 1:
        raise OutOfRange("the accelerator needs n_terms >= 1")
    sigma, anchor = _check_alternating(stream)
    wctx = ctx.working(n_terms)
    head = wctx.from_fraction(stream.head)
    if sigma == 0:
        # degenerate all-zero stream
        return SeriesResult(*ctx.finish(head, wctx.ulp() * 4), 1, "accelerated")
    # a_j = |u_{j+1}|, a decreasing positive sequence; sum = sigma * sum (-1)^j a_j
    sign_of_u1 = sigma * (-1) ** (1 - anchor)
    w = wctx.scale
    d = _chebyshev_d(n_terms)
    u1 = stream.pair(1)
    terms = itertools.chain((u1,), map(stream.pair, range(2, n_terms + 1)))
    value = head + BigFixed(_chebyshev_sum(terms, n_terms, d, w), w) * sign_of_u1
    a0 = wctx.from_fraction(Fraction(abs(u1[0]), u1[1]))
    bound = a0.mul_fraction(Fraction(32, d)) + wctx.ulp() * (n_terms + 8)
    return SeriesResult(*ctx.finish(value, bound), n_terms + 1, "accelerated")


def direct_alternating_sum(
    stream: PairedTermStream, ctx: PrecisionContext, max_terms: int | None = None
) -> SeriesResult:
    """Plain paired summation with the alternating-tail bound |u_{N+1}|.

    Sums until a pair drops below the working ulp or max_terms (default
    200 000) pairs are in.  Slowly decaying streams cannot reach high
    precision this way; the bound stays honest regardless, which is the point
    of offering the method.  Each pair num/den is added at the working scale
    w as trunc(num * 2^w / den), exactly what from_fraction computes.
    """
    if max_terms is None:
        max_terms = 200_000
    _check_alternating(stream)
    wctx = ctx.working(max_terms)
    w = wctx.scale
    acc = wctx.from_fraction(stream.head).mantissa
    n = 1
    while n <= max_terms:
        num, den = stream.pair(n)
        if abs(num) << (w + 2) < den:
            break
        acc += _div_trunc(num << w, den)
        n += 1
    # the first unadded pair dominates the alternating tail
    num, den = stream.pair(n)
    bound = wctx.from_fraction(Fraction(abs(num), den)) + wctx.ulp() * (n + 8)
    return SeriesResult(*ctx.finish(BigFixed(acc, w), bound), n, "direct")


# ---------------------------------------------------------------------------
# Single-sign engine (pole sums + Euler-Maclaurin tail)
# ---------------------------------------------------------------------------


# [0, T_1, T_2, ...]: the tangent numbers found so far, grown by _bernoulli_ratio
_tangent = [0]


def _tangent_numbers(n: int) -> list:
    """[0, T_1, ..., T_n], the tangent numbers (tan x = sum T_j x^(2j-1)/(2j-1)!),
    by Algorithm TangentNumbers of Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers" (2011): O(n^2) multiplications of
    an int by a small int, no division."""
    t = [0, 1]
    for k in range(2, n + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _bernoulli_ratio(j: int) -> tuple:
    """B_2j / (2j) as an int pair (num, den), den > 0, for j >= 1.

    B_2j / (2j) = (-1)^(j-1) T_j / (4^j (4^j - 1)).  The table of T_j is
    built on first use and rebuilt at least twice as long whenever a larger
    j is asked for, so its total cost stays within twice that of the last
    build.
    """
    global _tangent
    if j >= len(_tangent):
        _tangent = _tangent_numbers(max(j, 2 * (len(_tangent) - 1)))
    four_j = 1 << (2 * j)
    return (_tangent[j] if j % 2 else -_tangent[j]), four_j * (four_j - 1)


@dataclass(frozen=True)
class PoleSum:
    """f(t) = sum_i c_i / (t + beta_i) with sum_i c_i = 0 (so the tail
    integral converges); everything about f is then exact or closed-form.

    The integer form scales the poles to integers: with L the lcm of the
    beta_i denominators and D the lcm of the c_i denominators,
    f(t) = (L / D) * sum_i C_i / (t L + B_i) for C_i = c_i D and B_i = beta_i L.
    """

    poles: tuple
    beta_lcm: int = field(init=False, repr=False, compare=False)  # L
    coef_lcm: int = field(init=False, repr=False, compare=False)  # D
    int_coefs: tuple = field(init=False, repr=False, compare=False)  # C_i
    int_betas: tuple = field(init=False, repr=False, compare=False)  # B_i

    def __post_init__(self) -> None:
        if sum(c for c, _ in self.poles) != 0:
            raise ValueError("pole coefficients must sum to zero")
        L = math.lcm(*(Fraction(beta).denominator for _, beta in self.poles))
        D = math.lcm(*(Fraction(c).denominator for c, _ in self.poles))
        object.__setattr__(self, "beta_lcm", L)
        object.__setattr__(self, "coef_lcm", D)
        object.__setattr__(self, "int_coefs", tuple(int(c * D) for c, _ in self.poles))
        object.__setattr__(self, "int_betas", tuple(int(beta * L) for _, beta in self.poles))

    def term(self, n: int) -> Fraction:
        return sum((c / (n + beta) for c, beta in self.poles), Fraction(0))

    def derivative(self, n: Fraction, order: int) -> Fraction:
        """Exact order-th derivative at t = n."""
        sign = (-1) ** order
        fact = math.factorial(order)
        return sum(
            (sign * fact * c / (n + beta) ** (order + 1) for c, beta in self.poles),
            Fraction(0),
        )

    def tail_integral(self, n_from: int, wctx: PrecisionContext) -> BigFixed:
        """integral_{n_from}^{inf} f(t) dt = -sum_i c_i ln(n_from + beta_i)."""
        acc = wctx.zero()
        for c, beta in self.poles:
            arg = wctx.from_fraction(n_from + beta)
            acc = acc - numerics.ln(arg).mul_fraction(c)
        return acc


# The order search compares log2 estimates of the omitted-term bounds before
# the bounds themselves; the estimates are off by far less than half of this
# margin (see _em_tail), so estimates a margin apart decide exactly.
_LOG2_MARGIN = 1.0


def _at_most(log2_a: float, log2_b: float, exact_a, exact_b) -> bool:
    """a <= b for positive rationals given as log2 estimates, and as callables
    returning (num, den) int pairs that run only when the estimates are less
    than _LOG2_MARGIN apart."""
    if log2_b - log2_a >= _LOG2_MARGIN:
        return True
    if log2_a - log2_b >= _LOG2_MARGIN:
        return False
    (a, b), (c, d) = exact_a(), exact_b()
    return a * d <= c * b


def _em_tail(
    poles: PoleSum, n_from: int, wctx: PrecisionContext, orders: int | None, target: Fraction
) -> tuple:
    """Euler-Maclaurin tail sum_{n > n_from} f(n) and a rigorous bound.

    tail = integral - f(N)/2 - sum_{j=1..J} B_2j/(2j)! f^(2j-1)(N); the bound
    is twice the first omitted correction, summed per pole (each pole term has
    high derivatives of constant sign, for which the remainder is at most
    twice the next term).

    Both come from the integer form of the poles.  With e_i = N L + B_i,
    S = prod_i e_i^2 and R_i = S / e_i^2 (an exact product of the other
    squares), B_2j/(2j)! f^(2j-1)(N) = -B_2j/(2j) * L^(2j)/D * sum_i C_i / e_i^(2j)
    and sum_i C_i / e_i^(2j) = (sum_i C_i R_i^j) / S^j: the same unreduced
    int pair as adding the fractions C_i / e_i^(2j) one by one, so every
    correction truncates to the same integer.  Order j + 1 costs one
    multiplication per pole (R_i^j * R_i) and one for S^(j+1).  B_2j/(2j)
    enters as the int pair ((-1)^(j-1) T_j, 4^j (4^j - 1)) of _bernoulli_ratio,
    not in lowest terms; the truncation of a rational and the outcome of a
    cross-multiplied comparison do not depend on how it is written, so the
    corrections and the exact comparisons are those of the reduced B_2j.

    When the order is chosen here, each omitted-term bound is compared with
    the target, and with the next bound, on log2 estimates first.  An
    estimate adds six terms: math.log2 of an int, or such a value times at
    most 122.  For ints of fewer than 2^32 bits (512 MiB each) every term is
    below 2^39 and carries a few roundings of relative size 2^-53, so the
    estimate is off by under 2^-9 bit, whichever ints represent the bound.
    Two estimates _LOG2_MARGIN = 1 bit apart therefore order the exact
    bounds the same way; closer ones fall back to an exact
    cross-multiplication of the int pairs.  The chosen order is the one
    exact comparisons alone would choose.
    """
    N = n_from
    L, D = poles.beta_lcm, poles.coef_lcm
    coefs = poles.int_coefs
    abs_coefs = [abs(C) for C in coefs]
    squares = [(N * L + B) ** 2 for B in poles.int_betas]
    S = math.prod(squares)
    ratios = [S // s for s in squares]
    # levels[j] = (sum_i C_i R_i^j, sum_i |C_i| R_i^j, S^j)
    levels = [(sum(coefs), sum(abs_coefs), 1)]
    ratio_powers = [1] * len(ratios)

    def level(j: int) -> tuple:
        nonlocal ratio_powers
        while len(levels) <= j:
            ratio_powers = list(map(operator.mul, ratio_powers, ratios))
            levels.append(
                (
                    sum(map(operator.mul, coefs, ratio_powers)),
                    sum(map(operator.mul, abs_coefs, ratio_powers)),
                    levels[-1][2] * S,
                )
            )
        return levels[j]

    def omitted_bound(j: int) -> tuple:
        """sum_i 2 |B_2j+2|/(2j+2) |c_i| / (N + beta_i)^(2j+2) as ints (num, den)."""
        b_num, b_den = _bernoulli_ratio(j + 1)
        _, weight, s_power = level(j + 1)
        return 2 * abs(b_num) * L ** (2 * j + 2) * weight, b_den * D * s_power

    if orders is None:
        log2_L, log2_S = math.log2(L), math.log2(S)

        def omitted_log2(j: int) -> float:
            b_num, b_den = _bernoulli_ratio(j + 1)
            return (
                1
                + math.log2(abs(b_num))
                + (2 * j + 2) * log2_L
                + math.log2(level(j + 1)[1])
                - math.log2(b_den * D)
                - (j + 1) * log2_S
            )

        goal = (target.numerator, target.denominator)
        log2_goal = math.log2(goal[0]) - math.log2(goal[1])
        orders = 1
        best = omitted_log2(1)
        while orders < 60:
            if _at_most(best, log2_goal, lambda: omitted_bound(orders), lambda: goal):
                break
            nxt = omitted_log2(orders + 1)
            if _at_most(best, nxt, lambda: omitted_bound(orders), lambda: omitted_bound(orders + 1)):
                break
            orders += 1
            best = nxt
    tail = poles.tail_integral(N, wctx)
    tail = tail - wctx.from_fraction(poles.term(N) / 2)
    w = wctx.scale
    corrections = 0
    for j in range(1, orders + 1):
        b_num, b_den = _bernoulli_ratio(j)
        num, _, den = level(j)
        # trunc of the correction B_2j/(2j)! f^(2j-1)(N) at scale w
        corrections += _div_trunc(-b_num * L ** (2 * j) * num << w, b_den * D * den)
    return tail - BigFixed(corrections, w), Fraction(*omitted_bound(orders))


def positive_series_sum(
    head: Fraction,
    poles: PoleSum,
    ctx: PrecisionContext,
    n_direct: int | None = None,
    tail_orders: int | None = None,
) -> SeriesResult:
    """head + sum_{n>=1} f(n) by direct summation to N plus the EM tail.

    The Euler-Maclaurin tail needs N >= ceil(2 max|beta_i|) + 8, so the
    default N is never below that floor and an explicit N below it raises
    OutOfRange.

    The direct part runs on the integer form of the poles: each term
    f(n) = L * sum_i C_i / (n L + B_i) / D is built as one unreduced int pair
    num/den and added at the working scale w as trunc(num * 2^w / den), which
    is what from_fraction computes for the same rational.  Some n L + B_i are
    negative, so the quotient truncates toward zero rather than flooring.
    """
    digits = ctx.requested_digits
    floor = math.ceil(2 * max(abs(beta) for _, beta in poles.poles)) + 8
    if n_direct is None:
        n_direct = max(64, 3 * digits, floor)
    elif n_direct < floor:
        raise OutOfRange(f"the pole sum needs n_direct >= {floor}")
    wctx = ctx.working(n_direct)
    w = wctx.scale
    L, D = poles.beta_lcm, poles.coef_lcm
    int_poles = tuple(zip(poles.int_coefs, poles.int_betas))
    acc = wctx.from_fraction(head).mantissa
    for n in range(1, n_direct + 1):
        # sum_i C_i / (nL + B_i) as one unreduced int pair num/den
        nL = n * L
        num, den = 0, 1
        for C, B in int_poles:
            d = nL + B
            num = num * d + C * den
            den *= d
        acc += _div_trunc(num * L << w, den * D)
    tail, method_bound = _em_tail(
        poles, n_direct, wctx, tail_orders, Fraction(1, 10 ** (digits + 4))
    )
    value = BigFixed(acc, w) + tail
    bound = wctx.from_fraction(method_bound) + wctx.ulp() * (n_direct + 64)
    return SeriesResult(*ctx.finish(value, bound), n_direct + 1, "direct")


# ---------------------------------------------------------------------------
# Streams for the pi identities
# ---------------------------------------------------------------------------


def _require_non_integer(x: Fraction) -> Fraction:
    x = Fraction(x)
    if x.denominator == 1:
        raise PoleAtInteger(f"series has a pole at integer x = {x}")
    return x


def alternating_power_stream(k: int, x: Fraction) -> PairedTermStream:
    """Paired stream of (-1)^n / (x+n)^(k+1) over all integers n."""
    x = _require_non_integer(x)
    e = k + 1
    p, q = x.numerator, x.denominator
    q_e = q**e

    def pair(n: int) -> tuple:
        # with x = p/q: q^e ((p+nq)^e + (p-nq)^e) / ((p+nq)(p-nq))^e
        plus, minus = p + n * q, p - n * q
        num = q_e * (plus**e + minus**e)
        den = (plus * minus) ** e
        # (-1)^n num / den, written with den > 0
        if (den < 0) != (n % 2 == 1):
            num = -num
        return num, abs(den)

    return PairedTermStream(head=1 / x**e, pair=pair)


def cotangent_poles(x: Fraction) -> PoleSum:
    """Paired 1/(x+n) + 1/(x-n) = 2x/(x^2 - n^2) as a pole sum in n."""
    return PoleSum(((Fraction(1), x), (Fraction(-1), -x)))


def cot_difference_poles(x: Fraction, a: Fraction) -> PoleSum:
    return PoleSum(
        (
            (Fraction(-1), -x),
            (Fraction(1), -a),
            (Fraction(1), x),
            (Fraction(-1), a),
        )
    )


APPENDIX_POLES = PoleSum(
    (
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(-1, 2), Fraction(-1, 4)),
        (Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4)),
    )
)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


# the alternating-sum methods, in the order the CLI lists them
METHODS = ("direct", "accelerated")


def alternating_power_sum(
    k: int, x: Fraction, ctx: PrecisionContext, method: str = "accelerated", n_terms: int | None = None
) -> SeriesResult:
    """sum over all integers of (-1)^n / (x+n)^(k+1), principal-value paired.

    n_terms fixes the accelerator's N, or the direct method's term cap; by
    default each method picks its own.
    """
    stream = alternating_power_stream(k, x)
    if method == "accelerated":
        return accelerated_alternating_sum(stream, ctx, n_terms)
    if method == "direct":
        return direct_alternating_sum(stream, ctx, n_terms)
    raise ValueError(f"unknown method {method!r}")


def reciprocal_sine_series(
    x: Fraction, ctx: PrecisionContext, method: str = "accelerated", n_terms: int | None = None
) -> SeriesResult:
    """pi / sin(pi x) as the alternating reciprocal sum (k = 0 case)."""
    return alternating_power_sum(0, x, ctx, method, n_terms)


def _power_identity(
    k: int, x: Fraction, ctx: PrecisionContext, method: str = "accelerated", n_terms: int | None = None
) -> tuple:
    """(S_k(x), its working context wctx, and (-1)^k S_k(x) and B_k(x) at wctx's
    scale): the two sides of pi^(k+1) B_k(x) = (-1)^k S_k(x)."""
    x = _require_non_integer(x)
    s_res = alternating_power_sum(k, x, ctx, method, n_terms)
    wctx = ctx.working(s_res.terms_used)
    s_w = s_res.value.rescale(wctx.scale)
    if k % 2:
        s_w = -s_w
    return s_res, wctx, s_w, bk_eval(k, x, wctx)


def pi_power_from_series(
    k: int, x: Fraction, ctx: PrecisionContext, method: str = "accelerated", n_terms: int | None = None
) -> SeriesResult:
    """pi^(k+1) = (-1)^k / B_k(x) * sum (-1)^n / (x+n)^(k+1).

    The full paired sum includes the n = 0 head; at k = 0, x = 1/4 that head
    is what some rearrangements split off as a leading "1 +" after dividing
    by 4, so the identity is exposed here in full-sum form.
    """
    s_res, wctx, s_w, b = _power_identity(k, x, ctx, method, n_terms)
    value = s_w / b
    # |d(S/B)| <= dS/|B| + |S/B| * dB/|B|
    err_b = wctx.ulp() * (3 * k + 48)
    s_bound = s_res.error_bound.rescale(wctx.scale) + wctx.ulp() * 2
    bound = (s_bound + abs(value) * err_b) / abs(b) + wctx.ulp() * 4
    return SeriesResult(*ctx.finish(value, bound), s_res.terms_used, s_res.method)


def cotangent_series(
    x: Fraction,
    ctx: PrecisionContext,
    n_direct: int | None = None,
    tail_orders: int | None = None,
) -> SeriesResult:
    """pi * cot(pi x) = 1/x + sum_{n>=1} 2x/(x^2 - n^2)."""
    x = _require_non_integer(x)
    return positive_series_sum(1 / x, cotangent_poles(x), ctx, n_direct, tail_orders)


def cot_difference_series(
    x: Fraction,
    a: Fraction,
    ctx: PrecisionContext,
    n_direct: int | None = None,
    tail_orders: int | None = None,
) -> SeriesResult:
    """sum over all integers of (a-x)/((x-n)(a-n)) = pi cot(pi x) - pi cot(pi a)."""
    x = _require_non_integer(x)
    a = _require_non_integer(a)
    if x == a:
        raise CoincidentPoints("cotangent difference requires x != a")
    head = (a - x) / (x * a)
    return positive_series_sum(head, cot_difference_poles(x, a), ctx, n_direct, tail_orders)


def appendix_pi_series(
    ctx: PrecisionContext,
    n_direct: int | None = None,
    tail_orders: int | None = None,
) -> SeriesResult:
    """pi = 2 * sum over all integers of 1/((2n-1)(4n-1)), paired."""
    inner = positive_series_sum(Fraction(1), APPENDIX_POLES, ctx, n_direct, tail_orders)
    return SeriesResult(
        inner.value * 2, inner.error_bound * 2, inner.terms_used, inner.method
    )


def derivative_identity_check(k: int, x: Fraction, ctx: PrecisionContext) -> BigFixed:
    """Residual |(-1)^k * sum (-1)^n/(x+n)^(k+1) - pi^(k+1) * B_k(x)|.

    Uses the independent pi oracle, so a sign error anywhere in the
    coefficient pipeline shows up as a residual of order pi^(k+1).
    """
    _, wctx, s_w, b = _power_identity(k, x, ctx)
    pi = reference_pi(wctx)
    pi_pow = numerics.ipow(pi, k + 1)
    return abs(s_w - pi_pow * b).rescale(ctx.scale)
