"""Independent high-precision pi oracle.

Deliberately disjoint from the sine-series / product machinery elsewhere in
the package: pi comes from Machin-type arctangent identities summed as plain
integer-arithmetic Taylor series, so agreement with those formulas is
evidence, not circularity.

    pi/4 = 4 arctan(1/5) - arctan(1/239)      (primary)
    pi/4 = arctan(1/2) + arctan(1/3)          (cross-check)
"""

from __future__ import annotations

from functools import lru_cache

from .numerics import _GUARD_BITS, BigFixed, PrecisionContext, _shift_round, ipow


def _arctan_inv(m: int, scale: int) -> int:
    """Mantissa of arctan(1/m) at the given scale (alternating Taylor series).

    Each truncating division loses below one ulp; the series is cut when the
    term underflows the scale, so the result is correct to a few ulps.
    """
    if m < 2:
        raise ValueError("requires m >= 2")
    m2 = m * m
    p = (1 << scale) // m
    acc = p
    j = 1
    sign = -1
    while p:
        p //= m2
        if p == 0:
            break
        acc += sign * (p // (2 * j + 1))
        sign = -sign
        j += 1
    return acc


@lru_cache(maxsize=None)
def _pi_mantissa(scale: int) -> int:
    w = scale + _GUARD_BITS
    quarter = 4 * _arctan_inv(5, w) - _arctan_inv(239, w)
    return _shift_round(4 * quarter, _GUARD_BITS)


@lru_cache(maxsize=None)
def _pi_mantissa_alt(scale: int) -> int:
    w = scale + _GUARD_BITS
    quarter = _arctan_inv(2, w) + _arctan_inv(3, w)
    return _shift_round(4 * quarter, _GUARD_BITS)


def reference_pi(ctx: PrecisionContext) -> BigFixed:
    """pi with error below 10**-requested_digits (well below, in fact)."""
    return BigFixed(_pi_mantissa(ctx.scale), ctx.scale)


def reference_pi_alt(ctx: PrecisionContext) -> BigFixed:
    """pi from the second identity; used to cross-check the oracle itself."""
    return BigFixed(_pi_mantissa_alt(ctx.scale), ctx.scale)


def reference_pi_power(exponent: int, ctx: PrecisionContext) -> BigFixed:
    """pi**exponent computed from the oracle at extended internal precision."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    w = ctx.scale + _GUARD_BITS + exponent.bit_length() * 2
    return ipow(BigFixed(_pi_mantissa(w), w), exponent).rescale_round(ctx.scale)


def limit_context(ctx: PrecisionContext) -> PrecisionContext:
    """ctx with 4 more digits: every exact limit a result is compared with is
    computed in it and truncated back to ctx's scale."""
    return PrecisionContext(ctx.requested_digits + 4)
