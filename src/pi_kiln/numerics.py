"""Arbitrary-precision binary fixed-point arithmetic.

A BigFixed is an immutable pair (mantissa, scale) representing the value
mantissa * 2**-scale.  Within one PrecisionContext every operand carries the
same scale, so addition and subtraction are exact integer arithmetic;
multiplication and division truncate toward zero and are correct to one unit
in the last place.  Decimal appears only at the I/O boundary.

ln, exp, the oracle and radical_eval run internally at scale + _GUARD_BITS
and round back to the operand scale, and sqrt rounds its integer square root
to nearest, which keeps them comfortably inside their documented ulp budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionByZero,
    NegativeOperand,
    NonPositiveOperand,
    ScaleMismatch,
)

_LOG2_10 = math.log2(10)

# Extra bits used inside sqrt/ln/exp before rounding back to the caller scale.
_GUARD_BITS = 16

# Most decimal digits one str() call converts; Python refuses int-to-str
# conversions beyond 4300 digits by default (sys.get_int_max_str_digits).
_STR_CHUNK_DIGITS = 4000


def _shift_trunc(n: int, bits: int) -> int:
    """Shift n right by bits, truncating toward zero.  Negative bits shift left."""
    if bits <= 0:
        return n << -bits
    if n >= 0:
        return n >> bits
    return -((-n) >> bits)


def _shift_round(n: int, bits: int) -> int:
    """Shift n right by bits, rounding to nearest (ties away from zero)."""
    if bits <= 0:
        return n << -bits
    half = 1 << (bits - 1)
    if n >= 0:
        return (n + half) >> bits
    return -((-n + half) >> bits)


def _div_trunc(a: int, b: int) -> int:
    """Integer quotient truncated toward zero (Python // floors)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _decimal_digits(n: int, width: int) -> str:
    """0 <= n < 10**width as exactly `width` decimal digits, zero-padded.

    Wider numbers are split by a power of ten into a high and a low half, so
    no single str() call sees more than _STR_CHUNK_DIGITS digits.
    """
    if width <= _STR_CHUNK_DIGITS:
        return str(n).zfill(width)
    low = width // 2
    high, rest = divmod(n, 10**low)
    return _decimal_digits(high, width - low) + _decimal_digits(rest, low)


def _isqrt_round(n: int) -> int:
    """Square root of the int n >= 0, rounded to nearest."""
    r = math.isqrt(n)
    if n - r * r > r:  # round to nearest: (r+1)^2 - n < n - r^2
        r += 1
    return r


def _div_round(a: int, b: int) -> int:
    """Integer quotient rounded to nearest (ties away from zero)."""
    b_abs = abs(b)
    q, r = divmod(abs(a), b_abs)
    if 2 * r >= b_abs:
        q += 1
    return q if (a >= 0) == (b >= 0) else -q


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision: requested decimal digits plus 10 guard digits.

    The binary scale is ceil((requested + 10) * log2(10)); guard digits
    absorb truncation noise and are never rendered.
    """

    requested_digits: int
    scale: int = field(init=False)

    def __post_init__(self) -> None:
        if self.requested_digits < 1:
            raise ValueError("requested_digits must be >= 1")
        scale = math.ceil((self.requested_digits + 10) * _LOG2_10)
        object.__setattr__(self, "scale", scale)

    # -- constructors ------------------------------------------------------

    def zero(self) -> "BigFixed":
        return BigFixed(0, self.scale)

    def one(self) -> "BigFixed":
        return BigFixed(1 << self.scale, self.scale)

    def ulp(self) -> "BigFixed":
        return BigFixed(1, self.scale)

    def from_int(self, n: int) -> "BigFixed":
        return BigFixed(n << self.scale, self.scale)

    def from_fraction(self, q: Fraction) -> "BigFixed":
        return BigFixed(_div_trunc(q.numerator << self.scale, q.denominator), self.scale)

    def parse(self, text: str) -> "BigFixed":
        """Parse a decimal string ("3.25", "-0.5") or a rational ("p/q")."""
        return self.from_fraction(Fraction(text.strip()))

    def render(self, v: "BigFixed") -> str:
        """Decimal string with exactly requested_digits fractional digits."""
        return v.to_decimal(self.requested_digits)

    # -- runs of many steps ----------------------------------------------------

    def working(self, terms: int) -> "PrecisionContext":
        """Context for a run of `terms` truncating steps: ceil(log10 terms) + 2
        extra digits (terms counted as at least 10) absorb their noise."""
        extra = math.ceil(math.log10(max(terms, 10))) + 2
        return PrecisionContext(self.requested_digits + extra)

    def finish(self, value_w: "BigFixed", bound_w: "BigFixed") -> tuple:
        """(value, bound) of a working-precision run, at this scale.

        The value is truncated; the bound is truncated too, so 2 ulp are added
        to round it up and to absorb the value's truncation.
        """
        return value_w.rescale(self.scale), abs(bound_w).rescale(self.scale) + self.ulp() * 2


class BigFixed:
    """Immutable fixed-point number: value = mantissa * 2**-scale."""

    __slots__ = ("mantissa", "scale")

    def __init__(self, mantissa: int, scale: int) -> None:
        if scale < 0:
            raise ValueError("scale must be non-negative")
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BigFixed is immutable")

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "BigFixed") -> None:
        if self.scale != other.scale:
            raise ScaleMismatch(f"scale {self.scale} vs {other.scale}")

    def rescale(self, scale: int) -> "BigFixed":
        """Re-express at another scale; downshifts truncate toward zero."""
        return BigFixed(_shift_trunc(self.mantissa, self.scale - scale), scale)

    def rescale_round(self, scale: int) -> "BigFixed":
        """Re-express at another scale; downshifts round to nearest."""
        return BigFixed(_shift_round(self.mantissa, self.scale - scale), scale)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "BigFixed") -> "BigFixed":
        self._check(other)
        return BigFixed(self.mantissa + other.mantissa, self.scale)

    def __sub__(self, other: "BigFixed") -> "BigFixed":
        self._check(other)
        return BigFixed(self.mantissa - other.mantissa, self.scale)

    def __neg__(self) -> "BigFixed":
        return BigFixed(-self.mantissa, self.scale)

    def __abs__(self) -> "BigFixed":
        return BigFixed(abs(self.mantissa), self.scale)

    def __mul__(self, other):
        if isinstance(other, int):
            # Integer multiplication is exact.
            return BigFixed(self.mantissa * other, self.scale)
        self._check(other)
        return BigFixed(_shift_trunc(self.mantissa * other.mantissa, self.scale), self.scale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if other == 0:
                raise DivisionByZero("division by zero")
            return BigFixed(_div_trunc(self.mantissa, other), self.scale)
        self._check(other)
        if other.mantissa == 0:
            raise DivisionByZero("division by zero")
        return BigFixed(_div_trunc(self.mantissa << self.scale, other.mantissa), self.scale)

    def mul_fraction(self, q: Fraction) -> "BigFixed":
        """Multiply by an exact rational; result truncated toward zero (1 ulp)."""
        return BigFixed(_div_trunc(self.mantissa * q.numerator, q.denominator), self.scale)

    # -- comparisons (same scale only) ---------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BigFixed)
            and self.scale == other.scale
            and self.mantissa == other.mantissa
        )

    def __hash__(self) -> int:
        return hash((self.mantissa, self.scale))

    def __lt__(self, other: "BigFixed") -> bool:
        self._check(other)
        return self.mantissa < other.mantissa

    def __le__(self, other: "BigFixed") -> bool:
        self._check(other)
        return self.mantissa <= other.mantissa

    def __gt__(self, other: "BigFixed") -> bool:
        self._check(other)
        return self.mantissa > other.mantissa

    def __ge__(self, other: "BigFixed") -> bool:
        self._check(other)
        return self.mantissa >= other.mantissa

    @property
    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    def is_zero(self) -> bool:
        return self.mantissa == 0

    # -- conversions ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.scale)

    def to_float(self) -> float:
        m = self.mantissa
        if m == 0:
            return 0.0
        bits = m.bit_length()
        if bits <= 53:
            return math.ldexp(m, -self.scale)
        top = _shift_round(m, bits - 53)
        return math.ldexp(top, bits - 53 - self.scale)

    def to_decimal(self, digits: int) -> str:
        """Render sign, integer part, '.', exactly `digits` fractional digits.

        Fractional digits are truncated (consistent with the engine's
        truncation semantics), never rounded.
        """
        if digits < 0:
            raise ValueError("digits must be >= 0")
        m = abs(self.mantissa)
        int_part = m >> self.scale
        frac = m - (int_part << self.scale)
        sign = "-" if self.mantissa < 0 else ""
        if digits == 0:
            return f"{sign}{int_part}"
        frac_digits = (frac * 10**digits) >> self.scale
        return f"{sign}{int_part}.{_decimal_digits(frac_digits, digits)}"

    def to_scientific(self) -> str:
        """Three significant digits, truncated, e.g. '1.23e-31' (integer math only)."""
        m = self.mantissa
        if m == 0:
            return "0"
        sign = "-" if m < 0 else ""
        m = abs(m)
        # First guess of the decimal exponent from bit length, then adjust.
        e = math.floor((m.bit_length() - 1 - self.scale) * math.log10(2))
        while True:
            shift = 2 - e
            if shift >= 0:
                t = (m * 10**shift) >> self.scale
            else:
                t = m // (10 ** (-shift) << self.scale)
            if t >= 1000:
                e += 1
            elif t < 100:
                e -= 1
            else:
                break
        digits = str(t)
        return f"{sign}{digits[0]}.{digits[1:]}e{e:+03d}"

    def __repr__(self) -> str:
        return f"BigFixed({self.mantissa}, scale={self.scale})"


# ---------------------------------------------------------------------------
# Module-level operations (BigFixed in, BigFixed out, same scale)
# ---------------------------------------------------------------------------


def sqrt(a: BigFixed) -> BigFixed:
    """Square root with |result**2 - a| <= 2 ulp for a <= 4 (and <= sqrt(a) ulp beyond).

    Computed as the round-to-nearest integer square root of mantissa << scale,
    which is at least as accurate as the iterated-Newton contract.
    """
    if a.mantissa < 0:
        raise NegativeOperand("sqrt of negative value")
    return BigFixed(_isqrt_round(a.mantissa << a.scale), a.scale)


@lru_cache(maxsize=None)
def _ln2_mantissa(scale: int) -> int:
    """ln 2 = 2*atanh(1/3) as a mantissa at the given scale (nearest)."""
    w = scale + _GUARD_BITS
    p = (1 << w) // 3
    acc = p
    j = 1
    while p:
        p = p // 9
        if p == 0:
            break
        acc += p // (2 * j + 1)
        j += 1
    return _shift_round(2 * acc, w - scale)


def ln(a: BigFixed) -> BigFixed:
    """Natural logarithm; relative error well inside 4 ulp.

    Range-reduces to t in [1, 2) by a mantissa shift (a = t * 2**e), then sums
    the atanh series ln t = 2 * atanh((t-1)/(t+1)); adds e * ln 2.
    """
    if a.mantissa <= 0:
        raise NonPositiveOperand("ln of non-positive value")
    s = a.scale
    w = s + _GUARD_BITS
    m = a.mantissa << _GUARD_BITS
    e = m.bit_length() - 1 - w
    t = _shift_trunc(m, e)  # in [1, 2) at scale w
    one = 1 << w
    u = ((t - one) << w) // (t + one)  # in [0, 1/3)
    u2 = (u * u) >> w
    acc = u
    p = u
    j = 1
    while True:
        p = (p * u2) >> w
        if p == 0:
            break
        acc += p // (2 * j + 1)
        j += 1
    res = 2 * acc + e * _ln2_mantissa(w)
    return BigFixed(_shift_round(res, _GUARD_BITS), s)


def exp(a: BigFixed) -> BigFixed:
    """Exponential; relative error well inside 4 ulp.

    Range-reduces by ln 2 (a = k*ln2 + r, |r| <= ln2/2), sums the Taylor
    series for exp(r), then shifts by 2**k.
    """
    s = a.scale
    if a.mantissa == 0:
        return BigFixed(1 << s, s)
    w = s + _GUARD_BITS
    m = a.mantissa << _GUARD_BITS
    l2 = _ln2_mantissa(w)
    k = _div_round(m, l2)
    r = m - k * l2
    term = 1 << w
    acc = term
    j = 1
    while term:
        term = _div_trunc(_shift_trunc(term * r, w), j)
        if term == 0:
            break
        acc += term
        j += 1
    return BigFixed(_shift_round(_shift_trunc(acc, -k), _GUARD_BITS), s)


def ipow(a: BigFixed, n: int) -> BigFixed:
    """a ** n for integer n >= 0 by repeated squaring (truncating multiplies)."""
    if n < 0:
        raise ValueError("ipow exponent must be >= 0")
    result = BigFixed(1 << a.scale, a.scale)
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result
