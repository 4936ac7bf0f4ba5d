"""Exact multinomials and radical values of sin/cos at rational multiples
of pi.

Rational values are plain fractions.Fraction (already an exact, reduced
big-integer fraction with "p/q" parsing).  Radical expressions are small
immutable trees over rational leaves with {add, sub, div, sqrt} nodes,
evaluated on demand into BigFixed.

The sine table covers x = p/q with q in {1, 2, 3, 4, 5, 6, 10} and is closed
under integer shifts of x, so identities involving x+1 can be checked with
exact values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from . import numerics
from .errors import NegativeUnderSqrt, UnsupportedAngle
from .numerics import BigFixed, PrecisionContext

SUPPORTED_DENOMINATORS = frozenset({1, 2, 3, 4, 5, 6, 10})


def multinomial(multiplicities) -> int:
    """(sum m_i)! / prod(m_i!) for non-negative integers, exactly."""
    ms = list(multiplicities)
    total = math.factorial(sum(ms))
    for m in ms:
        total //= math.factorial(m)
    return total


# ---------------------------------------------------------------------------
# Radical expressions
# ---------------------------------------------------------------------------

_Operand = Union["RadicalExpr", Fraction, int]


class RadicalExpr:
    """Immutable expression tree over Fraction leaves.

    Nodes: "num" (leaf), "add", "sub", "div" (binary), "sqrt" (unary).
    """

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RadicalExpr is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def number(q) -> "RadicalExpr":
        return RadicalExpr("num", (Fraction(q),))

    @staticmethod
    def _wrap(v: _Operand) -> "RadicalExpr":
        if isinstance(v, RadicalExpr):
            return v
        return RadicalExpr.number(v)

    def __add__(self, other: _Operand) -> "RadicalExpr":
        return RadicalExpr("add", (self, self._wrap(other)))

    def __radd__(self, other: _Operand) -> "RadicalExpr":
        return RadicalExpr("add", (self._wrap(other), self))

    def __sub__(self, other: _Operand) -> "RadicalExpr":
        return RadicalExpr("sub", (self, self._wrap(other)))

    def __rsub__(self, other: _Operand) -> "RadicalExpr":
        return RadicalExpr("sub", (self._wrap(other), self))

    def __truediv__(self, other: _Operand) -> "RadicalExpr":
        return RadicalExpr("div", (self, self._wrap(other)))

    def __neg__(self) -> "RadicalExpr":
        return RadicalExpr("sub", (RadicalExpr.number(0), self))

    def to_sexpr(self) -> str:
        """Plain-text s-expression for debugging and golden files."""
        if self.op == "num":
            return str(self.args[0])
        inner = " ".join(a.to_sexpr() for a in self.args)
        return f"({self.op} {inner})"

    def __repr__(self) -> str:
        return f"RadicalExpr<{self.to_sexpr()}>"


def sqrt_expr(v: _Operand) -> RadicalExpr:
    return RadicalExpr("sqrt", (RadicalExpr._wrap(v),))


def golden_ratio() -> RadicalExpr:
    """phi = (1 + sqrt 5) / 2, kept in radical form."""
    return (1 + sqrt_expr(5)) / 2


def radical_eval(expr: RadicalExpr, ctx: PrecisionContext) -> BigFixed:
    """Evaluate a radical tree; error stays well inside 4 ulp per tree level.

    Internally evaluates at ctx.scale + numerics._GUARD_BITS and rounds once
    at the end.  A sqrt argument more than a few internal ulps below zero
    raises NegativeUnderSqrt; tiny negative dust from truncation is clamped.
    """
    w = ctx.scale + numerics._GUARD_BITS

    def rec(e: RadicalExpr) -> int:
        op = e.op
        if op == "num":
            q = e.args[0]
            return numerics._div_trunc(q.numerator << w, q.denominator)
        if op == "sqrt":
            m = rec(e.args[0])
            if m < 0:
                if m < -4:
                    raise NegativeUnderSqrt(e.args[0].to_sexpr())
                m = 0
            return numerics._isqrt_round(m << w)
        a = rec(e.args[0])
        b = rec(e.args[1])
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "div":
            if b == 0:
                raise ZeroDivisionError("division by zero in radical expression")
            return numerics._div_trunc(a << w, b)
        raise ValueError(f"unknown radical op {op!r}")

    return BigFixed(numerics._shift_round(rec(expr), numerics._GUARD_BITS), ctx.scale)


# ---------------------------------------------------------------------------
# Exact sine/cosine at rational multiples of pi
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _base_sines() -> dict:
    """sin(pi*x) for the first-quadrant table angles x in [0, 1/2]."""
    phi = golden_ratio()
    return {
        Fraction(0): RadicalExpr.number(0),
        Fraction(1, 6): RadicalExpr.number(Fraction(1, 2)),
        Fraction(1, 4): sqrt_expr(2) / 2,
        Fraction(1, 3): sqrt_expr(3) / 2,
        Fraction(1, 2): RadicalExpr.number(1),
        Fraction(1, 5): sqrt_expr(3 - phi) / 2,
        Fraction(2, 5): sqrt_expr(2 + phi) / 2,
        Fraction(1, 10): (sqrt_expr(5) - 1) / 4,
        Fraction(3, 10): (sqrt_expr(5) + 1) / 4,
    }


def sin_pi_rational(x: Fraction) -> RadicalExpr:
    """Exact radical expression for sin(pi*x).

    Supported x: denominator (after reduction mod 2) in {1, 2, 3, 4, 5, 6, 10};
    all integer shifts are handled via sin(pi*(x+1)) = -sin(pi*x).
    """
    x = Fraction(x)
    r = Fraction(x.numerator % (2 * x.denominator), x.denominator)
    if r.denominator not in SUPPORTED_DENOMINATORS:
        raise UnsupportedAngle(f"sin(pi*{x}): denominator {r.denominator} not in table")
    negate = False
    if r >= 1:  # antiperiod: sin(pi(1+t)) = -sin(pi t)
        r -= 1
        negate = True
    if 2 * r > 1:  # mirror: sin(pi(1-t)) = sin(pi t)
        r = 1 - r
    expr = _base_sines()[r]
    return -expr if negate else expr


def cos_pi_rational(x: Fraction) -> RadicalExpr:
    """Exact radical expression for cos(pi*x) = sin(pi*(x + 1/2))."""
    return sin_pi_rational(Fraction(x) + Fraction(1, 2))


def trig_table() -> dict:
    """All table angles in [0, 2) mapped to (sin, cos) radical pairs."""
    table = {}
    for q in sorted(SUPPORTED_DENOMINATORS):
        for p in range(0, 2 * q):
            x = Fraction(p, q)
            if x in table:
                continue
            table[x] = (sin_pi_rational(x), cos_pi_rational(x))
    return table
