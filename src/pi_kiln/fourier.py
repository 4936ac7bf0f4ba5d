"""Double-precision check of the cosine-expansion route to the reciprocal
sine and cotangent identities.

The closed-form coefficient of cos(n x) in the expansion of cos(alpha x) on
[-pi, pi] is

    a_n = (-1)^n sin(alpha pi)/pi * (1/(alpha+n) + 1/(alpha-n)),

verified here against adaptive Simpson quadrature of the defining integral.
Partial sums at x = 0 and x = pi reproduce the two boxed series identities.
This module is demonstration-grade on purpose: the high-precision path lives
in pi_kiln.series, keeping arbitrary-argument trig out of the fixed-point
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateAlpha


@dataclass(frozen=True)
class FourierCoefficient:
    n: int
    value: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("index must be >= 0")
        if not math.isfinite(self.value):
            raise ValueError("coefficient must be finite")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == int(alpha):
        raise DegenerateAlpha(f"alpha={alpha!r} degenerates the closed form")
    return alpha


def fourier_coefficient(alpha: float, n: int) -> FourierCoefficient:
    """Closed form of the n-th cosine coefficient of cos(alpha x)."""
    alpha = _check_alpha(alpha)
    if n < 0:
        raise ValueError("index must be >= 0")
    value = (-1) ** n * math.sin(alpha * math.pi) / math.pi * (
        1.0 / (alpha + n) + 1.0 / (alpha - n)
    )
    return FourierCoefficient(n, value)


def _simpson(f, a: float, b: float) -> float:
    return (b - a) / 6.0 * (f(a) + 4.0 * f((a + b) / 2.0) + f(b))


def _adaptive_simpson(f, a: float, b: float, tol: float, whole: float, depth: int) -> float:
    m = (a + b) / 2.0
    left = _simpson(f, a, m)
    right = _simpson(f, m, b)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive_simpson(f, a, m, tol / 2.0, left, depth - 1) + _adaptive_simpson(
        f, m, b, tol / 2.0, right, depth - 1
    )


def integrate(f, a: float, b: float) -> float:
    """Adaptive Simpson quadrature with absolute tolerance 1e-12."""
    return _adaptive_simpson(f, a, b, 1e-12, _simpson(f, a, b), 40)


def fourier_coefficient_by_quadrature(alpha: float, n: int) -> float:
    """Oracle: (2/pi) * integral_0^pi cos(alpha t) cos(n t) dt, numerically."""
    alpha = float(alpha)
    return 2.0 / math.pi * integrate(
        lambda t: math.cos(alpha * t) * math.cos(n * t), 0.0, math.pi
    )


def fourier_partial_sum(alpha: float, x: float, n_max: int) -> float:
    """a_0/2 + sum_{n=1..n_max} a_n cos(n x)."""
    alpha = _check_alpha(alpha)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    sa = math.sin(alpha * math.pi) / math.pi
    acc = sa / alpha  # a_0 / 2
    for n in range(1, n_max + 1):
        a_n = (-1) ** n * sa * (1.0 / (alpha + n) + 1.0 / (alpha - n))
        acc += a_n * math.cos(n * x)
    return acc


def residual_table(alpha: float, n_max: int) -> list:
    """Per-index disagreement between closed form and quadrature.

    Rows: (n, closed_form, quadrature, |difference|).
    """
    rows = []
    for n in range(0, n_max + 1):
        closed = fourier_coefficient(alpha, n).value
        quad = fourier_coefficient_by_quadrature(alpha, n)
        rows.append((n, closed, quad, abs(closed - quad)))
    return rows
