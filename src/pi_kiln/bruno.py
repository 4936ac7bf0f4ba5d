"""Composition coefficients and the trigonometric prefactor turning the
alternating series sum((-1)^n / (x+n)^(k+1)) into pi^(k+1).

For each constrained multiplicity vector the exact rational coefficient is

    C(p1..pk) = (-1)^(k-p0) (k-p0)! / prod_i (i!)^p_i p_i!

and the i-th derivative of sin contributes a factor +-s or +-c by i mod 4.
Summing coefficient * s^p0 * prod(factor_i^p_i) over all vectors and
rewriting c^2 as 1 - s^2 yields the canonical form

    B_k(x) = (A(s) + c * B(s)) / s^(k+1),   s = sin(pi x), c = cos(pi x),

with rational A, B of degree <= k and c-degree <= 1.  The k=1 prefactor is
-c/s^2: the positive-sum convention that keeps the squared-pi identity
positive at x = 1/4 (checked numerically before the golden forms were
frozen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PoleAtInteger, SingularPoint
from .exact import cos_pi_rational, radical_eval, sin_pi_rational
from .numerics import BigFixed, PrecisionContext, ipow
from .partitions import PartitionVector, enumerate_constrained


@dataclass(frozen=True)
class TrigMonomial:
    """One derivative factor: sign * s^s_exp * c^c_exp."""

    sign: int
    s_exp: int
    c_exp: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        if self.s_exp < 0 or self.c_exp < 0:
            raise ValueError("exponents must be >= 0")


_FACTOR_BY_RESIDUE = (
    TrigMonomial(+1, 1, 0),  # sin
    TrigMonomial(+1, 0, 1),  # cos
    TrigMonomial(-1, 1, 0),  # -sin
    TrigMonomial(-1, 0, 1),  # -cos
)


def trig_factor(i: int) -> TrigMonomial:
    """Factor contributed by the i-th derivative of sin(pi x), i >= 0."""
    if i < 0:
        raise ValueError("derivative order must be >= 0")
    return _FACTOR_BY_RESIDUE[i % 4]


def faa_coefficient(pv: PartitionVector) -> Fraction:
    """Exact rational coefficient attached to one multiplicity vector."""
    k, p0 = pv.k, pv.p0
    num = (-1) ** (k - p0) * math.factorial(k - p0)
    den = 1
    for i, m in enumerate(pv.p, start=1):
        if m:
            den *= math.factorial(i) ** m * math.factorial(m)
    return Fraction(num, den)


@dataclass(frozen=True)
class BkSymbolic:
    """Canonical form (A(s) + c*B(s)) / s^(k+1); coefficients are exact."""

    k: int
    even_part: tuple  # A: Fraction coefficients, index = s exponent
    odd_part: tuple  # B: Fraction coefficients, index = s exponent

    @property
    def denominator_exponent(self) -> int:
        return self.k + 1

    def eval_float(self, s: float, c: float) -> float:
        """Double-precision evaluation, for oracles and tests."""
        a = sum(float(q) * s**j for j, q in enumerate(self.even_part))
        b = sum(float(q) * s**j for j, q in enumerate(self.odd_part))
        return (a + c * b) / s ** (self.k + 1)


def _trim(poly: dict) -> tuple:
    if not poly:
        return tuple()
    deg = max(j for j, q in poly.items() if q) if any(poly.values()) else -1
    if deg < 0:
        return tuple()
    return tuple(poly.get(j, Fraction(0)) for j in range(deg + 1))


@lru_cache(maxsize=None)
def bk_symbolic(k: int) -> BkSymbolic:
    """Sum over all constrained vectors, reduced to c-degree <= 1.

    The number of summed terms equals the partition number P(k).
    """
    if k < 0:
        raise ValueError("order k must be >= 0")
    even: dict = {}
    odd: dict = {}
    for pv in enumerate_constrained(k):
        coeff = faa_coefficient(pv)
        sign = 1
        s_exp = pv.p0  # the p0 copies of the underived factor are s^p0
        c_exp = 0
        for i, m in enumerate(pv.p, start=1):
            if m == 0:
                continue
            f = trig_factor(i)
            if f.sign < 0 and m % 2:
                sign = -sign
            s_exp += f.s_exp * m
            c_exp += f.c_exp * m
        coeff *= sign
        # rewrite c^(2t+r) = (1 - s^2)^t * c^r
        t, r = divmod(c_exp, 2)
        target = odd if r else even
        for j in range(t + 1):
            q = coeff * math.comb(t, j) * (-1) ** j
            e = s_exp + 2 * j
            target[e] = target.get(e, Fraction(0)) + q
    return BkSymbolic(k, _trim(even), _trim(odd))


def render_bk(sym: BkSymbolic) -> str:
    """Canonical text, e.g. "(2 - s^2) / (2 s^3)".

    Coefficient denominators are cleared into the s-power denominator; even
    monomials come first, ascending in the s exponent, then the c monomials.
    """
    lcm = 1
    for q in (*sym.even_part, *sym.odd_part):
        lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
    terms = []
    for has_c, poly in ((False, sym.even_part), (True, sym.odd_part)):
        for j, q in enumerate(poly):
            if q:
                terms.append((int(q * lcm), has_c, j))
    if not terms:
        return "0"
    pieces = []
    for idx, (coeff, has_c, j) in enumerate(terms):
        mag = abs(coeff)
        factors = []
        if mag != 1 or (not has_c and j == 0):
            factors.append(str(mag))
        if has_c:
            factors.append("c")
        if j == 1:
            factors.append("s")
        elif j >= 2:
            factors.append(f"s^{j}")
        body = " ".join(factors)
        if idx == 0:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    numerator = " ".join(pieces)
    if len(terms) > 1:
        numerator = f"({numerator})"
    e = sym.denominator_exponent
    s_pow = "s" if e == 1 else f"s^{e}"
    denominator = s_pow if lcm == 1 else f"({lcm} {s_pow})"
    return f"{numerator} / {denominator}"


def _horner(coeffs: tuple, s: BigFixed, ctx: PrecisionContext) -> BigFixed:
    acc = ctx.zero()
    for q in reversed(coeffs):
        acc = acc * s + ctx.from_fraction(q)
    return acc


def bk_eval(k: int, x: Fraction, ctx: PrecisionContext) -> BigFixed:
    """Evaluate the prefactor at a table angle.

    Raises SingularPoint when |B_k(x)| < 10^(-requested_digits/2): at table
    angles the value is an algebraic number, either exactly zero or far above
    that threshold, so the cutoff cleanly separates genuine zeros from
    truncation dust.
    """
    x = Fraction(x)
    if x.denominator == 1:
        raise PoleAtInteger(f"B_{k} undefined at integer x={x}")
    sym = bk_symbolic(k)
    s = radical_eval(sin_pi_rational(x), ctx)
    c = radical_eval(cos_pi_rational(x), ctx)
    num = _horner(sym.even_part, s, ctx) + c * _horner(sym.odd_part, s, ctx)
    value = num / ipow(s, k + 1)
    threshold = ctx.from_fraction(Fraction(1, 10 ** (ctx.requested_digits // 2)))
    if abs(value) < threshold:
        raise SingularPoint(f"B_{k}({x}) vanishes; the power identity degenerates")
    return value
