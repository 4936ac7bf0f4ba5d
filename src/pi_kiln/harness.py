"""Comparison harness: independent oracle, convergence studies, verify suites.

Study rows and verify output are deterministic by construction: values come
from pure fixed-point computations, rows are emitted in grid order, and the
wall-clock column is opt-in so default output is byte-identical across runs.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, NamedTuple

from . import numerics, series
from .bruno import bk_eval, bk_symbolic, render_bk
from .errors import SingularPoint, UnknownId
from .exact import cos_pi_rational, radical_eval, sin_pi_rational
from .numerics import BigFixed, PrecisionContext
from .oracle import limit_context, reference_pi, reference_pi_power
from .partitions import enumerate_constrained
from .products import (
    EULER_WALLIS_POINTS,
    catalog_eval,
    catalog_limit,
    catalog_spec,
    correction_of,
    euler_wallis,
    functional_equation_check,
    golden_ratio_check,
)

PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


# ---------------------------------------------------------------------------
# Derivative oracle (double precision, Cauchy circle) for the verify suite
# ---------------------------------------------------------------------------


@functools.cache
def _cauchy_samples(x: float) -> tuple:
    """The circle radius around x and the 128 pairs (theta_j, 1/sin(pi z_j))."""
    dist = min(x - math.floor(x), math.ceil(x) - x)
    radius = 0.6 * dist
    samples = []
    for j in range(128):
        th = 2.0 * math.pi * j / 128
        z = x + radius * cmath.exp(1j * th)
        samples.append((th, 1.0 / cmath.sin(math.pi * z)))
    return radius, tuple(samples)


def derivative_oracle(x: float, k: int) -> float:
    """k-th derivative of 1/sin(pi t) at x from a 128-point Cauchy-circle sum.

    Complex double arithmetic only; shares nothing with the partition or
    symbolic machinery it is used to check.  The samples depend on x alone,
    so each x computes them once per process.
    """
    radius, samples = _cauchy_samples(x)
    acc = 0j
    for th, f in samples:
        acc += f * cmath.exp(-1j * th * k)
    return math.factorial(k) * (acc / 128).real / radius**k


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    formula_id: str
    params: dict
    n: int
    value: str
    abs_error: str
    bound: str
    elapsed_ms: float


# target parameters that are not plain strings
_PARAM_TYPES = {"k": int, "orders": int, "x": Fraction, "a": Fraction}


def _parse_target(target: str) -> tuple:
    parts = target.split(":")
    formula_id = parts[0].strip()
    params: dict = {}
    for piece in parts[1:]:
        if not piece:
            continue
        key, _, raw = piece.partition("=")
        key = key.strip()
        raw = raw.strip()
        try:
            params[key] = _PARAM_TYPES.get(key, str)(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise UnknownId(f"bad target parameter {piece!r}") from exc
    if params.get("k", 0) < 0 or params.get("orders", 0) < 0:
        raise UnknownId("target parameters k and orders must be >= 0")
    if params.get("method", "accelerated") not in series.METHODS:
        raise UnknownId(f"unknown method {params['method']!r}")
    correction_of(params)  # refuses an unknown correction
    return formula_id, params


def convergence_study(target: str, grid, ctx: PrecisionContext):
    """Evaluate a SERIES or catalog target over an ascending grid of N; rows in
    grid order.  The limit is evaluated once, after the first row's refusals."""
    formula_id, params = _parse_target(target)
    spec = SERIES[formula_id] if formula_id in SERIES else catalog_spec(formula_id)
    for key in params:
        if key not in spec.needs + spec.options:
            raise UnknownId(f"target {formula_id!r} takes no parameter {key!r}")
    for name in spec.needs:
        if name not in params:
            raise UnknownId(f"target {formula_id!r} requires {name}=<p/q>")
    shown = {key: str(value) for key, value in params.items()}
    if "orders" in spec.options:
        params = {"orders": 1, **params}  # a study defaults to one Euler-Maclaurin order
    limit = functools.cache(lambda: spec.limit(params, ctx))

    def row(n: int) -> StudyRow:
        start = time.perf_counter()
        res = spec.evaluate(params, ctx, n)
        elapsed = (time.perf_counter() - start) * 1000.0
        return StudyRow(
            formula_id=formula_id,
            params=shown,
            n=n,
            value=ctx.render(res.value),
            abs_error=abs(res.value - limit()).to_scientific(),
            bound=res.error_bound.to_scientific(),
            elapsed_ms=round(elapsed, 3),
        )

    return [row(n) for n in grid]


def _columns(include_timing: bool) -> list:
    """StudyRow's fields, without the opt-in elapsed_ms unless asked for."""
    return [f.name for f in fields(StudyRow) if include_timing or f.name != "elapsed_ms"]


def study_to_json(rows, include_timing: bool = False) -> str:
    names = _columns(include_timing)
    return json.dumps([{name: getattr(r, name) for name in names} for r in rows], indent=2)


def _csv_cell(value) -> str:
    if isinstance(value, dict):  # params
        return ";".join(f"{k}={v}" for k, v in value.items())
    return str(value)


def study_to_csv(rows, include_timing: bool = False) -> str:
    names = _columns(include_timing)
    lines = [names, *([_csv_cell(getattr(r, name)) for name in names] for r in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Series identities and their oracle targets
# ---------------------------------------------------------------------------


def reciprocal_sine_target(x: Fraction, ctx: PrecisionContext) -> BigFixed:
    """pi / sin(pi x) from the oracle and the exact table."""
    wctx = limit_context(ctx)
    s = radical_eval(sin_pi_rational(x), wctx)
    return (reference_pi(wctx) / s).rescale(ctx.scale)


def cotangent_target(x: Fraction, ctx: PrecisionContext) -> BigFixed:
    """pi cos(pi x)/sin(pi x) from the oracle and the exact table."""
    wctx = limit_context(ctx)
    s = radical_eval(sin_pi_rational(x), wctx)
    c = radical_eval(cos_pi_rational(x), wctx)
    return (reference_pi(wctx) * c / s).rescale(ctx.scale)


class SeriesSpec(NamedTuple):
    """A series identity: the parameters it needs and those it may take,
    evaluate(params, ctx, n) by its public series function (N and the orders
    are its own choice unless n or params["orders"] is set), limit and label."""

    needs: tuple
    options: tuple
    evaluate: Callable
    limit: Callable
    label: Callable


# in the order the CLI lists them; pi-power has its own subcommand
SERIES = {
    "recip-sine": SeriesSpec(
        ("x",),
        ("method",),
        lambda p, ctx, n: series.reciprocal_sine_series(
            p["x"], ctx, p.get("method", "accelerated"), n
        ),
        lambda p, ctx: reciprocal_sine_target(p["x"], ctx),
        lambda p: f"pi/sin(pi*{p['x']})",
    ),
    "cot": SeriesSpec(
        ("x",),
        ("orders",),
        lambda p, ctx, n: series.cotangent_series(p["x"], ctx, n, p.get("orders")),
        lambda p, ctx: cotangent_target(p["x"], ctx),
        lambda p: f"pi*cot(pi*{p['x']})",
    ),
    "cot-diff": SeriesSpec(
        ("x", "a"),
        ("orders",),
        lambda p, ctx, n: series.cot_difference_series(p["x"], p["a"], ctx, n, p.get("orders")),
        lambda p, ctx: cotangent_target(p["x"], ctx) - cotangent_target(p["a"], ctx),
        lambda p: f"pi*cot(pi*{p['x']}) - pi*cot(pi*{p['a']})",
    ),
    "appendix": SeriesSpec(
        (),
        ("orders",),
        lambda p, ctx, n: series.appendix_pi_series(ctx, n, p.get("orders")),
        lambda p, ctx: reference_pi(ctx),
        lambda p: "appendix-pi",
    ),
    "pi-power": SeriesSpec(
        ("x",),
        ("k", "method"),
        lambda p, ctx, n: series.pi_power_from_series(
            p.get("k", 0), p["x"], ctx, p.get("method", "accelerated"), n
        ),
        lambda p, ctx: reference_pi_power(p.get("k", 0) + 1, ctx),
        lambda p: f"pi^{p.get('k', 0) + 1}",
    ),
}


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    residual: str
    bound: str
    passed: bool


def _check(check_id: str, residual: BigFixed, bound: BigFixed) -> CheckResult:
    return CheckResult(
        check_id, residual.to_scientific(), bound.to_scientific(), residual <= bound
    )


def _check_float(check_id: str, residual: float, bound: float) -> CheckResult:
    return CheckResult(check_id, f"{residual:.3e}", f"{bound:.3e}", residual <= bound)


def _series_checks(ctx: PrecisionContext):
    checks = []
    pi = reference_pi(ctx)
    x_points = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))
    cases = [
        *(("recip-sine", {"x": x}) for x in x_points),
        *(("cot", {"x": x}) for x in x_points),
        *(("pi-power", {"k": k, "x": x}) for x in x_points[::2] for k in range(7)),  # 1/4, 1/6
    ]
    for series_id, params in cases:
        spec = SERIES[series_id]
        check_id = series_id + "".join(f"-{key}={value}" for key, value in params.items())
        try:
            res = spec.evaluate(params, ctx, None)
        except SingularPoint:
            checks.append(CheckResult(check_id, "singular", "singular", True))
            continue
        residual = abs(res.value - spec.limit(params, ctx))
        checks.append(_check(check_id, residual, res.error_bound + ctx.ulp() * 16))
    res = series.appendix_pi_series(ctx)
    checks.append(_check("appendix-pi", abs(res.value - pi), res.error_bound + ctx.ulp() * 16))
    res = series.cot_difference_series(Fraction(1, 4), Fraction(1, 2), ctx)
    checks.append(
        _check("cot-diff-1/4-1/2", abs(res.value - pi), res.error_bound + ctx.ulp() * 16)
    )
    for k in (0, 1, 2):
        s_res, wctx, s_w, b = series._power_identity(k, Fraction(1, 4), ctx)
        residual = abs(s_w - numerics.ipow(reference_pi(wctx), k + 1) * b).rescale(ctx.scale)
        bk_slack = abs(reference_pi_power(k + 1, ctx)).mul_fraction(
            Fraction(3 * k + 64, 1 << ctx.scale)
        )
        checks.append(
            _check(
                f"derivative-identity-k={k}",
                residual,
                s_res.error_bound * 4 + bk_slack + ctx.ulp() * 64,
            )
        )
    return checks


def _products_checks(ctx: PrecisionContext):
    checks = []
    pi = reference_pi(ctx)
    for x, _ in EULER_WALLIS_POINTS:
        res = euler_wallis(x, 4000, "first_order", ctx)
        s = radical_eval(sin_pi_rational(x), ctx)
        lhs = res.value * pi.mul_fraction(x)
        slack = pi.mul_fraction(x) * res.error_bound + ctx.ulp() * 64
        checks.append(_check(f"euler-wallis-x={x}", abs(lhs - s), slack))
    res = catalog_eval("viete", 60, ctx)
    checks.append(_check("viete-60", abs(res.value - pi / 2), res.error_bound + ctx.ulp() * 16))
    res = catalog_eval("euler-zeta2", 10**6, ctx)
    target = reference_pi_power(2, ctx) / 6
    checks.append(_check("euler-zeta2-1e6", abs(res.value - target), ctx.from_fraction(Fraction(1, 10**6))))
    residual = golden_ratio_check(10**4, ctx)
    checks.append(_check("golden-ratio-1e4", residual, ctx.from_fraction(Fraction(1, 10**6))))
    res = catalog_eval("euler-pi4", 10**6, ctx)
    checks.append(
        _check("euler-pi4-1e6", abs(res.value - pi / 4), ctx.from_fraction(Fraction(1, 10**5)))
    )
    res = catalog_eval("nested-exponent", 200, ctx)
    checks.append(
        _check("nested-exponent-200", abs(res.value - pi / 2), ctx.from_fraction(Fraction(1, 50)))
    )
    for pid in ("wallis", "odd-square"):
        limit = catalog_limit(pid, ctx)
        res = catalog_eval(pid, 4096, ctx)
        checks.append(_check(f"{pid}-4096", abs(res.value - limit), res.error_bound))
    fe_ctx = PrecisionContext(50)
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 10)):
        residual = functional_equation_check(x, fe_ctx)
        checks.append(_check(f"functional-eq-x={x}", residual, fe_ctx.ulp() * 8))
    return checks


def _bruno_checks(ctx: PrecisionContext):
    checks = []
    counts_ok = all(
        len(enumerate_constrained(k)) == PARTITION_COUNTS[k] for k in range(13)
    )
    checks.append(CheckResult("partition-counts-k<=12", "0" if counts_ok else "1", "0", counts_ok))
    goldens = {0: "1 / s", 1: "-c / s^2", 2: "(2 - s^2) / (2 s^3)"}
    for k, text in goldens.items():
        got = render_bk(bk_symbolic(k))
        ok = got == text
        checks.append(CheckResult(f"bk-symbolic-{k}", "match" if ok else repr(got), "golden", ok))
    v = bk_eval(2, Fraction(1, 4), ctx)
    expected = numerics.sqrt(ctx.from_int(2)) * 3 / 2
    checks.append(_check("bk-eval-2-1/4", abs(v - expected), ctx.ulp() * 64))
    try:
        bk_eval(1, Fraction(1, 2), ctx)
        checks.append(CheckResult("bk-singular-1-1/2", "no-error", "SingularPoint", False))
    except SingularPoint:
        checks.append(CheckResult("bk-singular-1-1/2", "SingularPoint", "SingularPoint", True))
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 6)):
        worst = 0.0
        for k in range(1, 9):
            oracle = derivative_oracle(float(x), k) / (math.pi**k * math.factorial(k))
            got = bk_eval(k, x, ctx).to_float()
            worst = max(worst, abs(got - oracle) / abs(oracle))
        checks.append(_check_float(f"derivative-oracle-x={x}", worst, 1e-5))
    return checks


_SUITES = {
    "series": _series_checks,
    "products": _products_checks,
    "bruno": _bruno_checks,
}
SUITES = ("all", *_SUITES)


def verify(suite: str, digits: int) -> tuple:
    """Run a verification suite; returns (report_text, all_passed).

    Output is byte-identical across runs: check order is fixed and no timing
    information is included.
    """
    if suite not in SUITES:
        raise UnknownId(f"unknown suite {suite!r}")
    names = list(_SUITES) if suite == "all" else [suite]
    ctx = PrecisionContext(digits)
    lines = []
    total = passed = 0
    for name in names:
        checks = _SUITES[name](ctx)
        lines.append(f"== suite: {name} (digits={digits}) ==")
        for c in checks:
            total += 1
            passed += c.passed
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"{tag} {c.check_id} residual={c.residual} bound={c.bound}")
    lines.append(f"== summary: {passed}/{total} checks passed ==")
    return "\n".join(lines) + "\n", passed == total
