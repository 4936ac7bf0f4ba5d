"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from pi_kiln import harness, numerics
from pi_kiln.bruno import bk_eval, bk_symbolic, render_bk
from pi_kiln.errors import SingularPoint
from pi_kiln.exact import radical_eval, sin_pi_rational
from pi_kiln.fourier import fourier_coefficient, fourier_coefficient_by_quadrature, fourier_partial_sum
from pi_kiln.numerics import PrecisionContext
from pi_kiln.oracle import reference_pi, reference_pi_alt, reference_pi_power
from pi_kiln.partitions import enumerate_constrained
from pi_kiln.products import catalog_eval, catalog_limit, euler_wallis, golden_ratio_check, viete
from pi_kiln.series import (
    alternating_power_sum,
    appendix_pi_series,
    cot_difference_series,
    cotangent_series,
    pi_power_from_series,
    reciprocal_sine_series,
)

from _oracles import kth_derivative_cauchy


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {tag}{suffix}")


def test_criterion_1_oracle_integrity():
    start = time.perf_counter()
    ctx = PrecisionContext(100)
    a = reference_pi(ctx)
    b = reference_pi_alt(ctx)
    agree = ctx.render(a) == ctx.render(b) and abs(a - b) <= ctx.ulp() * 4
    elapsed = time.perf_counter() - start
    ok = agree and elapsed < 5.0
    _report("1 oracle-integrity", ok, f"100-digit agreement, {elapsed:.3f}s")
    assert agree
    assert elapsed < 5.0


def test_criterion_2_section1_identities():
    ctx = PrecisionContext(30)
    tol = ctx.from_fraction(Fraction(1, 10**30))
    pi = reference_pi(ctx)
    sqrt2 = numerics.sqrt(ctx.from_int(2))
    sqrt3 = numerics.sqrt(ctx.from_int(3))
    recip_targets = {
        Fraction(1, 4): pi * sqrt2,
        Fraction(1, 3): (pi * sqrt3).mul_fraction(Fraction(2, 3)),  # 2 pi / sqrt 3
        Fraction(1, 6): pi * 2,
        Fraction(1, 2): pi,
    }
    cot_targets = {
        Fraction(1, 4): pi,
        Fraction(1, 3): (pi * sqrt3).mul_fraction(Fraction(1, 3)),  # pi / sqrt 3
        Fraction(1, 6): pi * sqrt3,
        Fraction(1, 2): ctx.zero(),
    }
    ok = True
    details = []
    slack = ctx.ulp() * 16  # target assembly truncation
    for x, target in recip_targets.items():
        t0 = time.perf_counter()
        res = reciprocal_sine_series(x, ctx, method="accelerated")
        dt = time.perf_counter() - t0
        err = abs(res.value - target)
        good = err <= tol and err <= res.error_bound + slack and dt < 1.0
        ok &= good
        details.append(f"recip {x}:{dt:.3f}s")
        assert good, (x, ctx.render(err))
    for x, target in cot_targets.items():
        t0 = time.perf_counter()
        res = cotangent_series(x, ctx)
        dt = time.perf_counter() - t0
        err = abs(res.value - target)
        good = err <= tol and err <= res.error_bound + slack and dt < 1.0
        ok &= good
        details.append(f"cot {x}:{dt:.3f}s")
        assert good, (x, ctx.render(err))
    _report("2 reciprocal-sine and cotangent identities", ok, "; ".join(details))


def test_criterion_3_pi_power_identities():
    ctx = PrecisionContext(30)
    tol = ctx.from_fraction(Fraction(1, 10**25))
    ok = True
    for x in (Fraction(1, 4), Fraction(1, 6)):
        for k in range(0, 7):
            try:
                res = pi_power_from_series(k, x, ctx)
            except SingularPoint:
                # a genuine zero of the prefactor must be reported, not forced
                val = bk_symbolic(k).eval_float(
                    math.sin(math.pi * float(x)), math.cos(math.pi * float(x))
                )
                assert abs(val) < 1e-9, f"spurious singularity at k={k}, x={x}"
                continue
            target = reference_pi_power(k + 1, ctx)
            good = abs(res.value - target) <= tol
            ok &= good
            assert good, (k, x)
    _report("3 pi^(k+1) series identity, k=0..6, x in {1/4, 1/6}", ok)


def test_criterion_4_golden_forms_and_sign_regression():
    ok = render_bk(bk_symbolic(0)) == "1 / s"
    sym2 = bk_symbolic(2)
    ok &= sym2.even_part == (Fraction(1), Fraction(0), Fraction(-1, 2)) and not sym2.odd_part
    ok &= render_bk(sym2) == "(2 - s^2) / (2 s^3)"
    sym1 = bk_symbolic(1)
    ok &= sym1.odd_part == (Fraction(-1),) and not sym1.even_part
    # sign regression: the identity holds with B_1 = -c/s^2 and fails flipped
    ctx = PrecisionContext(30)
    wctx = PrecisionContext(36)
    s = alternating_power_sum(1, Fraction(1, 4), ctx).value.rescale(wctx.scale)
    b = bk_eval(1, Fraction(1, 4), wctx)
    pi2 = reference_pi_power(2, wctx)
    good_residual = abs(-s - pi2 * b).to_float()
    flipped_residual = abs(-s + pi2 * b).to_float()
    ok &= good_residual < 1e-25 and flipped_residual > 1.0
    _report(
        "4 golden symbolic forms + sign regression",
        ok,
        f"residual {good_residual:.1e}, flipped {flipped_residual:.1f}",
    )
    assert ok


def test_criterion_5_partition_machinery():
    expected_counts = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)
    ok = True
    for k in range(0, 13):
        got = {v.p for v in enumerate_constrained(k)}
        if k == 0:
            oracle = {tuple()}
        else:
            axes = [range(0, k // i + 1) for i in range(1, k + 1)]
            oracle = {
                p
                for p in itertools.product(*axes)
                if sum(i * m for i, m in enumerate(p, start=1)) == k and sum(p) <= k
            }
        ok &= got == oracle and len(got) == expected_counts[k]
        assert ok, f"k={k}"
    _report("5 partition enumeration vs brute-force oracle, k<=12", ok)


def test_criterion_6_finite_difference_check():
    ctx = PrecisionContext(30)
    ok = True
    worst = 0.0
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 6)):
        for k in range(1, 9):
            oracle = kth_derivative_cauchy(float(x), k) / (math.pi**k * math.factorial(k))
            got = bk_eval(k, x, ctx).to_float()
            rel = abs(got - oracle) / abs(oracle)
            worst = max(worst, rel)
            ok &= rel <= 1e-5
            assert rel <= 1e-5, (k, x, rel)
    _report("6 derivative-oracle agreement, k<=8", ok, f"worst rel {worst:.2e}")


def test_criterion_7_products():
    ctx = PrecisionContext(30)
    ctx40 = PrecisionContext(40)
    pi = reference_pi(ctx)
    details = []

    res = euler_wallis(Fraction(1, 2), 10**4, "first_order", ctx)
    err = abs(res.value - ctx.from_int(2) / pi).to_float()
    ok = err <= 1e-8
    details.append(f"ew(1/2,1e4) {err:.1e}")
    assert ok

    # calibrated fixture: corrected instances at N=1e4 land below 2e-13
    for x in (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 5),
        Fraction(1, 10),
        Fraction(1, 3),
        Fraction(1, 6),
    ):
        res = euler_wallis(x, 10**4, "first_order", ctx)
        s = radical_eval(sin_pi_rational(x), ctx)
        target = s / pi.mul_fraction(x)
        err = abs(res.value - target).to_float()
        good = err <= 2e-13 and err <= res.error_bound.to_float()
        ok &= good
        assert good, (x, err)

    r = golden_ratio_check(10**4, ctx).to_float()
    ok &= r <= 1e-6
    details.append(f"phi {r:.1e}")
    assert r <= 1e-6

    res = catalog_eval("euler-zeta2", 10**6, ctx)
    err = abs(res.value - reference_pi_power(2, ctx) / 6).to_float()
    ok &= err <= 1e-6
    details.append(f"zeta2 {err:.1e}")
    assert err <= 1e-6

    res = viete(60, ctx40)
    err = abs(res.value - reference_pi(ctx40) / 2).to_float()
    ok &= err <= 1e-30
    details.append(f"viete {err:.1e}")
    assert err <= 1e-30

    # calibrated C/N envelopes (C frozen from oracle runs: 0.393 and 0.197)
    for pid, c_env in (("wallis", 0.5), ("odd-square", 0.3)):
        limit = catalog_limit(pid, ctx)
        for n in (1000, 4000):
            err = abs(catalog_eval(pid, n, ctx, correction="none").value - limit).to_float()
            ok &= err <= c_env / n
            assert err <= c_env / n, (pid, n)

    # demo-class: tolerances frozen by calibration (1.7e-6 observed; 9.7e-3 observed)
    err = abs(catalog_eval("euler-pi4", 10**6, ctx).value - pi / 4).to_float()
    ok &= err <= 1e-5
    details.append(f"pi4 {err:.1e}")
    assert err <= 1e-5
    err = abs(catalog_eval("nested-exponent", 200, ctx).value - pi / 2).to_float()
    ok &= err <= 2e-2
    details.append(f"nested {err:.1e}")
    assert err <= 2e-2

    _report("7 product catalog", ok, "; ".join(details))


def test_criterion_8_appendix():
    ctx = PrecisionContext(30)
    pi = reference_pi(ctx)
    res = appendix_pi_series(ctx, n_direct=10**4, tail_orders=2)
    err = abs(res.value - pi).to_float()
    ok = err <= 1e-8
    assert err <= 1e-8

    ctx25 = PrecisionContext(25)
    res = cot_difference_series(Fraction(1, 4), Fraction(1, 2), ctx25)
    err25 = abs(res.value - reference_pi(ctx25)).to_float()
    ok &= err25 <= 1e-20
    assert err25 <= 1e-20
    _report("8 appendix series + cotangent difference", ok, f"{err:.1e}; {err25:.1e}")


def test_criterion_9_fourier():
    ok = True
    worst = 0.0
    for alpha in (0.25, 1 / 3, 0.7):
        for n in range(0, 51):
            closed = fourier_coefficient(alpha, n).value
            quad = fourier_coefficient_by_quadrature(alpha, n)
            worst = max(worst, abs(closed - quad))
    ok &= worst <= 1e-10
    assert worst <= 1e-10
    # bracketing partial sums at x=0 for alpha in (0, 1/2)
    for alpha in (0.25, 0.4):
        prev = fourier_partial_sum(alpha, 0.0, 0)
        for n in range(1, 40):
            cur = fourier_partial_sum(alpha, 0.0, n)
            assert min(prev, cur) <= 1.0 <= max(prev, cur)
            prev = cur
    _report("9 fourier coefficients + bracketing", ok, f"worst coeff diff {worst:.1e}")


def test_criterion_10_determinism():
    start = time.perf_counter()
    r1, ok1 = harness.verify("all", 30)
    r2, ok2 = harness.verify("all", 30)
    elapsed = time.perf_counter() - start
    ok = ok1 and ok2 and r1 == r2 and elapsed < 120.0
    _report(
        "10 verify determinism across runs",
        ok,
        f"byte-identical, both passing, {elapsed:.2f}s",
    )
    assert r1 == r2
    assert ok1 and ok2
    assert elapsed < 120.0
