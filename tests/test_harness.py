"""Oracle integrity, convergence studies, verify suites, CLI plumbing."""

import cmath
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import pi_kiln
from pi_kiln import cli, harness, oracle, products, series
from pi_kiln.errors import UnknownId
from pi_kiln.numerics import BigFixed, PrecisionContext
from pi_kiln.oracle import reference_pi, reference_pi_alt, reference_pi_power
from pi_kiln.series import pi_power_from_series, reciprocal_sine_series

PI_100 = (
    "3."
    "1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
def test_machin_identities_agree(digits):
    ctx = PrecisionContext(digits)
    a = reference_pi(ctx)
    b = reference_pi_alt(ctx)
    assert abs(a - b) <= ctx.ulp() * 4
    assert ctx.render(a) == PI_100[: digits + 2]


def test_fifteen_digits_value():
    ctx = PrecisionContext(15)
    assert ctx.render(reference_pi(ctx)) == "3.141592653589793"


def test_oracle_stable_under_extra_guard_digits():
    a = PrecisionContext(50)
    b = PrecisionContext(60)
    assert a.render(reference_pi(a)) == reference_pi(b).to_decimal(50)


def test_oracle_ties_to_series_pipeline():
    ctx = PrecisionContext(30)
    res = pi_power_from_series(1, Fraction(1, 4), ctx)
    target = reference_pi_power(2, ctx)
    assert abs(res.value - target) <= res.error_bound + ctx.ulp() * 8


def test_pi_power_zero_exponent():
    ctx = PrecisionContext(30)
    assert reference_pi_power(0, ctx) == ctx.one()


def _squaring_loop_pi_power(exponent: int, ctx: PrecisionContext) -> BigFixed:
    """pi**exponent by the oracle's own squaring loop, the form it had before
    it called numerics.ipow."""
    w = ctx.scale + oracle._GUARD_BITS + exponent.bit_length() * 2
    base = BigFixed(oracle._pi_mantissa(w), w)
    result = BigFixed(1 << w, w)
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base
        exponent >>= 1
    return result.rescale_round(ctx.scale)


@pytest.mark.parametrize("digits", [1, 5, 20, 57, 120, 300, 1000])
def test_pi_power_matches_squaring_loop(digits):
    ctx = PrecisionContext(digits)
    for exponent in range(20):
        assert reference_pi_power(exponent, ctx) == _squaring_loop_pi_power(exponent, ctx)
    with pytest.raises(ValueError):
        reference_pi_power(-1, ctx)


# ---------------------------------------------------------------------------
# derivative oracle duplicate (package side)
# ---------------------------------------------------------------------------


def test_harness_derivative_oracle_hand_checked():
    for x in (0.25, 1 / 3):
        s, c = math.sin(math.pi * x), math.cos(math.pi * x)
        d1 = -math.pi * c / s**2
        assert abs(harness.derivative_oracle(x, 1) - d1) / abs(d1) < 1e-10


def _derivative_oracle_per_call(x, k):
    # the oracle recomputing its 128 samples on every call
    dist = min(x - math.floor(x), math.ceil(x) - x)
    radius = 0.6 * dist
    acc = 0j
    for j in range(128):
        th = 2.0 * math.pi * j / 128
        z = x + radius * cmath.exp(1j * th)
        acc += (1.0 / cmath.sin(math.pi * z)) * cmath.exp(-1j * th * k)
    return math.factorial(k) * (acc / 128).real / radius**k


def test_derivative_oracle_shared_samples_bit_identical():
    # the samples are computed once per x; every float must stay the same
    for x in (1 / 4, 1 / 3, 1 / 6):
        for k in range(1, 9):
            assert harness.derivative_oracle(x, k) == _derivative_oracle_per_call(x, k), (x, k)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def test_study_appendix_strictly_decreasing():
    rows = harness.convergence_study("appendix:orders=1", [100, 1000, 10000], PrecisionContext(30))
    errs = [float(r.abs_error) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert [r.n for r in rows] == [100, 1000, 10000]


def test_study_viete_error_ratio():
    rows = harness.convergence_study("viete", [5, 10, 20], PrecisionContext(30))
    errs = [float(r.abs_error) for r in rows]
    # ratio ~ 4^(-d_m) within a factor of 10
    for (r1, e1), (r2, e2) in zip(
        zip(rows, errs), list(zip(rows, errs))[1:]
    ):
        predicted = 4.0 ** (r2.n - r1.n)
        assert predicted / 10 <= e1 / e2 <= predicted * 10


def test_study_empty_grid():
    assert harness.convergence_study("viete", [], PrecisionContext(30)) == []


def test_study_evaluates_the_limit_once(monkeypatch):
    """A product study evaluates its oracle limit once, and every row through catalog_eval."""
    calls = {"radical_eval": 0, "catalog_eval": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(products, "radical_eval", counted("radical_eval", products.radical_eval))
    catalog_eval = counted("catalog_eval", products.catalog_eval)
    for module in (products, harness):
        monkeypatch.setattr(module, "catalog_eval", catalog_eval)
    rows = harness.convergence_study("euler-wallis-1-5", [100, 200, 400, 800], PrecisionContext(40))
    assert len(rows) == 4
    assert calls == {"radical_eval": 1, "catalog_eval": 4}


def test_study_rows_respect_bounds():
    rows = harness.convergence_study("euler-wallis-1-2", [512, 1024], PrecisionContext(30))
    for r in rows:
        assert float(r.abs_error) <= float(r.bound)


def test_study_pi_power_target():
    rows = harness.convergence_study("pi-power:k=1:x=1/4", [20, 40], PrecisionContext(30))
    errs = [float(r.abs_error) for r in rows]
    assert errs[1] < errs[0]
    assert rows[0].params == {"k": "1", "x": "1/4"}


@pytest.mark.parametrize(
    "k, x, n, method",
    [
        (0, "1/4", 12, "accelerated"),
        (2, "1/4", 30, "accelerated"),
        (3, "1/6", 45, "accelerated"),
        (5, "1/10", 60, "accelerated"),
        (1, "1/4", 40, "direct"),
        (None, "1/3", 20, "accelerated"),
        (None, "1/4", 50, "direct"),
    ],
)
def test_study_rows_match_public_functions(k, x, n, method):
    """A study row prints what the public series function returns for N = n."""
    ctx = PrecisionContext(30)
    if k is None:
        target = f"recip-sine:x={x}:method={method}"
        res = reciprocal_sine_series(Fraction(x), ctx, method, n_terms=n)
    else:
        target = f"pi-power:k={k}:x={x}:method={method}"
        res = pi_power_from_series(k, Fraction(x), ctx, method, n_terms=n)
    (row,) = harness.convergence_study(target, [n], ctx)
    assert row.value == ctx.render(res.value)
    assert row.bound == res.error_bound.to_scientific()
    if k is not None:
        with mpmath.workdps(60):
            err = abs(mpmath.mpf(row.value) - mpmath.pi ** (k + 1))
            assert err <= mpmath.mpf(row.bound) + mpmath.mpf(10) ** -30


def test_study_unknown_target():
    with pytest.raises(UnknownId):
        harness.convergence_study("nonsense", [10], PrecisionContext(30))
    with pytest.raises(UnknownId):
        harness.convergence_study("cot", [10], PrecisionContext(30))  # missing x
    with pytest.raises(UnknownId):
        harness.convergence_study("cot:x=abc", [10], PrecisionContext(30))  # malformed param


def test_study_serializers_deterministic(monkeypatch):
    rows = harness.convergence_study("appendix:orders=1", [64, 128], PrecisionContext(30))
    j1 = harness.study_to_json(rows)
    c1 = harness.study_to_csv(rows)
    rows2 = harness.convergence_study("appendix:orders=1", [64, 128], PrecisionContext(30))
    assert harness.study_to_json(rows2) == j1
    assert harness.study_to_csv(rows2) == c1
    # timing column only on request
    assert "elapsed_ms" not in j1
    assert "elapsed_ms" in harness.study_to_json(rows, include_timing=True)
    parsed = json.loads(j1)
    assert parsed[0]["n"] == 64
    assert c1.splitlines()[0] == "formula_id,params,n,value,abs_error,bound"


def test_study_identical_across_runs():
    r1 = harness.study_to_csv(harness.convergence_study("viete", [4, 8, 12], PrecisionContext(30)))
    r2 = harness.study_to_csv(harness.convergence_study("viete", [4, 8, 12], PrecisionContext(30)))
    assert r1 == r2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_series_suite_passes(monkeypatch):
    sums = []
    accelerate = series.accelerated_alternating_sum
    monkeypatch.setattr(
        series, "accelerated_alternating_sum", lambda *args: sums.append(1) or accelerate(*args)
    )
    report, ok = harness.verify("series", 20)
    assert ok
    assert "FAIL" not in report
    # 4 recip-sine, 14 pi-power and one sum per derivative-identity check
    assert len(sums) == 21


def test_verify_unknown_suite():
    with pytest.raises(UnknownId):
        harness.verify("nope", 20)


def test_verify_deterministic_across_runs():
    r1, ok1 = harness.verify("bruno", 20)
    r2, ok2 = harness.verify("bruno", 20)
    assert ok1 and ok2
    assert r1 == r2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_pi_power(capsys):
    rc = cli.main(["pi-power", "--k", "0", "--x", "1/4", "--digits", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("pi^1 = 3.14159265358979323846")


def test_cli_bk(capsys):
    rc = cli.main(["bk", "--k", "2"])
    assert rc == 0
    assert "(2 - s^2) / (2 s^3)" in capsys.readouterr().out


def test_cli_series_appendix(capsys):
    rc = cli.main(["series", "--id", "appendix", "--digits", "15"])
    assert rc == 0
    assert "3.141592653589793" in capsys.readouterr().out


def test_cli_product(capsys):
    rc = cli.main(["product", "--id", "wallis", "--n", "100", "--digits", "15"])
    assert rc == 0
    assert "limit: pi/2" in capsys.readouterr().out


def test_cli_product_beyond_int_str_limit(capsys):
    rc = cli.main(["product", "--id", "viete", "--n", "10", "--digits", "4301"])
    assert rc == 0
    value = capsys.readouterr().out.splitlines()[0].split(" = ")[1]
    assert len(value.split(".")[1]) == 4301


def test_cli_verify_exit_codes(capsys):
    rc = cli.main(["verify", "--suite", "bruno", "--digits", "15"])
    assert rc == 0
    assert "== summary:" in capsys.readouterr().out


def test_cli_numeric_error_exit_3(capsys):
    rc = cli.main(["series", "--id", "cot", "--x", "4", "--digits", "15"])
    assert rc == 3
    assert "PoleAtInteger" in capsys.readouterr().err


def test_cli_singular_exit_3(capsys):
    rc = cli.main(["pi-power", "--k", "1", "--x", "1/2", "--digits", "15"])
    assert rc == 3
    assert "SingularPoint" in capsys.readouterr().err


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["product", "--id", "not-a-product", "--n", "5", "--digits", "15"])
    assert exc.value.code == 2


def test_cli_study_csv(capsys):
    rc = cli.main(
        ["study", "--target", "viete", "--grid", "4,8", "--format", "csv", "--digits", "15"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "formula_id,params,n,value,abs_error,bound"
    assert len(lines) == 3


def test_cli_fourier_check(capsys):
    rc = cli.main(["fourier-check", "--alpha", "0.25", "--nmax", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_abs_diff" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        ("pi-power --k 0 --x 1/4 --digits 0", 2),
        ("series --id recip-sine --x 1/3 --digits -5", 2),
        ("verify --suite bruno --digits 0", 2),
        ("product --id wallis --n 10 --digits 0", 2),
        ("pi-power --k -1 --x 1/4 --digits 10", 2),
        ("bk --k -1", 2),
        ("fourier-check --alpha 0.25 --nmax -1", 2),
        ("study --target pi-power:k=-1:x=1/4 --grid 10", 3),
        ("study --target cot:x=1/3:orders=-1 --grid 20", 3),
        ("study --target recip-sine:x=1/4:method=bogus --grid 10", 3),
        ("study --target wallis:correction=bogus --grid 10", 3),
        ("study --target euler-wallis-1-4:correction=bogus --grid 10", 3),
        ("product --id wallis --n 0 --digits 10", 3),
        ("product --id odd-square --n 0 --digits 10", 3),
        ("study --target wallis --grid 0", 3),
        ("study --target recip-sine:x=1/4 --grid 0", 3),
        ("study --target recip-sine:x=1/4:k=3 --grid 20", 3),
        ("study --target cot:x=1/3:method=direct --grid 20", 3),
        ("study --target appendix:foo=bar --grid 20", 3),
        ("study --target viete:correction=none --grid 5", 3),
        ("study --target appendix:orders=2 --grid 0,9 --format csv --digits 15", 3),
        ("series --id cot --x 1/3 --a 1/4 --digits 10", 2),
        ("series --id appendix --x 1/3 --digits 10", 2),
        ("product --id viete --n 10 --correction none --digits 10", 2),
        ("study --target cot --grid ''", 3),
        ("series --id cot --x 1/3 --digits 300", 3),
        ("pi-power --k 4 --x 3/5 --digits 152", 3),
    ],
)
def test_cli_invalid_input_exit_code(argv, code, capsys):
    try:
        rc = cli.main(shlex.split(argv))
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert "Traceback" not in capsys.readouterr().err


def test_cli_accuracy_short_prints_no_value(capsys):
    # the pole sum's bound stalls near 1e-320, so 1 000 digits are refused
    rc = cli.main(["series", "--id", "cot", "--x", "1/3", "--digits", "1000"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: AccuracyShort: error bound 1.67e-320")


def _serve_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(shlex.split(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _serve_in_fresh_process(argv):
    src = str(Path(pi_kiln.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "pi_kiln", *shlex.split(argv)], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def test_cli_shared_parser_keeps_no_state(monkeypatch):
    # one parser serves every request of a process: a request served after
    # others prints what it prints in a fresh process, usage errors included
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
    sequence = [
        "series --id nope --digits 5",
        "pi-power --k 2 --x 1/4 --digits 20",
        "series --id appendix --digits 15",
        "product --list",
        "series --id cot --x 1/3 --digits 15",
    ]
    served = [_serve_in_process(argv) for argv in sequence]
    assert [rc for rc, _, _ in served] == [2, 0, 0, 0, 0]
    assert served == [_serve_in_fresh_process(argv) for argv in sequence]
    # nothing of an earlier parse reaches a later namespace
    cli.build_parser().parse_args(shlex.split(sequence[1]))
    args = cli.build_parser().parse_args(shlex.split(sequence[2]))
    assert (args.id, args.x, args.a) == ("appendix", None, None)
    assert not hasattr(args, "k")


def test_cli_missing_param_usage(capsys):
    rc = cli.main(["series", "--id", "cot-diff", "--x", "1/4", "--digits", "15"])
    assert rc == 2

