"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pi_kiln import cli, numerics  # noqa: E402


def _serve(argv, digits, target, exact_digits):
    op = workloads.Op(tuple(argv), digits, target, exact_digits)
    _, rc, out, err = run.execute(cli.main, op.argv)
    assert rc == 0, err
    return op, out


def _replace_line(out, prefix, new_line):
    return "\n".join(new_line if line.startswith(prefix) else line for line in out.splitlines()) + "\n"


def test_checker_accepts_true_results():
    op, out = _serve(["pi-power", "--k", "2", "--x=1/4", "--digits", "50"], 50, ("pi_power", 2), True)
    assert checker.verdict(op, 0, out, "") is None
    op, out = _serve(["product", "--id", "wallis", "--n", "100", "--digits", "30"], 30, ("product", "wallis"), False)
    assert checker.verdict(op, 0, out, "") is None


def test_checker_rejects_a_tampered_digit():
    op, out = _serve(["pi-power", "--k", "2", "--x=1/4", "--digits", "50"], 50, ("pi_power", 2), True)
    first = out.splitlines()[0]
    position = len(first) - 20  # a digit well above the last printed place
    digit = first[position]
    tampered = first[:position] + ("0" if digit != "0" else "1") + first[position + 1:]
    assert checker.verdict(op, 0, out.replace(first, tampered), "") == checker.DISHONEST


def test_checker_rejects_a_bound_below_the_true_error():
    # 100 Wallis factors leave an error near 1e-3; claim 1e-9 instead
    op, out = _serve(
        ["product", "--id", "wallis", "--n", "100", "--correction", "none", "--digits", "30"], 30,
        ("product", "wallis"), False,
    )
    assert checker.verdict(op, 0, _replace_line(out, "error_bound", "error_bound <= 1.00e-09"), "") == checker.DISHONEST


def test_checker_rejects_a_series_bound_above_the_requested_accuracy():
    op, out = _serve(["series", "--id", "cot", "--x=7/13", "--digits", "30"], 30, ("cot", Fraction(7, 13)), True)
    assert checker.verdict(op, 0, out, "") is None
    loose = _replace_line(out, "error_bound", "error_bound <= 1.00e-25")
    assert checker.verdict(op, 0, loose, "") == checker.ACCURACY_SHORT


def test_checker_classifies_exits_and_verify_reports():
    op = workloads.Op(("verify", "--suite", "bruno", "--digits", "30"), 30, ("verify",), False)
    _, rc, out, err = run.execute(cli.main, op.argv)
    assert checker.verdict(op, rc, out, err) is None
    failing = out.replace("PASS bk-symbolic-0", "FAIL bk-symbolic-0")
    assert checker.verdict(op, 0, failing, "") == "verify reported FAIL"
    shifted = workloads.Op(("pi-power", "--k", "0", "--x=9/4", "--digits", "30"), 30, ("pi_power", 0), True)
    _, rc, out, err = run.execute(cli.main, shifted.argv)
    assert checker.verdict(shifted, rc, out, err) == "exception:NonAlternating"


def _prefix(workload, seed, n):
    ops = workloads.stream(workload, seed)
    return [next(ops) for _ in range(n)]


def test_generator_is_deterministic_and_never_repeats_a_request():
    for workload in workloads.WORKLOADS:
        first = _prefix(workload, 7, 300)
        assert first == _prefix(workload, 7, 300)
        assert first != _prefix(workload, 8, 300)
        assert len({op.argv for op in first}) == len(first)


def test_only_appendix_repeats_and_only_after_its_whole_range():
    span = workloads.POLESUM_TOP_DIGITS - 100 + 1
    ops = _prefix("polesum-highprec", 7, 3 * span + 60)
    appendix = [op.digits for op in ops if op.argv[2] == "appendix"]
    assert len(appendix) > span
    assert sorted(appendix[:span]) == list(range(100, workloads.POLESUM_TOP_DIGITS + 1))
    others = [op.argv for op in ops if op.argv[2] != "appendix"]
    assert len(set(others)) == len(others)


def _x(op):
    return Fraction(next(a for a in op.argv if a.startswith("--x="))[len("--x="):])


def test_workloads_stay_where_the_program_verifies():
    for op in _prefix("alternating-highprec", 3, 400):
        x = _x(op)
        assert 0 < x < 1 and 100 <= op.digits <= workloads.TOP_DIGITS
        if op.argv[0] == "pi-power":
            k = int(op.argv[2])
            assert k == 0 or x <= Fraction(1, 4)
            assert not workloads.bk_vanishes(k, x)
    for op in _prefix("polesum-highprec", 3, 400):
        assert 100 <= op.digits <= workloads.POLESUM_TOP_DIGITS


def test_traced_and_untraced_runs_print_the_same_stdout():
    original = numerics.BigFixed.mul_fraction
    for workload, count in (("alternating-highprec", 8), ("catalog-lowprec", 25)):
        _, _, untraced = run.run_pass(workload, 5, None, count)
        with tracer.Tracer() as t:
            _, _, traced = run.run_pass(workload, 5, None, count, t)
        assert traced == untraced
        assert t.layer_metrics()["numerics.mul_fraction.calls"] > 0
    assert numerics.BigFixed.mul_fraction is original  # every wrapper was removed


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == tracer.METRICS


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-lowprec", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
