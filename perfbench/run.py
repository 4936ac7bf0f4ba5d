"""pi-kiln benchmark: verified results per second on seeded CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every request goes in-process through
pi_kiln.cli.main(argv) with stdout captured, one request at a time (a closed
loop with one client), and every printed result is checked against mpmath
(see checker.py). Each measured pass runs in a fresh interpreter, so set-up
and cache warm-up are paid the same way on every commit. The workloads hold
only requests that verify on the program today, so any failed op makes the
run's `correct` false.

--trace 0 measures for S seconds of op time (at least MIN_OPS ops) and reports
the end-to-end metrics. The gated throughput, verified_ops_per_kref, counts
each op's time in units of a fixed reference loop timed around it, which
cancels the speed drift of a shared machine. --trace 1 runs the first MIN_OPS ops twice, untraced
and traced, and reports the per-layer metrics of the traced pass plus the
tracing overhead. The last stdout line is one JSON object; the lines above it
and perfbench/results/ hold the full report.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checker
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_OPS = 100  # fixed prefix of every run: digest-comparable, >= 10 ops beyond p90
SETUP_RUNS = 21
REF_LOOPS = 100_000  # the reference loop; about 8 ms on a 2-core x86 sandbox
DEADLINE_S = 170  # the whole run, all passes included, ends within this
PASS_CAP_S = 120  # a timed pass stops at the next op once its wall time passes this
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import pi_kiln.cli; pi_kiln.cli.build_parser(); print(time.perf_counter() - start)"
)


# ---------------------------------------------------------------------------
# One pass over a workload (runs in its own interpreter)
# ---------------------------------------------------------------------------


def execute(main, argv):
    """Run one CLI request; returns (seconds, exit code or exception name, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the loop must go on; the class is recorded
            rc = type(exc).__name__
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def nearest_rank(sorted_values, share):
    return sorted_values[max(math.ceil(share * len(sorted_values)) - 1, 0)]


def slope(points):
    """Least-squares slope of log(seconds) against log(digits)."""
    xs = [math.log(d) for d, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else None


class Record(NamedTuple):
    argv: str
    digits: int
    seconds: float  # wall time of the cli.main call
    failure: str | None  # None when verified
    returned: bool  # exited 0, so it printed a value
    ref_s: float  # the reference loop's time around this op (mean of before and after)


def reference_seconds() -> float:
    """Time of a fixed pure-Python integer loop that shares nothing with pi_kiln."""
    start = time.perf_counter()
    total = 0
    for j in range(REF_LOOPS):
        total += j * j
    return time.perf_counter() - start


def run_pass(workload, seed, seconds, count, tracer=None):
    """Serve requests until `count` ops, or until `seconds` of op time and MIN_OPS
    ops have passed and the workload's cycle is complete.

    The reference loop runs before every op and once after the last, so each
    op's time can be expressed in reference-loop units of the same moment.
    """
    import pi_kiln.cli

    main = tracer.wrap("cli.main", pi_kiln.cli.main) if tracer else pi_kiln.cli.main
    period = workloads.PERIOD[workload]
    digest_prefix, digest_all = hashlib.sha256(), hashlib.sha256()
    ops, refs = [], [reference_seconds()]
    op_time = 0.0
    started = time.monotonic()
    for index, op in enumerate(workloads.stream(workload, seed)):
        if count is not None and index >= count:
            break
        if count is None and (
            (index >= MIN_OPS and op_time >= seconds and index % period == 0)
            or time.monotonic() - started > PASS_CAP_S
        ):
            break
        if tracer:
            tracer.op = index
        elapsed, rc, out, err = execute(main, op.argv)
        refs.append(reference_seconds())
        op_time += elapsed
        failure = checker.verdict(op, rc, out, err)
        chunk = f"$ pi-kiln {' '.join(op.argv)}\n{out}".encode()
        digest_all.update(chunk)
        if index < MIN_OPS:
            digest_prefix.update(chunk)
        ops.append((" ".join(op.argv), op.digits, elapsed, failure, rc == 0))
    records = [Record(*fields, (refs[i] + refs[i + 1]) / 2) for i, fields in enumerate(ops)]
    return records, digest_prefix.hexdigest(), digest_all.hexdigest()


def _json_number(value):
    return "inf" if value == math.inf else value


def summarize(records, highprec):
    attempted = len(records)
    op_time = sum(r.seconds for r in records)
    ref_units = sum(r.seconds / r.ref_s for r in records)
    failures = collections.Counter(r.failure for r in records if r.failure is not None)
    failed = sum(failures.values())
    latencies = sorted(r.seconds if r.failure is None else math.inf for r in records)
    beyond_p90 = attempted - math.ceil(0.9 * attempted)
    by_command = collections.defaultdict(lambda: [0, 0, 0.0])
    for r in records:
        row = by_command[r.argv.split(" ", 1)[0]]
        row[0] += 1
        row[1] += r.failure is None
        row[2] += r.seconds
    summary = {
        "attempted": attempted,
        "failed": failed,
        "op_time_s": op_time,
        "verified_ops_per_s": (attempted - failed) / op_time,
        "verified_ops_per_kref": 1000 * (attempted - failed) / ref_units,
        "ref_s_median": statistics.median(r.ref_s for r in records),
        "op_s_p50": _json_number(nearest_rank(latencies, 0.5)),
        "op_s_p90": _json_number(nearest_rank(latencies, 0.9)) if beyond_p90 >= 10 else None,
        "ops_beyond_p90": beyond_p90,
        "fail_frac": failed / attempted,
        "failures": dict(failures.most_common()),
        "failed_share_s": sum(r.seconds for r in records if r.failure is not None) / op_time,
        "by_command": {c: {"attempted": a, "verified": v, "op_time_s": t} for c, (a, v, t) in by_command.items()},
        "contract_breaks": sum(n for c, n in failures.items() if checker.breaks_cli_contract(c)),
        "ops": [r._asdict() for r in records],
    }
    if highprec:
        returned = [(r.digits, r.seconds) for r in records if r.returned]
        summary["time_digits_slope"] = slope(returned) if len(returned) >= 2 else None
        summary["slope_ops"] = len(returned)
    return summary


def child(args):
    sys.path.insert(0, str(SRC))
    count = None if args.pass_ == "timed" else MIN_OPS
    highprec = args.workload.endswith("highprec")
    if args.pass_ == "traced":
        with tracing.Tracer() as tracer:
            records, prefix, full = run_pass(args.workload, args.seed, args.seconds, count, tracer)
        summary = summarize(records, highprec)
        summary["layers"] = tracer.layer_metrics()
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        summary["spans_file"] = str(spans.relative_to(ROOT))
    else:
        records, prefix, full = run_pass(args.workload, args.seed, args.seconds, count)
        summary = summarize(records, highprec)
    summary["stdout_sha256_prefix"] = prefix
    summary["stdout_sha256_all"] = full
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(summary))


# ---------------------------------------------------------------------------
# The run: set-up timing, passes in fresh interpreters, report
# ---------------------------------------------------------------------------


def spawn(args, pass_, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--pass", pass_]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=deadline - time.monotonic())
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: {pass_} pass failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(deadline):
    """Median time for a fresh interpreter to import pi_kiln.cli and build the parser."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], cwd=ROOT, capture_output=True,
                              text=True, timeout=deadline - time.monotonic(), check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def _fmt(value, unit):
    if value is None:
        return "undefined"
    if value == "inf":
        return f"inf {unit}"
    return f"{value:.6g} {unit}"


def report_lines(args, summary):
    yield f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
    n = summary["attempted"]
    rows = [
        ("verified_ops_per_s", summary["verified_ops_per_s"], "ops/s",
         f"{n - summary['failed']} verified of {n} attempted in {summary['op_time_s']:.3f} s of op time"),
        ("verified_ops_per_kref", summary["verified_ops_per_kref"], "ops/kref",
         f"the same in units of 1000 reference loops; reference loop median {summary['ref_s_median'] * 1e3:.3f} ms"),
        ("op_s_p50", summary["op_s_p50"], "s", f"n={n}; failed ops count as inf"),
        ("op_s_p90", summary["op_s_p90"], "s", f"n={n}; {summary['ops_beyond_p90']} ops beyond p90"),
        ("fail_frac", summary["fail_frac"], "share", f"{summary['failed']}/{n}"),
    ]
    if "time_digits_slope" in summary:
        rows.append(("time_digits_slope", summary["time_digits_slope"], "log s/log digit",
                     f"n={summary['slope_ops']} ops that returned a value"))
    if "setup_s" in summary:
        rows.append(("setup_s", summary["setup_s"], "s", f"median of {SETUP_RUNS} fresh interpreters"))
    rows.append(("peak_rss_mb", summary["peak_rss_mb"], "MB", "ru_maxrss of the pass"))
    for name, value, unit, note in rows:
        yield f"  {name:<20} {_fmt(value, unit):<22} ({note})"
    failures = ", ".join(f"{c}={k}" for c, k in summary["failures"].items()) or "none"
    yield f"  failures: {failures}"
    for command, row in summary["by_command"].items():
        yield f"  {command:<9} {row['verified']}/{row['attempted']} verified, {row['op_time_s']:.3f} s"
    yield f"  stdout sha256, first {MIN_OPS} ops: {summary['stdout_sha256_prefix']}"
    yield f"  stdout sha256, all {n} ops: {summary['stdout_sha256_all']}"


def orchestrate(args):
    if not (SRC / "pi_kiln" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no pi_kiln sources under {SRC}; run from a full checkout")
    # SIGTERM unwinds through subprocess.run, which then kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        untraced = spawn(args, "fixed", deadline)
        summary = spawn(args, "traced", deadline)
        correct = summary["stdout_sha256_all"] == untraced["stdout_sha256_all"]
        metrics = dict(summary["layers"])
        metrics["cli.main.failed_share_s"] = summary["failed_share_s"]
        metrics["bench.traced_vps_ratio"] = summary["verified_ops_per_kref"] / untraced["verified_ops_per_kref"]
        summary["untraced_verified_ops_per_kref"] = untraced["verified_ops_per_kref"]
        summary["traced_matches_untraced"] = correct
        units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
    else:
        summary = spawn(args, "timed", deadline)
        summary["setup_s"] = setup_seconds(deadline)
        correct = True
        units = {"verified_ops_per_kref": "ops/kref", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: summary[name] for name in units}
    # the workloads hold only requests that verify today (defects.py has the rest)
    correct = correct and summary["failed"] == 0
    for line in report_lines(args, summary):
        print(line)
    if args.trace:
        print(f"  tracing overhead: traced/untraced verified_ops_per_kref = {metrics['bench.traced_vps_ratio']:.4f}")
        for name, value in metrics.items():
            print(f"  {name:<44} {value:.6g} {units[name]}")
    RESULTS.mkdir(exist_ok=True)
    report = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary.update(workload=args.workload, seed=args.seed, trace=args.trace, correct=correct, metrics=metrics)
    report.write_text(json.dumps(summary, indent=2, default=str) + "\n")
    print(f"  report: {report.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_", choices=("timed", "fixed", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.pass_:
        child(args)
    else:
        orchestrate(args)


if __name__ == "__main__":
    main()
