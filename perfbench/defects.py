"""Known pi-kiln defects, kept in view outside the timed workloads.

    python3 perfbench/defects.py

The timed workloads (workloads.py) contain only requests that verify on the
program as it stands, so every run of them has failed == 0 and a failure is a
regression. The requests below are the ones they leave out because they fail
today. This script serves each once through pi_kiln.cli.main, checks it with
the same mpmath checker, prints its verdict and the count per failure class,
and ends with one JSON line of those counts. It exits 0 whatever the verdicts
are: it reports, it does not gate. When a fix lands, its requests verify here
and can move into a workload.
"""

from __future__ import annotations

import collections
import json
import sys
from fractions import Fraction
from pathlib import Path

import checker
import run
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _pi_power(k, x, digits):
    argv = ("pi-power", "--k", str(k), f"--x={x}", "--digits", str(digits))
    group = "pi-power: k >= 1 at x > 1/4" if 0 < Fraction(x) < 1 else "pi-power: shifted x"
    return group, workloads.Op(argv, digits, ("pi_power", k), True)


def _series(series_id, digits, x=None, a=None):
    argv = ("series", "--id", series_id)
    if x is not None:
        argv += (f"--x={x}",)
    if a is not None:
        argv += (f"--a={a}",)
    argv += ("--digits", str(digits))
    target = {
        "recip-sine": lambda: ("recip_sine", Fraction(x)),
        "cot": lambda: ("cot", Fraction(x)),
        "cot-diff": lambda: ("cot_diff", Fraction(x), Fraction(a)),
        "appendix": lambda: ("pi",),
    }[series_id]()
    group = "recip-sine: shifted x" if series_id == "recip-sine" else f"PoleSum above {workloads.POLESUM_TOP_DIGITS} digits"
    return group, workloads.Op(argv, digits, target, True)


PROBES = (
    # ROADMAP item 1: x outside (0, 1) breaks alternation (even k) or the bound (odd k)
    *(_pi_power(k, x, d) for k, x, d in ((0, "23/10", 305), (1, "14/5", 264), (2, "-17/10", 367),
                                          (3, "-4/3", 128), (5, "23/10", 110), (6, "-7/6", 213))),
    _series("recip-sine", 150, x="6/5"),
    # the power identity's bound misses 10**-digits where B_k(x) is small; near
    # the edge of the region (k = 3 at 3/5, k = 4 at 1/2) only at some digits
    *(_pi_power(k, x, d) for k, x, d in ((3, "3/5", 421), (4, "1/2", 176), (4, "3/5", 152),
                                          (5, "3/4", 200), (6, "2/5", 107), (8, "2/3", 200))),
    # PoleSum bounds stall near 1e-245, whatever the digits asked for
    *(_series("cot", d, x="7/13") for d in (260, 600)),
    *(_series("cot-diff", d, x="7/13", a="-11/9") for d in (260, 600)),
    *(_series("appendix", d) for d in (260, 600)),
)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import pi_kiln.cli

    by_group = collections.defaultdict(collections.Counter)
    for group, op in PROBES:
        _, rc, out, err = run.execute(pi_kiln.cli.main, op.argv)
        failure = checker.verdict(op, rc, out, err) or "verified"
        by_group[group][failure] += 1
        print(f"{failure:<28} pi-kiln {' '.join(op.argv)}")
    totals = collections.Counter()
    for group, counts in by_group.items():
        totals.update(counts)
        print(f"  {group}: " + ", ".join(f"{c}={n}" for c, n in counts.most_common()))
    print(json.dumps({"probes": len(PROBES), "classes": dict(totals.most_common()),
                      "groups": {g: dict(c) for g, c in by_group.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
