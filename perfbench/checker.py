"""Independent checker for pi-kiln CLI output.

Truth comes only from mpmath, evaluated at the requested digits plus
GUARD_DIGITS; nothing here imports pi_kiln, so a change to the package cannot
move the check along with it.

An op is verified when it exits 0, every printed value satisfies
|value - truth| <= printed bound + 10**-digits (the slack covers the
truncated rendering of the value), and, for ops that pick their own N
(`pi-power`, `series`), the printed bound is at most 10**-digits.
`verify` prints no values; it is verified when it exits 0 and its summary
counts every check as passed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

import mpmath

GUARD_DIGITS = 20

DISHONEST = "dishonest bound"
ACCURACY_SHORT = "accuracy short"
UNPARSEABLE = "unparseable output"

# limit of each product catalog entry; euler-wallis-1-q is sin(pi/q)/(pi/q)
_PRODUCT_LIMITS = {
    "wallis": lambda: mpmath.pi / 2,
    "odd-square": lambda: mpmath.pi / 4,
    "viete": lambda: mpmath.pi / 2,
    "euler-zeta2": lambda: mpmath.pi**2 / 6,
    "euler-pi4": lambda: mpmath.pi / 4,
    "nested-exponent": lambda: mpmath.pi / 2,
}

_SUMMARY = re.compile(r"^== summary: (\d+)/(\d+) checks passed ==$")
_KILN_ERROR = re.compile(r"^error: (\w+):", re.MULTILINE)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def truth(target: tuple):
    """The exact value a printed result should equal, at the current mp.dps.

    target is ("pi_power", k) | ("recip_sine", x) | ("cot", x) |
    ("cot_diff", x, a) | ("pi",) | ("product", catalog_id).
    """
    kind = target[0]
    if kind == "pi_power":
        return mpmath.pi ** (target[1] + 1)
    if kind == "pi":
        return +mpmath.pi
    if kind == "recip_sine":
        return mpmath.pi / mpmath.sinpi(_mpf(target[1]))
    if kind == "cot":
        x = _mpf(target[1])
        return mpmath.pi * mpmath.cospi(x) / mpmath.sinpi(x)
    if kind == "cot_diff":
        x, a = _mpf(target[1]), _mpf(target[2])
        return mpmath.pi * (mpmath.cospi(x) / mpmath.sinpi(x) - mpmath.cospi(a) / mpmath.sinpi(a))
    if kind == "product":
        pid = target[1]
        if pid.startswith("euler-wallis-"):
            p, q = pid[len("euler-wallis-"):].split("-")
            x = mpmath.mpf(int(p)) / int(q)
            return mpmath.sinpi(x) / (mpmath.pi * x)
        return _PRODUCT_LIMITS[pid]()
    raise ValueError(f"unknown target {target!r}")


def _printed_pairs(command: str, stdout: str) -> list:
    """(value, bound) strings of every result the command printed."""
    if command == "study":
        text = stdout.strip()
        if text.startswith("["):
            rows = json.loads(text)
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
        pairs = [(row["value"], row["bound"]) for row in rows]
    else:
        lines = stdout.splitlines()
        value = lines[0].rsplit(" = ", 1)[1]
        bounds = [line.split("<= ", 1)[1] for line in lines if line.startswith("error_bound <= ")]
        pairs = [(value, bounds[0])]
    if not pairs:
        raise ValueError("no result printed")
    return pairs


def _verify_verdict(stdout: str):
    lines = stdout.splitlines()
    match = _SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        return UNPARSEABLE
    passed, total = int(match.group(1)), int(match.group(2))
    listed = sum(line.startswith("PASS ") for line in lines)
    if passed != total or listed != total:
        return "verify reported FAIL"
    return None


def breaks_cli_contract(failure: str) -> bool:
    """A traceback, unreadable output or an undocumented exit code, as opposed
    to a wrong or refused result (exit 3, exit 1 from verify, a bound failure)."""
    if failure.startswith("exit "):
        return failure != "exit 1"
    return failure.startswith("traceback:") or failure == UNPARSEABLE


def verdict(op, rc, stdout: str, stderr: str):
    """None when the op is verified, otherwise its failure class.

    rc is the exit code, or the name of an exception that escaped the CLI.
    """
    if isinstance(rc, str):
        return f"traceback:{rc}"
    if rc == 3:
        match = _KILN_ERROR.search(stderr)
        return f"exception:{match.group(1) if match else 'unnamed'}"
    if rc != 0:
        return f"exit {rc}"
    command = op.argv[0]
    if command == "verify":
        return _verify_verdict(stdout)
    try:
        pairs = _printed_pairs(command, stdout)
    except (IndexError, KeyError, ValueError):
        return UNPARSEABLE
    with mpmath.workdps(op.digits + GUARD_DIGITS):
        exact = truth(op.target)
        slack = mpmath.mpf(10) ** -op.digits
        for value_text, bound_text in pairs:
            try:
                value, bound = mpmath.mpf(value_text), mpmath.mpf(bound_text)
            except ValueError:
                return UNPARSEABLE
            if abs(value - exact) > bound + slack:
                return DISHONEST
            if op.exact_digits and bound > slack:
                return ACCURACY_SHORT
    return None
