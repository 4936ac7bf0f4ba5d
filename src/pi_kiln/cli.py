"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 numeric/domain error (pole, singular point, unsupported angle, a series
whose error bound cannot reach 10^-digits, ...).

The parser is built once per process and serves every request: argparse
keeps no state between parses (each parse starts a fresh namespace, defaults
come from set_defaults, and sys.stdout, sys.stderr and the terminal width are
read when something is printed), so output does not depend on what was
parsed before.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import harness, series
from .bruno import bk_eval, bk_symbolic, render_bk
from .errors import AccuracyShort, KilnError
from .fourier import fourier_partial_sum, residual_table
from .numerics import PrecisionContext
from .products import CATALOG, CORRECTIONS, catalog_ids


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_digits = _at_least(1)
_non_negative = _at_least(0)


def _grid(text: str) -> list:
    try:
        return [int(piece) for piece in text.split(",") if piece]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid: {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pi-kiln",
        description="High-precision series and infinite-product evaluation of powers of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi-power", help="pi^(k+1) from the alternating reciprocal-power series")
    p.add_argument("--k", type=_non_negative, required=True)
    p.add_argument("--x", type=_fraction, required=True, metavar="p/q")
    p.add_argument("--digits", type=_digits, required=True)
    p.add_argument("--method", choices=series.METHODS, default="accelerated")
    p.set_defaults(run=_cmd_series, id="pi-power")

    p = sub.add_parser("bk", help="closed form (and value) of the series prefactor")
    p.add_argument("--k", type=_non_negative, required=True)
    p.add_argument("--x", type=_fraction, default=None, metavar="p/q")
    p.add_argument("--digits", type=_digits, default=30)
    p.set_defaults(run=_cmd_bk)

    p = sub.add_parser("series", help="evaluate one of the series identities")
    p.add_argument("--id", choices=[i for i in harness.SERIES if i != "pi-power"], required=True)
    p.add_argument("--x", type=_fraction, default=None, metavar="p/q")
    p.add_argument("--a", type=_fraction, default=None, metavar="p/q")
    p.add_argument("--digits", type=_digits, required=True)
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("product", help="evaluate a catalog product")
    p.add_argument("--id", choices=catalog_ids())
    p.add_argument("--n", type=int)
    corrections = [c.replace("_", "-") for c in CORRECTIONS]
    p.add_argument("--correction", choices=corrections)
    p.add_argument("--digits", type=_digits)
    p.add_argument("--list", action="store_true", help="list the catalog and exit")
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser("study", help="convergence study over a grid of N")
    p.add_argument("--target", required=True, metavar="id[:key=value...]")
    p.add_argument("--grid", type=_grid, required=True, metavar="n1,n2,...")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--digits", type=_digits, default=30)
    p.add_argument("--timing", action="store_true", help="include elapsed_ms (non-deterministic)")
    p.set_defaults(run=_cmd_study)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=harness.SUITES, required=True)
    p.add_argument("--digits", type=_digits, required=True)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("fourier-check", help="closed-form coefficients vs quadrature")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--nmax", type=_non_negative, required=True)
    p.set_defaults(run=_cmd_fourier_check)

    return parser


def _cmd_series(args) -> int:
    spec = harness.SERIES[args.id]
    names = ("k", "x", "a", "method")
    params = {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}
    if any(name not in params for name in spec.needs):
        needed = " and ".join(f"--{name}" for name in spec.needs)
        verb = "is" if len(spec.needs) == 1 else "are"
        print(f"error: {needed} {verb} required for {args.id}", file=sys.stderr)
        return 2
    for name in params:
        if name not in spec.needs + spec.options:
            print(f"error: {args.id} takes no --{name}", file=sys.stderr)
            return 2
    ctx = PrecisionContext(args.digits)
    res = spec.evaluate(params, ctx, None)
    # bound > 10^-digits, compared exactly
    if res.error_bound.mantissa * 10**args.digits > 1 << ctx.scale:
        raise AccuracyShort(
            f"error bound {res.error_bound.to_scientific()} is above 10^-{args.digits}"
        )
    print(f"{spec.label(params)} = {ctx.render(res.value)}")
    print(f"error_bound <= {res.error_bound.to_scientific()}")
    print(f"terms_used = {res.terms_used}")
    print(f"method = {res.method}")
    return 0


def _cmd_bk(args) -> int:
    sym = bk_symbolic(args.k)
    print(f"B_{args.k} = {render_bk(sym)}")
    if args.x is not None:
        ctx = PrecisionContext(args.digits)
        value = bk_eval(args.k, args.x, ctx)
        print(f"B_{args.k}({args.x}) = {ctx.render(value)}")
    return 0


def _cmd_product(args) -> int:
    if args.list:
        for spec in CATALOG.values():
            print(f"{spec.id}: {spec.description}")
            print(f"    limit = {spec.limit_expr}   [{spec.convergence_class}]")
        return 0
    if args.id is None or args.n is None or args.digits is None:
        print("error: --id, --n and --digits are required (or use --list)", file=sys.stderr)
        return 2
    spec = CATALOG[args.id]
    if args.correction is not None and "correction" not in spec.options:
        print(f"error: {args.id} takes no --correction", file=sys.stderr)
        return 2
    params = {} if args.correction is None else {"correction": args.correction}
    ctx = PrecisionContext(args.digits)
    res = spec.evaluate(params, ctx, args.n)
    limit = spec.limit(params, ctx)
    print(f"{args.id} [n={res.factors_used}, corrected={res.corrected}] = {ctx.render(res.value)}")
    print(f"limit: {spec.limit_expr} = {ctx.render(limit)}")
    print(f"abs_error = {abs(res.value - limit).to_scientific()}")
    print(f"error_bound <= {res.error_bound.to_scientific()}")
    print(f"class = {spec.convergence_class}")
    return 0


def _cmd_study(args) -> int:
    ctx = PrecisionContext(args.digits)
    rows = harness.convergence_study(args.target, args.grid, ctx)
    if args.format == "json":
        print(harness.study_to_json(rows, include_timing=args.timing))
    else:
        print(harness.study_to_csv(rows, include_timing=args.timing), end="")
    return 0


def _cmd_verify(args) -> int:
    report, ok = harness.verify(args.suite, args.digits)
    print(report, end="")
    return 0 if ok else 1


def _cmd_fourier_check(args) -> int:
    rows = residual_table(args.alpha, args.nmax)
    print("n closed quadrature abs_diff")
    for n, closed, quad, diff in rows:
        print(f"{n} {closed:.15e} {quad:.15e} {diff:.3e}")
    worst = max(row[3] for row in rows)
    print(f"max_abs_diff = {worst:.3e}")
    limit = fourier_partial_sum(args.alpha, 0.0, max(args.nmax * 100, 1000))
    print(f"partial_sum_at_zero(n={max(args.nmax * 100, 1000)}) = {limit:.12f} (limit 1)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KilnError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
