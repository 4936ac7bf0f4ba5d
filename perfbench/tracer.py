"""Per-layer tracing of pi-kiln from outside the package.

A Tracer replaces every module attribute (or class attribute) that binds a
traced function with a wrapper that counts calls and measures self time: a
span's duration minus the time covered by traced spans it caused on the same
thread. Counters live per thread, so the harness's worker threads never race
on them. Spans of the coarse layers are kept in memory (span id, parent id,
op index, name, thread, start and end in ns) and written out by the caller;
the hot leaf functions (BigFixed arithmetic, paired terms, pole terms) are
only counted, which keeps a run's span list small.

Under the harness's thread pool, a worker thread's outermost traced call is
a child of the call that is open on the tracing thread (the one that entered
the Tracer), which waits in `harness.verify` or `harness.convergence_study`
meanwhile. Workers overlap in time, so the parent subtracts the union of
their intervals, not their sum.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _operand_bits(args, kwargs, result) -> int:
    fixed, q = args[0], args[1]
    return fixed.mantissa.bit_length() + q.numerator.bit_length() + q.denominator.bit_length()


def _terms(args, kwargs, result) -> int:
    return result.terms_used


def _factors(args, kwargs, result) -> int:
    return result.factors_used


def _ctx_digits(position):
    def digits(args, kwargs, result) -> int:
        ctx = args[position] if len(args) > position else kwargs["ctx"]
        return ctx.requested_digits

    return digits


# (metric prefix, module, class or None, attributes bound to the function,
#  extra stats {name: fn(args, kwargs, result)}, record spans)
TARGETS = (
    ("numerics.mul_fraction", "numerics", "BigFixed", ("mul_fraction",), {"bits": _operand_bits}, False),
    ("numerics.from_fraction", "numerics", "PrecisionContext", ("from_fraction",), {}, False),
    ("numerics.mul", "numerics", "BigFixed", ("__mul__", "__rmul__"), {}, False),
    ("numerics.div", "numerics", "BigFixed", ("__truediv__",), {}, False),
    ("numerics.ln", "numerics", None, ("ln",), {}, False),
    ("numerics.exp", "numerics", None, ("exp",), {}, False),
    ("numerics.sqrt", "numerics", None, ("sqrt",), {}, False),
    ("numerics.render", "numerics", "PrecisionContext", ("render",), {}, False),
    (
        "series.accelerated_alternating_sum",
        "series",
        None,
        ("accelerated_alternating_sum",),
        {"terms": _terms, "digits": _ctx_digits(1)},
        True,
    ),
    (
        "series.positive_series_sum",
        "series",
        None,
        ("positive_series_sum",),
        {"terms": _terms, "digits": _ctx_digits(2)},
        True,
    ),
    ("series.pole_term", "series", "PoleSum", ("term",), {}, False),
    ("series.tail_integral", "series", "PoleSum", ("tail_integral",), {}, True),
    ("series.pole_derivative", "series", "PoleSum", ("derivative",), {}, False),
    ("bruno.bk_eval", "bruno", None, ("bk_eval",), {}, True),
    ("bruno.bk_symbolic", "bruno", None, ("bk_symbolic",), {}, True),
    ("exact.radical_eval", "exact", None, ("radical_eval",), {}, True),
    ("partitions.enumerate_constrained", "partitions", None, ("enumerate_constrained",), {}, True),
    ("oracle.reference_pi", "oracle", None, ("reference_pi",), {}, True),
    ("oracle.reference_pi_power", "oracle", None, ("reference_pi_power",), {}, True),
    ("products.catalog_eval", "products", None, ("catalog_eval",), {"factors": _factors}, True),
    ("products.prime_sieve", "products", None, ("prime_sieve",), {}, True),
    ("harness.verify", "harness", None, ("verify",), {}, True),
    ("harness.convergence_study", "harness", None, ("convergence_study",), {}, True),
)
PAIR = "series.pair"  # the closure each alternating_power_stream builds
MAIN = "cli.main"

# every per-layer metric a traced run reports: name -> (unit, better)
METRICS = {}
for _prefix, _module, _cls, _attrs, _extras, _span in TARGETS:
    METRICS[f"{_prefix}.calls"] = ("count", "lower")
    METRICS[f"{_prefix}.self_s"] = ("s", "lower")
    for _name in _extras:
        if _name != "digits":  # only feeds series.terms_per_digit
            METRICS[f"{_prefix}.{_name}"] = ("bit" if _name == "bits" else "count", "lower")
    if _prefix == "bruno.bk_symbolic":
        METRICS[f"{_prefix}.misses"] = ("count", "lower")
for _prefix in (PAIR, MAIN):
    METRICS[f"{_prefix}.calls"] = ("count", "lower")
    METRICS[f"{_prefix}.self_s"] = ("s", "lower")
METRICS["series.terms_per_digit"] = ("terms/digit", "lower")
METRICS["cli.main.failed_share_s"] = ("s/s", "lower")
METRICS["bench.traced_vps_ratio"] = ("ratio", "higher")


class Tracer:
    """Installs wrappers on enter and restores every original on exit."""

    def __init__(self) -> None:
        self.op = None  # index of the request being served; shared by its spans
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._thread_stats = []
        self._register = threading.Lock()
        self._patches = []
        self._bk_symbolic = None
        self._bk_misses = 0
        self._main_stack = None  # the tracing thread's open frames

    # -- wrappers -----------------------------------------------------------

    def _stats(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = {}
            with self._register:
                self._thread_stats.append(local.stats)
        return local.stack, local.stats

    def _parent_frame(self, stack):
        """Innermost open frame that caused a call on this thread, or None."""
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def wrap(self, name: str, fn, extras=None, span: bool = True):
        extras = extras or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = self._stats()
            sid = next(self._ids) if span else 0
            caller = self._parent_frame(stack)
            parent = caller[1] if caller else 0
            frame = [0, sid or parent, []]  # child ns on this thread, id, other threads' child intervals
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                elif caller is not None:
                    caller[2].append((start, end))
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = {"calls": 0, "self_ns": 0}
                entry["calls"] += 1
                entry["self_ns"] += elapsed - frame[0] - _covered(frame[2])
                if span:
                    self.spans.append((sid, parent, self.op, name, threading.get_ident(), start, end))
            for stat, measure in extras.items():
                entry[stat] = entry.get(stat, 0) + measure(args, kwargs, result)
            return result

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "pi_kiln" or modname.startswith("pi_kiln."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, replacement)

    def _set(self, owner, key, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        import pi_kiln.cli  # noqa: F401  (loads every traced module)

        modules = sys.modules
        self._main_stack = self._stats()[0]
        self._bk_symbolic = modules["pi_kiln.bruno"].bk_symbolic  # the lru_cache, for misses
        for prefix, module, cls, attrs, extras, span in TARGETS:
            owner = modules[f"pi_kiln.{module}"]
            if cls is None:
                original = getattr(owner, attrs[0])
                self._replace_everywhere(original, self.wrap(prefix, original, extras, span))
            else:
                klass = getattr(owner, cls)
                wrapper = self.wrap(prefix, klass.__dict__[attrs[0]], extras, span)
                for attr in attrs:
                    self._set(klass, attr, wrapper)
        series = modules["pi_kiln.series"]
        make_stream = series.alternating_power_stream

        def traced_stream(k, x):
            stream = make_stream(k, x)
            return dataclasses.replace(stream, pair=self.wrap(PAIR, stream.pair, span=False))

        self._replace_everywhere(make_stream, traced_stream)
        self._bk_misses = self._bk_symbolic.cache_info().misses
        return self

    def __exit__(self, *exc) -> None:
        self._bk_misses = self._bk_symbolic.cache_info().misses - self._bk_misses
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """name -> summed stats over every thread."""
        merged = {}
        with self._register:
            for stats in self._thread_stats:
                for name, entry in stats.items():
                    into = merged.setdefault(name, {})
                    for stat, value in entry.items():
                        into[stat] = into.get(stat, 0) + value
        return merged

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the two the caller measures."""
        totals = self.totals()
        out = {}
        for name in METRICS:
            prefix, stat = name.rsplit(".", 1)
            entry = totals.get(prefix, {})
            if stat == "self_s":
                value = entry.get("self_ns", 0) / 1e9
            else:
                value = entry.get(stat, 0)
            out[name] = value
        out["bruno.bk_symbolic.misses"] = self._bk_misses
        engines = [totals.get(p, {}) for p in ("series.accelerated_alternating_sum", "series.positive_series_sum")]
        digits = sum(e.get("digits", 0) for e in engines)
        out["series.terms_per_digit"] = sum(e.get("terms", 0) for e in engines) / digits if digits else 0
        del out["cli.main.failed_share_s"], out["bench.traced_vps_ratio"]
        return out
