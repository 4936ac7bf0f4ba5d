"""Seeded request generators for the three benchmark workloads.

Each workload is an endless, deterministic stream of CLI requests built from
(workload, seed) alone; the program only ever sees the generated argv. No
argv repeats within a stream, except `series --id appendix`, which takes only
digits. Request kinds repeat in shuffled fixed cycles, and each kind draws its
digit counts and product sizes from its own seeded golden-ratio (Weyl)
sequence mapped onto the range, so every prefix of a stream covers the range
evenly for every kind and runs of different seeds carry the same mix of work.
alternating-highprec, whose op cost grows steeply with digits, draws its
digits in stratified blocks instead (_Strata), and a run of it stops only at
the end of a block.

Every workload holds only requests that verify on the program today; the
requests that fail are listed in defects.py instead.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

TOP_DIGITS = 3000  # high end of the alternating ladder; 10 000 takes 7-13 s per op
# PoleSum results are correct only to about 245 digits today, so the polesum
# ladder stops short of that; defects.py keeps the ops above it in view
POLESUM_TOP_DIGITS = 220
TABLE_DENOMINATORS = (2, 3, 4, 5, 6, 10)
TABLE_ANGLES = sorted(
    {Fraction(p, q) for q in TABLE_DENOMINATORS for p in range(1, q)}
)  # the table angles in (0, 1)
# pi-power with k >= 1 delivers its digits only where B_k(x) is not small
# against the first paired term; at table angles up to 1/4 the printed bound
# stays below 0.03 * 10**-digits for k = 1..8 (README, "Workload region")
SMALL_ANGLES = tuple(x for x in TABLE_ANGLES if x <= Fraction(1, 4))
CATALOG = (
    "euler-wallis-1-4",
    "euler-wallis-1-2",
    "euler-wallis-1-5",
    "euler-wallis-1-10",
    "euler-wallis-1-3",
    "euler-wallis-1-6",
    "wallis",
    "odd-square",
    "viete",
    "euler-zeta2",
    "euler-pi4",
    "nested-exponent",
)
# product N range per catalog class: quadratic, prime sieve limit, viete, nested
_PRODUCT_N = {"quadratic": (100, 20_000), "prime": (1_000, 1_000_000), "viete": (10, 200), "nested-exponent": (20, 400)}
_STUDY_PRODUCT_N = {"quadratic": (100, 5_000), "prime": (1_000, 100_000), "viete": (10, 200), "nested-exponent": (20, 200)}
_GOLDEN = (math.sqrt(5) - 1) / 2
STRATA = 6  # digit bands per kind in each block of alternating-highprec
STRATUM_JITTER = 0.3  # a draw stays within this share of its band's width of the middle


@dataclass(frozen=True)
class Op:
    """One CLI request and what its printed results must equal."""

    argv: tuple
    digits: int
    target: tuple  # checker.truth() key; ("verify",) for verify suites
    exact_digits: bool  # the op chooses its own N, so its bound must reach 10**-digits
    may_repeat: bool = False  # the request has too few parameters to stay distinct


class _Weyl:
    """Seeded low-discrepancy sequence in [0, 1)."""

    def __init__(self, rng: random.Random) -> None:
        self.u = rng.random()

    def _next(self) -> float:
        self.u = (self.u + _GOLDEN) % 1.0
        return self.u

    def log_uniform(self, lo: int, hi: int) -> int:
        return round(lo * (hi / lo) ** self._next())

    def uniform(self, lo: int, hi: int) -> int:
        return lo + int(self._next() * (hi - lo + 1))


class _Strata:
    """Seeded stratified draws: block b of STRATA draws takes each of STRATA
    equal bands of [0, 1) once, in a seeded order, near the band's middle.

    A cost that grows steeply with the draw then sums to nearly the same
    total over every whole block, whatever the seed.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.orders = {}

    def log_uniform(self, ordinal: int, lo: int, hi: int) -> int:
        block, slot = divmod(ordinal, STRATA)
        if block not in self.orders:
            self.orders = {block: self.rng.sample(range(STRATA), STRATA)}
        u = (self.orders[block][slot] + 0.5 + STRATUM_JITTER * (2 * self.rng.random() - 1)) / STRATA
        return round(lo * (hi / lo) ** u)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _product_class(pid: str) -> str:
    if pid.startswith("euler-wallis") or pid in ("wallis", "odd-square"):
        return "quadratic"
    if pid.startswith("euler-"):
        return "prime"
    return pid


@lru_cache(maxsize=None)
def bk_vanishes(k: int, x: Fraction) -> bool:
    """B_k(x) = csc^(k)(pi x) / k! is zero; there the power identity degenerates."""
    with mpmath.workdps(40):
        value = mpmath.diff(mpmath.csc, mpmath.pi * mpmath.mpf(x.numerator) / x.denominator, k)
        return abs(value) < mpmath.mpf(10) ** -20


def _cycled(rng: random.Random, kinds: tuple):
    """kind(i): position i of a fresh shuffle of `kinds` in every cycle of len(kinds) ops."""
    current = {}

    def kind(i: int):
        cycle = i // len(kinds)
        if cycle not in current:
            order = list(kinds)
            rng.shuffle(order)
            current.clear()
            current[cycle] = order
        return current[cycle][i % len(kinds)]

    return kind


def _shuffled_forever(rng: random.Random, items: tuple):
    """items in a fresh shuffled order in every cycle, without end."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _alternating(rng: random.Random):
    digits = {k: _Strata(rng) for k in range(10)}
    kind = _cycled(rng, tuple(range(10)))  # k = 0..8, and 9 for recip-sine; each once per cycle
    angles = {
        k: _shuffled_forever(rng, tuple(x for x in (SMALL_ANGLES if 1 <= k <= 8 else TABLE_ANGLES)
                                         if k == 9 or not bk_vanishes(k, x)))
        for k in range(10)
    }

    def draw(i: int):
        k = kind(i)
        x = next(angles[k])
        d = digits[k].log_uniform(i // 10, 100, TOP_DIGITS)
        if k == 9:
            return Op(("series", "--id", "recip-sine", f"--x={_frac(x)}", "--digits", str(d)), d, ("recip_sine", x), True)
        return Op(("pi-power", "--k", str(k), f"--x={_frac(x)}", "--digits", str(d)), d, ("pi_power", k), True)

    return draw


def _non_table_rational(rng: random.Random) -> Fraction:
    """A rational in (-2, 3) whose reduced denominator is outside the exact table."""
    while True:
        q = rng.randint(7, 30)
        x = Fraction(rng.randint(-2 * q + 1, 3 * q - 1), q)
        if x.denominator not in (1, *TABLE_DENOMINATORS):
            return x


def _polesum(rng: random.Random):
    series_ids = ("cot", "cot-diff", "appendix")
    digits = {series_id: _Weyl(rng) for series_id in series_ids}
    # appendix takes nothing but digits: it walks every count in a shuffled
    # cycle, and repeats a count only once the whole range is used
    appendix_digits = _shuffled_forever(rng, tuple(range(100, POLESUM_TOP_DIGITS + 1)))
    kind = _cycled(rng, series_ids)

    def draw(i: int):
        series_id = kind(i)
        if series_id == "appendix":
            d = next(appendix_digits)
            return Op(("series", "--id", "appendix", "--digits", str(d)), d, ("pi",), True, may_repeat=True)
        d = digits[series_id].log_uniform(100, POLESUM_TOP_DIGITS)
        x = _non_table_rational(rng)
        if series_id == "cot":
            return Op(("series", "--id", "cot", f"--x={_frac(x)}", "--digits", str(d)), d, ("cot", x), True)
        a = _non_table_rational(rng)
        if a == x:
            return None
        argv = ("series", "--id", "cot-diff", f"--x={_frac(x)}", f"--a={_frac(a)}", "--digits", str(d))
        return Op(argv, d, ("cot_diff", x, a), True)

    return draw


def _study(rng: random.Random, d: int) -> Op:
    kind = rng.choice(("recip-sine", "pi-power", "cot", "cot-diff", "appendix", "product"))
    x = rng.choice(TABLE_ANGLES)
    if kind in ("recip-sine", "pi-power"):
        lo, hi = 4, 120
        if kind == "recip-sine":
            spec, target = f"recip-sine:x={_frac(x)}", ("recip_sine", x)
        else:
            k = rng.randrange(9)
            while bk_vanishes(k, x):
                x = rng.choice(TABLE_ANGLES)
            spec, target = f"pi-power:k={k}:x={_frac(x)}", ("pi_power", k)
    elif kind == "product":
        pid = rng.choice(CATALOG)
        (lo, hi), spec, target = _STUDY_PRODUCT_N[_product_class(pid)], pid, ("product", pid)
    else:
        lo, hi = 16, 3000
        orders = rng.randint(1, 3)
        if kind == "cot":
            spec, target = f"cot:x={_frac(x)}:orders={orders}", ("cot", x)
        elif kind == "cot-diff":
            a = rng.choice([t for t in TABLE_ANGLES if t != x])
            spec, target = f"cot-diff:x={_frac(x)}:a={_frac(a)}:orders={orders}", ("cot_diff", x, a)
        else:
            spec, target = f"appendix:orders={orders}", ("pi",)
    grid = sorted({round(lo * (hi / lo) ** rng.random()) for _ in range(rng.randint(2, 3))})
    fmt = rng.choice(("json", "csv"))
    argv = ("study", "--target", spec, "--grid", ",".join(map(str, grid)), "--format", fmt, "--digits", str(d))
    return Op(argv, d, target, False)


# one catalog cycle: every product once, a few studies, every verify suite once
_CATALOG_CYCLE = (
    *(("product", pid) for pid in CATALOG),
    *(("study", None),) * 5,
    *(("verify", suite) for suite in ("all", "series", "products", "bruno")),
)


def _catalog(rng: random.Random):
    sizes = {cls: _Weyl(rng) for cls in _PRODUCT_N}
    digits = {entry: _Weyl(rng) for entry in _CATALOG_CYCLE}
    kind = _cycled(rng, _CATALOG_CYCLE)

    def draw(i: int):
        command, what = kind(i)
        d = digits[command, what].uniform(20, 120)
        if command == "verify":
            return Op(("verify", "--suite", what, "--digits", str(d)), d, ("verify",), False)
        if command == "study":
            return _study(rng, d)
        cls = _product_class(what)
        n = sizes[cls].log_uniform(*_PRODUCT_N[cls])
        argv = ("product", "--id", what, "--n", str(n), "--digits", str(d))
        if cls == "quadratic":
            argv += ("--correction", rng.choice(("none", "first-order")))
        return Op(argv, d, ("product", what), False)

    return draw


WORKLOADS = {
    "alternating-highprec": _alternating,
    "polesum-highprec": _polesum,
    "catalog-lowprec": _catalog,
}
# ops per cycle (per block of digit bands for alternating-highprec): a run stops
# only at a cycle boundary, so every run carries the same mix
PERIOD = {"alternating-highprec": 10 * STRATA, "polesum-highprec": 3, "catalog-lowprec": len(_CATALOG_CYCLE)}


MAX_REDRAWS = 1000


def stream(workload: str, seed: int):
    """Endless deterministic stream of distinct Ops for (workload, seed); only
    an Op marked may_repeat can recur."""
    rng = random.Random(f"{workload}:{seed}")
    draw = WORKLOADS[workload](rng)
    seen = set()
    for i in itertools.count():
        for _ in range(MAX_REDRAWS):
            op = draw(i)
            if op is not None and (op.may_repeat or op.argv not in seen):
                break
        else:
            raise RuntimeError(f"{workload}: no new request after {MAX_REDRAWS} draws at op {i}")
        seen.add(op.argv)
        yield op
