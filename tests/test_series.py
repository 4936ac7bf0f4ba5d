"""Series identities against the independent pi oracle."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pi_kiln import numerics, series
from pi_kiln.errors import CoincidentPoints, NonAlternating, OutOfRange, PoleAtInteger, SingularPoint
from pi_kiln.exact import radical_eval, sin_pi_rational, sqrt_expr
from pi_kiln.numerics import PrecisionContext
from pi_kiln.oracle import reference_pi, reference_pi_power
from pi_kiln.series import (
    APPENDIX_POLES,
    _bernoulli_ratio,
    PairedTermStream,
    PoleSum,
    accelerated_alternating_sum,
    alternating_power_stream,
    alternating_power_sum,
    appendix_pi_series,
    cot_difference_poles,
    cotangent_poles,
    cot_difference_series,
    cotangent_series,
    derivative_identity_check,
    direct_alternating_sum,
    pi_power_from_series,
    positive_series_sum,
    reciprocal_sine_series,
)

CTX = PrecisionContext(30)


def sqrt_int(n: int, ctx: PrecisionContext = CTX):
    return numerics.sqrt(ctx.from_int(n))


# ---------------------------------------------------------------------------
# alternating engine
# ---------------------------------------------------------------------------


LN2_STREAM = PairedTermStream(head=Fraction(1), pair=lambda n: ((-1) ** n, n + 1))


def test_accelerated_ln2():
    res = accelerated_alternating_sum(LN2_STREAM, CTX)
    target = numerics.ln(CTX.from_int(2))
    assert abs(res.value - target) <= res.error_bound + CTX.ulp() * 8
    assert res.method == "accelerated"
    # honest and useful bound at 30 digits
    assert res.error_bound.to_float() < 1e-30


def test_zero_stream():
    stream = PairedTermStream(head=Fraction(0), pair=lambda n: (0, 1))
    res = accelerated_alternating_sum(stream, CTX)
    assert res.value.is_zero()


def test_non_alternating_detected():
    stream = PairedTermStream(head=Fraction(0), pair=lambda n: (-1, n * n))
    with pytest.raises(NonAlternating):
        accelerated_alternating_sum(stream, CTX)


def test_symmetric_truncation_bit_exact():
    # paired partial sums equal the brute-force symmetric truncation exactly
    x = Fraction(1, 4)
    for k in (0, 1, 2):
        stream = alternating_power_stream(k, x)
        for N in (1, 3, 10):
            brute = sum(
                Fraction(-1) ** abs(n) / (x + n) ** (k + 1) for n in range(-N, N + 1)
            )
            paired = stream.head + sum(Fraction(*stream.pair(n)) for n in range(1, N + 1))
            assert brute == paired


def test_direct_and_accelerated_agree():
    ctx = PrecisionContext(8)
    for k in (1, 2):
        stream = alternating_power_stream(k, Fraction(1, 4))
        fast = accelerated_alternating_sum(stream, ctx)
        slow = direct_alternating_sum(stream, ctx, max_terms=20_000)
        combined = fast.error_bound + slow.error_bound
        assert abs(fast.value - slow.value) <= combined


def _chebyshev_d_exact(n: int) -> int:
    """d = ((3+sqrt8)^n + (3-sqrt8)^n)/2, the rational part of (3 + 2 sqrt2)^n."""
    a, b = 1, 0
    for _ in range(n):
        a, b = 3 * a + 4 * b, 2 * a + 3 * b
    return a


def _crvz_sum_exact(stream: PairedTermStream, n: int) -> Fraction:
    """sum_j c_j |u_{j+1}| / d of Algorithm 1 of Cohen, Rodriguez Villegas and
    Zagier, in exact rationals."""
    d = _chebyshev_d_exact(n)
    b, c = Fraction(-1), Fraction(-d)
    terms = []
    for j in range(n):
        c = b - c
        terms.append(c * abs(Fraction(*stream.pair(j + 1))))
        b = b * Fraction(2 * (j + n) * (j - n), (2 * j + 1) * (j + 1))
    while len(terms) > 1:  # pairwise, so the denominators grow evenly
        terms = [sum(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0] / d


def _crvz_exact(stream: PairedTermStream, n: int) -> Fraction:
    """Algorithm 1 of Cohen, Rodriguez Villegas and Zagier in exact rationals."""
    sign = 1 if stream.pair(1)[0] > 0 else -1
    return stream.head + sign * _crvz_sum_exact(stream, n)


KERNEL_STREAMS = [
    pytest.param(alternating_power_stream(k, x), id=f"k={k},x={x}")
    for k in (0, 2, 8)
    for x in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10))
] + [pytest.param(LN2_STREAM, id="ln2")]


@pytest.mark.parametrize("stream", KERNEL_STREAMS)
def test_integer_kernel_matches_exact_crvz(stream):
    # the integer accelerator is within 3 ulp of the same algorithm in exact rationals
    ctx = PrecisionContext(300)
    ulp = Fraction(1, 1 << ctx.scale)
    default_n = accelerated_alternating_sum(stream, ctx).terms_used - 1
    for n in list(range(1, 41)) + [default_n]:
        res = accelerated_alternating_sum(stream, ctx, n)
        assert abs(res.value.to_fraction() - _crvz_exact(stream, n)) <= 3 * ulp, n


NARROW_STREAMS = [
    pytest.param(alternating_power_stream(k, x), id=f"k={k},x={x}")
    for k, x in ((0, Fraction(1, 3)), (2, Fraction(1, 4)), (8, Fraction(1, 10)))
] + [pytest.param(LN2_STREAM, id="ln2")]


@pytest.mark.parametrize("stream", NARROW_STREAMS)
def test_narrowed_kernel_within_three_halves_ulp(stream):
    # the integer sum builds each term only to the scale the final division by
    # d keeps, and is within 3/2 ulp of the exact sum at the working scale, in
    # each regime of the narrowing shift s: small N, where s is 0 or below w;
    # N far above what 15-30 digits need, where s exceeds w; the default N
    # at 1 000 and 3 000 digits
    cases = [(300, n) for n in range(1, 9)]
    cases += [(digits, n) for digits in (15, 30) for n in (100, 1000, 3000)]
    for digits in (1000, 3000):
        default_n = accelerated_alternating_sum(stream, PrecisionContext(digits)).terms_used - 1
        cases.append((digits, default_n))
    for digits, n in cases:
        w = PrecisionContext(digits).working(n).scale
        d = series._chebyshev_d(n)
        got = series._chebyshev_sum(map(stream.pair, range(1, n + 1)), n, d, w)
        assert abs(got - _crvz_sum_exact(stream, n) * (1 << w)) < Fraction(3, 2), (digits, n)


def _chebyshev_sum_shifting_terms(terms, n_terms, d, w):
    # the accelerator's loop with unshifted weights, shifting each term instead
    s = max(d.bit_length() - n_terms.bit_length() - 2, 0)
    up, down = max(w - s, 0), max(s - w, 0)
    b, c = -1, -d
    acc = 0
    for j, (num, den) in enumerate(terms):
        c = b - c
        acc += (abs(num) * c << up) // (den << down)
        b = b * (2 * (j + n_terms) * (j - n_terms)) // ((2 * j + 1) * (j + 1))
    return numerics._div_trunc(acc << s, d)


@pytest.mark.parametrize("stream", NARROW_STREAMS)
def test_preshifted_weights_bit_identical(stream):
    # pre-shifting b_j and c_j by 2^(w-s) gives the same int as shifting each
    # term, when w > s (small N at 300 digits, the default N = 1312 at 1 000
    # digits) and when w < s (N far above what 15 digits need)
    cases = [(300, n) for n in (1, 2, 5, 8, 40)] + [(1000, 1312), (15, 100), (15, 1000)]
    regimes = set()
    for digits, n in cases:
        w = PrecisionContext(digits).working(n).scale
        d = series._chebyshev_d(n)
        regimes.add(w > max(d.bit_length() - n.bit_length() - 2, 0))
        want = _chebyshev_sum_shifting_terms(map(stream.pair, range(1, n + 1)), n, d, w)
        assert series._chebyshev_sum(map(stream.pair, range(1, n + 1)), n, d, w) == want, (digits, n)
    assert regimes == {True, False}


def test_chebyshev_d_matches_recurrence():
    # repeated squaring of 3 + 2 sqrt2 gives the ints of d_n = 6 d_(n-1) - d_(n-2)
    d_prev, d = 3, 1  # d_(-1) = 3, d_0 = 1
    for n in range(2001):
        assert series._chebyshev_d(n) == d, n
        d_prev, d = d, 6 * d - d_prev


def test_chebyshev_weight_recurrence_divides_exactly():
    # b_j are integer coefficients of the shifted Chebyshev polynomial, so the
    # accelerator's floor division in the b_j update is exact
    for n in list(range(1, 1001)) + list(range(1050, 5001, 50)) + [3925]:
        b = -1
        for j in range(n):
            b, r = divmod(b * 2 * (j + n) * (j - n), (2 * j + 1) * (j + 1))
            assert r == 0, (n, j)


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(-400, 400),
    q=st.integers(2, 60),
    k=st.integers(0, 8),
    n=st.integers(1, 2000),
)
def test_pair_matches_rational_definition(p, q, k, n):
    x = Fraction(p, q)
    if x.denominator == 1:
        x += Fraction(1, q)
    e = k + 1
    expected = (-1) ** n * (1 / (x + n) ** e + 1 / (x - n) ** e)
    num, den = alternating_power_stream(k, x).pair(n)
    assert den > 0
    assert Fraction(num, den) == expected


# ---------------------------------------------------------------------------
# reciprocal sine
# ---------------------------------------------------------------------------


def test_recip_sine_half_is_pi():
    res = reciprocal_sine_series(Fraction(1, 2), CTX)
    assert abs(res.value - reference_pi(CTX)) <= res.error_bound
    assert res.error_bound.to_float() < 1e-30


def test_recip_sine_quarter_is_pi_sqrt2():
    res = reciprocal_sine_series(Fraction(1, 4), CTX)
    target = reference_pi(CTX) * sqrt_int(2)
    assert abs(res.value - target) <= res.error_bound + CTX.ulp() * 8


def test_recip_sine_symmetry():
    a = reciprocal_sine_series(Fraction(1, 3), CTX)
    b = reciprocal_sine_series(Fraction(2, 3), CTX)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_pole_at_integer():
    with pytest.raises(PoleAtInteger):
        reciprocal_sine_series(Fraction(3), CTX)


# ---------------------------------------------------------------------------
# pi powers
# ---------------------------------------------------------------------------


def test_pi_power_k0_quarter():
    res = pi_power_from_series(0, Fraction(1, 4), CTX)
    assert abs(res.value - reference_pi(CTX)) <= res.error_bound


def test_full_sum_includes_head():
    # the bracket sum_n (-1)^n/(1+4n) equals pi/(2 sqrt 2) with the n=0 term included
    stream = alternating_power_stream(0, Fraction(1, 4))
    partial = stream.head + sum(Fraction(*stream.pair(n)) for n in range(1, 2000))
    assert abs(float(partial) / 4 - math.pi / (2 * math.sqrt(2))) < 1e-4
    # leading partial sums of the quarter-shifted bracket: 1 - 1/5 + 1/3 + ...
    b = [Fraction(-1) ** n / (1 + 4 * n) for n in range(0, 3)]
    b += [Fraction(-1) ** n / (1 - 4 * n) for n in range(1, 3)]
    assert b[0] == 1 and b[1] == Fraction(-1, 5) and b[3] == Fraction(1, 3)


def test_pi_power_k1_quarter_positive_sum():
    res = pi_power_from_series(1, Fraction(1, 4), CTX)
    target = reference_pi_power(2, CTX)
    assert abs(res.value - target) <= res.error_bound + CTX.ulp() * 8
    # the raw sum is positive, approximately pi^2 * sqrt 2
    s = alternating_power_sum(1, Fraction(1, 4), CTX)
    assert s.value.sign == 1
    assert abs(s.value.to_float() - math.pi**2 * math.sqrt(2)) < 1e-9


def test_pi_power_k2_quarter():
    res = pi_power_from_series(2, Fraction(1, 4), CTX)
    target = reference_pi_power(3, CTX)
    assert abs(res.value - target) <= res.error_bound + CTX.ulp() * 8
    # cube identity prefactor: 2 s^3 / (2 - s^2) at s = sin(pi/4)
    s = alternating_power_sum(2, Fraction(1, 4), CTX).value.to_float()
    pref = 2 * math.sin(math.pi / 4) ** 3 / (2 - math.sin(math.pi / 4) ** 2)
    assert abs(pref * s - math.pi**3) < 1e-9


def test_pi_power_bounds_honest_through_k6():
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 6)):
        for k in range(0, 7):
            res = pi_power_from_series(k, x, CTX)
            target = reference_pi_power(k + 1, CTX)
            assert abs(res.value - target) <= res.error_bound, (k, x)
            assert res.error_bound.to_float() <= 1e-30, (k, x)


def test_pi_power_singular_point_propagates():
    with pytest.raises(SingularPoint):
        pi_power_from_series(1, Fraction(1, 2), CTX)


# ---------------------------------------------------------------------------
# cotangent family
# ---------------------------------------------------------------------------


def test_cot_quarter_is_pi():
    res = cotangent_series(Fraction(1, 4), CTX)
    assert abs(res.value - reference_pi(CTX)) <= res.error_bound
    assert res.error_bound.to_float() < 1e-30


def test_cot_half_cancels():
    res = cotangent_series(Fraction(1, 2), CTX)
    assert abs(res.value) <= res.error_bound


def test_cot_sixth_is_pi_sqrt3():
    res = cotangent_series(Fraction(1, 6), CTX)
    target = reference_pi(CTX) * sqrt_int(3)
    assert abs(res.value - target) <= res.error_bound + CTX.ulp() * 8


def test_cot_difference_coincident():
    with pytest.raises(CoincidentPoints):
        cot_difference_series(Fraction(1, 4), Fraction(1, 4), CTX)


def test_cot_difference_quarter_half_is_pi():
    ctx = PrecisionContext(25)
    res = cot_difference_series(Fraction(1, 4), Fraction(1, 2), ctx)
    assert abs(res.value - reference_pi(ctx)) <= res.error_bound
    assert res.error_bound.to_float() < 1e-20


def test_cot_difference_matches_cot_pair():
    x, a = Fraction(1, 3), Fraction(1, 6)
    d = cot_difference_series(x, a, CTX)
    cx = cotangent_series(x, CTX)
    ca = cotangent_series(a, CTX)
    combined = d.error_bound + cx.error_bound + ca.error_bound
    assert abs(d.value - (cx.value - ca.value)) <= combined


def test_cot_difference_antisymmetry():
    x, a = Fraction(1, 4), Fraction(1, 2)
    # term-by-term: the defining terms negate exactly in rational arithmetic
    pxa = cot_difference_poles(x, a)
    pax = cot_difference_poles(a, x)
    for n in range(1, 50):
        assert pxa.term(n) == -pax.term(n)
    # full evaluations agree within combined bounds
    d1 = cot_difference_series(x, a, CTX)
    d2 = cot_difference_series(a, x, CTX)
    assert abs(d1.value + d2.value) <= d1.error_bound + d2.error_bound


# ---------------------------------------------------------------------------
# appendix series
# ---------------------------------------------------------------------------


def test_appendix_partial_sums():
    # 2*1 = 2, then 2*(1 + 1/3 + 1/15) ... monotone toward pi
    terms = [Fraction(1)]
    terms.append(APPENDIX_POLES.term(1))
    assert terms[1] == Fraction(1, 3) + Fraction(1, 15)
    assert APPENDIX_POLES.term(2) == Fraction(1, 21) + Fraction(1, 45)
    partials = []
    acc = Fraction(0)
    for t in [Fraction(1)] + [APPENDIX_POLES.term(n) for n in range(1, 40)]:
        acc += t
        partials.append(2 * acc)
    assert partials[0] == 2
    # unpaired expansion passes through 2*(1 + 1/3) = 8/3 before the +1/15
    assert 2 * (1 + Fraction(1, 3)) == Fraction(8, 3)
    assert partials[1] == Fraction(14, 5)  # = 2*(1 + 1/3 + 1/15)
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert float(partials[-1]) < math.pi


def test_appendix_value_15_digits():
    ctx = PrecisionContext(15)
    res = appendix_pi_series(ctx)
    assert abs(res.value - reference_pi(ctx)) <= res.error_bound
    assert res.error_bound.to_float() < 1e-15


def test_appendix_convergence_study():
    # with the tail order pinned, doubling N shrinks the true error sharply
    ctx = PrecisionContext(30)
    pi = reference_pi(ctx)
    errs = []
    for n in (100, 200, 400):
        res = appendix_pi_series(ctx, n_direct=n, tail_orders=1)
        errs.append(abs(res.value - pi).to_float())
    assert errs[0] > errs[1] > errs[2]
    # order-1 tail leaves error ~ C/N^4: expect >= 8x shrink per doubling
    assert errs[0] / errs[1] >= 8
    assert errs[1] / errs[2] >= 8


# ---------------------------------------------------------------------------
# pole-sum integer kernels against the Fraction loops they replace
# ---------------------------------------------------------------------------


def _unfinished(monkeypatch):
    """Make results come back at working precision, so kernels compare exactly."""
    monkeypatch.setattr(PrecisionContext, "finish", lambda self, value, bound: (value, bound))


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2 convention) from the recurrence
    sum_{j<=m} C(m+1, j) B_j = 0, exact; the reference for _bernoulli_ratio."""
    if m == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(m):
        total += math.comb(m + 1, j) * _bernoulli(j)
    return -total / (m + 1)


def test_bernoulli_ratio_matches_recurrence(monkeypatch):
    monkeypatch.setattr(series, "_tangent", [0])  # grow the table from empty
    for j in [*range(1, 201), 37, 1]:
        num, den = _bernoulli_ratio(j)
        assert den > 0
        assert Fraction(num, den) == _bernoulli(2 * j) / (2 * j)


def _fraction_positive_series_sum(head, poles, ctx, n_direct, tail_orders):
    """positive_series_sum and its Euler-Maclaurin tail with one Fraction per
    term and per correction, left at working precision."""
    digits = ctx.requested_digits
    if n_direct is None:
        n_direct = max(64, 3 * digits)
    n_direct = max(n_direct, math.ceil(2 * max(abs(beta) for _, beta in poles)) + 8)
    wctx = ctx.working(n_direct)

    def term(n):
        return sum((c / (n + beta) for c, beta in poles), Fraction(0))

    def derivative(t, order):
        return sum(
            ((-1) ** order * math.factorial(order) * c / (t + beta) ** (order + 1) for c, beta in poles),
            Fraction(0),
        )

    def omitted_bound(j):
        b = abs(_bernoulli(2 * j + 2)) / (2 * j + 2)
        return sum((2 * b * abs(c) / (N + beta) ** (2 * j + 2) for c, beta in poles), Fraction(0))

    acc = wctx.from_fraction(head)
    for n in range(1, n_direct + 1):
        acc = acc + wctx.from_fraction(term(n))
    N = n_direct
    orders = tail_orders
    if orders is None:
        orders = 1
        best = omitted_bound(1)
        while orders < 60:
            nxt = omitted_bound(orders + 1)
            if best <= Fraction(1, 10 ** (digits + 4)) or nxt >= best:
                break
            orders += 1
            best = nxt
    tail = wctx.zero()
    for c, beta in poles:
        tail = tail - numerics.ln(wctx.from_fraction(N + beta)).mul_fraction(c)
    tail = tail - wctx.from_fraction(term(N) / 2)
    for j in range(1, orders + 1):
        correction = _bernoulli(2 * j) / math.factorial(2 * j) * derivative(Fraction(N), 2 * j - 1)
        tail = tail - wctx.from_fraction(correction)
    bound = wctx.from_fraction(omitted_bound(orders)) + wctx.ulp() * (n_direct + 64)
    return acc + tail, bound


def _below_floor(poles, n_direct):
    """True for an explicit N below the floor positive_series_sum refuses."""
    return n_direct is not None and n_direct < math.ceil(2 * max(abs(beta) for _, beta in poles)) + 8


def _rational_in(lo, hi):
    """Non-integer rationals p/q in (lo, hi)."""
    return st.builds(
        lambda q, share: Fraction(math.floor(lo * q) + 1 + int(share * ((hi - lo) * q - 2)), q),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0, max_value=1),
    ).filter(lambda x: x.denominator != 1)


POLE_SUM_ARGS = dict(
    digits=st.integers(min_value=20, max_value=120),
    n_direct=st.none() | st.integers(min_value=1, max_value=400),
    tail_orders=st.none() | st.integers(min_value=0, max_value=12),
)


@settings(max_examples=40, deadline=None)
@given(x=_rational_in(-2, 3), **POLE_SUM_ARGS)
def test_cot_kernel_matches_fraction_loop(x, digits, n_direct, tail_orders):
    ctx = PrecisionContext(digits)
    poles = ((Fraction(1), x), (Fraction(-1), -x))
    if _below_floor(poles, n_direct):
        with pytest.raises(OutOfRange):
            cotangent_series(x, ctx, n_direct, tail_orders)
        return
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        res = cotangent_series(x, ctx, n_direct, tail_orders)
    assert (res.value, res.error_bound) == _fraction_positive_series_sum(
        1 / x, poles, ctx, n_direct, tail_orders
    )


@settings(max_examples=40, deadline=None)
@given(x=_rational_in(-2, 3), a=_rational_in(-2, 3), **POLE_SUM_ARGS)
def test_cot_diff_kernel_matches_fraction_loop(x, a, digits, n_direct, tail_orders):
    if x == a:
        return
    ctx = PrecisionContext(digits)
    poles = ((Fraction(-1), -x), (Fraction(1), -a), (Fraction(1), x), (Fraction(-1), a))
    if _below_floor(poles, n_direct):
        with pytest.raises(OutOfRange):
            cot_difference_series(x, a, ctx, n_direct, tail_orders)
        return
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        res = cot_difference_series(x, a, ctx, n_direct, tail_orders)
    assert (res.value, res.error_bound) == _fraction_positive_series_sum(
        (a - x) / (x * a), poles, ctx, n_direct, tail_orders
    )


@settings(max_examples=25, deadline=None)
@given(**POLE_SUM_ARGS)
def test_appendix_kernel_matches_fraction_loop(digits, n_direct, tail_orders):
    ctx = PrecisionContext(digits)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    poles = ((half, -half), (-half, -quarter), (-half, half), (half, quarter))
    if _below_floor(poles, n_direct):
        with pytest.raises(OutOfRange):
            appendix_pi_series(ctx, n_direct, tail_orders)
        return
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        res = appendix_pi_series(ctx, n_direct, tail_orders)
    value, bound = _fraction_positive_series_sum(Fraction(1), poles, ctx, n_direct, tail_orders)
    assert (res.value, res.error_bound) == (value * 2, bound * 2)


def _pole_sum_case(kind, x, a):
    """(kernel(ctx, n_direct, tail_orders), head, poles, factor) for cot,
    cot-diff or appendix; the kernel's result is factor times the pole sum."""
    if kind == "cot":
        return (lambda *args: cotangent_series(x, *args)), 1 / x, ((Fraction(1), x), (Fraction(-1), -x)), 1
    if kind == "cot-diff":
        poles = ((Fraction(-1), -x), (Fraction(1), -a), (Fraction(1), x), (Fraction(-1), a))
        return (lambda *args: cot_difference_series(x, a, *args)), (a - x) / (x * a), poles, 1
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    poles = ((half, -half), (-half, -quarter), (-half, half), (half, quarter))
    return appendix_pi_series, Fraction(1), poles, 2


KINDS = st.sampled_from(("cot", "cot-diff", "appendix"))


@settings(max_examples=20, deadline=None)
@given(kind=KINDS, x=_rational_in(-2, 3), a=_rational_in(-2, 3), digits=st.integers(min_value=150, max_value=240))
def test_pole_sum_kernels_match_fraction_loop_at_high_digits(kind, x, a, digits):
    # default N and default Euler-Maclaurin orders, where the order search runs
    # deepest (about 40 orders at 240 digits)
    if x == a:
        return
    kernel, head, poles, factor = _pole_sum_case(kind, x, a)
    ctx = PrecisionContext(digits)
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        res = kernel(ctx, None, None)
    value, bound = _fraction_positive_series_sum(head, poles, ctx, None, None)
    assert (res.value, res.error_bound) == (value * factor, bound * factor)


@settings(max_examples=60, deadline=None)
@given(
    kind=KINDS,
    x=_rational_in(-2, 3),
    a=_rational_in(-2, 3),
    digits=st.integers(min_value=20, max_value=240),
    n_direct=st.none() | st.integers(min_value=1, max_value=80),
)
def test_em_order_search_exact_fallback_agrees(kind, x, a, digits, n_direct):
    # an infinite margin sends every order decision to the exact comparison;
    # small N puts consecutive bounds close together, so the default path
    # falls back there too
    if x == a:
        return
    kernel, _, poles, _ = _pole_sum_case(kind, x, a)
    ctx = PrecisionContext(digits)
    if _below_floor(poles, n_direct):
        with pytest.raises(OutOfRange):
            kernel(ctx, n_direct, None)
        return
    with pytest.MonkeyPatch.context() as mp:
        _unfinished(mp)
        default = kernel(ctx, n_direct, None)
        mp.setattr(series, "_LOG2_MARGIN", math.inf)
        exact = kernel(ctx, n_direct, None)
    assert (default.value, default.error_bound) == (exact.value, exact.error_bound)


@settings(max_examples=200, deadline=None)
@given(
    a=st.tuples(st.integers(min_value=1, max_value=2**600), st.integers(min_value=1, max_value=2**600)),
    b=st.tuples(st.integers(min_value=1, max_value=2**600), st.integers(min_value=1, max_value=2**600)),
)
def test_at_most_matches_exact_comparison(a, b):
    def log2(pair):
        return math.log2(pair[0]) - math.log2(pair[1])

    calls = []

    def exact(pair):
        calls.append(pair)
        return pair

    got = series._at_most(log2(a), log2(b), lambda: exact(a), lambda: exact(b))
    assert got == (Fraction(*a) <= Fraction(*b))
    # the exact pairs are read only when the estimates are a margin apart or less
    assert bool(calls) == (abs(log2(a) - log2(b)) < series._LOG2_MARGIN)


def test_pole_sum_integer_form():
    poles = cot_difference_poles(Fraction(7, 3), Fraction(-5, 4))
    assert (poles.beta_lcm, poles.coef_lcm) == (12, 1)
    assert poles.int_coefs == (-1, 1, 1, -1)
    assert poles.int_betas == (-28, 15, 28, -15)
    assert (APPENDIX_POLES.beta_lcm, APPENDIX_POLES.coef_lcm) == (4, 2)
    assert APPENDIX_POLES.int_coefs == (1, -1, -1, 1)
    assert APPENDIX_POLES.int_betas == (-2, -1, 2, 1)
    cot = cotangent_poles(Fraction(-17, 10))
    assert (cot.beta_lcm, cot.coef_lcm, cot.int_coefs, cot.int_betas) == (10, 1, (1, -1), (-17, 17))


# ---------------------------------------------------------------------------
# derivative identity / sign regression
# ---------------------------------------------------------------------------


def test_derivative_identity_residuals():
    for k, x in ((0, Fraction(1, 2)), (2, Fraction(1, 4)), (1, Fraction(1, 4))):
        r = derivative_identity_check(k, x, CTX)
        assert r.to_float() < 1e-28, (k, x)


def test_sign_regression_flipped_b1_fails():
    # with the printed +c/s^2 sign the residual would be 2 pi^2 |B_1|, order 10
    from pi_kiln.bruno import bk_eval

    wctx = PrecisionContext(36)
    s = alternating_power_sum(1, Fraction(1, 4), CTX).value.rescale(wctx.scale)
    b = bk_eval(1, Fraction(1, 4), wctx)
    pi2 = reference_pi_power(2, wctx)
    ok_residual = abs(-s - pi2 * b)
    flipped_residual = abs(-s - pi2 * (-b))
    assert ok_residual.to_float() < 1e-28
    assert flipped_residual.to_float() > 1.0


# ---------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------


def test_pole_sum_requires_zero_coefficient_sum():
    with pytest.raises(ValueError):
        PoleSum(((Fraction(1), Fraction(0)),))


def test_positive_series_bound_honest_across_orders():
    ctx = PrecisionContext(20)
    pi = reference_pi(ctx)
    for orders in (1, 2, 3, None):
        res = appendix_pi_series(ctx, n_direct=128, tail_orders=orders)
        assert abs(res.value - pi) <= res.error_bound, orders
