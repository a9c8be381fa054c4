"""Exact summation: ``exact_sum`` must return the bits of ``math.fsum`` and
``prefix_sums`` those of the Shewchuk reference in ``tests/oracles.py``."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import shewchuk_prefix_sums
from rieszbounds._kernels import pykernels
from rieszbounds.errors import DomainError

SMALL = pykernels._SMALL
CHUNK = pykernels._CHUNK

#: sizes either side of the small-input threshold and of chunk boundaries
SIZES = [0, 1, 2, SMALL - 1, SMALL, SMALL + 1, 3 * SMALL,
         CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]


def _outcome(fn, values):
    """The result as (sign, bits) for floats, or the exception type."""
    try:
        r = fn(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    if math.isnan(r):
        return "nan"
    return math.copysign(1.0, r), float(r).hex()


def _assert_same(values):
    assert _outcome(pykernels.exact_sum, values) == \
        _outcome(lambda v: math.fsum(v.tolist()), values)


@st.composite
def term_arrays(draw):
    """Arrays with mixed signs, a chosen binary-exponent span (subnormal to
    near-overflow), optional exact cancellation, and optional non-finite
    or signed-zero entries."""
    n = draw(st.sampled_from(SIZES) | st.integers(0, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e1 = draw(st.integers(-1080, 1030))
    e2 = draw(st.integers(-1080, 1030))
    lo, hi = min(e1, e2), max(e1, e2)
    sign = draw(st.sampled_from(["positive", "negative", "mixed"]))
    mant = rng.uniform(0.5, 1.0, n)
    if sign == "negative":
        mant = -mant
    elif sign == "mixed":
        mant *= rng.choice([-1.0, 1.0], n)
    with np.errstate(over="ignore"):
        x = np.ldexp(mant, rng.integers(lo, hi + 1, n))
    if n and draw(st.booleans()):    # exact cancellation, shuffled
        x = np.concatenate([x, -x])
        rng.shuffle(x)
    special = draw(st.sampled_from(
        [None, math.inf, -math.inf, math.nan, "inf-inf", 0.0, -0.0]))
    if n and special == "inf-inf":
        x[rng.integers(len(x))] = math.inf
        x[rng.integers(len(x))] = -math.inf
    elif n and special is not None:
        x[rng.integers(len(x))] = special
    return x


class TestExactSum:
    @given(term_arrays())
    @settings(max_examples=250, deadline=None)
    def test_bitwise_equal_to_fsum(self, x):
        _assert_same(x)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), max_size=40),
           st.integers(1, 2 * SMALL))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_floats_tiled(self, values, reps):
        # any float values, repeated up past the threshold
        _assert_same(np.tile(np.asarray(values, dtype=float), reps))

    @pytest.mark.parametrize("n", SIZES)
    def test_signed_zero(self, n):
        _assert_same(np.full(n, -0.0))
        x = np.arange(1.0, n + 1.0)
        _assert_same(np.concatenate([x, -x[::-1]]))

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_eigenvalue_like_terms(self, n):
        rng = np.random.default_rng(n)
        lams = np.sort(rng.uniform(19.7, 1.3e7, n))
        for sigma in (0.5, 1.0, 2.0):
            _assert_same(np.power(1.3e7 - lams, sigma))


def _assert_prefix_exact(terms):
    """``prefix_sums`` against the Shewchuk loop bit for bit, and against
    ``math.fsum`` at sampled prefixes."""
    fast = pykernels.prefix_sums(terms)
    ref = shewchuk_prefix_sums(terms)
    assert np.array_equal(fast.view(np.int64), ref.view(np.int64))
    n = len(terms)
    picks = np.random.default_rng(n).integers(0, n, 4).tolist()
    for i in {0, n // 2, n - 1, *picks}:
        assert fast[i] == math.fsum(terms[:i + 1].tolist())


def _tie_terms(mantissa, exponent, pieces, sticky):
    """A = mantissa * 2**exponent (mantissa in [1, 2)), then half an ulp
    of A as ``pieces`` powers of two of falling exponent, so that the exact
    sum after them is halfway between two floats; then, if ``sticky``, a
    term far below that breaks the tie upwards."""
    half = exponent - 53
    terms = [math.ldexp(mantissa, exponent)]
    terms += [math.ldexp(1.0, half - i) for i in range(1, pieces)]
    terms.append(math.ldexp(1.0, half - pieces + 1))
    if sticky:
        terms.append(math.ldexp(1.0, half - 80))
    return np.array(terms)


@st.composite
def non_negative_arrays(draw):
    """Non-negative finite arrays over a chosen exponent span, subnormal to
    near overflow, with optional runs of +0.0, in any order."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e1 = draw(st.integers(-1080, 1010))
    e2 = draw(st.integers(-1080, 1010))
    lo, hi = min(e1, e2), max(e1, e2)
    x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):
        x[rng.random(n) < 0.3] = 0.0
    order = draw(st.sampled_from(["any", "ascending", "descending"]))
    if order != "any":
        x.sort()
    if order == "descending":
        x = x[::-1].copy()
    return x


@st.composite
def multi_chunk_arrays(draw):
    """A few large terms that sum to just below 2**top, then more small
    terms than one chunk holds over a chosen band of binades, some at its
    foot in every chunk; the running total crosses 2**top after ``cross``
    small terms, in any chunk.  ``offset`` is the distance in binades from
    the small terms' lowest bit to 2**top.  At 126 + 32 c, drawn more
    often, a chunk's column count comes from the total and its top column
    ends at the least bit of the rounding window past 2**top."""
    n = draw(st.integers(CHUNK // 2, CHUNK))
    band = draw(st.integers(0, 40) | st.just(11))
    low = draw(st.integers(-1020, 800))
    offset = draw(st.integers(60, 200) | st.sampled_from([126, 158]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        exps = low + rng.integers(0, band + 1, n)
    else:
        exps = np.full(n, low + band)
    small = np.ldexp(rng.uniform(1.0, 2.0, n), exps)
    small[::1000] = math.ldexp(1.0, low)
    cross = rng.integers(1, n + 1)
    gap = math.frexp(math.fsum(small[:cross].tolist()))[1]
    top = low - 52 + offset
    assume(gap < top <= 1023)
    big = []
    while top > gap:
        step = min(53, top - gap)
        big.append(math.ldexp(1.0, top) - math.ldexp(1.0, top - step))
        top -= step
    return np.concatenate([big, small])


class TestPrefixSums:
    def test_longer_than_two_chunks_matches_shewchuk(self):
        rng = np.random.default_rng(11)
        lams = np.sort(rng.uniform(19.7, 1.3e7, 2 * CHUNK + 1001))
        for terms in (lams, np.power(lams, 2.0)):
            fast = pykernels.prefix_sums(terms)
            ref = shewchuk_prefix_sums(terms)
            assert np.array_equal(fast.view(np.int64), ref.view(np.int64))
            for i in (0, CHUNK - 1, CHUNK, 2 * CHUNK, len(terms) - 1):
                assert fast[i] == math.fsum(terms[:i + 1].tolist())

    @pytest.mark.parametrize("terms, reason", [
        ([3.0, -1.0, 2.5, 0.0, 1e-3], "non-negative"),
        ([1.0, -0.0, 2.0], "-0.0"),
        ([-0.0], "-0.0"),
        ([1.0, math.inf], "finite"),
        ([math.nan, 1.0], "finite"),
        ([1.0, 2.0, math.nan], "finite"),
        ([1.7e308, 1.7e308], "overflows"),
        # the largest float plus half its ulp rounds to infinity
        ([1.7976931348623157e308, 2.0**970], "overflows"),
    ], ids=["negative", "minus-zero", "minus-zero-alone", "inf", "nan-first",
            "nan-last", "overflow", "overflow-at-the-tie"])
    def test_domain_error(self, terms, reason):
        with pytest.raises(DomainError, match=reason):
            pykernels.prefix_sums(np.asarray(terms))

    def test_below_overflow(self):
        # just below half an ulp past the largest float: no overflow
        _assert_prefix_exact(np.array([1.7976931348623157e308, 0.0,
                                       2.0**969, 2.0**968]))

    def test_empty(self):
        assert len(pykernels.prefix_sums(np.empty(0))) == 0

    @pytest.mark.parametrize("terms", [
        [1e-320, 1.0, 2.0],
        [1e-300, 1e300, 1.0],
        [5e-324] * 5 + [2.0**-1022, 2.2250738585072009e-308],
        [0.0, 0.0, 5e-324, 0.0, 1.0, 0.0],
    ], ids=["subnormal", "span-1e-300-1e300", "subnormal-to-normal",
            "zeros-and-subnormal"])
    def test_small_cases(self, terms):
        _assert_prefix_exact(np.asarray(terms))

    @pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1,
                                   3 * CHUNK + 7])
    def test_unsorted_eigenvalue_like_terms(self, n):
        # positive normal terms over 19 binades, in any order: chunks of
        # three limb columns, each term's limbs scattered to its own
        terms = np.random.default_rng(n).uniform(19.7, 1.3e7, n)
        _assert_prefix_exact(terms)

    @pytest.mark.parametrize("past", [0, 1])
    def test_span_at_the_limit_and_one_binade_past(self, past):
        # n = 2**17 - 1 terms over 30 and 31 binades (where an earlier
        # two-limb path ended), nearly all of the largest mantissa in the
        # top binade, so the column sums come close to 2**48
        n = 2 * CHUNK - 1
        span = 30 + past
        rng = np.random.default_rng(past)
        top = np.nextafter(2.0 ** (span + 1), 0.0)
        terms = np.full(n, top)
        terms[0] = 1.0
        middle = rng.integers(1, n, 1000)
        terms[middle] = np.ldexp(rng.uniform(0.5, 1.0, 1000),
                                 rng.integers(1, span + 2, 1000))
        assert math.frexp(terms.max())[1] - math.frexp(terms.min())[1] \
            == span
        _assert_prefix_exact(terms)

    @pytest.mark.parametrize("n", [CHUNK + 1, 3 * CHUNK + 7])
    def test_one_exponent_and_largest_mantissas(self, n):
        # a term of the largest mantissa, 2**53 - 1, fills both 32-bit
        # limbs, so the low column carries into the high one at every
        # prefix
        largest = np.nextafter(2.0 ** 11, 0.0)
        rng = np.random.default_rng(n)
        one_exponent = rng.uniform(2.0 ** 10, 2.0 ** 11, n)
        for terms in (np.full(n, largest), one_exponent,
                      np.where(rng.random(n) < 0.5, largest, one_exponent)):
            _assert_prefix_exact(terms)

    @pytest.mark.parametrize("scale", [-1074, -1000, -60, 0, 40, 900])
    def test_subnormal_terms_and_zero_runs(self, scale):
        # terms of mantissas below 2**53 at 2**(scale - 52) and up, so the
        # smallest scales are subnormal, with runs of +0.0 between them,
        # one of them longer than a chunk
        rng = np.random.default_rng(scale + 2000)
        n = 3000
        x = np.ldexp(rng.integers(0, 2**53, n).astype(float),
                     rng.integers(scale, scale + 12, n))
        x[rng.random(n) < 0.3] = 0.0
        terms = np.concatenate([np.zeros(5), x[:1500], np.zeros(CHUNK + 3),
                                x[1500:], np.zeros(7)])
        _assert_prefix_exact(terms)
        _assert_prefix_exact(np.sort(x))

    def test_total_finer_than_the_next_chunk(self):
        # two chunks of two limb columns total 2**35 + 2**-25; the next
        # chunk's terms c = 2**30 + 2**-18 have their lowest bit at 2**-22,
        # above that 2**-25, and 2**35 + c is a tie that only the 2**-25
        # bit, inside the rounding window, breaks upwards
        n = pykernels._CELLS
        first = np.full(n, 2.0**19)
        first[0] += 2.0**-25
        terms = np.concatenate([first, np.full(10, 2.0**30 + 2.0**-18)])
        _assert_prefix_exact(terms)
        assert pykernels.prefix_sums(terms)[n] == \
            np.nextafter(2.0**35 + 2.0**30, math.inf)

    def test_total_carried_into_the_window_at_the_top_column(self):
        # the total 2**74 - 2**21 + 13107 sits 126 bits above the second
        # chunk's lowest bit (2**-52), so that chunk's column count comes
        # from the total and its top column ends at the rounding window's
        # least bit; the carry out of that column crosses 2**74
        terms = np.array([2.0**74 - 2.0**21] + [1.0] * 13107
                         + [4096 - 2.0**-41] * 32767)
        _assert_prefix_exact(terms)
        assert pykernels.prefix_sums(terms)[-1] > 2.0**74

    @pytest.mark.parametrize("order", ["ascending", "descending", "any"])
    def test_span_from_1e_300_to_1e300(self, order):
        rng = np.random.default_rng(300)
        terms = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 3000))
        if order != "any":
            terms.sort()
        if order == "descending":
            terms = terms[::-1].copy()
        _assert_prefix_exact(terms)

    @pytest.mark.parametrize("exponent", [-940, 0, 32, 700])
    @pytest.mark.parametrize("pieces", [1, 12, 13, 33, 60])
    def test_ties_across_limb_boundaries(self, exponent, pieces):
        # an exact tie made of half an ulp split over many binades, so the
        # halfway bit arrives by carries across 32-bit limb columns; the
        # mantissa parity decides it, a far sticky term breaks it
        for mantissa in (1.0, 1.0 + 2.0**-52, 2.0 - 2.0**-52):
            a = math.ldexp(mantissa, exponent)
            for sticky in (False, True):
                terms = _tie_terms(mantissa, exponent, pieces, sticky)
                up = sticky or mantissa != 1.0
                assert math.fsum(terms.tolist()) == \
                    (np.nextafter(a, math.inf) if up else a)
                _assert_prefix_exact(terms)
                _assert_prefix_exact(np.concatenate([terms[1:], terms[:1]]))

    @given(non_negative_arrays())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_shewchuk(self, x):
        _assert_prefix_exact(x)

    @given(multi_chunk_arrays())
    @settings(max_examples=60, deadline=None)
    def test_multi_chunk_bitwise_equal_to_shewchuk(self, x):
        _assert_prefix_exact(x)


RUN_BLOCK = pykernels._RUN_BLOCK

#: sizes either side of the run-path minimum and of run-block and chunk
#: boundaries
RUN_SIZES = [SMALL - 1, SMALL, SMALL + 1, RUN_BLOCK - 1, RUN_BLOCK,
             RUN_BLOCK + 1, CHUNK + 1, 2 * CHUNK + 7]


def _bits(r):
    return math.copysign(1.0, r), float(r).hex()


@st.composite
def monotone_arrays(draw):
    """Sorted normal terms, ascending or descending, over a chosen exponent
    span, some exactly at powers of two; of one sign, or of both signs with
    or without signed zeros between them."""
    n = draw(st.sampled_from(RUN_SIZES) | st.integers(SMALL, 3 * RUN_BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e_lo = draw(st.integers(-1000, 940))    # n < 2**18: no overflow risk
    e_hi = e_lo + draw(st.integers(0, 60))
    mant = rng.uniform(0.5, 1.0, n)
    if draw(st.booleans()):
        mant[rng.random(n) < 0.3] = 0.5
    signs = draw(st.sampled_from(["one", "both", "both with zeros"]))
    if signs != "one":
        mant *= rng.choice([-1.0, 1.0], n)
    if signs == "both with zeros":
        zero = rng.random(n) < 0.05
        mant[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
    x = np.sort(np.ldexp(mant, rng.integers(e_lo, e_hi + 1, n)))
    if draw(st.booleans()):
        x = x[::-1].copy()
    if draw(st.booleans()):
        x = -x
    return x


class TestRunPath:
    @given(monotone_arrays())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_fsum(self, x):
        _assert_same(x)
        if len(x) >= SMALL:
            assert _bits(pykernels._run_sum(x)) == \
                _bits(math.fsum(x.tolist()))

    @pytest.mark.parametrize("n", [RUN_BLOCK + 1, 2 * CHUNK + 7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_run_of_largest_mantissas(self, n, sign):
        # every term 2 - 2**-52: each block sum is as close to 2**64 as
        # it gets, and the one run is longer than a block and a chunk
        x = np.full(n, sign * np.nextafter(2.0, 0.0))
        assert _bits(pykernels._run_sum(x)) == _bits(math.fsum(x.tolist()))

    @pytest.mark.parametrize("n", [SMALL, 3 * RUN_BLOCK + 5, CHUNK + 3])
    def test_spectrum_terms(self, n):
        rng = np.random.default_rng(n)
        lams = np.sort(rng.uniform(19.7, 1.3e7, n))
        z = float(lams[-1]) + 1.0
        cases = [np.power(z - lams, s) for s in (0.5, 1.0, 2.0, 3.5)]
        cases += [np.power(lams, p) for p in (0.5, 1.0, 1.5, 2.0)]
        cases += [np.array([math.log(v) for v in lams.tolist()]),
                  1.0 / lams]
        for terms in cases:
            run = pykernels._run_sum(terms)
            assert run is not None
            assert _bits(run) == _bits(math.fsum(terms.tolist()))
            assert _bits(pykernels.exact_sum(terms)) == _bits(run)

    @pytest.mark.parametrize("lo", [0.3, 1.0])
    def test_logs_of_spectrum_across_one(self, lo):
        # logs of eigenvalues below and above 1 (and exactly 1 when lo is
        # 1.0): negative terms, zeros, then positive terms
        lams = np.sort(np.concatenate([np.linspace(lo, 40.0, 3000),
                                       np.ones(7)]))
        logs = np.array([math.log(v) for v in lams.tolist()])
        for terms in (logs, logs[::-1], -logs):
            run = pykernels._run_sum(terms)
            assert run is not None
            assert _bits(run) == _bits(math.fsum(terms.tolist()))

    def test_zeros_of_both_signs_between_signs(self):
        # more interleaved +0 and -0 than a chunk, between negative and
        # positive terms: the blocks of zeros must add nothing
        zeros = np.tile([0.0, -0.0, -0.0, 0.0, 0.0], CHUNK // 4)
        x = np.concatenate([-np.linspace(3.0, 0.5, 5000), zeros,
                            np.linspace(0.25, 7.0, 5000)])
        for terms in (x, x[::-1]):
            run = pykernels._run_sum(terms)
            assert run is not None
            assert _bits(run) == _bits(math.fsum(terms.tolist()))

    def test_run_starts_on_the_block_grid(self):
        # each run starts where a block of _RUN_BLOCK terms starts
        x = np.repeat([1.5, 2.5, 5.0, 5.5, 13.0], RUN_BLOCK)
        x[::3] += 2.0**-40
        x.sort()
        assert _bits(pykernels._run_sum(x)) == _bits(math.fsum(x.tolist()))

    def test_values_at_powers_of_two(self):
        x = np.repeat(np.ldexp(1.0, np.arange(-30, 31)), 100)
        assert _bits(pykernels._run_sum(x)) == _bits(math.fsum(x.tolist()))
        _assert_same(x[::-1].copy())


def _ascending_across_two(n):
    """Sorted terms just below and at 2**10, n of them."""
    below = np.nextafter(1024.0, 0.0) - np.arange(n // 2)[::-1] * 2.0**-42
    return np.concatenate([below, 1024.0 + np.arange(n - n // 2) * 0.5])


class TestRunPathFallback:
    def test_one_ulp_swap_across_exponent_boundary(self):
        x = _ascending_across_two(2 * RUN_BLOCK)
        i = RUN_BLOCK
        assert x[i - 1] == np.nextafter(1024.0, 0.0) and x[i] == 1024.0
        x[i - 1], x[i] = x[i], x[i - 1]
        assert pykernels._run_sum(x) is None
        _assert_same(x)

    @pytest.mark.parametrize("x", [
        # magnitudes ascending on each side, values not sorted
        np.concatenate([np.linspace(1.0, 2.0, 2000),
                        -np.linspace(1.0, 2.0, 2000)]),
        np.concatenate([-np.linspace(2.0, 1.0, 2000),      # a subnormal
                        [-5e-324, 0.0], np.linspace(1.0, 2.0, 2000)]),
        np.zeros(3000),
        np.sort(np.concatenate([np.linspace(1.0, 2.0, 2000),      # a zero
                                -np.linspace(1.0, 2.0, 2000)])),  # total
        np.sort(np.ldexp(0.75, np.arange(-1070, -900))).repeat(20),
        np.linspace(1e300, 1.7e308, 3000),                     # overflow risk
        np.sort(np.ldexp(0.75, np.arange(-600, 600, 1))),      # too wide
        np.concatenate([np.linspace(1.0, 2.0, 3000), [math.inf]]),
        np.concatenate([np.linspace(-2.0, -1.0, 3000), [-math.inf]]),
        np.concatenate([np.linspace(1.0, 2.0, 3000), [math.nan]]),
        np.concatenate([[math.nan], np.linspace(1.0, 2.0, 3000)]),
    ], ids=["sign-flip", "subnormal-between", "zeros", "cancelling",
            "subnormal", "near-overflow", "wide", "inf", "-inf", "nan-last",
            "nan-first"])
    def test_ineligible_input_falls_back(self, x):
        assert pykernels._run_sum(x) is None
        _assert_same(x)
