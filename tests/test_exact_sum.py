"""Exact summation: ``exact_sum`` and the weighted run path must return the
bits of ``math.fsum`` (of the repeated terms, when weighted), and
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

    @pytest.mark.parametrize("scale", [-1000, 0, 1000])
    def test_zeros_inside_a_narrow_span(self, scale):
        # zeros add no limbs: a chunk of +0.0 among terms of one binade
        # keeps two limb columns; the second chunk holds only zeros and
        # the third starts with a run of them
        rng = np.random.default_rng(scale + 3000)
        x = np.ldexp(rng.uniform(1.0, 2.0, 3 * CHUNK), scale)
        x[rng.random(len(x)) < 0.5] = 0.0
        x[CHUNK:2 * CHUNK + 5000] = 0.0
        _assert_prefix_exact(x)
        _, sums = pykernels._limb_sums(x.view(np.uint64)[:CHUNK], 0)
        assert sums.shape[1] == 2

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


def _per_binade(exps):
    """Three terms in each binade 2**e of ``exps``, unsorted."""
    return np.ldexp(np.tile([0.625, 0.75, 0.875], len(exps)),
                    np.repeat(exps, 3))


def _run_one(terms, weights=None):
    """The run path's sum of ``terms`` as one segment, every weight 1 by
    default; None where it leaves the sum to ``math.fsum``."""
    if weights is None:
        weights = _weights(np.ones(len(terms)))
    sums = pykernels._run_sum(terms, [0], weights)
    return None if sums is None else sums[0]


class TestRunPath:
    @given(monotone_arrays())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_fsum(self, x):
        _assert_same(x)
        if len(x) >= SMALL:
            assert _bits(_run_one(x)) == \
                _bits(math.fsum(x.tolist()))

    @pytest.mark.parametrize("n", [RUN_BLOCK + 1, 2 * CHUNK + 7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_run_of_largest_mantissas(self, n, sign):
        # every term 2 - 2**-52: each block of _RUN_STEP unit weights sums
        # near 2**64, and the one run is longer than a block and a chunk
        x = np.full(n, sign * np.nextafter(2.0, 0.0))
        assert _bits(_run_one(x)) == _bits(math.fsum(x.tolist()))

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
            run = _run_one(terms)
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
            run = _run_one(terms)
            assert run is not None
            assert _bits(run) == _bits(math.fsum(terms.tolist()))

    def test_zeros_of_both_signs_between_signs(self):
        # more interleaved +0 and -0 than a chunk, between negative and
        # positive terms: the blocks of zeros must add nothing
        zeros = np.tile([0.0, -0.0, -0.0, 0.0, 0.0], CHUNK // 4)
        x = np.concatenate([-np.linspace(3.0, 0.5, 5000), zeros,
                            np.linspace(0.25, 7.0, 5000)])
        for terms in (x, x[::-1]):
            run = _run_one(terms)
            assert run is not None
            assert _bits(run) == _bits(math.fsum(terms.tolist()))

    def test_run_starts_on_the_block_grid(self):
        # each run starts where a block of _RUN_STEP unit weights starts
        x = np.repeat([1.5, 2.5, 5.0, 5.5, 13.0], pykernels._RUN_STEP)
        x[::3] += 2.0**-40
        x.sort()
        assert _bits(_run_one(x)) == _bits(math.fsum(x.tolist()))

    def test_values_at_powers_of_two(self):
        x = np.repeat(np.ldexp(1.0, np.arange(-30, 31)), 100)
        assert _bits(_run_one(x)) == _bits(math.fsum(x.tolist()))
        _assert_same(x[::-1].copy())

    @pytest.mark.parametrize("x", [
        np.sort(_per_binade(np.arange(-600, 600))),
        np.sort(_per_binade(np.arange(-1000, 1000))),
        np.sort(np.concatenate([-_per_binade(np.arange(-1000, 990, 2)),
                                _per_binade(np.arange(-999, 1000, 2))])),
    ], ids=["wide", "2000-binades", "both-signs"])
    def test_wide_exponent_span(self, x):
        # math.fsum of the exact halves of the blocks is exact however many
        # binades the terms span, in either direction
        for terms in (x, x[::-1].copy(), -x):
            run = _run_one(terms)
            assert run is not None
            assert _bits(run) == _bits(math.fsum(terms.tolist()))
            _assert_same(terms)


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
        assert _run_one(x) is None
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
        np.concatenate([np.linspace(1.0, 2.0, 3000), [math.inf]]),
        np.concatenate([np.linspace(-2.0, -1.0, 3000), [-math.inf]]),
        np.concatenate([np.linspace(1.0, 2.0, 3000), [math.nan]]),
        np.concatenate([[math.nan], np.linspace(1.0, 2.0, 3000)]),
    ], ids=["sign-flip", "subnormal-between", "zeros", "cancelling",
            "subnormal", "near-overflow", "inf", "-inf", "nan-last",
            "nan-first"])
    def test_ineligible_input_falls_back(self, x):
        assert _run_one(x) is None
        _assert_same(x)


WEIGHT = pykernels._RUN_WEIGHT


def _weights(m, cut=0):
    """``_run_sum``'s (m, pos): the weights, the last one cut by ``cut``,
    and the position of each term among the weighted terms."""
    m = np.array(m, np.uint8)
    m[-1] -= cut
    return m, np.cumsum(m, dtype=np.int64) - m


def _count(weights):
    """The number of weighted terms."""
    m, pos = weights
    return int(pos[-1]) + int(m[-1])


def _repeated(terms, weights):
    """The weighted terms as a list."""
    return np.repeat(terms, weights[0]).tolist()


def _head(terms, m, k):
    """The terms and ``_run_sum`` weights of the first k repeated terms."""
    ends = np.cumsum(m)
    size = int(ends.searchsorted(k)) + 1
    return terms[:size], _weights(m[:size], int(ends[size - 1]) - k)


def _assert_weighted(terms, weights):
    """``_exact_sums`` of the weighted terms, and ``_run_sum`` where it
    takes them, have the bits of ``math.fsum`` of the repeated terms;
    returns the run path's sum or None."""
    want = _outcome(math.fsum, _repeated(terms, weights))
    assert _outcome(lambda t: pykernels._exact_sums(t, [0], weights)[0],
                    terms) == want
    run = _run_one(terms, weights)
    if run is not None:
        assert _bits(run) == want
    return run


@st.composite
def weighted_arrays(draw):
    """Sorted normal terms (``monotone_arrays``, cut to a few hundred) with
    weights all at the bound, all just under it, of 1 and the bound mixed,
    or any; the last term counted in full or cut."""
    x = draw(monotone_arrays())[:draw(st.integers(1, 700))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bound", "under", "mixed", "any"]))
    n = len(x)
    m = {"bound": lambda: np.full(n, WEIGHT),
         "under": lambda: np.full(n, WEIGHT - 1),
         "mixed": lambda: rng.choice([1, WEIGHT - 1, WEIGHT], n),
         "any": lambda: rng.integers(1, WEIGHT + 1, n)}[kind]()
    return x, _weights(m, draw(st.integers(0, int(m[-1]) - 1)))


class TestWeightedRunPath:
    """A term of weight m counts m times: every weighted sum has the bits
    of ``math.fsum`` of the repeated terms."""

    @given(weighted_arrays())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_fsum(self, case):
        _assert_weighted(*case)

    @pytest.mark.parametrize("lead", [1, 2, WEIGHT // 2, WEIGHT - 1, WEIGHT])
    @pytest.mark.parametrize("weight", [WEIGHT - 1, WEIGHT])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_block_bound_with_largest_mantissas(self, lead, weight, sign):
        # every term 2**e * (1 - 2**-53), the largest mantissa: a block of
        # total weight 2**11 sums to just below 2**64, and one more term
        # of any weight would wrap; the leading weight moves where the
        # blocks fall
        for e in (0, 11, -30):
            x = np.full(300, sign * np.nextafter(2.0**e, 0.0))
            m = np.full(300, weight)
            m[0] = lead
            assert _assert_weighted(x, _weights(m)) is not None
            assert _assert_weighted(x, _weights(m, 1)) is not None

    def test_blocks_reach_the_bound(self):
        # with all weights at the bound some blocks weigh exactly 2**11
        m, pos = _weights(np.full(64, WEIGHT))
        edges = pos.searchsorted(np.arange(pykernels._RUN_STEP, pos[-1] + 1,
                                           pykernels._RUN_STEP))
        weights = np.diff(np.concatenate(([0], pos[edges],
                                          [_count((m, pos))])))
        assert weights.max() == RUN_BLOCK

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1, 2 * CHUNK + 7])
    def test_longer_than_a_chunk(self, n):
        # the weighted bits are made a chunk of terms at a time
        rng = np.random.default_rng(n)
        x = np.sqrt(1e6 - np.sort(rng.uniform(1.0, 9e5, n)))
        m = rng.choice([1, 2, WEIGHT], n, p=[0.6, 0.399, 0.001])
        m[-1] = 2
        assert _assert_weighted(x, _weights(m)) is not None
        assert _assert_weighted(x, _weights(m, 1)) is not None

    def test_logs_across_one(self):
        # logs of repeated eigenvalues below and at and above 1: negative
        # terms, a zero, then positive terms
        rng = np.random.default_rng(11)
        values = np.sort(np.concatenate([np.linspace(0.3, 40.0, 400), [1.0]]))
        runs = pykernels.runs_of(np.repeat(values,
                                           rng.integers(1, 300, len(values))))
        logs = np.array([math.log(v) for v in runs.values.tolist()])
        for terms, m in ((logs, runs.weights), (-logs, runs.weights),
                         (logs[::-1].copy(), runs.weights[::-1])):
            assert _assert_weighted(terms, _weights(m)) is not None
            assert _assert_weighted(*_head(terms, m, 5000)) is not None

    @pytest.mark.parametrize("sigma", [-0.75, -0.5])
    def test_ascending_riesz_terms(self, sigma):
        # (z - lambda)**sigma grows along the sorted eigenvalues
        rng = np.random.default_rng(12)
        values = np.sort(rng.uniform(1.0, 1e4, 900))
        terms = np.power(1.5e4 - values, sigma)
        m = rng.integers(1, WEIGHT + 1, len(values))
        assert _assert_weighted(terms, _weights(m)) is not None
        assert _assert_weighted(*_head(terms, m, 30000)) is not None

    def test_segments_with_running_totals(self):
        # packed rows: each segment a prefix of one weighted array, the
        # running totals carried across the segments
        rng = np.random.default_rng(13)
        values = np.sort(rng.uniform(1.0, 100.0, 600))
        m = rng.integers(1, WEIGHT + 1, len(values)).astype(np.uint8)
        sizes = [600, 17, 250, 1, 400]
        terms = np.concatenate([np.sqrt(120.0 - values[:s]) for s in sizes])
        weights = _weights(np.concatenate([m[:s] for s in sizes]))
        starts = np.cumsum([0] + sizes[:-1])
        sums = pykernels._exact_sums(terms, starts, weights)
        for s, got in zip(sizes, sums):
            want = math.fsum(np.repeat(np.sqrt(120.0 - values[:s]),
                                       m[:s]).tolist())
            assert _bits(got) == _bits(want)


def _segment(kind, rng, size):
    """Sorted terms of one segment and their weights: ``low`` at the least
    normal exponent with random low mantissa bits, of both signs; ``top``
    in [1, 2), to be scaled; ``cancel`` pairs x and -x of equal weight, an
    exact zero; ``mixed`` both signs over 60 binades; ``plain``
    positive."""
    m = rng.integers(1, WEIGHT + 1, size)
    mant = (2**52 + rng.integers(0, 2**52, size)).astype(np.float64)
    if kind == "low":
        x = np.ldexp(mant, -1074) * rng.choice([-1.0, 1.0], size)
    elif kind == "top":
        x = np.ldexp(mant, -52)
    elif kind == "cancel":
        v = np.sort(np.ldexp(mant[:(size + 1) // 2], -60))
        w = m[:len(v)]
        return np.concatenate([-v[::-1], v]), np.concatenate([w[::-1], w])
    elif kind == "mixed":
        x = np.ldexp(mant, rng.integers(-90, -30, size))
        x *= rng.choice([-1.0, 1.0], size)
    else:
        x = np.ldexp(mant, rng.integers(-60, -50, size))
    return np.sort(x), m


def _segmented(kinds, seed, cut, top=0):
    """Ascending segments of ``kinds`` packed into one array, their
    starts and their ``_run_sum`` weights, the last term cut by ``cut``
    below its weight (at most); a ``top`` segment is scaled to the biased
    exponent 2045 - width + top, width the bit length of the weighted
    count."""
    rng = np.random.default_rng(seed)
    parts = [_segment(kind, rng, rng.integers(1, 300)) for kind in kinds]
    m = np.concatenate([w for _, w in parts])
    weights = _weights(m, min(cut, int(m[-1]) - 1))
    e_top = 2045 - _count(weights).bit_length() + top
    xs = [np.ldexp(x, e_top - 1023) if kind == "top" else x
          for kind, (x, _) in zip(kinds, parts)]
    starts = np.cumsum([0] + [len(x) for x in xs[:-1]])
    return np.concatenate(xs), starts, weights


def _segment_sums(terms, starts, weights):
    """``math.fsum`` of each segment's repeated terms."""
    ends = [*starts[1:], len(terms)]
    return [math.fsum(np.repeat(terms[a:b], weights[0][a:b]).tolist())
            for a, b in zip(starts, ends)]


KINDS = ["low", "top", "cancel", "mixed", "plain"]


class TestSegmentedRunPath:
    """Each segment's sum from the exact halves of its blocks has the bits
    of ``math.fsum`` of its repeated terms; an exact zero is None."""

    @given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=7),
           st.integers(0, 2**32 - 1), st.integers(0, WEIGHT))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_fsum(self, kinds, seed, cut):
        terms, starts, weights = _segmented(kinds, seed, cut)
        got = pykernels._run_sum(terms, starts, weights)
        assert got is not None
        for total, want in zip(got, _segment_sums(terms, starts, weights)):
            assert (total is None) == (want == 0.0)
            if total is not None:
                assert _bits(total) == _bits(want)
        assert [_bits(t) for t in pykernels._exact_sums(terms, starts,
                                                        weights)] == \
            [_bits(t) for t in _segment_sums(terms, starts, weights)]

    @pytest.mark.parametrize("cut", [0, 1, WEIGHT - 1])
    def test_cancelling_segment_between_nonzero_ones(self, cut):
        kinds = ["low", "cancel", "top", "cancel", "mixed", "plain"]
        terms, starts, weights = _segmented(kinds, 7, cut)
        got = pykernels._run_sum(terms, starts, weights)
        want = _segment_sums(terms, starts, weights)
        assert [total is None for total in got] == \
            [False, True, False, True, False, False]
        assert want[1] == want[3] == 0.0
        for total, w in zip(got, want):
            if total is not None:
                assert _bits(total) == _bits(w)

    def test_low_halves_of_least_normal_blocks(self):
        # blocks at the least normal exponent whose low 11 bits are set:
        # their low halves are the smallest parts, at 2**-1074 a bit
        terms, starts, weights = _segmented(["low"] * 3, 11, 0)
        bits = terms.view(np.uint64)
        assert (bits >> np.uint64(52) & np.uint64(0x7FF) == 1).all()
        # some block's mantissa sum has low bits: their total has
        assert int(((bits & np.uint64(0x7FF)) * weights[0]).sum()) % 2**11
        got = pykernels._run_sum(terms, starts, weights)
        assert [_bits(t) for t in got] == \
            [_bits(t) for t in _segment_sums(terms, starts, weights)]

    @pytest.mark.parametrize("top", [0, 1])
    def test_top_block_at_the_guard(self, top):
        # at E = 2045 - width every half stays finite; one binade higher
        # the run path leaves every segment of the call to math.fsum
        terms, starts, weights = _segmented(["plain", "top", "mixed"], 5, 0,
                                            top)
        got = pykernels._run_sum(terms, starts, weights)
        want = _segment_sums(terms, starts, weights)
        assert (got is None) == bool(top)
        assert math.isfinite(want[1])
        assert [_bits(t) for t in pykernels._exact_sums(terms, starts,
                                                        weights)] == \
            [_bits(t) for t in want]
        for total, w in zip(got or [], want):
            assert _bits(total) == _bits(w)

    @pytest.mark.parametrize("spoil", ["unordered", "subnormal", "inf"])
    def test_one_ineligible_segment_leaves_the_call(self, spoil):
        # one spoilt segment among good ones: the run path returns None
        # for the call, and every segment is math.fsum of its terms
        terms, starts, weights = _segmented(["plain", "plain", "mixed",
                                             "low"], 3, 0)
        a, b = starts[1], starts[2]
        if spoil == "unordered":    # an interior swap
            assert terms[a + 1] < terms[a + 2] and a + 2 < b - 1
            terms[a + 1], terms[a + 2] = terms[a + 2], terms[a + 1]
        elif spoil == "subnormal":    # the segment stays ascending
            terms[a] = 5e-324
        else:
            terms[b - 1] = math.inf
        assert pykernels._run_sum(terms, starts, weights) is None
        assert [_bits(t) for t in pykernels._exact_sums(terms, starts,
                                                        weights)] == \
            [_bits(t) for t in _segment_sums(terms, starts, weights)]


def _directions(terms, starts):
    """Each segment's direction: 1 if its first term is below its last, -1
    if above, 0 if they are equal."""
    ends = [*starts[1:], len(terms)]
    return [int(np.sign(terms[b - 1] - terms[a]))
            for a, b in zip(starts, ends)]


def _packed(parts):
    """The segments ``parts`` packed into one array, and their starts."""
    return (np.concatenate(parts),
            np.cumsum([0] + [len(x) for x in parts[:-1]]))


class TestMixedDirections:
    """The segments of one call are sorted in one direction: all falling,
    they take the blocks as rising ones do, with the bits of ``math.fsum``
    of their repeated terms.  A call that holds both rising and falling
    segments, or a segment unordered inside it, returns None, and
    ``_exact_sums`` gives every segment the bits of its ``math.fsum``."""

    @given(st.lists(st.sampled_from(KINDS), min_size=2, max_size=7),
           st.integers(0, 2**32 - 1), st.integers(0, WEIGHT),
           st.lists(st.booleans(), min_size=7, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_reversed_segments(self, kinds, seed, cut, flips):
        terms, starts, weights = _segmented(kinds, seed, cut)
        ends = [*starts[1:], len(terms)]
        for a, b, flip in zip(starts, ends, flips):
            if flip:
                terms[a:b] = terms[a:b][::-1].copy()
        got = pykernels._run_sum(terms, starts, weights)
        want = _segment_sums(terms, starts, weights)
        assert (got is None) == ({1, -1} <= set(_directions(terms, starts)))
        if got is not None:
            assert [total is None for total in got] == \
                [w == 0.0 for w in want]
            assert [_bits(t) for t in got if t is not None] == \
                [_bits(w) for w in want if w != 0.0]
        assert [_bits(t) for t in pykernels._exact_sums(terms, starts,
                                                        weights)] == \
            [_bits(w) for w in want]

    def test_weighted_hand_built_segments(self):
        # rising and falling segments: positive, negative, across both
        # signs with zeros between them, over 60 binades, a constant one
        # and a single term; each direction alone takes the blocks, both in
        # one call go to math.fsum
        rising = [np.linspace(1.0, 3.0, 500),
                  np.linspace(-2.0, 5.0, 301),
                  np.geomspace(1e-3, 1e3, 700),
                  np.full(50, 0.75)]
        falling = [np.geomspace(1e9, 1e-9, 400),
                   -np.geomspace(1e-5, 1e5, 300),
                   np.concatenate([np.linspace(3.0, 0.5, 200), [0.0, -0.0],
                                   -np.linspace(0.5, 9.0, 250)]),
                   np.array([4.0])]
        rng = np.random.default_rng(21)
        for parts in (rising, falling, rising[:2] + falling + rising[2:]):
            terms, starts = _packed(parts)
            weights = _weights(rng.integers(1, WEIGHT + 1, len(terms)))
            want = [_bits(w) for w in _segment_sums(terms, starts, weights)]
            got = pykernels._run_sum(terms, starts, weights)
            if parts is rising or parts is falling:
                assert [_bits(t) for t in got] == want
            else:
                assert got is None
            assert [_bits(t) for t in pykernels._exact_sums(
                terms, starts, weights)] == want

    @pytest.mark.parametrize("spoil", ["swap", "equal-ends"])
    def test_unordered_segment_leaves_the_call(self, spoil):
        # between two rising segments, one with an interior swap, or whose
        # end terms are equal but whose interior varies
        middle = np.linspace(1.0, 2.0, 600)
        parts = [np.linspace(0.5, 7.0, 800), middle,
                 np.linspace(3.0, 9.0, 700)]
        terms, starts = _packed(parts)
        weights = _weights(np.ones(len(terms)))
        assert pykernels._run_sum(terms, starts, weights) is not None
        a = starts[1]
        if spoil == "swap":
            terms[a + 300], terms[a + 301] = terms[a + 301], terms[a + 300]
        else:
            terms[a] = terms[starts[2] - 1]
        assert pykernels._run_sum(terms, starts, weights) is None
        assert [_bits(t) for t in pykernels._exact_sums(terms, starts,
                                                        weights)] == \
            [_bits(w) for w in _segment_sums(terms, starts, weights)]

    def test_riesz_sums_with_both_signs_of_sigma(self, monkeypatch):
        # one sigma per z, negative (terms that rise along the spectrum)
        # and positive (terms that fall) in turn: every row has the bits of
        # its math.fsum, and the packed calls that mix both directions are
        # the ones left to math.fsum
        spec_lams = np.sort(np.concatenate([
            (np.arange(1, 60)[:, None] ** 2
             + np.arange(1, 60)[None, :] ** 2).ravel() * 9.87,
            np.geomspace(25.0, 3e4, 400)]))
        runs = pykernels.runs_of(spec_lams)
        zs = np.linspace(100.0, 34000.0, 40) + 0.5
        assert not np.isin(zs, spec_lams).any()
        sigmas = [(-0.75, 0.5, -0.25, 1.0, 2.5, -0.5, 2.0, 0.0)[i % 8]
                  for i in range(len(zs))]
        calls = []
        run_sum = pykernels._run_sum

        def watched(terms, starts, weights):
            sums = run_sum(terms, starts, weights)
            calls.append(({1, -1} <= set(_directions(terms, starts)),
                          sums is None))
            return sums

        monkeypatch.setattr(pykernels, "_run_sum", watched)
        got = pykernels.riesz_grid(runs, [sigmas], zs.tolist())[0]
        want = [math.fsum(np.power(z - spec_lams[spec_lams < z], s).tolist())
                if s else float(np.count_nonzero(spec_lams < z))
                for s, z in zip(sigmas, zs.tolist())]
        assert [_bits(v) for v in got] == [_bits(w) for w in want]
        assert (True, True) in calls
        assert all(mixed == left for mixed, left in calls)


class TestDenseRuns:
    """Where most terms start a run (or a segment), each run is a block of
    its own, and ``_run_sum`` still gives the bits of ``math.fsum`` in
    their order; spectrum sums, whose runs are few, always take the
    blocks."""

    WIDE = np.sort(np.ldexp(np.random.default_rng(3).uniform(0.5, 1.0, 2000),
                            np.arange(-1000, 1000)))

    @pytest.mark.parametrize("order", ["ascending", "descending",
                                       "negative"])
    def test_2000_binades(self, order):
        terms = {"ascending": self.WIDE, "descending": self.WIDE[::-1].copy(),
                 "negative": -self.WIDE}[order]
        assert _bits(_run_one(terms)) == _bits(math.fsum(terms.tolist()))
        _assert_same(terms)

    def test_weighted_segments_and_a_zero(self):
        # weighted segments over many binades each, one across both signs
        # and one that cancels to an exact zero (None, left to math.fsum
        # of the terms for the sign of the zero)
        rng = np.random.default_rng(5)
        parts = [self.WIDE[:700],
                 np.sort(np.concatenate([-self.WIDE[900:1300:2],
                                         self.WIDE[1000:1400:2]])),
                 np.concatenate([-self.WIDE[1500:1700][::-1],
                                 self.WIDE[1500:1700]]),
                 self.WIDE[100:400]]
        terms = np.concatenate(parts)
        m = rng.integers(1, WEIGHT + 1, len(terms))
        m[1100:1500] = 3    # the cancelling segment
        weights = _weights(m)
        starts = np.cumsum([0] + [len(x) for x in parts[:-1]])
        got = pykernels._run_sum(terms, starts, weights)
        want = _segment_sums(terms, starts, weights)
        assert [total is None for total in got] == [False, False, True,
                                                    False]
        for total, w in zip(got, want):
            if total is not None:
                assert _bits(total) == _bits(w)
        assert [_bits(t) for t in pykernels._exact_sums(terms, starts,
                                                        weights)] == \
            [_bits(t) for t in want]

    def test_default_suite_and_a_large_sum_take_the_blocks(self,
                                                          monkeypatch):
        # every run-path call of the default verify suite, and of one Riesz
        # mean and one means query on 10^5 eigenvalues (a large_queries
        # sum, scaled down), sums by blocks: none leaves its segments to
        # math.fsum
        from rieszbounds import riesz, spectra, verify
        left = []
        run_sum = pykernels._run_sum

        def watched(*args):
            sums = run_sum(*args)
            left.append(sums is None)
            return sums

        monkeypatch.setattr(pykernels, "_run_sum", watched)
        verify.run_suite(verify.default_spectra())
        square = spectra.box_spectrum([1.0, 1.0], 1.3e6)
        for sigma in (0.5, 1.0, 2.0):
            riesz.riesz_mean(square, sigma, 0.95 * 1.3e6)
        riesz.means(square, len(square) // 2, [0.5, 1.5])
        assert left and not any(left)


class TestWeightedFallback:
    """Weighted input the run path leaves goes to ``math.fsum`` of the
    repeated terms."""

    @pytest.mark.parametrize("x", [
        np.sort(np.ldexp(0.75, np.arange(-1070, -900))),       # subnormal
        np.linspace(1e300, 1.7e308, 300),                      # overflow
        np.sort(np.concatenate([np.linspace(1.0, 2.0, 200),    # a zero
                                -np.linspace(1.0, 2.0, 200)])),  # total
        np.concatenate([np.linspace(1.0, 2.0, 200),            # unsorted
                        -np.linspace(1.0, 2.0, 200)]),
    ], ids=["subnormal", "near-overflow", "zero-total", "unsorted"])
    def test_ineligible_input_falls_back(self, x):
        m = np.full(len(x), WEIGHT)
        assert _assert_weighted(x, _weights(m)) is None

    def test_near_overflow_by_weight_alone(self):
        # 1024 terms far from overflow whose weighted sum is not
        x = np.full(1024, 2.0**1010)
        assert _assert_weighted(x, _weights(np.full(1024, WEIGHT))) is None

    def test_short_input_is_summed_by_fsum(self):
        x = np.linspace(1.0, 2.0, 9)
        weights = _weights(np.full(9, 100))
        assert _count(weights) < SMALL
        _assert_weighted(x, weights)
        assert _bits(pykernels._exact_sums(x, [0], weights)[0]) == \
            _bits(math.fsum(_repeated(x, weights)))


class TestRuns:
    """``runs_of`` keeps each value once with its multiplicity, a run
    longer than ``_RUN_WEIGHT`` in pieces, and the kernels sum the runs as
    they sum the array."""

    @pytest.mark.parametrize("size", [WEIGHT - 1, WEIGHT, WEIGHT + 1,
                                      RUN_BLOCK - 1, RUN_BLOCK,
                                      RUN_BLOCK + 1, 19305])
    def test_runs_at_and_over_the_bound(self, size):
        lams = np.repeat([1.5, 2.0, 2.0 + 2**-51, 7.25], [3, size, 1, size])
        runs = pykernels.runs_of(lams)
        assert np.array_equal(np.repeat(runs.values, runs.weights), lams)
        assert runs.weights.max() <= WEIGHT
        assert runs.offsets.tolist() == \
            [0, *np.cumsum(runs.weights).tolist()]
        assert len(runs.values) == 2 + 2 * -(-size // WEIGHT)
        for k in (1, 3, 4, size, size + 3, size + 4, len(lams)):
            for p in (0.5, 2.0):
                assert _bits(pykernels.power_sum(runs, k, p)) == \
                    _bits(math.fsum(np.power(lams[:k], p).tolist()))
        for z in (2.0, 2.5, 8.0):
            for sigma in (0.5, 2.5):
                got = pykernels.riesz_sum(runs, sigma, z)
                below = lams[lams < z]
                assert got[1] == len(below)
                assert _bits(got[0]) == _bits(
                    math.fsum(np.power(z - below, sigma).tolist()))

    def test_cut_run_of_the_3_ball(self, monkeypatch):
        # the unit 3-ball below 6000 holds lambda = 5212.808... 129 times,
        # cut into pieces of 128 and 1 at offset 25,338: a Riesz sum just
        # above it ends at a run's end and sums the cached weights
        # themselves, a head sum inside the run sums a copy cut at k
        from rieszbounds import riesz, spectra
        spec = spectra.ball_spectrum(3, 1.0, 6000.0)
        ev = spec.eigenvalues
        runs = riesz._runs(spec)
        piece = int(np.flatnonzero(runs.offsets == 25338)[0])
        lam = float(runs.values[piece])
        assert runs.weights[piece:piece + 2].tolist() == [WEIGHT, 1]
        assert runs.values[piece + 1] == lam == pytest.approx(5212.808)
        summed = []
        exact_sums = pykernels._exact_sums

        def spy(terms, starts, weights):
            summed.append(weights[0])
            return exact_sums(terms, starts, weights)

        monkeypatch.setattr(pykernels, "_exact_sums", spy)
        z = math.nextafter(lam, math.inf)
        value, count = pykernels.riesz_sum(runs, 1.5, z)
        assert count == 25338 + 129
        assert _bits(value) == _bits(
            math.fsum(np.power(z - ev[:count], 1.5).tolist()))
        assert np.shares_memory(summed[-1], runs.weights)
        k = 25338 + 60
        value = pykernels.head_sum(runs, k, lambda values: values * values)
        assert _bits(value) == _bits(math.fsum((ev[:k] * ev[:k]).tolist()))
        assert not np.shares_memory(summed[-1], runs.weights)
        assert summed[-1][-1] == 60

    def test_equal_means_equal_bits(self):
        runs = pykernels.runs_of([-0.0, 0.0, 0.0, 1.0])
        assert runs.weights.tolist() == [1, 2, 1]
        assert [math.copysign(1.0, v) for v in runs.values[:2]] == \
            [-1.0, 1.0]

    def test_empty(self):
        runs = pykernels.runs_of([])
        assert len(runs.values) == len(runs.weights) == 0
        assert runs.offsets.tolist() == [0]
        assert pykernels.power_sum(runs, 3, 2.0) == 0.0
        assert pykernels.riesz_sum(runs, 1.0, 2.0) == (0.0, 0)


@pytest.fixture(scope="module", params=["ball10", "ball3", "square"])
def repeated_spectrum(request):
    """Spectra with repeated eigenvalues: the unit 10-ball below 300
    (38,532 eigenvalues, 18 distinct, one of multiplicity 19,305), the
    unit 3-ball below 2000 and the unit square below 5000."""
    from rieszbounds import spectra
    return {"ball10": lambda: spectra.ball_spectrum(10, 1.0, 300.0),
            "ball3": lambda: spectra.ball_spectrum(3, 1.0, 2000.0),
            "square": lambda: spectra.box_spectrum([1.0, 1.0], 5000.0),
            }[request.param]()


class TestSpectrumSums:
    """Riesz means, rows of them and every field of ``means`` equal
    ``math.fsum`` of the terms of all n eigenvalues, on spectra with
    repeated eigenvalues and on their corrupted twins."""

    SIGMAS = [-0.75, -0.5, 0.0, 0.25, 0.5, 1.0, 2.5, 5.0]
    ORDERS = [0.25, 0.5, 1.0, 1.5, 2.0]

    @pytest.fixture(params=["genuine", "twin"])
    def spec(self, request, repeated_spectrum):
        from rieszbounds import verify
        if request.param == "twin":
            return verify.corrupt_spectrum(repeated_spectrum)
        return repeated_spectrum

    @staticmethod
    def _fsum(terms):
        return _bits(math.fsum(terms.tolist()))

    def test_riesz_values_and_rows(self, spec):
        from rieszbounds import riesz, verify
        ev = spec.eigenvalues
        zs = verify.z_grid(spec, verify.VerifyConfig(z_points=40))
        for sigma in self.SIGMAS:
            want = [self._fsum(np.power(z - ev[ev < z], sigma)) for z in zs]
            assert [_bits(v) for v in riesz.riesz_grid(spec, [sigma],
                                                       zs)[0]] == want
            for z, bits in list(zip(zs, want))[::5]:
                value, count = riesz.riesz_value(spec, sigma, z)
                assert count == np.count_nonzero(ev < z)
                assert _bits(value) == bits

    def test_means_fields(self, spec):
        from rieszbounds import riesz
        ev = spec.eigenvalues
        n = len(ev)
        offsets = riesz._runs(spec).offsets
        ks = {1, 2, n // 3, n // 2, n - 1, n}
        for r in (1, 2, len(offsets) // 2, len(offsets) - 2):
            ks |= {int(offsets[r]) - 1, int(offsets[r]), int(offsets[r]) + 1}
        for k in sorted(k for k in ks if 1 <= k <= n):
            m = riesz.means(spec, k, self.ORDERS)
            head = ev[:k]
            assert _bits(m.mean) == _bits(math.fsum(head.tolist()) / k)
            assert _bits(m.mean_sq) == \
                _bits(math.fsum(np.power(head, 2.0).tolist()) / k)
            for s in self.ORDERS:
                assert _bits(m.power_means[s]) == _bits(
                    (math.fsum(np.power(head, s).tolist()) / k) ** (1 / s))
            assert _bits(m.geometric) == _bits(math.exp(
                math.fsum([math.log(x) for x in head.tolist()]) / k))
            assert _bits(m.harmonic) == _bits(k / math.fsum(
                (1.0 / head).tolist()))
