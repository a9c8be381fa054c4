"""Exact summation: ``exact_sum`` must return the bits of ``math.fsum`` and
``prefix_sums`` those of the Shewchuk reference, on every path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszbounds._kernels import pykernels

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


class TestPrefixSums:
    def test_longer_than_two_chunks_matches_shewchuk(self):
        rng = np.random.default_rng(11)
        lams = np.sort(rng.uniform(19.7, 1.3e7, 2 * CHUNK + 1001))
        for terms in (lams, np.power(lams, 2.0)):
            fast = pykernels.prefix_sums(terms)
            ref = pykernels._shewchuk_prefix_sums(terms)
            assert np.array_equal(fast.view(np.int64), ref.view(np.int64))
            for i in (0, CHUNK - 1, CHUNK, 2 * CHUNK, len(terms) - 1):
                assert fast[i] == math.fsum(terms[:i + 1].tolist())

    @pytest.mark.parametrize("terms", [
        [3.0, -1.0, 2.5, 0.0, 1e-3],               # non-positive values
        [1e-320, 1.0, 2.0],                        # subnormal
        [1e-300, 1e300, 1.0],                      # exponent span too wide
        [1.7e308, 1.7e308],                        # overflowing prefix
    ])
    def test_fallback_domain_matches_shewchuk(self, terms):
        def outcome(fn):
            try:
                return fn(np.asarray(terms)).tolist()
            except (OverflowError, ValueError) as exc:
                return type(exc)

        assert outcome(pykernels.prefix_sums) == \
            outcome(pykernels._shewchuk_prefix_sums)

    def test_empty(self):
        assert len(pykernels.prefix_sums(np.empty(0))) == 0
