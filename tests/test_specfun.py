"""Special-function kernel: values against independent oracles (mpmath and
the closed-form half-integer recurrence), zero residuals, and domain gates."""

import concurrent.futures
import contextlib
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszbounds import bounds, specfun, spectra, verify
from rieszbounds.errors import ConvergenceError, DomainError

from oracles import bessel_j_half_integer, bessel_j_prime, mcmahon_asymptote

mpmath.mp.dps = 30


class TestGamma:
    def test_integer_factorials(self):
        for n in range(1, 15):
            assert specfun.gamma(n) == pytest.approx(
                math.factorial(n - 1), rel=1e-13)

    def test_half_integer(self):
        assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi),
                                                   rel=1e-14)
        assert specfun.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2,
                                                   rel=1e-14)

    @given(st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_against_mpmath(self, x):
        assert specfun.gamma(x) == pytest.approx(
            float(mpmath.gamma(x)), rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=49.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert specfun.gamma(x + 1) == pytest.approx(
            x * specfun.gamma(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.gamma(0.0)
        with pytest.raises(DomainError):
            specfun.gamma(-1.5)


class TestBesselJ:
    @given(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 7.0, 12.5]),
           st.floats(min_value=1e-3, max_value=60.0))
    @settings(max_examples=300, deadline=None)
    def test_against_mpmath(self, nu, x):
        assert specfun.bessel_j(nu, x) == pytest.approx(
            float(mpmath.besselj(nu, x)), abs=1e-12)

    @given(st.sampled_from([0.5, 1.5, 2.5, 3.5, 4.5]),
           st.floats(min_value=0.5, max_value=40.0))
    @settings(max_examples=200, deadline=None)
    def test_against_half_integer_closed_form(self, nu, x):
        assert specfun.bessel_j(nu, x) == pytest.approx(
            bessel_j_half_integer(nu, x), abs=1e-10)

    @given(st.sampled_from([0.0, 1.0, 2.5, 5.0]),
           st.floats(min_value=0.1, max_value=40.0))
    @settings(max_examples=100, deadline=None)
    def test_prime_against_finite_difference(self, nu, x):
        h = 1e-6
        fd = (specfun.bessel_j(nu, x + h) - specfun.bessel_j(nu, x - h)) \
            / (2 * h)
        assert bessel_j_prime(nu, x) == pytest.approx(fd, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.bessel_j(-1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.bessel_j(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_j_half_integer(1.0, 2.0)

    @pytest.mark.parametrize("nu, x, name", [
        (math.nan, 1.0, "nu"), (1.0, math.nan, "x"),
        (math.nan, math.nan, "nu")])
    def test_nan_is_refused(self, nu, x, name):
        with pytest.raises(DomainError, match=f"requires {name} >="):
            specfun.bessel_j(nu, x)


class TestBesselZeros:
    def test_first_zeros_reference(self):
        # classical reference values
        assert specfun.bessel_zero(0.0, 1).value == pytest.approx(
            2.404825557695773, abs=1e-10)
        assert specfun.bessel_zero(1.0, 1).value == pytest.approx(
            3.831705970207512, abs=1e-10)
        assert specfun.bessel_zero(0.0, 2).value == pytest.approx(
            5.520078110286311, abs=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 10.0, 38.5])
    def test_against_mpmath_oracle(self, nu):
        for p in (1, 2, 5, 10):
            ours = specfun.bessel_zero(nu, p).value
            oracle = float(mpmath.besseljzero(nu, p))
            assert ours == pytest.approx(oracle, abs=1e-9)

    def test_residual_small(self):
        for nu in (0.0, 3.0, 17.5):
            for p in (1, 4, 9):
                z = specfun.bessel_zero(nu, p).value
                assert abs(specfun.bessel_j(nu, z)) <= \
                    specfun.RESIDUAL_TOL * max(
                        1.0, abs(bessel_j_prime(nu, z)))

    def test_zeros_interlace_and_separate(self):
        zeros = [specfun.bessel_zero(2.0, p).value for p in range(1, 20)]
        gaps = [b - a for a, b in zip(zeros, zeros[1:])]
        assert all(g > math.pi / 2 for g in gaps)

    def test_mcmahon_asymptote_approached(self):
        errs = [abs(specfun.bessel_zero(1.0, p).value
                    - mcmahon_asymptote(1.0, p))
                for p in (5, 20, 80)]
        assert errs[0] > errs[1] > errs[2]
        # leading correction is (4 nu^2 - 1)/(8 x) ~ 1.5e-3 at p = 80
        assert errs[2] < 2e-3

    def test_concurrent_access_consistent(self):
        def grab(p):
            return specfun.bessel_zero(6.0, p).value

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(grab, [((i * 7) % 30) + 1
                                           for i in range(120)]))
        for i, p in enumerate([((i * 7) % 30) + 1 for i in range(120)]):
            assert results[i] == specfun.bessel_zero(6.0, p).value

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.bessel_zero(-0.75, 1)
        with pytest.raises(DomainError):
            specfun.bessel_zero(0.0, 0)

    @pytest.mark.parametrize("p", [2.0, 1.5, math.nan, math.inf,
                                   np.float64(3.0), "2", None])
    def test_non_integer_p_fails_before_any_bessel_evaluation(
            self, p, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("J evaluated before the p check")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError, match="integer p"):
            specfun.bessel_zero(0.0, p)

    def test_integer_like_p_is_stored_as_int(self):
        zero = specfun.bessel_zero(0.0, np.int64(3))
        assert type(zero.index) is int
        assert zero == specfun.bessel_zero(0.0, 3)

    @pytest.mark.parametrize("nu, p", [
        (2.0 ** 20, 1), (1e8, 1), (1e17, 1), (1e300, 1),
        (0.0, 700_000), (0.0, 10**18), (5e5, 400_000)])
    def test_zero_past_2_20_fails_before_any_bessel_evaluation(
            self, nu, p, monkeypatch):
        # max(nu, 0) + (p - 1) pi/2 <= j_{nu,p} reaches 2^20, where one ulp
        # exceeds 1e-10; the scan step would also stop moving past 2^52
        def no_bessel(*args):
            raise AssertionError("J evaluated before the range check")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError, match=r"< 2\^20"):
            specfun.bessel_zero(nu, p)

    @pytest.mark.parametrize("p", [333_773, 340_000])
    def test_zero_past_2_20_by_the_order_minus_one_half(
            self, p, monkeypatch, fresh_zero_cache):
        # j_{0,p} >= j_{-1/2,p} = (p - 1/2) pi reaches 2^20 from p = 333,773
        # on, where max(nu, 0) + (p - 1) pi/2 is still near 5.2e5; the scan
        # of order 0 through every zero below 2^20 took half a minute
        def no_bessel(*args):
            raise AssertionError("J evaluated before the range check")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError, match=r"\(p - 1/2\) pi < 2\^20"):
            specfun.bessel_zero(0.0, p)
        assert fresh_zero_cache == {}


def _first(nu, count):
    """The first ``count`` zeros of J_nu, read as ``bounds --bessel-zeros``
    reads them: zero ``count``, then the zeros up to it."""
    last = specfun.bessel_zero(nu, count).value
    return list(specfun.bessel_zeros(nu, math.nextafter(last, math.inf)))


def _zeros_through(nu, x_max):
    """Zeros of J_nu below x_max, followed by the first one at or above it."""
    zeros = []
    while not zeros or zeros[-1] < x_max:
        zeros.append(specfun.bessel_zero(nu, len(zeros) + 1).value)
    return zeros


@pytest.fixture
def fresh_zero_cache(monkeypatch):
    """An empty zero cache, so each test picks the finder's path itself."""
    cache = {}
    monkeypatch.setattr(specfun, "_zero_cache", cache)
    return cache


class TestBesselZeroAccuracy:
    """Zeros at large p and nu within 1e-10 absolute of a 30-digit root."""

    X_MAX = 320.0
    P_MAX = 100

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 49.5, 150.0, 299.0])
    def test_large_p_and_nu_against_mpmath(self, nu, fresh_zero_cache):
        # order nu from an empty cache, and again after orders nu-3 .. nu-1
        # were filled first
        alone = _zeros_through(nu, self.X_MAX)
        fresh_zero_cache.clear()
        for k in (3, 2, 1):
            if nu - k >= -0.5:
                _zeros_through(nu - k, self.X_MAX)
        after = _zeros_through(nu, self.X_MAX)
        assert len(after) == len(alone)
        for p, ours in enumerate(alone[:self.P_MAX], start=1):
            if ours >= self.X_MAX:
                break
            ref = mpmath.findroot(lambda x: mpmath.besselj(nu, x),
                                  mpmath.mpf(ours))
            assert abs(float(ref) - ours) <= 1e-10, (nu, p, "alone")
            assert abs(float(ref) - after[p - 1]) <= 1e-10, \
                (nu, p, "after")

    @pytest.mark.parametrize("first_order", [0.0, -0.5])
    def test_interlacing_over_whole_ranges(self, first_order,
                                           fresh_zero_cache):
        # j_{nu,p} < j_{nu+1,p} < j_{nu,p+1} (DLMF 10.21(i)) and gaps > pi/2:
        # a skipped or repeated zero breaks one of them
        x_max = 320.0
        orders = np.arange(first_order, x_max, 1.0)
        table = [np.array(_zeros_through(nu, x_max)) for nu in orders]
        for nu, zeros in zip(orders, table):
            assert np.all(np.diff(zeros) > math.pi / 2), nu
        for nu, lo, hi in zip(orders, table, table[1:]):
            m = min(len(lo), len(hi))
            assert np.all(lo[:m] < hi[:m]), nu
            assert np.all(hi[:m - 1] < lo[1:m]), nu
            below = (np.sum(lo < x_max), np.sum(hi < x_max))
            assert below[1] in (below[0] - 1, below[0]), nu


class TestBlockEdge:
    """Zeros on both sides of the chain root at 512, and on chains rooted at
    orders that are not integers or half-integers, within 1e-10 absolute of
    a 30-digit root."""

    @staticmethod
    def _check(nu, zeros):
        for p, ours in enumerate(zeros, start=1):
            ref = mpmath.findroot(lambda x: mpmath.besselj(nu, x),
                                  mpmath.mpf(ours))
            assert abs(float(ref) - ours) <= 1e-10, (nu, p)

    def test_first_20_zeros_across_the_root_at_512(self, fresh_zero_cache):
        # orders 510 and 511 (510.5 and 511.5) end the chains rooted at 0
        # (1/2); 512 (512.5) is a root, and 513, 514 (513.5) are batched
        # from it.  Every j_{nu,20} lies below 665.
        for nu in (510.0, 511.0, 512.0, 513.0, 514.0,
                   510.5, 511.5, 512.5, 513.5):
            zeros = list(specfun.bessel_zeros(nu, 665.0))[:20]
            assert len(zeros) == 20, nu
            self._check(nu, zeros)

    @pytest.mark.parametrize("nu", [0.3, 1.3, 2.3, 0.7, 1.7])
    def test_first_20_zeros_of_fractional_chains(self, nu,
                                                 fresh_zero_cache):
        self._check(nu, [specfun.bessel_zero(nu, p).value
                         for p in range(1, 21)])


@contextlib.contextmanager
def _own_zero_cache():
    """An empty zero cache for the block, and empty memos of the bounds
    that read it; both are emptied again after it."""
    memos = (bounds.first_zero_sq, bounds.H_d, bounds.fk_coeff,
             bounds.ab_ratio)
    saved = specfun._zero_cache
    specfun._zero_cache = {}
    for memo in memos:
        memo.cache_clear()
    try:
        yield
    finally:
        specfun._zero_cache = saved
        for memo in memos:
            memo.cache_clear()


#: orders of every chain the library's balls and bounds use, and a few more
_ORDERS = [-0.5, 0.0, 0.3, 0.5, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0,
           6.0, 7.5]
_CALLS = st.one_of(
    st.tuples(st.just("bessel_zero"), st.sampled_from(_ORDERS),
              st.integers(1, 15)),
    st.tuples(st.just("bessel_zeros"), st.sampled_from(_ORDERS),
              st.integers(1, 15)),
    st.tuples(st.just("bessel_zeros_below"), st.sampled_from(_ORDERS),
              st.floats(1.0, 50.0)),
    st.tuples(st.just("bounds"), st.integers(1, 10)),
    st.tuples(st.just("ball_spectrum"), st.integers(2, 5),
              st.floats(50.0, 3000.0)))


def _call(call):
    """What one call of ``_CALLS`` returns, as bits that compare with ==;
    the memos of the bounds are emptied first."""
    kind, *args = call
    if kind == "bessel_zero":
        return specfun.bessel_zero(*args).value
    if kind == "bessel_zeros":
        return _first(*args)
    if kind == "bessel_zeros_below":
        return list(specfun.bessel_zeros(*args))
    if kind == "bounds":
        for memo in (bounds.first_zero_sq, bounds.H_d, bounds.ab_ratio):
            memo.cache_clear()
        return bounds.H_d(*args), bounds.ab_ratio(*args)
    d, lam_max = args
    return spectra.ball_spectrum(d, 1.0, lam_max).eigenvalues.tobytes()


class TestHistoryIndependence:
    """A zero's bits depend on its order and index alone: after any calls,
    every zero and every ball has the bits it gets from an empty cache."""

    @given(st.lists(_CALLS, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_call_sequences(self, calls):
        with _own_zero_cache():
            got = [_call(call) for call in calls]
        for call, value in zip(calls, got):
            with _own_zero_cache():
                assert _call(call) == value, call

    def test_default_spectra_after_the_bounds(self):
        with _own_zero_cache():
            fresh = verify.default_spectra()
        with _own_zero_cache():
            for d in range(1, 11):
                bounds.H_d(d), bounds.fk_coeff(d), bounds.ab_ratio(d)
            after = verify.default_spectra()
        for label, spec in fresh.items():
            assert (after[label].eigenvalues.tobytes()
                    == spec.eigenvalues.tobytes()), label

    def test_disk_and_ball4_in_either_order(self):
        # they share orders 1, 2, ...; the disk reaches order 1 from order 0,
        # and so does the 4-ball
        def build(dims):
            with _own_zero_cache():
                return {d: spectra.ball_spectrum(d, 1.0, 3000.0)
                        .eigenvalues.tobytes() for d in dims}

        assert build([2, 4]) == build([4, 2])


class TestPast2To20:
    """No zero at or above 2^20, where one ulp exceeds 1e-10, is returned
    or cached, also when the lower bound max(nu, 0) + (p - 1) pi/2 passes."""

    def test_zero_of_order_just_below_2_20(self, fresh_zero_cache):
        # j_{2^20-1,1} ~ 2^20 + 187; its chain is rooted at 2^20 - 512
        with pytest.raises(DomainError, match=r"2\^20"):
            specfun.bessel_zero(2.0 ** 20 - 1.0, 1)
        assert fresh_zero_cache
        for zeros in fresh_zero_cache.values():
            assert all(z < 2.0 ** 20 for z in zeros)

    def test_root_stops_below_2_20(self, fresh_zero_cache):
        nu = 2.0 ** 20 - 512.0
        zeros = list(specfun.bessel_zeros(nu, 2.0 ** 20))
        assert 0 < len(zeros) == len(fresh_zero_cache[nu])
        assert zeros[-1] < 2.0 ** 20
        with pytest.raises(DomainError, match=r"2\^20"):
            specfun.bessel_zero(nu, len(zeros) + 1)
        with pytest.raises(DomainError, match=r"2\^20"):
            list(specfun.bessel_zeros(nu, math.nextafter(2.0 ** 20,
                                                         math.inf)))
        assert list(fresh_zero_cache[nu]) == zeros


class TestRootScanStart:
    """A chain root from 512 up starts each zero's scan at the last point
    of its half-step grid at or below Qu and Wong's lower bound on the
    zero; only points with no zero below them are passed, so each zero
    keeps the bracket, the secant start and the bits of a scan from the
    previous zero (or from nu)."""

    @pytest.mark.parametrize("nu, bits", [
        (512.0, "0x1.077cd30609e94p+9"), (1000.0, "0x1.fd5497bf5fdb4p+9"),
        (2047.5, "0x1.02e4acc06120bp+11")])
    def test_first_zero_bits(self, nu, bits, fresh_zero_cache):
        assert specfun.bessel_zero(nu, 1).value == float.fromhex(bits)


def _root_30_digits(nu, p):
    """j_{nu,p} to 30 digits.  J_{-1/2}(x) = sqrt(2 / (pi x)) cos x; for
    orders 511 and 512, where ``mpmath.besseljzero`` takes about a minute,
    scipy's ``jn_zeros`` finds and indexes the zero, and mpmath polishes it."""
    if nu == -0.5:
        return mpmath.pi * (p - 0.5)
    if nu < 500:
        return mpmath.besseljzero(nu, p)
    start = mpmath.mpf(scipy.special.jn_zeros(int(nu), p)[-1])
    return mpmath.findroot(lambda x: mpmath.besselj(nu, x), start)


class TestZeroBound:
    """``_zero_bound`` lies above j_{nu,p}, and within 3 % of it above
    nu = 1/2; a bound that fell short raises instead of giving a zero."""

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.3, 0.5, 0.5001, 0.75, 1.0,
                                    3.0, 7.0, 40.0, 100.0, 511.0, 512.0])
    def test_against_mpmath(self, nu):
        for p in (1, 2, 3, 10, 40, 1000):
            root = _root_30_digits(nu, p)
            bound = specfun._zero_bound(nu, p)
            assert bound > root, (nu, p)
            if nu > 0.5:
                assert bound < 1.03 * root, (nu, p)

    def test_bound_that_fell_short_raises(self, fresh_zero_cache,
                                          monkeypatch):
        # (p - 1/2) pi lies below j_{0,p}: zero p is not found below it
        monkeypatch.setattr(specfun, "_zero_bound",
                            lambda nu, p: (p - 0.5) * math.pi)
        with pytest.raises(ConvergenceError, match="zero 3 of J_0.0"):
            specfun.bessel_zero(0.0, 3)


class TestChainZeros:
    """``chain_zeros`` bounds the zeros that taking p zeros of each order
    finds from an empty cache, chains included, within twice them."""

    @pytest.mark.parametrize("orders, p", [
        ([7.0], 40), ([0.0, 0.5, 7.0], 40), ([7.0, 3.0, 0.0, 1.5], 12),
        ([2.0, 1.0, 0.0], 40), ([40.0], 3), ([513.5, 512.5], 5)])
    def test_bounds_the_zeros_found(self, orders, p, fresh_zero_cache):
        for nu in orders:
            assert len(_first(nu, p)) == p
        found = sum(len(zeros) for zeros in fresh_zero_cache.values())
        assert found <= specfun.chain_zeros(orders, p) <= 2 * found

    @pytest.mark.parametrize("nu, p", [(7.0, 40), (40.0, 3), (513.5, 5)])
    def test_is_the_chain_of_one_lone_zero(self, nu, p, fresh_zero_cache):
        # zero p of an order fills each order of its chain, and no other,
        # below the bound on it: each holds at most the count below that
        # bound, and the root one more, the first its scan finds past it
        specfun.bessel_zero(nu, p)
        bound = specfun._zero_bound(nu, p)
        root = nu - specfun._rank(nu)
        assert sorted(fresh_zero_cache) == [root + k for k in
                                            range(specfun._rank(nu) + 1)]
        for order, zeros in fresh_zero_cache.items():
            count = int(specfun._count_below(order, bound))
            assert len(zeros) <= count + (order == root), order
        found = sum(len(zeros) for zeros in fresh_zero_cache.values())
        assert found <= specfun.chain_zeros([nu], p) <= 2 * found

    def test_count_where_the_airy_term_overflows(self):
        # y^(3/2) leaves the float range, so the pi spacing bounds the count
        count = specfun._count_below(170.0, 1e250)
        assert count == pytest.approx(1e250 / math.pi, rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.75, math.nan, math.inf])
    def test_bad_order_raises(self, nu):
        with pytest.raises(DomainError):
            specfun.chain_zeros([0.0, nu], 1)

    @pytest.mark.parametrize("p, match", [
        (0, "p >= 1"), (-5, "p >= 1"), (1.5, "integer p"),
        (2.0, "integer p"), (math.nan, "integer p")])
    def test_bad_index_raises_before_any_bessel_evaluation(
            self, p, match, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("J evaluated before the p check")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError, match=match):
            specfun.chain_zeros([0.0], p)


class TestNewtonLanes:
    def test_lanes_finish_in_different_iterations(self):
        # lane 0 holds no zero and is narrower than the tolerance: it stops
        # in the first iteration at the midpoint of its updated bracket
        # (J_0 > 0 there, so a moves up to x); lane 1 goes on to j_{0,1}
        x0 = 1.0 + 2.5e-10
        out = specfun._newton(0.0, [1.0, 2.0], [1.0 + 5e-10, 3.0],
                              [x0, 2.5], [1.0, 1.0])
        assert out[0] == 0.5 * (x0 + (1.0 + 5e-10))
        assert out[1] == pytest.approx(2.404825557695773, abs=1e-12)
        alone = specfun._newton(0.0, [2.0], [3.0], [2.5], [1.0])
        assert out[1] == alone[0]


class TestZerosByOrder:
    """``bessel_zeros`` yields the values of repeated ``bessel_zero`` calls,
    bit for bit; read up to zero p, it leaves the zero cache as the calls
    for zeros 1 .. p leave it, and it finds no zero of a batched order at
    or above its bound."""

    @staticmethod
    def _cache_bits(cache):
        return [(nu, zeros.tobytes()) for nu, zeros in cache.items()]

    @pytest.mark.parametrize("orders", [[0.0], [7.5], [0.0, 1.0, 2.0],
                                        [-0.5, 0.5, 1.5, 2.5]])
    def test_matches_repeated_bessel_zero(self, orders, monkeypatch):
        count = 60
        calls = {}
        monkeypatch.setattr(specfun, "_zero_cache", calls)
        ref = [[specfun.bessel_zero(nu, p).value
                for p in range(1, count + 1)] for nu in orders]
        lazy = {}
        monkeypatch.setattr(specfun, "_zero_cache", lazy)
        got = [_first(nu, count) for nu in orders]
        assert got == ref
        # both end with each chain filled below the largest bound on a zero
        # 60 of its orders; the calls for zeros 1 .. 59 fill below less
        assert self._cache_bits(lazy) == self._cache_bits(calls)

    def test_finds_only_the_zeros_taken(self, fresh_zero_cache):
        # order 3.0 is filled below the bounds on its zeros 3 and 5, which
        # lie below its zeros 4 and 6, so no fill finds more zeros of it
        # than were asked for
        taken = _first(3.0, 3)
        assert list(fresh_zero_cache[3.0]) == taken
        assert _first(3.0, 5)[:3] == taken
        assert len(fresh_zero_cache[3.0]) == 5

    @pytest.mark.parametrize("nu", [-0.75, math.nan, math.inf, 2.0 ** 20,
                                    1e300])
    def test_bad_order_fails_before_any_bessel_evaluation(self, nu,
                                                          monkeypatch):
        def no_bessel(*args):
            raise AssertionError("J evaluated before the order check")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError):
            next(specfun.bessel_zeros(nu, 2.0 ** 20))
        with pytest.raises(DomainError):
            next(specfun.bessel_zeros(nu, 50.0))

    def test_order_past_2_20_fails_with_the_order_below_cached(
            self, fresh_zero_cache, monkeypatch):
        # order 2^20 - 1 holds every zero below 50 (none), so a bounded
        # fill of order 2^20 would need no J evaluation and find nothing
        assert list(specfun.bessel_zeros(2.0 ** 20 - 1.0, 50.0)) == []

        def no_bessel(*args):
            raise AssertionError("J evaluated before the order check")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError, match=r"< 2\^20"):
            next(specfun.bessel_zeros(2.0 ** 20, 50.0))

    @pytest.mark.parametrize("orders", [[0.0], [7.5], [0.0, 1.0, 2.0],
                                        [-0.5, 0.5, 1.5, 2.5]])
    @pytest.mark.parametrize("below", [60.0, 100.0])
    def test_bounded_matches_repeated_bessel_zero(self, orders, below,
                                                  monkeypatch):
        # the orders that are not chain roots are batched, each zero K
        # bracketed up to j_{nu-1,K+1} (an order just above a root, which
        # is scanned past the bound) or to max(below, j_{nu-1,K} + pi)
        calls = {}
        monkeypatch.setattr(specfun, "_zero_cache", calls)
        ref = [[v for v in _zeros_through(nu, 100.0) if v < below]
               for nu in orders]
        monkeypatch.setattr(specfun, "_zero_cache", {})
        got = [list(specfun.bessel_zeros(nu, below)) for nu in orders]
        assert got == ref

    @pytest.mark.parametrize("orders", [[0.0], [7.5], [0.0, 1.0, 2.0],
                                        [-0.5, 0.5, 1.5, 2.5]])
    def test_bound_at_a_zero_excludes_it(self, orders, monkeypatch):
        # each bound is the third zero of the last order, as repeated
        # bessel_zero calls find it
        calls = {}
        monkeypatch.setattr(specfun, "_zero_cache", calls)
        for nu in orders:
            ref = _zeros_through(nu, 20.0)
        for cache in (calls, {}):
            monkeypatch.setattr(specfun, "_zero_cache", cache)
            for nu in orders[:-1]:
                list(specfun.bessel_zeros(nu, ref[2]))
            assert list(specfun.bessel_zeros(orders[-1], ref[2])) == ref[:2]

    @pytest.mark.parametrize("orders", [[1.0], [0.0, 1.0], [0.5, 1.5, 2.5]])
    def test_bound_below_the_first_zero_yields_nothing(self, orders,
                                                       fresh_zero_cache):
        # j_{0,1} = 2.40, j_{1,1} = 3.83; j_{0.5,1} = pi, j_{1.5,1} = 4.49,
        # j_{2.5,1} = 5.76: the last order's first zero lies above 3.5
        for nu in orders[:-1]:
            list(specfun.bessel_zeros(nu, 3.5))
        assert list(specfun.bessel_zeros(orders[-1], 3.5)) == []
        assert list(specfun.bessel_zeros(orders[-1], 1e-300)) == []

    def test_smaller_bound_reads_the_cache(self, fresh_zero_cache,
                                           monkeypatch):
        for nu in (0.0, 1.0, 2.0):
            full = list(specfun.bessel_zeros(nu, 80.0))

        def no_bessel(*args):
            raise AssertionError("J evaluated for cached zeros")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        assert list(specfun.bessel_zeros(2.0, 40.0)) == \
            [v for v in full if v < 40.0]
        assert list(specfun.bessel_zeros(2.0, 80.0)) == full

    def test_concurrent_bounded_and_unbounded_calls(self, fresh_zero_cache):
        # cached zeros are only appended, so each bounded result must be
        # the zeros below its bound in the final cache
        tasks = [((i * 5) % 4 + 0.5, 20.0 + (i * 37) % 90) for i in range(160)]

        def grab(task):
            nu, below = task
            if below > 100.0:
                return specfun.bessel_zero(nu, int(below) - 100).value
            return list(specfun.bessel_zeros(nu, below))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(pool.map(grab, tasks, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for (nu, below), got in zip(tasks, results):
            zeros = list(fresh_zero_cache[nu])
            if below > 100.0:
                assert got == zeros[int(below) - 101]
            else:
                assert got == [v for v in zeros if v < below]

    @pytest.mark.parametrize("below", [math.nan, 0.0, -1.0, -math.inf,
                                       2.0 ** 20 + 1.0, math.inf])
    def test_bad_bound_fails_before_any_bessel_evaluation(self, below,
                                                          monkeypatch):
        def no_bessel(*args):
            raise AssertionError("J evaluated before the bound check")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError, match="below > 0"):
            next(specfun.bessel_zeros(0.0, below))


class TestOneBatchPath:
    """Every batched Newton pass goes through ``_fill_below``; a lone zero
    gets the bits and cache of the bounded fill below its upper bound."""

    def test_lone_zero_is_the_bounded_fill(self, monkeypatch):
        # order 0 holds every zero below 40 pi, so zero 39 of order 1 fills
        # order 1 below the bound on it, 39.25 pi, as the iteration does
        monkeypatch.setattr(specfun, "_zero_cache", {})
        _first(0.0, 40)
        order0 = specfun._zero_cache[0.0]
        bound = specfun._zero_bound(1.0, 39)
        filled = []
        for take in (lambda: _first(1.0, 39),
                     lambda: list(specfun.bessel_zeros(1.0, bound))):
            cache = {0.0: order0}
            monkeypatch.setattr(specfun, "_zero_cache", cache)
            filled.append((take(), cache[1.0].tobytes(), cache[1.0].bound))
        assert filled[0] == filled[1]
        assert len(filled[0][0]) == 39
        assert filled[0][2] == bound

    def test_newton_batches_only_in_fill_below(self, fresh_zero_cache,
                                               monkeypatch):
        depth = [0]
        batches = []
        fill_below, newton = specfun._fill_below, specfun._newton

        def filling(*args):
            depth[0] += 1
            try:
                return fill_below(*args)
            finally:
                depth[0] -= 1

        def counting(nu, a, *rest):
            if len(a) > 1:
                batches.append(depth[0])
            return newton(nu, a, *rest)

        monkeypatch.setattr(specfun, "_fill_below", filling)
        monkeypatch.setattr(specfun, "_newton", counting)
        for nu in (0.0, 1.0, 2.0, 0.5, 1.5):
            _first(nu, 40)
        spectra.ball_spectrum(3, 1.0, 2000.0)
        assert len(batches) > 0
        assert all(batches)


class TestZeroFinderCost:
    """J evaluations per zero, counted element-wise through specfun._jv."""

    @pytest.fixture
    def evaluations(self, monkeypatch, fresh_zero_cache):
        count = [0]
        jv = specfun._jv

        def counting(nu, x):
            count[0] += np.size(x)
            return jv(nu, x)

        monkeypatch.setattr(specfun, "_jv", counting)
        return count

    @pytest.mark.parametrize("p", [14, 100])
    def test_scanned_order_cost_per_zero(self, p, evaluations):
        specfun.bessel_zero(0.0, p)
        assert evaluations[0] <= 13.5 * p

    def test_interlaced_order_cost_per_zero(self, evaluations):
        # order 0 alone lies below: every start is a bracket midpoint
        _zeros_through(0.0, 100.0)
        evaluations[0] = 0
        n = len(_zeros_through(1.0, 100.0))
        assert evaluations[0] <= 7.5 * n

    def test_export_of_consecutive_orders(self, evaluations):
        # 1,067: order 0 is scanned through zero 41, just above 40.75 pi;
        # orders 1 and 2 are batched below 40.25 pi and 40.75 pi, the bounds
        # on their zeros 40, so no sign test decides whether zero 40 lies
        # below
        for nu in (0.0, 1.0, 2.0):
            _first(nu, 40)
        assert evaluations[0] <= 1107

    def test_lone_zero_of_a_deep_order(self, evaluations, fresh_zero_cache):
        # orders 512 .. 1000 filled below one bound just above j_{1000,1}:
        # 22,081 zeros and 68,815 J evaluations, where asking each order
        # below for one more zero found 119,805 with 369,181
        specfun.bessel_zero(1000.0, 1)
        assert sum(len(z) for z in fresh_zero_cache.values()) <= 25_000
        assert evaluations[0] <= 80_000

    def test_roots_near_2_20_start_at_the_lower_bound(self, evaluations):
        # 380 J evaluations for these 20 roots, each scanned from Qu and
        # Wong's lower bound on its zero; from nu they took 13,400
        for k in range(20):
            specfun.bessel_zero(1048064 + k / 1000, 1)
        assert evaluations[0] <= 570

    def test_disk_and_ball3_total(self, evaluations):
        # the zeros behind the disk below 1e5 and the 3-ball below 3e4
        spectra.ball_spectrum(2, 1.0, 1e5)
        spectra.ball_spectrum(3, 1.0, 3e4)
        assert evaluations[0] <= 55_759

    @pytest.mark.parametrize("d, lam_max, budget", [(2, 2e4, 4.2),
                                                    (3, 1e4, 4.8)])
    def test_ball_cost_per_zero(self, d, lam_max, budget, evaluations,
                                fresh_zero_cache):
        spectra.ball_spectrum(d, 1.0, lam_max)
        zeros = sum(len(z) for z in fresh_zero_cache.values())
        assert evaluations[0] <= budget * zeros
        _, *rest = fresh_zero_cache.values()
        assert all(z[-1] < math.sqrt(lam_max) for z in rest if len(z))
