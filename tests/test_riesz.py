"""Riesz means, counting, averages, and the Legendre transform against
hand enumerations and brute-force numpy oracles."""

import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszbounds import riesz, spectra, verify
from rieszbounds._kernels import pykernels
from rieszbounds.errors import DomainError, TruncationError

from oracles import c_sigma, legendre_numeric, riesz_derivative_check


class TestRieszMean:
    def test_hand_enumeration_square_pi(self, square_pi):
        # eigenvalues 2, 5, 5, 8 below 9
        assert riesz.riesz_mean(square_pi, 1.0, 9.0).value == \
            pytest.approx(7 + 4 + 4 + 1, rel=1e-12)
        assert riesz.riesz_mean(square_pi, 2.0, 9.0).value == \
            pytest.approx(49 + 16 + 16 + 1, rel=1e-12)
        assert riesz.riesz_mean(square_pi, 1.0, 6.0).value == \
            pytest.approx(4 + 1 + 1, rel=1e-12)

    def test_contributing_count(self, square_pi):
        ev = riesz.riesz_mean(square_pi, 1.0, 9.0)
        assert ev.contributing == 4

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.5, max_value=199.0))
    @settings(max_examples=200, deadline=None)
    def test_against_numpy_oracle(self, square_pi, sigma, z):
        lams = np.asarray(square_pi.eigenvalues)
        gaps = z - lams[lams < z]
        if sigma == 0.0:
            expected = float(len(gaps))
        else:
            expected = float(np.sum(gaps ** sigma))
        got = riesz.riesz_mean(square_pi, sigma, z).value
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_truncation_guard(self, square_pi):
        with pytest.raises(TruncationError):
            riesz.riesz_mean(square_pi, 1.0, 200.0001)

    def test_domain_guards(self, square_pi):
        with pytest.raises(DomainError):
            riesz.riesz_mean(square_pi, -0.5, 5.0)
        with pytest.raises(DomainError):
            riesz.riesz_mean(square_pi, 1.0, 0.0)


class TestRieszRow:
    """``riesz_grid`` checks all its z values at once, one layer or more,
    and raise for the first bad one what ``riesz_value`` raises for it."""

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -3.0, 200.0001])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_first_bad_z_raises_as_riesz_value(self, square_pi, bad, at):
        zs = [50.0, 120.5, 7.0, 199.0]
        zs.insert(at, bad)
        with pytest.raises((DomainError, TruncationError)) as want:
            riesz.riesz_value(square_pi, 1.0, bad)
        with pytest.raises(want.type) as got:
            riesz.riesz_grid(square_pi, [1.0], zs)[0]
        assert got.type is want.type
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("zs, error", [
        ([210.0, math.nan, 0.0], TruncationError),
        ([math.nan, 210.0, -1.0], DomainError),
        ([-1.0, 0.0, 210.0], DomainError),
        ([5.0, 0, 210.0], DomainError),
        ([5.0, 250, math.nan], TruncationError),
    ])
    def test_several_bad_z_raise_for_the_first(self, square_pi, zs, error):
        first = next(z for z in zs if not 0 < z <= square_pi.complete_below)
        with pytest.raises(error) as got:
            riesz.riesz_grid(square_pi, [0.5], zs)[0]
        with pytest.raises(error) as want:
            riesz.riesz_value(square_pi, 0.5, first)
        assert str(got.value) == str(want.value)

    def test_good_row_equals_riesz_value(self, square_pi):
        zs = [5.0, 200.0, 19.75, 120, 60.5]
        row = riesz.riesz_grid(square_pi, [1.5], zs)[0]
        assert [v.hex() for v in row] == \
            [riesz.riesz_value(square_pi, 1.5, z)[0].hex() for z in zs]

    @pytest.mark.parametrize("bad", [math.nan, 0.0, 200.0001])
    def test_grid_checks_z_as_riesz_row(self, square_pi, bad):
        zs = [50.0, bad, 7.0]
        with pytest.raises((DomainError, TruncationError)) as want:
            riesz.riesz_grid(square_pi, [1.0], zs)[0]
        with pytest.raises(want.type) as got:
            riesz.riesz_grid(square_pi, [0.5, 1.0], zs)
        assert str(got.value) == str(want.value)

    def test_good_grid_equals_riesz_value(self, square_pi):
        zs = [5.0, 200.0, 19.75, 120, 60.5]
        sigmas = [-0.5, 0, 0.5, 1, 2.5]
        assert [[v.hex() for v in row]
                for row in riesz.riesz_grid(square_pi, sigmas, zs)] == \
            [[riesz.riesz_value(square_pi, s, z)[0].hex() for z in zs]
             for s in sigmas]

    def test_grid_layers_of_one_sigma_per_z(self, square_pi):
        # a layer is one sigma for every z (a 0-d array too) or one per z
        zs = [5.0, 200.0, 19.75, 120, 60.5]
        per_z = [-0.5, 0.0, 2.5, 1.0, 0.5]
        rows = riesz.riesz_grid(square_pi, [np.float64(1.5), per_z,
                                            np.array(0.5)], zs)
        layers = [[1.5] * len(zs), per_z, [0.5] * len(zs)]
        assert [[v.hex() for v in row] for row in rows] == \
            [[riesz.riesz_value(square_pi, s, z)[0].hex()
              for s, z in zip(layer, zs)] for layer in layers]
        assert riesz.riesz_grid(square_pi, [per_z], zs)[0] == rows[1]

    SIGMA = (st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -0.75])
             | st.floats(-0.9, 5.0))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mixed_layers_equal_riesz_value(self, data):
        # constant and per-z layers in one grid, sigmas of both signs and
        # 0, repeated eigenvalues and repeated z (some below lambda_1, none
        # on an eigenvalue): every value has the bits of riesz_value
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 3000))
        lams = np.sort(np.repeat(rng.uniform(1.0, 100.0, n),
                                 rng.integers(1, 4, n)))
        spec = spectra.Spectrum(
            dimension=2, eigenvalues=lams, complete_below=120.0,
            domain=spectra.DomainSpec("file", 2))
        grid = rng.uniform(0.5, 120.0, data.draw(st.integers(1, 40)))
        zs = [z for z in rng.choice(grid, len(grid)).tolist()
              if z not in set(lams.tolist())]
        layers = data.draw(st.lists(
            self.SIGMA | st.lists(self.SIGMA, min_size=len(zs),
                                  max_size=len(zs)), max_size=5))
        rows = riesz.riesz_grid(spec, layers, zs)
        assert [[v.hex() for v in row] for row in rows] == \
            [[riesz.riesz_value(spec, s, z)[0].hex()
              for s, z in zip(layer if isinstance(layer, list)
                              else repeat(layer), zs)]
             for layer in layers]


class TestBadSigma:
    """A NaN sigma, or a sigma sequence of another length than the z
    values, raises DomainError before any sum: ``riesz_grid`` checks its
    layers before it calls ``_riesz_layers``."""

    @pytest.fixture
    def no_sums(self, monkeypatch):
        def fail(*args):
            raise AssertionError("summed")

        monkeypatch.setattr(riesz._kernels, "riesz_sum", fail)
        monkeypatch.setattr(pykernels, "_riesz_layers", fail)

    @pytest.mark.parametrize("sigmas", [[1.0, 2.0], [1.0, 2.0, 0.5, 3.0], []],
                             ids=["short", "long", "empty"])
    def test_row_length(self, square_pi, no_sums, sigmas):
        with pytest.raises(DomainError, match=f"got {len(sigmas)} sigmas "
                           "for 3 z values"):
            riesz.riesz_grid(square_pi, [sigmas], [50.0, 120.5, 7.0])[0]
        with pytest.raises(DomainError, match=f"got {len(sigmas)} sigmas "
                           "for 3 z values"):
            riesz.riesz_grid(square_pi, [0.5, sigmas], [50.0, 120.5, 7.0])

    @pytest.mark.parametrize("call", [
        lambda spec: riesz.riesz_value(spec, math.nan, 50.0),
        lambda spec: riesz.riesz_grid(spec, [math.nan], [50.0, 7.0])[0],
        lambda spec: riesz.riesz_grid(spec, [[1.0, math.nan]],
                                      [50.0, 7.0])[0],
        lambda spec: riesz.riesz_grid(spec, [0.5, math.nan], [50.0, 7.0]),
        lambda spec: riesz.riesz_grid(spec, [0.5, [1.0, math.nan]],
                                      [50.0, 7.0]),
    ], ids=["value", "row", "row-sequence", "grid", "grid-per-z"])
    def test_nan_sigma(self, square_pi, no_sums, call):
        with pytest.raises(DomainError, match="sigma must be a number, "
                           "got nan"):
            call(square_pi)


class TestCounting:
    def test_strict_at_eigenvalue(self, square_pi):
        # N(z) counts lambda_k < z strictly
        assert riesz.counting(square_pi, 5.0) == 1
        assert riesz.counting(square_pi, 5.0000001) == 3
        assert riesz.counting(square_pi, 2.0) == 0
        assert riesz.counting(square_pi, 9.0) == 4

    def test_matches_sigma_zero(self, square_pi):
        for z in (3.0, 7.7, 11.0):
            assert riesz.counting(square_pi, z) == \
                riesz.riesz_mean(square_pi, 0.0, z).value


class TestMeans:
    def test_hand_mean(self, square_pi):
        m = riesz.means(square_pi, 5)
        assert m.mean == pytest.approx(30 / 5, rel=1e-12)
        assert m.mean_sq == pytest.approx(
            (4 + 25 + 25 + 64 + 100) / 5, rel=1e-12)

    def test_power_geometric_harmonic_oracle(self, square_pi):
        k = 7
        lams = np.asarray(square_pi.eigenvalues[:k])
        m = riesz.means(square_pi, k, sigma_list=[0.5, 1.0, 2.0])
        for s in (0.5, 1.0, 2.0):
            assert m.power_means[s] == pytest.approx(
                float(np.mean(lams ** s) ** (1 / s)), rel=1e-12)
        assert m.geometric == pytest.approx(
            float(np.exp(np.mean(np.log(lams)))), rel=1e-12)
        assert m.harmonic == pytest.approx(
            float(1 / np.mean(1 / lams)), rel=1e-12)

    def test_power_mean_monotone_in_order(self, ball3):
        m = riesz.means(ball3, 50, sigma_list=[0.5, 1.0, 1.5, 2.0])
        seq = [m.harmonic, m.geometric] + [m.power_means[s]
                                           for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(seq, seq[1:]))

    @pytest.mark.parametrize("values", [[1e-320, 2.0], [1e-308, 1e-308]])
    def test_harmonic_reciprocals_outside_float_range(self, values):
        # 1 / 1e-320 overflows; 1 / 1e-308 does not, but two of them sum
        # past the float range; either raises DomainError with no warning
        spec = spectra.Spectrum(
            dimension=2, eigenvalues=np.array(values), complete_below=1e308,
            domain=spectra.DomainSpec("file", 2))
        with pytest.raises(DomainError, match="sum of reciprocals"):
            riesz.means(spec, 2)
        with pytest.raises(OverflowError):
            riesz.power_mean(spec, 2, -1)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -0.5, 2.5], ids=repr)
    def test_power_mean_order_outside_its_domain(self, square_pi, p):
        with pytest.raises(DomainError, match="power-mean order"):
            riesz.power_mean(square_pi, 5, p)

    def test_orders_0_and_minus_1_are_geometric_and_harmonic(self, ball3):
        m = riesz.means(ball3, 50, sigma_list=[0.0, -1.0])
        assert m.power_means[0.0].hex() == m.geometric.hex()
        assert m.power_means[-1.0].hex() == m.harmonic.hex()

    def test_k_range_guard(self, square_pi):
        with pytest.raises(DomainError):
            riesz.means(square_pi, 0)
        with pytest.raises(DomainError):
            riesz.means(square_pi, len(square_pi) + 1)


class TestIndexGuard:
    """An index k that is not an integer in 1..n raises DomainError naming
    k, in ``means`` and in each index helper of the weighted sums; an
    integral numpy integer is an index like an ``int``."""

    BAD = [2.5, math.nan, 3.0, "3", 0, -1]

    @staticmethod
    def _helpers():
        from rieszbounds import _kernels
        return {
            "means": lambda spec, k: riesz.means(spec, k, [0.5]),
            "power_mean": lambda spec, k: riesz.power_mean(spec, k, 0.5),
            "geometric": lambda spec, k: riesz.power_mean(spec, k, 0),
            "harmonic": lambda spec, k: riesz.power_mean(spec, k, -1),
            "head_sum": lambda spec, k: _kernels.head_sum(
                riesz._runs(spec), k, lambda values: values),
            "power_sum": lambda spec, k: _kernels.power_sum(
                riesz._runs(spec), k, 2.0),
        }

    @pytest.mark.parametrize("k", BAD, ids=repr)
    @pytest.mark.parametrize("name", ["means", "power_mean", "geometric",
                                      "harmonic"])
    def test_non_index_raises_domain_error(self, square_pi, name, k):
        with pytest.raises(DomainError, match=f"got {k}"):
            self._helpers()[name](square_pi, k)

    @pytest.mark.parametrize("k", [2.5, math.nan, 3.0, "3"], ids=repr)
    @pytest.mark.parametrize("name", ["head_sum", "power_sum"])
    def test_kernel_non_integer_raises_domain_error(self, square_pi, name,
                                                    k):
        with pytest.raises(DomainError, match="k must be an integer"):
            self._helpers()[name](square_pi, k)

    def test_means_beyond_n_names_k(self, square_pi):
        n = len(square_pi)
        with pytest.raises(DomainError, match=f"1..{n}, got {n + 1}"):
            riesz.means(square_pi, n + 1)

    @pytest.mark.parametrize("k", [1, 4, 141])
    def test_numpy_integers_are_indices(self, square_pi, k):
        for name, fn in self._helpers().items():
            got, want = fn(square_pi, np.int64(k)), fn(square_pi, k)
            assert got == want, name


class TestMeansExactSum:
    """The vectorised geometric and harmonic means equal the scalar
    generator expressions they replaced, bit for bit."""

    @pytest.fixture(params=["square_pi", "ball3", "large_square",
                            "log_sensitive"])
    def spec(self, request):
        if request.param == "large_square":    # n > 2**16
            return spectra.box_spectrum([1.0, 1.0], 1e6)
        if request.param == "log_sensitive":
            # a value where numpy's vectorised log can differ from math.log
            # in the last bit; repeated, the difference reaches the mean
            return spectra.Spectrum(
                dimension=2, eigenvalues=np.full(5000, 4478346.298071504),
                complete_below=4.5e6, domain=spectra.DomainSpec("file", 2))
        return request.getfixturevalue(request.param)

    def test_equals_generator_expressions(self, spec):
        ev = spec.eigenvalues
        n = len(ev)
        for k in sorted({1, 7, min(n, 1023), min(n, 1025), n // 2, n}):
            m = riesz.means(spec, k)
            assert m.geometric == math.exp(
                math.fsum(math.log(x) for x in ev[:k]) / k)
            assert m.harmonic == k / math.fsum(1.0 / x for x in ev[:k])

    def test_large_case_exceeds_one_chunk(self):
        assert len(spectra.box_spectrum([1.0, 1.0], 1e6)) > 2**16

    def test_logs_cached_read_only(self, spec):
        # one log per run of equal eigenvalues, each math.log of its value
        logs = riesz._logs(spec)
        runs = riesz._runs(spec)
        assert riesz._logs(spec) is logs
        assert len(logs) == len(runs.values)
        assert [x.hex() for x in logs.tolist()] == \
            [math.log(x).hex() for x in runs.values.tolist()]
        assert [x.hex() for x in np.repeat(logs, runs.weights).tolist()] == \
            [math.log(x).hex() for x in spec.eigenvalues.tolist()]
        with pytest.raises(ValueError):
            logs[0] = 0.0


class TestDerivedArrays:
    """Arrays derived from the eigenvalues are computed once per spectrum,
    kept on it read-only, and never shared with another spectrum."""

    @pytest.mark.parametrize("derived", [riesz.eigensum_prefix,
                                         riesz.square_prefix, riesz._logs],
                             ids=lambda fn: fn.__name__)
    def test_cached_read_only_per_spectrum(self, square_pi, derived):
        arr = derived(square_pi)
        assert derived(square_pi) is arr
        # the logs hold one entry per run of equal eigenvalues
        assert len(arr) == (len(riesz._runs(square_pi).values)
                            if derived is riesz._logs else len(square_pi))
        with pytest.raises(ValueError):
            arr[0] = 0.0
        twin = verify.corrupt_spectrum(square_pi)
        twin_arr = derived(twin)
        assert twin_arr is not arr
        assert derived(twin) is twin_arr
        assert twin_arr[0] != arr[0]
        assert derived(square_pi) is arr


class TestSquarePrefix:
    @pytest.fixture(params=["square_pi", "ball3", "corrupted_ball3"])
    def spec(self, request):
        if request.param == "corrupted_ball3":
            return verify.corrupt_spectrum(request.getfixturevalue("ball3"))
        return request.getfixturevalue(request.param)

    def test_exact_fsum_of_squares(self, spec):
        sq = riesz.square_prefix(spec)
        lams = np.asarray(spec.eigenvalues)
        for k in range(1, len(spec) + 1):
            assert sq[k - 1] == math.fsum(np.power(lams[:k], 2.0))

    def test_equals_means_mean_sq(self, spec):
        sq = riesz.square_prefix(spec)
        for k in range(1, len(spec) + 1):
            assert sq[k - 1] / k == riesz.means(spec, k).mean_sq


class TestDerivativeIdentity:
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
    def test_central_difference_matches(self, square_pi, sigma):
        z = 9.5
        fd, rhs = riesz_derivative_check(square_pi, sigma, z, 1e-6 * z)
        assert fd == pytest.approx(rhs, rel=1e-6)

    def test_sigma_gate(self, square_pi):
        with pytest.raises(DomainError):
            riesz_derivative_check(square_pi, 0.5, 9.0, 1e-6)


class TestLegendre:
    def test_hand_value(self, square_pi):
        # w = 2.5: floor 2, (2.5 - 2) * lambda_3 + lambda_1 + lambda_2
        assert riesz.legendre_R1(square_pi, 2.5) == pytest.approx(
            0.5 * 5 + 7, rel=1e-12)

    def test_integer_w(self, square_pi):
        assert riesz.legendre_R1(square_pi, 4.0) == pytest.approx(
            2 + 5 + 5 + 8, rel=1e-12)

    def test_matches_sup_definition(self, square_pi):
        # brute-force sup over a dense z grid never exceeds the closed form
        w = 3.7
        zs = np.linspace(0.01, 199.0, 40000)
        vals = [w * z - riesz.riesz_mean(square_pi, 1.0, z).value
                for z in zs]
        closed = riesz.legendre_R1(square_pi, w)
        assert max(vals) <= closed + 1e-9
        assert max(vals) == pytest.approx(closed, rel=1e-3)

    @given(st.floats(min_value=0.01, max_value=40.0))
    @settings(max_examples=300, deadline=None)
    def test_numeric_oracle_exact(self, square_pi, w):
        assert riesz.legendre_R1(square_pi, w) == \
            legendre_numeric(square_pi, w)

    def test_out_of_range(self, square_pi):
        with pytest.raises(DomainError):
            riesz.legendre_R1(square_pi, len(square_pi) + 0.5)
        with pytest.raises(DomainError):
            riesz.legendre_R1(square_pi, 0.0)


class TestCSigma:
    def test_piecewise_values(self):
        assert c_sigma(0.5) == 0.25
        assert c_sigma(1.0) == 1.0
        assert c_sigma(1.7) == 1.0
        assert c_sigma(2.0) == 1.0
        assert c_sigma(4.0) == 2.0

    def test_secant_slope_inequality_hand(self):
        # (1 - y^sigma)/(1 - y) <= C_sigma (1 + y^{sigma-1}) spot checks
        for sigma in (0.5, 1.5, 4.0):
            for y in (0.1, 0.5, 0.9, 1.5, 3.0):
                lhs = (1 - y ** sigma) / (1 - y)
                rhs = c_sigma(sigma) * (1 + y ** (sigma - 1))
                assert lhs <= rhs + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            c_sigma(-0.1)
