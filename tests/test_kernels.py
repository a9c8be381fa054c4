"""Summation kernels: Riesz sums must match the math.fsum oracle, and the
exact prefix sums must be correctly rounded (match math.fsum term by
term)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszbounds import _kernels
from rieszbounds._kernels import pykernels


class TestPureKernel:
    @given(st.lists(st.floats(min_value=0.1, max_value=100.0),
                    min_size=1, max_size=60),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.05, max_value=120.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_fsum_oracle(self, lams, sigma, z):
        lams = np.sort(np.asarray(lams))
        value, count = pykernels.riesz_sum(lams, sigma, z)
        below = [x for x in lams if x < z]
        assert count == len(below)
        if sigma == 0.0:
            expected = float(len(below))
        else:
            expected = math.fsum((z - x) ** sigma for x in below)
        assert value == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_power_sum(self):
        lams = np.array([1.0, 2.0, 3.0, 4.0])
        assert pykernels.power_sum(lams, 3, 2.0) == pytest.approx(14.0)
        assert pykernels.power_sum(lams, 4, 1.0) == pytest.approx(10.0)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_prefix_sums_correctly_rounded(self, vals):
        arr = np.asarray(vals)
        prefix = pykernels.prefix_sums(arr)
        for i in range(len(vals)):
            assert prefix[i] == math.fsum(vals[:i + 1])


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.BACKEND == "python"


class TestTermShortcuts:
    """Riesz and power terms at the exponents 1/2, 1 and 2 skip the generic
    pow loop but keep the bits of ``np.power`` with a scalar exponent."""

    @staticmethod
    def _terms():
        rng = np.random.default_rng(8)
        t = rng.uniform(0.0, 1.3e7, 10**5)
        # the terms where libm pow and sqrt differ, if there are any
        wide = np.ldexp(rng.uniform(0.5, 1.0, 10**5),
                        rng.integers(-60, 60, 10**5))
        odd = [x for x in wide.tolist() if math.pow(x, 0.5) != math.sqrt(x)]
        return np.concatenate((t, np.asarray(odd, dtype=float)))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_terms_equal_np_power(self, sigma):
        t = self._terms()
        want = np.power(t, sigma)
        got = pykernels._powers(t.copy(), sigma)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        inplace = t.copy()
        got = pykernels._powers(inplace, sigma, out=inplace)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 2.5])
    def test_riesz_sum_equals_fsum_of_np_power(self, sigma):
        rng = np.random.default_rng(3)
        lams = np.sort(rng.uniform(19.7, 1e5, 5000))
        z = 8e4
        value, idx = pykernels.riesz_sum(lams, sigma, z)
        assert idx == np.count_nonzero(lams < z)
        assert value == math.fsum(np.power(z - lams[:idx], sigma).tolist())

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_power_sum_equals_fsum_of_np_power(self, p):
        rng = np.random.default_rng(4)
        lams = np.sort(rng.uniform(19.7, 1e5, 5000))
        lams.setflags(write=False)    # the terms must not overwrite lams
        k = 4321
        assert pykernels.power_sum(lams, k, p) == \
            math.fsum(np.power(lams[:k], p).tolist())
