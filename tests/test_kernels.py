"""Summation kernels: Riesz sums must match the math.fsum oracle, and the
exact prefix sums must be correctly rounded (match math.fsum term by
term)."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszbounds import _kernels, spectra
from rieszbounds._kernels import pykernels


class TestPureKernel:
    @given(st.lists(st.floats(min_value=0.1, max_value=100.0),
                    min_size=1, max_size=60),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.05, max_value=120.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_fsum_oracle(self, lams, sigma, z):
        lams = np.sort(np.asarray(lams))
        runs = pykernels.runs_of(lams)
        value, count = pykernels.riesz_sum(runs, sigma, z)
        below = [x for x in lams if x < z]
        assert count == len(below)
        if sigma == 0.0:
            expected = float(len(below))
        else:
            expected = math.fsum((z - x) ** sigma for x in below)
        assert value == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_power_sum(self):
        runs = pykernels.runs_of([1.0, 2.0, 3.0, 4.0])
        assert pykernels.power_sum(runs, 3, 2.0) == pytest.approx(14.0)
        assert pykernels.power_sum(runs, 4, 1.0) == pytest.approx(10.0)

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
        value, idx = pykernels.riesz_sum(pykernels.runs_of(lams), sigma, z)
        assert idx == np.count_nonzero(lams < z)
        assert value == math.fsum(np.power(z - lams[:idx], sigma).tolist())

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_power_sum_equals_fsum_of_np_power(self, p):
        rng = np.random.default_rng(4)
        lams = np.sort(rng.uniform(19.7, 1e5, 5000))
        lams.setflags(write=False)    # the terms must not overwrite lams
        k = 4321
        assert pykernels.power_sum(pykernels.runs_of(lams), k, p) == \
            math.fsum(np.power(lams[:k], p).tolist())


def _hex(values):
    return [float(v).hex() for v in values]


def _ones(n):
    """``_run_sum`` weights (m, pos) of n terms of weight 1."""
    return np.ones(n, np.uint8), np.arange(n)


def _fsum_rows(lams, sigma, zs):
    """R_sigma(z) at each z as ``math.fsum`` of the ``np.power`` terms, or
    the count at sigma = 0: a reference that builds no term the way the
    kernel does."""
    out = []
    for z in zs:
        below = lams[lams < z]
        if sigma == 0.0:
            out.append(float(len(below)))
        else:
            with np.errstate(over="ignore"):
                out.append(math.fsum(np.power(z - below, sigma).tolist()))
    return out


@st.composite
def riesz_rows(draw):
    """A sorted spectrum at a drawn scale and z values in any order, some
    at or below lambda_1 (empty rows), none on an eigenvalue."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 6))
    lams = np.sort(rng.uniform(0.5, 10.0, n) * scale)
    zs = rng.uniform(0.0, 1.2 * lams[-1], draw(st.integers(1, 100)))
    if draw(st.booleans()):
        zs.sort()
    eigenvalues = set(lams.tolist())
    zs = [z for z in zs.tolist() if z not in eigenvalues]
    return lams, zs


class TestRieszRows:
    """A one-layer ``riesz_grid`` adds many rows in one segmented pass and
    must give the bits of ``riesz_sum`` at every z, and of
    ``_fsum_rows``."""

    SIGMAS = [0.0, 0.5, 1.0, 2.0, -0.5, 2.5]

    @given(riesz_rows(), st.sampled_from(SIGMAS))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_riesz_sum(self, rows, sigma):
        lams, zs = rows
        runs = pykernels.runs_of(lams)
        assert _hex(pykernels.riesz_grid(runs, [sigma], zs)[0]) == \
            _hex(pykernels.riesz_sum(runs, sigma, z)[0] for z in zs)
        assert _hex(pykernels.riesz_grid(runs, [sigma], zs)[0]) == \
            _hex(_fsum_rows(lams, sigma, zs))

    @given(riesz_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_per_z_sigmas_equal_riesz_sum(self, rows, data):
        # one sigma per z, in runs of equal sigmas or all different
        lams, zs = rows
        runs = pykernels.runs_of(lams)
        sigma = st.sampled_from(self.SIGMAS) | st.floats(0.05, 5.0)
        sigmas = data.draw(st.lists(sigma, min_size=len(zs),
                                    max_size=len(zs)))
        got = _hex(pykernels.riesz_grid(runs, [sigmas], zs)[0])
        assert got == _hex(pykernels.riesz_sum(runs, s, z)[0]
                           for s, z in zip(sigmas, zs))
        assert got == _hex(_fsum_rows(lams, s, [z])[0]
                           for s, z in zip(sigmas, zs))

    @given(riesz_rows(), st.lists(st.sampled_from(SIGMAS)
                                  | st.floats(0.05, 5.0), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_grid_equals_riesz_sums(self, rows, sigmas):
        # every sigma of a set at every z, the rows packed once: the bits
        # of one-layer grids, one sigma at a time
        lams, zs = rows
        runs = pykernels.runs_of(lams)
        grid = pykernels.riesz_grid(runs, sigmas, zs)
        assert [_hex(row) for row in grid] == \
            [_hex(pykernels.riesz_grid(runs, [s], zs)[0]) for s in sigmas]

    def test_grid_longer_than_the_buffer(self):
        # packed batches and rows of more terms than the buffer holds, at
        # sigmas of both signs and 0, against math.fsum
        rng = np.random.default_rng(8)
        lams = np.sort(rng.uniform(1.0, 100.0, pykernels._CHUNK + 5000))
        runs = pykernels.runs_of(lams)
        zs = [50.0, 99.0, 100.5, 30.0, 0.5, *np.linspace(2.0, 9.0, 40)]
        sigmas = [-0.75, 0.0, 0.5, 1.0, 2.5]
        grid = pykernels.riesz_grid(runs, sigmas, zs)
        assert [_hex(row) for row in grid] == \
            [_hex(_fsum_rows(lams, s, zs)) for s in sigmas]

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_ball_rows_where_np_power_is_not_libm_pow(self, sigma):
        spec = spectra.ball_spectrum(3, 1.0, 2000.0)
        lams = spec.eigenvalues
        runs = pykernels.runs_of(lams)
        zs = [lams[0] / 2, *np.geomspace(lams[0] * (1 + 1e-6), 1900.0, 200)
              .tolist()]
        assert _hex(pykernels.riesz_grid(runs, [sigma], zs)[0]) == \
            _hex(pykernels.riesz_sum(runs, sigma, z)[0] for z in zs)
        assert _hex(pykernels.riesz_grid(runs, [sigma], zs)[0]) == \
            _hex(_fsum_rows(lams, sigma, zs))
        terms = 1900.0 - lams[lams < 1900.0]
        assert np.power(terms, 2.5).tolist() != \
            [math.pow(t, 2.5) for t in terms.tolist()]

    def test_rows_longer_than_the_buffer(self):
        rng = np.random.default_rng(6)
        lams = np.sort(rng.uniform(1.0, 100.0, pykernels._CHUNK + 5000))
        runs = pykernels.runs_of(lams)
        zs = [50.0, 99.0, 100.5, 30.0, 100.5, 0.5]
        for sigma in (0.5, 2.5):
            assert _hex(pykernels.riesz_grid(runs, [sigma], zs)[0]) == \
                _hex(pykernels.riesz_sum(runs, sigma, z)[0] for z in zs)
            assert _hex(pykernels.riesz_grid(runs, [sigma], zs)[0]) == \
                _hex(_fsum_rows(lams, sigma, zs))

    def test_stretch_across_a_row_start_with_equal_end_exponents(self):
        # rows of 1500 terms in [2, 4) but for the last ten in (1, 2): a
        # 256-term mark stretch that holds a row start has both ends in
        # [2, 4), with the dip of the row before it in between
        lams = np.sort(np.concatenate([np.linspace(0.001, 2.0, 1490),
                                       np.linspace(2.05, 2.95, 10)]))
        runs = pykernels.runs_of(lams)
        zs = [4.0] * 40
        rows = pykernels.riesz_grid(runs, [1.0], zs)[0]
        assert _hex(rows) == _hex([pykernels.riesz_sum(runs, 1.0, 4.0)[0]]
                                  * 40)
        assert rows[0] == math.fsum((4.0 - lams).tolist())
        assert _hex(rows) == _hex(_fsum_rows(lams, 1.0, zs))

    @pytest.mark.parametrize("z, gap, run", [
        (1e-153, 1e-160, False),    # subnormal terms
        (1e-150, 1e-165, True),     # terms that underflow to zero
        (1e160, 1e150, False),      # infinite terms
        (2.5e152, 1e140, False),    # terms near overflow
    ])
    def test_rows_that_fall_back(self, z, gap, run):
        # the z row alone takes the run path only if its terms allow it;
        # every batch holds a row that does not (where the z row does, the
        # z / 2 row holds one subnormal), so the run path leaves the whole
        # batch to math.fsum, and every row keeps the bits of riesz_sum
        rng = np.random.default_rng(7)
        lams = np.sort(np.concatenate([z * rng.uniform(0.0, 0.9, 3000),
                                       z - gap * rng.uniform(1.0, 2.0, 50)]))
        runs = pykernels.runs_of(lams)
        zs = [z, z / 2, z * (1 + 1e-15)]
        assert _hex(pykernels.riesz_grid(runs, [2.0], zs)[0]) == \
            _hex(pykernels.riesz_sum(runs, 2.0, z)[0] for z in zs)
        assert _hex(pykernels.riesz_grid(runs, [2.0], zs)[0]) == \
            _hex(_fsum_rows(lams, 2.0, zs))
        with np.errstate(over="ignore"):
            rows = [np.power(x - lams[lams < x], 2.0) for x in zs]
        if run:
            assert sum(0.0 < t < sys.float_info.min for t in rows[1]) == 1
        starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
        assert pykernels._run_sum(np.concatenate(rows), starts,
                                  _ones(sum(map(len, rows)))) is None
        alone = pykernels._run_sum(rows[0], [0], _ones(len(rows[0])))
        assert (alone is not None) == run
