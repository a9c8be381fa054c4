"""Spectrum generators against hand enumerations and the lattice-count /
Bessel-zero oracles; file round-trips; validation gates."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszbounds.specfun as specfun
from rieszbounds import bounds, spectra
from rieszbounds.errors import (
    DomainError,
    EmptySpectrumError,
    ResourceLimitError,
    RieszBoundsError,
    SpectrumFormatError,
    SpectrumValidationError,
)
from oracles import (
    ball_eigenvalues_per_zero,
    box_eigenvalues_recursive,
    spectrum_csv,
    spectrum_text,
)


class TestBoxSpectrum:
    def test_square_pi_hand_enumeration(self, square_pi):
        # eigenvalues are m^2 + n^2 for the [pi, pi] box
        expected = sorted(m * m + n * n
                          for m in range(1, 20) for n in range(1, 20)
                          if m * m + n * n < 200)
        assert np.allclose(square_pi.eigenvalues, expected, rtol=1e-12)

    def test_first_six(self, square_pi):
        assert square_pi.eigenvalues[:6] == pytest.approx(
            [2, 5, 5, 8, 10, 10], rel=1e-12)

    def test_anisotropic_box(self):
        spec = spectra.box_spectrum([math.pi, math.pi / 2], 50.0)
        expected = sorted(m * m + 4 * n * n
                          for m in range(1, 10) for n in range(1, 10)
                          if m * m + 4 * n * n < 50)
        assert np.allclose(spec.eigenvalues, expected, rtol=1e-12)
        assert spec.volume == pytest.approx(math.pi ** 2 / 2)

    def test_unit_interval_1d(self):
        spec = spectra.box_spectrum([1.0], 100.0)
        expected = [math.pi ** 2 * n * n for n in (1, 2, 3)]
        assert np.allclose(spec.eigenvalues, expected, rtol=1e-12)

    def test_strict_threshold(self):
        # lam_max equal to an eigenvalue excludes it
        spec = spectra.box_spectrum([math.pi, math.pi], 8.0)
        assert list(spec.eigenvalues) == pytest.approx([2, 5, 5], rel=1e-12)

    def test_empty_error(self):
        with pytest.raises(EmptySpectrumError):
            spectra.box_spectrum([1.0, 1.0], 0.1)

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(spectra, "MAX_EIGENVALUES", 10)
        with pytest.raises(ResourceLimitError):
            spectra.box_spectrum([1.0, 1.0], 5000.0)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestBoxArrayPass:
    """``box_spectrum`` builds its values in one array pass per axis; the
    recursion of ``oracles.box_eigenvalues_recursive`` is the bit-for-bit
    reference."""

    @given(st.lists(st.floats(min_value=0.25, max_value=5.0),
                    min_size=1, max_size=5),
           st.integers(min_value=1, max_value=1500),
           st.one_of(st.none(), st.integers(min_value=0)))
    @settings(max_examples=150, deadline=None)
    def test_equals_recursion_bit_for_bit(self, sides, target, on_value):
        # lam_max is set by Weyl's law for about ``target`` eigenvalues,
        # and at least past the first; ``on_value`` moves it onto one of
        # the eigenvalues above the first, which the strict bound excludes
        d = len(sides)
        lam_1 = sum(math.pi**2 / s**2 for s in sides)
        weyl = 4 * math.pi * (target * math.gamma(1 + d / 2)
                              / math.prod(sides))**(2 / d)
        lam_max = max(weyl, 1.5 * lam_1)
        if on_value is not None:
            ref = box_eigenvalues_recursive(sides, lam_max)
            above = ref[ref > ref[0]]
            if len(above):
                lam_max = float(above[on_value % len(above)])
        got = spectra.box_spectrum(sides, lam_max).eigenvalues
        ref = box_eigenvalues_recursive(sides, lam_max)
        assert np.array_equal(_bits(got), _bits(ref))
        assert got[-1] < lam_max

    def test_unit_square_below_1_3e7(self):
        # the 1,033,365 eigenvalues behind the large verification runs
        got = spectra.box_spectrum([1.0, 1.0], 1.3e7).eigenvalues
        assert len(got) == 1_033_365
        assert np.array_equal(
            _bits(got), _bits(box_eigenvalues_recursive([1.0, 1.0], 1.3e7)))

    def test_cap_counts_final_eigenvalues_only(self, monkeypatch):
        # a thin third axis: the 764 sums over the first two axes below
        # 1e4 outnumber the 459 eigenvalues, and the cap counts only the
        # eigenvalues, as the recursion did
        sides, lam_max = [1.0, 1.0, 0.05], 1e4
        assert len(spectra.box_spectrum(sides[:2], lam_max)) == 764
        n = len(box_eigenvalues_recursive(sides, lam_max))
        assert n == 459
        monkeypatch.setattr(spectra, "MAX_EIGENVALUES", n)
        assert len(spectra.box_spectrum(sides, lam_max)) == n
        monkeypatch.setattr(spectra, "MAX_EIGENVALUES", n - 1)
        with pytest.raises(ResourceLimitError):
            spectra.box_spectrum(sides, lam_max)
        with pytest.raises(ResourceLimitError):
            box_eigenvalues_recursive(sides, lam_max)


class TestBallSpectrum:
    def test_ball3_first_eigenvalue_is_pi_squared(self):
        spec = spectra.ball_spectrum(3, 1.0, 12.0)
        assert len(spec) == 1
        assert spec.lambda_1 == pytest.approx(math.pi ** 2, rel=1e-12)

    def test_disk_first_values(self):
        spec = spectra.ball_spectrum(2, 1.0, 16.0)
        j01 = specfun.bessel_zero(0.0, 1).value
        j11 = specfun.bessel_zero(1.0, 1).value
        assert list(spec.eigenvalues) == pytest.approx(
            [j01 ** 2, j11 ** 2, j11 ** 2], rel=1e-12)

    def test_radius_scaling(self):
        base = spectra.ball_spectrum(2, 1.0, 100.0)
        scaled = spectra.ball_spectrum(2, 2.0, 25.0)
        assert np.allclose(scaled.eigenvalues, base.eigenvalues / 4.0,
                           rtol=1e-12)

    def test_multiplicities(self):
        assert spectra.ball_multiplicity(0, 5) == 1
        assert spectra.ball_multiplicity(3, 2) == 2
        # d = 3: 2 ell + 1
        for ell in range(6):
            assert spectra.ball_multiplicity(ell, 3) == 2 * ell + 1
        # d = 4: (ell + 1)^2
        for ell in range(6):
            assert spectra.ball_multiplicity(ell, 4) == (ell + 1) ** 2

    def test_volume(self, ball3):
        assert ball3.volume == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spectra.ball_spectrum(1, 1.0, 100.0)
        with pytest.raises(DomainError):
            spectra.ball_spectrum(2, -1.0, 100.0)
        with pytest.raises(EmptySpectrumError):
            spectra.ball_spectrum(2, 1.0, 1.0)

    @pytest.mark.parametrize("d, lam_max, cap", [
        (3, 1e12, spectra.MAX_EIGENVALUES),    # ~1.6e17 predicted
        (2, math.inf, spectra.MAX_EIGENVALUES),
        (2, 1e5, 10),                           # ~8e3 predicted
    ])
    def test_resource_cap_fails_before_any_zero(self, d, lam_max, cap,
                                                monkeypatch):
        def no_zeros(*args):
            raise AssertionError("Bessel zero computed before the cap check")

        monkeypatch.setattr(specfun, "bessel_zero", no_zeros)
        monkeypatch.setattr(specfun, "bessel_zeros", no_zeros)
        monkeypatch.setattr(spectra, "MAX_EIGENVALUES", cap)
        with pytest.raises(ResourceLimitError):
            spectra.ball_spectrum(d, 1.0, lam_max)

    @pytest.mark.parametrize("d, lam_max, cap", [
        (3, 1e12, spectra.MAX_EIGENVALUES),
        (2, math.inf, spectra.MAX_EIGENVALUES),
        (2, 1e5, 10),
    ])
    def test_resource_cap_fails_before_any_bessel_evaluation(
            self, d, lam_max, cap, monkeypatch):
        # the finder evaluates J through specfun._jv, not bessel_zero alone
        def no_bessel(*args):
            raise AssertionError("Bessel work done before the cap check")

        monkeypatch.setattr(specfun, "bessel_zero", no_bessel)
        monkeypatch.setattr(specfun, "bessel_zeros", no_bessel)
        monkeypatch.setattr(specfun, "_jv", no_bessel)
        monkeypatch.setattr(spectra, "MAX_EIGENVALUES", cap)
        with pytest.raises(ResourceLimitError):
            spectra.ball_spectrum(d, 1.0, lam_max)

    def test_cap_checked_per_order_without_the_weyl_estimate(
            self, monkeypatch):
        # the Weyl estimate passes small counts (it fails only past twice
        # the cap), so the count kept order by order must enforce the cap
        n = len(spectra.ball_spectrum(3, 1.0, 2000.0))
        monkeypatch.setattr(spectra, "_check_weyl_count",
                            lambda *args: None)
        monkeypatch.setattr(spectra, "MAX_EIGENVALUES", n)
        assert len(spectra.ball_spectrum(3, 1.0, 2000.0)) == n
        monkeypatch.setattr(spectra, "MAX_EIGENVALUES", n - 1)
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            spectra.ball_spectrum(3, 1.0, 2000.0)

    @pytest.mark.parametrize("d", [2.5, 3.0, np.float64(3.0), "3", None])
    def test_non_integer_dimension_fails_before_any_bessel_evaluation(
            self, d, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("Bessel work done before the dimension "
                                 "check")

        monkeypatch.setattr(specfun, "bessel_zero", no_bessel)
        monkeypatch.setattr(specfun, "bessel_zeros", no_bessel)
        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(DomainError, match="integer dimension"):
            spectra.ball_spectrum(d, 1.0, 200.0)

    def test_integer_like_dimension_is_kept_as_int(self):
        spec = spectra.ball_spectrum(np.int64(3), 1.0, 200.0)
        assert type(spec.dimension) is int
        assert np.array_equal(spec.eigenvalues,
                              spectra.ball_spectrum(3, 1.0, 200.0).eigenvalues)


class TestBallAssembly:
    """``ball_spectrum`` against the per-zero reference, bit for bit, with
    every zero it caches, from an empty cache each time."""

    @staticmethod
    def _fresh_run(monkeypatch, fn, *args):
        cache = {}
        monkeypatch.setattr(specfun, "_zero_cache", cache)
        return fn(*args), cache

    @pytest.mark.parametrize("radius", [1.0, 0.5, 3.0])
    @pytest.mark.parametrize("d, level", [(2, 5000.0), (3, 2000.0),
                                          (4, 400.0)])
    def test_matches_per_zero_reference(self, d, level, radius,
                                        monkeypatch):
        # lam_max is itself an eigenvalue, so the zero that stops an order
        # gives exactly lam_max and is left out.  The disk reaches
        # j_{55,1}^2 = 3884.88..., where libm's pow(j, 2) and j * j differ
        # in the last bit.
        probe, _ = self._fresh_run(monkeypatch, ball_eigenvalues_per_zero,
                                   d, radius, level / radius ** 2)
        lam_max = float(probe[-1])
        ref, ref_cache = self._fresh_run(
            monkeypatch, ball_eigenvalues_per_zero, d, radius, lam_max)
        spec, cache = self._fresh_run(
            monkeypatch, spectra.ball_spectrum, d, radius, lam_max)
        assert lam_max not in spec.eigenvalues
        assert spec.complete_below == lam_max
        assert spec.eigenvalues.tobytes() == ref.tobytes()
        assert list(cache) == list(ref_cache)
        # every cached zero has the bits of the reference's zero of the same
        # order and index; the chain roots 0 and 1/2 are scanned through a
        # zero at or above the bound, which can lie past the reference's last
        # zero, and every order from 1 up is batched below the bound
        monkeypatch.setattr(specfun, "_zero_cache", ref_cache)
        for nu, zeros in cache.items():
            assert list(zeros) == [specfun.bessel_zero(nu, p).value
                                   for p in range(1, len(zeros) + 1)], nu
        for nu in cache:
            if nu >= 1:
                assert all(v < cache[nu].bound for v in cache[nu]), nu

    @pytest.mark.parametrize("radius", [1.0, 0.5, 3.0])
    @pytest.mark.parametrize("d, level", [(2, 5000.0), (3, 2000.0),
                                          (4, 400.0)])
    def test_limit_just_above_an_eigenvalue_keeps_it(self, d, level, radius,
                                                     monkeypatch):
        # the zero of an eigenvalue one ulp below lam_max can lie above
        # radius * sqrt(lam_max) as rounded; the bound must still pass it
        probe, _ = self._fresh_run(monkeypatch, ball_eigenvalues_per_zero,
                                   d, radius, level / radius ** 2)
        for lam in np.unique(probe)[-12:]:
            lam_max = math.nextafter(float(lam), math.inf)
            spec, _ = self._fresh_run(monkeypatch, spectra.ball_spectrum,
                                      d, radius, lam_max)
            assert spec.eigenvalues.tobytes() == \
                probe[probe <= lam].tobytes(), lam

    @pytest.mark.parametrize("d", [2, 3])
    def test_larger_limit_reuses_the_cache(self, d, monkeypatch):
        # below 2e4 after below 1e4: each order's last zero below 1e4 was
        # bracketed up to the bound, and is now an inner zero
        fresh, fresh_cache = self._fresh_run(
            monkeypatch, spectra.ball_spectrum, d, 1.0, 2e4)
        _, cache = self._fresh_run(
            monkeypatch, spectra.ball_spectrum, d, 1.0, 1e4)
        again = spectra.ball_spectrum(d, 1.0, 2e4)
        assert again.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert list(cache) == list(fresh_cache)
        for nu, zeros in fresh_cache.items():
            assert cache[nu].tobytes() == zeros.tobytes(), nu


class TestWeylCount:
    """The Weyl-law guard compares in logs where its power or Gamma factor
    leaves the float range, and decides as before everywhere else."""

    @pytest.mark.parametrize("lam_max, count", [(1e4, "1.82e+205"),
                                                (math.inf, "inf")])
    def test_large_cube_is_a_resource_limit(self, lam_max, count):
        # (lam_max / 4 pi)^200 overflows and Gamma(201) is inf
        with pytest.raises(ResourceLimitError,
                           match=re.escape(f"count {count} ")):
            spectra.box_spectrum([1.0] * 400, lam_max)

    def test_ball_whose_volume_underflows_fails_before_any_zero(
            self, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("Bessel work done before the Weyl count")

        monkeypatch.setattr(specfun, "_jv", no_bessel)
        with pytest.raises(RieszBoundsError, match="underflows"):
            spectra.ball_spectrum(1000, 1.0, 100.0)

    @given(st.integers(min_value=1, max_value=400),
           st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=-5.0, max_value=300.0))
    @settings(max_examples=300, deadline=None)
    def test_decisions_where_nothing_overflows(self, d, log_volume,
                                               log_lam):
        # elsewhere only the decision's arithmetic moves to logs, and no
        # OverflowError escapes
        volume, lam_max = 10.0 ** log_volume, 10.0 ** log_lam
        gamma = specfun.gamma(1 + d / 2)
        try:
            predicted = volume * (lam_max / (4 * math.pi))**(d / 2) / gamma
        except OverflowError:
            predicted = None
        try:
            spectra._check_weyl_count(d, volume, lam_max)
            raised = False
        except ResourceLimitError:
            raised = True
        if predicted is not None and gamma < math.inf:
            assert raised == (predicted > 2 * spectra.MAX_EIGENVALUES)


class TestHighDimensionalBall:
    """Gamma(1 + d/2) overflows from d = 342 on, and the ball's volume is
    then taken in logs; below it keeps its bits.  Near the bottom of a
    high-dimensional ball's spectrum Weyl's law overestimates the count by
    many orders, so the guard also asks the ball's count bound."""

    @pytest.mark.parametrize("d, lam_max", [(341, 32600.0),
                                            (342, 33000.0)])
    def test_volume(self, d, lam_max):
        spec = spectra.ball_spectrum(d, 1.0, lam_max)
        if d <= 341:
            assert spec.volume == math.pi ** (d / 2) / specfun.gamma(1 + d / 2)
        else:
            # V_d = V_{d-2} 2 pi / d, from a volume whose Gamma is finite
            assert specfun.gamma(1 + d / 2) == math.inf
            below = spectra.ball_spectrum(d - 2, 1.0, 32400.0).volume
            assert spec.volume == pytest.approx(below * 2 * math.pi / d,
                                                rel=1e-12)
            assert spec.volume == pytest.approx(8.2956e-225, rel=1e-4)

    @pytest.mark.parametrize("d, lam_max", [
        (2, 5000.0), (3, 2000.0), (4, 800.0), (10, 300.0), (341, 32600.0),
        (342, 33000.0), (342, 33600.0)])
    def test_count_bound_holds(self, d, lam_max):
        n = len(spectra.ball_spectrum(d, 1.0, lam_max))
        assert n <= spectra._ball_count_bound(d, math.sqrt(lam_max))

    def test_weyl_alone_refuses_what_the_bound_admits(self):
        # 343 eigenvalues below 33000, against ~3.4e51 by Weyl's law
        volume = spectra.ball_spectrum(342, 1.0, 33000.0).volume
        assert 343 <= spectra._ball_count_bound(342, math.sqrt(33000.0)) \
            < 400
        with pytest.raises(ResourceLimitError, match="count 3.36e"):
            spectra._check_weyl_count(342, volume, 33000.0)

    @pytest.mark.parametrize("d, lam_max", [(2, 1e12), (3, 1e7),
                                            (342, 1e6)])
    def test_bound_stops_past_twice_the_cap(self, d, lam_max):
        bound = spectra._ball_count_bound(d, math.sqrt(lam_max))
        assert 2 * spectra.MAX_EIGENVALUES < bound < math.inf
        assert spectra._ball_count_bound(d, math.inf) == math.inf
        with pytest.raises(ResourceLimitError):
            spectra.ball_spectrum(d, 1.0, lam_max)


class TestEmptyMessage:
    """lam_max at the first eigenvalue leaves the spectrum empty, and the
    error says lam_max is not above it."""

    def test_box(self):
        with pytest.raises(EmptySpectrumError,
                           match="is not above the first eigenvalue"):
            spectra.box_spectrum([1.0, 1.0], 2 * math.pi ** 2)

    def test_ball(self):
        j01 = specfun.bessel_zero(0.0, 1).value
        with pytest.raises(EmptySpectrumError,
                           match="is not above the first eigenvalue"):
            spectra.ball_spectrum(2, 1.0, j01 ** 2)


class TestSpectrumValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(SpectrumValidationError):
            spectra.Spectrum(dimension=2, eigenvalues=np.array([-1.0, 2.0]),
                             complete_below=10.0,
                             domain=spectra.DomainSpec("file", 2))

    def test_rejects_decreasing(self):
        with pytest.raises(SpectrumValidationError):
            spectra.Spectrum(dimension=2, eigenvalues=np.array([3.0, 2.0]),
                             complete_below=10.0,
                             domain=spectra.DomainSpec("file", 2))

    def test_rejects_empty(self):
        with pytest.raises(SpectrumValidationError):
            spectra.Spectrum(dimension=2, eigenvalues=np.array([]),
                             complete_below=10.0,
                             domain=spectra.DomainSpec("file", 2))

    @pytest.mark.parametrize("eigenvalues, complete_below, volume", [
        ([1.0, math.nan, 3.0], 10.0, None),
        ([1.0, 3.0, math.inf], 10.0, None),
        ([1.0, 3.0], math.nan, None),
        ([1.0, 3.0], math.inf, None),
        ([1.0, 3.0], 10.0, math.nan),
        ([1.0, 3.0], 10.0, math.inf),
    ])
    def test_rejects_non_finite(self, eigenvalues, complete_below, volume):
        with pytest.raises(SpectrumValidationError, match="finite"):
            spectra.Spectrum(dimension=2, eigenvalues=np.array(eigenvalues),
                             complete_below=complete_below,
                             domain=spectra.DomainSpec("file", 2),
                             volume=volume)

    def test_eigenvalues_read_only(self, square_pi):
        with pytest.raises(ValueError):
            square_pi.eigenvalues[0] = 0.0


class TestWeylAsymptote:
    def test_matches_actual_growth(self, unit_square):
        k = len(unit_square)
        asymptote = bounds.weyl_coeff(2, unit_square.volume) * k ** (2 / 2)
        ratio = unit_square.eigenvalues[k - 1] / asymptote
        assert 0.8 < ratio < 1.2


class TestFileFormat:
    def test_round_trip(self, tmp_path, square_pi):
        path = tmp_path / "spec.txt"
        spectra.write_spectrum(square_pi, str(path))
        loaded = spectra.load_spectrum(str(path))
        assert loaded.dimension == square_pi.dimension
        assert loaded.complete_below == square_pi.complete_below
        assert loaded.volume == square_pi.volume
        assert np.array_equal(loaded.eigenvalues, square_pi.eigenvalues)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header comment\ndim: 2\n\ncomplete_below: 10\n"
                        "2.0  # first\n5.0\n")
        loaded = spectra.load_spectrum(str(path))
        assert list(loaded.eigenvalues) == [2.0, 5.0]

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim: 2\ncomplete_below: 10\n2.0\nnot-a-number\n")
        with pytest.raises(SpectrumFormatError, match=r"bad\.txt:4"):
            spectra.load_spectrum(str(path))

    @pytest.mark.parametrize("text", [
        "dim: 2\ncomplete_below: nan\n1.0\nnan\n3.0\n",
        "dim: 2\ncomplete_below: 10\n1.0\nnan\n3.0\n",
        "dim: 2\ncomplete_below: inf\n1.0\n3.0\n",
        "dim: 2\ncomplete_below: 10\nvolume: inf\n1.0\n3.0\n",
    ])
    def test_rejects_non_finite(self, tmp_path, text):
        path = tmp_path / "nonfinite.txt"
        path.write_text(text)
        with pytest.raises(SpectrumValidationError, match="finite"):
            spectra.load_spectrum(str(path))

    def test_missing_headers(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("2.0\n5.0\n")
        with pytest.raises(SpectrumFormatError, match="dim"):
            spectra.load_spectrum(str(path))

    def test_csv_export(self, square_pi):
        for full in (False, True):
            buf = io.StringIO()
            spectra._write_csv(square_pi, buf, full)
            assert buf.getvalue() == spectrum_csv(square_pi, full)
        assert buf.getvalue().startswith("k,lambda_k\n1,2\n")

    @pytest.mark.parametrize("text, line", [
        ("dim: 2\ndim: 3\ncomplete_below: 10\n1.0\n", 2),
        ("dim: 2\ncomplete_below: 10\n1.0\nComplete_Below: 12\n", 4),
        ("dim: 2\ncomplete_below: 10\nvolume: 1\n1.0\nvolume: 2\n", 5),
    ])
    def test_repeated_header(self, tmp_path, text, line):
        path = tmp_path / "rep.txt"
        path.write_text(text)
        with pytest.raises(SpectrumFormatError,
                           match=rf"rep\.txt:{line}: repeated header"):
            spectra.load_spectrum(str(path))

    def test_header_after_values(self, tmp_path):
        path = tmp_path / "late.txt"
        path.write_text("1.0\ndim: 2\n2.0\ncomplete_below: 10\n")
        loaded = spectra.load_spectrum(str(path))
        assert (loaded.dimension, loaded.complete_below) == (2, 10.0)
        assert list(loaded.eigenvalues) == [1.0, 2.0]

    @pytest.mark.parametrize("text, reason", [
        ("dim: 0\ncomplete_below: 10\n1.0\n", "dimension must be >= 1"),
        ("dim: -1\ncomplete_below: 10\n1.0\n", "dimension must be >= 1"),
        ("dim: 2\ncomplete_below: nan\n1.0\n", "complete_below"),
        ("dim: 2\ncomplete_below: 10\n2.0\n1.0\n", "nondecreasing"),
        ("dim: 2\ncomplete_below: 10\n", "no eigenvalues"),
    ])
    def test_validation_error_names_file(self, tmp_path, text, reason):
        path = tmp_path / "invalid.txt"
        path.write_text(text)
        with pytest.raises(SpectrumValidationError) as info:
            spectra.load_spectrum(str(path))
        assert str(info.value).startswith(f"{path}: ")
        assert reason in str(info.value)


class TestBlockParsing:
    """``load_spectrum`` converts blocks of lines at once; files that need
    the line parser somewhere must still read exactly as it reads them."""

    N = 3 * spectra._LOAD_BLOCK + 100

    def _values(self):
        return np.sort(np.random.default_rng(5).uniform(1.0, 1e6, self.N))

    def _lines(self):
        return [repr(v) for v in self._values().tolist()]

    def _reference(self, path):
        with open(path) as fh:
            header = {}
            values = spectra._parse_lines(str(path), fh, 1, header)
        return header, np.array(values)

    def _check(self, path):
        header, values = self._reference(path)
        loaded = spectra.load_spectrum(str(path))
        assert np.array_equal(loaded.eigenvalues, values)
        assert loaded.dimension == header["dim"]
        assert loaded.complete_below == header["complete_below"]
        assert loaded.volume == header.get("volume")
        return loaded

    def test_comment_and_header_after_values(self, tmp_path):
        lines = self._lines()
        lines.insert(150_000, "# a comment after values")
        lines.insert(190_000, "volume: 2.5")
        lines[190_001] += "  # trailing"
        path = tmp_path / "late.txt"
        path.write_text("dim: 2\ncomplete_below: 1e6\n"
                        + "\n".join(lines) + "\n")
        loaded = self._check(path)
        assert loaded.volume == 2.5
        assert np.array_equal(loaded.eigenvalues, self._values())

    def test_headers_before_and_inside_the_first_block(self, tmp_path):
        # the leading header lines are parsed one by one and the rest of the
        # block in bulk
        lines = self._lines()
        lines.insert(1_000, "complete_below: 1e6  # inside")
        path = tmp_path / "headers.txt"
        path.write_text("# comment\ndim: 2\n\n"
                        "volume: 3\n" + "\n".join(lines) + "\n")
        loaded = self._check(path)
        assert loaded.complete_below == 1e6
        assert loaded.volume == 3.0
        assert np.array_equal(loaded.eigenvalues, self._values())

    def test_bad_value_in_the_first_block_names_its_line(self, tmp_path):
        lines = self._lines()
        lines[20] = "2..5"
        path = tmp_path / "early.txt"
        path.write_text("dim: 2\ncomplete_below: 1e6\n"
                        + "\n".join(lines) + "\n")
        with pytest.raises(SpectrumFormatError,
                           match=r"early\.txt:23: not a number"):
            spectra.load_spectrum(str(path))

    def test_repeated_header_deep_in_file_names_its_line(self, tmp_path):
        lines = self._lines()
        lines.insert(180_000, "dim: 3")
        path = tmp_path / "deep.txt"
        path.write_text("dim: 2\ncomplete_below: 1e6\n"
                        + "\n".join(lines) + "\n")
        with pytest.raises(SpectrumFormatError,
                           match=r"deep\.txt:180003: repeated header 'dim'"):
            spectra.load_spectrum(str(path))

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(("dim: 2\r\ncomplete_below: 1e6\r\n"
                          + "\r\n".join(self._lines()) + "\r\n").encode())
        loaded = self._check(path)
        assert np.array_equal(loaded.eigenvalues, self._values())

    def test_blank_lines_inside_a_block(self, tmp_path):
        lines = self._lines()
        for at in (70_000, 70_001, 140_000):
            lines.insert(at, "   " if at % 2 else "")
        path = tmp_path / "blank.txt"
        path.write_text("dim: 2\ncomplete_below: 1e6\n"
                        + "\n".join(lines) + "\n")
        loaded = self._check(path)
        assert np.array_equal(loaded.eigenvalues, self._values())

    def test_bad_value_deep_in_file_names_its_line(self, tmp_path):
        lines = self._lines()
        lines[180_000] = "1.5e3x"
        path = tmp_path / "deep.txt"
        path.write_text("dim: 2\ncomplete_below: 1e6\n"
                        + "\n".join(lines) + "\n")
        with pytest.raises(SpectrumFormatError,
                           match=r"deep\.txt:180003: not a number"):
            spectra.load_spectrum(str(path))

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf", "1e400"])
    def test_non_finite_deep_in_file(self, tmp_path, bad):
        lines = self._lines()
        lines[-10] = bad
        path = tmp_path / "nonfinite.txt"
        path.write_text("dim: 2\ncomplete_below: 1e6\n"
                        + "\n".join(lines) + "\n")
        with pytest.raises(SpectrumValidationError, match="finite"):
            spectra.load_spectrum(str(path))

    def test_write_then_load_in_chunks(self, tmp_path, writer_cases):
        spec = spectra.Spectrum(
            dimension=2, eigenvalues=self._values(), complete_below=1e6,
            domain=spectra.DomainSpec("file", 2), volume=1.0)
        path = tmp_path / "rt.txt"
        spectra.write_spectrum(spec, str(path))
        text = path.read_text()
        values = spec.eigenvalues.tolist()
        assert text == ("dim: 2\ncomplete_below: 1000000.0\nvolume: 1.0\n"
                        + "".join(f"{v!r}\n" for v in values))
        assert np.array_equal(self._check(path).eigenvalues, spec.eigenvalues)
        # runs of equal eigenvalues, however they meet the write chunks,
        # give the bytes of one repr per line
        for name, case in writer_cases.items():
            spectra.write_spectrum(case, str(path))
            assert path.read_bytes() == spectrum_text(case).encode(), name
            assert np.array_equal(self._check(path).eigenvalues,
                                  case.eigenvalues), name
