"""Bound catalog: frozen reference values (computed independently), the
semiclassical-constant identity, validity gates, and catalog metadata."""

import math

import mpmath
import pytest

import oracles
from rieszbounds import bounds, specfun
from rieszbounds.errors import DomainError, ValidityError

mpmath.mp.dps = 30


class TestConstants:
    def test_H2_from_bessel_values(self):
        # H_2 = 4 / (j_{0,1}^2 J_1(j_{0,1})^2), via the mpmath oracle
        j01 = mpmath.besseljzero(0, 1)
        expected = float(4 / (j01 ** 2 * mpmath.besselj(1, j01) ** 2))
        assert bounds.H_d(2) == pytest.approx(expected, rel=1e-12)
        assert 2.565 < bounds.H_d(2) < 2.567

    def test_H3(self):
        # j_{1/2,1} = pi, J_{3/2}(pi) = sqrt(2/pi^2) * 1 -> H_3 = 3 pi^2 ... oracle:
        expected = float(6 / (mpmath.pi ** 2
                              * mpmath.besselj(1.5, mpmath.pi) ** 2))
        assert bounds.H_d(3) == pytest.approx(expected, rel=1e-12)

    def test_L_cl_values(self):
        assert bounds.L_cl(0.0, 2) == pytest.approx(1 / (4 * math.pi),
                                                    rel=1e-14)
        assert bounds.L_cl(1.0, 2) == pytest.approx(1 / (8 * math.pi),
                                                    rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 3.0, 5.0])
    def test_L_cl_ratio_identity(self, d, sigma):
        # L_cl(sigma-1, d) = (1 + d/(2 sigma)) L_cl(sigma, d)
        assert bounds.L_cl(sigma - 1, d) == pytest.approx(
            (1 + d / (2 * sigma)) * bounds.L_cl(sigma, d), rel=1e-12)

    def test_ab_ratio_d2(self):
        j11 = float(mpmath.besseljzero(1, 1))
        j01 = float(mpmath.besseljzero(0, 1))
        assert bounds.ab_ratio(2) == pytest.approx((j11 / j01) ** 2,
                                                   rel=1e-12)

    def test_dimension_gate(self):
        with pytest.raises(ValidityError):
            bounds.H_d(25)
        assert bounds.H_d(25, allow_large_d=True) > 0


class TestFrozenTableValues:
    """Reference values frozen from independent evaluation of the closed
    forms (constants cross-checked against the mpmath Bessel oracle)."""

    def test_ratio_bounds_d2_k127(self):
        assert bounds.simple_p9(2, 127) == pytest.approx(142.875, rel=1e-12)
        assert bounds.cy_av(2, 127) == pytest.approx(190.5, rel=1e-12)
        assert bounds.her2(2, 127) == pytest.approx(163.9615, rel=1e-4)
        assert bounds.ab94_avg(2, 127) == pytest.approx(339.8524, rel=1e-4)
        assert bounds.fk_weyl_avg(2, 127) == pytest.approx(43.9204, rel=1e-4)

    def test_d4_row(self):
        assert bounds.simple_p9(4, 127) == pytest.approx(
            2 * (2 / 3) ** 1.5 * math.sqrt(127), rel=1e-12)

    def test_cheng_yang(self):
        assert bounds.cheng_yang(2, 127) == pytest.approx(381.0, rel=1e-12)
        assert bounds.cheng_yang(3, 8) == pytest.approx(
            (1 + 4 / 3) * 4.0, rel=1e-12)

    def test_ab94_powers_of_two(self):
        assert bounds.ab94(2, 0) == 1.0
        assert bounds.ab94(2, 2) == pytest.approx(bounds.ab_ratio(2) ** 2,
                                                  rel=1e-14)

    def test_coefficient_ratios(self):
        ref2 = bounds.fk_coeff(2) / 2.0
        assert bounds.simple_p9_coeff(2) / ref2 == pytest.approx(
            3.253042, rel=1e-5)
        assert bounds.cy_av_coeff(2) / ref2 == pytest.approx(
            4.337390, rel=1e-5)
        ref4 = bounds.fk_coeff(4) / 1.5
        assert bounds.simple_p9_coeff(4) / ref4 == pytest.approx(
            2.996940, rel=1e-5)

    def test_berezin_li_yau_unit_square(self):
        # (d/(d+2)) 4 pi k / |Omega| = 2 pi k at d = 2, unit volume
        assert bounds.berezin_li_yau(2, 1.0, 10) == pytest.approx(
            2 * math.pi * 10, rel=1e-12)


class TestValidityGates:
    def test_mean_ratio_threshold(self):
        with pytest.raises(ValidityError):
            bounds.mean_ratio(2, 5, 3)
        assert bounds.mean_ratio(2, 5, 7) > 0

    def test_cheng_yang2_threshold(self):
        with pytest.raises(ValidityError):
            bounds.cheng_yang2(3, 3)
        assert bounds.cheng_yang2(3, 4) > 0

    def test_abhh_threshold(self):
        # requires k >= (d+1)(1+d/2)/(1+d/4)
        with pytest.raises(ValidityError):
            bounds.abhh(2, 3)
        assert bounds.abhh(2, 4) > 0

    def test_riesz_sigma_gates(self):
        with pytest.raises(ValidityError):
            bounds.riesz_upper(1.5, 2, 1.0, 10.0)
        with pytest.raises(ValidityError):
            bounds.riesz_lower_main(2.0, 2, 1.0, 1.5)  # below z threshold
        with pytest.raises(ValidityError):
            bounds.riesz_lower_sub2(2.5, 2, 1.0, 50.0)
        with pytest.raises(ValidityError):
            bounds.riesz_lower_hermi(0.5, 2, 1.0, 50.0)

    def test_counting_lower_threshold(self):
        with pytest.raises(ValidityError):
            bounds.counting_lower(2, 1.0, 2.9)
        assert bounds.counting_lower(2, 1.0, 3.0) == pytest.approx(1.0)

    def test_lambda_next_requires_k_ge_j(self):
        with pytest.raises(ValidityError):
            bounds.lambda_next_over_mean(2, 5, 3)

    def test_ab94_power_leaving_float_range(self):
        # ab_ratio(3) ~ 2.05, so ab_ratio(3)^m overflows between m = 900
        # and m = 1000; k = 2^999 needs m = 999
        assert math.isfinite(bounds.ab94(3, 900))
        with pytest.raises(ValidityError, match="m=1000"):
            bounds.ab94(3, 1000)
        with pytest.raises(ValidityError):
            bounds.ab94_avg(3, 2.0 ** 999)


class TestCatalog:
    def test_census(self):
        assert len(bounds.CATALOG) >= 18
        for b in bounds.CATALOG.values():
            assert b.cite
            assert b.validity
            assert callable(b.fn)

    def test_evaluate_by_id(self):
        assert bounds.evaluate("cheng_yang", d=2, k=127) == \
            pytest.approx(381.0)
        with pytest.raises(KeyError):
            bounds.evaluate("no_such_bound", d=2)
        with pytest.raises(ValidityError):
            bounds.evaluate("mean_ratio", d=2, j=5, k=3)

    def test_catalog_dump_serializable(self):
        import json
        dump = bounds.catalog_dump(d_list=(2, 3))
        text = json.dumps(dump)
        assert "cheng_yang" in text
        assert dump["constants"]["2"]["H_d"] == pytest.approx(
            bounds.H_d(2))


#: (d, allow_large_d) pairs the memo pins cover
_DIMS = [(d, False) for d in range(1, 11)] + [(11, True), (12, True)]
_INDICES = [1, 2, 3, 4, 5, 7, 10, 16, 33, 100, 127, 1000, 4097, 10**5,
            10**6 + 3]


class TestMemoizedConstants:
    """The per-dimension memos give the bits of the closed forms written
    out in full (``tests/oracles.py``), on every call."""

    @pytest.mark.parametrize("d, large", _DIMS)
    def test_index_bounds_equal_closed_forms(self, d, large):
        for _ in range(2):  # cold memo, then warm
            for k in _INDICES:
                if k >= oracles.abhh_threshold(d):
                    assert bounds.abhh(d, k, large) == oracles.abhh(d, k)
                else:
                    with pytest.raises(ValidityError):
                        bounds.abhh(d, k, large)
                assert bounds.abhh_next(d, k, large) == \
                    oracles.abhh_next(d, k)
                for j in _INDICES[:8]:
                    if k >= j:
                        assert bounds.lambda_next_over_mean(d, j, k, large) \
                            == oracles.lambda_next_over_mean(d, j, k)
                    if k >= oracles.mean_ratio_threshold(d, j):
                        assert bounds.mean_ratio(d, j, k, large) == \
                            oracles.mean_ratio(d, j, k)
                    else:
                        with pytest.raises(ValidityError):
                            bounds.mean_ratio(d, j, k, large)
            for mean_k in (1e-300, 0.1, 1.0, 19.739208802178716, 3e5,
                           1e150):
                assert bounds.mean_sq_envelope(d, mean_k, large) == \
                    oracles.mean_sq_envelope(d, mean_k)

    @pytest.mark.parametrize("d, large", _DIMS)
    def test_L_cl_equals_closed_form(self, d, large):
        for _ in range(2):
            for sigma in (0.0, 0.25, 0.5, 1, 1.0, 1.5, 2.0, 2.5, 4.0, 5.0):
                assert bounds.L_cl(sigma, d) == oracles.L_cl(sigma, d)

    def test_large_d_stays_gated_after_an_allowed_call(self):
        bounds.abhh(11, 100, allow_large_d=True)
        with pytest.raises(ValidityError, match="allow_large_d"):
            bounds.abhh(11, 100)
        with pytest.raises(ValidityError, match="allow_large_d"):
            bounds._check_dim(11)

    def test_memos_store_no_exception(self):
        for call in (lambda: bounds._check_dim(2.5),
                     lambda: bounds.abhh(2, 3),
                     lambda: bounds.L_cl(-1.0, 2)):
            for _ in range(3):
                with pytest.raises(ValidityError):
                    call()
        with pytest.raises(DomainError):
            specfun.gamma(0.0)
        with pytest.raises(DomainError):
            specfun.gamma(0.0)


_NAN = math.nan
_INF = math.inf


class TestNonFiniteGates:
    """Each lower-limit gate is ``not limit <= x < inf``: NaN and +inf fail
    it, and a dimension or index must be a finite integer, so a non-finite
    argument raises ValidityError instead of a bare ValueError or
    OverflowError, a NaN or an infinite bound."""

    @pytest.mark.parametrize("fn, args", [
        (bounds._check_dim, (_NAN,)),
        (bounds._check_dim, (_INF,)),
        (bounds._check_dim, (-_INF,)),
        (bounds._check_dim, (_INF, True)),
        (bounds.H_d, (_NAN,)),
        (bounds.L_cl, (_NAN, 2)),
        (bounds.weyl_coeff, (2, _NAN)),
        (bounds.ab94, (2, _NAN)),
        (bounds.ab94, (2, _INF)),
        (bounds.ab94_avg, (2, _NAN)),
        (bounds.her1, (2, _NAN)),
        (bounds.her2, (2, _NAN)),
        (bounds.cheng_yang, (2, _NAN)),
        (bounds.cheng_yang2, (2, _NAN)),
        (bounds.fk_weyl, (2, _NAN)),
        (bounds.berezin_li_yau, (2, 1.0, _NAN)),
        (bounds.berezin_li_yau, (2, _NAN, 5)),
        (bounds.riesz_upper, (_NAN, 2, 1.0, 10.0)),
        (bounds.riesz_upper, (2.0, 2, 1.0, _NAN)),
        (bounds.riesz_lower_main, (2.0, 2, 1.0, _NAN)),
        (bounds.riesz_lower_main, (2.0, 2, _NAN, 10.0)),
        (bounds.riesz_lower_sub2, (1.0, 2, 1.0, _NAN)),
        (bounds.riesz_lower_sub2, (_NAN, 2, 1.0, 10.0)),
        (bounds.riesz_lower_hermi, (1.0, 2, 1.0, _NAN)),
        (bounds.riesz_lower_hermi, (_NAN, 2, 1.0, 10.0)),
        (bounds.counting_lower, (2, 1.0, _NAN)),
        (bounds.counting_lower_j, (2, _NAN, 1.0, 10.0)),
        (bounds.counting_lower_j, (2, _INF, 1.0, 10.0)),
        (bounds.counting_lower_j, (2, 1, _NAN, 10.0)),
        (bounds.lambda_next_over_mean, (2, 1, _NAN)),
        (bounds.lambda_next_over_mean, (2, 1, _INF)),
        (bounds.lambda_next_over_mean, (2, _NAN, 3)),
        (bounds.mean_ratio, (2, 1, _NAN)),
        (bounds.mean_ratio, (2, _NAN, 5)),
        (bounds.abhh, (2, _NAN)),
        (bounds.abhh, (_NAN, 10)),
        (bounds.abhh_next, (2, _NAN)),
        (bounds.mean_sq_envelope, (2, _NAN)),
        (bounds.simple_p9, (2, _NAN)),
        (bounds.cy_av, (2, _NAN)),
        (bounds.simple_p9_coeff, (_NAN,)),
        (bounds.cy_av_coeff, (_INF,)),
        # +inf fails every lower-limit gate as NaN does
        (bounds.L_cl, (_INF, 2)),
        (bounds.weyl_coeff, (2, _INF)),
        (bounds.ab94_avg, (2, _INF)),
        (bounds.her1, (2, _INF)),
        (bounds.her2, (2, _INF)),
        (bounds.cheng_yang, (2, _INF)),
        (bounds.cheng_yang2, (2, _INF)),
        (bounds.fk_weyl, (2, _INF)),
        (bounds.berezin_li_yau, (2, _INF, 5)),
        (bounds.berezin_li_yau, (2, 1.0, _INF)),
        (bounds.riesz_upper, (2.0, 2, 1.0, _INF)),
        (bounds.riesz_upper, (2.0, 2, _INF, 10.0)),
        (bounds.riesz_upper, (_INF, 2, 1.0, 10.0)),
        (bounds.riesz_lower_main, (2.0, 2, 1.0, _INF)),
        (bounds.riesz_lower_main, (2.0, 2, _INF, 10.0)),
        (bounds.riesz_lower_main, (_INF, 2, 1.0, 10.0)),
        (bounds.riesz_lower_sub2, (1.0, 2, 1.0, _INF)),
        (bounds.riesz_lower_sub2, (0.5, 2, 1.0, _INF)),
        (bounds.riesz_lower_sub2, (1.0, 2, _INF, 10.0)),
        (bounds.riesz_lower_hermi, (1.0, 2, 1.0, _INF)),
        (bounds.riesz_lower_hermi, (1.0, 2, _INF, 10.0)),
        (bounds.riesz_lower_hermi, (_INF, 2, 1.0, 10.0)),
        (bounds.counting_lower, (2, 1.0, _INF)),
        (bounds.counting_lower_j, (2, 1, 1.0, _INF)),
        (bounds.counting_lower_j, (2, 1, _INF, 10.0)),
        (bounds.mean_ratio, (2, 1, _INF)),
        (bounds.abhh, (2, _INF)),
        (bounds.abhh_next, (2, _INF)),
        (bounds.mean_sq_envelope, (2, _INF)),
        (bounds.simple_p9, (2, _INF)),
        (bounds.cy_av, (2, _INF)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_rejects_non_finite(self, fn, args):
        with pytest.raises(ValidityError):
            fn(*args)

    def test_evaluate_rejects_nan(self):
        with pytest.raises(ValidityError):
            bounds.evaluate("abhh", d=2, k=_NAN)
