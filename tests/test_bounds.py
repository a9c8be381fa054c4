"""Bound catalog: frozen reference values (computed independently), the
semiclassical-constant identity, validity gates, and catalog metadata."""

import inspect
import math

import mpmath
import numpy as np
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
        with pytest.raises(ValidityError,
                           match=r"^d=25 exceeds the checked range 1\.\.10$"):
            bounds.H_d(25)


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

    @pytest.mark.parametrize("j, k", [(2, 3.5), (5, 3.5), (2, math.nan)])
    def test_lambda_next_requires_integer_k(self, j, k):
        # whatever the order of j and k, a non-integral k is named as such
        with pytest.raises(ValidityError, match="k must be an integer"):
            bounds.lambda_next_over_mean(2, j, k)

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

    def test_ab94_avg_is_no_bound_at_k1(self):
        # mean_1/lambda_1 = 1 on every spectrum, so an upper bound on
        # mean_k/lambda_1 must be >= 1 at k = 1
        for d in range(1, 11):
            assert bounds.ab94_avg(d, 1) < 1
            assert bounds.ab94_avg(d, 1) == 1 / (1 + 2 / d)
        assert "comparison expression" in bounds.CATALOG["ab94_avg"].validity

    def test_evaluate_by_id(self):
        assert bounds.evaluate("cheng_yang", d=2, k=127) == \
            pytest.approx(381.0)
        with pytest.raises(KeyError):
            bounds.evaluate("no_such_bound", d=2)
        with pytest.raises(ValidityError):
            bounds.evaluate("mean_ratio", d=2, j=5, k=3)

    def test_catalog_dump_serializable(self):
        import json
        dump = bounds.catalog_dump()
        text = json.dumps(dump)
        assert "cheng_yang" in text
        assert dump["constants"]["2"]["H_d"] == pytest.approx(
            bounds.H_d(2))

    def test_catalog_shape(self):
        # each entry's params are its function's argument names, in order
        dump = bounds.catalog_dump()
        shape = [(b["id"], b["kind"], tuple(b["params"]), b["validity"])
                 for b in dump["bounds"]]
        assert shape == _CATALOG_SHAPE
        assert list(dump["constants"]) == ["1", "2", "3", "4", "5", "6", "7"]


_RATIO, _MEAN = "upper_on_lambda_ratio", "upper_on_mean_ratio"
_RLOW, _NLOW = "lower_on_riesz", "lower_on_counting"
_DK = ("d", "k")
#: (id, kind, params, validity) of every catalog entry, in catalog order
_CATALOG_SHAPE = [
    ("ab94", _RATIO, ("d", "m"), "d >= 1, m >= 0"),
    ("ab94_avg", _MEAN, _DK,
     "k >= 1 (comparison expression, not a bound: below mean_k/lambda_1 "
     "at k = 1)"),
    ("her1", _RATIO, _DK, "k >= 1"),
    ("her2", _MEAN, _DK, "k >= 1"),
    ("cheng_yang", _RATIO, _DK, "k >= 1"),
    ("cheng_yang2", _RATIO, _DK, "k >= d+1"),
    ("cheng_yang2_avg", _MEAN, _DK, "k >= d+1"),
    ("fk_weyl", _RATIO, _DK, "k >= 1 (asymptotic expression)"),
    ("fk_weyl_avg", _MEAN, _DK, "k >= 1 (asymptotic expression)"),
    ("berezin_li_yau", _RLOW, ("d", "volume", "k"), "k >= 1, volume > 0"),
    ("riesz_upper", "upper_on_riesz", ("sigma", "d", "volume", "z"),
     "sigma >= 2"),
    ("riesz_lower_main", _RLOW, ("sigma", "d", "lam1", "z"),
     "sigma >= 2, z >= (1+2 sigma/d) lam1"),
    ("riesz_lower_sub2", _RLOW, ("sigma", "d", "lam1", "z"),
     "z >= (1+(2 sigma+2)/d) lam1 for sigma >= 1, "
     "z >= (1+(2 sigma+4)/d) lam1 for sigma < 1"),
    ("riesz_lower_hermi", _RLOW, ("sigma", "d", "lam1", "z"), "sigma >= 1"),
    ("counting_lower", _NLOW, ("d", "lam1", "z"), "z >= (1+4/d) lam1"),
    ("counting_lower_j", _NLOW, ("d", "j", "mean_j", "z"),
     "z >= (1+4/d) mean_j"),
    ("lambda_next_over_mean", _RATIO, ("d", "j", "k"), "k >= j >= 1"),
    ("mean_ratio", _MEAN, ("d", "j", "k"), "k >= j (1+d/2)/(1+d/4)"),
    ("abhh", _MEAN, _DK, "k >= (d+1)(1+d/2)/(1+d/4)"),
    ("abhh_next", _RATIO, _DK, "guaranteed for k >= (d+1)(1+d/2)/(1+d/4)"),
    ("simple_p9", _MEAN, _DK, "k >= 2"),
    ("cy_av", _MEAN, _DK, "k >= 1"),
]


#: (d, gated) pairs the memo pins cover; a gated d is past the checked range
_DIMS = [(d, d > bounds.MAX_CHECKED_DIMENSION) for d in range(1, 13)]
_INDICES = [1, 2, 3, 4, 5, 7, 10, 16, 33, 100, 127, 1000, 4097, 10**5,
            10**6 + 3]
#: the one message of a dimension past the checked range
_OUT_OF_RANGE = r"^d={d} exceeds the checked range 1\.\.10$"
_K = {"k": 100}
_Z = {"lam1": 1.0, "z": 100.0}
#: every public bound or constant that gates d, with valid other arguments
_D_CALLS = [
    (bounds.H_d, {}), (bounds.fk_coeff, {}), (bounds.ab_ratio, {}),
    (bounds.weyl_coeff, {"volume": 1.0}), (bounds.ab94, {"m": 3}),
    (bounds.ab94_avg, _K), (bounds.her1, _K), (bounds.her2, _K),
    (bounds.cheng_yang, _K), (bounds.cheng_yang2, _K),
    (bounds.cheng_yang2_avg, _K), (bounds.fk_weyl, _K),
    (bounds.fk_weyl_avg, _K), (bounds.berezin_li_yau, {"volume": 1.0, **_K}),
    (bounds.riesz_upper, {"sigma": 2.0, "volume": 1.0, "z": 100.0}),
    (bounds.riesz_lower_main, {"sigma": 2.0, **_Z}),
    (bounds.riesz_lower_sub2, {"sigma": 1.0, **_Z}),
    (bounds.riesz_lower_hermi, {"sigma": 1.0, **_Z}),
    (bounds.counting_lower, _Z),
    (bounds.counting_lower_j, {"j": 1, "mean_j": 1.0, "z": 100.0}),
    (bounds.lambda_next_over_mean, {"j": 1, **_K}),
    (bounds.mean_ratio, {"j": 1, **_K}), (bounds.abhh, _K),
    (bounds.abhh_next, _K), (bounds.mean_sq_envelope, {"mean_k": 1.0}),
    (bounds.simple_p9, _K), (bounds.cy_av, _K),
    (bounds.simple_p9_coeff, {}), (bounds.cy_av_coeff, {}),
]


class TestMemoizedConstants:
    """The per-dimension memos give the bits of the closed forms written
    out in full (``tests/oracles.py``), on every call."""

    @pytest.mark.parametrize("d, gated", _DIMS)
    def test_index_bounds_equal_closed_forms(self, d, gated):
        for _ in range(2):  # cold memo, then warm
            if gated:
                for call in (lambda: bounds.abhh(d, 100),
                             lambda: bounds.abhh_next(d, 100),
                             lambda: bounds.lambda_next_over_mean(d, 1, 100),
                             lambda: bounds.mean_ratio(d, 1, 100),
                             lambda: bounds.mean_sq_envelope(d, 1.0)):
                    with pytest.raises(ValidityError,
                                       match=_OUT_OF_RANGE.format(d=d)):
                        call()
                continue
            for k in _INDICES:
                if k >= oracles.abhh_threshold(d):
                    assert bounds.abhh(d, k) == oracles.abhh(d, k)
                else:
                    with pytest.raises(ValidityError):
                        bounds.abhh(d, k)
                assert bounds.abhh_next(d, k) == oracles.abhh_next(d, k)
                for j in _INDICES[:8]:
                    if k >= j:
                        assert bounds.lambda_next_over_mean(d, j, k) \
                            == oracles.lambda_next_over_mean(d, j, k)
                    if k >= oracles.mean_ratio_threshold(d, j):
                        assert bounds.mean_ratio(d, j, k) == \
                            oracles.mean_ratio(d, j, k)
                    else:
                        with pytest.raises(ValidityError):
                            bounds.mean_ratio(d, j, k)
            for mean_k in (1e-300, 0.1, 1.0, 19.739208802178716, 3e5,
                           1e150):
                assert bounds.mean_sq_envelope(d, mean_k) == \
                    oracles.mean_sq_envelope(d, mean_k)

    @pytest.mark.parametrize("d, gated", _DIMS)
    def test_L_cl_equals_closed_form(self, d, gated):
        for _ in range(2):
            for sigma in (0.0, 0.25, 0.5, 1, 1.0, 1.5, 2.0, 2.5, 4.0, 5.0):
                assert bounds.L_cl(sigma, d) == oracles.L_cl(sigma, d)

    def test_gated_functions_are_every_public_function_of_d(self):
        # L_cl(sigma, d) is the one function of d without a dimension gate
        of_d = {fn for name, fn in vars(bounds).items()
                if not name.startswith("_") and callable(fn)
                and not isinstance(fn, type)
                and fn.__module__ == bounds.__name__
                and "d" in inspect.signature(fn).parameters}
        assert of_d == {fn for fn, _ in _D_CALLS} | {bounds.L_cl}

    @pytest.mark.parametrize("fn, args", _D_CALLS,
                             ids=[fn.__name__ for fn, _ in _D_CALLS])
    def test_large_d_stays_gated_after_other_calls(self, fn, args):
        # d = 11 gives the one message before and after calls at d = 2
        # and d = 10 fill the function's memos
        for d in (11, 2, 11, 10, 11):
            if d <= bounds.MAX_CHECKED_DIMENSION:
                assert np.isfinite(fn(d=d, **args)).all()
            else:
                with pytest.raises(ValidityError,
                                   match=_OUT_OF_RANGE.format(d=d)):
                    fn(d=d, **args)
        with pytest.raises(ValidityError, match=_OUT_OF_RANGE.format(d=11)):
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
        (bounds._check_dim, (np.float64(_INF),)),
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

    @pytest.mark.parametrize("d", [_INF, _NAN, 0, -1, 2.5])
    def test_weyl_coeff_dimension_gate(self, d):
        with pytest.raises(ValidityError):
            bounds.weyl_coeff(d, 1.0)

    def test_evaluate_rejects_nan(self):
        with pytest.raises(ValidityError):
            bounds.evaluate("abhh", d=2, k=_NAN)
