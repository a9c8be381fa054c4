"""Acceptance gate: nine end-to-end criteria with golden values, timed
budgets, and property-based checks.  One summary line per criterion is
printed at the end of the pytest run (see conftest)."""

import math
import time

import numpy as np
import pytest

from rieszbounds import bounds, cli, riesz, specfun, verify

from oracles import COROLLARY_IDS, THEOREM_IDS, c_sigma, legendre_numeric

# Golden table values (published comparison tables, 6 displayed digits).
TABLE1_GOLDEN = {
    2: (142.875, 190.5, 163.962, 339.852, 43.9204),
    3: (27.8886, 35.3723, 32.5332, 89.974, 8.9804),
    4: (12.2686, 15.0259, 14.7695, 40.2459, 4.0937),
    5: (7.48017, 8.92619, 9.34082, 23.3009, 2.56781),
    6: (5.37202, 6.28316, 6.95603, 15.646, 1.88786),
    7: (4.23768, 4.87795, 5.67474, 11.5391, 1.51906),
}

# Coefficient-ratio golden values.  The d=2 first entry is the
# independently recomputed value 3.253042; the commonly quoted rendering
# transposes digits (3.250304), which differs from the elementary
# closed-form ratio by 8e-4 while every other entry agrees to 6 digits.
TABLE3_GOLDEN = {
    2: (3.253042, 4.33739),
    3: (3.10528, 3.93884),
    4: (2.99694, 3.67049),
    5: (2.91306, 3.47619),
    6: (2.84556, 3.32818),
    7: (2.78967, 3.21116),
}

TABLE2_GOLDEN = {
    2: (2.53014, 3.08587),
    3: (2.46466, 2.92435),
    4: (2.41249, 2.80499),
    5: (2.37103, 2.71385),
    6: (2.33756, 2.64210),
    7: (2.31003, 2.58414),
}


@pytest.fixture(scope="module")
def full_specs():
    return verify.default_spectra()


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    _, rows = cli.table_rows("table1")
    elapsed = time.perf_counter() - t0
    assert len(rows) == 6
    for row in rows:
        d = int(row[0])
        for got, want in zip(row[2:], TABLE1_GOLDEN[d]):
            assert got == pytest.approx(want, rel=1e-3), (d, got, want)
    assert elapsed < 1.0, f"table1 took {elapsed:.2f}s"


def test_criterion_2_table3_reproduction():
    t0 = time.perf_counter()
    _, rows = cli.table_rows("table3")
    elapsed = time.perf_counter() - t0
    for row in rows:
        d = int(row[0])
        for got, want in zip(row[1:], TABLE3_GOLDEN[d]):
            # 5 significant figures
            assert got == pytest.approx(want, rel=1e-5), (d, got, want)
    assert elapsed < 1.0, f"table3 took {elapsed:.2f}s"


def test_criterion_3_table2_reproduction():
    t0 = time.perf_counter()
    _, rows = cli.table_rows("table2")
    elapsed = time.perf_counter() - t0
    for row in rows:
        d = int(row[0])
        for got, want in zip(row[2:], TABLE2_GOLDEN[d]):
            assert got == pytest.approx(want, rel=5e-4), (d, got, want)
    assert elapsed < 1.0, f"table2 took {elapsed:.2f}s"


def test_criterion_4_theorem_suite(full_specs):
    t0 = time.perf_counter()
    cfg = verify.VerifyConfig()
    checks = verify.sweep(full_specs, cfg, ids=THEOREM_IDS)
    assert {c.id for c in checks} == set(THEOREM_IDS)
    for c in checks:
        assert c.passed, f"{c.id} worst margin {c.worst_margin}"
        assert c.worst_margin >= -1e-9
    # negative control: corrupted twin must break at least one check
    twin = {"corrupted": verify.corrupt_spectrum(full_specs["square_1x1"])}
    ctl_cfg = verify.VerifyConfig(z_points=40, j_count=4, k_count=8,
                                  hoelder_samples=10, moment_k_count=3)
    ctl = verify.sweep(twin, ctl_cfg)
    assert any(not c.passed for c in ctl), "negative control was vacuous"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"theorem suite took {elapsed:.1f}s"


def test_criterion_5_corollary_suite(full_specs):
    t0 = time.perf_counter()
    cfg = verify.VerifyConfig()
    checks = verify.sweep(full_specs, cfg, ids=COROLLARY_IDS)
    assert {c.id for c in checks} == set(COROLLARY_IDS)
    total = sum(c.n_points for c in checks)
    assert total >= 10_000, f"only {total} grid points checked"
    for c in checks:
        assert c.passed, f"{c.id} worst margin {c.worst_margin}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"corollary suite took {elapsed:.1f}s"


def test_criterion_6_legendre_oracle_equivalence(full_specs):
    rng = np.random.default_rng(42)
    for spec in full_specs.values():
        ws = rng.uniform(1e-6, len(spec) - 1e-6, 200)
        for w in ws:
            assert riesz.legendre_R1(spec, float(w)) == \
                legendre_numeric(spec, float(w))


def test_criterion_7_special_function_accuracy():
    assert abs(specfun.bessel_zero(0.0, 1).value - 2.4048255577) < 1e-9
    assert abs(specfun.bessel_zero(1.0, 1).value - 3.8317059702) < 1e-9
    assert 2.565 < bounds.H_d(2) < 2.567
    for x in np.linspace(0.5, 48.5, 97):
        assert specfun.gamma(x + 1) == pytest.approx(
            x * specfun.gamma(x), rel=1e-12)
    for d in (1, 2, 3, 5, 7):
        for sigma in (1.0, 1.5, 2.0, 3.0, 5.0):
            assert bounds.L_cl(sigma - 1, d) == pytest.approx(
                (1 + d / (2 * sigma)) * bounds.L_cl(sigma, d), rel=1e-12)


def test_criterion_8_secant_slope_property():
    rng = np.random.default_rng(0)
    xs = rng.uniform(1e-3, 10.0, 10_000)
    ys = rng.uniform(1e-3, 10.0, 10_000)
    sigmas = rng.uniform(0.0, 6.0, 10_000)
    for x, y, sigma in zip(xs, ys, sigmas):
        lo, hi = (x, y) if x < y else (y, x)
        if hi - lo < 1e-12:
            continue
        lhs = (hi ** sigma - lo ** sigma) / (hi - lo)
        rhs = c_sigma(sigma) * (hi ** (sigma - 1) + lo ** (sigma - 1))
        assert lhs <= rhs * (1 + 1e-12), (x, y, sigma)

    # sharpness: a 1% smaller constant must fail near each regime boundary
    def violates(sigma, x, y):
        lhs = (y ** sigma - x ** sigma) / (y - x)
        rhs = 0.99 * c_sigma(sigma) \
            * (y ** (sigma - 1) + x ** (sigma - 1))
        return lhs > rhs

    assert violates(0.5, 1.0, 1.0 + 1e-6)
    assert violates(4.0, 1.0, 1.0 + 1e-6)
    assert violates(2.0, 1.0, 3.0)  # equality case: any pair violates


def test_criterion_9_weyl_asymptotic_sanity(full_specs):
    spec = full_specs["square_1x1"]
    z = 0.9 * spec.complete_below
    ratio = riesz.counting(spec, z) / z / (bounds.L_cl(0.0, 2) * 1.0)
    assert 0.9 <= ratio <= 1.1, ratio
