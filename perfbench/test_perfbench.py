"""Self-tests of the benchmark and its tracer (about two minutes).

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import speed  # noqa: E402

SEED_RECORD = Path(__file__).resolve().parent / "records" / "BENCH_seed.json"


@pytest.fixture(scope="module")
def verify_plain():
    return run.run_workload("verify_default", 0, 0.0, trace=False)


@pytest.fixture(scope="module")
def verify_traced():
    return run.run_workload("verify_default", 0, 0.0, trace=True)


@pytest.fixture(scope="module")
def ball_traced():
    return run.run_workload("ball_spectra", 0, 0.0, trace=True, min_reps=2)


def test_rescale_divides_out_the_sampled_speed():
    r = speed.REF_NOMINAL_S
    meter = speed.Speedometer()
    # the loop took nominal time before t0, three times that at t = 1 and 2
    meter.samples = [(-r, 0.0), (1.0, 1.0 + 3 * r), (2.0, 2.0 + 3 * r),
                     (3.0, 3.0 + 3 * r)]
    work, norm = meter.rescale(0.0, 3.0)
    assert work == pytest.approx(3.0 - 6 * r)
    assert norm == pytest.approx(1.0 / 2 + 2 * (1.0 - 3 * r) / 3)
    assert meter.sampled(0.0, 3.0) == pytest.approx(6 * r)


def test_speedometer_samples_while_work_runs():
    meter = speed.Speedometer()
    meter.install()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 4 * speed.SPEED_PERIOD_S:
        sum(i * 0.5 for i in range(1000))
    t1 = time.perf_counter()
    meter.uninstall()
    assert len(meter.samples) >= 4
    work, norm = meter.rescale(t0, t1)
    assert work + meter.sampled(t0, t1) == pytest.approx(t1 - t0)
    assert norm > 0


def test_tracing_leaves_verify_output_unchanged(verify_plain, verify_traced):
    assert verify_plain["failed"] == 0, verify_plain["errors"]
    assert verify_traced["failed"] == 0, verify_traced["errors"]
    assert (verify_plain["extra"][0]["verify_sha256"]
            == verify_traced["extra"][0]["verify_sha256"])


def test_tracer_sees_every_point(verify_traced):
    extra = verify_traced["extra"][0]
    layers = verify_traced["layers"]
    assert len(extra["genuine_points"]) == 22
    for check_id, genuine in extra["genuine_points"].items():
        control = extra["control_points"].get(check_id, 0)
        assert layers[f"verify.{check_id}.points"]["value"] \
            == genuine + control, check_id


def test_cold_repetitions_repeat_counts(ball_traced):
    assert ball_traced["repetitions"] == 2
    assert ball_traced["failed"] == 0, ball_traced["errors"]


def _seed_sources() -> bool:
    record = json.loads(SEED_RECORD.read_text())
    return record["provenance"]["source_sha256"] == run.source_hash()


@pytest.mark.skipif(not _seed_sources(),
                    reason="library sources differ from the seed record")
def test_seed_counts_reproduce(verify_traced, ball_traced):
    sweep = verify_traced["calls"]["scoped"]["verify.sweep"]
    assert sweep["riesz_value.calls_via_verify"] == 71_445
    assert sweep["riesz_value.distinct"] == 18_270
    layers = verify_traced["layers"]
    share = (layers["verify.eq37_discrim.s"]["value"]
             / layers["trace.run_s"]["value"])
    assert share >= 0.85
    ball = ball_traced["layers"]
    assert ball["specfun.bessel_zero.calls"]["value"] == 17_113
    assert ball["specfun.bessel_j.calls"]["value"] == 2_283_297
    assert ball["specfun.zeros"]["value"] == 16_646
