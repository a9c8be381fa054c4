"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/child.py '<json config>'

The config names the workload, seed, repetition number, whether to trace,
the parent's ``time.monotonic()`` just before it started this process, a
scratch directory and the path to write the result JSON to.  Set-up time is
interpreter start plus ``import rieszbounds``; nothing the workload needs is
computed before the timed region except what the workload's own inputs
require.  Correctness gates run after the timed region.

Times are reported twice: as measured (``setup_wall_s``, ``run_s``) and
rescaled to nominal machine speed by ``speed.py`` (``setup_s``,
``run_norm_s``).  Traced repetitions are not rescaled.
"""

import json
import sys
import time

CFG = json.loads(sys.argv[1])

import rieszbounds  # noqa: E402  (timed as part of set-up)

SETUP_S = time.monotonic() - CFG["t_spawn"]

import hashlib  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from rieszbounds import cli, specfun, spectra, verify  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import Speedometer, nominal_factor  # noqa: E402
from tracer import Tracer  # noqa: E402

#: genuine inequality points of ``verify`` at the default VerifyConfig
VERIFY_POINTS = 178_954

#: (dimension, lambda_max, eigenvalue count) of the two ball runs
BALL_RUNS = (("2", "1e5", 24_842), ("3", "3e4", 359_894))

#: unit-square input of ``large_queries``: complete below this threshold
SQUARE_LAMBDA_MAX = 1.3e7
SQUARE_N = 1_033_365

ZERO_TOL = 1e-10      # documented accuracy of specfun.bessel_zero
ZERO_SAMPLE = 60
QUERY_RTOL = 1e-12


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _error(errors, what):
    errors.append(f"{what}: {traceback.format_exc(limit=3).strip()}")


def _latency(watcher, t0: float) -> float:
    """Seconds since ``t0``, speed samples excluded."""
    t1 = time.perf_counter()
    if isinstance(watcher, Speedometer):
        return t1 - t0 - watcher.sampled(t0, t1)
    return t1 - t0


def _timed(watcher, body):
    """Run ``body`` with ``watcher``, a Tracer or a Speedometer, installed.

    Returns (result, seconds, seconds at nominal speed).  A Speedometer's
    samples are excluded from the seconds; a traced run is not rescaled and
    its last item is None.
    """
    watcher.install()
    t0 = time.perf_counter()
    try:
        result = body()
    finally:
        t1 = time.perf_counter()
        watcher.uninstall()
    if isinstance(watcher, Speedometer):
        return (result, *watcher.rescale(t0, t1))
    return result, t1 - t0, None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# verify_default: the CLI verification sweep on the built-in spectra

def _control_points() -> dict[str, int]:
    """Points the negative controls of ``run_suite`` evaluate, per check id.

    Mirrors the control configuration built inside ``verify.run_suite`` for
    the default config.
    """
    cfg = verify.VerifyConfig()
    ctl_cfg = verify.VerifyConfig(
        z_points=cfg.control_z_points, z_max_frac=cfg.z_max_frac,
        sigma_grid=cfg.sigma_grid, j_count=cfg.control_j_count,
        k_count=cfg.control_j_count, hoelder_samples=10, moment_k_count=3,
        seed=CFG["seed"])
    counts: dict[str, int] = {}
    for spec in verify.default_spectra().values():
        twin = verify.corrupt_spectrum(spec)
        for check_id, _, points in verify._build_points(
                twin, ctl_cfg, ctl_cfg.z_points):
            counts[check_id] = counts.get(check_id, 0) + len(points)
    return counts


def verify_default(work: Path, watcher):
    out = work / f"verify-{CFG['rep']}.json"
    argv = ["verify", "--format", "json", "--full-precision",
            "--seed", str(CFG["seed"]), "--output", str(out)]
    errors: list[str] = []

    def body():
        try:
            return cli.main(argv)
        except Exception:
            _error(errors, "verify raised")
            return None

    rc, run_s, norm_s = _timed(watcher, body)
    rss = _peak_rss_mb()
    extra = {}
    if rc is not None and rc != 0:
        errors.append(f"verify exit code {rc}, expected 0")
    if rc is not None and out.exists():
        report = json.loads(out.read_text())
        genuine = {c["id"]: c["n_points"] for c in report["checks"]}
        control = _control_points()
        if not report["all_passed"]:
            errors.append("all_passed is false")
        if not report["negative_control_ok"]:
            errors.append("negative_control_ok is false")
        vacuous = [c["spectrum"] for c in report["controls"]
                   if c["n_failed"] < 1]
        if vacuous or not report["controls"]:
            errors.append(f"vacuous negative controls: {vacuous}")
        if sum(genuine.values()) != VERIFY_POINTS:
            errors.append(f"{sum(genuine.values())} genuine points, "
                          f"expected {VERIFY_POINTS}")
        points = sum(genuine.values()) + sum(control.values())
        extra = {"verify_sha256": _sha256(out),
                 "genuine_points": genuine, "control_points": control,
                 "points": points, "points_per_s": points / run_s}
    return {"run_s": run_s, "run_norm_s": norm_s, "peak_rss_mb": rss,
            "latencies": [run_s],
            "attempted": 1, "failed": 1 if errors else 0,
            "errors": errors, "extra": extra}


# ---------------------------------------------------------------------------
# ball_spectra: exact spectrum generation and writing through the CLI

def _check_spectrum_file(path: Path, dim: str, lam_max: float,
                         expected: int) -> list[str]:
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ":" in ln]
    values = np.array([ln for ln in lines if ":" not in ln], dtype=float)
    problems = []
    if header[:2] != [f"dim: {dim}", f"complete_below: {lam_max!r}"]:
        problems.append(f"unexpected header {header}")
    if len(values) != expected:
        problems.append(f"{len(values)} eigenvalues, expected {expected}")
    if np.any(np.diff(values) < 0) or not np.all(values < lam_max):
        problems.append("eigenvalues not sorted below lambda_max")
    return problems


def _zero_audit(seed: int) -> dict:
    """Seeded sample of the generated Bessel zeros against mpmath.

    Each sampled j_{nu,p} is compared with the root of mpmath's 30-digit
    J_nu polished from it, at the documented absolute tolerance.  The sample
    is uniform over all (nu, p) the two ball runs used, large p included.
    """
    import mpmath

    pairs = []
    for dim, lam_max, _ in BALL_RUNS:
        ell = 0
        while specfun.bessel_zero(int(dim) / 2 - 1 + ell, 1).value ** 2 \
                < float(lam_max):
            nu = int(dim) / 2 - 1 + ell
            p = 1
            while specfun.bessel_zero(nu, p).value ** 2 < float(lam_max):
                pairs.append((nu, p))
                p += 1
            ell += 1
    rng = np.random.default_rng(seed)
    sample = [pairs[i] for i in rng.choice(len(pairs), ZERO_SAMPLE,
                                           replace=False)]
    mpmath.mp.dps = 30
    worst = 0.0
    missed = []
    for nu, p in sample:
        ours = specfun.bessel_zero(nu, p).value
        ref = mpmath.findroot(lambda x: mpmath.besselj(nu, x),
                              mpmath.mpf(ours))
        err = abs(float(ref - ours))
        worst = max(worst, err)
        if err > ZERO_TOL:
            missed.append({"nu": nu, "p": p, "abs_err": err})
    return {"pairs": len(pairs), "checked": len(sample),
            "missed": len(missed), "miss_frac": len(missed) / len(sample),
            "max_abs_err": worst, "tol": ZERO_TOL, "misses": missed}


def ball_spectra(work: Path, watcher):
    errors: list[str] = []
    outs = [work / f"ball{dim}-{CFG['rep']}.txt" for dim, _, _ in BALL_RUNS]
    codes: list = []
    latencies: list[float] = []

    def body():
        for (dim, lam_max, _), out in zip(BALL_RUNS, outs):
            t0 = time.perf_counter()
            try:
                codes.append(cli.main(
                    ["spectrum", "--ball", "--dim", dim,
                     "--lambda-max", lam_max, "--output", str(out)]))
            except Exception:
                _error(errors, f"spectrum --dim {dim} raised")
                codes.append(None)
            latencies.append(_latency(watcher, t0))

    _, run_s, norm_s = _timed(watcher, body)
    rss = _peak_rss_mb()
    failed = 0
    shas = []
    for (dim, lam_max, expected), out, rc in zip(BALL_RUNS, outs, codes):
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        if rc is not None and out.exists():
            problems += _check_spectrum_file(out, dim, float(lam_max),
                                             expected)
            shas.append(_sha256(out))
            out.unlink()
        failed += bool(problems)
        errors += [f"--dim {dim}: {p}" for p in problems]
    emitted = sum(n for _, _, n in BALL_RUNS)
    extra = {"output_sha256": shas, "eigenvalues": emitted,
             "eigenvalues_per_s": emitted / run_s}
    if CFG["rep"] == 0:
        extra["zero_audit"] = _zero_audit(CFG["seed"])
    return {"run_s": run_s, "run_norm_s": norm_s, "peak_rss_mb": rss,
            "latencies": latencies, "attempted": len(BALL_RUNS),
            "failed": failed, "errors": errors, "extra": extra}


# ---------------------------------------------------------------------------
# large_queries: a million-eigenvalue file, loaded and queried

def square_path(work: Path) -> Path:
    return work / "square-1.3e7.txt"


def prepare_square(work: Path) -> None:
    spec = spectra.box_spectrum([1.0, 1.0], SQUARE_LAMBDA_MAX)
    spectra.write_spectrum(spec, str(square_path(work)))


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi)."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


def make_queries(seed: int) -> list[tuple]:
    """The seeded query mix, in a seeded order.

    200 z values x sigma in {0, 0.5, 1, 2} for ``riesz_mean``, 20 k for
    ``means`` and 2000 w for ``legendre_R1`` in batches of 10.  Values are
    stratified so that every seed asks for the same amount of work.
    """
    rng = np.random.default_rng(seed)
    lam1 = 2 * math.pi ** 2
    zs = _stratified(rng, lam1, 0.95 * SQUARE_LAMBDA_MAX, 200)
    ks = _stratified(rng, 1, SQUARE_N + 1, 20).astype(int)
    ws = _stratified(rng, 0.5, SQUARE_N - 1, 2000)
    queries = [("riesz_mean", s, float(z))
               for z in zs for s in (0.0, 0.5, 1.0, 2.0)]
    queries += [("means", int(k)) for k in ks]
    queries += [("legendre_R1", tuple(float(w) for w in ws[i:i + 10]))
                for i in range(0, len(ws), 10)]
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _run_query(spec, q):
    if q[0] == "riesz_mean":
        ev = rieszbounds.riesz_mean(spec, q[1], q[2])
        return (ev.value, ev.contributing)
    if q[0] == "means":
        m = rieszbounds.means(spec, q[1], sigma_list=[0.5, 1.5])
        return (m.mean, m.mean_sq, m.power_means[0.5], m.power_means[1.5],
                m.geometric, m.harmonic)
    return tuple(rieszbounds.legendre_R1(spec, w) for w in q[1])


def _reference(ev: np.ndarray, q):
    """Independent numpy + math.fsum recomputation of one query."""
    def fsum(values: np.ndarray) -> float:
        return math.fsum(values.tolist())    # same sum, without numpy scalars

    if q[0] == "riesz_mean":
        sigma, z = q[1], q[2]
        idx = int(np.searchsorted(ev, z, side="left"))
        if sigma == 0.0:
            return (float(idx), idx)
        return (fsum((z - ev[:idx]) ** sigma), idx)
    if q[0] == "means":
        k = q[1]
        head = ev[:k]
        return (fsum(head) / k, fsum(head * head) / k,
                (fsum(np.sqrt(head)) / k) ** 2,
                (fsum(head ** 1.5) / k) ** (1 / 1.5),
                math.exp(fsum(np.log(head)) / k),
                k / fsum(1.0 / head))
    # sum(ev[:m]) for the batch's m in increasing order, each extending the
    # last: one rounding per step, far inside QUERY_RTOL
    ms = [int(math.floor(w)) for w in q[1]]
    head = {}
    total, done = 0.0, 0
    for m in sorted(set(ms)):
        total = math.fsum([total] + ev[done:m].tolist())
        head[m], done = total, m
    return tuple((w - m) * float(ev[m]) + head[m] for w, m in zip(q[1], ms))


def _close(got, want) -> bool:
    return all(g == w or abs(g - w) <= QUERY_RTOL * abs(w)
               for g, w in zip(got, want)) and len(got) == len(want)


def _parse_values(path: Path) -> np.ndarray:
    lines = path.read_text().split("\n")
    return np.array([ln for ln in lines if ln and ":" not in ln],
                    dtype=float)


def large_queries(work: Path, watcher):
    queries = make_queries(CFG["seed"])
    path = square_path(work)
    errors: list[str] = []
    latencies: list[float] = []
    results: list = []

    def body():
        try:
            spec = rieszbounds.load_spectrum(str(path))
        except Exception:
            _error(errors, "load_spectrum raised")
            return None
        for q in queries:
            t0 = time.perf_counter()
            try:
                results.append(_run_query(spec, q))
            except Exception:
                _error(errors, f"query {q[:2]} raised")
                results.append(None)
            latencies.append(_latency(watcher, t0))
        return spec

    spec, run_s, norm_s = _timed(watcher, body)
    rss = _peak_rss_mb()
    attempted = 1 + len(queries)
    if spec is None:
        return {"run_s": run_s, "run_norm_s": norm_s, "peak_rss_mb": rss,
                "latencies": [run_s],
                "attempted": attempted, "failed": attempted,
                "errors": errors, "extra": {}}

    failed = sum(r is None for r in results)
    ev = _parse_values(path)
    if (len(spec) != SQUARE_N or spec.complete_below != SQUARE_LAMBDA_MAX
            or not np.array_equal(ev, spec.eigenvalues)):
        errors.append("loaded spectrum differs from the file")
        failed += 1
    rng = np.random.default_rng(CFG["seed"] + 1)
    by_kind: dict[str, list[int]] = {}
    for i, q in enumerate(queries):
        by_kind.setdefault(q[0], []).append(i)
    sample_sizes = {"riesz_mean": 40, "means": 8, "legendre_R1": 20}
    checked = 0
    for kind, idx in by_kind.items():
        for i in rng.choice(idx, sample_sizes[kind], replace=False):
            if results[i] is None:
                continue
            checked += 1
            want = _reference(ev, queries[i])
            if not _close(results[i], want):
                failed += 1
                errors.append(f"{queries[i][:2]}: got {results[i]}, "
                              f"reference {want}")
    return {"run_s": run_s, "run_norm_s": norm_s, "peak_rss_mb": rss,
            "latencies": latencies, "attempted": attempted,
            "failed": failed, "errors": errors,
            "extra": {"queries": len(queries), "checked": checked,
                      "queries_per_s": len(queries) / run_s}}


WORKLOADS = {
    "verify_default": verify_default,
    "ball_spectra": ball_spectra,
    "large_queries": large_queries,
}


def main() -> int:
    src = Path(CFG["root"]) / "src"
    if Path(rieszbounds.__file__).resolve().parent.parent != src.resolve():
        print(f"rieszbounds imported from {rieszbounds.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    work = Path(CFG["work"])
    result = {"setup_wall_s": SETUP_S, "setup_s": SETUP_S * nominal_factor(),
              "backend": rieszbounds.BACKEND}
    if CFG["workload"] == "prepare":
        prepare_square(work)
    elif CFG["workload"] != "probe":
        watcher = Tracer() if CFG["trace"] else Speedometer()
        result.update(WORKLOADS[CFG["workload"]](work, watcher))
        if CFG["trace"]:
            result["layers"] = watcher.metrics(list(verify.MARGINS))
            result["scoped"] = watcher.scoped
            result["sites"] = watcher.site_calls
    Path(CFG["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
