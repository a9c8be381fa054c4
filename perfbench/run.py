"""Benchmark of rieszbounds: end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, untraced
                                                  # and traced, with a summary
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``WORKLOADS``): ``verify_default``, ``ball_spectra`` and
``large_queries``.  The load is a closed loop with one client: every
repetition runs in a fresh interpreter (so the library's process-wide
caches start cold, as they do for a CLI user) while this process waits.
Repetitions continue until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer metrics, recorded by wrapping the library's
public functions from the benchmark's own ``tracer.py``.  The timed
end-to-end metrics, ``setup_s`` and ``run_norm_s``, are rescaled to nominal
machine speed by ``speed.py``, because this kind of shared host drifts in
speed by more than their bounds; the measured ``setup_wall_s`` and ``run_s``
are printed and kept beside them.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a results file with provenance is written to
``perfbench/results/`` (or ``--out``).  Compare two results files with
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RESULTS = HERE / "results"

WORKLOADS = {
    "verify_default": "cli verify --format json --full-precision on the "
                      "built-in spectra at the default VerifyConfig",
    "ball_spectra": "cli spectrum --ball: d=2 below 1e5, then d=3 below 3e4",
    "large_queries": "load a 1,033,365-eigenvalue square spectrum file, then "
                     "a seeded mix of riesz_mean, means and legendre_R1",
}

#: fresh interpreters started only to time set-up, per run
SETUP_PROBES = 7
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0

#: metric names the driver-facing result line carries, per --trace value
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = {0: [m["name"] for m in SPEC["end_to_end"]],
            1: [m["name"] for m in SPEC["per_layer"]]}

#: per-layer counts that must repeat exactly in every cold repetition
REPEATED_COUNTS = ("specfun.bessel_j.calls", "kernels.riesz_sum.calls")


def _child(cfg: dict, timeout: float) -> dict:
    """Run one child process; returns its result or an ``error`` entry."""
    out = Path(cfg["work"]) / f"result-{cfg['workload']}-{cfg['rep']}.json"
    cfg = dict(cfg, out=str(out), root=str(ROOT))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cfg["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{cfg['workload']} timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out.exists():
        return {"error": f"{cfg['workload']} exited {proc.returncode}"}
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _tail(values: list[float]) -> float:
    """Value at the highest percentile with at least 10 samples beyond it."""
    return sorted(values)[-11]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_reps: int = 1) -> dict:
    """Set-up probes, then cold repetitions for ``seconds``; aggregated."""
    start = time.monotonic()
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    base = {"workload": name, "seed": seed, "trace": trace, "rep": 0,
            "work": str(work)}
    errors: list[str] = []
    reps: list[dict] = []
    probes: list[dict] = []
    try:
        if name == "large_queries":
            prep = _child(dict(base, workload="prepare"), RUN_LIMIT_S)
            if "error" in prep:
                errors.append(prep["error"])
        for i in range(SETUP_PROBES):
            probes.append(_child(dict(base, workload="probe", rep=i),
                                 RUN_LIMIT_S))
        timed_from = time.monotonic()
        while not errors:
            t0 = time.monotonic()
            left = RUN_LIMIT_S - (t0 - start)
            reps.append(_child(dict(base, rep=len(reps)), max(left, 1.0)))
            if "error" in reps[-1]:
                errors.append(reps[-1]["error"])
                break
            now = time.monotonic()
            if (len(reps) >= min_reps
                    and now - timed_from + (now - t0) > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors += [p["error"] for p in probes if "error" in p]
    return _aggregate(name, seed, trace, probes, reps, errors)


def _aggregate(name, seed, trace, probes, reps, errors) -> dict:
    ok = [r for r in reps if "error" not in r]
    attempted = sum(r["attempted"] for r in ok) + (len(reps) - len(ok))
    failed = sum(r["failed"] for r in ok) + (len(reps) - len(ok))
    for i, r in enumerate(ok):
        errors += [f"rep {i}: {e}" for e in r["errors"]]
        differ = [k for k, v in r["extra"].items()
                  if "sha256" in k and v != ok[0]["extra"].get(k)]
        if differ:
            failed += r["attempted"]
            errors.append(f"rep {i}: output differs from rep 0 in {differ}")
    setups = [p["setup_s"] for p in probes + ok if "setup_s" in p]
    out = {"workload": name, "seed": seed, "trace": trace,
           "backend": next((p["backend"] for p in probes + ok
                            if "backend" in p), None),
           "repetitions": len(reps), "attempted": max(attempted, 1),
           "failed": failed if attempted else 1, "errors": errors,
           "samples": {"setup_s": setups,
                       "setup_wall_s": [p["setup_wall_s"] for p in probes + ok
                                        if "setup_wall_s" in p],
                       "run_s": [r["run_s"] for r in ok],
                       "run_norm_s": [r["run_norm_s"] for r in ok
                                      if r["run_norm_s"] is not None],
                       "peak_rss_mb": [r["peak_rss_mb"] for r in ok]},
           "extra": [r["extra"] for r in ok]}
    if not ok or not setups:
        out["failed"] = out["attempted"]
        out["metrics"] = {}
        return out
    latencies = [x for r in ok for x in r["latencies"]]
    out["samples"]["queries"] = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "setup_wall_s": (statistics.median(out["samples"]["setup_wall_s"]),
                         "s", len(setups)),
        "run_s": (statistics.median(out["samples"]["run_s"]), "s", len(ok)),
        "peak_rss_mb": (statistics.median(out["samples"]["peak_rss_mb"]),
                        "MB", len(ok)),
    }
    if out["samples"]["run_norm_s"]:
        metrics["run_norm_s"] = (statistics.median(
            out["samples"]["run_norm_s"]), "s", len(ok))
    for key in ("points_per_s", "eigenvalues_per_s", "queries_per_s"):
        if key in out["extra"][0]:
            metrics[key] = (statistics.median(e[key] for e in out["extra"]),
                            "1/s", len(ok))
    if len(latencies) > 10:
        metrics["query_p50_ms"] = (1e3 * statistics.median(latencies), "ms",
                                   len(latencies))
        metrics["query_tail_ms"] = (1e3 * _tail(latencies), "ms",
                                    len(latencies))
    out["metrics"] = {k: {"value": v, "unit": unit, "n": n}
                      for k, (v, unit, n) in metrics.items()}
    if trace:
        out["layers"], out["calls"] = _aggregate_layers(ok, out)
    out["metrics"]["failed_frac"] = {
        "value": out["failed"] / out["attempted"], "unit": "ratio",
        "n": out["attempted"]}
    return out


def _aggregate_layers(ok: list[dict], out: dict):
    """Median per-layer values; counts must repeat in every repetition."""
    first = ok[0]["layers"]
    for i, r in enumerate(ok[1:], start=1):
        differ = [k for k in REPEATED_COUNTS
                  if r["layers"][k][0] != first[k][0]]
        if differ:
            out["failed"] += r["attempted"]
            out["errors"].append(f"rep {i}: counts differ from rep 0 "
                                 f"in {differ}")
    layers = {k: {"value": statistics.median(r["layers"][k][0] for r in ok),
                  "unit": unit, "n": len(ok)}
              for k, (_, unit) in first.items()}
    layers["trace.run_s"] = dict(out["metrics"]["run_s"], unit="s")
    return layers, {"scoped": ok[0]["scoped"], "sites": ok[0]["sites"]}


def provenance(seed: int) -> dict:
    """Where and on what a result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"commit": commit, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg(), "seed": seed,
            "source_sha256": source_hash()}


def source_hash() -> str:
    """sha256 over the library's Python sources, in path order."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rieszbounds").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _summary(results: list[dict], overhead: dict) -> None:
    for res in results:
        kind = "traced" if res["trace"] else "untraced"
        print(f"\n== {res['workload']} ({kind}, seed {res['seed']}, "
              f"{res['repetitions']} repetitions) ==")
        table = dict(res.get("layers", {}), **res["metrics"]) \
            if res["trace"] else res["metrics"]
        for key, m in table.items():
            print(f"  {key:32s} {m['value']:14.6g} {m['unit']:6s} "
                  f"n={m['n']}")
        extra = res["extra"][0] if res["extra"] else {}
        if "zero_audit" in extra:
            a = extra["zero_audit"]
            print(f"  zero audit: {a['missed']}/{a['checked']} sampled "
                  f"Bessel zeros off by more than {a['tol']:g} "
                  f"(max {a['max_abs_err']:.3g})")
        if res["trace"] and res["workload"] in overhead:
            print(f"  tracing overhead: {overhead[res['workload']]:+.3f} s")
        for e in res["errors"]:
            print(f"  ERROR {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="single workload: report per-layer metrics")
    ap.add_argument("--out", type=Path, help="results file to write")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rieszbounds" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    if args.workload == "all":
        results = []
        for name in WORKLOADS:
            results.append(run_workload(name, args.seed, args.seconds, False))
            results.append(run_workload(name, args.seed, 0.0, True,
                                        min_reps=2))
        overhead = {}
        for plain, traced in zip(results[::2], results[1::2]):
            if "run_s" in plain["metrics"] and "run_s" in traced["metrics"]:
                overhead[plain["workload"]] = (
                    traced["metrics"]["run_s"]["value"]
                    - plain["metrics"]["run_s"]["value"])
        prov["tracing_overhead_s"] = overhead
        _summary(results, overhead)
        line = {"correct": all(r["failed"] == 0 for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{k}": {"value": v["value"],
                                                     "unit": v["unit"]}
                            for r in results if not r["trace"]
                            for k, v in r["metrics"].items()
                            if k in REPORTED[0]}}
        name = f"BENCH_all_seed{args.seed}.json"
    else:
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        results = [res]
        _summary(results, {})
        table = dict(res["metrics"], **res.get("layers", {}))
        names = [k for k in REPORTED[args.trace] if k in table]
        line = {"correct": (res["failed"] == 0
                            and len(names) == len(REPORTED[args.trace])),
                "attempted": res["attempted"], "failed": res["failed"],
                "metrics": {k: {"value": table[k]["value"],
                                "unit": table[k]["unit"]} for k in names}}
        name = (f"BENCH_{args.workload}_seed{args.seed}"
                f"_trace{args.trace}.json")
    backends = {r["backend"] for r in results if r["backend"]}
    prov["backend"] = backends.pop() if len(backends) == 1 else None
    out = args.out or RESULTS / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"provenance": prov, "results": results},
                              indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
