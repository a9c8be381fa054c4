"""Verify a large spectrum in bounded memory.

Runs the full suite, genuine checks and the negative control, at the
default ``VerifyConfig`` on one Dirichlet spectrum complete below
lambda_max, then prints n, the genuine and control point counts, the
seconds, the points (genuine and control) swept per second, the peak RSS
and whether every check passed.  The domains:

* ``square``: the unit square, by default below 1.3e7 (n = 1,033,365);
* ``ball3``: the unit 3-ball, by default below 6e4 (n = 1,024,994).  Its
  index exponent 2/d = 2/3 is a general ``pow``, not a square or a
  square root as on the square.

Run:  python3 benchmarks/bench_verify_scale.py [--domain ball3]
      [--lambda-max 1e6]
Exit status 1 if the suite does not pass or the peak RSS exceeds
MAX_RSS_MB.
"""

import argparse
import resource
import sys
import time

from rieszbounds import spectra, verify

MAX_RSS_MB = 200

#: domain -> (spectrum builder at a lambda_max, default lambda_max)
DOMAINS = {
    "square": (lambda lam: spectra.box_spectrum([1.0, 1.0], lam), 1.3e7),
    "ball3": (lambda lam: spectra.ball_spectrum(3, 1.0, lam), 6e4),
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _control_points(spec, cfg) -> int:
    ctl_cfg = verify._control_config(cfg)
    twin = verify.corrupt_spectrum(spec)
    return sum(len(points) for _, _, points in verify._build_points(
        twin, ctl_cfg, ctl_cfg.z_points))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--domain", choices=sorted(DOMAINS), default="square",
                    help="unit square (default) or unit 3-ball")
    ap.add_argument("--lambda-max", type=float, default=None,
                    help="completeness threshold (default 1.3e7 for the "
                         "square, 6e4 for the 3-ball)")
    args = ap.parse_args(argv)
    build, default_lambda_max = DOMAINS[args.domain]
    lambda_max = (default_lambda_max if args.lambda_max is None
                  else args.lambda_max)

    t0 = time.perf_counter()
    spec = build(lambda_max)
    t_spec = time.perf_counter() - t0
    cfg = verify.VerifyConfig()
    t0 = time.perf_counter()
    report = verify.run_suite({args.domain: spec}, cfg)
    t_suite = time.perf_counter() - t0
    rss = _peak_rss_mb()

    genuine = sum(c.n_points for c in report.checks)
    control = _control_points(spec, cfg)
    print(f"domain          {args.domain}")
    print(f"lambda_max      {lambda_max:g}")
    print(f"n               {len(spec)}")
    print(f"genuine points  {genuine}")
    print(f"control points  {control}")
    print(f"spectrum s      {t_spec:.2f}")
    print(f"suite s         {t_suite:.2f}")
    print(f"points per s    {(genuine + control) / t_suite:.0f}")
    print(f"peak RSS MB     {rss:.1f}")
    print(f"all_passed      {report.all_passed}")
    for c in report.checks:
        if c.passed is False:
            print(f"FAILED {c.id}: margin {c.worst_margin!r} at {c.witness}")
    if not report.negative_control_ok:
        print(f"vacuous negative control: {report.controls}")
    if rss > MAX_RSS_MB:
        print(f"peak RSS {rss:.1f} MB exceeds {MAX_RSS_MB} MB")
    return 0 if report.all_passed and rss <= MAX_RSS_MB else 1


if __name__ == "__main__":
    sys.exit(main())
