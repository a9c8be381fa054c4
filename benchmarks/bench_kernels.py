"""Benchmark the summation kernels.

Times the exact primitives against their references at n = 10^3 .. 10^6
and checks bit-equality as it goes: ``math.fsum`` against ``exact_sum`` on
the Riesz, power, reciprocal and log terms of a sorted spectrum; the
Shewchuk loop against ``prefix_sums`` on the eigenvalues (the two-limb
numpy path) and on their squares (the integer path at n = 10^6); and
``math.fsum`` of the ``np.power`` terms against ``riesz_sum`` at
sigma = 1/2, 1, 2 and 5/2.

Run:  python3 benchmarks/bench_kernels.py
Exit status 1 if any result differs from its reference in a single bit.
"""

import math
import sys
import time

import numpy as np

from rieszbounds._kernels import pykernels

EXACT_SIZES = (10**3, 10**4, 10**5, 10**6)


def _time(fn, *args, repeat=5):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


def compare_exact() -> bool:
    """Exact primitives against their references; True if all bits agree.

    ``exact_sum`` is timed on the sorted terms of a spectrum: Riesz, power
    and reciprocal terms, and the logs of a spectrum that straddles 1,
    which change sign.
    """
    ok = True
    rng = np.random.default_rng(1)
    print("exact primitives (best of repeats; unit-square-like terms)")
    for n in EXACT_SIZES:
        lams = np.sort(rng.uniform(19.7, 1.3e7, n))
        repeat = 5 if n < 10**6 else 2
        logs = np.array([math.log(v) for v in (lams / 1e3).tolist()])
        for name, terms in (("riesz", np.power(1.3e7 - lams, 0.5)),
                            ("power", np.power(lams, 2.0)),
                            ("recip", 1.0 / lams),
                            ("log", logs)):
            t_ref, ref = _time(math.fsum, terms, repeat=repeat)
            t_new, new = _time(pykernels.exact_sum, terms, repeat=repeat)
            same = _same_bits(ref, new)
            ok &= same
            print(f"  n={n:>8} {name:5}  math.fsum {t_ref*1e3:9.2f} ms  "
                  f"exact_sum {t_new*1e3:8.2f} ms  x{t_ref / t_new:5.1f}  "
                  f"bit-equal={same}")
        for name, terms in (("eigen", lams), ("square", np.power(lams, 2.0))):
            t_ref, ref = _time(pykernels._shewchuk_prefix_sums, terms,
                               repeat=1 if n == 10**6 else repeat)
            t_new, new = _time(pykernels.prefix_sums, terms, repeat=repeat)
            same = _same_bits(ref, new)
            ok &= same
            print(f"  n={n:>8} {name:6} Shewchuk  {t_ref*1e3:9.2f} ms  "
                  f"prefix_sums {t_new*1e3:6.2f} ms  x{t_ref / t_new:5.1f}  "
                  f"bit-equal={same}")
        z = 1.3e7
        for sigma in (0.5, 1.0, 2.0, 2.5):
            t_ref, ref = _time(
                lambda: math.fsum(np.power(z - lams, sigma).tolist()),
                repeat=repeat)
            t_new, (new, _) = _time(pykernels.riesz_sum, lams, sigma, z,
                                    repeat=repeat)
            same = _same_bits(ref, new)
            ok &= same
            print(f"  n={n:>8} riesz sigma={sigma:3}  fsum(np.power) "
                  f"{t_ref*1e3:9.2f} ms  riesz_sum {t_new*1e3:8.2f} ms  "
                  f"x{t_ref / t_new:5.1f}  bit-equal={same}")
    return ok


def main() -> int:
    return 0 if compare_exact() else 1


if __name__ == "__main__":
    sys.exit(main())
