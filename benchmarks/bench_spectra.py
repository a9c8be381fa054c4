"""Benchmark box and ball spectrum generation and the spectrum text and
JSON writers.

Boxes: ``spectra.box_spectrum`` (one array pass per axis) against the
recursion of ``tests/oracles.py`` (one float, one list append and one cap
check per eigenvalue), on the unit square below 1.3e7 and the 1 x 2 x 3
box below 3e4, compared bit for bit.

Generation: ``spectra.ball_spectrum`` (one bounded ``specfun.bessel_zeros``
iteration per order, numpy assembly) against the per-zero reference of
``tests/oracles.py`` (one ``specfun.bessel_zero`` call per zero, a Python
list extended by multiplicity and sorted), each from an empty zero cache,
on the disk below 1e5 and the 3-ball below 3e4.  The eigenvalues are
compared bit for bit, and so is every zero that ``ball_spectrum`` caches
with the reference's zero of the same order and index.  The reference
finds each order's first zero at or above the limit; ``ball_spectrum``
finds it only for the chain roots it scans (orders 0 and 1/2), and an order
that is not a root and caches a zero at or above its bound fails.  Printed:
the spectrum's zeros (those below the limit), the zeros cached at or above
the limit, and the J evaluations per spectrum zero, counted element-wise
through ``specfun._jv`` in one more, untimed run.

Lone queries: J evaluations and time, each from an empty zero cache, of
the first zero of orders 7, 100, 511 and 1000, which fill the chain of
orders below them (rooted at 0, 0, 0 and 512) below an upper bound on the
zero, of the export ``bounds --bessel-zeros 0,0.5,7 --zero-count 40``
(zero 40 of each order, then the zeros up to it, read from the cache), of
the first zeros of the 20 roots 1048064 + k/1000, k < 20, each scanned
from Qu and Wong's lower bound on it, and of ``bessel_zero(0, 340000)``,
which (p - 1/2) pi refuses before any J evaluation.  Each has a budget of
J evaluations and of seconds.

Writers: times ``spectra._write_text`` and ``spectra._write_json`` into a
``StringIO`` against the per-value references of ``tests/oracles.py`` (one
``repr`` per line, and one ``json.dumps`` of a list of floats) on four
spectra: the 3-ball below 3e4 and the disk below 1e5 (long runs of equal
eigenvalues, as in ``cli spectrum --ball``), the unit square below 1.3e7
(10^6 eigenvalues, short runs) and a sorted seeded uniform sample of 10^6
values with no repeats.  Each writer and its reference are timed
alternately, best of repeats, and their bytes are compared.

Run:  python3 benchmarks/bench_spectra.py
Exit status 1 if any box eigenvalue differs in any bit from the
recursion's, if any generated ball eigenvalue or cached zero differs in
any bit from the reference's, if an order that is not a chain root caches
a zero at or above its bound, if a lone query exceeds its budget, or if
any writer's bytes differ from its reference's.
"""

import io
import math
import sys
import time
from pathlib import Path

import numpy as np

from rieszbounds import specfun, spectra
from rieszbounds.errors import DomainError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import (  # noqa: E402
    ball_eigenvalues_per_zero,
    box_eigenvalues_recursive,
    spectrum_json,
    spectrum_text,
)

#: (name, sides, lambda_max) of the generated boxes
BOXES = (("square, lambda < 1.3e7", [1.0, 1.0], 1.3e7),
         ("1 x 2 x 3, lambda < 3e4", [1.0, 2.0, 3.0], 3e4))
#: (name, d, lambda_max) of the generated unit balls
BALLS = (("disk, lambda < 1e5", 2, 1e5), ("ball d=3, lambda < 3e4", 3, 3e4))

def _refused(query):
    """Run ``query``, which must raise DomainError."""
    try:
        query()
    except DomainError:
        return
    raise AssertionError("query not refused")


#: (name, query, J evaluations, seconds) of the lone queries; the budgets
#: are at most 1.5 times the J evaluations (150; 6,603; 109,359; 68,815;
#: 2,783; 380; 0), so an overshoot of the chain, a root scan from nu or a
#: scan of order 0 up to 2^20 fails, and the time budgets stay at 2.5 to
#: 5 times the time each query took when each order asked the one below
#: for one more zero (the roots near 2^20: 10 times their 0.01 s, below
#: the 0.12 s of their scan from nu), on a 2-vCPU host that can run 2x
#: slow in episodes
LONE = (
    ("j_{7,1}", lambda: specfun.bessel_zero(7.0, 1), 220, 0.02),
    ("j_{100,1}", lambda: specfun.bessel_zero(100.0, 1), 9_900, 0.4),
    ("j_{511,1}", lambda: specfun.bessel_zero(511.0, 1), 160_000, 4.0),
    ("j_{1000,1}", lambda: specfun.bessel_zero(1000.0, 1), 100_000, 4.0),
    ("export 0,0.5,7 x 40",
     lambda: [list(specfun.bessel_zeros(nu, math.nextafter(
         specfun.bessel_zero(nu, 40).value, math.inf)))
              for nu in (0.0, 0.5, 7.0)], 3_300, 0.1),
    ("20 roots near 2^20",
     lambda: [specfun.bessel_zero(1048064 + k / 1000, 1) for k in range(20)],
     570, 0.1),
    ("j_{0,340000} refused",
     lambda: _refused(lambda: specfun.bessel_zero(0.0, 340_000)), 0, 0.01),
)


def _spectra():
    uniform = np.sort(np.random.default_rng(7).uniform(1.0, 1.3e7, 10**6))
    return {
        "ball d=3, lambda < 3e4": spectra.ball_spectrum(3, 1.0, 3e4),
        "disk, lambda < 1e5": spectra.ball_spectrum(2, 1.0, 1e5),
        "square, lambda < 1.3e7": spectra.box_spectrum([1.0, 1.0], 1.3e7),
        "uniform, no repeats": spectra.Spectrum(
            dimension=2, eigenvalues=uniform, complete_below=1.3e7,
            domain=spectra.DomainSpec("file", 2)),
    }


def _to_string(write):
    def run(spec) -> str:
        buf = io.StringIO()
        write(spec, buf)
        return buf.getvalue()
    return run


#: format -> (per-value reference, writer)
WRITERS = {
    "text": (spectrum_text, _to_string(spectra._write_text)),
    "json": (spectrum_json, _to_string(spectra._write_json)),
}


def _time_pair(fns, spec, repeat):
    """Best times of the reference and the writer, run alternately."""
    best = [float("inf"), float("inf")]
    texts = [None, None]
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            texts[i] = fn(spec)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, texts


def _fresh_cache_run(fn, *args):
    """``fn(*args)`` from an empty zero cache: its result, its time and
    the cache it leaves."""
    specfun._zero_cache = {}
    t0 = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - t0
    return result, elapsed, specfun._zero_cache


def _same_zeros(cache, ref_cache) -> bool:
    """Whether every zero in ``cache`` has the bits of the reference's zero
    of the same order and index.  A zero past the reference's last one of
    its order is found in ``ref_cache`` by ``bessel_zero``, as the
    reference would find it."""
    specfun._zero_cache = ref_cache
    for nu, zeros in cache.items():
        if len(zeros):
            specfun.bessel_zero(nu, len(zeros))
        if zeros.tobytes() != ref_cache[nu][:len(zeros)].tobytes():
            return False
    return True


def _stops_at_bound(cache) -> bool:
    """Whether no order that is not a chain root caches a zero at or above
    the bound it was filled below."""
    return all(zeros[-1] < zeros.bound for nu, zeros in cache.items()
               if specfun._rank(nu) and len(zeros))


def _evaluations(fn, *args) -> int:
    """J evaluations of one untimed ``fn(*args)`` run from an empty zero
    cache, counted element-wise through ``specfun._jv``."""
    specfun._zero_cache = {}
    jv, count = specfun._jv, [0]

    def counting(nu, x):
        count[0] += np.size(x)
        return jv(nu, x)

    specfun._jv = counting
    try:
        fn(*args)
    finally:
        specfun._jv = jv
    return count[0]


def _boxes(repeat: int = 3) -> bool:
    """Time ``box_spectrum`` against the recursion, run alternately, best
    of ``repeat``; True if all bits agree."""
    ok = True
    print(f"{'generated box':<24}{'n':>10}{'recursion':>12}{'by axis':>10}"
          f"{'ratio':>8}  bits")
    for name, sides, lam_max in BOXES:
        best = [float("inf"), float("inf")]
        same = True
        for _ in range(repeat):
            t0 = time.perf_counter()
            ref = box_eigenvalues_recursive(sides, lam_max)
            t1 = time.perf_counter()
            spec = spectra.box_spectrum(sides, lam_max)
            t2 = time.perf_counter()
            best = [min(best[0], t1 - t0), min(best[1], t2 - t1)]
            same &= spec.eigenvalues.tobytes() == ref.tobytes()
        ok &= same
        print(f"{name:<24}{len(ref):>10,}{best[0] * 1e3:>10.1f}ms"
              f"{best[1] * 1e3:>8.1f}ms{best[1] / best[0]:>8.2f}  "
              f"{'equal' if same else 'DIFFER'}")
    print()
    return ok


def _generation(repeat: int = 3) -> bool:
    """Time ``ball_spectrum`` against the per-zero reference, run
    alternately, best of ``repeat``; True if all bits agree and no order
    after the first caches a zero at or above its bound."""
    ok = True
    print(f"{'generated ball':<24}{'n':>10}{'zeros':>8}{'above':>7}"
          f"{'J/zero':>8}{'per-zero':>12}{'by order':>10}{'ratio':>8}  bits")
    for name, d, lam_max in BALLS:
        best = [float("inf"), float("inf")]
        same = True
        for _ in range(repeat):
            ref, t_ref, ref_cache = _fresh_cache_run(
                ball_eigenvalues_per_zero, d, 1.0, lam_max)
            spec, t_new, cache = _fresh_cache_run(
                spectra.ball_spectrum, d, 1.0, lam_max)
            best = [min(best[0], t_ref), min(best[1], t_new)]
            same &= (spec.eigenvalues.tobytes() == ref.tobytes()
                     and _same_zeros(cache, ref_cache))
        stops = _stops_at_bound(cache)
        ok &= same and stops
        zeros = np.concatenate([np.asarray(z) for z in cache.values()])
        kept = int(np.count_nonzero(zeros ** 2 < lam_max))
        evals = _evaluations(spectra.ball_spectrum, d, 1.0, lam_max)
        print(f"{name:<24}{len(ref):>10,}{kept:>8,}{len(zeros) - kept:>7,}"
              f"{evals / kept:>8.2f}"
              f"{best[0] * 1e3:>10.1f}ms{best[1] * 1e3:>8.1f}ms"
              f"{best[1] / best[0]:>8.2f}  {'equal' if same else 'DIFFER'}"
              f"{'' if stops else ', ZERO AT OR ABOVE A LATER BOUND'}")
    print()
    return ok


def _lone_queries() -> bool:
    """J evaluations and time of each lone query from an empty zero cache;
    True if each is within its budgets."""
    ok = True
    print(f"{'lone query':<24}{'J evals':>10}{'budget':>10}{'time':>10}"
          f"{'budget':>10}")
    for name, query, max_evals, max_s in LONE:
        _, elapsed, _ = _fresh_cache_run(query)
        evals = _evaluations(query)
        within = evals <= max_evals and elapsed <= max_s
        ok &= within
        print(f"{name:<24}{evals:>10,}{max_evals:>10,}{elapsed:>9.3f}s"
              f"{max_s:>9.2f}s{'' if within else '  OVER BUDGET'}")
    print()
    return ok


def main() -> int:
    ok = _boxes()
    ok &= _generation()
    ok &= _lone_queries()
    print(f"{'spectrum':<24}{'format':>7}{'n':>10}{'repeats':>9}"
          f"{'per-value':>12}{'writer':>10}{'ratio':>8}  bytes")
    for name, spec in _spectra().items():
        ev = spec.eigenvalues
        repeats = float(np.mean(ev[1:] == ev[:-1]))
        for fmt, fns in WRITERS.items():
            (t_ref, t_new), (ref, new) = _time_pair(
                fns, spec, 3 if len(ev) >= 10**6 else 5)
            same = ref == new
            ok &= same
            print(f"{name:<24}{fmt:>7}{len(ev):>10,}{repeats:>9.1%}"
                  f"{t_ref * 1e3:>10.1f}ms{t_new * 1e3:>8.1f}ms"
                  f"{t_new / t_ref:>8.2f}  {'equal' if same else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
