"""Benchmark the summation kernels.

Times the exact primitives against their references at n = 10^3 .. 10^6
and checks bit-equality as it goes: ``math.fsum`` against ``exact_sum``
(the weighted run path with every weight 1) on the Riesz, power,
reciprocal and log terms of a sorted spectrum; the
Shewchuk loop of ``tests/oracles.py`` against ``prefix_sums`` on the
eigenvalues and on their squares, and on subnormal terms, runs of +0.0
and terms from 1e-300 to 1e300; ``math.fsum`` of the ``np.power``
terms against ``riesz_sum`` on the weighted ``Runs`` of the eigenvalues
(the only input the Riesz and head sums take) at sigma = 1/2, 1, 2 and
5/2; per-z ``math.fsum`` of the ``np.power`` terms against the
rows of a one-layer ``riesz_grid`` on the runs (one weighted term per
distinct value), on the default ``verify`` z grid of the 3-ball below
2000, the 10-ball below 300 and the unit square below 1e6, timed against
per-z ``riesz_sum`` calls; per-pair ``math.fsum`` against ``riesz_grid``
with three layers of one sigma per z, at the Hoelder samples of
``verify`` (60 z of the z grid x 3 random sigmas) on each default
``verify`` spectrum, timed against per-pair ``riesz_sum`` calls; the
grids of one sigma per layer of the default ``verify`` suite on each
default spectrum (the z grid with every sigma its families read, and the
central-difference rows) summed one sigma at a time, one packed pass per
grid and sign of sigma, and one ``riesz_grid`` pass per grid, bit-equal
to each other; ``math.fsum`` against ``exact_sum`` on
sorted terms spanning 2,000 binades, each the one term of its binade and
so a block of its own, and on 20,000 rising terms over 200 binades,
naming the path of each (the blocks, or ``math.fsum``), and per-z
``math.fsum`` against a packed one-layer ``riesz_grid`` batch with one
row that the run path does not take; and ``math.fsum`` of all k terms
against every field of ``riesz.means`` on the 3-ball, the 10-ball and the
unit square.

Run:  python3 benchmarks/bench_kernels.py
Exit status 1 if any result differs from its reference in a single bit.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

from rieszbounds import riesz, spectra, verify
from rieszbounds._kernels import pykernels

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import shewchuk_prefix_sums  # noqa: E402

EXACT_SIZES = (10**3, 10**4, 10**5, 10**6)
MEAN_ORDERS = (0.5, 1.5)


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
            t_ref, ref = _time(shewchuk_prefix_sums, terms,
                               repeat=1 if n == 10**6 else repeat)
            t_new, new = _time(pykernels.prefix_sums, terms, repeat=repeat)
            same = _same_bits(ref, new)
            ok &= same
            print(f"  n={n:>8} {name:6} Shewchuk  {t_ref*1e3:9.2f} ms  "
                  f"prefix_sums {t_new*1e3:6.2f} ms  x{t_ref / t_new:5.1f}  "
                  f"bit-equal={same}")
        z = 1.3e7
        runs = pykernels.runs_of(lams)    # as cached on a spectrum
        for sigma in (0.5, 1.0, 2.0, 2.5):
            t_ref, ref = _time(
                lambda: math.fsum(np.power(z - lams, sigma).tolist()),
                repeat=repeat)
            t_new, (new, _) = _time(pykernels.riesz_sum, runs, sigma, z,
                                    repeat=repeat)
            same = _same_bits(ref, new)
            ok &= same
            print(f"  n={n:>8} riesz sigma={sigma:3}  fsum(np.power) "
                  f"{t_ref*1e3:9.2f} ms  riesz_sum {t_new*1e3:8.2f} ms  "
                  f"x{t_ref / t_new:5.1f}  bit-equal={same}")
    return ok


def _prefix_domain_cases(rng):
    """Non-negative inputs beyond a spectrum's: subnormal terms, runs of
    +0.0 between normal terms, and terms from 1e-300 to 1e300 in
    ascending, descending and random order."""
    n = 10**4
    subnormal = np.ldexp(rng.integers(0, 2**52, n).astype(float), -1074)
    zeros = rng.uniform(1.0, 2.0, n)
    zeros[rng.random(n) < 0.5] = 0.0
    zeros[1000:3000] = 0.0
    wide = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), n))
    return (("subnormal", subnormal), ("zero runs", zeros),
            ("1e-300..1e300 ascending", np.sort(wide)),
            ("1e-300..1e300 descending", np.sort(wide)[::-1].copy()),
            ("1e-300..1e300 any order", wide))


def compare_prefix_domain() -> bool:
    """``prefix_sums`` against the Shewchuk loop on inputs outside a
    spectrum's range; True if all bits agree."""
    ok = True
    print("prefix sums beyond a spectrum (n = 10^4)")
    for name, terms in _prefix_domain_cases(np.random.default_rng(2)):
        t_ref, ref = _time(shewchuk_prefix_sums, terms, repeat=1)
        t_new, new = _time(pykernels.prefix_sums, terms, repeat=3)
        same = _same_bits(ref, new)
        ok &= same
        print(f"  {name:25} Shewchuk {t_ref*1e3:8.2f} ms  "
              f"prefix_sums {t_new*1e3:7.2f} ms  bit-equal={same}")
    return ok


def _repeated_cases():
    """Spectra whose eigenvalues repeat: the unit 3-ball below 2000, the
    unit 10-ball below 300 (38,532 eigenvalues, 18 distinct) and the unit
    square below 1e6."""
    return (("3-ball below 2000", spectra.ball_spectrum(3, 1.0, 2000.0)),
            ("10-ball below 300", spectra.ball_spectrum(10, 1.0, 300.0)),
            ("unit square below 1e6", spectra.box_spectrum([1.0, 1.0], 1e6)))


def compare_rows(cases) -> bool:
    """A one-layer ``riesz_grid`` at the default ``verify`` z grid, on the
    runs of the
    eigenvalues (one weighted term per distinct value, as ``riesz`` sums
    them), against ``math.fsum`` of the ``np.power`` terms of all
    eigenvalues below each z, a reference that shares no code with the
    kernel, and timed against ``riesz_sum`` at each z; True if all bits
    agree."""
    ok = True
    print("Riesz rows on the default verify z grid (200 z; bits against "
          "per-z math.fsum)")
    for name, spec in cases:
        lams = spec.eigenvalues
        runs = pykernels.runs_of(lams)
        zs = verify.z_grid(spec, verify.VerifyConfig())
        for sigma in (0.5, 1.0, 2.0, 2.5):
            ref = [math.fsum(np.power(z - lams[lams < z], sigma).tolist())
                   for z in zs]
            t_ref, _ = _time(
                lambda: [pykernels.riesz_sum(runs, sigma, z)[0] for z in zs])
            t_new, (new,) = _time(pykernels.riesz_grid, runs, [sigma], zs)
            same = _same_bits(ref, new)
            ok &= same
            print(f"  {name:22} n={len(lams):>6} ({len(runs.values):>5} "
                  f"runs) sigma={sigma:3}  per-z riesz_sum "
                  f"{t_ref*1e3:8.2f} ms  riesz_grid {t_new*1e3:7.2f} ms  "
                  f"x{t_ref / t_new:5.1f}  bit-equal={same}")
    return ok


def _hoelder_grid(spec):
    """The z of the random Hoelder samples that ``verify`` draws on
    ``spec`` at the default config, 60 z, and their three layers of one
    sigma per z."""
    cfg = verify.VerifyConfig()
    families = {check_id: points for check_id, _, points
                in verify._build_points(spec, cfg, cfg.z_points)}
    _, (zs, *layers), _ = families["hoelder_chain"].groups[0]
    return layers, zs


def compare_pairs() -> bool:
    """``riesz_grid`` with three layers of one sigma per z, the 60 z x 3
    random sigmas of the Hoelder samples of ``verify``, on each default
    ``verify`` spectrum, against per-pair ``math.fsum`` of the
    ``np.power`` terms, and timed against per-pair ``riesz_sum``; True if
    all bits agree."""
    ok = True
    print("Riesz pairs, 60 z x 3 random sigma layers (bits against "
          "per-pair math.fsum)")
    for name, spec in verify.default_spectra().items():
        lams = spec.eigenvalues
        runs = pykernels.runs_of(lams)
        layers, zs = _hoelder_grid(spec)
        pairs = [(s, z) for layer in layers for s, z in zip(layer, zs)]
        ref = [math.fsum(np.power(z - lams[lams < z], s).tolist())
               for s, z in pairs]
        t_ref, _ = _time(
            lambda: [pykernels.riesz_sum(runs, s, z)[0] for s, z in pairs])
        t_new, new = _time(pykernels.riesz_grid, runs, layers, zs)
        same = _same_bits(ref, sum(new, []))
        ok &= same
        print(f"  {name:14} n={len(lams):>6} ({len(runs.values):>5} runs)  "
              f"per-pair riesz_sum {t_ref*1e3:7.2f} ms  riesz_grid "
              f"{t_new*1e3:6.2f} ms  x{t_ref / t_new:5.1f}  "
              f"bit-equal={same}")
    return ok


def _suite_rows(spec, cfg):
    """The grids of z that the ``verify`` sweep of ``spec`` registers with
    one sigma per layer, the sigmas that its families read there: the z
    grid and the central-difference rows z + h and z - h."""
    table = verify._riesz_memo[spec] = verify._RieszTable(spec)
    try:
        verify._build_points(spec, cfg, cfg.z_points)
    finally:
        verify._riesz_memo.pop(spec, None)
    return [(sigmas, zs) for sigmas, zs in table.pending
            if not np.ndim(sigmas[0])]


def compare_row_sets() -> bool:
    """The default ``verify`` suite's grids of one sigma per layer on each
    default spectrum, on the runs of the eigenvalues, summed three ways:
    one one-layer ``riesz_grid`` call per sigma of a grid; one call per
    grid and sign of sigma, every (sigma, z) pair of the sign in one
    packed layer of one sigma per z; and one ``riesz_grid`` call per grid,
    which packs the terms z - lambda once and raises them to each sigma
    (as the sweep sums them).  True if the three agree in every bit."""
    ok = True
    cfg = verify.VerifyConfig()
    print("Riesz grids of the default verify suite: per sigma, per grid "
          "and sign, per grid (riesz_grid); bits against per sigma")
    for name, spec in verify.default_spectra().items():
        runs = pykernels.runs_of(spec.eigenvalues)
        rows = _suite_rows(spec, cfg)

        def per_sigma():
            return [pykernels.riesz_grid(runs, [s], zs)[0]
                    for sigmas, zs in rows for s in sigmas]

        def per_sign():
            out = []
            for sigmas, zs in rows:
                for part in ([s for s in sigmas if s < 0],
                             [s for s in sigmas if not s < 0]):
                    flat, = pykernels.riesz_grid(
                        runs, [[s for s in part for _ in zs]], zs * len(part))
                    out += [flat[i:i + len(zs)]
                            for i in range(0, len(flat), len(zs))]
            return out

        def per_row():
            return [values for sigmas, zs in rows
                    for values in pykernels.riesz_grid(runs, sigmas, zs)]

        t_ref, ref = _time(per_sigma)
        t_sign, by_sign = _time(per_sign)
        t_row, by_row = _time(per_row)
        same = (_same_bits(sum(ref, []), sum(by_sign, []))
                and _same_bits(sum(ref, []), sum(by_row, [])))
        ok &= same
        print(f"  {name:14} {sum(len(s) for s, _ in rows):>2} sigma rows "
              f"{t_ref*1e3:6.2f} ms  per grid and sign {t_sign*1e3:6.2f} ms  "
              f"{len(rows)} grids {t_row*1e3:6.2f} ms  "
              f"x{t_ref / t_row:5.2f}  bit-equal={same}")
    return ok


def _path(terms):
    """How ``_run_sum`` sums ``terms`` as one segment of unit weights: by
    blocks, or not at all (None, left to ``math.fsum``)."""
    sums = pykernels._run_sum(terms, [0], (np.ones(len(terms), np.uint8),
                                           np.arange(len(terms))))
    return "math.fsum" if sums is None else "blocks"


def compare_run_path_edges() -> bool:
    """The run path at the edges of its contract: ``exact_sum`` of sorted
    terms spanning 2,000 binades, each the one term of its binade and so a
    block of its own, and of 20,000 rising terms over 200 binades, 100 to
    a block, against ``math.fsum``; and a packed one-layer ``riesz_grid``
    batch (15 z, one segment each) whose z / 2 row holds one subnormal
    term, so that the run path leaves the whole batch to ``math.fsum``,
    against per-z ``math.fsum`` of the ``np.power`` terms; True if all
    bits agree."""
    ok = True
    print("run path edges (bits against math.fsum)")
    rng = np.random.default_rng(3)
    wide = np.sort(np.ldexp(rng.uniform(0.5, 1.0, 2000),
                            np.arange(-1000, 1000)))
    rising = np.sort(np.ldexp(rng.uniform(0.5, 1.0, 20000),
                              np.repeat(np.arange(-100, 100), 100)))
    for name, terms in (("2,000 binades ascending", wide),
                        ("2,000 binades descending", wide[::-1]),
                        ("2,000 binades negative", -wide),
                        ("20,000 rising, 200 binades", rising)):
        t_ref, ref = _time(math.fsum, terms, repeat=20)
        t_new, new = _time(pykernels.exact_sum, terms, repeat=20)
        same = _same_bits(ref, new)
        ok &= same
        print(f"  {name:26}  math.fsum {t_ref*1e3:6.2f} ms  "
              f"exact_sum {t_new*1e3:6.2f} ms  by {_path(terms)}  "
              f"bit-equal={same}")
    z = 1e-150
    lams = np.sort(np.concatenate([z * rng.uniform(0.0, 0.9, 3000),
                                   z - 1e-165 * rng.uniform(1.0, 2.0, 50)]))
    runs = pykernels.runs_of(lams)
    zs = [z, z / 2, z * (1 + 1e-15), *np.geomspace(z / 8, z, 12).tolist()]
    ref = [math.fsum(np.power(x - lams[lams < x], 2.0).tolist()) for x in zs]
    t_new, (new,) = _time(pykernels.riesz_grid, runs, [2.0], zs)
    same = _same_bits(ref, new)
    ok &= same
    print(f"  riesz_grid, {len(zs)} z, one row with a subnormal  "
          f"{t_new*1e3:6.2f} ms  bit-equal={same}")
    return ok


def _means_fields(spec, k):
    m = riesz.means(spec, k, MEAN_ORDERS)
    return [m.mean, m.mean_sq, *m.power_means.values(), m.geometric,
            m.harmonic]


def _fsum_means_fields(lams, k):
    """``riesz.means`` fields from ``math.fsum`` of all k terms."""
    head = lams[:k]
    return [math.fsum(head.tolist()) / k,
            math.fsum(np.power(head, 2.0).tolist()) / k,
            *[(math.fsum(np.power(head, s).tolist()) / k) ** (1 / s)
              for s in MEAN_ORDERS],
            math.exp(math.fsum([math.log(x) for x in head.tolist()]) / k),
            k / math.fsum((1.0 / head).tolist())]


def compare_means(cases) -> bool:
    """Every field of ``riesz.means`` (one weighted term per run, cached
    runs and logs) against ``math.fsum`` of the terms of the first k
    eigenvalues at k = n/8, n/2 and n; True if all bits agree."""
    ok = True
    print("means fields (mean, mean square, power means of order "
          f"{', '.join(map(str, MEAN_ORDERS))}, geometric, harmonic; bits "
          "against math.fsum)")
    for name, spec in cases:
        lams = spec.eigenvalues
        for k in (len(lams) // 8, len(lams) // 2, len(lams)):
            t_ref, ref = _time(_fsum_means_fields, lams, k, repeat=3)
            t_new, new = _time(_means_fields, spec, k)
            same = _same_bits(ref, new)
            ok &= same
            print(f"  {name:22} k={k:>6}  math.fsum {t_ref*1e3:8.2f} ms  "
                  f"means {t_new*1e3:7.2f} ms  x{t_ref / t_new:5.1f}  "
                  f"bit-equal={same}")
    return ok


def main() -> int:
    ok = compare_exact()
    ok &= compare_prefix_domain()
    cases = _repeated_cases()
    ok &= compare_rows(cases)
    ok &= compare_pairs()
    ok &= compare_row_sets()
    ok &= compare_run_path_edges()
    ok &= compare_means(cases)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
