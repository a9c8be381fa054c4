"""Inequality verification harness.

Sweeps every cataloged inequality over computed spectra and parameter
grids, recording pass/fail with worst-margin witnesses.  The margin
convention is uniform: for an inequality ``big >= small``,

    margin = (big - small) / max(1, |big|)

and a point passes iff ``margin >= -SLACK``.  Every margin is computed by a
scalar function registered in ``MARGINS``; re-evaluating a reported witness
through :func:`reevaluate` therefore reproduces the margin exactly.

Each margin pays only for its own arithmetic, apart from its Riesz sums
and moments:

* Eigenvalues, means and mean squares are read as Python floats
  (``ndarray.item``) straight from the spectrum's eigenvalues and its
  cached correctly rounded prefix arrays, which
  :func:`~rieszbounds.riesz.eigensum_prefix` and
  :func:`~rieszbounds.riesz.square_prefix` fill on first use.  This is the
  same inside and outside a sweep.
* A bound's dimension gate and per-dimension constants are memoized in
  :mod:`~rieszbounds.bounds`, so a point pays for its own gates on j, k
  or z and one power of k.
* A moment point computes only the one power, geometric or harmonic mean
  it compares, by the helper that ``riesz.means`` uses for that field.
* While one spectrum is swept, R_sigma(z) values are memoized per
  (sigma, z), and the memo is dropped when that spectrum's sweep ends.  It
  only hands back values that ``riesz_value`` computed, so witness
  re-evaluation outside a sweep stays exact.

Points are streamed.  Each family's points form one lazy sequence: sized
(its length is counted from the grids, not by building the points),
re-iterable, and made one keyword dict at a time while the sweep calls the
family's ``MARGINS`` entry on it.  What a sweep holds therefore does not
grow with the number of points: the z grid, the per-parameter lists of z
values that pass a family's threshold, the random Hoelder samples, and
the spectrum's own O(n) arrays, where n is the number of eigenvalues; no
Python object is made per eigenvalue.  The ~16 n points of the index
families (eq224_ratio, yang_simplified, cor32_abhh, eq36_next,
eq37_discrim) are never stored.  The unit square below 1.3e7
(n = 1,033,365; 16.1 M genuine points and 8.3 M control points) is
verified by ``benchmarks/bench_verify_scale.py`` with a peak RSS of about
140 MB.

A corrupted-spectrum negative control is part of the standard suite: the
suite is only green if the genuine checks pass *and* the corrupted twin
fails at least one check (guarding against vacuously true sweeps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import bounds, riesz, spectra
from .errors import ConfigError, DomainError, ResourceLimitError
from .riesz import eigensum_prefix, riesz_value, square_prefix
from .spectra import Spectrum

#: relative numerical slack on all inequality checks
SLACK = 1e-9

#: most z grid points a suite may ask for (desk-scale guard)
MAX_Z_POINTS = 10**5


@dataclass(frozen=True)
class VerifyConfig:
    z_points: int = 200
    z_max_frac: float = 0.95
    z_max: float | None = None
    sigma_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0)
    j_count: int = 12
    k_count: int = 40
    hoelder_samples: int = 60
    moment_k_count: int = 8
    seed: int = 0
    inject_corruption: bool = False
    control_z_points: int = 40
    control_j_count: int = 4


@dataclass
class CheckResult:
    """Outcome of one inequality id swept over all spectra and grids."""

    id: str
    grid: str
    n_points: int
    passed: bool
    worst_margin: float
    witness: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    controls: list[dict]
    config: VerifyConfig

    @property
    def negative_control_ok(self) -> bool:
        # vacuously true for an empty spectrum set
        return all(c["n_failed"] >= 1 for c in self.controls)

    @property
    def all_passed(self) -> bool:
        return (all(c.passed for c in self.checks)
                and self.negative_control_ok)

    def to_json_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "negative_control_ok": self.negative_control_ok,
            "checks": [asdict(c) for c in self.checks],
            "controls": self.controls,
        }

    def to_text(self) -> str:
        lines = [f"{'inequality':24s} {'points':>8s} {'status':>6s} "
                 f"{'worst margin':>14s}  witness"]
        for c in self.checks:
            wit = ", ".join(f"{k}={v}" for k, v in c.witness.items())
            lines.append(f"{c.id:24s} {c.n_points:8d} "
                         f"{'PASS' if c.passed else 'FAIL':>6s} "
                         f"{c.worst_margin: .6e}  {wit}")
        for ctl in self.controls:
            status = "ok" if ctl["n_failed"] >= 1 else "VACUOUS"
            lines.append(f"negative control [{ctl['spectrum']}]: "
                         f"{ctl['n_failed']}/{ctl['n_checks']} checks failed "
                         f"({status})")
        lines.append("suite result: "
                     + ("ALL PASS" if self.all_passed else "FAILURES"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scalar margin functions (witness-reproducible)

def _margin(big, small):
    # (big - small) / max(1, |big|), without a call to max
    scale = abs(big)
    return (big - small) / (scale if scale > 1.0 else 1.0)


#: per-spectrum {(sigma, z): R_sigma(z)} tables, alive while _sweep runs
_riesz_memo: dict[Spectrum, dict] = {}

def _eigenvalue(spec, k):
    return spec.eigenvalues.item(k)


def _mean(spec, j):
    prefix = spec._derived.get("eigensum_prefix")
    if prefix is None:
        prefix = eigensum_prefix(spec)
    return prefix.item(j - 1) / j


def _riesz(spec, sigma, z):
    """R_sigma(z), memoized while the spectrum is being swept.

    Misses (and every call outside a sweep) go to ``riesz_value``, so a
    memoized value is always one that ``riesz_value`` returned.
    """
    table = _riesz_memo.get(spec)
    if table is None:
        return riesz_value(spec, sigma, z)[0]
    key = (sigma, z)
    value = table.get(key)
    if value is None:
        value = table[key] = riesz_value(spec, sigma, z)[0]
    return value


def margin_thm21_diff1(spec, sigma, z):
    rs = _riesz(spec, sigma, z)
    rsm1 = _riesz(spec, sigma - 1.0, z)
    return _margin(rsm1, (1 + spec.dimension / 4) * rs / z)


def margin_thm21_diff2(spec, sigma, z):
    rs = _riesz(spec, sigma, z)
    rsm1 = _riesz(spec, sigma - 1.0, z)
    return _margin(rsm1, (1 + spec.dimension / (2 * sigma)) * rs / z)


def _central_difference(spec, sigma, z, h):
    hi = _riesz(spec, sigma, z + h)
    lo = _riesz(spec, sigma, z - h)
    return (hi - lo) / (2 * h)


def margin_thm21_deriv1(spec, sigma, z, h):
    fd = _central_difference(spec, sigma, z, h)
    rs = _riesz(spec, sigma, z)
    return _margin(fd, (1 + spec.dimension / 4) * sigma * rs / z)


def margin_thm21_deriv2(spec, sigma, z, h):
    fd = _central_difference(spec, sigma, z, h)
    rs = _riesz(spec, sigma, z)
    return _margin(fd, (sigma + spec.dimension / 2) * rs / z)


def margin_thm21_mono1(spec, sigma, z1, z2):
    p = sigma * (1 + spec.dimension / 4)
    f1 = _riesz(spec, sigma, z1) / z1 ** p
    f2 = _riesz(spec, sigma, z2) / z2 ** p
    return _margin(f2, f1)


def margin_thm21_mono2(spec, sigma, z1, z2):
    p = sigma + spec.dimension / 2
    f1 = _riesz(spec, sigma, z1) / z1 ** p
    f2 = _riesz(spec, sigma, z2) / z2 ** p
    return _margin(f2, f1)


def margin_cor23_sandwich(spec, sigma, z, form):
    d = spec.dimension
    rs = _riesz(spec, sigma, z)
    if form == "upper":
        ub = bounds.riesz_upper(sigma, d, spec.volume, z)
        return _margin(ub, rs)
    lb = bounds.riesz_lower_main(sigma, d, spec.lambda_1, z)
    return _margin(rs, lb)


def margin_aizenman_lieb_ratio(spec, sigma, z):
    d = spec.dimension
    lhs = (_riesz(spec, sigma - 1.0, z)
           / (bounds.L_cl(sigma - 1.0, d) * z ** (sigma - 1 + d / 2)))
    rhs = (_riesz(spec, sigma, z)
           / (bounds.L_cl(sigma, d) * z ** (sigma + d / 2)))
    return _margin(lhs, rhs)


def margin_cor26_lower(spec, sigma, z, form):
    d = spec.dimension
    lb = bounds.riesz_lower_sub2(sigma, d, spec.lambda_1, z)
    if form == "direct":
        return _margin(_riesz(spec, sigma, z), lb)
    # middle link of the sigma = 1 chain: (1 + d/4) R_2(z)/z >= lb
    mid = (1 + d / 4) * _riesz(spec, 2.0, z) / z
    return _margin(mid, lb)


def margin_eq213_lower(spec, sigma, z):
    lb = bounds.riesz_lower_hermi(sigma, spec.dimension, spec.lambda_1, z)
    return _margin(_riesz(spec, sigma, z), lb)


def margin_cor29_r2(spec, j, z):
    d = spec.dimension
    mean_j = _mean(spec, j)
    lb = (j * z ** (2 + d / 2)
          / ((1 + d / 4) ** 2 * ((1 + 4 / d) * mean_j) ** (d / 2)))
    return _margin(_riesz(spec, 2.0, z), lb)


def margin_cor29_r1(spec, j, z):
    d = spec.dimension
    mean_j = _mean(spec, j)
    lb = (j * z ** (1 + d / 2)
          / ((1 + d / 4) * ((1 + 4 / d) * mean_j) ** (d / 2)))
    return _margin(_riesz(spec, 1.0, z), lb)


def margin_cor29_counting(spec, j, z):
    d = spec.dimension
    lb = bounds.counting_lower_j(d, j, _mean(spec, j), z)
    return _margin(_riesz(spec, 0.0, z), lb)


def margin_eq224_ratio(spec, j, k):
    bound = (bounds.lambda_next_over_mean(spec.dimension, j, k)
             * _mean(spec, j))
    return _margin(bound, _eigenvalue(spec, k))


def margin_yang_simplified(spec, k):
    bound = (1 + 4 / spec.dimension) * _mean(spec, k)
    return _margin(bound, _eigenvalue(spec, k))


def margin_hoelder_chain(spec, form, z, sigma=None, sigma0=None,
                         sigma1=None, sigma2=None):
    d = spec.dimension
    if form == "logconvex":
        t = (sigma2 - sigma1) / (sigma2 - sigma0)
        r0 = _riesz(spec, sigma0, z)
        r1 = _riesz(spec, sigma1, z)
        r2 = _riesz(spec, sigma2, z)
        return _margin(r0 ** t * r2 ** (1 - t), r1)
    if form == "counting":
        rsm1 = _riesz(spec, sigma - 1.0, z)
        rs = _riesz(spec, sigma, z)
        lb = rsm1 ** sigma / rs ** (sigma - 1.0)
        return _margin(_riesz(spec, 0.0, z), lb)
    # form == "counting2": sigma >= 2 counting bound
    rs = _riesz(spec, sigma, z)
    lb = ((d + 2 * sigma) / (2 * sigma)) ** sigma * z ** (-sigma) * rs
    return _margin(_riesz(spec, 0.0, z), lb)


def margin_cor31_mean_ratio(spec, j, k):
    bound = bounds.mean_ratio(spec.dimension, j, k) * _mean(spec, j)
    return _margin(bound, _mean(spec, k))


def margin_cor32_abhh(spec, k):
    bound = bounds.abhh(spec.dimension, k) * _eigenvalue(spec, 0)
    return _margin(bound, _mean(spec, k))


def margin_eq36_next(spec, k):
    bound = bounds.abhh_next(spec.dimension, k) * _eigenvalue(spec, 0)
    return _margin(bound, _eigenvalue(spec, k))


def margin_eq37_discrim(spec, k, form):
    n = len(spec.eigenvalues)
    if not 1 <= k <= n:
        raise DomainError(f"k must be in 1..{n}, got {k}")
    squares = spec._derived.get("square_prefix")
    if squares is None:
        squares = square_prefix(spec)
    mean_sq = squares.item(k - 1) / k
    lo, hi = bounds.mean_sq_envelope(spec.dimension, _mean(spec, k))
    if form == "lower":
        return _margin(mean_sq, lo)
    return _margin(hi, mean_sq)


def _moment(spec, k, sigma):
    """The one mean of order sigma that ``riesz.means`` reports: sigma = 0
    denotes the geometric mean, -1 the harmonic mean."""
    riesz._check_index(spec, k)
    if sigma == -1.0:
        return riesz._harmonic_mean(spec, k)
    if sigma == 0.0:
        return riesz._geometric_mean(spec, k)
    return riesz._power_mean(spec, k, sigma)


def margin_moment_ordering(spec, k, s_lo, s_hi):
    return _margin(_moment(spec, k, s_hi), _moment(spec, k, s_lo))


def margin_moment_interpolation(spec, k, mu, sigma, tau):
    a = (tau - sigma) / (tau - mu)
    b = (sigma - mu) / (tau - mu)
    m_mu = _moment(spec, k, mu)
    m_tau = _moment(spec, k, tau)
    m_sig = _moment(spec, k, sigma)
    return _margin((m_mu ** mu) ** a * (m_tau ** tau) ** b, m_sig ** sigma)


MARGINS = {
    "thm21_diff1": margin_thm21_diff1,
    "thm21_diff2": margin_thm21_diff2,
    "thm21_deriv1": margin_thm21_deriv1,
    "thm21_deriv2": margin_thm21_deriv2,
    "thm21_mono1": margin_thm21_mono1,
    "thm21_mono2": margin_thm21_mono2,
    "cor23_sandwich": margin_cor23_sandwich,
    "aizenman_lieb_ratio": margin_aizenman_lieb_ratio,
    "cor26_lower": margin_cor26_lower,
    "eq213_lower": margin_eq213_lower,
    "cor29_r2": margin_cor29_r2,
    "cor29_r1": margin_cor29_r1,
    "cor29_counting": margin_cor29_counting,
    "eq224_ratio": margin_eq224_ratio,
    "yang_simplified": margin_yang_simplified,
    "hoelder_chain": margin_hoelder_chain,
    "cor31_mean_ratio": margin_cor31_mean_ratio,
    "cor32_abhh": margin_cor32_abhh,
    "eq36_next": margin_eq36_next,
    "eq37_discrim": margin_eq37_discrim,
    "moment_ordering": margin_moment_ordering,
    "moment_interpolation": margin_moment_interpolation,
}


#: checks covering the core differential/monotonicity statements
THEOREM_IDS = ("thm21_diff1", "thm21_diff2", "thm21_deriv1", "thm21_deriv2",
               "thm21_mono1", "thm21_mono2")

#: all remaining corollary/consequence checks
COROLLARY_IDS = tuple(i for i in MARGINS if i not in THEOREM_IDS)


def reevaluate(spec: Spectrum, check_id: str, witness: dict) -> float:
    """Recompute the margin for a reported witness tuple; an integer j or
    k outside the spectrum raises DomainError (the sweep makes none)."""
    params = {k: v for k, v in witness.items() if k != "spectrum"}
    reads_next = check_id in ("eq224_ratio", "yang_simplified", "eq36_next")
    for key in ("j", "k"):
        top = len(spec.eigenvalues) - (key == "k" and reads_next)
        if bounds._whole(params.get(key)) and not 1 <= params[key] <= top:
            raise DomainError(f"{check_id}: {key} must be in 1..{top}, "
                              f"got {params[key]}")
    return MARGINS[check_id](spec, **params)


# ---------------------------------------------------------------------------
# grids

def _nearest_gap(ev, zs):
    """Distance from each z to its nearest eigenvalue, by one searchsorted."""
    zs = np.asarray(zs, dtype=np.float64)
    idx = np.searchsorted(ev, zs)
    above = np.abs(ev[np.minimum(idx, len(ev) - 1)] - zs)
    below = np.abs(zs - ev[np.maximum(idx - 1, 0)])
    above[idx == len(ev)] = np.inf
    below[idx == 0] = np.inf
    return np.minimum(above, below)


def z_grid(spec: Spectrum, cfg: VerifyConfig, n: int | None = None):
    """Logarithmic z grid in (lambda_1, z_hi], nudged off eigenvalues."""
    n = n or cfg.z_points
    z_hi = cfg.z_max if cfg.z_max is not None \
        else cfg.z_max_frac * spec.complete_below
    if z_hi > spec.complete_below:
        raise ConfigError(
            f"z_max={z_hi} exceeds completeness threshold "
            f"{spec.complete_below}")
    lam1 = spec.lambda_1
    if not z_hi > lam1:
        raise ConfigError(f"z_max={z_hi} is not above lambda_1={lam1}")
    grid = np.geomspace(lam1 * (1 + 1e-6), z_hi, n)
    ev = spec.eigenvalues
    out = np.minimum(grid, spec.complete_below).tolist()
    # the rare z within 1e-9 z of an eigenvalue is nudged up until clear
    for i in np.flatnonzero(_nearest_gap(ev, grid) < 1e-9 * grid):
        z = grid[i] * (1 + 2e-9)
        while _nearest_gap(ev, [z])[0] < 1e-9 * z:
            z *= 1 + 2e-9
        out[i] = float(min(z, spec.complete_below))
    return out


def _index_list(n_max: int, count: int):
    """Roughly geometric list of distinct indices in 1..n_max."""
    if n_max < 1:
        return []
    raw = np.unique(np.geomspace(1, n_max, count).round().astype(int))
    return [int(i) for i in raw if 1 <= i <= n_max]


# ---------------------------------------------------------------------------
# check builders: lists of (check_id, grid description, points)

class _Points:
    """The points of one check family, made one keyword dict at a time.

    ``rows`` is a zero-argument callable that returns a fresh iterable of
    keyword-argument dicts, the same sequence on every call; ``length`` is
    how many it yields.  Rows made by a generator exist one at a time.
    """

    __slots__ = ("_rows", "_length")

    def __init__(self, rows, length: int):
        self._rows = rows
        self._length = length

    def __len__(self):
        return self._length

    def __iter__(self):
        return iter(self._rows())


def _sigma_z(sigmas, zs):
    return _Points(lambda: ({"sigma": s, "z": z} for s in sigmas for z in zs),
                   len(sigmas) * len(zs))


def _build_points(spec: Spectrum, cfg: VerifyConfig, n_z: int):
    d = spec.dimension
    lam1 = spec.lambda_1
    n = len(spec)
    zs = z_grid(spec, cfg, n_z)
    s_le2 = [s for s in cfg.sigma_grid if 0 < s <= 2]
    s_ge2 = [s for s in cfg.sigma_grid if s >= 2]
    rng = np.random.default_rng(cfg.seed)
    out = []

    out.append(("thm21_diff1", f"sigma in {s_le2}, {n_z} log z points",
                _sigma_z(s_le2, zs)))
    out.append(("thm21_diff2", f"sigma in {s_ge2}, {n_z} log z points",
                _sigma_z(s_ge2, zs)))

    # central differences: z whose step h stays clear of eigenvalues and
    # below the completeness threshold
    z_arr = np.array(zs)
    clear = ((_nearest_gap(spec.eigenvalues, z_arr) > 10 * (1e-6 * z_arr))
             & (z_arr + 1e-6 * z_arr <= spec.complete_below))
    z_fd = [z for z, ok in zip(zs, clear.tolist()) if ok]

    def fd_points(sigmas):
        return _Points(lambda: ({"sigma": s, "z": z, "h": 1e-6 * z}
                                for s in sigmas for z in z_fd),
                       len(sigmas) * len(z_fd))

    out.append(("thm21_deriv1", "sigma in {1.5, 2}, central differences",
                fd_points([s for s in s_le2 if s >= 1.5])))
    out.append(("thm21_deriv2", "sigma > 2, central differences",
                fd_points([s for s in s_ge2 if s > 2])))

    pairs = list(zip(zs[:-1], zs[1:]))

    def pair_points(sigmas):
        return _Points(lambda: ({"sigma": s, "z1": z1, "z2": z2}
                                for s in sigmas for z1, z2 in pairs),
                       len(sigmas) * len(pairs))

    out.append(("thm21_mono1", f"sigma in {s_le2}, consecutive z pairs",
                pair_points(s_le2)))
    out.append(("thm21_mono2", f"sigma in {s_ge2}, consecutive z pairs",
                pair_points(s_ge2)))

    if spec.volume is not None:
        thr23 = [(s, (1 + 2 * s / d) * lam1) for s in s_ge2]

        def sandwich_rows():
            for s, thr in thr23:
                for z in zs:
                    yield {"sigma": s, "z": z, "form": "upper"}
                    if z >= thr:
                        yield {"sigma": s, "z": z, "form": "lower"}

        out.append(("cor23_sandwich",
                    f"sigma in {s_ge2}, upper all z, lower above threshold",
                    _Points(sandwich_rows,
                            sum(len(zs) + sum(z >= thr for z in zs)
                                for _, thr in thr23))))
    out.append(("aizenman_lieb_ratio", f"sigma in {s_ge2}, {n_z} z points",
                _sigma_z(s_ge2, zs)))

    lower26 = []
    for s in [x for x in cfg.sigma_grid if x < 2] + [0.0]:
        thr = (1 + (2 * s + 2) / d) * lam1 if s >= 1 \
            else (1 + (2 * s + 4) / d) * lam1
        lower26.append((s, "direct", [z for z in zs if z >= thr]))
    chain_thr = (1 + 4 / d) * lam1
    lower26.append((1.0, "chain", [z for z in zs if z >= chain_thr]))
    out.append(("cor26_lower", "sigma < 2 incl. counting form, z above "
                "regime thresholds",
                _Points(lambda: ({"sigma": s, "z": z, "form": form}
                                 for s, form, above in lower26
                                 for z in above),
                        sum(len(above) for _, _, above in lower26))))

    out.append(("eq213_lower", "sigma >= 1 grid, all z",
                _sigma_z([s for s in cfg.sigma_grid if s >= 1], zs)))

    j_list = _index_list(n, cfg.j_count)
    z29 = [(j, [z for z in zs if z >= (1 + 4 / d) * _mean(spec, j)])
           for j in j_list]
    pts29 = _Points(lambda: ({"j": j, "z": z} for j, above in z29
                             for z in above),
                    sum(len(above) for _, above in z29))
    for check_id in ("cor29_r2", "cor29_r1", "cor29_counting"):
        out.append((check_id, f"j in {j_list}, z above (1+4/d) mean_j",
                    pts29))

    out.append(("eq224_ratio", f"j in {j_list}, all k in j..{n-1}",
                _Points(lambda: ({"j": j, "k": k} for j in j_list
                                 for k in range(j, n)),
                        sum(max(0, n - j) for j in j_list))))
    out.append(("yang_simplified", f"all k in 1..{n-1}",
                _Points(lambda: ({"k": k} for k in range(1, n)),
                        max(0, n - 1))))

    # the random draws are made once, so every pass sees the same samples
    hoelder = []
    for _ in range(cfg.hoelder_samples):
        s0 = float(rng.uniform(0.0, 2.0))
        s2 = s0 + float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(0.05, 0.95))
        s1 = t * s0 + (1 - t) * s2
        hoelder.append({"form": "logconvex", "z": float(rng.choice(zs)),
                        "sigma0": s0, "sigma1": s1, "sigma2": s2})
    for s in (1.5, 2.0, 3.0):
        hoelder.extend({"form": "counting", "sigma": s, "z": z}
                       for z in zs[::5])
    for s in (2.0, 3.0, 5.0):
        hoelder.extend({"form": "counting2", "sigma": s, "z": z}
                       for z in zs[::5])
    out.append(("hoelder_chain", "random sigma triples + counting forms",
                _Points(lambda: hoelder, len(hoelder))))

    k_list = _index_list(n, cfg.k_count)
    k31 = [(j, [k for k in k_list if k >= j * (1 + d / 2) / (1 + d / 4)])
           for j in j_list]
    out.append(("cor31_mean_ratio", "(j, k) pairs above validity threshold",
                _Points(lambda: ({"j": j, "k": k} for j, ks in k31
                                 for k in ks),
                        sum(len(ks) for _, ks in k31))))

    thresh = (d + 1) * (1 + d / 2) / (1 + d / 4)
    k_min = int(math.ceil(thresh))
    out.append(("cor32_abhh", f"k in {k_min}..{n}",
                _Points(lambda: ({"k": k} for k in range(k_min, n + 1)),
                        max(0, n + 1 - k_min))))
    out.append(("eq36_next", f"k in {k_min}..{n-1}",
                _Points(lambda: ({"k": k} for k in range(k_min, n)),
                        max(0, n - k_min))))

    out.append(("eq37_discrim", "all k, both envelope sides",
                _Points(lambda: ({"k": k, "form": f}
                                 for k in range(1, n + 1)
                                 for f in ("lower", "upper")),
                        2 * n)))

    mk = [k for k in _index_list(n, cfg.moment_k_count) if k >= 2]
    orders = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0]
    order_pairs = list(zip(orders[:-1], orders[1:]))
    out.append(("moment_ordering", "consecutive power-mean orders",
                _Points(lambda: ({"k": k, "s_lo": lo, "s_hi": hi}
                                 for k in mk for lo, hi in order_pairs),
                        len(mk) * len(order_pairs))))
    triples = [(0.25, 0.5, 1.0), (0.5, 1.0, 2.0), (1.0, 1.5, 2.0),
               (0.5, 1.5, 2.0)]
    out.append(("moment_interpolation", "sampled (mu, sigma, tau) triples",
                _Points(lambda: ({"k": k, "mu": a, "sigma": b, "tau": c}
                                 for k in mk for a, b, c in triples),
                        len(mk) * len(triples))))
    return out


def _sweep(label: str, spec: Spectrum, cfg: VerifyConfig, n_z: int,
           ids=None):
    """Run margin sweeps on one spectrum, optionally restricted to ids.

    Returns {check_id: (grid, n_points, worst_margin, witness)}.
    """
    results = {}
    _riesz_memo[spec] = {}
    try:
        for check_id, grid, points in _build_points(spec, cfg, n_z):
            if ids is not None and check_id not in ids:
                continue
            fn = MARGINS[check_id]
            worst = math.inf
            witness = {}
            params = None
            try:    # a float overflow or division by zero is no verdict
                for params in points:
                    m = fn(spec, **params)
                    if m < worst:
                        worst = m
                        witness = dict(params)
                        witness["spectrum"] = label
            except ArithmeticError as exc:
                raise DomainError(f"{check_id} cannot be evaluated on "
                                  f"{label!r} at {params}: {exc!r}") from exc
            results[check_id] = (grid, len(points), worst, witness)
    finally:
        _riesz_memo.pop(spec, None)
    return results


def corrupt_spectrum(spec: Spectrum) -> Spectrum:
    """Negative-control twin: first eigenvalue scaled down tenfold."""
    ev = np.array(spec.eigenvalues)
    ev[0] *= 0.1
    return Spectrum(dimension=spec.dimension, eigenvalues=ev,
                    complete_below=spec.complete_below, domain=spec.domain,
                    volume=spec.volume)


def default_spectra() -> dict[str, Spectrum]:
    """The standard verification set: two boxes, the unit disk, the unit ball."""
    return {
        "square_1x1": spectra.box_spectrum([1.0, 1.0], 5000.0),
        "box_pi_halfpi": spectra.box_spectrum(
            [math.pi, math.pi / 2], 5000.0),
        "disk_r1": spectra.ball_spectrum(2, 1.0, 2000.0),
        "ball3_r1": spectra.ball_spectrum(3, 1.0, 2000.0),
    }


def sweep(specs: dict[str, Spectrum], cfg: VerifyConfig,
          ids=None) -> list[CheckResult]:
    """Run the (optionally restricted) check set, merged across spectra."""
    merged: dict[str, list] = {}
    order: list[str] = []
    for label, spec in specs.items():
        for check_id, res in _sweep(label, spec, cfg, cfg.z_points,
                                    ids=ids).items():
            if check_id not in merged:
                merged[check_id] = []
                order.append(check_id)
            merged[check_id].append(res)

    checks = []
    for check_id in order:
        parts = merged[check_id]
        n_points = sum(p[1] for p in parts)
        nonempty = [p for p in parts if p[1] > 0]
        if nonempty:
            grid, _, worst, witness = min(nonempty, key=lambda p: p[2])
        else:
            grid, worst, witness = parts[0][0], math.inf, {}
        checks.append(CheckResult(
            id=check_id, grid=grid, n_points=n_points,
            passed=bool(n_points > 0 and worst >= -SLACK),
            worst_margin=float(worst) if n_points else math.nan,
            witness=witness))
    return checks


def _control_config(cfg: VerifyConfig) -> VerifyConfig:
    """The smaller grid the negative control is swept on."""
    return replace(
        cfg, z_points=cfg.control_z_points, j_count=cfg.control_j_count,
        k_count=cfg.control_j_count, hoelder_samples=10, moment_k_count=3)


def check_config(cfg: VerifyConfig) -> None:
    """Reject what is wrong with ``cfg`` whatever the spectra, so a caller
    can check it before building any spectrum."""
    if cfg.z_points < 2:
        raise ConfigError("z_points must be >= 2")
    if cfg.z_points > MAX_Z_POINTS:
        raise ResourceLimitError(
            f"z_points={cfg.z_points} exceeds cap {MAX_Z_POINTS}")
    if cfg.z_max is not None and not math.isfinite(cfg.z_max):
        raise ConfigError(f"z_max must be finite, got {cfg.z_max}")


def run_suite(specs: dict[str, Spectrum],
              config: VerifyConfig | None = None) -> VerificationReport:
    """Aggregate all checks over all spectra, plus the negative control."""
    cfg = config or VerifyConfig()
    check_config(cfg)
    if cfg.z_max is not None:
        for label, spec in specs.items():
            if cfg.z_max > spec.complete_below:
                raise ConfigError(
                    f"z_max={cfg.z_max} exceeds completeness threshold "
                    f"{spec.complete_below} of spectrum {label!r}")

    if cfg.inject_corruption:
        specs = {f"corrupted:{k}": corrupt_spectrum(v)
                 for k, v in specs.items()}

    checks = sweep(specs, cfg)

    controls = []
    ctl_cfg = _control_config(cfg)
    for label, spec in specs.items():
        twin = corrupt_spectrum(spec)
        res = _sweep(f"control:{label}", twin, ctl_cfg, ctl_cfg.z_points)
        n_failed = sum(1 for _, npts, worst, _ in res.values()
                       if npts > 0 and worst < -SLACK)
        controls.append({"spectrum": label, "n_checks": len(res),
                         "n_failed": n_failed})

    return VerificationReport(checks=checks, controls=controls, config=cfg)
