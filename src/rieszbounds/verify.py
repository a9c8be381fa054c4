"""Inequality verification harness.

Sweeps every cataloged inequality over computed spectra and parameter
grids, recording pass/fail with worst-margin witnesses.  The margin
convention is uniform: for an inequality ``big >= small``,

    margin = (big - small) / max(1, |big|)

and a point passes iff ``margin >= -SLACK``.  Every margin is computed by a
scalar function registered in ``MARGINS``; re-evaluating a reported witness
through :func:`reevaluate` therefore reproduces the margin exactly.  A
margin that is NaN, or whose arithmetic raises (a float overflow, a
division by zero), is no verdict: the sweep raises ``DomainError`` naming
the check, the spectrum and the point.

Each margin pays only for its own arithmetic, apart from its Riesz sums
and moments:

* Eigenvalues, means and mean squares are read as Python floats through
  memoryviews of the spectrum's eigenvalues and of its cached correctly
  rounded prefix arrays, which :func:`~rieszbounds.riesz.eigensum_prefix`
  and :func:`~rieszbounds.riesz.square_prefix` fill on first use.  The
  views, with ``1 + 4/d`` and ``2/d``, are kept in the spectrum's
  ``_derived`` cache on first use (``_operands``), so this is the same
  inside and outside a sweep.  The five index families, which hold most
  of the points, read them and compute their margin without a helper
  call between.
* The four index margins that compare with a catalog bound (eq224_ratio,
  cor32_abhh, eq36_next, eq37_discrim) compute its closed form in place,
  ``(1 + 4/d) (k/j)^(2/d)`` or a per-dimension coefficient memoized in
  :mod:`~rieszbounds.bounds` times ``k ** (2 / d)``, in the bound's
  association order, so each margin has the bits of the public bound.
  Their validity gates (``_GATES``: the public bound at one point) run
  once per family, just before its first point, at the first row of each
  row group: ``lambda_next_over_mean(d, j, j)`` for each j,
  ``abhh(d, k_min)``, ``abhh_next(d, k_min)`` and
  ``mean_sq_envelope(d, mean_1)``.  Every later row of a group lies in
  the same validity region: its k is an ``int`` no smaller, and for
  eq37_discrim every mean is positive, as the eigenvalues are, and finite,
  as ``prefix_sums`` raises on overflow.  ``reevaluate`` runs the gate on
  the witness itself.  The other families call their bound per point; its
  gates pass an ``int`` dimension or index without converting it.
* A moment point computes only the one power, geometric or harmonic mean
  it compares, by the helper that ``riesz.means`` uses for that field,
  and while one spectrum is swept each (k, order) is computed once: the
  moment memo is dropped with the Riesz memo when the sweep ends.
* While one spectrum is swept, R_sigma(z) values are memoized per
  (sigma, z), and the memo is dropped when that spectrum's sweep ends.
  Values are computed a row at a time: the sweep registers the rows of z
  it evaluates (the z grid and the central-difference rows z + h and
  z - h), and the second time that a sigma misses in a row,
  :func:`~rieszbounds.riesz.riesz_row` sums the whole row in one
  segmented pass.  Other misses, such as the random Hoelder sigmas, call
  ``riesz_value``.  Every memoized value is bit-equal to what
  ``riesz_value`` returns, so witness re-evaluation outside a sweep stays
  exact.

Points are streamed.  Each family's points form one lazy sequence: sized
(its length is counted from the grids, not by building the points),
re-iterable, and made one row at a time while the sweep calls the
family's ``MARGINS`` entry on it.  A row is a tuple of the margin
function's arguments after the spectrum, in its parameter order, and the
sequence carries their ``names``.  The sweep takes the rows ``_CHUNK`` at
a time and computes their margins into one array by
``np.fromiter(starmap(partial(fn, spec), chunk))``, with no Python frame
between the calls, so ``fn(spec, *row)`` is still called once per point;
it makes a keyword dict only once per family, for the witness.  (The two
row shapes of ``hoelder_chain`` each keep their own witness key order.)
The index families' rows of one index are made by ``zip`` without a
Python frame per row.  What a sweep holds therefore does not grow with
the number of points: the z grid, the per-parameter lists of z values
that pass a family's threshold, the random Hoelder samples, one chunk of
rows and margins, and the spectrum's own O(n) arrays, where n is the
number of eigenvalues; no Python object is made per eigenvalue.  The
~16 n points of the index families (eq224_ratio, yang_simplified,
cor32_abhh, eq36_next, eq37_discrim) are never stored.  The unit square
below 1.3e7 (n = 1,033,365; 16.1 M genuine points and 8.3 M control
points) is verified by ``benchmarks/bench_verify_scale.py`` with a peak
RSS of about 140 MB.

A corrupted-spectrum negative control is part of the standard suite: the
suite is only green if the genuine checks pass *and* the corrupted twin
fails at least one check (guarding against vacuously true sweeps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace
from functools import partial
from itertools import chain, islice, product, repeat, starmap

import numpy as np

from . import bounds, riesz, spectra
from .errors import ConfigError, DomainError, ResourceLimitError
from .riesz import eigensum_prefix, riesz_row, riesz_value, square_prefix
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
        checks = [asdict(c) for c in self.checks]
        for c in checks:
            if c["worst_margin"] != c["worst_margin"]:
                c["worst_margin"] = None    # no points; JSON has no NaN
        return {
            "all_passed": self.all_passed,
            "negative_control_ok": self.negative_control_ok,
            "checks": checks,
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


class _RieszTable(dict):
    """{(sigma, z): R_sigma(z)} of one spectrum while it is swept.

    A missing value is computed on first use.  The sweep registers rows of
    z values that many points share (``add_row``).  The second time one
    sigma misses in a row, ``riesz_row`` computes the whole row of that
    sigma at once; any other miss is the one value of ``riesz_value``.
    Both give the bits of ``riesz_value``.
    """

    def __init__(self, spec):
        super().__init__()
        self.spec = spec
        self.rows = []
        self.row_of = {}     # z -> index of the first row that holds it
        self.missed = set()  # (sigma, row index) pairs that missed once

    def add_row(self, zs):
        for z in zs:
            self.row_of.setdefault(z, len(self.rows))
        self.rows.append(zs)

    def __missing__(self, key):
        sigma, z = key
        row = self.row_of.get(z)
        if (sigma, row) in self.missed:
            zs = self.rows[row]
            self.update(zip([(sigma, x) for x in zs],
                            riesz_row(self.spec, sigma, zs)))
            return self[key]
        if row is not None:
            self.missed.add((sigma, row))
        value = self[key] = riesz_value(self.spec, sigma, z)[0]
        return value


#: per-spectrum R_sigma(z) tables, alive while _sweep runs
_riesz_memo: dict[Spectrum, _RieszTable] = {}


def _operands(spec):
    """``(1 + 4/d, 2/d, eigenvalues, eigensum prefix)`` of ``spec``, the
    arrays as memoryviews, whose items are the Python floats that
    ``ndarray.item`` returns; cached in ``spec._derived`` on first use."""
    d = spec.dimension
    ops = spec._derived["operands"] = (
        1 + 4 / d, 2 / d, memoryview(spec.eigenvalues),
        memoryview(eigensum_prefix(spec)))
    return ops


def _mean(spec, j):
    return (spec._derived.get("operands") or _operands(spec))[3][j - 1] / j


def _riesz(spec, sigma, z):
    """R_sigma(z), memoized while the spectrum is being swept.

    Every call outside a sweep goes to ``riesz_value``; a memoized value
    has the bits that ``riesz_value`` returns (see ``_RieszTable``).
    """
    table = _riesz_memo.get(spec)
    if table is None:
        return riesz_value(spec, sigma, z)[0]
    return table[sigma, z]


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


# The five index margins (eq224_ratio, yang_simplified, cor32_abhh,
# eq36_next, eq37_discrim) hold most of a sweep's points, so each reads its
# operands from the cached ``_operands`` tuple and computes its margin in
# place, without a call to ``_mean`` or ``_margin``.  Every ``big`` there is
# positive, as the eigenvalues are, so |big| is ``big``.  The four that
# compare with a catalog bound compute its closed form in place, from the
# per-dimension memos of ``bounds``, in the bound's association order;
# their validity gates are in ``_GATES``, which the sweep and ``reevaluate``
# run and a direct call does not.

def margin_eq224_ratio(spec, j, k):
    c, e, ev, sums = spec._derived.get("operands") or _operands(spec)
    # bounds.lambda_next_over_mean(d, j, k) * mean_j
    big = c * (k / j) ** e * (sums[j - 1] / j)
    return (big - ev[k]) / (big if big > 1.0 else 1.0)


def margin_yang_simplified(spec, k):
    c, _, ev, sums = spec._derived.get("operands") or _operands(spec)
    big = c * (sums[k - 1] / k)
    return (big - ev[k]) / (big if big > 1.0 else 1.0)


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
    _, e, ev, sums = spec._derived.get("operands") or _operands(spec)
    # bounds.abhh(d, k) * lambda_1
    big = bounds._abhh_constants(spec.dimension)[1] * k ** e * ev[0]
    return (big - sums[k - 1] / k) / (big if big > 1.0 else 1.0)


def margin_eq36_next(spec, k):
    _, e, ev, _ = spec._derived.get("operands") or _operands(spec)
    # bounds.abhh_next(d, k) * lambda_1
    big = bounds._abhh_next_coeff(spec.dimension) * k ** e * ev[0]
    return (big - ev[k]) / (big if big > 1.0 else 1.0)


def margin_eq37_discrim(spec, k, form):
    derived = spec._derived
    _, _, ev, sums = derived.get("operands") or _operands(spec)
    if not 1 <= k <= len(ev):
        raise DomainError(f"k must be in 1..{len(ev)}, got {k}")
    squares = derived.get("square_view")
    if squares is None:
        squares = derived["square_view"] = memoryview(square_prefix(spec))
    mean_sq = squares[k - 1] / k
    mean = sums[k - 1] / k
    sq = mean * mean    # bounds.mean_sq_envelope(d, mean) is (sq, coeff * sq)
    if form == "lower":
        big, small = mean_sq, sq
    else:
        big, small = bounds._mean_sq_coeff(spec.dimension) * sq, mean_sq
    return (big - small) / (big if big > 1.0 else 1.0)


#: per-spectrum {(k, sigma): moment} tables, alive while _sweep runs
_moment_memo: dict[Spectrum, dict] = {}


def _moment(spec, k, sigma):
    """The one mean of order sigma that ``riesz.means`` reports: sigma = 0
    denotes the geometric mean, -1 the harmonic mean.  Memoized per
    (k, sigma) while the spectrum is being swept, with the same bits."""
    table = _moment_memo.get(spec)
    if table is None:
        return _moment_value(spec, k, sigma)
    value = table.get((k, sigma))
    if value is None:
        value = table[k, sigma] = _moment_value(spec, k, sigma)
    return value


def _moment_value(spec, k, sigma):
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


# Validity gates of the margins that compute a catalog bound in place: the
# public bound at one point, whose value is not used.  A sweep runs a
# family's gate at the edge rows of its row groups (``_Points.edges``),
# where every later row of the group lies inside the same validity region;
# ``reevaluate`` runs it on the witness.

def _gate_eq224_ratio(spec, j, k):
    bounds.lambda_next_over_mean(spec.dimension, j, k)


def _gate_cor32_abhh(spec, k):
    bounds.abhh(spec.dimension, k)


def _gate_eq36_next(spec, k):
    bounds.abhh_next(spec.dimension, k)


def _gate_eq37_discrim(spec, k, form):
    bounds.mean_sq_envelope(spec.dimension, _mean(spec, k))


_GATES = {
    "eq224_ratio": _gate_eq224_ratio,
    "cor32_abhh": _gate_cor32_abhh,
    "eq36_next": _gate_eq36_next,
    "eq37_discrim": _gate_eq37_discrim,
}


def reevaluate(spec: Spectrum, check_id: str, witness: dict) -> float:
    """Recompute the margin for a reported witness tuple; an integer j or
    k outside the spectrum raises DomainError (the sweep makes none), and
    a witness outside the validity region of its family's bound raises
    ValidityError."""
    params = {k: v for k, v in witness.items() if k != "spectrum"}
    reads_next = check_id in ("eq224_ratio", "yang_simplified", "eq36_next")
    for key in ("j", "k"):
        top = len(spec.eigenvalues) - (key == "k" and reads_next)
        if bounds._whole(params.get(key)) and not 1 <= params[key] <= top:
            raise DomainError(f"{check_id}: {key} must be in 1..{top}, "
                              f"got {params[key]}")
    gate = _GATES.get(check_id)
    if gate is not None:
        gate(spec, **params)
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
    """The points of one check family, made one argument tuple at a time.

    ``rows`` is a zero-argument callable that returns a fresh iterable of
    tuples, the same sequence on every call; ``length`` is how many it
    yields.  A row holds the arguments of the family's margin function
    after the spectrum, in its parameter order, and ``names`` are their
    parameter names, so ``fn(spec, *row)`` and
    ``fn(spec, **dict(zip(names, row)))`` are the same call.  Rows made by
    a generator exist one at a time.  ``edges`` are the rows at which the
    family's validity gate (``_GATES``) runs before the first point: the
    first row of each row group.
    """

    __slots__ = ("_rows", "_length", "names", "edges")

    def __init__(self, rows, length: int, names: tuple[str, ...],
                 edges=()):
        self._rows = rows
        self._length = length
        self.names = names
        self.edges = edges

    def __len__(self):
        return self._length

    def __iter__(self):
        return iter(self._rows())

    def params(self, row) -> dict:
        """The keyword arguments of ``row``, in witness key order."""
        return dict(zip(self.names, row))


class _HoelderPoints(_Points):
    """``hoelder_chain`` rows, of two shapes: ``(form, z, None, sigma0,
    sigma1, sigma2)`` for the log-convexity form and ``(form, z, sigma)``
    for the two counting forms.  Each shape keeps its own witness key
    order."""

    __slots__ = ()

    KEYS = {"logconvex": ("form", "z", "sigma0", "sigma1", "sigma2"),
            "counting": ("form", "sigma", "z"),
            "counting2": ("form", "sigma", "z")}

    def params(self, row) -> dict:
        named = dict(zip(self.names, row))
        return {key: named[key] for key in self.KEYS[row[0]]}


def _sigma_z(sigmas, zs):
    return _Points(lambda: product(sigmas, zs), len(sigmas) * len(zs),
                   ("sigma", "z"))


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
    table = _riesz_memo.get(spec)
    if table is not None:
        for row in (zs, [z + 1e-6 * z for z in z_fd],
                    [z - 1e-6 * z for z in z_fd]):
            table.add_row(row)
    z_h = [(z, 1e-6 * z) for z in z_fd]

    def fd_points(sigmas):
        return _Points(lambda: ((s, z, h) for s in sigmas for z, h in z_h),
                       len(sigmas) * len(z_h), ("sigma", "z", "h"))

    out.append(("thm21_deriv1", "sigma in {1.5, 2}, central differences",
                fd_points([s for s in s_le2 if s >= 1.5])))
    out.append(("thm21_deriv2", "sigma > 2, central differences",
                fd_points([s for s in s_ge2 if s > 2])))

    pairs = list(zip(zs[:-1], zs[1:]))

    def pair_points(sigmas):
        return _Points(lambda: ((s, z1, z2)
                                for s in sigmas for z1, z2 in pairs),
                       len(sigmas) * len(pairs), ("sigma", "z1", "z2"))

    out.append(("thm21_mono1", f"sigma in {s_le2}, consecutive z pairs",
                pair_points(s_le2)))
    out.append(("thm21_mono2", f"sigma in {s_ge2}, consecutive z pairs",
                pair_points(s_ge2)))

    if spec.volume is not None:
        thr23 = [(s, (1 + 2 * s / d) * lam1) for s in s_ge2]

        def sandwich_rows():
            for s, thr in thr23:
                for z in zs:
                    yield s, z, "upper"
                    if z >= thr:
                        yield s, z, "lower"

        out.append(("cor23_sandwich",
                    f"sigma in {s_ge2}, upper all z, lower above threshold",
                    _Points(sandwich_rows,
                            sum(len(zs) + sum(z >= thr for z in zs)
                                for _, thr in thr23),
                            ("sigma", "z", "form"))))
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
                _Points(lambda: ((s, z, form) for s, form, above in lower26
                                 for z in above),
                        sum(len(above) for _, _, above in lower26),
                        ("sigma", "z", "form"))))

    out.append(("eq213_lower", "sigma >= 1 grid, all z",
                _sigma_z([s for s in cfg.sigma_grid if s >= 1], zs)))

    j_list = _index_list(n, cfg.j_count)
    z29 = [(j, [z for z in zs if z >= (1 + 4 / d) * _mean(spec, j)])
           for j in j_list]
    pts29 = _Points(lambda: ((j, z) for j, above in z29 for z in above),
                    sum(len(above) for _, above in z29), ("j", "z"))
    for check_id in ("cor29_r2", "cor29_r1", "cor29_counting"):
        out.append((check_id, f"j in {j_list}, z above (1+4/d) mean_j",
                    pts29))

    # rows of one index are made by zip, without a Python frame per row
    out.append(("eq224_ratio", f"j in {j_list}, all k in j..{n-1}",
                _Points(lambda: chain.from_iterable(
                            zip(repeat(j), range(j, n)) for j in j_list),
                        sum(max(0, n - j) for j in j_list), ("j", "k"),
                        edges=[(j, j) for j in j_list if j < n])))
    out.append(("yang_simplified", f"all k in 1..{n-1}",
                _Points(lambda: zip(range(1, n)), max(0, n - 1), ("k",))))

    # the random draws are made once, so every pass sees the same samples
    hoelder = []
    for _ in range(cfg.hoelder_samples):
        s0 = float(rng.uniform(0.0, 2.0))
        s2 = s0 + float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(0.05, 0.95))
        s1 = t * s0 + (1 - t) * s2
        hoelder.append(("logconvex", float(rng.choice(zs)), None,
                        s0, s1, s2))
    for s in (1.5, 2.0, 3.0):
        hoelder.extend(("counting", z, s) for z in zs[::5])
    for s in (2.0, 3.0, 5.0):
        hoelder.extend(("counting2", z, s) for z in zs[::5])
    out.append(("hoelder_chain", "random sigma triples + counting forms",
                _HoelderPoints(lambda: hoelder, len(hoelder),
                               ("form", "z", "sigma", "sigma0", "sigma1",
                                "sigma2"))))

    k_list = _index_list(n, cfg.k_count)
    k31 = [(j, [k for k in k_list if k >= j * (1 + d / 2) / (1 + d / 4)])
           for j in j_list]
    out.append(("cor31_mean_ratio", "(j, k) pairs above validity threshold",
                _Points(lambda: ((j, k) for j, ks in k31 for k in ks),
                        sum(len(ks) for _, ks in k31), ("j", "k"))))

    thresh = (d + 1) * (1 + d / 2) / (1 + d / 4)
    k_min = int(math.ceil(thresh))
    out.append(("cor32_abhh", f"k in {k_min}..{n}",
                _Points(lambda: zip(range(k_min, n + 1)),
                        max(0, n + 1 - k_min), ("k",),
                        edges=[(k_min,)] if k_min <= n else [])))
    out.append(("eq36_next", f"k in {k_min}..{n-1}",
                _Points(lambda: zip(range(k_min, n)), max(0, n - k_min),
                        ("k",), edges=[(k_min,)] if k_min < n else [])))

    # the gate at k = 1 covers every k: each later mean is positive, as the
    # eigenvalues are, and finite, as prefix_sums raises on overflow
    out.append(("eq37_discrim", "all k, both envelope sides",
                _Points(lambda: ((k, form) for k in range(1, n + 1)
                                 for form in ("lower", "upper")),
                        2 * n, ("k", "form"), edges=[(1, "lower")])))

    mk = [k for k in _index_list(n, cfg.moment_k_count) if k >= 2]
    orders = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0]
    order_pairs = list(zip(orders[:-1], orders[1:]))
    out.append(("moment_ordering", "consecutive power-mean orders",
                _Points(lambda: ((k, lo, hi)
                                 for k in mk for lo, hi in order_pairs),
                        len(mk) * len(order_pairs), ("k", "s_lo", "s_hi"))))
    triples = [(0.25, 0.5, 1.0), (0.5, 1.0, 2.0), (1.0, 1.5, 2.0),
               (0.5, 1.5, 2.0)]
    out.append(("moment_interpolation", "sampled (mu, sigma, tau) triples",
                _Points(lambda: ((k, a, b, c)
                                 for k in mk for a, b, c in triples),
                        len(mk) * len(triples),
                        ("k", "mu", "sigma", "tau"))))
    return out


#: rows whose margins ``_sweep`` computes into one array; 1,024 rows were
#: no faster and hold four times the row tuples at once
_CHUNK = 256


def _sweep(label: str, spec: Spectrum, cfg: VerifyConfig, n_z: int,
           ids=None):
    """Run margin sweeps on one spectrum, optionally restricted to ids.

    A family with a validity gate runs it at its edge rows before its
    first point.  Its margins are then computed ``_CHUNK`` rows at a time
    into one array.  Each family keeps its first row with the smallest
    margin and builds its witness dict once, from that row.  An
    ArithmeticError raises DomainError at once, naming the row that raised
    (its chunk is re-run row by row to find it).  A NaN margin is no
    verdict either, but it is raised only after the spectrum's other
    families are swept, so that it never hides such an error, which names
    the operation that failed.

    Returns {check_id: (grid, n_points, worst_margin, witness)}.
    """
    results = {}
    nan = None      # message for the first NaN margin
    _riesz_memo[spec] = _RieszTable(spec)
    _moment_memo[spec] = {}
    try:
        for check_id, grid, points in _build_points(spec, cfg, n_z):
            if ids is not None and check_id not in ids:
                continue
            margin = partial(MARGINS[check_id], spec)
            rows = iter(points)
            worst = math.inf
            best = row = None
            try:    # a float overflow or division by zero is no verdict
                for row in points.edges:
                    _GATES[check_id](spec, *row)
                while chunk := list(islice(rows, _CHUNK)):
                    try:
                        ms = np.fromiter(starmap(margin, chunk), float,
                                         len(chunk))
                    except ArithmeticError:
                        for row in chunk:   # find the row that raised
                            margin(*row)
                        raise
                    # the first NaN if there is one; the sweep then
                    # raises, so this family's minimum is never used
                    i = ms.argmin()
                    if ms[i] != ms[i]:
                        nan = nan or (f"{check_id} has a NaN margin on "
                                      f"{label!r} at "
                                      f"{points.params(chunk[i])}")
                    elif ms[i] < worst:
                        worst = float(ms[i])
                        best = chunk[i]
            except ArithmeticError as exc:
                raise DomainError(
                    f"{check_id} cannot be evaluated on {label!r} at "
                    f"{points.params(row)}: {exc!r}") from exc
            witness = {}
            if best is not None:
                witness = points.params(best)
                witness["spectrum"] = label
            results[check_id] = (grid, len(points), worst, witness)
    finally:
        _riesz_memo.pop(spec, None)
        _moment_memo.pop(spec, None)
    if nan is not None:
        raise DomainError(nan)
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
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")


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
