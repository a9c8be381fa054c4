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
  it compares, by ``riesz.power_mean`` as ``riesz.means`` does, and while
  one spectrum is swept each (k, order) is computed once: the moment memo
  is dropped with the Riesz memo when the sweep ends.
* While one spectrum is swept, R_sigma(z) values are read from a dict
  keyed by (sigma, z), dropped when that sweep ends.  ``_build_points``
  registers three grids of z with the sigma layers its families read
  there: the z grid and the rows z +- h with one sigma per layer, and the
  random Hoelder samples' z with three layers of one sigma per z.  Before
  the first family runs, the sweep sums each in one
  :func:`~rieszbounds.riesz.riesz_grid` pass: three in a default sweep,
  none where no family reads R_sigma(z).  A value on no grid, or on one
  whose sum overflows, is one ``riesz_value`` call, so the error names
  the check and point that meet it.  Every value has the bits of
  ``riesz_value``, so witness re-evaluation outside a sweep stays exact.

Points are streamed.  Each family states its points once, as row groups
(``_Points``): a group is constants, equal-length columns (lists or
``range``s) and trailing values, and its rows are the constants, one item
of each column, then each trailing value in turn.  A row holds the margin
function's arguments after the spectrum, in its parameter order, and the
witness names every argument that is not None, read from the signature.
The count, the validity-gate edges (the first row of each group) and the
rows all follow from the groups.  The sweep evaluates each group as
``map(fn, repeat(spec), *columns)``, its argument columns made by
``repeat``, ``cycle`` and ``chain`` (``_group_columns``), and takes the
margins ``_CHUNK`` at a time into one array by ``np.fromiter``: no tuple
is built per row and no Python frame runs between the calls, so
``fn(spec, *row)`` is still called once per point.  The witness row, and
the row named by an error, are rebuilt from their index in the family
(``points[i]``), and a keyword dict is made only once per family, for the
witness.  What a sweep holds therefore does not grow with the number of
points: the z grid, the per-parameter lists of z values that pass a
family's threshold, the random Hoelder samples, one chunk of margins, and
the spectrum's own O(n) arrays, where n is the number of eigenvalues; no
Python object is made per eigenvalue.  The ~16 n points of the index
families (eq224_ratio, yang_simplified, cor32_abhh, eq36_next,
eq37_discrim) are never stored.  The unit square below 1.3e7
(n = 1,033,365; 16.1 M genuine points and 8.3 M control points) is
verified by ``benchmarks/bench_verify_scale.py`` with a peak RSS of about
140 MB.

A corrupted-spectrum negative control is part of the standard suite: the
suite is only green if the genuine checks pass *and* the corrupted twin
fails at least one check (guarding against vacuously true sweeps).  Its
count of checks takes only those with points on the twin.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator
from dataclasses import dataclass, field, asdict, replace
from itertools import chain, cycle, groupby, repeat

import numpy as np

from . import bounds, riesz, spectra
from .errors import (ConfigError, DomainError, ResourceLimitError,
                     ValidityError)
from .riesz import eigensum_prefix, riesz_grid, riesz_value, square_prefix
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
    """Outcome of one inequality id swept over all spectra and grids.

    ``passed`` is None for a check with no points on any spectrum: it does
    not apply, and reads ``N/A`` in text and null in JSON."""

    id: str
    grid: str
    n_points: int
    passed: bool | None
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
        return (all(c.passed is not False for c in self.checks)
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
            status = {True: "PASS", False: "FAIL", None: "N/A"}[c.passed]
            lines.append(f"{c.id:24s} {c.n_points:8d} {status:>6s} "
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


def _riesz_table(spec, grids):
    """{(sigma, z): R_sigma(z)} on each grid ``(sigma layers, zs)``, summed
    in one ``riesz_grid`` pass; a grid whose pass raises ArithmeticError
    (a sum overflows) is left out, to be read value by value."""
    table = {}
    for layers, zs in grids:
        try:
            rows = riesz_grid(spec, layers, zs)
        except ArithmeticError:
            continue
        for sigma, row in zip(layers, rows):
            sigmas = sigma if np.ndim(sigma) else repeat(sigma)
            table.update(zip(zip(sigmas, zs), row))
    return table


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
    """R_sigma(z), read from the sweep's table of summed grids while the
    spectrum is being swept.  A key the table lacks, and every call
    outside a sweep, is one ``riesz_value`` call, kept in the table; a
    summed value has the bits that ``riesz_value`` returns."""
    table = _riesz_memo.get(spec, {})
    value = table.get((sigma, z))
    if value is None:
        value = table[sigma, z] = riesz_value(spec, sigma, z)[0]
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
    if form == "lower":
        lb = bounds.riesz_lower_main(sigma, d, spec.lambda_1, z)
        return _margin(rs, lb)
    raise DomainError(f"cor23_sandwich: unknown form {form!r}")


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
    if form == "chain":
        # middle link of the sigma = 1 chain: (1 + d/4) R_2(z)/z >= lb
        mid = (1 + d / 4) * _riesz(spec, 2.0, z) / z
        return _margin(mid, lb)
    raise DomainError(f"cor26_lower: unknown form {form!r}")


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


def margin_hoelder_chain(spec, form, sigma=None, z=None, sigma0=None,
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
    if form == "counting2":    # sigma >= 2 counting bound
        rs = _riesz(spec, sigma, z)
        lb = ((d + 2 * sigma) / (2 * sigma)) ** sigma * z ** (-sigma) * rs
        return _margin(_riesz(spec, 0.0, z), lb)
    raise DomainError(f"hoelder_chain: unknown form {form!r}")


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
    elif form == "upper":
        big, small = bounds._mean_sq_coeff(spec.dimension) * sq, mean_sq
    else:
        raise DomainError(f"eq37_discrim: unknown form {form!r}")
    return (big - small) / (big if big > 1.0 else 1.0)


#: per-spectrum {(k, sigma): moment} tables, alive while _sweep runs
_moment_memo: dict[Spectrum, dict] = {}


def _moment(spec, k, sigma):
    """``riesz.power_mean(spec, k, sigma)``: sigma = 0 denotes the
    geometric mean, -1 the harmonic mean.  Memoized per (k, sigma) while
    the spectrum is being swept, with the same bits."""
    table = _moment_memo.get(spec, {})
    value = table.get((k, sigma))
    if value is None:
        value = table[k, sigma] = riesz.power_mean(spec, k, sigma)
    return value


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


#: parameter names of each margin function after the spectrum, read before
#: anything can replace a ``MARGINS`` entry
_NAMES = {check_id: tuple(inspect.signature(fn).parameters)[1:]
          for check_id, fn in MARGINS.items()}

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


#: the parameters that each form of hoelder_chain reads; the others are None
_HOELDER_KEYS = {"logconvex": ("z", "sigma0", "sigma1", "sigma2"),
                 "counting": ("sigma", "z"), "counting2": ("sigma", "z")}
#: the sigmas at which the sweep checks each counting form of hoelder_chain
_HOELDER_COUNTING = {"counting": (1.5, 2.0, 3.0),
                     "counting2": (2.0, 3.0, 5.0)}


def reevaluate(spec: Spectrum, check_id: str, witness: dict) -> float:
    """Recompute the margin for a reported witness tuple.

    An unknown check id, a witness that lacks a parameter of the margin
    or names one it does not have (besides ``spectrum``), and a form that
    the family does not have raise DomainError naming the check and the
    key.  j and k must be integers (``operator.index``): an integral value
    of another type, such as 3.0, or a non-number raises DomainError, as
    does an integer outside the spectrum (the sweep makes none); a
    non-integral number, like any witness outside the validity region of
    its family's bound, raises ValidityError.  A margin that is NaN or
    whose arithmetic raises is no verdict, as in the sweep: DomainError."""
    if check_id not in MARGINS:
        raise DomainError(f"unknown check id {check_id!r}")
    params = {k: v for k, v in witness.items() if k != "spectrum"}
    keys = _NAMES[check_id]
    if check_id == "hoelder_chain" and "form" in params:
        form = params["form"]
        if form not in _HOELDER_KEYS:
            raise DomainError(f"hoelder_chain: unknown form {form!r}")
        keys = ("form",) + _HOELDER_KEYS[form]
    for key in keys:
        if key not in params:
            raise DomainError(f"{check_id}: witness lacks {key!r}")
    for key in params:
        if key not in keys:
            raise DomainError(f"{check_id}: unexpected witness key {key!r}")
    reads_next = check_id in ("eq224_ratio", "yang_simplified", "eq36_next")
    for key in ("j", "k"):
        if key not in params:
            continue
        value = params[key]
        try:
            index = operator.index(value)
        except TypeError:
            error = (ValidityError if isinstance(value, numbers.Real)
                     and not bounds._whole(value) else DomainError)
            raise error(f"{check_id}: {key} must be an integer, "
                        f"got {value!r}") from None
        top = len(spec.eigenvalues) - (key == "k" and reads_next)
        if not 1 <= index <= top:
            raise DomainError(f"{check_id}: {key} must be in 1..{top}, "
                              f"got {value}")
    gate = _GATES.get(check_id)
    try:
        if gate is not None:
            gate(spec, **params)
        margin = MARGINS[check_id](spec, **params)
    except ArithmeticError as exc:
        raise DomainError(f"{check_id} cannot be evaluated at {params}: "
                          f"{exc!r}") from exc
    if margin != margin:
        raise DomainError(f"{check_id} has a NaN margin at {params}")
    return margin


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
    """The points of one check family, stated once as row groups.

    A group is ``(constants, columns, trailing)``: its rows are the
    constants, then one item from each of the equal-length ``columns``
    (lists or ``range``s), then each ``trailing`` value in turn.  A row
    holds the arguments of the family's margin function after the
    spectrum, in its parameter order, and ``names`` are those parameters
    (``_NAMES``), so ``fn(spec, *row)`` and ``fn(spec, **params(row))``
    are the same call.  The length, the ``edges`` (the first row of each
    group, where the family's validity gate runs) and the rows all follow
    from the groups.  ``_group_columns`` gives a group's rows as argument
    columns, made by ``repeat``, ``cycle`` and ``chain``, without a Python
    frame per row; ``points[i]`` rebuilds row i from its group and its
    index there.
    """

    __slots__ = ("groups", "names")

    def __init__(self, check_id: str, groups):
        self.groups = groups
        self.names = _NAMES[check_id]

    def __len__(self):
        return sum(len(cols[0]) * (len(trailing) or 1)
                   for _, cols, trailing in self.groups)

    def __iter__(self):
        return chain.from_iterable(
            zip(*_group_columns(*group)) for group in self.groups)

    def __getitem__(self, i):
        for consts, cols, trailing in self.groups:
            each = len(trailing) or 1
            if i < len(cols[0]) * each:
                return (*consts, *(col[i // each] for col in cols),
                        *trailing[i % each:i % each + 1])
            i -= len(cols[0]) * each
        raise IndexError("row index out of range")

    @property
    def edges(self):
        return [(*consts, *(col[0] for col in cols), *trailing[:1])
                for consts, cols, trailing in self.groups if cols[0]]

    def params(self, row) -> dict:
        """The arguments of ``row`` that are not None, by name: its
        witness."""
        return {k: v for k, v in zip(self.names, row) if v is not None}


def _group_columns(consts, cols, trailing):
    """The rows of a group as argument columns, one iterator per parameter
    in parameter order."""
    if len(trailing) > 1:   # each column item once per trailing value
        cols = [chain.from_iterable(zip(*repeat(col, len(trailing))))
                for col in cols]
    return [*map(repeat, consts), *cols,
            *([cycle(trailing)] if trailing else [])]


def _build_points(spec: Spectrum, cfg: VerifyConfig, n_z: int, grids=None):
    """``[(check_id, grid, points)]`` of every family on ``spec``; each
    grid of z that the families read R_sigma(z) on is appended to the list
    ``grids``, if given, as ``(sigma layers, zs)``."""
    d = spec.dimension
    lam1 = spec.lambda_1
    n = len(spec)
    zs = z_grid(spec, cfg, n_z)
    s_le2 = [s for s in cfg.sigma_grid if 0 < s <= 2]
    s_ge2 = [s for s in cfg.sigma_grid if s >= 2]
    rng = np.random.default_rng(cfg.seed)
    out = []

    def add(check_id, grid, groups):
        out.append((check_id, grid, _Points(check_id, groups)))

    add("thm21_diff1", f"sigma in {s_le2}, {n_z} log z points",
        [((s,), (zs,), ()) for s in s_le2])
    add("thm21_diff2", f"sigma in {s_ge2}, {n_z} log z points",
        [((s,), (zs,), ()) for s in s_ge2])

    # central differences: z whose step h stays clear of eigenvalues and
    # below the completeness threshold
    z_arr = np.array(zs)
    clear = ((_nearest_gap(spec.eigenvalues, z_arr) > 10 * (1e-6 * z_arr))
             & (z_arr + 1e-6 * z_arr <= spec.complete_below))
    z_fd = [z for z, ok in zip(zs, clear.tolist()) if ok]
    if grids is not None:
        # the sigmas that the families read on each row: on the grid each
        # grid sigma, each sigma - 1 of the difference families, the fixed
        # sigmas of cor26, cor29 and the Hoelder counting forms; the
        # central differences read the grid sigmas >= 1.5 at z +- h
        sigma_fd = [s for s in cfg.sigma_grid if s >= 1.5]
        on_grid = {*cfg.sigma_grid, 0.0, 1.0, 2.0,
                   *(s - 1.0 for s in cfg.sigma_grid if s > 0),
                   *_HOELDER_COUNTING["counting2"],
                   *chain.from_iterable(
                       (s, s - 1.0) for s in _HOELDER_COUNTING["counting"])}
        grids.append((sorted(on_grid), zs))
        grids.append((sigma_fd, [z + 1e-6 * z for z in z_fd]
                       + [z - 1e-6 * z for z in z_fd]))
    h_fd = [1e-6 * z for z in z_fd]
    add("thm21_deriv1", "sigma in {1.5, 2}, central differences",
        [((s,), (z_fd, h_fd), ()) for s in s_le2 if s >= 1.5])
    add("thm21_deriv2", "sigma > 2, central differences",
        [((s,), (z_fd, h_fd), ()) for s in s_ge2 if s > 2])

    add("thm21_mono1", f"sigma in {s_le2}, consecutive z pairs",
        [((s,), (zs[:-1], zs[1:]), ()) for s in s_le2])
    add("thm21_mono2", f"sigma in {s_ge2}, consecutive z pairs",
        [((s,), (zs[:-1], zs[1:]), ()) for s in s_ge2])

    if spec.volume is not None:
        sandwich = []
        for s in s_ge2:
            # the lower side at each z that passes the threshold, tested z
            # by z: a nudged grid point may pass its successor
            thr = (1 + 2 * s / d) * lam1
            sandwich += [((s,), (list(run),),
                          ("upper", "lower") if above else ("upper",))
                         for above, run in groupby(zs, lambda z: z >= thr)]
        add("cor23_sandwich",
            f"sigma in {s_ge2}, upper all z, lower above threshold", sandwich)
    add("aizenman_lieb_ratio", f"sigma in {s_ge2}, {n_z} z points",
        [((s,), (zs,), ()) for s in s_ge2])

    lower26 = []
    for s in [x for x in cfg.sigma_grid if x < 2] + [0.0]:
        thr = (1 + (2 * s + 2) / d) * lam1 if s >= 1 \
            else (1 + (2 * s + 4) / d) * lam1
        lower26.append(((s,), ([z for z in zs if z >= thr],), ("direct",)))
    chain_thr = (1 + 4 / d) * lam1
    lower26.append(((1.0,), ([z for z in zs if z >= chain_thr],), ("chain",)))
    add("cor26_lower", "sigma < 2 incl. counting form, z above regime "
        "thresholds", lower26)

    add("eq213_lower", "sigma >= 1 grid, all z",
        [((s,), (zs,), ()) for s in cfg.sigma_grid if s >= 1])

    j_list = _index_list(n, cfg.j_count)
    z29 = []
    for j in j_list:
        thr = (1 + 4 / d) * _mean(spec, j)
        z29.append(((j,), ([z for z in zs if z >= thr],), ()))
    for check_id in ("cor29_r2", "cor29_r1", "cor29_counting"):
        add(check_id, f"j in {j_list}, z above (1+4/d) mean_j", z29)

    add("eq224_ratio", f"j in {j_list}, all k in j..{n-1}",
        [((j,), (range(j, n),), ()) for j in j_list])
    add("yang_simplified", f"all k in 1..{n-1}", [((), (range(1, n),), ())])

    # the random draws are made once, so every pass sees the same samples
    logconvex = ([], [], [], [])    # z, sigma0, sigma1, sigma2
    for _ in range(cfg.hoelder_samples):
        s0 = float(rng.uniform(0.0, 2.0))
        s2 = s0 + float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(0.05, 0.95))
        s1 = t * s0 + (1 - t) * s2
        z = float(rng.choice(z_arr))
        for col, x in zip(logconvex, (z, s0, s1, s2)):
            col.append(x)
    if grids is not None:    # one layer per sigma of the triples
        grids.append((logconvex[1:], logconvex[0]))
    add("hoelder_chain", "random sigma triples + counting forms",
        [(("logconvex", None), logconvex, ())]
        + [((form, s), (zs[::5],), ())
           for form, sigmas in _HOELDER_COUNTING.items() for s in sigmas])

    k_list = _index_list(n, cfg.k_count)
    add("cor31_mean_ratio", "(j, k) pairs above validity threshold",
        [((j,), ([k for k in k_list if k >= j * (1 + d / 2) / (1 + d / 4)],),
          ()) for j in j_list])

    thresh = (d + 1) * (1 + d / 2) / (1 + d / 4)
    k_min = int(math.ceil(thresh))
    add("cor32_abhh", f"k in {k_min}..{n}", [((), (range(k_min, n + 1),), ())])
    add("eq36_next", f"k in {k_min}..{n-1}", [((), (range(k_min, n),), ())])

    # the gate at k = 1 covers every k: each later mean is positive, as the
    # eigenvalues are, and finite, as prefix_sums raises on overflow
    add("eq37_discrim", "all k, both envelope sides",
        [((), (range(1, n + 1),), ("lower", "upper"))])

    mk = [k for k in _index_list(n, cfg.moment_k_count) if k >= 2]
    orders = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0]
    add("moment_ordering", "consecutive power-mean orders",
        [((k,), (orders[:-1], orders[1:]), ()) for k in mk])
    triples = [(0.25, 0.5, 1.0), (0.5, 1.0, 2.0), (1.0, 1.5, 2.0),
               (0.5, 1.5, 2.0)]
    add("moment_interpolation", "sampled (mu, sigma, tau) triples",
        [((k,), list(zip(*triples)), ()) for k in mk])
    return out


#: rows whose margins ``_sweep`` computes into one array (1,024 rows were
#: no faster)
_CHUNK = 256


def _sweep(label: str, spec: Spectrum, cfg: VerifyConfig, ids=None):
    """Run margin sweeps on one spectrum, optionally restricted to ids,
    on a grid of ``cfg.z_points`` z values.

    The sweep builds the points, sums the Riesz grids into the spectrum's
    table (see the module docstring), then runs the families.  A family
    with a validity gate runs it at its edge rows before its first point.
    Its margins are then computed ``_CHUNK`` rows at a time into one
    array.  Each family keeps its first row with the smallest margin and
    builds its witness dict once, from that row.  An ArithmeticError
    raises DomainError at once, naming the row that raised (its chunk is
    re-run row by row to find it).  A NaN margin is no verdict either, but
    it is raised only after the spectrum's other families are swept, so
    that it never hides such an error, which names the operation that
    failed.

    Returns {check_id: (grid, n_points, worst_margin, witness)}.
    """
    results = {}
    nan = None      # message for the first NaN margin
    grids = []
    _riesz_memo[spec] = {}
    _moment_memo[spec] = {}
    try:
        families = [f for f in _build_points(spec, cfg, cfg.z_points, grids)
                    if ids is None or f[0] in ids]
        if any({"z", "z1"} & {*_NAMES[f[0]]} for f in families):
            _riesz_memo[spec] = _riesz_table(spec, grids)
        for check_id, grid, points in families:
            fn = MARGINS[check_id]
            margins = chain.from_iterable(
                map(fn, repeat(spec), *_group_columns(*group))
                for group in points.groups)
            n_points = len(points)
            worst = math.inf
            best = row = None
            gate = _GATES.get(check_id)
            try:    # a float overflow or division by zero is no verdict
                if gate is not None:
                    for row in points.edges:
                        gate(spec, *row)
                for start in range(0, n_points, _CHUNK):
                    size = min(_CHUNK, n_points - start)
                    try:
                        ms = np.fromiter(margins, float, size)
                    except ArithmeticError:
                        # find the row that raised
                        for row in map(points.__getitem__,
                                       range(start, start + size)):
                            fn(spec, *row)
                        raise
                    # the first NaN if there is one; the sweep then
                    # raises, so this family's minimum is never used
                    i = ms.argmin()
                    if ms[i] != ms[i]:
                        nan = nan or (f"{check_id} has a NaN margin on "
                                      f"{label!r} at "
                                      f"{points.params(points[start + i])}")
                    elif ms[i] < worst:
                        worst = float(ms[i])
                        best = start + int(i)
            except ArithmeticError as exc:
                raise DomainError(
                    f"{check_id} cannot be evaluated on {label!r} at "
                    f"{points.params(row)}: {exc!r}") from exc
            witness = {}
            if best is not None:
                witness = points.params(points[best])
                witness["spectrum"] = label
            results[check_id] = (grid, n_points, worst, witness)
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
    for label, spec in specs.items():
        for check_id, res in _sweep(label, spec, cfg, ids=ids).items():
            merged.setdefault(check_id, []).append(res)

    checks = []
    for check_id, parts in merged.items():
        n_points = sum(p[1] for p in parts)
        nonempty = [p for p in parts if p[1] > 0]
        if nonempty:
            grid, _, worst, witness = min(nonempty, key=lambda p: p[2])
        else:
            grid, worst, witness = parts[0][0], math.inf, {}
        checks.append(CheckResult(
            id=check_id, grid=grid, n_points=n_points,
            passed=bool(worst >= -SLACK) if n_points else None,
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
    can check it before building any spectrum: every count is an integer,
    the two z grids have 2 to MAX_Z_POINTS points and the other counts
    are at least 0."""
    for name in ("z_points", "control_z_points", "j_count", "k_count",
                 "hoelder_samples", "moment_k_count", "control_j_count"):
        value = getattr(cfg, name)
        try:
            operator.index(value)
        except TypeError:
            raise ConfigError(
                f"{name} must be an integer, got {value!r}") from None
        least = 2 if name.endswith("z_points") else 0
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
        if least and value > MAX_Z_POINTS:
            raise ResourceLimitError(
                f"{name}={value} exceeds cap {MAX_Z_POINTS}")
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
        res = _sweep(f"control:{label}", twin, ctl_cfg)
        n_failed = sum(1 for _, npts, worst, _ in res.values()
                       if npts > 0 and worst < -SLACK)
        n_checks = sum(1 for _, npts, _, _ in res.values() if npts > 0)
        controls.append({"spectrum": label, "n_checks": n_checks,
                         "n_failed": n_failed})

    return VerificationReport(checks=checks, controls=controls, config=cfg)
