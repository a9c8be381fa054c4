"""Riesz means, counting function, eigenvalue averages, and the Legendre
transform of the first-order mean, all evaluated from a :class:`Spectrum`.

Counting is strict: N(z) = #{k : lambda_k < z}, matching the limit of
(z - lambda)_+^sigma as sigma decreases to 0.  Every evaluation point must
stay below the spectrum's completeness threshold.

Every exact sum over a spectrum (a Riesz mean or a grid of them, the mean
square, and ``power_mean`` of any order, geometric and harmonic included)
adds one term per run of equal eigenvalues, weighted by its multiplicity,
with the bits of ``math.fsum`` over all n terms (the kernels are in
:mod:`rieszbounds._kernels.pykernels`).  The runs (``_runs``) are cached
on the spectrum on its first sum, and so are the logs of the geometric
mean, one ``math.log`` per run.  A sum over the first k eigenvalues takes
the runs up to the one that holds eigenvalue k, that one counted only up
to k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, TruncationError
from .spectra import Spectrum

#: eigenvalues per ``math.log`` batch in ``means``
_LOG_CHUNK = 1 << 16


@dataclass(frozen=True)
class RieszEvaluation:
    """Value of R_sigma(z) with the number of contributing eigenvalues."""

    sigma: float
    z: float
    value: float
    contributing: int


@dataclass(frozen=True)
class MeanSet:
    """Arithmetic mean, mean square, and requested power means at index k."""

    k: int
    mean: float
    mean_sq: float
    power_means: dict[float, float] = field(default_factory=dict)
    geometric: float = 0.0
    harmonic: float = 0.0


def riesz_value(spec: Spectrum, sigma: float, z: float) -> tuple[float, int]:
    """Low-level R_sigma(z) as ``(value, count)``.

    Accepts any real sigma; for sigma < 0 the caller must keep z away from
    eigenvalues (the summand has a pole there).  Raises TruncationError for
    z above the completeness threshold, DomainError for a NaN sigma.
    """
    _check_z(spec, z)
    if math.isnan(sigma := float(sigma)):
        raise DomainError(f"sigma must be a number, got {sigma}")
    return _kernels.riesz_sum(_runs(spec), sigma, float(z))


def riesz_grid(spec: Spectrum, sigmas, zs) -> list[list[float]]:
    """``riesz_value(spec, s, z)[0]`` for each z of ``zs`` and each layer of
    ``sigmas``, bit for bit, one row per layer: the terms z - lambda of a
    batch of z are built once and raised to each layer.  A layer is one s
    for every z or one s per z.  The z values are checked by one array
    test (``_check_zs``), then the layers by ``_kernels.riesz_grid``."""
    zs = _check_zs(spec, zs)
    return _kernels.riesz_grid(_runs(spec), sigmas, zs)


def _check_zs(spec: Spectrum, zs) -> list[float]:
    """``zs`` as floats after one array test; the first z that fails it is
    checked again by ``_check_z``, which raises as ``riesz_value`` would."""
    values = np.array(zs, dtype=np.float64)
    ok = (values > 0) & (values <= spec.complete_below)
    if not ok.all():
        _check_z(spec, zs[int(np.argmin(ok))])
    return values.tolist()


def _check_z(spec: Spectrum, z: float) -> None:
    if z > spec.complete_below:
        raise TruncationError(
            f"z={z} exceeds completeness threshold {spec.complete_below}")
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")


def _finite(value: float, what: str, *args) -> float:
    """``value``, or DomainError naming ``what.format(*args)`` if it is not
    finite: a value that leaves the float range is an error, as in
    ``bounds.evaluate``.  The name is formatted only then."""
    if not math.isfinite(value):
        raise DomainError(f"{what.format(*args)} is {value}, outside the "
                          "float range")
    return value


def _or_inf(fn, *args) -> float:
    """``fn(*args)``, or inf where ``math.fsum`` overflows adding finite
    terms whose total leaves the float range."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def riesz_mean(spec: Spectrum, sigma: float, z: float) -> RieszEvaluation:
    """R_sigma(z) = sum (z - lambda_k)_+^sigma; sigma = 0 counts strictly.

    A value outside the float range raises DomainError."""
    if not sigma >= 0:
        raise DomainError(f"sigma must be nonnegative, got {sigma}")
    try:
        value, count = riesz_value(spec, sigma, z)
    except OverflowError:    # from math.fsum, as in _or_inf
        value, count = math.inf, 0
    _finite(value, "riesz_mean at sigma={}, z={}", sigma, z)
    return RieszEvaluation(sigma=float(sigma), z=float(z),
                           value=value, contributing=count)


def counting(spec: Spectrum, z: float) -> int:
    """Counting function N(z) = #{k : lambda_k < z} (strict)."""
    return riesz_value(spec, 0.0, z)[1]


def _cached(spec: Spectrum, name: str, compute):
    """``compute(spec.eigenvalues)``, an array or a tuple of arrays, made
    read-only and kept on the spectrum under ``name`` from its first use
    on."""
    value = spec._derived.get(name)
    if value is None:
        value = compute(spec.eigenvalues)
        for arr in value if isinstance(value, tuple) else (value,):
            arr.setflags(write=False)
        spec._derived[name] = value
    return value


def _runs(spec: Spectrum) -> _kernels.Runs:
    """Cached runs of equal eigenvalues (``_kernels.runs_of``)."""
    return _cached(spec, "runs", _kernels.runs_of)


def eigensum_prefix(spec: Spectrum):
    """Cached correctly rounded prefix sums of the eigenvalue list."""
    return _cached(spec, "eigensum_prefix", _kernels.prefix_sums)


def square_prefix(spec: Spectrum):
    """Cached correctly rounded prefix sums of the squared eigenvalues.

    ``square_prefix(spec)[k-1] / k`` is the mean square of the first k
    eigenvalues, equal to the exact (``math.fsum``) ``means(spec, k).mean_sq``.
    """
    return _cached(spec, "square_prefix",
                    lambda ev: _kernels.prefix_sums(np.power(ev, 2.0)))


def _check_index(spec: Spectrum, k: int) -> None:
    """DomainError unless k is an integer (an ``int`` or a numpy integer)
    with 1 <= k <= n."""
    n = len(spec.eigenvalues)
    try:
        index = operator.index(k)
    except TypeError:
        index = 0
    if not 1 <= index <= n:
        raise DomainError(f"k must be an integer in 1..{n}, got {k}")


def power_mean(spec: Spectrum, k: int, p: float) -> float:
    """Power mean of order p of the first k eigenvalues: geometric at p = 0,
    harmonic at p = -1, (sum lambda**p / k)**(1/p) for p in (0, 2]; any
    other p raises DomainError.  At p = -1 a reciprocal outside the float
    range (of a subnormal eigenvalue) raises OverflowError before any is
    taken, as ``math.fsum`` does on a sum of finite ones that leaves it."""
    _check_index(spec, k)
    runs = _runs(spec)
    if p == 0:
        return math.exp(_kernels.head_sum(
            runs, k, lambda values: _logs(spec)[:len(values)]) / k)
    if p == -1:
        if 1.0 / spec.lambda_1 == math.inf:
            raise OverflowError(f"1 / lambda_1 = 1 / {spec.lambda_1} is "
                                "outside the float range")
        return k / _kernels.head_sum(runs, k, lambda values: 1.0 / values)
    if not 0 < p <= 2:
        raise DomainError(f"power-mean order must be 0, -1 or in (0, 2], "
                          f"got {p}")
    return (_kernels.power_sum(runs, k, float(p)) / k) ** (1.0 / p)


def means(spec: Spectrum, k: int, sigma_list=()) -> MeanSet:
    """Mean, mean square, the power means of the orders in ``sigma_list``
    (0 and -1 among them give the geometric and harmonic means), and the
    geometric and harmonic means of the first k eigenvalues.

    Every power, geometric and harmonic mean is ``power_mean``'s, so a
    caller that needs one of them can compute just that one.  A field
    outside the float range raises DomainError.
    """
    _check_index(spec, k)
    mean = eigensum_prefix(spec)[k - 1] / k
    mean_sq = _finite(
        _or_inf(_kernels.power_sum, _runs(spec), k, 2.0) / k,
        "means at k={}: mean_sq", k)
    power = {float(sigma): _finite(_or_inf(power_mean, spec, k, sigma),
                                   "means at k={}: power mean of order {}",
                                   k, sigma)
             for sigma in sigma_list}
    try:
        harmonic = power_mean(spec, k, -1)
    except OverflowError:
        raise DomainError(f"means at k={k}: the sum of reciprocals behind "
                          "the harmonic mean is outside the float "
                          "range") from None
    return MeanSet(k=k, mean=mean, mean_sq=mean_sq, power_means=power,
                   geometric=power_mean(spec, k, 0),
                   harmonic=_finite(harmonic, "means at k={}: harmonic", k))


def _math_logs(values):
    out = np.empty(len(values))
    for start in range(0, len(values), _LOG_CHUNK):
        chunk = values[start:start + _LOG_CHUNK].tolist()
        out[start:start + len(chunk)] = list(map(math.log, chunk))
    return out


def _logs(spec: Spectrum):
    """Cached read-only ``math.log`` of each run's value, one per entry of
    ``_runs(spec).values``, filled in chunk by chunk.

    ``np.log`` can differ from ``math.log`` in the last bit, which would
    move the geometric mean.
    """
    return _cached(spec, "logs", lambda ev: _math_logs(_runs(spec).values))


def legendre_R1(spec: Spectrum, w: float) -> float:
    """Closed-form Legendre transform of R_1 at w:
    (w - [w]) * lambda_{[w]+1} + [w] * mean(lambda_1..lambda_[w]).  A value
    outside the float range raises DomainError."""
    if not w > 0:
        raise DomainError(f"w must be positive, got {w}")
    ev = spec.eigenvalues
    if not w < len(ev):
        raise DomainError(
            f"w={w} needs eigenvalue [w]+1, spectrum has {len(ev)}")
    m = int(math.floor(w))
    partial = eigensum_prefix(spec)[m - 1] if m >= 1 else 0.0
    value = (w - m) * float(ev[m]) + partial
    return _finite(value, "legendre_R1 at w={}", w)
