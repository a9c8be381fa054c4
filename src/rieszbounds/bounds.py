"""Catalog of closed-form spectral bounds and constants.

Every bound is a named, citable evaluation rule with a hard validity gate:
evaluating outside the stated region raises ``ValidityError`` rather than
returning a silently meaningless number.  Each gate is written as
``not limit <= x < inf``, so NaN and +inf fail it, and a dimension or
index must be a finite integer.  Formulas are well-defined for any
dimension, but a dimension above ``MAX_CHECKED_DIMENSION`` is rejected:
the memo pins and closed-form tests cover d = 1..10 only.

The Riesz and counting families of :mod:`~rieszbounds.verify` evaluate a
bound once per point, so its gates are cheap for the plain ``int``
dimensions and indices that points carry: such a dimension in the checked
range, and such an index, pass without a conversion.  (The index families
run a bound's gates once per family and compute its closed form
themselves, from the memos below.)  What depends only on the dimension is
computed once: the
coefficients and thresholds of ``abhh``, ``abhh_next``, ``mean_ratio`` and
``mean_sq_envelope`` per d, ``L_cl`` per ``(sigma, d)`` and
:func:`~rieszbounds.specfun.gamma` per argument.  Each memo is bounded
and stores only values, never an exception.  Each bound
still multiplies its coefficient by ``k ** (2 / d)`` (or its other variable
factor) in the association order of the closed form, so every value has
the bits of the formula written out in full.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache

from . import specfun
from .errors import ValidityError

MAX_CHECKED_DIMENSION = 10

#: entries per memo of a per-dimension constant
_MEMO_SIZE = 256


def _whole(x) -> bool:
    """True for a finite integral value; NaN, infinities and None not.

    A plain ``int``, as every index of a verification point is, passes at
    once; anything else, ``bool`` and ``float`` included, is converted.
    """
    if type(x) is int:
        return True
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def _check_dim(d):
    """``int(d)`` for a finite integer d in 1..MAX_CHECKED_DIMENSION, else
    ValidityError.  An ``int`` in that range passes at once."""
    if type(d) is int and 1 <= d <= MAX_CHECKED_DIMENSION:
        return d
    if not (d >= 1 and _whole(d)):
        raise ValidityError(f"dimension must be a positive integer, got {d}")
    if not d <= MAX_CHECKED_DIMENSION:
        raise ValidityError(
            f"d={d} exceeds the checked range 1..{MAX_CHECKED_DIMENSION}")
    return int(d)


def _check_dim_k(d, k):
    """``_check_dim(d)``, then ValidityError unless 1 <= k < inf."""
    d = _check_dim(d)
    if not 1 <= k < math.inf:
        raise ValidityError(f"k must be >= 1, got {k}")
    return d


# ---------------------------------------------------------------------------
# constants

@lru_cache(maxsize=None)
def first_zero_sq(nu: float) -> float:
    """j_{nu,1}^2, cached."""
    return specfun.bessel_zero(nu, 1).value ** 2


@lru_cache(maxsize=None)
def H_d(d: int) -> float:
    """Chiti-type constant 2d / (j_{d/2-1,1}^2 J_{d/2}^2(j_{d/2-1,1}))."""
    d = _check_dim(d)
    j0 = specfun.bessel_zero(d / 2 - 1, 1).value
    return 2.0 * d / (j0 * j0 * specfun.bessel_j(d / 2, j0) ** 2)


@lru_cache(maxsize=_MEMO_SIZE)
def L_cl(sigma: float, d: int) -> float:
    """Semiclassical constant Gamma(s+1) / ((4 pi)^{d/2} Gamma(s+1+d/2)),
    memoized per (sigma, d)."""
    if not 0 <= sigma < math.inf:
        raise ValidityError(f"sigma must be nonnegative, got {sigma}")
    return (specfun.gamma(sigma + 1)
            / ((4 * math.pi) ** (d / 2) * specfun.gamma(sigma + 1 + d / 2)))


def weyl_coeff(d: int, volume: float) -> float:
    """Leading Weyl coefficient 4 pi Gamma(1+d/2)^{2/d} / |Omega|^{2/d}."""
    d = _check_dim(d)
    if not 0 < volume < math.inf:
        raise ValidityError("volume must be positive")
    return 4 * math.pi * specfun.gamma(1 + d / 2) ** (2 / d) / volume ** (2 / d)


@lru_cache(maxsize=None)
def fk_coeff(d: int) -> float:
    """Faber-Krahn/Weyl ratio coefficient 4 Gamma(1+d/2)^{4/d} / j_{d/2-1,1}^2."""
    d = _check_dim(d)
    return 4 * specfun.gamma(1 + d / 2) ** (4 / d) / first_zero_sq(d / 2 - 1)


@lru_cache(maxsize=None)
def ab_ratio(d: int) -> float:
    """Base ratio j_{d/2,1}^2 / j_{d/2-1,1}^2 of the eigenvalue-doubling bound."""
    d = _check_dim(d)
    return first_zero_sq(d / 2) / first_zero_sq(d / 2 - 1)


# ---------------------------------------------------------------------------
# bounds on eigenvalue ratios and means

def _ab_power(d, m):
    """ab_ratio(d)^m, or ValidityError once it leaves the float range."""
    try:
        return ab_ratio(d) ** m
    except OverflowError:
        raise ValidityError(
            f"ab94 power overflows: ab_ratio({d})^m exceeds the float "
            f"range at m={m}") from None


def ab94(d, m):
    """lambda_{2^m}/lambda_1 <= (j_{d/2,1}^2/j_{d/2-1,1}^2)^m."""
    d = _check_dim(d)
    if not (m >= 0 and _whole(m)):
        raise ValidityError(f"m must be a nonnegative integer, got {m}")
    return _ab_power(d, m)


def ab94_avg(d, k):
    """Averaged doubling expression at general k, using m = ceil(log2 k).

    A comparison expression for mean_k/lambda_1, not a bound on it: at
    k = 1 its value 1/(1 + 2/d) is below mean_1/lambda_1 = 1."""
    d = _check_dim_k(d, k)
    m = math.ceil(math.log2(k)) if k > 1 else 0
    return _ab_power(d, m) / (1 + 2 / d)


def her1(d, k):
    """lambda_{k+1}/lambda_1 <= 1 + (1+d/2)^{2/d} H_d^{2/d} k^{2/d}."""
    d = _check_dim_k(d, k)
    return 1 + (1 + d / 2) ** (2 / d) * H_d(d) ** (2 / d) * k ** (2 / d)


def her2(d, k):
    """mean(lambda_1..lambda_k)/lambda_1 <= 1 + H_d^{2/d} k^{2/d} / (1+2/d)."""
    d = _check_dim_k(d, k)
    return 1 + H_d(d) ** (2 / d) / (1 + 2 / d) * k ** (2 / d)


def cheng_yang(d, k):
    """lambda_{k+1}/lambda_1 <= (1 + 4/d) k^{2/d}."""
    d = _check_dim_k(d, k)
    return (1 + 4 / d) * k ** (2 / d)


def cheng_yang2(d, k):
    """Refined ratio bound, valid for k >= d + 1."""
    d = _check_dim(d)
    if not d + 1 <= k < math.inf:
        raise ValidityError(f"requires k >= d+1 = {d+1}, got k={k}")
    return ((1 + 4 / d)
            * math.sqrt(1 + 8 / (d + 1) + 8 / (d + 1) ** 2)
            * (d + 1) ** (-2 / d) * k ** (2 / d))


def cheng_yang2_avg(d, k):
    """Averaged refined ratio bound (division by 1 + 2/d)."""
    return cheng_yang2(d, k) / (1 + 2 / d)


def fk_weyl(d, k):
    """Asymptotic ratio expression 4 Gamma(1+d/2)^{4/d} k^{2/d} / j_{d/2-1,1}^2."""
    d = _check_dim_k(d, k)
    return fk_coeff(d) * k ** (2 / d)


def fk_weyl_avg(d, k):
    """Averaged asymptotic ratio expression."""
    return fk_weyl(d, k) / (1 + 2 / d)


def berezin_li_yau(d, volume, k):
    """Lower bound on mean(lambda_1..lambda_k)."""
    d = _check_dim_k(d, k)
    return weyl_coeff(d, volume) * k ** (2 / d) / (1 + 2 / d)


# ---------------------------------------------------------------------------
# bounds on Riesz means and the counting function

def riesz_upper(sigma, d, volume, z):
    """Upper bound L_cl(sigma, d) |Omega| z^{sigma + d/2} for sigma >= 2."""
    d = _check_dim(d)
    if not 2 <= sigma < math.inf:
        raise ValidityError(f"requires sigma >= 2, got {sigma}")
    if not 0 < volume < math.inf:
        raise ValidityError("volume must be positive")
    if not 0 <= z < math.inf:
        raise ValidityError("z must be nonnegative")
    return L_cl(sigma, d) * volume * z ** (sigma + d / 2)


def riesz_lower_main(sigma, d, lam1, z):
    """Lower bound (2s/d)^s lam1^{-d/2} (z/(1+2s/d))^{s+d/2}, sigma >= 2,
    valid for z >= (1 + 2 sigma/d) lam1."""
    d = _check_dim(d)
    if not 2 <= sigma < math.inf:
        raise ValidityError(f"requires sigma >= 2, got {sigma}")
    if not 0 < lam1 < math.inf:
        raise ValidityError("lam1 must be positive")
    threshold = (1 + 2 * sigma / d) * lam1
    if not threshold <= z < math.inf:
        raise ValidityError(f"requires z >= {threshold}, got {z}")
    return ((2 * sigma / d) ** sigma * lam1 ** (-d / 2)
            * (z / (1 + 2 * sigma / d)) ** (sigma + d / 2))


def riesz_lower_sub2(sigma, d, lam1, z):
    """Lower bounds on R_sigma for 0 <= sigma < 2, with their thresholds."""
    d = _check_dim(d)
    if not 0 < lam1 < math.inf:
        raise ValidityError("lam1 must be positive")
    if not 0 <= sigma < 2:
        raise ValidityError(f"requires 0 <= sigma < 2, got {sigma}")
    if sigma >= 1:
        threshold = (1 + (2 * sigma + 2) / d) * lam1
        if not threshold <= z < math.inf:
            raise ValidityError(f"requires z >= {threshold}, got {z}")
        return ((2 * sigma + 2) ** sigma * d ** (d / 2)
                / (d + 2 * sigma + 2) ** (sigma + d / 2)
                * lam1 ** (-d / 2) * z ** (sigma + d / 2))
    threshold = (1 + (2 * sigma + 4) / d) * lam1
    if not threshold <= z < math.inf:
        raise ValidityError(f"requires z >= {threshold}, got {z}")
    return ((1 + d / 4) * (2 * sigma + 4) ** (sigma + 1) * d ** (d / 2)
            / (d + 2 * sigma + 4) ** (sigma + 1 + d / 2)
            * lam1 ** (-d / 2) * z ** (sigma + d / 2))


def riesz_lower_hermi(sigma, d, lam1, z):
    """Lower bound H_d^{-1} lam1^{-d/2} B(sigma, d) (z - lam1)_+^{sigma+d/2},
    sigma >= 1, with B the Beta-type Gamma ratio."""
    d = _check_dim(d)
    if not 1 <= sigma < math.inf:
        raise ValidityError(f"requires sigma >= 1, got {sigma}")
    if not 0 < lam1 < math.inf:
        raise ValidityError("lam1 must be positive")
    if not z < math.inf:
        raise ValidityError("z must not be NaN or +inf")
    gap = max(z - lam1, 0.0)
    return (H_d(d) ** -1 * lam1 ** (-d / 2)
            * specfun.gamma(1 + sigma) * specfun.gamma(1 + d / 2)
            / specfun.gamma(1 + sigma + d / 2)
            * gap ** (sigma + d / 2))


def counting_lower(d, lam1, z):
    """N(z) >= (z / ((1+4/d) lam1))^{d/2}, valid z >= (1+4/d) lam1."""
    return counting_lower_j(d, 1, lam1, z)


def counting_lower_j(d, j, mean_j, z):
    """N(z) >= j (z / ((1+4/d) mean_j))^{d/2}, valid z >= (1+4/d) mean_j."""
    d = _check_dim(d)
    if not (j >= 1 and _whole(j)):
        raise ValidityError(f"j must be a positive integer, got {j}")
    if not 0 < mean_j < math.inf:
        raise ValidityError("mean_j must be positive")
    threshold = (1 + 4 / d) * mean_j
    if not threshold <= z < math.inf:
        raise ValidityError(f"requires z >= {threshold}, got {z}")
    return j * (z / threshold) ** (d / 2)


def lambda_next_over_mean(d, j, k):
    """lambda_{k+1}/mean(lambda_1..lambda_j) <= (1+4/d)(k/j)^{2/d}, k >= j >= 1."""
    d = _check_dim(d)
    if not (j >= 1 and _whole(j)):
        raise ValidityError(f"j must be a positive integer, got {j}")
    if not _whole(k):
        raise ValidityError(f"k must be an integer, got {k}")
    if not k >= j:
        raise ValidityError(f"requires k >= j, got k={k}, j={j}")
    return (1 + 4 / d) * (k / j) ** (2 / d)


@lru_cache(maxsize=_MEMO_SIZE)
def _mean_ratio_constants(d):
    """(1 + d/2, 1 + d/4, coefficient of (k/j)^{2/d}) of :func:`mean_ratio`."""
    return (1 + d / 2, 1 + d / 4,
            2 * ((1 + d / 4) / (1 + d / 2)) ** (1 + 2 / d))


def mean_ratio(d, j, k):
    """mean_k/mean_j <= 2 ((1+d/4)/(1+d/2))^{1+2/d} (k/j)^{2/d},
    valid for k >= j (1+d/2)/(1+d/4)."""
    d = _check_dim(d)
    if not (j >= 1 and _whole(j)):
        raise ValidityError(f"j must be a positive integer, got {j}")
    half, quarter, coeff = _mean_ratio_constants(d)
    threshold = j * half / quarter
    if not threshold <= k < math.inf:
        raise ValidityError(f"requires k >= {threshold}, got k={k}")
    return coeff * (k / j) ** (2 / d)


@lru_cache(maxsize=_MEMO_SIZE)
def _abhh_constants(d):
    """(threshold, coefficient of k^{2/d}) of :func:`abhh`."""
    return ((d + 1) * (1 + d / 2) / (1 + d / 4),
            (d + 5) / 2 ** (2 / d)
            * ((d + 4) / ((d + 1) * (d + 2))) ** (1 + 2 / d))


def abhh(d, k):
    """mean_k/lambda_1 <= (d+5)/2^{2/d} ((d+4)/((d+1)(d+2)))^{1+2/d} k^{2/d},
    valid for k >= (d+1)(1+d/2)/(1+d/4)."""
    d = _check_dim(d)
    threshold, coeff = _abhh_constants(d)
    if not threshold <= k < math.inf:
        raise ValidityError(f"requires k >= {threshold}, got k={k}")
    return coeff * k ** (2 / d)


@lru_cache(maxsize=_MEMO_SIZE)
def _abhh_next_coeff(d):
    """Coefficient of k^{2/d} in :func:`abhh_next`."""
    return ((d + 4) ** (2 + 2 / d) * (d + 5)
            / (2 ** (2 / d) * d * (d + 1) ** (1 + 2 / d)
               * (d + 2) ** (1 + 2 / d)))


def abhh_next(d, k):
    """lambda_{k+1}/lambda_1 bound obtained by chaining the averaged bound
    with Yang's simplification; the inequality is guaranteed for
    k >= (d+1)(1+d/2)/(1+d/4), the expression is defined for all k >= 1."""
    d = _check_dim_k(d, k)
    return _abhh_next_coeff(d) * k ** (2 / d)


@lru_cache(maxsize=_MEMO_SIZE)
def _mean_sq_coeff(d):
    """Upper-envelope coefficient (1+2/d)^2/(1+4/d) of
    :func:`mean_sq_envelope`."""
    return (1 + 2 / d) ** 2 / (1 + 4 / d)


def mean_sq_envelope(d, mean_k):
    """(lower, upper) envelope for the mean square of the first k eigenvalues:
    mean_k^2 <= mean_sq_k <= (1+2/d)^2/(1+4/d) mean_k^2."""
    d = _check_dim(d)
    if not 0 < mean_k < math.inf:
        raise ValidityError("mean_k must be positive")
    sq = mean_k * mean_k
    return sq, _mean_sq_coeff(d) * sq


def simple_p9(d, k):
    """mean_k/lambda_1 <= 2 ((1+d/4)/(1+d/2))^{1+2/d} k^{2/d}, k >= 2."""
    return mean_ratio(d, 1, k)


def cy_av(d, k):
    """Averaged Cheng-Yang bound (d+4)/(d+2) k^{2/d} on mean_k/lambda_1."""
    d = _check_dim_k(d, k)
    return (d + 4) / (d + 2) * k ** (2 / d)


def simple_p9_coeff(d):
    """Coefficient of k^{2/d} in :func:`simple_p9`."""
    return _mean_ratio_constants(_check_dim(d))[2]


def cy_av_coeff(d):
    """Coefficient of k^{2/d} in :func:`cy_av`."""
    d = _check_dim(d)
    return (d + 4) / (d + 2)


# ---------------------------------------------------------------------------
# machine-readable catalog

@dataclass(frozen=True)
class Bound:
    """A named bound: citation, kind, validity text, rule."""

    id: str
    kind: str
    cite: str
    validity: str
    fn: object


_RATIO = "upper_on_lambda_ratio"
_MEAN = "upper_on_mean_ratio"
_RLOW = "lower_on_riesz"
_RUP = "upper_on_riesz"
_NLOW = "lower_on_counting"

CATALOG: dict[str, Bound] = {b.id: b for b in [
    Bound("ab94", _RATIO, "Ashbaugh & Benguria (1994) eigenvalue-doubling bound",
          "d >= 1, m >= 0", ab94),
    Bound("ab94_avg", _MEAN,
          "averaged Ashbaugh-Benguria expression, m = ceil(log2 k)",
          "k >= 1 (comparison expression, not a bound: below mean_k/lambda_1 "
          "at k = 1)", ab94_avg),
    Bound("her1", _RATIO, "Hermi Weyl-type ratio bound", "k >= 1", her1),
    Bound("her2", _MEAN, "Hermi Weyl-type mean bound", "k >= 1", her2),
    Bound("cheng_yang", _RATIO, "Cheng & Yang ratio bound", "k >= 1",
          cheng_yang),
    Bound("cheng_yang2", _RATIO, "Cheng & Yang refined ratio bound",
          "k >= d+1", cheng_yang2),
    Bound("cheng_yang2_avg", _MEAN, "averaged Cheng-Yang refined bound",
          "k >= d+1", cheng_yang2_avg),
    Bound("fk_weyl", _RATIO, "Weyl law with Rayleigh-Faber-Krahn normalization",
          "k >= 1 (asymptotic expression)", fk_weyl),
    Bound("fk_weyl_avg", _MEAN, "averaged Weyl/Faber-Krahn expression",
          "k >= 1 (asymptotic expression)", fk_weyl_avg),
    Bound("berezin_li_yau", _RLOW, "Berezin-Li-Yau lower bound on the mean",
          "k >= 1, volume > 0", berezin_li_yau),
    Bound("riesz_upper", _RUP, "Laptev-Weidl semiclassical upper bound",
          "sigma >= 2", riesz_upper),
    Bound("riesz_lower_main", _RLOW,
          "monotonicity lower bound on the Riesz mean, sigma >= 2",
          "sigma >= 2, z >= (1+2 sigma/d) lam1", riesz_lower_main),
    Bound("riesz_lower_sub2", _RLOW,
          "monotonicity lower bound on the Riesz mean, 0 <= sigma < 2",
          "z >= (1+(2 sigma+2)/d) lam1 for sigma >= 1, "
          "z >= (1+(2 sigma+4)/d) lam1 for sigma < 1", riesz_lower_sub2),
    Bound("riesz_lower_hermi", _RLOW,
          "Chiti-constant lower bound on the Riesz mean", "sigma >= 1",
          riesz_lower_hermi),
    Bound("counting_lower", _NLOW, "counting-function lower bound",
          "z >= (1+4/d) lam1", counting_lower),
    Bound("counting_lower_j", _NLOW,
          "counting-function lower bound anchored at the j-th mean",
          "z >= (1+4/d) mean_j", counting_lower_j),
    Bound("lambda_next_over_mean", _RATIO,
          "ratio of lambda_{k+1} to the j-th mean", "k >= j >= 1",
          lambda_next_over_mean),
    Bound("mean_ratio", _MEAN, "universal Weyl-type bound on ratios of means",
          "k >= j (1+d/2)/(1+d/4)", mean_ratio),
    Bound("abhh", _MEAN,
          "mean bound via the Ashbaugh-Benguria (d+5)/(d+1) estimate",
          "k >= (d+1)(1+d/2)/(1+d/4)", abhh),
    Bound("abhh_next", _RATIO,
          "ratio bound chaining the mean bound with Yang's simplification",
          "guaranteed for k >= (d+1)(1+d/2)/(1+d/4)", abhh_next),
    Bound("simple_p9", _MEAN, "mean-ratio bound specialized to j = 1",
          "k >= 2", simple_p9),
    Bound("cy_av", _MEAN, "averaged Cheng-Yang mean bound", "k >= 1", cy_av),
]}


def evaluate(bound_id: str, **kwargs) -> float:
    """Evaluate a catalog bound by id; unknown ids raise KeyError, and a
    value that leaves the float range raises ValidityError."""
    bound = CATALOG[bound_id]
    try:
        value = bound.fn(**kwargs)
        if math.isfinite(value):
            return value
        reason = f"value {value}"
    except OverflowError as exc:
        reason = str(exc)
    raise ValidityError(
        f"bound {bound_id!r} leaves the float range at {kwargs}: {reason}")


def catalog_dump() -> dict:
    """Machine-readable catalog, with each bound's argument names read from
    its function's signature and the constants of d = 1..7."""
    entries = [
        {"id": b.id, "kind": b.kind, "cite": b.cite,
         "params": list(inspect.signature(b.fn).parameters),
         "validity": b.validity}
        for b in CATALOG.values()
    ]
    constants = {
        str(d): {
            "H_d": H_d(d),
            "L_cl_sigma2": L_cl(2.0, d),
            "fk_coeff": fk_coeff(d),
            "ab_ratio": ab_ratio(d),
            "weyl_coeff_unit_volume": weyl_coeff(d, 1.0),
        }
        for d in range(1, 8)
    }
    return {"bounds": entries, "constants": constants}
