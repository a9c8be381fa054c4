"""Independent reference implementations that the tests compare the library
against.  None of them is used by the library itself."""

import inspect
import json
import math

import mpmath
import numpy as np
from scipy.special import gamma as _gamma

from rieszbounds import bounds, specfun, spectra, verify
from rieszbounds.errors import DomainError, ResourceLimitError
from rieszbounds.riesz import eigensum_prefix, riesz_value, square_prefix


def riesz_derivative_check(spec, sigma: float, z: float,
                           h: float) -> tuple[float, float]:
    """Central difference of R_sigma at z versus sigma * R_{sigma-1}(z).

    The two should agree (the derivative identity); comparison is left to
    the caller.  Requires sigma >= 1 and z +/- h inside (0, complete_below].
    """
    if sigma < 1:
        raise DomainError("derivative check requires sigma >= 1")
    if z - h <= 0:
        raise DomainError("z - h must be positive")
    hi, _ = riesz_value(spec, sigma, z + h)
    lo, _ = riesz_value(spec, sigma, z - h)
    fd = (hi - lo) / (2 * h)
    rhs = sigma * riesz_value(spec, sigma - 1.0, z)[0]
    return fd, rhs


def _on_binary_scale(values):
    """Integers N_i and one exponent q <= 0 with values[i] == N_i * 2**q.

    Every finite float is an integer mantissa times a power of two, so
    shifting each mantissa up to the smallest exponent is exact.
    """
    mant, exp = np.frexp(np.asarray(values, dtype=np.float64))
    ints = (mant * 2.0 ** 53).astype(np.int64).tolist()
    exps = (exp - 53).tolist()
    q = min(min(exps), 0)
    return [m << (e - q) for m, e in zip(ints, exps)], q


def legendre_numeric(spec, w: float) -> float:
    """Breakpoint-scan oracle for the Legendre transform of R_1.

    The objective w z - R_1(z) is piecewise linear and concave in z, so its
    supremum is attained at a breakpoint z = lambda_{k+1}.  The scan
    maximizes the breakpoint objective (w - k) lambda_{k+1} + sum_{l<=k}
    lambda_l over all k in exact arithmetic, instead of trusting the
    closed-form index [w]: w, k and the eigenvalues are integers on one
    binary scale 2**q, so each objective is an exact integer times
    2**(2q).  The winning objective is then rendered in floating point by
    the shared breakpoint expression, so equal-valued tie indices (repeated
    eigenvalues) cannot introduce rounding differences.
    """
    if w <= 0:
        raise DomainError(f"w must be positive, got {w}")
    m = int(math.floor(w))
    ev = spec.eigenvalues
    if m + 1 > len(ev):
        raise DomainError(
            f"w={w} needs eigenvalue {m+1}, spectrum has {len(ev)}")
    ints, q = _on_binary_scale(np.append(ev, w))
    w_int = ints.pop()
    unit = 1 << -q  # k == k * unit * 2**q
    partial = 0
    best = None
    best_ks: list[int] = []
    for k, lam in enumerate(ints):
        # (w - k) lambda_{k+1} + sum_{l<=k} lambda_l, times 2**(-2q)
        obj = (w_int - k * unit) * lam + partial * unit
        if best is None or obj > best:
            best = obj
            best_ks = [k]
        elif obj == best:
            best_ks.append(k)
        elif k > w:
            break  # objective is nonincreasing in k past [w]
        partial += lam
    # the closed-form index is canonical when it attains the exact maximum
    k = m if m in best_ks else best_ks[0]
    prefix = eigensum_prefix(spec)
    return (w - k) * float(ev[k]) + (prefix[k - 1] if k >= 1 else 0.0)


def c_sigma(sigma: float) -> float:
    """Piecewise constant in the secant-slope inequality:
    sigma/2 on [0, 1), 1 on [1, 2], sigma/2 on (2, inf)."""
    if sigma < 0:
        raise DomainError(f"sigma must be nonnegative, got {sigma}")
    if sigma < 1 or sigma > 2:
        return sigma / 2.0
    return 1.0


#: checks covering the core differential/monotonicity statements
THEOREM_IDS = ("thm21_diff1", "thm21_diff2", "thm21_deriv1", "thm21_deriv2",
               "thm21_mono1", "thm21_mono2")

#: all remaining corollary/consequence checks
COROLLARY_IDS = tuple(i for i in verify.MARGINS if i not in THEOREM_IDS)


def bessel_j_half_integer(nu: float, x: float) -> float:
    """Closed-form J_nu for half-integer nu = m + 1/2, m >= 0.

    Upward recurrence from J_{-1/2} = sqrt(2/(pi x)) cos x and
    J_{1/2} = sqrt(2/(pi x)) sin x.  Independent of scipy.
    """
    m = nu - 0.5
    if m < 0 or m != int(m):
        raise DomainError(f"nu must be a nonnegative half-integer, got {nu}")
    if x <= 0:
        raise DomainError(f"requires x > 0, got {x}")
    scale = math.sqrt(2.0 / (math.pi * x))
    j_prev = scale * math.cos(x)   # J_{-1/2}
    j_cur = scale * math.sin(x)    # J_{+1/2}
    order = 0.5
    for _ in range(int(m)):
        j_prev, j_cur = j_cur, (2.0 * order / x) * j_cur - j_prev
        order += 1.0
    return j_cur


def bessel_j_prime(nu: float, x: float) -> float:
    """d/dx J_nu(x) by mpmath, independent of scipy."""
    return float(mpmath.besselj(nu, x, derivative=1))


def mcmahon_asymptote(nu: float, p: int) -> float:
    """Leading McMahon term (p + nu/2 - 1/4) * pi for the p-th zero."""
    return (p + nu / 2.0 - 0.25) * math.pi


def box_eigenvalues_recursive(sides, lam_max: float) -> np.ndarray:
    """The eigenvalues of ``spectra.box_spectrum``, by a recursion over the
    axes that makes one float, one list append and one cap check per
    eigenvalue: each axis stops at its first sum at or above ``lam_max``,
    and the list is sorted.  More than ``spectra.MAX_EIGENVALUES`` values
    raise ResourceLimitError.  Input is not validated."""
    coeffs = [math.pi**2 / float(s)**2 for s in sides]
    d = len(coeffs)
    vals = []

    def recurse(axis: int, acc: float) -> None:
        c = coeffs[axis]
        n = 1
        while True:
            t = acc + c * n * n
            if t >= lam_max:
                break
            if axis == d - 1:
                if len(vals) >= spectra.MAX_EIGENVALUES:
                    raise ResourceLimitError(
                        f"eigenvalue count exceeds cap "
                        f"{spectra.MAX_EIGENVALUES}")
                vals.append(t)
            else:
                recurse(axis + 1, t)
            n += 1

    recurse(0, 0.0)
    vals.sort()
    return np.array(vals)


def ball_eigenvalues_per_zero(d: int, radius: float,
                              lam_max: float) -> np.ndarray:
    """The eigenvalues of ``spectra.ball_spectrum``, by one public
    ``specfun.bessel_zero`` call per zero: each value repeated by its
    multiplicity into a list with ``extend``, and the list sorted.  Input
    is not validated and no cap is applied."""
    r2 = radius * radius
    vals = []
    ell = 0
    while True:
        nu = d / 2 - 1 + ell
        if specfun.bessel_zero(nu, 1).value ** 2 / r2 >= lam_max:
            break
        mult = spectra.ball_multiplicity(ell, d)
        p = 1
        while True:
            lam = specfun.bessel_zero(nu, p).value ** 2 / r2
            if lam >= lam_max:
                break
            vals.extend([lam] * mult)
            p += 1
        ell += 1
    vals.sort()
    return np.array(vals)


def spectrum_text(spec) -> str:
    """The text of ``write_spectrum``, one ``repr`` per eigenvalue."""
    head = f"dim: {spec.dimension}\ncomplete_below: {spec.complete_below!r}\n"
    if spec.volume is not None:
        head += f"volume: {spec.volume!r}\n"
    return head + "".join(repr(v) + "\n" for v in spec.eigenvalues.tolist())


def spectrum_csv(spec, full_precision: bool = False) -> str:
    """The text of ``cli spectrum --format csv``, one format call per
    eigenvalue."""
    fmt = "{:.17g}" if full_precision else "{:.6g}"
    return "k,lambda_k\n" + "".join(
        f"{k},{fmt.format(v)}\n"
        for k, v in enumerate(spec.eigenvalues.tolist(), start=1))


def spectrum_json(spec) -> str:
    """The text of ``cli spectrum --format json``, one ``float`` per
    eigenvalue and one ``json.dumps`` of the whole payload."""
    payload = {"dim": spec.dimension, "complete_below": spec.complete_below,
               "volume": spec.volume,
               "eigenvalues": [float(v) for v in spec.eigenvalues]}
    return json.dumps(payload, indent=2) + "\n"


# Closed forms of the bounds that ``rieszbounds.bounds`` memoizes per
# dimension, written out in full as one expression each (no gates, no
# memo), to pin the memoized values bit for bit.

def lambda_next_over_mean(d, j, k):
    return (1 + 4 / d) * (k / j) ** (2 / d)


def mean_ratio(d, j, k):
    return (2 * ((1 + d / 4) / (1 + d / 2)) ** (1 + 2 / d)
            * (k / j) ** (2 / d))


def mean_ratio_threshold(d, j):
    return j * (1 + d / 2) / (1 + d / 4)


def abhh(d, k):
    return ((d + 5) / 2 ** (2 / d)
            * ((d + 4) / ((d + 1) * (d + 2))) ** (1 + 2 / d)
            * k ** (2 / d))


def abhh_threshold(d):
    return (d + 1) * (1 + d / 2) / (1 + d / 4)


def abhh_next(d, k):
    return ((d + 4) ** (2 + 2 / d) * (d + 5)
            / (2 ** (2 / d) * d * (d + 1) ** (1 + 2 / d)
               * (d + 2) ** (1 + 2 / d))
            * k ** (2 / d))


def mean_sq_envelope(d, mean_k):
    sq = mean_k * mean_k
    return sq, (1 + 2 / d) ** 2 / (1 + 4 / d) * sq


def L_cl(sigma, d):
    return (float(_gamma(sigma + 1))
            / ((4 * math.pi) ** (d / 2) * float(_gamma(sigma + 1 + d / 2))))


def shewchuk_prefix_sums(terms):
    """Correctly rounded running prefix sums by Shewchuk's partials loop:
    the reference for ``prefix_sums``.

    The running state is a list of non-overlapping partials whose exact
    sum is the prefix; every prefix is rounded by ``math.fsum`` of them.
    """
    out = np.empty(len(terms))
    partials = []
    for i, x in enumerate(terms):
        x = float(x)
        j = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[j] = lo
                j += 1
            x = hi
        partials[j:] = [x]
        out[i] = math.fsum(partials)
    return out


#: keyword order of each check family's points, as the sweep made them when
#: every point was a keyword dict; hoelder_chain's order depends on its form
POINT_KEYS = {
    "thm21_diff1": ("sigma", "z"),
    "thm21_diff2": ("sigma", "z"),
    "thm21_deriv1": ("sigma", "z", "h"),
    "thm21_deriv2": ("sigma", "z", "h"),
    "thm21_mono1": ("sigma", "z1", "z2"),
    "thm21_mono2": ("sigma", "z1", "z2"),
    "cor23_sandwich": ("sigma", "z", "form"),
    "aizenman_lieb_ratio": ("sigma", "z"),
    "cor26_lower": ("sigma", "z", "form"),
    "eq213_lower": ("sigma", "z"),
    "cor29_r2": ("j", "z"),
    "cor29_r1": ("j", "z"),
    "cor29_counting": ("j", "z"),
    "eq224_ratio": ("j", "k"),
    "yang_simplified": ("k",),
    "hoelder_chain": {
        "logconvex": ("form", "z", "sigma0", "sigma1", "sigma2"),
        "counting": ("form", "sigma", "z"),
        "counting2": ("form", "sigma", "z"),
    },
    "cor31_mean_ratio": ("j", "k"),
    "cor32_abhh": ("k",),
    "eq36_next": ("k",),
    "eq37_discrim": ("k", "form"),
    "moment_ordering": ("k", "s_lo", "s_hi"),
    "moment_interpolation": ("k", "mu", "sigma", "tau"),
}


def point_dict(check_id, fn, row) -> dict:
    """The keyword dict of one point: ``row`` bound to the parameters of
    ``fn`` by position, in the order of ``POINT_KEYS``.  Every argument that
    is not None must be named there."""
    bound = inspect.signature(fn).bind(None, *row).arguments
    keys = POINT_KEYS[check_id]
    if isinstance(keys, dict):
        keys = keys[bound["form"]]
    given = [name for name, value in list(bound.items())[1:]
             if value is not None]
    assert sorted(given) == sorted(keys), (check_id, row)
    return {key: bound[key] for key in keys}


def dict_sweep(label, spec, cfg, ids=None):
    """``verify._sweep`` as it ran when every point was a keyword dict:
    ``fn(spec, **params)`` per point, the first strict minimum kept and
    its dict copied into the witness.  Each Riesz value is one
    ``riesz_value`` call, kept while the spectrum is swept.

    Returns {check_id: (grid, n_points, worst_margin, witness)}.
    """
    results = {}
    verify._riesz_memo[spec] = {}
    try:
        for check_id, grid, points in verify._build_points(spec, cfg,
                                                             cfg.z_points):
            if ids is not None and check_id not in ids:
                continue
            fn = verify.MARGINS[check_id]
            worst = math.inf
            witness = {}
            for row in points:
                params = point_dict(check_id, fn, row)
                m = fn(spec, **params)
                if m < worst:
                    worst = m
                    witness = dict(params)
                    witness["spectrum"] = label
            results[check_id] = (grid, len(points), worst, witness)
    finally:
        verify._riesz_memo.pop(spec, None)
    return results


def index_margin(check_id, spec, k_or_j, *rest) -> float:
    """The margin of an index family written out from numpy scalars and the
    bounds, as ``float(prefix[k - 1]) / k`` means and ``float(ev[k])``
    eigenvalues, in the association order of each closed form."""
    d = spec.dimension
    ev = spec.eigenvalues

    def mean(k):
        return float(eigensum_prefix(spec)[k - 1]) / k

    if check_id == "eq224_ratio":
        j, (k,) = k_or_j, rest
        return verify._margin(bounds.lambda_next_over_mean(d, j, k)
                              * mean(j), float(ev[k]))
    k = k_or_j
    if check_id == "yang_simplified":
        return verify._margin((1 + 4 / d) * mean(k), float(ev[k]))
    if check_id == "cor32_abhh":
        return verify._margin(bounds.abhh(d, k) * float(ev[0]), mean(k))
    if check_id == "eq36_next":
        return verify._margin(bounds.abhh_next(d, k) * float(ev[0]),
                              float(ev[k]))
    assert check_id == "eq37_discrim"
    mean_sq = float(square_prefix(spec)[k - 1]) / k
    lo, hi = bounds.mean_sq_envelope(d, mean(k))
    if rest == ("lower",):
        return verify._margin(mean_sq, lo)
    return verify._margin(hi, mean_sq)
