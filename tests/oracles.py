"""Independent reference implementations that the tests compare the library
against.  None of them is used by the library itself."""

import json
import math

import numpy as np
from scipy.special import gamma as _gamma

from rieszbounds.errors import DomainError
from rieszbounds.riesz import eigensum_prefix, riesz_value


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


def mcmahon_asymptote(nu: float, p: int) -> float:
    """Leading McMahon term (p + nu/2 - 1/4) * pi for the p-th zero."""
    return (p + nu / 2.0 - 0.25) * math.pi


def spectrum_text(spec) -> str:
    """The text of ``write_spectrum``, one ``repr`` per eigenvalue."""
    head = f"dim: {spec.dimension}\ncomplete_below: {spec.complete_below!r}\n"
    if spec.volume is not None:
        head += f"volume: {spec.volume!r}\n"
    return head + "".join(repr(v) + "\n" for v in spec.eigenvalues.tolist())


def spectrum_csv(spec, full_precision: bool = False) -> str:
    """The text of ``spectrum_csv``, one format call per eigenvalue."""
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
