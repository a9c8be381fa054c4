"""Special-function kernel: Gamma, Bessel J of the first kind, and its
positive zeros.

Gamma and J evaluation are delegated to scipy.special, which meets the
accuracy targets (relative 1e-12 for Gamma on [0.5, 50], absolute 1e-12 for
J on the needed range) with well-tested implementations; Gamma values are
memoized per argument (a bounded memo), since the bounds ask for the same
few Gamma(1 + d/2) and Gamma(1 + sigma) again and again.  The zero finder
is our own and caches the zeros of each order:

* Interlacing brackets, in one batch.  Zeros of neighbouring orders
  interlace, j_{nu-1,p} < j_{nu,p} < j_{nu-1,p+1} (DLMF 10.21(i)), and
  J_nu has sign (-1)^(p-1) just above j_{nu-1,p}.  Each order's cache
  records a bound below which it holds every zero.  If order nu - 1 holds
  every zero below a bound, K of them, zeros 1 .. K-1 of order nu lie
  between consecutive ones, and zero K lies in (j_{nu-1,K}, bound) exactly
  when J_nu changes sign there, since that interval lies inside
  (j_{nu-1,K}, j_{nu-1,K+1}).  One J_nu evaluation at the bound decides
  it, and every missing zero below the bound is found in one batch; none
  at or above it is.  Zero K's bracket ends at j_{nu-1,K+1} if that is
  cached and otherwise at max(bound, j_{nu-1,K} + pi), which is at most
  j_{nu-1,K+1}.  An order extended without a bound is batched with the
  last cached zero of order nu - 1 as the bound: by interlacing zero K
  always lies below it, and its bracket ends there.  Each zero
  starts from the polynomial extrapolation in the order, of degree at
  most 8, through the zeros of the same index of up to nine consecutive
  cached orders below; through nine orders most starts lie within 1e-9
  of the zero, so the first Newton step is the final polish.
* Scanning.  Zeros that no cached order brackets are found one at a time
  by a sign-change scan, starting at max(nu, 0) for the first zero
  (j_{nu,1} > nu) and otherwise pi/2 above the previous zero (consecutive
  zeros are more than pi/2 apart) or at j_{nu-1,p}, whichever is larger.
* Batched safeguarded Newton.  Each iteration evaluates J_nu and J_{nu-1}
  once over all unconverged brackets as numpy arrays; converged lanes drop
  out.  A lane stops when its Newton step is at most 1e-9 absolute (or 4 ulps
  of x, if larger), and that step is still applied as a final polish, which
  leaves an error of about step^2 / (2x).  A step leaving its bracket is
  replaced by bisection.
* Every zero is then residual-verified: |J_nu(x)| <= RESIDUAL_TOL *
  max(1, |J_nu'(x)|), or ConvergenceError.

``bessel_zero(nu, p)`` returns one zero; ``bessel_zeros(nu)`` iterates over
the zeros of one order, and ``bessel_zeros(nu, below)`` over those below a
bound, for callers that read a whole order, such as the ball spectra.
"""

from __future__ import annotations

import math
import operator
import threading
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import jv as _jv

from .errors import ConvergenceError, DomainError

#: residual acceptance for a computed zero: |J_nu(x)| <= RESIDUAL_TOL * max(1, |J_nu'(x)|)
RESIDUAL_TOL = 1e-10
#: a Newton step at most this long (absolute), or _STEP_ULPS ulps of x, ends
#: the iteration; the step is still applied, as the final polish
_STEP_TOL = 1e-9
_STEP_ULPS = 4
_MAX_ITER = 200
#: a batched zero starts from the extrapolation through at most this many
#: cached orders below it (degree _START_ORDERS - 1)
_START_ORDERS = 9
_SCAN_STEP = 0.5  # safe: consecutive zeros of J_nu, nu >= -1/2, are > pi/2 apart


@lru_cache(maxsize=256)
def gamma(x: float) -> float:
    """Gamma function for positive arguments, memoized per argument."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return float(_gamma(x))


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), nu >= -1/2, x >= 0."""
    if nu < -0.5:
        raise DomainError(f"bessel_j requires nu >= -1/2, got {nu}")
    if x < 0:
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    return float(_jv(nu, x))


@dataclass(frozen=True)
class BesselZero:
    """The p-th positive zero of J_nu."""

    order: float
    index: int
    value: float


class _OrderZeros(array):
    """The zeros of one order found so far, in order, as float64 (8 bytes a
    zero).  Every zero below ``bound`` is among them."""

    __slots__ = ("bound",)

    def __new__(cls):
        zeros = super().__new__(cls, "d")
        zeros.bound = 0.0
        return zeros

    def holds_below(self, x: float) -> bool:
        """Whether every zero below ``x`` is among them."""
        return x <= self.bound or (len(self) > 0 and self[-1] >= x)


#: order -> its zeros found so far
_zero_cache: dict[float, _OrderZeros] = {}
_cache_lock = threading.Lock()


def _newton(nu: float, a, b, x, sign_a):
    """Safeguarded Newton for one zero of J_nu in each bracket (a, b).

    All arguments are arrays with one lane per bracket: ``x`` is the start
    point inside (a, b) and ``sign_a`` the sign of J_nu just right of ``a``.
    Each iteration evaluates J_nu and J_{nu-1} once over the lanes still
    running.  A lane stops when its Newton step is at most the absolute
    tolerance and returns that last step applied; a step that leaves the
    bracket is replaced by bisection, and a bracket shrunk below the
    tolerance returns its midpoint.  Results are written, and the lanes
    compacted, only in an iteration where some lane stops; the arithmetic
    is element-wise, so no lane's values depend on the others.
    """
    a, b, x, sign_a = (np.asarray(v, dtype=float) for v in (a, b, x, sign_a))
    out = np.empty(len(x))
    lanes = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            f = _jv(nu, x)
            step = f / (_jv(nu - 1.0, x) - (nu / x) * f)
            tol = np.maximum(_STEP_TOL, _STEP_ULPS * np.spacing(x))
            same = np.sign(f) == sign_a
            a = np.where(same, x, a)
            b = np.where(same, b, x)
            x_new = x - step
            polished = np.abs(step) <= tol
            mid = 0.5 * (a + b)
            done = polished | (b - a <= tol)
            if done.any():
                out[lanes[done]] = np.where(polished, x_new, mid)[done]
                if done.all():
                    return out
                run = ~done
                a, b, x_new, mid, sign_a, lanes = (
                    v[run] for v in (a, b, x_new, mid, sign_a, lanes))
            x = np.where((a < x_new) & (x_new < b), x_new, mid)
    raise ConvergenceError(
        f"zero refinement for nu={nu} did not converge in "
        f"[{a[0]}, {b[0]}]")


def _scan(nu: float, lo: float) -> tuple[float, float, float, float]:
    """Bracket the first zero of J_nu above ``lo`` by sign-change scanning.

    Returns (a, b, J_nu(a), J_nu(b)).  A grid point where J_nu is exactly
    0.0 ends the bracket.
    """
    a, fa = lo, float(_jv(nu, lo))
    while True:
        b = a + _SCAN_STEP
        fb = float(_jv(nu, b))
        if fb == 0.0 or (fb > 0) != (fa > 0):
            return a, b, fa, fb
        a, fa = b, fb


def _check_residuals(nu: float, zeros, first: int) -> None:
    """Residual acceptance: |J_nu(x)| <= RESIDUAL_TOL * max(1, |J_nu'(x)|).

    For nu >= 1, |J_nu'| = |J_{nu-1} - J_{nu+1}| / 2 <= 1 (DLMF 10.14.1),
    so the bound is RESIDUAL_TOL itself and J_{nu-1} is not evaluated.
    """
    f = _jv(nu, zeros)
    bound = np.full(len(zeros), RESIDUAL_TOL)
    if nu < 1.0:
        df = _jv(nu - 1.0, zeros) - (nu / zeros) * f
        bound *= np.maximum(1.0, np.abs(df))
    bad = np.flatnonzero(np.abs(f) > bound)
    if len(bad):
        i = bad[0]
        raise ConvergenceError(
            f"residual {abs(f[i]):.3e} too large for zero {first + i} "
            f"of J_{nu}")


def _start_points(nu: float, n: int, a, b):
    """Newton start points for zeros n+1, n+2, ... of J_nu in brackets (a, b).

    Zeros move smoothly with the order, so j_{nu,q} is extrapolated through
    the cached zeros j_{nu-1,q} (``a``), ..., j_{nu-m,q} of the m <=
    _START_ORDERS consecutive orders below that hold it, by the polynomial
    of degree m - 1 in the order: the m-th finite difference vanishes, so
    j_{nu,q} ~ sum_{k=1..m} (-1)^(k+1) C(m, k) j_{nu-k,q}.  Zeros with only
    order nu - 1 below, and guesses outside their bracket, start at the
    bracket midpoint.
    """
    x = 0.5 * (a + b)
    rows = [a]
    for k in range(2, _START_ORDERS + 1):
        row = _zero_cache.get(nu - k, ())[n:n + len(a)]
        if not len(row):
            break
        rows.append(np.array(row))
    # lanes [0, avail[m-1]) hold all of orders nu-1 .. nu-m
    avail = np.minimum.accumulate([len(row) for row in rows])
    stop = 0
    for m in range(len(rows), 1, -1):
        start, stop = stop, avail[m - 1]
        if start < stop:
            guess = sum((-1) ** (k + 1) * math.comb(m, k) * row[start:stop]
                        for k, row in enumerate(rows[:m], start=1))
            inside = (a[start:stop] < guess) & (guess < b[start:stop])
            x[start:stop] = np.where(inside, guess, x[start:stop])
    return x


def _extend_zeros(nu: float, zeros: _OrderZeros, p: int) -> None:
    """Append zeros of J_nu until at least p are cached.

    If the cached order nu - 1 brackets the next zero, holding more than
    len(zeros) + 1 zeros, ``_fill_below`` finds every zero below its last
    one in one batch; the rest are found here, one at a time by
    scanning.
    """
    below = _zero_cache.get(nu - 1.0, [])
    if len(below) > len(zeros) + 1:
        _fill_below(nu, zeros, below[-1])
    while len(zeros) < p:
        q = len(zeros)
        # j_{nu,1} > max(nu, 0); consecutive zeros are more than pi/2 apart
        lo = zeros[-1] + 0.5 * math.pi if zeros else max(nu, 0.0)
        if len(below) > q:
            lo = max(lo, below[q])
        a, b, fa, fb = _scan(nu, lo)
        x = a - fa * (b - a) / (fb - fa)  # secant; nan if J_nu(a) is inf
        if not a < x < b:
            x = 0.5 * (a + b)
        new = _newton(nu, [a], [b], [x], [math.copysign(1.0, fa)])
        _check_residuals(nu, new, q + 1)
        zeros.append(float(new[0]))


def _fill_below(nu: float, zeros: _OrderZeros, bound: float) -> None:
    """Append zeros of J_nu until every zero below ``bound`` is cached.

    If the cached order nu - 1 holds every zero below ``bound``, K of them,
    the missing zeros among 1 .. K are found in one batch: zero q < K in
    (j_{nu-1,q}, j_{nu-1,q+1}), and zero K, when J_nu changes sign on
    (j_{nu-1,K}, bound), with its bracket ending at j_{nu-1,K+1} if that
    is cached and at max(bound, j_{nu-1,K} + pi) otherwise.  No zero at or
    above ``bound`` is found.  This is the one batched Newton pass.
    Otherwise zeros are appended by ``_extend_zeros``, one more at a
    time, through the first at or above ``bound``.
    """
    lower = _zero_cache.get(nu - 1.0)
    if lower is None or not lower.holds_below(bound):
        while not zeros.holds_below(bound):
            _check_range(nu, len(zeros) + 1)
            _extend_zeros(nu, zeros, len(zeros) + 1)
    else:
        n = len(zeros)
        k = bisect_left(lower, bound)
        # j_{nu,K+1} > j_{nu-1,K+1} >= bound, so at most K zeros lie below;
        # J_nu has sign (-1)^(K-1) just above j_{nu-1,K}
        top = k if n < k and _jv(nu, bound) * (-1) ** k > 0 else k - 1
        if n < top:
            a = np.array(lower[n:top])
            b = np.array(lower[n + 1:top + 1])
            if len(b) < len(a):
                # j_{nu-1,K+1} is not cached, so order nu - 1 was batched
                # and nu - 1 >= 1/2, where zeros are at least pi apart
                b = np.append(b, max(bound, a[-1] + math.pi))
            x = _start_points(nu, n, a, b)
            sign_a = 1.0 - 2.0 * (np.arange(n, top) % 2)
            new = _newton(nu, a, b, x, sign_a)
            _check_residuals(nu, new, n + 1)
            zeros.extend(new.tolist())
    zeros.bound = bound


def _check_order(nu: float) -> None:
    if not -0.5 <= nu < math.inf:
        raise DomainError(
            f"bessel_zero requires finite nu >= -1/2, got {nu}")


def _check_range(nu: float, p: int) -> None:
    """j_{nu,p} >= max(nu, 0) + (p - 1) pi/2 must stay below 2^20, where
    one ulp exceeds 1e-10."""
    if max(nu, 0.0) + (p - 1) * (0.5 * math.pi) >= 2.0 ** 20:
        raise DomainError(
            f"bessel_zero requires max(nu, 0) + (p - 1) pi/2 < 2^20, got "
            f"nu={nu}, p={p}: one ulp of such a zero exceeds 1e-10")


def _cached(key: float) -> _OrderZeros:
    """The cache of order ``key``, made empty if there is none yet; the
    caller holds ``_cache_lock``."""
    zeros = _zero_cache.get(key)
    if zeros is None:
        zeros = _zero_cache[key] = _OrderZeros()
    return zeros


def _zeros_from(nu: float, p: int) -> array:
    """A copy of the cached zeros j_{nu,p}, j_{nu,p+1}, ..., after
    extending the cache of order nu to hold at least p zeros."""
    key = float(nu)
    with _cache_lock:
        zeros = _cached(key)
        if len(zeros) < p:
            _extend_zeros(key, zeros, p)
        return zeros[p - 1:]


def _zeros_below(nu: float, bound: float) -> array:
    """A copy of the cached zeros of order nu below ``bound``, after
    filling the cache of order nu to hold every one of them."""
    key = float(nu)
    with _cache_lock:
        zeros = _cached(key)
        if not zeros.holds_below(bound):
            _fill_below(key, zeros, bound)
        return zeros[:bisect_left(zeros, bound)]


def bessel_zero(nu: float, p: int) -> BesselZero:
    """The p-th positive zero j_{nu,p}, accurate to 1e-10 absolute.

    The error actually reached is set by the accuracy of scipy's J_nu, not
    by the stopping rule: against 30-digit mpmath roots, the 16,646 zeros
    behind the disk spectrum below 1e5 and the 3-ball spectrum below 3e4
    (nu <= 299.5, j < 317) are off by at most 2.4e-13, median 1.8e-14.

    A p that is not an integer raises DomainError, and so does a zero whose
    lower bound max(nu, 0) + (p - 1) pi/2 reaches 2^20, where one ulp
    exceeds 1e-10; both before any J evaluation.
    """
    _check_order(nu)
    try:
        p = operator.index(p)
    except TypeError:
        raise DomainError(
            f"bessel_zero requires an integer p, got {p!r}") from None
    if p < 1:
        raise DomainError(f"bessel_zero requires p >= 1, got {p}")
    _check_range(nu, p)
    return BesselZero(order=float(nu), index=p, value=_zeros_from(nu, p)[0])


def bessel_zeros(nu: float, below: float = math.inf) -> Iterator[float]:
    """The positive zeros j_{nu,1}, j_{nu,2}, ... of J_nu below ``below``,
    in order.

    Without a bound the zeros are found as the iteration reaches them, and
    taking p zeros fills the zero cache exactly as the calls
    bessel_zero(nu, 1), ..., bessel_zero(nu, p) do: at zero 1, one batch,
    the bounded fill below the last cached zero of order nu - 1, then one
    scanned zero at a time.  That matters beyond the count, since the path
    that found a zero sets its last bits.  The values, their accuracy and the
    DomainError before a zero past 2^20 are those of the calls; the zeros
    already cached are read under one lock.

    With a bound up to 2^20, every zero below it is found at the first
    step.  If order nu - 1 holds every zero below the bound, as a ball's
    orders after the first do when filled with one bound, they come from
    one batch and the first zero at or above the bound is not found; each
    keeps the lower bracket end and the extrapolated start of the calls,
    and its upper end matters only to a bisection step.  Otherwise the
    order is extended as by the calls, through the first zero at or above
    the bound.  Zeros already cached below the bound are read with no J
    evaluation.  A bound above 2^20 ends the unbounded iteration.  A bound
    that is NaN or not positive raises DomainError before any J
    evaluation, as a bad order does.
    """
    _check_order(nu)
    if not below > 0:
        raise DomainError(f"bessel_zeros requires below > 0, got {below}")
    if below <= 2.0 ** 20:
        # zeros below 2^20 pass the range check; only nu itself can fail it
        _check_range(nu, 1)
        yield from _zeros_below(nu, below)
        return
    p = 1
    while True:
        # only zero p may be found here; the later zeros yielded were cached,
        # and a cached zero passes this check (a batched j_{nu,q} lies below
        # j_{nu-1,q+1}, whose bound max(nu - 1, 0) + q pi/2 exceeds its own
        # by more than pi/2 - 1; a bounded fill's zeros lie below 2^20)
        _check_range(nu, p)
        for value in _zeros_from(nu, p):
            if value >= below:
                return
            yield value
            p += 1
