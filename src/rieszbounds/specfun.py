"""Special-function kernel: Gamma, Bessel J of the first kind, and its
positive zeros.

Gamma and J evaluation are delegated to scipy.special, which meets the
accuracy targets (relative 1e-12 for Gamma on [0.5, 50], absolute 1e-12 for
J on the needed range) with well-tested implementations; Gamma values are
memoized per argument (a bounded memo), since the bounds ask for the same
few Gamma(1 + d/2) and Gamma(1 + sigma) again and again.  The zero finder
is our own and caches the zeros of each order.  An order nu < 1, or one
whose integer part is a multiple of 512, is the root of a chain; any other
order nu is batched from order nu - 1, filled first, down to its root.  So
the path to a zero, and its bits, depend on its order alone:

* Roots are scanned, one zero at a time, from max(nu, 0) for the first
  zero (j_{nu,1} > nu) and otherwise pi/2 above the previous zero
  (consecutive zeros are more than pi/2 apart).
* Interlacing brackets, in one batch.  Zeros of neighbouring orders
  interlace, j_{nu-1,p} < j_{nu,p} < j_{nu-1,p+1} (DLMF 10.21(i)), and J_nu
  has sign (-1)^(p-1) just above j_{nu-1,p}.  Each order's cache records a
  bound below which it holds every zero.  If order nu - 1 holds every zero
  below a bound, K of them, zeros 1 .. K-1 of order nu lie between
  consecutive ones, and zero K lies in (j_{nu-1,K}, bound) exactly when
  J_nu changes sign there.  One J_nu evaluation at the bound decides it
  (none if the bound is j_{nu-1,K+1}); no zero at or above it is found.
  Each zero starts from the polynomial extrapolation in the order, of
  degree at most 8, through the zeros of the same index of up to nine
  orders of its chain below, so most need one Newton step.
* Batched safeguarded Newton.  Each iteration evaluates J_nu and J_{nu-1}
  once over all unconverged brackets as numpy arrays; converged lanes drop
  out.  A lane stops when its Newton step is at most 1e-9 absolute (or 4 ulps
  of x, if larger), and that step is still applied as a final polish, which
  leaves an error of about step^2 / (2x).  A step leaving its bracket is
  replaced by bisection.
* Every zero is then residual-verified: |J_nu(x)| <= RESIDUAL_TOL *
  max(1, |J_nu'(x)|), or ConvergenceError.  None at or above 2^20, where
  one ulp exceeds 1e-10, is cached or returned.

``bessel_zero(nu, p)`` returns one zero; ``bessel_zeros(nu)`` iterates over
the zeros of one order, and ``bessel_zeros(nu, below)`` over those below a
bound, for callers that read a whole order, such as the ball spectra.  A
lone zero costs the zeros of its chain below it (``chain_zeros``).
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
#: orders of its chain below it (degree _START_ORDERS - 1)
_START_ORDERS = 9
_SCAN_STEP = 0.5  # safe: consecutive zeros of J_nu, nu >= -1/2, are > pi/2 apart
#: an order nu >= 1 whose integer part is a multiple of this is a chain root
_CHAIN = 512
#: no zero at or above this is cached or returned: one ulp there exceeds 1e-10
_LIMIT = 2.0 ** 20


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

    def reach(self) -> float:
        """The largest x such that every zero below x is among them."""
        return max(self.bound, self[-1]) if self else self.bound


def _rank(nu: float) -> int:
    """How many orders of its chain lie below order nu; 0 for a root."""
    return math.floor(nu) % _CHAIN if nu >= 1.0 else 0


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


def _check_residuals(nu: float, zeros, first: int) -> None:
    """Residual acceptance: |J_nu(x)| <= RESIDUAL_TOL * max(1, |J_nu'(x)|).

    At a zero, |J_nu'| = |J_{nu+1}| <= 1 (DLMF 10.6.2 and 10.14.1, as
    nu + 1 >= 0), so the check |J_nu(x)| <= RESIDUAL_TOL, which needs no
    J_nu', is at least as strict.
    """
    f = np.abs(_jv(nu, zeros))
    bad = np.flatnonzero(f > RESIDUAL_TOL)
    if len(bad):
        i = bad[0]
        raise ConvergenceError(
            f"residual {f[i]:.3e} too large for zero {first + i} of J_{nu}")


def _start_points(nu: float, n: int, a, b):
    """Newton start points for zeros n+1, n+2, ... of J_nu in brackets (a, b).

    j_{nu,q} ~ sum_{k=1..m} (-1)^(k+1) C(m, k) j_{nu-k,q}, the extrapolation
    through j_{nu-1,q} (``a``), ..., j_{nu-m,q} of the m = min(_START_ORDERS,
    rank) orders of its chain below, which hold every lane's zero.  The order
    just above a root, and guesses outside their bracket, start at the
    bracket midpoint.
    """
    x = 0.5 * (a + b)
    m = min(_START_ORDERS, _rank(nu))
    if m > 1:
        rows = [a] + [np.array(_zero_cache[nu - k][n:n + len(a)])
                      for k in range(2, m + 1)]
        guess = sum((-1) ** (k + 1) * math.comb(m, k) * row
                    for k, row in enumerate(rows, start=1))
        x = np.where((a < guess) & (guess < b), guess, x)
    return x


def _scan_root(nu: float, zeros: _OrderZeros, p: int, bound: float) -> None:
    """Append zeros of the chain root nu, bracketed one at a time by a
    sign-change scan, until at least p are cached and every zero below
    ``bound`` is.  A zero found at or above 2^20 is not cached: every zero
    below 2^20 is then, and the order's bound becomes 2^20."""
    while zeros.bound < _LIMIT and (len(zeros) < p or zeros.reach() < bound):
        # j_{nu,1} > max(nu, 0); consecutive zeros are more than pi/2 apart
        a = zeros[-1] + 0.5 * math.pi if zeros else max(nu, 0.0)
        fa = float(_jv(nu, a))
        while True:  # a grid point where J_nu is exactly 0.0 ends the bracket
            b = a + _SCAN_STEP
            fb = float(_jv(nu, b))
            if fb == 0.0 or (fb > 0) != (fa > 0):
                break
            a, fa = b, fb
        x = a - fa * (b - a) / (fb - fa)  # secant; nan if J_nu(a) is inf
        if not a < x < b:
            x = 0.5 * (a + b)
        new = _newton(nu, [a], [b], [x], [math.copysign(1.0, fa)])
        if new[0] >= _LIMIT:
            zeros.bound = _LIMIT
            return
        _check_residuals(nu, new, len(zeros) + 1)
        zeros.append(float(new[0]))


def _fill_below(nu: float, zeros: _OrderZeros, bound: float) -> None:
    """Append zeros of J_nu until every zero below ``bound`` is cached.

    A root is scanned through its first zero at or above ``bound``.  Any
    other order gets the missing ones in one batch, the one batched Newton
    pass, from order nu - 1, which holds every zero below ``bound``; none
    at or above ``bound`` is found.
    """
    if not _rank(nu):
        _scan_root(nu, zeros, 0, bound)
        return
    lower = _zero_cache[nu - 1.0]
    n = len(zeros)
    k = bisect_left(lower, bound)
    # j_{nu,K+1} > j_{nu-1,K+1} >= bound, so at most K zeros lie below;
    # J_nu has sign (-1)^(K-1) just above j_{nu-1,K}, and zero K lies
    # below j_{nu-1,K+1}
    top = k - 1
    if n < k and (k < len(lower) and lower[k] == bound
                  or _jv(nu, bound) * (-1) ** k > 0):
        top = k
    if n < top:
        a = np.array(lower[n:top])
        b = np.array(lower[n + 1:top + 1])
        if len(b) < len(a):
            # j_{nu-1,K+1} is not cached: zero K's bracket ends at most pi
            # above j_{nu-1,K}, unless the bound lies higher
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
    if max(nu, 0.0) + (p - 1) * (0.5 * math.pi) >= _LIMIT:
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
    """A copy of the cached zeros j_{nu,p}, j_{nu,p+1}, ..., after giving
    order nu at least p zeros.

    A root is scanned.  Any other order is filled below the last cached
    zero of order nu - 1 if that is j_{nu-1,p+1} or later, which lies above
    j_{nu,p}, and otherwise below the reach of order nu - 1; if that leaves
    fewer than p zeros, order nu - 1 is first given p + 1.
    """
    key = float(nu)
    todo = [(key, p)]
    with _cache_lock:
        while todo:
            order, want = todo[-1]
            zeros = _cached(order)
            if not _rank(order):
                _scan_root(order, zeros, want, 0.0)
            elif len(zeros) < want:
                lower = _cached(order - 1.0)
                bound = lower[-1] if len(lower) > want else lower.reach()
                if zeros.reach() < bound:
                    _fill_below(order, zeros, bound)
                if len(zeros) < want and lower.reach() < _LIMIT:
                    todo.append((order - 1.0, want + 1))
                    continue
            todo.pop()
        if len(zeros) < p:
            raise DomainError(f"zero {p} of J_{nu} lies at or above 2^20, "
                              "where one ulp exceeds 1e-10")
        return zeros[p - 1:]


def _zeros_below(nu: float, bound: float) -> array:
    """A copy of the cached zeros of order nu below ``bound``, after
    filling each order of its chain, from the lowest that needs it, to hold
    every one of them."""
    chain = [float(nu)]
    with _cache_lock:
        while (_cached(chain[-1]).reach() < bound and _rank(chain[-1])
               and _cached(chain[-1] - 1.0).reach() < bound):
            chain.append(chain[-1] - 1.0)
        for order in reversed(chain):
            zeros = _zero_cache[order]
            if zeros.reach() < bound:
                _fill_below(order, zeros, bound)
        return zeros[:bisect_left(zeros, bound)]


def chain_zeros(orders, p: int) -> int:
    """The most zeros that finding zeros 1 .. p of each of ``orders``, one
    at a time from an empty cache, can find.  An order with r orders of its
    chain below is given p zeros, the order below it p + 1, ..., its root
    p + r; orders of one chain share them.  A bad order raises DomainError
    before any J evaluation."""
    top: dict[float, int] = {}
    for nu in orders:
        _check_order(nu)
        r = _rank(nu)
        top[nu - r] = max(top.get(nu - r, 0), r)
    return sum((r + 1) * p + r * (r + 1) // 2 for r in top.values())


def bessel_zero(nu: float, p: int) -> BesselZero:
    """The p-th positive zero j_{nu,p}, accurate to 1e-10 absolute.

    The error actually reached is set by the accuracy of scipy's J_nu, not
    by the stopping rule: against 30-digit mpmath roots, the 16,646 zeros
    behind the disk spectrum below 1e5 and the 3-ball spectrum below 3e4
    (nu <= 299.5, j < 317) are off by at most 2.4e-13, median 1.8e-14.

    A p that is not an integer raises DomainError, and so does a zero whose
    lower bound max(nu, 0) + (p - 1) pi/2 reaches 2^20, where one ulp
    exceeds 1e-10, both before any J evaluation, or that is found at or
    above 2^20.
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
    in order, with the bits of ``bessel_zero``.

    With a bound up to 2^20, every zero below it is found at the first step
    by the bounded fill of the order's chain, and zeros already cached are
    read with no J evaluation.  Otherwise the zeros are found as the
    iteration reaches them, and it raises DomainError at a zero at or above
    2^20, as ``bessel_zero`` does.  A bound that is NaN or not positive
    raises DomainError before any J evaluation, as a bad order does.
    """
    _check_order(nu)
    if not below > 0:
        raise DomainError(f"bessel_zeros requires below > 0, got {below}")
    if below <= _LIMIT:
        # zeros below 2^20 pass the range check; only nu itself can fail it
        _check_range(nu, 1)
        yield from _zeros_below(nu, below)
        return
    p = 1
    while True:
        _check_range(nu, p)
        for value in _zeros_from(nu, p):
            if value >= below:
                return
            yield value
            p += 1
