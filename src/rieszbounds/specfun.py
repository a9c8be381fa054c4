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

* Roots are scanned, one zero at a time, in half steps from max(nu, 0)
  for the first zero (j_{nu,1} > nu) and otherwise pi/2 above the
  previous zero (consecutive zeros are more than pi/2 apart).  From 512
  up, the scan starts at the last point of that grid at or below Qu and
  Wong's lower bound nu + t^(2/3) (nu/2)^(1/3) on zero p, t = 3 pi (4p -
  1)/8, taken 4 ulps low: it passes only points with no zero below them,
  so the bracket and the bits are those of the scan from the grid's start.
* Interlacing brackets, in one batch.  Zeros of neighbouring orders
  interlace, j_{nu-1,p} < j_{nu,p} < j_{nu-1,p+1} (DLMF 10.21(i)), and J_nu
  has sign (-1)^(p-1) just above j_{nu-1,p}.  Each order's cache records a
  bound below which it holds every zero.  If order nu - 1 holds every zero
  below a bound, K of them, zeros 1 .. K-1 of order nu lie between
  consecutive ones, and zero K lies in (j_{nu-1,K}, bound) exactly when
  J_nu changes sign there.  One J_nu evaluation at the bound decides it
  (none if the bound is j_{nu-1,K+1} or at least _zero_bound(nu, K)); no
  zero at or above it is found.
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
  one ulp exceeds 1e-10, is cached or returned, and ``bessel_zero``
  refuses a zero whose lower bound, max(nu, 0) + (p - 1) pi/2 or
  (p - 1/2) pi, reaches 2^20 before any J evaluation.

Each query is one bounded fill of a chain: ``bessel_zeros(nu, below)``
iterates over the zeros of one order below a bound, as the ball spectra read
them, and ``bessel_zero(nu, p)`` reads zero p after filling below an upper
bound on it (``_zero_bound``); ``chain_zeros`` bounds the zeros found.
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
    if not nu >= -0.5:
        raise DomainError(f"bessel_j requires nu >= -1/2, got {nu}")
    if not x >= 0:
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


def _scan_root(nu: float, zeros: _OrderZeros, bound: float) -> None:
    """Append zeros of the chain root nu, bracketed one at a time by a
    sign-change scan, through its first zero at or above ``bound``.  A
    zero found at or above 2^20 is not cached: every zero below 2^20 is
    then, and the order's bound becomes 2^20."""
    while zeros.bound < _LIMIT and zeros.reach() < bound:
        # j_{nu,1} > max(nu, 0); consecutive zeros are more than pi/2 apart
        a = zeros[-1] + 0.5 * math.pi if zeros else max(nu, 0.0)
        if nu >= 1.0:
            # zero p = len(zeros) + 1 lies above Qu and Wong's nu + t^(2/3)
            # (nu/2)^(1/3), t = 3 pi (4p - 1)/8: the grid points at or
            # below it, taken 4 ulps low, hold no sign change to scan
            t = 3 * math.pi * (4 * len(zeros) + 3) / 8
            low = nu + t ** (2 / 3) * (nu / 2) ** (1 / 3)
            low -= 4 * math.ulp(low)
            while a + _SCAN_STEP <= low:
                a += _SCAN_STEP
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
        _scan_root(nu, zeros, bound)
        return
    lower = _zero_cache[nu - 1.0]
    n = len(zeros)
    k = bisect_left(lower, bound)
    # j_{nu,K+1} > j_{nu-1,K+1} >= bound, so at most K zeros lie below;
    # J_nu has sign (-1)^(K-1) just above j_{nu-1,K}, and zero K lies
    # below j_{nu-1,K+1} and below its own upper bound
    top = k - 1
    if n < k and (k < len(lower) and lower[k] == bound
                  or _zero_bound(nu, k) <= bound
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
    if not -0.5 <= nu < _LIMIT:
        raise DomainError(f"bessel_zero requires -1/2 <= nu < 2^20, got {nu}")


def _check_index(p) -> int:
    """Zero index ``p`` as an int; DomainError unless an integer >= 1."""
    try:
        p = operator.index(p)
    except TypeError:
        raise DomainError(
            f"bessel_zero requires an integer p, got {p!r}") from None
    if p < 1:
        raise DomainError(f"bessel_zero requires p >= 1, got {p}")
    return p


def _fill_chain(nu: float, bound: float) -> _OrderZeros:
    """The cached zeros of order nu, after filling each order of its chain,
    from the lowest that needs it, to hold every zero below ``bound``."""
    chain = [float(nu)]
    with _cache_lock:
        for order in chain:    # down to a root or an order that holds them
            zeros = _zero_cache.setdefault(order, _OrderZeros())
            if _rank(order) and zeros.reach() < bound:
                chain.append(order - 1.0)
        for order in reversed(chain):
            zeros = _zero_cache[order]
            if zeros.reach() < bound:
                _fill_below(order, zeros, bound)
        return zeros


def _zero_bound(nu: float, p: int) -> float:
    """An upper bound on j_{nu,p}, 16 ulps above its formula's value.  For
    nu <= 1/2, p pi = j_{1/2,p}, as j_{nu,p} grows with nu (DLMF 10.21(iv)).
    Above 1/2, the smaller of McMahon's (p + nu/2 - 1/4) pi (the phase
    theta_nu(x) - x of DLMF 10.18 decreases to -(nu/2 + 1/4) pi, as x M_nu^2
    does to 2/pi, Watson 13.74) and Qu and Wong's nu + |a_p| (nu/2)^(1/3) +
    (3/20) |a_p|^2 (nu/2)^(-1/3) (Trans. AMS 351, 1999), with the Airy zero
    |a_p| <= t^(2/3) (1 + 5/48 t^-2), t = 3 pi (4p - 1)/8 (DLMF 9.9.6,
    9.9.18; Pittaluga and Sacripante, SIAM J. Math. Anal. 22, 1991)."""
    if nu <= 0.5:
        bound = p * math.pi
    else:
        t = 3 * math.pi * (4 * p - 1) / 8
        a = t ** (2 / 3) * (1 + 5 / 48 / (t * t))
        s = (nu / 2) ** (1 / 3)
        bound = min((p + nu / 2 - 0.25) * math.pi,
                    nu + a * s + 0.15 * a * a / s)
    return bound + 16 * math.ulp(bound)


def _count_below(nu: float, x: float) -> float:
    """An upper bound on the zeros of J_nu below x.  Below nu = 1/2,
    j_{nu,k} >= j_{-1/2,k} = (k - 1/2) pi.  From 1/2 up, none lies below
    low = nu + 1.8557 nu^(1/3) (-a_1 / 2^(1/3) = 1.85575...), they lie at
    least pi apart, and zero k lies above nu + |a_k| (nu/2)^(1/3) (Qu and
    Wong), with |a_k| >= t^(2/3), t = 3 pi (4k - 1)/8, so below x only
    k < (8 y^(3/2) / (3 pi) + 1) / 4 can, y = (x - nu) (nu/2)^(-1/3)."""
    if nu < 0.5:
        return 0.5 + x / math.pi
    low = nu + 1.8557 * nu ** (1 / 3)
    if x <= low:
        return 0.0
    y = (x - nu) / (nu / 2) ** (1 / 3)
    return min(1 + (x - low) / math.pi,
               (8 * y * math.sqrt(y) / (3 * math.pi) + 1) / 4)


def chain_zeros(orders, p: int) -> int:
    """The most zeros that ``bessel_zero(nu, p)`` for each of ``orders`` can
    find from an empty cache: each order of a chain, up to the highest
    asked, counts those below the largest of their bounds, and at most 2^20,
    where each fill stops; its root one more, which its scan finds past it.
    A bad order, or a p that is not an integer >= 1, raises DomainError
    before any J evaluation."""
    p = _check_index(p)
    chains: dict[float, tuple[int, float]] = {}
    for nu in orders:
        _check_order(nu)
        r = _rank(nu)
        x = min(_zero_bound(nu, min(p, 2 ** 21)), _LIMIT)  # j_{nu,2^21} > 2^20
        top, bound = chains.get(nu - r, (0, 0.0))
        chains[nu - r] = (max(top, r), max(bound, x))
    return sum(1 + sum(int(_count_below(root + k, x)) for k in range(r + 1))
               for root, (r, x) in chains.items())


def bessel_zero(nu: float, p: int) -> BesselZero:
    """The p-th positive zero j_{nu,p}, accurate to 1e-10 absolute.

    The error actually reached is set by the accuracy of scipy's J_nu, not
    by the stopping rule: against 30-digit mpmath roots, the 16,646 zeros
    behind the disk spectrum below 1e5 and the 3-ball spectrum below 3e4
    (nu <= 299.5, j < 317) are off by at most 2.4e-13, median 1.8e-14.

    Zero p is read after its chain is filled below ``_zero_bound(nu, p)``;
    a bound that fell short would raise ConvergenceError.  A p that is not
    an integer >= 1 raises DomainError, and so does a zero whose lower
    bound reaches 2^20, where one ulp exceeds 1e-10, both before any J
    evaluation, or a zero that is found at or above 2^20.  The lower bound
    is the larger of max(nu, 0) + (p - 1) pi/2 (j_{nu,1} > max(nu, 0), and
    zeros lie more than pi/2 apart) and (p - 1/2) pi = j_{-1/2,p} (zeros
    grow with nu); for nu = 0, p >= 333,773 is refused, and 333,772 zeros
    lie below 2^20.
    """
    _check_order(nu)
    p = _check_index(p)
    if max(max(nu, 0.0) + (p - 1) * (0.5 * math.pi),
           (p - 0.5) * math.pi) >= _LIMIT:
        raise DomainError(
            f"bessel_zero requires max(nu, 0) + (p - 1) pi/2 < 2^20 and "
            f"(p - 1/2) pi < 2^20, got nu={nu}, p={p}: one ulp of such a "
            "zero exceeds 1e-10")
    bound = _zero_bound(nu, p)
    # a cache only grows, and a zero once cached keeps its bits
    zeros = _fill_chain(nu, min(bound, _LIMIT))
    if len(zeros) >= p and zeros[p - 1] < bound:
        return BesselZero(order=float(nu), index=p, value=zeros[p - 1])
    if bound < _LIMIT:
        raise ConvergenceError(f"zero {p} of J_{nu} is above bound {bound!r}")
    raise DomainError(f"zero {p} of J_{nu} lies at or above 2^20, where one "
                      "ulp exceeds 1e-10")


def bessel_zeros(nu: float, below: float) -> Iterator[float]:
    """The positive zeros j_{nu,1}, j_{nu,2}, ... of J_nu below ``below``,
    in order, with the bits of ``bessel_zero``, from one bounded fill of
    the order's chain (no J evaluation for zeros already cached).  A bound
    that is NaN, not positive or above 2^20 raises DomainError before any J
    evaluation, as a bad order does.
    """
    _check_order(nu)
    if not 0 < below <= _LIMIT:
        raise DomainError(f"bessel_zeros requires below > 0 and at most "
                          f"2^20, got {below}")
    zeros = _fill_chain(nu, below)
    yield from zeros[:bisect_left(zeros, below)]
