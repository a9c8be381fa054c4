"""Pure-Python accumulation kernels.

Fallback for the compiled extension, and the accuracy reference: every sum
here is correctly rounded, bit for bit what ``math.fsum`` returns.

- ``exact_sum`` buckets the terms by binary exponent and adds the integer
  halves of their mantissas with ``np.bincount``; the few bucket totals are
  exact, and one ``math.fsum`` over them rounds once.  Short, non-finite or
  extreme-exponent input, and a zero result, go to ``math.fsum`` itself.
- ``prefix_sums`` keeps the running sum of positive terms as a Python
  integer at a common binary scale, so each prefix is rounded only once, on
  conversion back to float.  Other input takes a Shewchuk partials loop.
"""

import math
import operator
from bisect import bisect_left
from itertools import accumulate

import numpy as np

BACKEND = "python"

#: terms per vectorised step; bounds every temporary array
_CHUNK = 1 << 16
#: below this many terms ``math.fsum`` is faster than bucketing
_SMALL = 1024
#: terms per bucket set: each half-mantissa sum stays below 2**53
_BLOCK = 1 << 26
#: interleaved accumulators per exponent, so that runs of terms with the
#: same exponent do not serialise ``np.bincount`` on one memory cell
_LANES = 8
_LANE = np.tile(np.arange(_LANES, dtype=np.int8), _CHUNK // _LANES)
#: smallest frexp exponent of a normal float64
_EMIN = -1021


def _bucket_parts(block, emax):
    """Exact per-exponent partial sums of ``block`` as a list of floats.

    A term m * 2**e (frexp form) is split into the integers
    hi = trunc(m * 2**27) and lo = (m * 2**27 - hi) * 2**26, worth
    hi * 2**(e-27) + lo * 2**(e-53).  With at most ``_BLOCK`` terms every
    per-exponent sum of hi or lo is an integer below 2**53, hence exact in
    float64 whatever the order of addition, and ``math.ldexp`` scales it
    exactly.  Returns None if an exponent lies outside [_EMIN, emax].
    """
    hi_acc = np.zeros(emax - _EMIN + 1)
    lo_acc = np.zeros(emax - _EMIN + 1)
    used_lo, used_hi = emax, _EMIN
    for start in range(0, len(block), _CHUNK):
        m, e = np.frexp(block[start:start + _CHUNK])
        e_lo, e_hi = int(e.min()), int(e.max())
        if e_lo < _EMIN or e_hi > emax:
            return None
        used_lo, used_hi = min(used_lo, e_lo), max(used_hi, e_hi)
        e -= e_lo
        e *= _LANES
        idx = e + _LANE[:len(e)]
        m *= 2.0 ** 27
        hi = np.trunc(m)
        m -= hi
        m *= 2.0 ** 26
        at = e_lo - _EMIN
        width = e_hi - e_lo + 1
        for acc, weights in ((hi_acc, hi), (lo_acc, m)):
            sums = np.bincount(idx, weights, minlength=width * _LANES)
            acc[at:at + width] += sums.reshape(width, _LANES).sum(axis=1)
    parts = []
    for acc, shift in ((hi_acc, -27), (lo_acc, -53)):
        totals = acc[used_lo - _EMIN:used_hi - _EMIN + 1]
        used = np.flatnonzero(totals)
        parts += map(math.ldexp, totals[used].tolist(),
                     (used + (used_lo + shift)).tolist())
    return parts


def exact_sum(terms):
    """Correctly rounded sum of a float64 array: ``math.fsum(terms)``.

    The result has the same bits as ``math.fsum``, including the sign of a
    zero, and non-finite input gives ``math.fsum``'s result or exception.
    """
    terms = np.asarray(terms, dtype=np.float64)
    n = len(terms)
    if n < _SMALL:
        return math.fsum(terms.tolist())
    # |term| < 2**emax and n < 2**bit_length keep every partial sum, here
    # and in math.fsum, below 2**1023: neither can overflow
    emax = 1023 - n.bit_length()
    parts = []
    with np.errstate(invalid="ignore"):    # inf - inf marks inf input
        for start in range(0, n, _BLOCK):
            block = _bucket_parts(terms[start:start + _BLOCK], emax)
            if block is None:
                return math.fsum(terms)
            parts += block
    if not all(map(math.isfinite, parts)):
        return math.fsum(terms)
    total = math.fsum(parts)
    if total == 0.0:    # math.fsum decides the sign of an exact zero
        return math.fsum(terms)
    return total


def riesz_sum(lams, sigma, z):
    """Sum of (z - lam)**sigma over eigenvalues strictly below z.

    ``lams`` must be sorted ascending.  For ``sigma == 0`` the value is the
    strict counting function.  Negative ``sigma`` is permitted as long as no
    eigenvalue equals ``z``.  Returns ``(value, count)``.
    """
    idx = bisect_left(lams, z)
    if sigma == 0.0:
        return float(idx), idx
    if idx == 0:
        return 0.0, 0
    terms = z - np.asarray(lams[:idx], dtype=float)
    np.power(terms, sigma, out=terms)
    return exact_sum(terms), idx


def power_sum(lams, k, p):
    """Exact sum of lams[i]**p for i < k."""
    head = np.asarray(lams[:k], dtype=float)
    if p == 1.0:
        return exact_sum(head)
    return exact_sum(np.power(head, p))


def prefix_sums(lams):
    """Correctly rounded running prefix sums of ``lams``.

    ``out[i]`` equals ``math.fsum(lams[:i+1])`` exactly.  For positive
    normal terms whose binary exponents span few enough bits that no prefix
    overflows, each term is an integer multiple of 2**qmin, the running
    sums are exact Python integers, and ``float(int)`` rounds each one
    correctly.  Anything else takes the Shewchuk loop.
    """
    x = np.asarray(lams, dtype=np.float64)
    n = len(x)
    if n == 0:
        return np.empty(0)
    smallest, largest = float(x.min()), float(x.max())
    if not (smallest > 0.0 and largest < math.inf):
        return _shewchuk_prefix_sums(x)
    e_lo = math.frexp(smallest)[1]
    e_hi = math.frexp(largest)[1]
    bits = n.bit_length()
    # prefix < 2**(e_hi + bits): finite, and below 2**1024 in units 2**qmin
    if e_lo < _EMIN or e_hi + bits > 1023 or e_hi - e_lo + 53 + bits > 1023:
        return _shewchuk_prefix_sums(x)
    qmin = e_lo - 53
    out = np.empty(n)
    carry = 0
    for start in range(0, n, _CHUNK):
        m, e = np.frexp(x[start:start + _CHUNK])
        m *= 2.0 ** 53
        e -= e_lo
        ints = map(operator.lshift, m.astype(np.int64).tolist(), e.tolist())
        sums = list(accumulate(ints, initial=carry))
        carry = sums[-1]
        rounded = np.fromiter(map(float, sums), np.float64, len(sums))
        out[start:start + len(e)] = np.ldexp(rounded[1:], qmin)
    return out


def _shewchuk_prefix_sums(lams):
    # the running state is a list of non-overlapping partials, rounded after
    # every addition
    out = np.empty(len(lams), dtype=float)
    partials = []
    for i, x in enumerate(lams):
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
