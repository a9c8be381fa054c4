"""Accumulation kernels in Python and numpy.

Every sum here is correctly rounded, bit for bit what ``math.fsum``
returns.

- ``exact_sum`` adds a sorted array run by run.  Along sorted terms (a Riesz
  sum's (z - lambda_i)**sigma, or powers, logs or reciprocals of a sorted
  spectrum, which change sign at most once) the sign and the binary
  exponent change monotonically, so the terms with one sign and exponent
  fill one contiguous run.  The integer mantissas of each run are added
  exactly in uint64 blocks read straight from the float bits, and the total
  is rounded once.  Short, unsorted, subnormal, non-finite or near-overflow
  input, and a zero result, go to ``math.fsum`` itself.
- ``prefix_sums`` keeps the running sum of positive terms as a Python
  integer at a common binary scale, so each prefix is rounded only once, on
  conversion back to float.  Other input takes a Shewchuk partials loop.
"""

import math
import operator
from bisect import bisect_left
from itertools import accumulate, compress

import numpy as np

BACKEND = "python"

#: terms per vectorised step; bounds every temporary array
_CHUNK = 1 << 16
#: below this many terms ``math.fsum`` is faster than the run path
_SMALL = 1024
#: smallest frexp exponent of a normal float64
_EMIN = -1021
#: terms per block on the run path: 2**11 mantissas below 2**53 sum to
#: less than 2**64, so a block's uint64 sum is exact
_RUN_BLOCK = 1 << 11
#: sign and exponent bits of a float64
_SIGN_EXP = np.uint64(0xFFF << 52)
#: spacing of the terms sampled to find the stretches that hold a run
#: start, and the offsets of the terms of one stretch, both ends included
_MARK = 1 << 8
_STRETCH = np.arange(_MARK + 1)


def _run_sum(terms):
    """Exact sum of sorted, finite, non-subnormal terms far enough from
    overflow; None for any other input, or for an exact zero.

    Along sorted terms the sign and the biased exponent E change
    monotonically, so the terms with one sign and exponent form one run.
    One pass per chunk checks the order; the run starts are looked for
    only in the stretches of ``_MARK`` terms whose end terms differ.  A
    normal term is M * 2**(E - 1075) with the integer mantissa
    M = bits - (sign and exponent bits) + 2**52 < 2**53.  The runs are cut
    into blocks of at most ``_RUN_BLOCK`` terms, ``np.add.reduceat`` sums
    the bits of each block modulo 2**64, from which the exact mantissa sum
    follows.  The signed block totals are shifted into one Python integer
    at scale 2**(E_lo - 1075) and rounded once.
    """
    n = len(terms)
    ordered = np.greater_equal if terms[0] <= terms[-1] else np.less_equal
    for start in range(0, n - 1, _CHUNK):
        chunk = terms[start:start + _CHUNK + 1]
        if not ordered(chunk[1:], chunk[:-1]).all():
            return None
    bits = terms.view(np.uint64)
    # a stretch of _MARK terms whose first term has the sign and exponent
    # of the next stretch's first term (or of the last term) lies in one
    # run; the other stretches are read term by term, as rows of a table
    marks = np.concatenate((bits[::_MARK], bits[-1:])) >> 52
    firsts = np.nonzero(marks[1:] != marks[:-1])[0] * _MARK
    runs = [np.zeros(1, np.int64)]
    for at in range(0, len(firsts), _CHUNK // _MARK):
        rows = np.minimum(firsts[at:at + _CHUNK // _MARK, None] + _STRETCH,
                          n - 1)
        heads = bits[rows] >> 52
        row, col = np.nonzero(heads[:, 1:] != heads[:, :-1])
        runs.append(rows[row, col + 1])
    runs = np.concatenate(runs)
    exps = (bits[runs] >> 52 & 0x7FF).tolist()
    nonzero = [e for e in exps if e]
    if not nonzero:
        return None
    e_lo, e_hi = min(nonzero), max(exps)
    width = n.bit_length()
    # as in prefix_sums: no inf, the sum stays below 2**1023, and the
    # integer total converts to a finite float
    if e_hi - 1022 + width > 1023 or e_hi - e_lo + 53 + width > 1023:
        return None
    zeros = len(nonzero) < len(exps)
    if zeros:
        # the zeros, of either sign, lie between the negative and the
        # positive terms and add nothing; a subnormal among them would
        first = exps.index(0)
        last = len(exps) - exps[::-1].index(0)
        if np.any(terms[runs[first]:runs[last] if last < len(runs) else n]):
            return None
    grid = np.arange(0, n + _RUN_BLOCK, _RUN_BLOCK)
    grid[-1] = n
    edges = np.sort(np.concatenate((grid, runs)))
    sums = np.add.reduceat(bits, edges[:-1])
    heads = bits[edges[:-1]] & _SIGN_EXP
    counts = (edges[1:] - edges[:-1]).astype(np.uint64)
    sums -= counts * (heads - (1 << 52))
    sums[counts == 0] = 0    # reduceat gives a repeated edge one term
    heads >>= 52
    shifts = (heads & 0x7FF).astype(np.int64) - e_lo
    if zeros:    # only the blocks of zeros lie below E_lo
        below = shifts < 0
        sums[below] = 0
        shifts[below] = 0
    parts = list(map(operator.lshift, sums.tolist(), shifts.tolist()))
    total = sum(parts) - 2 * sum(compress(parts, (heads >> 11).tolist()))
    if total == 0:    # math.fsum decides the sign of an exact zero
        return None
    return math.ldexp(float(total), e_lo - 1075)


def exact_sum(terms):
    """Correctly rounded sum of a float64 array: ``math.fsum(terms)``.

    The result has the same bits as ``math.fsum``, including the sign of a
    zero, and non-finite input gives ``math.fsum``'s result or exception.
    Sorted input of at least ``_SMALL`` terms takes the run path when its
    terms are finite, not subnormal and far enough from overflow; all other
    input goes to ``math.fsum``.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if len(terms) >= _SMALL:
        total = _run_sum(terms)
        if total is not None:
            return total
    return math.fsum(terms.tolist())


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
