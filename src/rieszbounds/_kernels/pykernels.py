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
- ``prefix_sums`` keeps the running sum of positive normal terms exactly,
  at the binary scale of the smallest term, and rounds each prefix once.
  When the terms' exponents span at most ``_LIMB - bit_length(n)`` binades
  (the eigenvalues of a spectrum with n near 10**6, not their squares),
  the running sum is two uint64 limbs split at bit ``_LIMB``, added by
  ``np.cumsum`` a chunk at a time; a wider span keeps it as a Python
  integer, one addition per term.  Non-positive, subnormal, non-finite or
  near-overflow input takes a Shewchuk partials loop.
- ``riesz_sum`` and ``power_sum`` build their terms with ``np.power``'s
  own shortcuts for the exponents 1/2, 1 and 2 (see ``riesz_sum``).
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
#: fraction bits of a float64, and the implicit bit of a normal one
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
#: split bit of the two-limb prefix path: a chunk of low limbs below
#: 2**_LIMB, plus a carried one, sums below (_CHUNK + 1) * 2**_LIMB < 2**64
_LIMB = 64 - _CHUNK.bit_length()
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


def _powers(t, p, out=None):
    """``np.power(t, p)`` for a scalar ``p``, bit for bit, into ``out``
    (None or ``t``); at ``p == 1`` the result is ``t`` itself."""
    if p == 1.0:
        return t
    if p == 0.5:
        return np.sqrt(t, out=out)
    if p == 2.0:
        return np.multiply(t, t, out=out)
    return np.power(t, p, out=out)


def riesz_sum(lams, sigma, z):
    """Sum of (z - lam)**sigma over eigenvalues strictly below z.

    ``lams`` must be sorted ascending.  For ``sigma == 0`` the value is the
    strict counting function.  Negative ``sigma`` is permitted as long as no
    eigenvalue equals ``z``.  Returns ``(value, count)``.

    The terms are ``np.power(z - lams, sigma)`` with a scalar exponent,
    bit for bit, but at sigma = 1/2, 1 and 2 they are built without the
    generic pow loop: ``np.sqrt``, no pass, and ``t * t``.  These are the
    shortcuts that ``np.power`` itself takes for a scalar exponent of 1/2,
    1 and 2, so the arithmetic is the same (``tests/test_kernels.py`` pins
    the equality, on the terms where libm ``pow(x, 0.5)`` and ``sqrt(x)``
    differ too).  Libm ``pow`` and ``np.power`` with an array exponent are
    other functions and can differ from both in the last bit.
    """
    idx = bisect_left(lams, z)
    if sigma == 0.0:
        return float(idx), idx
    if idx == 0:
        return 0.0, 0
    terms = z - np.asarray(lams[:idx], dtype=float)
    return exact_sum(_powers(terms, sigma, out=terms)), idx


def power_sum(lams, k, p):
    """Exact sum of lams[i]**p for i < k, with the terms of ``riesz_sum``'s
    ``np.power``."""
    return exact_sum(_powers(np.asarray(lams[:k], dtype=float), p))


def prefix_sums(lams):
    """Correctly rounded running prefix sums of ``lams``.

    ``out[i]`` equals ``math.fsum(lams[:i+1])`` exactly.  For positive
    normal terms whose binary exponents span few enough bits that no prefix
    overflows, each term is an integer multiple of 2**qmin (qmin = e_lo - 53
    for the smallest term's frexp exponent e_lo), the running sums are
    exact integers, and each is rounded once on conversion back to float:

    - If the exponents span at most ``_LIMB - bit_length(n)`` binades, every
      prefix is below 2**(53 + _LIMB) units, and ``_limb_prefix_sums`` keeps
      it in two uint64 limbs with ``np.cumsum``.
    - Otherwise the running sums are Python integers (``_int_prefix_sums``).

    Non-positive, subnormal or non-finite terms, or a span or size at which
    a prefix could overflow, take the Shewchuk loop.
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
    width = n.bit_length()
    # prefix < 2**(e_hi + width): finite, and below 2**1024 in units 2**qmin
    if (e_lo < _EMIN or e_hi + width > 1023
            or e_hi - e_lo + 53 + width > 1023):
        return _shewchuk_prefix_sums(x)
    if e_hi - e_lo + width <= _LIMB:
        return _limb_prefix_sums(x, e_lo)
    return _int_prefix_sums(x, e_lo)


def _limb_prefix_sums(x, e_lo):
    """Prefix sums of positive normal ``x`` whose frexp exponents lie in
    [e_lo, e_lo + _LIMB - bit_length(n)], one rounding each.

    With the biased exponent E of a term and E_lo = e_lo + 1022, the term is
    M * 2**s units of 2**qmin, where M < 2**53 is its integer mantissa and
    s = E - E_lo.  It is split at bit ``_LIMB`` into a high limb
    M >> (_LIMB - s) and a low limb (M << s) mod 2**_LIMB, and each limb is
    summed by ``np.cumsum``, with the normalised (high, low) pair of the
    last prefix carried into the next chunk.  A prefix is below
    n * 2**(53 + E_hi - E_lo) <= 2**(53 + _LIMB), so after the low limb's
    carry moves into the high limb both limbs are below 2**53, and
    high * 2**_LIMB + low is one IEEE addition of two exact floats:
    correctly rounded.  Scaling by 2**qmin is exact, as every prefix is at
    least the smallest term, a normal float.
    """
    n = len(x)
    out = np.empty(n)
    mask = np.uint64((1 << _LIMB) - 1)
    limb = np.uint64(_LIMB)
    top = 2.0 ** _LIMB
    unit = math.ldexp(1.0, e_lo - 53)
    biased = np.uint64(e_lo + 1022)
    high = low = np.uint64(0)
    for start in range(0, n, _CHUNK):
        bits = x[start:start + _CHUNK].view(np.uint64)
        shifts = (bits >> np.uint64(52)) - biased
        mant = (bits & _FRACTION) | _HIDDEN
        hi = mant >> (limb - shifts)
        lo = (mant << shifts) & mask
        hi[0] += high
        lo[0] += low
        np.cumsum(hi, out=hi)
        np.cumsum(lo, out=lo)
        hi += lo >> limb
        lo &= mask
        high, low = hi[-1], lo[-1]
        part = out[start:start + len(hi)]
        np.multiply(hi, top, out=part)
        part += lo
        part *= unit
    return out


def _int_prefix_sums(x, e_lo):
    """Prefix sums of positive normal ``x`` as Python integers in units of
    2**qmin, rounded once each by ``float``."""
    n = len(x)
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
