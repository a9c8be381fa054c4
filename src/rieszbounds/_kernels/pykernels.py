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
- ``prefix_sums`` sums non-negative terms of any span in 32-bit limb
  columns by ``np.cumsum`` and rounds each prefix once from a 63-bit
  window.
- ``riesz_sum`` and ``power_sum`` build their terms with ``np.power``'s
  own shortcuts for the exponents 1/2, 1 and 2 (see ``riesz_sum``).
"""

import math
import operator
from bisect import bisect_left
from itertools import compress

import numpy as np

from ..errors import DomainError

BACKEND = "python"

#: terms per vectorised step; bounds every temporary array
_CHUNK = 1 << 16
#: below this many terms ``math.fsum`` is faster than the run path
_SMALL = 1024
#: terms per block on the run path: 2**11 mantissas below 2**53 sum to
#: less than 2**64, so a block's uint64 sum is exact
_RUN_BLOCK = 1 << 11
#: sign and exponent bits of a float64
_SIGN_EXP = np.uint64(0xFFF << 52)
#: widest exponent span of a prefix chunk whose shifted mantissas stay
#: below 2**64; limbs per prefix chunk; the least prefix, in units of
#: 2**-1074, that rounds to infinity
_BAND = 11
_CELLS = _CHUNK
_OVERFLOW = (1 << 2098) - (1 << 2044)
_MASK32 = (1 << 32) - 1
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
    # no inf, the sum stays below 2**1023, and the integer total converts
    # to a finite float
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
    """``math.fsum(lams[:i+1])`` for every i, bit for bit, for finite
    terms >= +0.0; other terms, or a prefix that rounds to infinity (where
    ``math.fsum`` overflows), raise DomainError.  Exact limb column sums
    of a chunk (``_limb_sums``) plus the exact total of the chunks before,
    a Python integer, give each prefix, rounded once (``_round_chunk``)."""
    x = np.asarray(lams, dtype=np.float64)
    out = np.empty(len(x))
    if len(x) and not (x.min() >= 0.0 and x.max() < math.inf):
        raise DomainError("prefix sums need finite non-negative terms, "
                          f"got terms from {x.min()} to {x.max()}")
    bits = x.view(np.uint64)
    total = start = 0
    while start < len(x):
        pos, sums = _limb_sums(bits[start:start + _CHUNK], total)
        total = _round_chunk(out[start:start + len(sums)], sums, total, pos)
        start += len(sums)
    return out


def _limb_sums(bits, total):
    """(pos, running sums of a head of ``bits`` in uint64 columns of 32-bit
    limbs at bits pos + 32 w), in units of 2**-1074.

    A term is M << s at pos = E_lo - 1: M < 2**53 its mantissa, E >= 1 its
    biased exponent (1 if subnormal or zero), s = E - E_lo.  Within
    ``_BAND`` binades M << s < 2**64 fills two limbs, else M << (s % 32)
    fills the three columns from s // 32.  A column stays below 2**48;
    there are enough to reach any window above ``total`` and at most
    ``_CELLS`` limbs."""
    exps = np.maximum(bits >> np.uint64(52), np.uint64(1))
    e_lo, e_hi = int(exps.min()), int(exps.max())
    if e_hi > 2047:
        raise DomainError("prefix sums need non-negative terms, got -0.0")
    pos = e_lo - 1
    narrow = e_hi - e_lo <= _BAND
    cols = max(2 if narrow else (e_hi - e_lo) // 32 + 3,
               (total.bit_length() - pos - 31) // 32)
    m = min(len(bits), _CELLS // cols)
    exps = exps[:m]
    mant = bits[:m] - ((exps - np.uint64(1)) << np.uint64(52))
    exps -= np.uint64(e_lo)
    limbs = np.zeros((m, cols), np.uint32)    # keeps the low 32 bits
    if narrow:
        mant <<= exps
        limbs[:, 0] = mant
        limbs[:, 1] = mant >> np.uint64(32)
    else:
        flat = limbs.reshape(-1)
        at = exps >> np.uint64(5)
        at += np.arange(0, m * cols, cols, dtype=np.uint64)
        shift = exps & np.uint64(31)
        flat[at] = low = mant << shift
        flat[at + np.uint64(1)] = low >> np.uint64(32)
        mant >>= np.uint64(32)
        flat[at + np.uint64(2)] = mant >> (np.uint64(32) - shift)
    return pos, np.cumsum(limbs, axis=0, dtype=np.uint64)


def _round_chunk(out, sums, total, pos):
    """Round S_i = total + sum_w sums[i, w] * 2**(pos + 32 w) into ``out``
    and return the last, exact.  S only grows, so the prefixes in
    [2**(beta + 54), 2**(beta + 63)) form one stretch for one window at bit
    beta; the stretches are found from the last down by bisection."""
    def exact(i):
        return total + sum(limb << (pos + 32 * w)
                           for w, limb in enumerate(sums[i].tolist()))

    end = len(out)
    last = exact(end - 1)
    if last >= _OVERFLOW:
        raise DomainError("a prefix sum overflows")
    while end:
        beta = max(0, exact(end - 1).bit_length() - 63)
        least = 1 << (beta + 54)    # 55 bits in the window
        first = bisect_left(range(end), least, key=exact) if beta else 0
        _round_window(out[first:end], sums[first:end], total, pos, beta)
        end = first
    return last


def _round_window(out, sums, total, pos, beta):
    """Round S_i of ``_round_chunk`` into ``out`` from N_i = S_i >> beta,
    its lowest bit set if a bit of S_i below beta is: with 55 to 63 bits
    (or exact at beta = 0) its int64 -> float64 conversion rounds as S_i
    would.  Columns (plus ``total``'s word beside them) carry upwards below
    beta and add into N modulo 2**64 from beta up, exact as N < 2**63."""
    top = pos + 32 * sums.shape[1]    # at or above beta
    low = total & ((1 << pos) - 1)
    window = np.full(len(out), (((total >> top) << (top - beta))
                                + (low >> beta)) % 2**64, np.uint64)
    rest = np.full(len(out), low & ((1 << beta) - 1) != 0, np.uint64)
    carry = 0
    for w in range(sums.shape[1]):
        above = pos + 32 * w - beta
        word = sums[:, w] + (carry + ((total >> (pos + 32 * w)) & _MASK32))
        carry = 0
        if above <= -32:
            carry = word >> np.uint64(32)
            word &= np.uint64(_MASK32)
        elif above < 0:
            window += word >> np.uint64(-above)
            word &= np.uint64((1 << -above) - 1)
        else:    # a column 63 or more bits above beta is 0, as N < 2**63
            window += word << np.uint64(above)
            continue
        rest |= word
    window += carry    # the last column's carry, at bit top = beta
    window |= np.minimum(rest, np.uint64(1), out=rest)
    np.multiply(window.view(np.int64), math.ldexp(1.0, beta - 1074),
                out=out)
