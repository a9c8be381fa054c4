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
- The run path (``_run_sum``) takes an array cut into segments, all
  sorted in one direction, and returns one sum per segment, or None for
  the whole call if any segment is unordered, holds a subnormal or comes
  too near overflow; ``_exact_sums`` then sums every segment with
  ``math.fsum``.  The terms of negative sigma rise along a spectrum and
  those of positive sigma fall, so a call that mixes both signs is summed
  by ``math.fsum``, bit for bit the same.  Every term has an integer
  weight, given as ``(m, pos)``:
  a term of weight m counts m times, and a block's mantissa sum is the sum
  of m * (its term's bits), so each distinct eigenvalue's term is built
  and added once however often the eigenvalue repeats.  ``exact_sum`` is
  the one-segment case with every weight 1.
- ``Runs`` (built by ``runs_of``) is a sorted array as its runs of equal
  values with their weights.  ``riesz_sum``, ``riesz_grid``, ``power_sum``
  and ``head_sum`` take weighted ``Runs`` only, and add one weighted term
  per run.
- ``prefix_sums`` sums non-negative terms of any span in 32-bit limb
  columns by ``np.cumsum`` and rounds each prefix once from a 63-bit
  window.
- ``_riesz_layers`` builds the Riesz terms, ``_powers`` of z - lambda, of
  many z: it packs their rows once into one buffer, one segment per z,
  and raises it to each layer of sigmas (one sigma per z) for one
  run-path pass per layer.  ``riesz_grid`` is its one entry: a layer is
  one sigma for every z or one sigma per z, and it checks the layers.
  ``riesz_sum`` sums its one z through ``head_sum``, the count of
  eigenvalues below z being the head, and returns the count beside it;
  it is the one builder of single-z terms, and ``_riesz_layers`` sums a
  row too long to pack through it.

The block bound.  A normal term is M * 2**(E - 1075) with the integer
mantissa M < 2**53, and a block holds terms of one sign and exponent.  Its
uint64 sum of (weight times bits) is taken modulo 2**64, so it is exact
when the block's total weight is at most ``_RUN_BLOCK`` = 2**11: then the
true mantissa sum is below 2**11 * 2**53 = 2**64.  A weight is at most
W = ``_RUN_WEIGHT``.  Let C_i, the position of term i among the weighted
terms, be the total weight of the terms before it.  The blocks are cut at
every run and segment start and at the first term whose C_i reaches each
multiple of the step S = 2**11 + 1 - W (``_RUN_STEP``).  The terms of one
block then have their C_i in one [q S, (q + 1) S), and with its first
term f and last term i the block weighs
C_i + m_i - C_f <= ((q + 1) S - 1) + W - q S, that is S - 1 + W = 2**11.
Cutting at multiples of 2**11 itself would let a block hold 2**11 plus
one weight, and overflow.

The halves.  A block of biased exponent E >= 1 is S * 2**(E - 1075) with
its exact mantissa sum S < 2**64.  Its high half H = S - (S mod 2**11) is
an integer of at most 53 significant bits times 2**11, and its low half
L = S mod 2**11 < 2**11, so both convert to float64 exactly, and H *
2**(E - 1075) and L * 2**(E - 1075) are exact float64 products: their
last bits weigh at least 2**(E - 1075) >= 2**-1074, the subnormal
spacing, so neither underflows (a subnormal term sends the call to
``math.fsum``), and S < w * 2**53 for the block's weight w <= count, the
total weight of the array, so with width = count.bit_length() both stay
below 2**(E + width - 1022), which the guard E <= 2045 - width keeps
below 2**1023, as it keeps every partial sum of a segment.  ``math.fsum``
of the halves of a segment's blocks is therefore the correctly rounded
exact total, the bits of ``math.fsum`` of its terms, however many
binades they span; an exact zero total is left to ``math.fsum`` of the
terms, which gives the zero its sign.
"""

import math
import operator
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from ..errors import DomainError

BACKEND = "python"

#: terms per vectorised step; bounds every temporary array
_CHUNK = 1 << 16
#: below this many terms ``math.fsum`` is faster than the run path
_SMALL = 1024
#: most total weight of a block on the run path: 2**11 mantissas below
#: 2**53 sum to less than 2**64, so a block's uint64 sum is exact
_RUN_BLOCK = 1 << 11
#: most weight of one term (``Runs`` cuts longer runs into pieces), and
#: the block step that keeps a weighted block within ``_RUN_BLOCK``
_RUN_WEIGHT = 1 << 7
_RUN_STEP = _RUN_BLOCK + 1 - _RUN_WEIGHT
#: sign and exponent bits, and mantissa bits, of a float64
_SIGN_EXP = np.uint64(0xFFF << 52)
_MANTISSA = np.uint64((1 << 52) - 1)
#: the top 53 and the low 11 bits of a block's uint64 mantissa sum
_HIGH = np.uint64((1 << 64) - (1 << 11))
_LOW = np.uint64(0x7FF)
#: +-2**(E - 1075) by the sign and biased exponent bits of a term; 0 at
#: E = 0, where the run path meets only zeros
_SCALE = np.ldexp(1.0, np.arange(2048) - 1075)
_SCALE[0] = 0.0
_SCALE = np.concatenate((_SCALE, -_SCALE))
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


def _run_sum(terms, starts, weights):
    """Exact sum of each segment of sorted, finite, non-subnormal terms far
    enough from overflow; None for the whole call if a segment is not.

    ``starts`` holds the first index of each non-empty segment, ascending
    from 0; a segment ends where the next one starts, the last at the end
    of ``terms``.  The result is a list of one sum per segment, None for a
    segment whose sum is an exact zero, or None if any segment is unordered,
    holds a subnormal or lies above the overflow guard.

    ``weights`` is ``(m, pos)``: the integer weight m[i] of each term (1 to
    ``_RUN_WEIGHT``) and its position pos[i] = m[0] + ... + m[i - 1] among
    the weighted terms of the whole array.  The sums are those of the
    weighted terms, ``np.repeat(terms, m)``.

    Along sorted terms the sign and the biased exponent E change
    monotonically, so the terms of a segment with one sign and exponent
    form one run.  One pass per chunk checks each segment's order against
    the direction of most segments, so a segment sorted the other way is
    unordered; the run starts are looked for only in the stretches of
    ``_MARK`` terms whose end terms differ or that hold a segment start.
    A normal term is M * 2**(E - 1075) with the integer mantissa
    M = bits - (sign and exponent bits) + 2**52 < 2**53.  The runs are cut
    into blocks of total weight at most ``_RUN_BLOCK`` (the block bound in
    the module docstring), ``np.add.reduceat`` sums the weighted bits of
    each block modulo 2**64, from which the exact mantissa sum S follows.
    S < 2**64 splits into its top 53 bits and its low 11 bits, and each
    half times 2**(E - 1075) is an exact float64 (the halves in the module
    docstring); a segment's sum is ``math.fsum`` of the exact halves of its
    blocks, its exact total rounded once.
    """
    n = len(terms)
    m, pos = weights
    count = int(pos[-1]) + int(m[-1])
    starts = np.asarray(starts, np.intp)
    first = terms[starts]
    last = terms[np.concatenate((starts[1:], [n])) - 1]
    ordered = (np.greater_equal if np.count_nonzero(first < last)
               >= np.count_nonzero(first > last) else np.less_equal)
    for start in range(0, n - 1, _CHUNK):
        chunk = terms[start:start + _CHUNK + 1]
        ok = ordered(chunk[1:], chunk[:-1])
        if not ok.all():
            # an unordered pair whose second term starts a segment is none
            second = (~ok).nonzero()[0] + (start + 1)
            seg = starts.searchsorted(second, "right") - 1
            if (starts[seg] != second).any():
                return None
    bits = terms.view(np.uint64)
    # a stretch of _MARK terms inside one segment whose first term has the
    # sign and exponent of the next stretch's first term (or of the last
    # term) lies in one run; the other stretches are read term by term, as
    # rows of a table, or, when they are most stretches, with all terms
    marks = np.concatenate((bits[::_MARK], bits[-1:])) >> 52
    cross = marks[1:] != marks[:-1]
    cross[(starts[1:] - 1) // _MARK] = True
    firsts = cross.nonzero()[0] * _MARK
    runs = [starts]
    if 2 * len(firsts) > len(cross):
        for start in range(0, n - 1, _CHUNK):
            heads = bits[start:start + _CHUNK + 1] >> 52
            runs.append((heads[1:] != heads[:-1]).nonzero()[0] + start + 1)
    else:
        for at in range(0, len(firsts), _CHUNK // _MARK):
            rows = np.minimum(firsts[at:at + _CHUNK // _MARK, None]
                              + _STRETCH, n - 1)
            heads = bits[rows] >> 52
            row, col = (heads[:, 1:] != heads[:, :-1]).nonzero()
            runs.append(rows[row, col + 1])
    # a segment start where the sign or exponent changes is there twice;
    # the repeated edge below makes an empty block
    runs = np.concatenate(runs)
    runs.sort()
    exps = bits[runs] >> 52 & 0x7FF
    # no inf, and every block half and every partial sum of a segment
    # stays below 2**1023
    if exps.max() > 2045 - count.bit_length():
        return None
    # the zeros, of either sign, lie between a segment's negative and
    # positive terms and add nothing; a subnormal among them sends the
    # call to math.fsum
    if not exps.all() and (np.bitwise_or.reduceat(bits, runs)[exps == 0]
                           & _MANTISSA).any():
        return None
    # block edges: the runs and segment starts, the end, and the first
    # term whose position among the weighted terms reaches each multiple
    # of the step
    grid = pos.searchsorted(np.arange(_RUN_STEP, int(pos[-1]) + 1,
                                      _RUN_STEP))
    edges = np.concatenate((grid, runs, [n]))
    edges.sort()
    sums = np.add.reduceat(bits * m, edges[:-1])
    signs = bits[edges[:-1]] & _SIGN_EXP
    # block weights from the positions of the edges, the count at the end
    at = np.append(pos[edges[:-1]], count)
    counts = (at[1:] - at[:-1]).astype(np.uint64)
    sums -= counts * (signs - (1 << 52))
    sums[counts == 0] = 0    # reduceat gives a repeated edge one term
    # each block as its exact high and low halves, side by side; the
    # scale of a zero's exponent is 0, so zeros add nothing
    scale = _SCALE[signs >> 52]
    halves = np.empty((len(sums), 2))
    np.multiply((sums & _HIGH).astype(np.float64), scale, out=halves[:, 0])
    np.multiply((sums & _LOW).astype(np.float64), scale, out=halves[:, 1])
    parts = halves.ravel().tolist()
    # math.fsum of the exact halves rounds a segment's exact total once;
    # an exact zero goes to math.fsum of the terms, for its sign
    cuts = (2 * edges[:-1].searchsorted(starts)).tolist() + [len(parts)]
    return [math.fsum(parts[a:b]) or None for a, b in zip(cuts, cuts[1:])]


def _exact_sums(terms, starts, weights):
    """``math.fsum`` of each segment of ``terms``, weighted (as in
    ``_run_sum``), bit for bit: the run path for at least ``_SMALL``
    weighted terms, ``math.fsum`` of the repeated terms of a segment for an
    exact zero, and of every segment when the run path leaves the call."""
    m, pos = weights
    sums = (_run_sum(terms, starts, weights)
            if len(m) and pos[-1] + m[-1] >= _SMALL else None)
    ends = [*starts[1:], len(terms)]
    return [math.fsum(np.repeat(terms[a:b], m[a:b]).tolist())
            if total is None else total
            for total, a, b in zip(sums or [None] * len(starts), starts,
                                   ends)]


def exact_sum(terms):
    """Correctly rounded sum of a float64 array: ``math.fsum(terms)``.

    The result has the same bits as ``math.fsum``, including the sign of a
    zero, and non-finite input gives ``math.fsum``'s result or exception.
    Sorted input of at least ``_SMALL`` terms takes the run path when its
    terms are finite, not subnormal and far enough from overflow; all other
    input goes to ``math.fsum``.  It is the one-segment ``_exact_sums``
    with every weight 1.
    """
    terms = np.asarray(terms, dtype=np.float64)
    n = len(terms)
    return _exact_sums(terms, [0], (np.ones(n, np.uint8), np.arange(n)))[0]


class Runs(NamedTuple):
    """A sorted array as its runs of equal values, each value once with
    its weight: ``np.repeat(values, weights)`` is the array.  The Riesz
    and head sums take weighted ``Runs`` only.

    A run longer than ``_RUN_WEIGHT`` is cut into pieces of at most that
    many, so one value can appear more than once.  ``weights`` are uint8.
    ``offsets``, int64 and one longer, are the running counts: offsets[r]
    is the index of piece r's first entry in the array (the number of
    entries before it), and offsets[-1] the length of the array.
    """

    values: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray


def runs_of(lams):
    """The ``Runs`` of an array; equal means equal bits."""
    lams = np.asarray(lams, dtype=np.float64)
    n = len(lams)
    bits = lams.view(np.uint64)
    edge = np.ones(n + 1, bool)    # where a run starts, and the end
    np.not_equal(bits[1:], bits[:-1], out=edge[1:n])
    offsets = np.flatnonzero(edge).astype(np.int64, copy=False)
    size = np.diff(offsets)
    if len(size) and size.max() > _RUN_WEIGHT:
        # piece j of a run starts j * _RUN_WEIGHT after the run
        pieces = -(-size // _RUN_WEIGHT)
        before = np.repeat(np.cumsum(pieces) - pieces, pieces)
        offsets = np.append(np.repeat(offsets[:-1], pieces)
                            + (np.arange(len(before)) - before)
                            * _RUN_WEIGHT, n)
        size = np.diff(offsets)
    return Runs(lams[offsets[:-1]], size.astype(np.uint8), offsets)


def _powers(t, p, out=None):
    """``np.power(t, p)`` for a scalar ``p``, bit for bit, into ``out``
    (None or ``t``); at ``p == 1`` the result is ``t`` itself.  A power
    that overflows is inf without a warning; the sum then is inf too.

    At p = 1/2, 1 and 2 the powers are built without the generic pow loop:
    ``np.sqrt``, no pass, and ``t * t``.  These are the shortcuts that
    ``np.power`` itself takes for a scalar exponent of 1/2, 1 and 2, so the
    arithmetic is the same (``tests/test_kernels.py`` pins the equality, on
    the terms where libm ``pow(x, 0.5)`` and ``sqrt(x)`` differ too).  Libm
    ``pow`` and ``np.power`` with an array exponent are other functions and
    can differ from both in the last bit.
    """
    if p == 1.0:
        return t
    if p == 0.5:
        return np.sqrt(t, out=out)
    with np.errstate(over="ignore"):
        if p == 2.0:
            return np.multiply(t, t, out=out)
        return np.power(t, p, out=out)


def riesz_sum(runs, sigma, z):
    """Sum of (z - lam)**sigma over eigenvalues strictly below z.

    ``runs`` are the weighted ``Runs`` of the eigenvalues.  For
    ``sigma == 0`` the value is the strict counting function.  Negative
    ``sigma`` is permitted as long as no eigenvalue equals ``z``.  Returns
    ``(value, count)``: the value ``riesz_grid`` gives at z, and the count
    of eigenvalues below z (with their multiplicities).
    """
    count = int(runs.offsets[runs.values.searchsorted(z)])    # bisect_left
    if sigma == 0.0:
        return float(count), count
    # each array z - values is raised in place
    return head_sum(runs, count, lambda values: _powers(
        t := z - values, sigma, out=t)), count


def riesz_grid(runs, sigmas, zs):
    """``riesz_sum(runs, s, z)[0]`` at each z of ``zs`` for each layer of
    ``sigmas``, one list per layer, by ``_riesz_layers``.  A layer is one s
    for every z (a real number or a 0-d array) or a sequence of one s per
    z.  A NaN s, or a per-z layer of another length than ``zs``, raises
    DomainError before any sum."""
    layers = np.empty((len(sigmas), len(zs)))
    for layer, sigma in zip(layers, sigmas):
        if np.ndim(sigma) and len(sigma) != len(zs):
            raise DomainError(f"a sigma layer needs one sigma per z, got "
                              f"{len(sigma)} sigmas for {len(zs)} z values")
        layer[:] = sigma
    if np.isnan(layers).any():
        raise DomainError(f"sigma must be a number, got {math.nan}")
    return _riesz_layers(runs, layers, zs)


def _riesz_layers(runs, sigmas, zs):
    """The Riesz sums at each z of ``zs`` for each layer of ``sigmas``,
    one list per layer.

    ``sigmas`` is a float array of layers of one sigma per z.  A row's
    terms ``_powers(z - values[:size], sigma)`` are one per run below z,
    weighted by its count; at sigma = 0 the sum is the count.  The rows
    that sum terms are cut into batches by ``searchsorted`` on their
    running sizes: a batch takes the next rows while their terms fit in
    ``_CHUNK``, and a row with more terms is a batch of its own, summed
    layer by layer by ``riesz_sum`` without packing.  The rows of a
    larger batch are packed once into one buffer, one segment per row, by
    one index that ``np.repeat`` and ``arange`` build: it gathers each
    row's z - lambda, weights and positions (which run on across the
    rows).  Each layer raises a copy of the buffer to its powers, a
    stretch of rows with equal sigmas at a time, and adds it by one
    ``_exact_sums`` pass.
    """
    values, m, offsets = runs
    zs = np.asarray(zs, dtype=np.float64)
    sizes = values.searchsorted(zs)    # bisect_left
    counts = offsets[sizes]
    live = sigmas != 0.0    # sums, not counts
    out = np.where(live, 0.0, counts).tolist()
    sizes[~live.any(axis=0)] = 0
    rows = sizes.nonzero()[0]
    lengths = sizes[rows]
    ends = lengths.cumsum()    # a row's terms end here in the packed rows
    at = 0
    while at < len(rows):
        size = int(lengths[at])
        end = max(at + 1, int(ends.searchsorted(ends[at] - size + _CHUNK,
                                                "right")))
        if end == at + 1:    # nothing to pack
            i = int(rows[at])
            for layer, sigma in zip(out, sigmas[:, i].tolist()):
                if sigma:
                    layer[i] = riesz_sum(runs, sigma, zs[i])[0]
            at = end
            continue
        batch = rows[at:end]
        lengths_b = lengths[at:end]
        starts = ends[at:end] - lengths_b
        starts -= starts[0]
        # the index of each packed term among the runs of its row
        index = np.arange(int(starts[-1] + lengths_b[-1]))
        index -= np.repeat(starts, lengths_b)
        base = np.repeat(zs[batch], lengths_b)
        base -= values[index]
        before = counts[batch].cumsum() - counts[batch]
        pos = offsets[index]
        pos += np.repeat(before, lengths_b)
        weights = m[index], pos
        del index
        # one layer raises the buffer itself, more raise a copy each
        terms = base if len(out) == 1 else np.empty_like(base)
        for layer, sigma, keep in zip(out, sigmas[:, batch], live[:, batch]):
            if not keep.any():
                continue
            if terms is not base:
                np.copyto(terms, base)
            # one power pass per stretch of rows with equal sigmas
            turns = (sigma[1:] != sigma[:-1]).nonzero()[0] + 1
            edges = [0, *starts[turns].tolist(), len(terms)]
            for k, a, b in zip([0, *turns.tolist()], edges, edges[1:]):
                _powers(terms[a:b], float(sigma[k]), out=terms[a:b])
            for i, total, summed in zip(batch.tolist(),
                                        _exact_sums(terms, starts, weights),
                                        keep.tolist()):
                if summed:
                    layer[i] = total
        at = end
    return out


def head_sum(runs, k, terms_of):
    """Exact sum of the terms of the first k entries of the weighted
    ``Runs``, bit for bit ``math.fsum``.

    ``terms_of`` maps an array of values to one term per value; it gets
    the values of the runs that hold the first k entries, and each term is
    weighted by its run's count among them: the runs' weights themselves
    where k ends a run (as a Riesz count does), else a copy whose last
    weight is cut at k (the cached ``Runs`` are read-only).  A k that is
    not an integer raises DomainError.
    """
    values, m, offsets = runs
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"k must be an integer, got {k!r}") from None
    k = min(k, int(offsets[-1]))
    if k <= 0:
        return 0.0
    size = int(offsets.searchsorted(k))    # through the piece holding k
    weights = m[:size]
    if offsets[size] != k:    # k cuts that piece
        weights = weights.copy()
        weights[-1] = k - offsets[size - 1]
    return _exact_sums(terms_of(values[:size]), [0],
                       (weights, offsets[:size]))[0]


def power_sum(runs, k, p):
    """Exact sum of lam**p over the first k entries of the weighted
    ``Runs``, with the terms of ``_powers``."""
    return head_sum(runs, k, lambda values: _powers(values, p))


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
    biased exponent (1 if subnormal), E_lo the least E of a nonzero term
    (a zero adds no limbs and is placed at E_lo), s = E - E_lo.  Within
    ``_BAND`` binades M << s < 2**64 fills two limbs, else M << (s % 32)
    fills the three columns from s // 32.  A column stays below 2**48;
    there are enough to reach any window above ``total`` and at most
    ``_CELLS`` limbs."""
    exps = np.maximum(bits >> np.uint64(52), np.uint64(1))
    e_lo, e_hi = int(exps.min()), int(exps.max())
    if e_hi > 2047:
        raise DomainError("prefix sums need non-negative terms, got -0.0")
    if e_lo == 1:
        e_lo = int(exps.min(where=bits != 0, initial=e_hi))
    pos = e_lo - 1
    narrow = e_hi - e_lo <= _BAND
    cols = max(2 if narrow else (e_hi - e_lo) // 32 + 3,
               (total.bit_length() - pos - 31) // 32)
    m = min(len(bits), _CELLS // cols)
    exps = exps[:m]
    mant = bits[:m] - ((exps - np.uint64(1)) << np.uint64(52))
    np.maximum(exps, np.uint64(e_lo), out=exps)    # a zero at E_lo
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
