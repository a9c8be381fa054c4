"""Accumulation kernels; every sum is correctly rounded.

``exact_sum`` adds sorted terms (the Riesz, power, log and reciprocal terms
of a sorted spectrum) run by run of equal sign and binary exponent, and
leaves short, unsorted or out-of-range input to ``math.fsum``.  The same
run path adds many sorted segments of one array at once, one sum per
segment; if any segment is unsorted or out of range, every segment of the
call goes to ``math.fsum``.  Every term has an integer weight m, given
with its position among the weighted terms, a term of weight m counting m
times: the run path sums m * (the term's bits) in blocks of total weight
at most 2**11, whose mantissa sums stay below 2**11 * 2**53 = 2**64 (the
proof is in ``pykernels``); ``exact_sum`` is its one-segment case with
every weight 1.  ``runs_of`` turns a sorted array into its ``Runs``, each
distinct value once with its multiplicity; ``riesz_sum``, ``riesz_sums``,
``power_sum`` and ``head_sum`` take weighted ``Runs`` only and add one
weighted term per distinct value.
``prefix_sums`` keeps the exact running sum of non-negative finite terms
in 32-bit limb columns and rounds each prefix once (other input raises
``DomainError``).  ``riesz_sums`` is the one builder of Riesz terms: it
sums the rows of many z values, one segment per z, at one sigma or at a
sigma of each z's own, and ``riesz_sum`` (one value with its count) is its
one-z row.  ``power_sum`` and ``head_sum`` add the terms of the first k
entries.  ``BACKEND`` is always ``"python"``.
"""

from .pykernels import (BACKEND, Runs, exact_sum, head_sum, power_sum,
                        prefix_sums, riesz_sum, riesz_sums, runs_of)

__all__ = ["BACKEND", "riesz_sum", "riesz_sums", "power_sum", "head_sum",
           "exact_sum", "prefix_sums", "Runs", "runs_of"]
