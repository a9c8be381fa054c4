"""Accumulation kernels; every sum is correctly rounded.

``exact_sum`` adds sorted terms (the Riesz, power, log and reciprocal terms
of a sorted spectrum) run by run of equal sign and binary exponent, and
leaves short, unsorted or out-of-range input to ``math.fsum``.  The same
run path adds many sorted segments of one array at once, one sum per
segment; ``exact_sum`` is its one-segment case.  ``prefix_sums`` keeps the
exact running sum of non-negative finite terms in 32-bit limb columns and
rounds each prefix once (other input raises ``DomainError``).
``riesz_sums`` is the one builder of Riesz terms: it sums the rows of many
z values, one segment per z, and ``riesz_sum`` (one value with its count)
is its one-z row.  ``power_sum`` builds its terms in numpy and adds them
with ``exact_sum``.  ``BACKEND`` is always ``"python"``.
"""

from .pykernels import (BACKEND, exact_sum, power_sum, prefix_sums,
                        riesz_sum, riesz_sums)

__all__ = ["BACKEND", "riesz_sum", "riesz_sums", "power_sum", "exact_sum",
           "prefix_sums"]
