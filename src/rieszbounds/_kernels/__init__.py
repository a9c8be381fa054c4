"""Accumulation kernels; every sum is correctly rounded.

``exact_sum`` adds sorted terms (the Riesz, power, log and reciprocal terms
of a sorted spectrum) run by run of equal sign and binary exponent, and
leaves short, unsorted or out-of-range input to ``math.fsum``;
``prefix_sums`` keeps the exact running sum of non-negative finite terms
in 32-bit limb columns and rounds each prefix once (other input raises
``DomainError``).  ``riesz_sum`` and ``power_sum`` build their terms in
numpy and add them with ``exact_sum``.  ``BACKEND`` is always ``"python"``.
"""

from .pykernels import BACKEND, exact_sum, power_sum, prefix_sums, riesz_sum

__all__ = ["BACKEND", "riesz_sum", "power_sum", "exact_sum", "prefix_sums"]
