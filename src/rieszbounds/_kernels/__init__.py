"""Accumulation kernels with import-time backend selection.

The compiled Cython extension (Kahan-compensated) provides ``riesz_sum`` and
``power_sum`` when available; setting the environment variable
``RIESZBOUNDS_PURE_PYTHON=1`` forces the pure-Python fallback, whose sums
are correctly rounded.  ``exact_sum`` and ``prefix_sums`` always come from
``pykernels`` because downstream code relies on their correctly rounded
results.  ``exact_sum`` adds sorted terms (the Riesz, power, log and
reciprocal terms of a sorted spectrum) run by run of equal sign and binary
exponent, and leaves short, unsorted or out-of-range input to
``math.fsum``; ``prefix_sums`` keeps an exact integer running sum (a
Shewchuk loop for input outside that domain).
"""

import os

from . import pykernels
from .pykernels import exact_sum, prefix_sums

__all__ = ["BACKEND", "riesz_sum", "power_sum", "exact_sum", "prefix_sums"]

if os.environ.get("RIESZBOUNDS_PURE_PYTHON", "") not in ("", "0"):
    _impl = pykernels
else:
    try:
        from . import _ckernels as _impl
    except ImportError:
        _impl = pykernels

BACKEND = _impl.BACKEND
riesz_sum = _impl.riesz_sum
power_sum = _impl.power_sum


def _ckernels_or_none():
    """The compiled kernel module if the extension was built, else None."""
    try:
        from . import _ckernels
    except ImportError:
        return None
    return _ckernels
