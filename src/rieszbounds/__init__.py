"""rieszbounds: Riesz means of Dirichlet Laplacian spectra and universal
Weyl-type eigenvalue bounds, with a numerical verification harness.

Subpackages/modules:

- ``specfun``: Gamma, Bessel J, and Bessel zeros.
- ``spectra``: exact box/ball spectra and file-backed spectra.
- ``riesz``: Riesz means, counting, eigenvalue averages, Legendre transform.
- ``bounds``: catalog of closed-form bounds and constants.
- ``verify``: inequality verification suite with negative controls.
- ``cli``: command-line interface (``rieszbounds`` entry point).

Every sum takes one correctly rounded path in Python and numpy; nothing
is compiled and there is no backend switch.  ``rieszbounds.BACKEND`` is
always ``"python"``.
"""

from . import bounds, riesz, specfun, spectra, verify
from ._kernels import BACKEND
from .errors import RieszBoundsError
from .riesz import counting, legendre_R1, means, riesz_mean
from .spectra import Spectrum, ball_spectrum, box_spectrum, load_spectrum

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "RieszBoundsError", "Spectrum", "__version__",
    "ball_spectrum", "bounds", "box_spectrum", "counting", "legendre_R1",
    "load_spectrum", "means", "riesz", "riesz_mean", "specfun", "spectra",
    "verify",
]
