"""Exception hierarchy shared across the package."""


class RieszBoundsError(Exception):
    """Base class for all package errors."""


class DomainError(RieszBoundsError, ValueError):
    """Argument outside the mathematical domain of a function."""


class ConvergenceError(RieszBoundsError):
    """A safeguarded root finder failed its residual check (internal error)."""


class SpectrumFormatError(RieszBoundsError):
    """A spectrum file could not be parsed; message carries the line number."""


class SpectrumValidationError(RieszBoundsError):
    """A spectrum violates a structural invariant (ordering, positivity)."""


class EmptySpectrumError(RieszBoundsError):
    """No eigenvalue lies below the requested completeness threshold."""


class ResourceLimitError(RieszBoundsError):
    """Predicted eigenvalue count exceeds the configured cap."""


class TruncationError(RieszBoundsError):
    """Evaluation point exceeds the spectrum's completeness threshold."""


class ValidityError(RieszBoundsError, ValueError):
    """A closed-form bound was evaluated outside its validity region."""


class ConfigError(RieszBoundsError):
    """Verification sweep configuration is inconsistent with the spectra."""
