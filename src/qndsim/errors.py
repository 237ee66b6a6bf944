"""Exception and warning types shared across the package."""


class QndError(Exception):
    """Base class for all package-specific errors."""


class InvalidParam(QndError, ValueError):
    """A parameter is outside its documented domain."""


class TruncationTooSmall(QndError):
    """The requested basis cutoff leaves too much probability beyond it."""


class ZeroProbability(QndError):
    """An outcome density that underflows: far outside the support, or between levels."""


class GridTooNarrow(QndError):
    """An outcome grid that misses part of the probability mass it must integrate."""


class RegimeWarning(UserWarning):
    """A closed-form approximation was evaluated outside its regime of validity."""


class ToleranceWarning(UserWarning):
    """A value was clamped or adjusted within numerical tolerance."""
