"""Exception and warning types shared across the package."""

import operator


class QndError(Exception):
    """Base class for all package-specific errors."""


class InvalidParam(QndError, ValueError):
    """A parameter is outside its documented domain."""


def _integer(value, name: str) -> int:
    """``value`` as an int: Python and numpy integers only, no floats or strings."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParam(f"{name} must be an integer, not {value!r}") from None


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
