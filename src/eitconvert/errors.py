"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "SchemeError",
    "DegenerateSchemeError",
    "GridError",
    "GridBudgetError",
    "AliasingError",
    "StiffnessError",
    "ConfigValidationError",
    "ValidityWarning",
    "exit_code",
]


class SchemeError(ValueError):
    """Malformed atomic scheme or population input."""


class DegenerateSchemeError(SchemeError):
    """Scheme whose population-weighted sums vanish identically."""


class GridError(ValueError):
    """Numerical grid that cannot represent the requested problem."""


class GridBudgetError(GridError):
    """Automatically sized grid larger than its allocation budget."""


class AliasingError(GridError):
    """Significant spectral energy in the outer region of the frequency grid."""


class StiffnessError(GridError):
    """Time step too large for the fastest rate in the problem."""


class ConfigValidationError(ValueError):
    """Declarative config rejected; carries the offending field paths."""

    def __init__(self, message: str, paths=()):
        self.paths = list(paths)
        if self.paths:
            message = f"{message} (fields: {', '.join(self.paths)})"
        super().__init__(message)


class ValidityWarning(UserWarning):
    """Parameter regime outside the stated validity of an approximation.

    The package emits none: it reports validity as the flags of
    write_channel and read_channel, which the analytic summary carries.
    """


def exit_code(exc: BaseException) -> int:
    """Command-line exit status of a failed run: 3 for a numerical failure
    on a valid input, 2 for any other ValueError (invalid input) and for
    an OSError (a path that cannot be read or written)."""
    if isinstance(exc, (ValueError, OSError)) and not isinstance(
            exc, (StiffnessError, AliasingError, GridBudgetError)):
        return 2
    return 3
