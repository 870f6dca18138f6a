"""Exception types shared across the package."""

__all__ = [
    "GridMismatchError",
    "BoundFormulaOutOfRangeError",
    "TimeOrderError",
    "NoContractionError",
    "BudgetExceededError",
    "DivergentInputError",
    "ConfigError",
]


class GridMismatchError(ValueError):
    """Two grid functions live on different grids."""


class BoundFormulaOutOfRangeError(ValueError):
    """A closed-form kernel bound was evaluated outside its validity window."""


class TimeOrderError(ValueError):
    """A solution was requested backward in time (t < tau)."""


class NoContractionError(RuntimeError):
    """The contraction factor is >= 1, so no certified iteration exists."""


class BudgetExceededError(RuntimeError):
    """The certified iteration count exceeds the configured step budget."""


class DivergentInputError(RuntimeError):
    """A distance evaluated to a non-finite value during fixed-point iteration."""


class ConfigError(ValueError):
    """Scenario configuration is malformed; the message carries the key path."""
