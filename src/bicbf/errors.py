"""Exception types shared across the package."""

__all__ = [
    "BicbfError",
    "DomainError",
    "ParseError",
    "UnbalancedDataError",
    "DegenerateDataError",
    "SimulationError",
]


class BicbfError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BicbfError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(BicbfError, ValueError):
    """Statistic text that does not match the grammar; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnbalancedDataError(BicbfError, ValueError):
    """Factorial observations whose shape is not the design's (a_levels, b_levels, cell_n)."""


class DegenerateDataError(BicbfError, ValueError):
    """Zero error variance: F ratios and Bayes factors are undefined."""


class SimulationError(BicbfError, RuntimeError):
    """A simulation trial failed; the message carries the trial index."""
