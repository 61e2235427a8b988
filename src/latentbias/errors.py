"""Exception types shared across the package."""

from __future__ import annotations


class LatentBiasError(Exception):
    """Base class for all package errors."""


class DomainError(LatentBiasError, ValueError):
    """An argument violates a documented precondition."""


class ConditioningError(LatentBiasError):
    """A matrix that must be positive definite is not."""


class DivergenceError(LatentBiasError):
    """A Gibbs chain exceeded the divergence guard.

    ``sweep`` is the 0-based sweep index at which the guard tripped and
    ``trace`` holds whatever trace rows were recorded before the abort.
    """

    def __init__(self, message: str, sweep: int, trace=None):
        super().__init__(message)
        self.sweep = sweep
        self.trace = trace


class NumericalError(LatentBiasError):
    """A numerical routine failed to reach its accuracy target."""


class DataError(LatentBiasError):
    """Ingest failed hard (missing column, unreadable input)."""
