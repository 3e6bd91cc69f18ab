"""Exception types raised across the library."""
from __future__ import annotations


class PlfiltError(Exception):
    """Base class for all library-specific errors."""


class NotPositiveDefiniteError(PlfiltError):
    """A Cholesky factorization hit a non-positive pivot.

    ``pivot`` is the zero-based index of the failing diagonal entry.
    """

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = int(pivot)
        super().__init__(message or f"matrix is not positive definite (pivot {self.pivot})")


class InnovationDegenerateError(PlfiltError):
    """The innovation covariance in a Kalman update is not positive definite."""


class PointBudgetExceededError(PlfiltError):
    """A cubature rule would require more points than the configured budget."""

    def __init__(self, requested: int, budget: int):
        self.requested = int(requested)
        self.budget = int(budget)
        super().__init__(
            f"rule needs {self.requested} integration points, budget is {self.budget}"
        )


class SingularGeometryError(PlfiltError):
    """Bearing angles are undefined (target too close to the observer)."""


class FilterStepError(PlfiltError):
    """A filter recursion step failed; carries the step index and phase."""

    def __init__(self, step: int, phase: str, message: str):
        self.step = int(step)
        self.phase = phase
        super().__init__(f"step {step} ({phase}): {message}")
