"""Exception types shared across the toolkit.

Every error raised on purpose derives from :class:`ToolkitError`, so callers
can catch one base class at a batch boundary (the CLI does exactly that) and
still discriminate finer-grained failures where it matters.
"""

from __future__ import annotations

__all__ = [
    "ToolkitError",
    "DomainError",
    "EvaluationError",
    "QuadratureError",
    "IntegrabilityError",
    "ConstructionError",
    "SelfCheckError",
    "DensityUnderflowError",
    "NearEndpointError",
    "LoadError",
]


class ToolkitError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(ToolkitError, ValueError):
    """An evaluation point lies outside the declared support."""


class EvaluationError(ToolkitError):
    """A user-supplied or derived evaluator failed; carries the location."""


class QuadratureError(ToolkitError):
    """Adaptive refinement did not converge.

    ``partial`` holds the best available estimate and ``error_estimate`` the
    accumulated error bound at the point of giving up, so callers can decide
    whether the partial answer is still useful.
    """

    def __init__(self, message: str, partial: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class IntegrabilityError(ToolkitError):
    """A defining integral diverges; the message names the offending endpoint."""


class ConstructionError(ToolkitError, ValueError):
    """A model, grid, or relabeling cannot be built from the given pieces."""


class SelfCheckError(ToolkitError):
    """An internal consistency identity failed after construction.

    Raised when a freshly built object disagrees with the algebra that
    defines it; this always indicates a construction bug, never bad data.
    """


class DensityUnderflowError(ToolkitError):
    """A conditional density is too small to divide by; names the location."""


class NearEndpointError(ToolkitError):
    """Hazard-rate evaluation requested too close to the upper signal endpoint."""


class LoadError(ToolkitError, ValueError):
    """A model spec file failed to parse or validate.

    ``line`` is the 1-based line number when known, ``key`` the offending
    section or key name.
    """

    def __init__(self, message: str, line: int | None = None,
                 key: str | None = None):
        super().__init__(message)
        self.line = line
        self.key = key


# The exceptions an evaluation raises for a numeric cause. Code that turns a
# failed evaluation into a report, or retries it point by point, catches
# only these; any other exception is a defect and propagates as itself.
NUMERIC_CAUSES = (ToolkitError, ArithmeticError, ValueError)
