"""Exception hierarchy shared by the whole package.

Three top-level branches, matching the CLI exit-code contract; each carries
its ``exit_code`` and the ``label`` of the one stderr line the CLI prints:

* :class:`UsageError`      -> exit code 1 (bad arguments, bad config, out-of-range requests)
* :class:`NumericalError`  -> exit code 2 (a computation could not be completed reliably)
* :class:`InvariantViolation` -> exit code 3 (a mathematical identity failed beyond tolerance)
"""

from __future__ import annotations

__all__ = [
    "DiracNLFTError",
    "UsageError",
    "ValidationError",
    "RangeError",
    "NumericalError",
    "OverflowRangeError",
    "PoleProximityError",
    "InstabilityError",
    "AliasingError",
    "DomainTooSmallError",
    "QuadratureError",
    "BoundaryNearZeroError",
    "DerivativeDegenerateError",
    "PreconditionError",
    "FitError",
    "InvariantViolation",
]


class DiracNLFTError(Exception):
    """Base class for every error raised by this package (raised as one of
    the three branches below, never as itself)."""


# ---------------------------------------------------------------------------
# exit code 1: the caller asked for something malformed or out of range
# ---------------------------------------------------------------------------


class UsageError(DiracNLFTError):
    """Bad CLI arguments or unusable configuration."""

    exit_code, label = 1, "error"


class ValidationError(UsageError):
    """A value fails its declared constraints (h <= 0, p <= 1/2, ...)."""


class RangeError(UsageError):
    """A time / frequency argument lies outside the object's domain."""


# ---------------------------------------------------------------------------
# exit code 2: numerics gave up
# ---------------------------------------------------------------------------


class NumericalError(DiracNLFTError):
    """A computation could not be completed to the requested accuracy."""

    exit_code, label = 2, "numerical failure"


class OverflowRangeError(NumericalError):
    """|Im z| * t exceeds the supported working range (exp overflow guard)."""


class PoleProximityError(NumericalError):
    """Evaluation too close to a pole (denominator below its floor)."""


class InstabilityError(NumericalError):
    """An integrator left its stability region (e.g. |theta| > 1.1 in the
    closed upper half-plane)."""


class AliasingError(NumericalError):
    """Grid too coarse for continuous phase tracking (step >= pi/2)."""


class DomainTooSmallError(NumericalError):
    """Data has not decayed at the grid edge; enlarge the domain."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge within its level or node budget.

    Carries the partial report (if any) as the ``report`` attribute.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class BoundaryNearZeroError(NumericalError):
    """A zero sits (numerically) on a counting contour; refinement cannot
    bring boundary phase steps under pi/2."""


class DerivativeDegenerateError(NumericalError):
    """theta_z fell under its floor, so Newton / velocity formulas
    are unreliable."""


class PreconditionError(NumericalError):
    """The object is not in the state an operation requires (no zero to
    track, zero present where none is allowed, spread too large, ...)."""


class FitError(NumericalError):
    """A model fit could not be completed (no admissible normalization)."""


# ---------------------------------------------------------------------------
# exit code 3: mathematics failed
# ---------------------------------------------------------------------------


class InvariantViolation(DiracNLFTError):
    """A structural identity (determinant, modulus bound, ...) failed
    beyond its documented tolerance."""

    exit_code, label = 3, "invariant violation"
