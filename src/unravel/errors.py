"""Exception types raised across the package.

Every error inherits from :class:`UnravelError`. Errors raised mid-run by a
trajectory method may carry the time of first failure in ``time`` and,
when an ensemble run was underway, the partial result in ``partial``.
"""

from __future__ import annotations

__all__ = [
    "UnravelError",
    "NotHermitian",
    "NotPSD",
    "ZeroVector",
    "DimensionMismatch",
    "GridMismatch",
    "NegativeRate",
    "StepTooLarge",
    "NoJumpPossible",
    "MissingTargetState",
    "NegativeWEigenvalue",
    "NegativeROEigenvalue",
    "InvalidRatePolicy",
    "DegenerateBlock",
    "SingularMap",
    "BadAmplitudes",
    "ModelError",
    "ConfigError",
    "ParseError",
    "UnknownModel",
    "UnknownMethod",
]


class UnravelError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, *, time: float | None = None):
        super().__init__(message)
        self.time = time
        self.partial = None  # dict of the run up to the abort (see run_ensemble), when available


class NotHermitian(UnravelError):
    """A matrix required to be hermitian is not, beyond tolerance."""


class NotPSD(UnravelError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class ZeroVector(UnravelError):
    """Normalization of a (numerically) zero vector was requested."""


class DimensionMismatch(UnravelError):
    """Operator or state dimensions are inconsistent."""


class GridMismatch(UnravelError):
    """Two results being compared live on different time grids."""


class NegativeRate(UnravelError):
    """A stepper that requires nonnegative rates saw a negative one."""


class StepTooLarge(UnravelError):
    """Branch probabilities for one step exceed 1; reduce dt."""


class NoJumpPossible(UnravelError):
    """Channel selection requested where the total jump flux vanishes."""


class MissingTargetState(UnravelError):
    """A reverse jump is required but no populated source of that jump exists."""


class NegativeWEigenvalue(UnravelError):
    """The projected rate operator has a negative eigenvalue (P divisibility lost)."""


class NegativeROEigenvalue(UnravelError):
    """A gauged rate operator has a negative jump eigenvalue under this gauge."""


class InvalidRatePolicy(UnravelError):
    """A martingale rate policy returned a nonpositive rate."""


class DegenerateBlock(UnravelError):
    """The reconstruction block of an embedded state has (numerically) zero trace."""


class SingularMap(UnravelError):
    """An intermediate propagator requires inverting an ill-conditioned map."""


class BadAmplitudes(UnravelError):
    """An initial-state amplitude list is malformed or far from normalized."""


class ModelError(UnravelError):
    """A model's own callable raised, or a piece of the generator is not
    finite; the exception (a FloatingPointError naming the piece for a
    non-finite one) is kept as ``__cause__``, its text is the message and
    ``time`` is the time being evaluated."""

    def __init__(self, cause: Exception, time: float):
        super().__init__(str(cause) or type(cause).__name__, time=time)
        self.__cause__ = cause


class ConfigError(UnravelError):
    """Base class for configuration and CLI input errors."""


class ParseError(ConfigError):
    """A config file line could not be parsed; message carries the line number."""


class UnknownModel(ConfigError):
    """A model name is not in the registry; message lists valid names."""


class UnknownMethod(ConfigError):
    """A method name is not in the registry; message lists valid names."""
