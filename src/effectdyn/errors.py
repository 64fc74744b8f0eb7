"""Exception types shared across the package."""


class EffectdynError(ValueError):
    """Base class for all validation and contract errors raised here."""


class DimensionMismatchError(EffectdynError):
    """Operands have incompatible dimensions."""


class NonHermitianError(EffectdynError):
    """Matrix fails the Hermiticity check."""


class SpectrumOutOfRangeError(EffectdynError):
    """An eigenvalue falls outside the admissible range."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class TraceNotOneError(EffectdynError):
    """State candidate does not have unit trace."""


class NotCommutingError(EffectdynError):
    """Operation requires a commuting pair of effects."""


class InvalidOrderError(EffectdynError):
    """Derivative order must be a positive integer."""


class ConsistencyError(EffectdynError):
    """Two algebraically equal computation routes disagree numerically."""


class EmptyGridError(EffectdynError):
    """A time grid must contain at least one point."""


class NotAProjectionError(EffectdynError):
    """Operator is not idempotent within tolerance."""


class CommutingPairError(EffectdynError):
    """Pair commutes (or nearly so) where a noncommuting pair is required."""


class SumNotIdentityError(EffectdynError):
    """Observable members do not sum to the identity."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class MemberNotEffectError(EffectdynError):
    """An observable member fails effect validation."""


class WeightsNotNormalizedError(EffectdynError):
    """Convex weights must be one per observable, lie in [0, 1] and sum to one."""


class OutcomeSetMismatchError(EffectdynError):
    """Observables do not share a common outcome set."""


class SchemaError(EffectdynError):
    """JSON document does not match the expected schema."""
