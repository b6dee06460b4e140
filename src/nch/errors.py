"""Exception types shared across the solver."""


class BoundViolationError(ValueError):
    """A field entry left the physical interval required by the logarithms."""


class InfeasibleMassError(ValueError):
    """Requested mean cannot be met by any field within the sup-norm bound."""


class NonFiniteFieldError(ValueError):
    """A predicted field or its target mass holds a NaN or an infinity."""


class ProjectionConvergenceError(RuntimeError):
    """Scalar multiplier iteration stopped above tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""
