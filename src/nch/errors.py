"""Exception types shared across the solver."""


class SolverError(Exception):
    """A solver step could not go on; the CLI reports it with exit code 3."""


class BoundViolationError(SolverError, ValueError):
    """A field entry left the physical interval required by the logarithms."""


class InfeasibleMassError(SolverError, ValueError):
    """Requested mean cannot be met by any field within the sup-norm bound."""


class NonFiniteFieldError(SolverError, ValueError):
    """A predicted field or its target mass holds a NaN or an infinity."""


class ProjectionConvergenceError(SolverError, RuntimeError):
    """Scalar multiplier iteration stopped above tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # the default rebuilds from self.args, which lacks the residual, so
        # the error could not cross a process pool
        return type(self), (self.args[0], self.residual)


class BlowupError(RuntimeError):
    """An unprojected run left the bound inside an experiment that needs its
    final field; the CLI reports it with exit code 4, as for `nch run`."""


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""
