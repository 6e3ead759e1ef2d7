"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes; library callers can catch the
base classes.
"""


class ErgharvestError(Exception):
    """Base class for all package-specific errors."""


class InputDomainError(ErgharvestError, ValueError):
    """A state or parameter lies outside the working domain."""


class ConfigError(ErgharvestError, ValueError):
    """Run configuration is malformed or contains unknown keys."""


class AssumptionViolationError(ErgharvestError, RuntimeError):
    """A structural model assumption fails where the solver requires it."""


class NumericsError(ErgharvestError, RuntimeError):
    """Base class for numerical failures (integration, root finding)."""


class SingularIntegrationError(NumericsError):
    """An integration failed, typically with the step size underflowing.

    ``last_x``/``last_y`` hold the final reliable state of the integration.
    """

    def __init__(self, message, last_x=None, last_y=None):
        super().__init__(message)
        self.last_x = last_x
        self.last_y = last_y


class MonotonicityViolationError(NumericsError):
    """The probe trace is inconsistent (a member below a non-member)."""


class MissingInputError(ErgharvestError, FileNotFoundError):
    """A required input artifact is absent or malformed."""


class SimulationAbortError(NumericsError):
    """Too many Monte Carlo paths aborted to trust the aggregate."""
