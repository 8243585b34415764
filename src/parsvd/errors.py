"""Exception types shared across the package."""


class ParsvdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ParsvdError):
    """Operands have incompatible or invalid shapes."""


class ValidationError(ParsvdError):
    """An input violates a documented contract (non-Hermitian, NaN, ...)."""


class ConvergenceError(ParsvdError):
    """An iterative solver failed to converge within its budget.

    Attributes carry the last known state so callers can diagnose:
    ``bracket`` for secular root searches, with the failing equation's
    ascending ``poles``, its ``weights`` and the ``root`` index, so that
    the equation can be solved again on its own (gram_svd._secular_roots);
    ``history`` for sweep-based solvers.
    """

    def __init__(self, message, bracket=None, history=None, poles=None, weights=None, root=None):
        super().__init__(message)
        self.bracket = bracket
        self.history = history
        self.poles = poles
        self.weights = weights
        self.root = root


class ProfileError(ParsvdError):
    """A hardware profile is unknown, malformed, or non-positive."""


class TraceLimitError(ParsvdError):
    """Explicit DFG tracing was requested for a matrix above the size cap."""
