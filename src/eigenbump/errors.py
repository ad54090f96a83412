"""Exception types shared across the package."""


class EigenbumpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(EigenbumpError, ValueError):
    """An input violates a documented precondition."""


class AccuracyError(EigenbumpError):
    """A numerical routine could not reach the requested accuracy.

    Carries the best error estimate that was achieved.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class PoleError(EigenbumpError):
    """Evaluation requested at (or too close to) a pole.

    ``distance`` is a first-order estimate of the distance from the
    argument to the nearest zero of the denominator.
    """

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


class NoConvergenceError(EigenbumpError):
    """Root iteration did not converge."""


class WrongSheetError(EigenbumpError):
    """Root iteration converged to a wavenumber with Im k <= 0."""


class GridResolutionError(EigenbumpError):
    """The finite-difference oracle cannot resolve the requested problem."""


class SingularShiftError(GridResolutionError):
    """The shifted operator H - z is exactly singular on the grid."""


class BudgetInfeasibleError(EigenbumpError):
    """No bump index within the search cap satisfied all constraints.

    ``failed_constraint`` names the constraint that failed at the last
    probed index.
    """

    def __init__(self, message, failed_constraint=None):
        super().__init__(message)
        self.failed_constraint = failed_constraint


class ShiftSearchError(EigenbumpError):
    """The doubling search for a placement shift did not stabilise.

    ``deviations`` is the observed sequence of |mu_t - mu|.
    """

    def __init__(self, message, deviations=None):
        super().__init__(message)
        self.deviations = deviations or []


class LedgerError(EigenbumpError):
    """A construction ledger is malformed, unverified or inconsistent."""


class NotApplicableError(EigenbumpError):
    """The requested diagnostic does not apply to this configuration."""


class ConstructionError(EigenbumpError):
    """A construction step failed; ``ledger`` holds the partial result."""

    def __init__(self, message, ledger=None, failed_at=None):
        super().__init__(message)
        self.ledger = ledger
        self.failed_at = failed_at
