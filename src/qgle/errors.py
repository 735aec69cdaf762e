"""Exception types shared across the package."""


class QgleError(Exception):
    """Base class for all package errors."""


class NoSolutionError(QgleError):
    """A linear system that should determine a quantity is singular."""


class InconsistentError(QgleError):
    """Block equations admit no common solution within tolerance."""


class NotPositiveError(QgleError):
    """A matrix required to be positive definite is not."""


class NonConservativeError(QgleError):
    """Operation requires a conservative force."""


class UnstableError(QgleError):
    """Drift matrix fails the stability requirement."""


class SolveFailureError(QgleError):
    """Dense solve failed numerically."""


class SearchExhaustedError(QgleError):
    """Doubling search hit its iteration cap without success."""


class NumericalFailureError(QgleError):
    """Eigenvalue or factorization routine did not converge."""


class IntegrationBlowupError(QgleError):
    """Nonfinite state encountered during time stepping."""

    def __init__(self, step_index, message=None):
        super().__init__(message or f"nonfinite state at step {step_index}")
        self.step_index = step_index


class NoSignalError(QgleError):
    """Rate fit found no window where the signal exceeds its noise."""


class InfeasibleError(QgleError):
    """No positive drift constant exists on the sample set."""


def _located(err, *path):
    """``err`` with the field at fault, ``path``, put before the path it carries."""
    err.path = path + getattr(err, "path", ())
    return err
