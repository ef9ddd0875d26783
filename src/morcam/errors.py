"""Shared exception types."""


class MorcamError(Exception):
    pass


class DomainError(MorcamError):
    """Evaluation requested at a point outside a function's domain."""


class ParameterError(MorcamError):
    """A numeric parameter is outside its documented range."""


class SolverError(MorcamError):
    """Iterative linear solve did not converge."""

    def __init__(self, message, achieved_residual=None):
        super().__init__(message)
        self.achieved_residual = achieved_residual
