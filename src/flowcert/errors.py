"""Exception types shared across the toolkit."""


class InvalidNetworkError(ValueError):
    """A network document violates the file schema or a model invariant."""


class SingularMatrixError(ArithmeticError):
    """The matrix to factor is exactly or numerically singular."""


class DegenerateNetworkError(ArithmeticError):
    """The zero-load voltage profile has an entry too close to zero."""


class VoltageCollapseError(ArithmeticError):
    """An iterate dropped below the voltage magnitude floor."""


class ConvergenceError(RuntimeError):
    """An iterative solve exhausted its iteration budget.

    Carries the last iterate and step size so callers can report
    partial progress.
    """

    def __init__(self, message, iterations=None, last_step=None, iterate=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_step = last_step
        self.iterate = iterate
