"""Exception types shared across the package."""


class TimeSchurError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(TimeSchurError, ValueError):
    """Invalid user input or violated precondition."""


class SingularStepError(TimeSchurError):
    """A one-step system matrix is singular.

    Carries enough context to locate the offending time element.
    """

    def __init__(self, message: str, t_start: float | None = None, t_end: float | None = None):
        super().__init__(message)
        self.t_start = t_start
        self.t_end = t_end


class NonconvergenceError(TimeSchurError):
    """An iterative solve exceeded its iteration budget or hit a non-finite residual.

    Attributes
    ----------
    where : str
        Human-readable location (global loop, time step, or (level, element)).
    iterations : int
        Iterations performed before giving up.
    residual_norm : float
        Last residual norm observed.
    reason : str or None
        Why the solve stopped early (``"non-finite residual"``); None when the
        budget ran out.
    """

    def __init__(self, where: str, iterations: int, residual_norm: float,
                 reason: str | None = None):
        because = f": {reason}" if reason else ""
        super().__init__(
            f"no convergence at {where} after {iterations} iterations{because} "
            f"(last residual norm {residual_norm:.3e})"
        )
        self.where = where
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.reason = reason


class TaskError(TimeSchurError):
    """A parallel subdomain task raised; wraps the original exception with its index."""

    def __init__(self, index: int, original: BaseException):
        super().__init__(f"task {index} failed: {original!r}")
        self.index = index
        self.original = original
