"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DataError(ValueError):
    """Malformed, incomplete, or inconsistent observational data."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge within its budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class RankDeficientError(ValueError):
    """A regression design matrix is rank deficient."""

    def __init__(self, message: str, columns: list[str] | None = None):
        super().__init__(message)
        self.columns = columns or []
