"""Exception types shared across the package; each carries only its message."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DataError(ValueError):
    """Malformed, incomplete, or inconsistent observational data."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge within its budget."""


class RankDeficientError(DataError):
    """A regression design matrix is rank deficient."""
