"""Monthly search-and-matching housing market equilibrium and seasonality tests."""

from .affine import AffineCoefficients, Box, compute_affine_coefficients
from .calibrate import (
    MoveShares,
    compose_beta,
    hazards_from_shares,
    normalize_shares,
    shares_from_trends,
    solve_kappa,
)
from .core import (
    HazardProfile,
    ModelParams,
    PeriodicSeries,
    seasonal_deviation,
)
from .errors import ConvergenceError, DataError, DomainError, RankDeficientError
from .mapping import EquilibriumState, compute_outputs
from .solver import (
    EquilibriumSolution,
    SolverConfig,
    solve_equilibrium,
    solve_with_endogenous_u,
)

__version__ = "0.1.0"

__all__ = [
    "AffineCoefficients",
    "Box",
    "ConvergenceError",
    "DataError",
    "DomainError",
    "EquilibriumSolution",
    "EquilibriumState",
    "HazardProfile",
    "ModelParams",
    "MoveShares",
    "PeriodicSeries",
    "RankDeficientError",
    "SolverConfig",
    "compose_beta",
    "compute_affine_coefficients",
    "compute_outputs",
    "hazards_from_shares",
    "normalize_shares",
    "seasonal_deviation",
    "shares_from_trends",
    "solve_equilibrium",
    "solve_kappa",
    "solve_with_endogenous_u",
]
