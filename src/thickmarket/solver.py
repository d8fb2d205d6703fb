"""Damped fixed-point iteration to the unique periodic equilibrium.

The solver iterates Z <- (1-lam)Z + lam*T(Z) from a point inside the box K
until the undamped residual ||T(Z) - Z|| (sup norm over all X and v
coordinates) falls below the tolerance. Stopping on the undamped residual
is strictly tighter than stopping on the distance between successive
damped iterates (which equals lam times the residual) and guarantees the
reported final residual is below tolerance.

The iterate lives in one length-2n vector Z = (X, v); X and v are views
into it that the map reads. Each step forms dZ = T(Z) - Z once, takes the
residual as max|dZ|, and updates Z += lam*dZ in place. This is the same
arithmetic, element by element and in the same order, as updating X and
v as separate arrays, so every iterate and iteration count is bit for bit
that of the two-array loop; the vector only saves numpy calls, which
dominate the cost of a step on 12-month arrays. An outer loop optionally pins
the housing service flow u to a rent-to-price ratio times the average
equilibrium price.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineCoefficients, compute_affine_coefficients
from .core import ModelParams, PeriodicSeries
from .errors import ConvergenceError, DomainError
from .mapping import EquilibriumState, _step, compute_outputs


@dataclass
class SolverConfig:
    lam: float = 0.01
    tolerance: float = 1e-5
    max_iterations: int = 2_000_000
    u_mode: str = "endogenous"            # "endogenous" or "fixed"
    rent_price_ratio: float = 0.03
    u_outer_tolerance: float = 1e-8
    u_damping: float = 1.0
    u_max_outer_iterations: int = 500
    initial_X: np.ndarray | None = None    # None: flat at u/(1-beta)
    initial_v: np.ndarray | None = None    # None: v_m = 1 - phi_m

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise DomainError(f"lam must lie in (0, 1], got {self.lam}")
        if not self.tolerance > 0.0:
            raise DomainError("tolerance must be positive")
        if not self.max_iterations >= 1:
            raise DomainError(
                f"max_iterations must be at least 1, got {self.max_iterations}")
        if not self.u_max_outer_iterations >= 1:
            raise DomainError("u_max_outer_iterations must be at least 1, "
                              f"got {self.u_max_outer_iterations}")
        if not self.u_outer_tolerance > 0.0:
            raise DomainError("u_outer_tolerance must be positive")
        if not 0.0 < self.rent_price_ratio < 1.0:
            raise DomainError("rent_price_ratio must lie in (0, 1)")
        if not 0.0 < self.u_damping <= 1.0:
            raise DomainError("u_damping must lie in (0, 1]")


@dataclass(frozen=True)
class EquilibriumSolution:
    state: EquilibriumState
    Q: PeriodicSeries
    P: PeriodicSeries
    iterations: int
    final_residual: float
    lambda_used: float
    converged: bool
    coeffs: AffineCoefficients = field(repr=False)

    @property
    def period(self) -> int:
        return self.state.period


def residual(state: EquilibriumState, params: ModelParams,
             coeffs: AffineCoefficients) -> float:
    """Sup-norm fixed-point defect ||T(state) - state|| over X and v."""
    X, v = state.X.values, state.v.values
    X_new, v_new, _ = _step(X, v, params, coeffs)
    return float(max(np.abs(X_new - X).max(), np.abs(v_new - v).max()))


def _initial_point(params: ModelParams, coeffs: AffineCoefficients,
                   config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start (X, v); may alias the config's arrays, so callers copy."""
    n = params.period
    if config.initial_X is None:
        X = np.full(n, coeffs.box.X_lo)
    else:
        X = np.asarray(config.initial_X, dtype=float)
        if X.shape != (n,):
            raise DomainError(f"initial_X must have shape ({n},)")
    if config.initial_v is None:
        v = params.hazards.hazard.values
    else:
        v = np.asarray(config.initial_v, dtype=float)
        if v.shape != (n,):
            raise DomainError(f"initial_v must have shape ({n},)")
    return X, v


def solve_equilibrium(params: ModelParams, config: SolverConfig | None = None,
                      coeffs: AffineCoefficients | None = None,
                      raise_on_fail: bool = True) -> EquilibriumSolution:
    """Iterate the damped map to the unique fixed point.

    Convergence is measured on the (X, v) coordinates only; cutoffs and
    the outputs Q and P are recomputed from the converged coordinates.
    Raises ``ConvergenceError`` if the iteration budget is exhausted
    (pass ``raise_on_fail=False`` to get the partial solution instead).
    """
    config = config or SolverConfig()
    if coeffs is None:
        coeffs = compute_affine_coefficients(params.hazards, params.beta, params.u)
    if config.lam >= coeffs.lambda_bar:
        warnings.warn(
            f"damping lam={config.lam:.4g} is at or above the guaranteed "
            f"threshold lambda_bar={coeffs.lambda_bar:.4g}; convergence is "
            "no longer covered by theory", RuntimeWarning, stacklevel=2)

    lam = config.lam
    n = params.period
    Z = np.concatenate(_initial_point(params, coeffs, config))
    X, v = Z[:n], Z[n:]
    buf = np.empty_like(Z)

    iterations = 0
    res = np.inf
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        X_new, v_new, _ = _step(X, v, params, coeffs)
        dZ = np.concatenate((X_new, v_new))
        dZ -= Z
        res = float(np.abs(dZ, out=buf).max())
        if res < config.tolerance:
            converged = True
            break
        dZ *= lam
        Z += dZ

    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"equilibrium iteration did not converge within "
            f"{config.max_iterations} iterations (last residual {res:.3g})",
            residual=res, iterations=iterations)

    state = EquilibriumState.from_arrays(X, v, params, coeffs)
    Q, P = compute_outputs(state, params, coeffs)
    return EquilibriumSolution(
        state=state, Q=Q, P=P, iterations=iterations, final_residual=res,
        lambda_used=lam, converged=converged, coeffs=coeffs)


def solve_with_endogenous_u(params: ModelParams,
                            config: SolverConfig | None = None
                            ) -> tuple[EquilibriumSolution, float]:
    """Outer fixed point pinning u = rent_price_ratio * mean(P) / 12.

    ``params.u`` seeds the outer iteration. Each outer pass re-solves the
    equilibrium (warm-started from the previous solution), sets
    u' = (1-a)*u + a*(ratio * Pbar / 12) with a the u-damping, and stops
    when the relative change in u falls below ``u_outer_tolerance``.

    The ratio is an annual rent-to-price ratio, hence the division by 12
    regardless of the cycle length. Raises ``ConvergenceError`` when the
    outer loop hits its cap or when u collapses toward zero (which happens
    when prices carry no surplus component, e.g. theta = 0).
    """
    config = config or SolverConfig()
    u = params.u
    u_floor = 1e-10 * u
    inner = SolverConfig(**{**config.__dict__})

    solution = None
    for outer in range(1, config.u_max_outer_iterations + 1):
        p = params.with_u(u)
        solution = solve_equilibrium(p, inner)
        inner.initial_X = solution.state.X.values
        inner.initial_v = solution.state.v.values
        p_bar = solution.P.mean()
        u_target = config.rent_price_ratio * p_bar / 12.0
        u_new = (1.0 - config.u_damping) * u + config.u_damping * u_target
        if u_new <= u_floor:
            raise ConvergenceError(
                "service flow u collapsed toward zero during the outer "
                "iteration; the rent-to-price condition has no positive "
                "solution at these parameters (degenerate, e.g. theta = 0)",
                iterations=outer)
        if abs(u_new - u) / u < config.u_outer_tolerance:
            return solve_equilibrium(params.with_u(u_new), inner), u_new
        u = u_new

    raise ConvergenceError(
        f"endogenous-u outer loop did not converge within "
        f"{config.u_max_outer_iterations} iterations",
        iterations=config.u_max_outer_iterations)
