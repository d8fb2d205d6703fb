"""Solvers for the unique periodic equilibrium.

At a fixed service flow u, ``solve_equilibrium`` iterates the damped map
Z <- (1-lam)Z + lam*T(Z) on Z = (X, v), one length-2n vector with X and v
as views, until the undamped residual max|T(Z) - Z| falls below the
tolerance; below lam = lambda_bar the damped map contracts.

With u pinned to a rent-to-price ratio times the mean price,
``solve_with_endogenous_u`` runs semismooth Newton on the 2n+1 equations
G(X, v, u) = (T(X, v; u) - (X, v), ratio*mean(P)/12 - u) (Qi & Sun 1993):
T is piecewise smooth, with kinks only at the clamps on the cutoffs and
at max(v, v_lo), so a generalized Jacobian is read off the step's outputs.
The damped step z += lam*G(z) is the fallback where backtracking fails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .affine import AffineCoefficients, compute_affine_coefficients
from .core import ModelParams, PeriodicSeries
from .errors import ConvergenceError, DomainError
from .mapping import EquilibriumState, _prices, _step, compute_outputs

_NEWTON_TOL = 1e-12       # sup norm of G at which the endogenous-u solve stops
_LINE_SEARCH_CUTS = 8     # step halvings tried before a damped fallback step


@dataclass
class SolverConfig:
    lam: float = 0.01
    tolerance: float = 1e-5
    max_iterations: int = 2_000_000
    rent_price_ratio: float = 0.03
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
        if not 0.0 < self.rent_price_ratio < 1.0:
            raise DomainError("rent_price_ratio must lie in (0, 1)")


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


def _initial_point(params: ModelParams, coeffs: AffineCoefficients,
                   config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start (X, v); may alias the config's arrays, so callers copy."""
    n = params.period
    X = (np.full(n, coeffs.box.X_lo) if config.initial_X is None
         else np.asarray(config.initial_X, dtype=float))
    v = (params.hazards.hazard.values if config.initial_v is None
         else np.asarray(config.initial_v, dtype=float))
    for name, a in (("initial_X", X), ("initial_v", v)):
        if a.shape != (n,):
            raise DomainError(f"{name} must have shape ({n},)")
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
    """Solve (X, v) and u = rent_price_ratio * mean(P) / 12 jointly.

    Newton starts from ``config``'s point and u = ``params.u`` and
    backtracks on the sup norm of G; where no cut of the step lowers it, a
    damped step z += lam*G(z) is taken. At |G| <= 1e-12 a warm-started
    ``solve_equilibrium`` at the solved u checks the point and builds the
    solution, whose ``iterations`` counts every map evaluation, capped by
    ``max_iterations``. The ratio is annual, hence the 12. Raises
    ``ConvergenceError`` when the budget runs out or when u collapses
    toward zero (prices without a surplus component, e.g. theta = 0).
    """
    config = config or SolverConfig()
    coeffs = compute_affine_coefficients(params.hazards, params.beta, params.u)
    n = params.period
    z = np.concatenate((*_initial_point(params, coeffs, config), [params.u]))
    evals, res = 0, np.inf

    def evaluate(z):
        nonlocal evals
        if evals == config.max_iterations - 1:   # one is left for the check
            raise ConvergenceError(
                f"endogenous-u solve did not converge within {config.max_iterations} "
                f"map evaluations (last residual {res:.3g})", residual=res, iterations=evals)
        evals += 1
        X, v, p = z[:n], z[n:-1], params.with_u(z[-1])
        X_new, v_new, eps = _step(X, v, p, coeffs)
        P_bar = _prices(X, v, eps, p, coeffs).mean()
        g = np.concatenate((X_new, v_new, [config.rent_price_ratio * P_bar / 12.0])) - z
        return g, eps, float(np.abs(g).max())

    g, eps, res = evaluate(z)
    while res > _NEWTON_TOL:
        dz = _newton_direction(z, eps, g, params, coeffs, config.rent_price_ratio)
        for t in 0.5 ** np.arange(_LINE_SEARCH_CUTS if dz is not None else 0):
            trial = z + t * dz
            if trial[-1] > 0.0:
                g_t, eps_t, res_t = evaluate(trial)
                if res_t <= (1.0 - 1e-4 * t) * res:
                    z, g, eps, res = trial, g_t, eps_t, res_t
                    break
        else:
            z = z + config.lam * g
            if z[-1] > 1e-10 * params.u:
                g, eps, res = evaluate(z)
        if z[-1] <= 1e-10 * params.u:
            raise ConvergenceError(
                "service flow u collapsed toward zero; the rent-to-price "
                "condition has no positive solution at these parameters "
                "(degenerate, e.g. theta = 0)", iterations=evals)

    u = float(z[-1])
    check = replace(config, initial_X=z[:n], initial_v=z[n:-1],
                    max_iterations=config.max_iterations - evals)
    solution = solve_equilibrium(params.with_u(u), check)
    return replace(solution, iterations=evals + solution.iterations), u


def _newton_direction(z: np.ndarray, eps: np.ndarray, g: np.ndarray,
                      params: ModelParams, coeffs: AffineCoefficients,
                      ratio: float) -> np.ndarray | None:
    """Solve J dz = -g for an element J of G's generalized Jacobian at z.

    The cutoff e_m follows its raw value where 0 < e_m < v_m, follows v_m
    where e_m = v_m and stays at 0 otherwise; max(v_m, v_lo) follows v_m
    where v_m > v_lo. Returns None when J is singular.
    """
    n, N = params.period, z.size
    beta, theta, A, v_lo = params.beta, params.theta, coeffs.A.values, coeffs.box.v_lo
    v = z[n:-1]
    gap, s = v - eps, np.maximum(v, v_lo)
    # Row m holds the gradient of a month-m quantity in (X, v, u).
    d_v, d_u = np.eye(n, N, n), np.eye(1, N, N - 1)
    d_match = beta * np.eye(n, N)[(np.arange(n) + 1) % n] + d_u
    d_raw = (d_match - np.hstack((coeffs._D_matrix, np.zeros((n, n + 1))))) / A[:, None]
    d_eps = ((eps > 0.0) & (eps < v))[:, None] * d_raw + (eps == v)[:, None] * d_v
    d_X_new = (d_match + (A * gap / s)[:, None] * (d_v - d_eps)
               - (0.5 * A * gap * gap / (s * s) * (v > v_lo))[:, None] * d_v)
    d_v_new = params.hazards.survival.values[:, None] * d_eps[np.arange(n) - 1]
    d_P = (theta * d_match + (1.0 - theta) / (1.0 - beta) * d_u
           + (0.5 * theta * A)[:, None] * (d_v - d_eps))
    J = np.vstack((d_X_new, d_v_new, ratio / 12.0 * d_P.mean(axis=0))) - np.eye(N)
    try:
        return np.linalg.solve(J, -g)
    except np.linalg.LinAlgError:
        return None
