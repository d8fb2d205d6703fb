"""Solvers for the unique periodic equilibrium.

Both solves run one loop, semismooth Newton (Qi & Sun 1993) on the
fixed-point equations of the map T:

- at a fixed service flow u, ``solve_equilibrium`` solves the 2n equations
  G(X, v) = T(X, v; u) - (X, v);
- with u pinned to a rent-to-price ratio times the mean price,
  ``solve_with_endogenous_u`` adds u as an unknown and the equation
  ratio*mean(P)/12 - u, 2n+1 in all.

T is piecewise smooth, with kinks only at the clamps on the cutoffs and at
max(v, v_lo), so an element of the generalized Jacobian is read off the
step's outputs. Steps are halved until the sup norm of G drops; where no
cut does, the damped step z += lam*G(z) is taken instead. A solve stops at
|G| <= 1e-12 * max(1, |z|) in sup norms, and every map evaluation counts
against ``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .affine import AffineCoefficients, compute_affine_coefficients
from .core import ModelParams, PeriodicSeries
from .errors import ConvergenceError, DomainError
from .fixtures import DEFAULT_RENT_PRICE_RATIO
from .mapping import EquilibriumState, _prices, _step, compute_outputs

_TOL = 1e-12              # stop at |G| <= _TOL * max(1, |z|), sup norms
_LINE_SEARCH_CUTS = 8     # step halvings tried before a damped fallback step


@dataclass
class SolverConfig:
    lam: float = 0.01                   # damped fallback step z += lam*G(z)
    max_iterations: int = 2_000_000     # budget of map evaluations
    rent_price_ratio: float = DEFAULT_RENT_PRICE_RATIO
    initial_X: np.ndarray | None = None    # None: flat at u/(1-beta)
    initial_v: np.ndarray | None = None    # None: v_m = 1 - phi_m

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise DomainError(f"lam must lie in (0, 1], got {self.lam}")
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


def solve_equilibrium(params: ModelParams,
                      config: SolverConfig | None = None) -> EquilibriumSolution:
    """Solve T(X, v; u) = (X, v) at the u of ``params``.

    Starts from ``config``'s point. The cutoffs are those of the last map
    evaluation, at the solved (X, v), and Q and P follow from them. Raises
    ``ConvergenceError`` when ``max_iterations`` map evaluations do not
    reach the fixed point.
    """
    config = config or SolverConfig()
    coeffs = compute_affine_coefficients(params.hazards, params.beta, params.u)
    n = params.period
    z, evals, res, eps = _newton(
        np.concatenate(_initial_point(params, coeffs, config)),
        params, coeffs, config, config.max_iterations)
    state = EquilibriumState(PeriodicSeries(z[:n]), PeriodicSeries(z[n:]),
                             PeriodicSeries(eps))
    Q, P = compute_outputs(state, params, coeffs)
    return EquilibriumSolution(
        state=state, Q=Q, P=P, iterations=evals, final_residual=res)


def solve_with_endogenous_u(params: ModelParams,
                            config: SolverConfig | None = None
                            ) -> tuple[EquilibriumSolution, float]:
    """Solve (X, v) and u = rent_price_ratio * mean(P) / 12 jointly.

    Newton starts from ``config``'s point and u = ``params.u``. A
    warm-started ``solve_equilibrium`` at the solved u then takes one
    evaluation and builds the solution, whose ``iterations`` counts every
    map evaluation, capped by ``max_iterations``. The ratio is annual,
    hence the 12. Raises ``DomainError`` at theta = 0, where every price is
    u/(1 - beta) and the u equation has no isolated positive root, and
    ``ConvergenceError`` when the budget runs out or u collapses toward zero.
    """
    if params.theta == 0.0:
        raise DomainError(
            "theta = 0 prices every month at u/(1 - beta), so the rent-to-price "
            "condition cannot pin u; fix u instead (--u-fixed)")
    config = config or SolverConfig()
    coeffs = compute_affine_coefficients(params.hazards, params.beta, params.u)
    n = params.period
    z = np.concatenate((*_initial_point(params, coeffs, config), [params.u]))
    # one evaluation is left for the final solve
    z, evals, _, _ = _newton(z, params, coeffs, config, config.max_iterations - 1,
                             ratio=config.rent_price_ratio)
    u = float(z[-1])
    final = replace(config, initial_X=z[:n], initial_v=z[n:-1],
                    max_iterations=config.max_iterations - evals)
    solution = solve_equilibrium(params.with_u(u), final)
    return replace(solution, iterations=evals + solution.iterations), u


def _newton(z: np.ndarray, params: ModelParams, coeffs: AffineCoefficients,
            config: SolverConfig, budget: int, ratio: float | None = None
            ) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Drive G(z) to zero from z in at most ``budget`` map evaluations.

    z is (X, v) at the fixed u of ``params``, or (X, v, u) with the u
    equation when ``ratio`` is given. Backtracks on the sup norm of G and
    falls back to z += lam*G(z). Returns (z, evaluations, |G(z)|, eps),
    where eps holds the clamped cutoffs of the evaluation at the returned z.
    """
    n = params.period
    endogenous = ratio is not None
    u_floor = 1e-10 * params.u   # an endogenous u below this has collapsed
    evals, res = 0, np.inf

    def evaluate(z):
        nonlocal evals
        if evals == budget:
            raise ConvergenceError(
                f"equilibrium solve did not converge within {config.max_iterations} "
                f"map evaluations (last residual {res:.3g})", residual=res)
        evals += 1
        X, v = z[:n], z[n:2 * n]
        p = params.with_u(z[-1]) if endogenous else params
        X_new, v_new, eps = _step(X, v, p, coeffs)
        u_eq = [ratio * _prices(X, v, eps, p, coeffs).mean() / 12.0] if endogenous else []
        g = np.concatenate((X_new, v_new, u_eq)) - z
        return g, eps, float(np.abs(g).max())

    def u_of(z):
        return z[-1] if endogenous else params.u

    g, eps, res = evaluate(z)
    jac = None   # built at the first step; a warm start may need none
    while res > _TOL * max(1.0, np.abs(z).max()):
        jac = jac or _jacobian_blocks(params, coeffs, ratio)
        dz = _newton_direction(z, eps, g, params, coeffs, jac)
        for t in 0.5 ** np.arange(_LINE_SEARCH_CUTS if dz is not None else 0):
            trial = z + t * dz
            if u_of(trial) > 0.0:
                g_t, eps_t, res_t = evaluate(trial)
                if res_t <= (1.0 - 1e-4 * t) * res:
                    z, g, eps, res = trial, g_t, eps_t, res_t
                    break
        else:
            z = z + config.lam * g
            if u_of(z) > u_floor:
                g, eps, res = evaluate(z)
        if u_of(z) <= u_floor:
            raise ConvergenceError(
                "service flow u collapsed toward zero; the rent-to-price "
                "condition has no positive solution at these parameters")
    return z, evals, res, eps


def _jacobian_blocks(params: ModelParams, coeffs: AffineCoefficients,
                     ratio: float | None) -> tuple:
    """The parts of G's generalized Jacobian that do not depend on z.

    Built once per solve: (ratio, d_v, d_match, d_raw, d_P, identity). Row m
    of d_v, d_match and d_raw is the gradient, in the unknowns, of v_m, of
    the match value beta X_{m+1} + u and of the raw cutoff
    (beta X_{m+1} + u - D_m)/A_m. The u column and d_P, the z-free part of
    the price gradients, exist only when ``ratio`` is given.
    """
    n, beta, theta = params.period, params.beta, params.theta
    N = 2 * n + (ratio is not None)
    d_v = np.eye(n, N, n)
    d_match = beta * np.eye(n, N)[(np.arange(n) + 1) % n]
    d_P = None
    if ratio is not None:
        d_u = np.eye(1, N, N - 1)
        d_match = d_match + d_u
        d_P = theta * d_match + (1.0 - theta) / (1.0 - beta) * d_u
    d_raw = (d_match - np.hstack((coeffs._D_matrix, np.zeros((n, N - n))))
             ) / coeffs.A.values[:, None]
    return ratio, d_v, d_match, d_raw, d_P, np.eye(N)


def _newton_direction(z: np.ndarray, eps: np.ndarray, g: np.ndarray,
                      params: ModelParams, coeffs: AffineCoefficients,
                      jac: tuple) -> np.ndarray | None:
    """Solve J dz = -g for an element J of G's generalized Jacobian at z.

    The cutoff e_m follows its raw value where 0 < e_m < v_m, follows v_m
    where e_m = v_m and stays at 0 otherwise; max(v_m, v_lo) follows v_m
    where v_m > v_lo. ``jac`` comes from ``_jacobian_blocks``. Returns None
    when J is singular.
    """
    ratio, d_v, d_match, d_raw, d_P, identity = jac
    n, A, v_lo = params.period, coeffs.A.values, coeffs.box.v_lo
    v = z[n:2 * n]
    gap, s = v - eps, np.maximum(v, v_lo)
    d_eps = ((eps > 0.0) & (eps < v))[:, None] * d_raw + (eps == v)[:, None] * d_v
    d_X_new = (d_match + (A * gap / s)[:, None] * (d_v - d_eps)
               - (0.5 * A * gap * gap / (s * s) * (v > v_lo))[:, None] * d_v)
    rows = [d_X_new, params.hazards.survival.values[:, None] * d_eps[np.arange(n) - 1]]
    if ratio is not None:
        d_P = d_P + (0.5 * params.theta * A)[:, None] * (d_v - d_eps)
        rows.append(ratio / 12.0 * d_P.mean(axis=0))
    try:
        return np.linalg.solve(np.vstack(rows) - identity, -g)
    except np.linalg.LinAlgError:
        return None
