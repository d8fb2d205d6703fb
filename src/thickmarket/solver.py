"""Solver for the unique periodic equilibrium.

``solve_equilibrium`` runs one loop, semismooth Newton (Qi & Sun 1993), on
the fixed-point equations of the map T: at a fixed service flow u, the 2n
equations G(X, v) = T(X, v; u) - (X, v); with u pinned to a rent-to-price
ratio times the mean price (``solve_with_endogenous_u``), u joins the
unknowns and ratio*mean(P)/12 - u joins G, 2n+1 in all.

T is piecewise smooth, with kinks only at the clamps on the cutoffs and at
max(v, v_lo), so an element J of the generalized Jacobian is read off the
step's outputs; ``_jacobian`` assembles it from blocks built once per
solve. A cold solve, and an unknown u on a warm start too, starts at the
closed-form steady state of the flat model, the same market with the
annual survival spread evenly over the cycle. Steps are halved until the
sup norm of G drops; where no cut does, the damped step z += lam*G(z) is
taken instead. No trial with u at or below the floor 1e-10 * params.u is
evaluated, so only a damped step can reach it, and that is a collapse of
u. A trial whose G is not finite is rejected; a start or damped step whose
G is not finite ends the solve. A solve stops at |G| <= 1e-12 * max(1, |z|)
in sup norms; one that stepped to get there and is still above
1e-15 * max(1, |z|) takes one more full Newton step. The solution is the
last iterate, its cutoffs and the prices they give. Every map evaluation
counts against ``max_iterations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affine import AffineCoefficients, compute_affine_coefficients
from .core import ModelParams, PeriodicSeries
from .errors import ConvergenceError, DomainError
from .fixtures import DEFAULT_RENT_PRICE_RATIO
from .mapping import EquilibriumState, _prices, _step

_TOL = 1e-12              # stop at |G| <= _TOL * max(1, |z|), sup norms
_FINISH_TOL = 1e-15       # a stepped solve above this takes one more full step
_STEP_LENGTHS = tuple(0.5 ** k for k in range(8))   # tried before a damped step


@dataclass
class SolverConfig:
    lam: float = 0.01                   # damped fallback step z += lam*G(z)
    max_iterations: int = 2_000_000     # budget of map evaluations
    rent_price_ratio: float = DEFAULT_RENT_PRICE_RATIO
    # both (a warm start) or neither (the flat model's steady state,
    # solver._flat_steady_state); an unknown u always starts at the latter's
    initial_X: np.ndarray | None = None
    initial_v: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise DomainError(f"lam must lie in (0, 1], got {self.lam}")
        if not self.max_iterations >= 1:
            raise DomainError(
                f"max_iterations must be at least 1, got {self.max_iterations}")
        if not self.rent_price_ratio > 0.0:
            raise DomainError("rent_price_ratio must be positive")


@dataclass(frozen=True)
class EquilibriumSolution:
    state: EquilibriumState
    Q: PeriodicSeries
    P: PeriodicSeries
    u: float
    iterations: int
    final_residual: float


def _initial_point(params: ModelParams, config: SolverConfig,
                   ratio: float | None = None) -> np.ndarray:
    """The start z = (X, v), or (X, v, u) when ``ratio`` is given.

    A config that gives X and v is a warm start; one that gives neither
    starts at the steady state of the flat model (see
    ``_flat_steady_state``): X_m = X_bar, v_m = h_m + phi_m e_bar. With
    ``ratio``, u is that model's in either case, so ``params.u`` only sets
    the floor below which u has collapsed.
    """
    n = params.period
    X, v = config.initial_X, config.initial_v
    if (X is None) != (v is None):
        raise DomainError("a warm start gives both initial_X and initial_v")
    if X is None or ratio is not None:   # a warm fixed-u start needs none
        X_bar, e_bar, u = _flat_steady_state(params, ratio)
    if X is None:
        X, hazards = np.full(n, X_bar), params.hazards
        v = hazards.hazard.values + hazards.survival.values * e_bar
    else:
        X, v = np.asarray(X, dtype=float), np.asarray(v, dtype=float)
        for name, a in (("initial_X", X), ("initial_v", v)):
            if a.shape != (n,):
                raise DomainError(f"{name} must have shape ({n},)")
            if not np.isfinite(a).all():
                raise DomainError(f"{name} must be finite everywhere")
    return np.concatenate((X, v) if ratio is None else (X, v, [u]))


def _flat_steady_state(params: ModelParams,
                       ratio: float | None) -> tuple[float, float, float]:
    """(X_bar, e_bar, u) at the steady state of the flat model.

    The flat model spreads the annual survival evenly over the cycle:
    every month has phi_bar = (prod phi_m)^(1/n), h = 1 - phi_bar and
    A = 1/(1 - beta phi_bar). Its steady state has v = h + phi_bar e,
    q = v - e = h(1 - e), S = (A/2) q^2 / v, X_bar = (u + S)/(1 - beta) and
    e = u + beta phi_bar S. With ``ratio``, u = kappa' theta (beta S/(1 - beta)
    + (A/2) q), where kappa = ratio/12 < 1 - beta and
    kappa' = kappa/(1 - kappa/(1 - beta)); u is ``params.u`` otherwise.
    Multiplied by v, either case is a quadratic a e^2 + b e = c with c > 0
    and one root in (0, 1), taken here without cancellation; a fixed u of
    at least 1 shuts the market (e = v = 1).
    """
    beta = params.beta
    phi = float(np.exp(np.log(params.hazards.survival.values).mean()))
    h = 1.0 - phi
    half_A = 0.5 / (1.0 - beta * phi)
    if ratio is None:
        # e v = alpha (1 - e)^2 + u v
        u = params.u
        if u >= 1.0:
            return u / (1.0 - beta), 1.0, u
        alpha, gamma, u_v = beta * phi * half_A * h * h, 0.0, u
    else:
        # e v = alpha (1 - e)^2 + gamma (1 - e) v
        kappa = ratio / 12.0
        k = params.theta * kappa / (1.0 - kappa / (1.0 - beta))
        alpha = beta * (k / (1.0 - beta) + phi) * half_A * h * h
        gamma, u_v = k * half_A * h, 0.0
    a = phi * (1.0 + gamma) - alpha
    b = h + 2.0 * alpha - gamma * (phi - h) - u_v * phi
    c = alpha + gamma * h + u_v * h
    d = math.sqrt(b * b + 4.0 * a * c)
    e = 2.0 * c / (b + d) if b >= 0.0 else (d - b) / (2.0 * a)
    q = h * (1.0 - e)
    S = half_A * q * q / (h + phi * e)
    if ratio is not None:
        u = k * (beta * S / (1.0 - beta) + half_A * q)
    return (u + S) / (1.0 - beta), e, u


def solve_equilibrium(params: ModelParams, config: SolverConfig | None = None,
                      *, ratio: float | None = None) -> EquilibriumSolution:
    """Solve T(X, v; u) = (X, v) at the u of ``params`` or, given the annual
    ``ratio``, jointly with u = ratio * mean(P) / 12, in one Newton run.

    The solution is the last iterate with the cutoffs of its evaluation;
    ``final_residual`` is the sup norm of T(X, v; u) - (X, v) there. Raises
    ``DomainError`` before any map evaluation at theta = 0, where every
    price is u/(1 - beta) and the u equation has no isolated root, and
    unless 0 < ratio < 12*(1 - beta), as every price is at least
    u/(1 - beta); raises ``ConvergenceError`` when ``max_iterations`` map
    evaluations do not reach the fixed point, u collapses toward zero or
    an iterate's map evaluation or prices are not finite.
    """
    if ratio is not None:
        if params.theta == 0.0:
            raise DomainError(
                "theta = 0 prices every month at u/(1 - beta), so the rent-to-price "
                "condition cannot pin u; fix u instead (--u-fixed)")
        bound = 12.0 * (1.0 - params.beta)
        if not 0.0 < ratio < bound:
            raise DomainError(
                f"rent_price_ratio {ratio:g} admits no positive u: every price is "
                "at least u/(1 - beta), so ratio*mean(P)/12 = u needs "
                f"0 < rent_price_ratio < 12*(1 - beta) = {bound:.6g}")
    config = config or SolverConfig()
    coeffs = compute_affine_coefficients(params.hazards, params.beta, params.u)
    n = params.period
    z, evals, g, eps = _newton(_initial_point(params, config, ratio),
                               params, coeffs, config, ratio)
    X, v, u = z[:n], z[n:2 * n], params.u if ratio is None else float(z[-1])
    P = _prices(X, v, eps, params, coeffs, u)
    if not math.isfinite(float(np.abs(P).max())):   # a fixed u's G reads no P
        raise ConvergenceError("equilibrium solve ended at non-finite prices")
    wrap = PeriodicSeries.wrap
    return EquilibriumSolution(
        state=EquilibriumState(wrap(X), wrap(v), wrap(eps)),
        Q=wrap(np.maximum(0.0, v - eps)), P=wrap(P), u=u, iterations=evals,
        final_residual=float(np.abs(g[:2 * n]).max()))


def solve_with_endogenous_u(params: ModelParams,
                            config: SolverConfig | None = None
                            ) -> tuple[EquilibriumSolution, float]:
    """``solve_equilibrium`` with u = rent_price_ratio * mean(P) / 12, the
    ratio taken from ``config``; returns the solution and its u."""
    config = config or SolverConfig()
    solution = solve_equilibrium(params, config, ratio=config.rent_price_ratio)
    return solution, solution.u


def _newton(z: np.ndarray, params: ModelParams, coeffs: AffineCoefficients,
            config: SolverConfig, ratio: float | None = None
            ) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Drive G(z) to zero from z as the module docstring sets out.

    z is (X, v) at the fixed u of ``params``, or (X, v, u) with the u
    equation when ``ratio`` is given. Returns (z, evaluations, G(z), eps),
    eps the clamped cutoffs of the evaluation at the returned z.
    """
    n = params.period
    endogenous = ratio is not None
    u_floor = 1e-10 * params.u   # an endogenous u below this has collapsed
    evals, res = 0, np.inf

    def evaluate(z, tentative=False):
        nonlocal evals
        if evals == config.max_iterations:
            raise ConvergenceError(
                f"equilibrium solve did not converge within {config.max_iterations} "
                f"map evaluations (last residual {res:.3g})")
        evals += 1
        X, v, u = z[:n], z[n:2 * n], u_of(z)
        X_new, v_new, eps = _step(X, v, params, coeffs, u)
        u_eq = ([ratio * (_prices(X, v, eps, params, coeffs, u).sum() / n)
                 / 12.0] if endogenous else [])
        g = np.concatenate((X_new, v_new, u_eq)) - z
        r = float(np.abs(g).max())
        if not (tentative or math.isfinite(r)):
            raise ConvergenceError(
                f"map evaluation {evals} of the equilibrium solve is not finite "
                f"(residual {r:.3g}); no iterate can follow it")
        return g, eps, r

    def u_of(z):
        return z[-1] if endogenous else params.u

    g, eps, res = evaluate(z)
    jac = None   # built at the first step; a warm start may need none
    while res > _TOL * max(1.0, np.abs(z).max()):
        jac = jac or _jacobian_blocks(params, coeffs, ratio)
        dz = _newton_direction(_jacobian(z, eps, jac), g)
        for t in _STEP_LENGTHS if dz is not None else ():
            trial = z + t * dz
            if u_of(trial) > u_floor:
                found = evaluate(trial, tentative=True)
                if found[-1] <= (1.0 - 1e-4 * t) * res:
                    z, (g, eps, res) = trial, found
                    break
        else:
            z = z + config.lam * g
            if u_of(z) <= u_floor:
                raise ConvergenceError(
                    "service flow u collapsed toward zero; the rent-to-price "
                    "condition has no positive solution at these parameters")
            g, eps, res = evaluate(z)
    # Newton from a close start often meets the test at a few 1e-13; one
    # more full step takes the residual to round-off.
    if jac is not None and res > _FINISH_TOL * max(1.0, np.abs(z).max()):
        dz = _newton_direction(_jacobian(z, eps, jac), g)
        if dz is not None and u_of(z + dz) > u_floor:
            found = evaluate(z + dz, tentative=True)
            if found[-1] <= res:
                z, (g, eps, res) = z + dz, found
    return z, evals, g, eps


def _jacobian_blocks(params: ModelParams, coeffs: AffineCoefficients,
                     ratio: float | None) -> tuple:
    """The parts of G's generalized Jacobian that do not depend on z,
    built once per solve. Row m of d_match and d_raw is the gradient of the
    match value beta X_{m+1} + u and of the raw cutoff
    (beta X_{m+1} + u - D_m)/A_m. ``base`` is d_match - I on the X rows, -I
    on the v rows and, with ``ratio``, ratio/12 times the mean z-free price
    gradient, less 1 at u, on the u row. ``raw`` stacks d_raw and d_raw of
    the month behind; ``weights`` are the u row's ratio/(12n) (theta/2) A.
    """
    n, beta, theta = params.period, params.beta, params.theta
    N = 2 * n + (ratio is not None)
    months, behind = np.arange(n), (np.arange(n) - 1) % n   # month m - 1 mod n
    A = coeffs.A.values
    d_match = np.zeros((n, N))
    d_match[months, (months + 1) % n] = beta
    d_match[:, 2 * n:] = 1.0   # the u column, when u is unknown
    d_raw = d_match.copy()
    d_raw[:, :n] -= coeffs._D_matrix
    d_raw /= A[:, None]
    base = -np.eye(N)
    base[:n] += d_match
    weights = None if ratio is None else ratio / (12.0 * n) * 0.5 * theta * A
    if ratio is not None:   # P = theta match + (1 - theta) u/(1 - beta) + ...
        base[-1] += ratio / 12.0 * theta * d_match.mean(axis=0)
        base[-1, -1] += ratio / 12.0 * (1.0 - theta) / (1.0 - beta)
    return (n, months, behind, base, np.concatenate((d_raw, d_raw[behind])),
            weights, A, params.hazards.survival.values, coeffs.v_lo)


def _jacobian(z: np.ndarray, eps: np.ndarray, jac: tuple) -> np.ndarray:
    """An element J of G's generalized Jacobian at z, whose evaluation gave
    the clamped cutoffs ``eps``; ``jac`` comes from ``_jacobian_blocks``.

    The cutoff e_m follows its raw value where 0 < e_m < v_m, follows v_m
    where e_m = v_m and stays at 0 otherwise; max(v_m, v_lo) follows v_m
    where v_m > v_lo. So J is ``base`` plus the raw rows scaled per row and
    the v terms, and with u unknown the u row's terms of the cutoffs.
    """
    n, months, behind, base, raw, weights, A, phi, v_lo = jac
    v = z[n:2 * n]
    inner = (eps > 0.0) & (eps < v)
    at_v = eps == v
    gap, s = v - eps, np.maximum(v, v_lo)
    a = A * gap / s                  # 0 where e_m = v_m
    b = 0.5 * A * gap * gap / (s * s) * (v > v_lo)
    J = base.copy()
    J[:2 * n] += raw * np.concatenate((-a * inner, phi * inner[behind]))[:, None]
    J[months, n + months] += a - b
    # Added, not assigned: at n = 1 a v row's month behind is its own -1.
    J[n + months, n + behind] += phi * at_v[behind]
    if weights is not None:
        J[-1] -= (weights * inner) @ raw[:n]
        J[-1, n:2 * n] += weights * ~at_v
    return J


def _newton_direction(J: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Solve J dz = -g; None when J is singular."""
    try:
        return np.linalg.solve(J, -g)
    except np.linalg.LinAlgError:
        return None
