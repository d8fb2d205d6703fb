"""Solver for the unique periodic equilibrium.

``solve_equilibrium`` runs one loop, semismooth Newton (Qi & Sun 1993), on
the fixed-point equations of the map T: at a fixed service flow u, the 2n
equations G(X, v) = T(X, v; u) - (X, v); with u pinned to a rent-to-price
ratio times the mean price (``solve_with_endogenous_u``), u joins the
unknowns and ratio*mean(P)/12 - u joins G, 2n+1 in all.

T is piecewise smooth, with kinks only at the clamps on the cutoffs and at
max(v, v_lo), so an element J of the generalized Jacobian is read off the
step's outputs; ``_jacobian`` assembles it in place from templates built
once per solve, each entry rounded as a term-by-term sum would round it.
A cold solve, and an unknown u on a warm start too, starts at the
closed-form steady state of the flat model, the same market with the
annual survival spread evenly over the cycle. Steps are halved until the
sup norm of G drops; where no cut does, the damped step z += lam*G(z) is
taken instead. No trial with u at or below the floor 1e-10 * params.u is
evaluated, so only a damped step can reach it, and that is a collapse of
u. A trial whose G is not finite is rejected; a start or damped step whose
G is not finite ends the solve. A solve stops at |G| <= 1e-12 * max(1, |z|)
in sup norms; one that stepped to get there and is still above
1e-15 * max(1, |z|) takes one more full Newton step. The solution is the
last iterate with the cutoffs and prices of its evaluation. Every map
evaluation counts against ``max_iterations``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .affine import AffineCoefficients, compute_affine_coefficients
from .core import ModelParams, PeriodicSeries
from .errors import ConvergenceError, DomainError
from .fixtures import DEFAULT_RENT_PRICE_RATIO
from .mapping import EquilibriumState, _prices, _step, compute_outputs

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
    z, evals, g, eps, P = _newton(_initial_point(params, config, ratio),
                                  params, coeffs, config, ratio)
    wrap = PeriodicSeries.wrap
    state = EquilibriumState(wrap(z[:n]), wrap(z[n:2 * n]), wrap(eps))
    if P is None:   # at a fixed u no residual reads eps; P does
        Q, P = compute_outputs(state, params, coeffs)
        if not np.isfinite(P.values).all():
            raise ConvergenceError("equilibrium solve ended at non-finite prices")
    else:
        Q, P = wrap(np.maximum(0.0, state.v.values - eps)), wrap(P)
    return EquilibriumSolution(
        state=state, Q=Q, P=P, u=params.u if ratio is None else float(z[-1]),
        iterations=evals, final_residual=float(np.abs(g[:2 * n]).max()))


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
            ) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray | None]:
    """Drive G(z) to zero from z as the module docstring sets out.

    z is (X, v) at the fixed u of ``params``, or (X, v, u) with the u
    equation when ``ratio`` is given. Returns (z, evaluations, G(z), eps,
    P): the clamped cutoffs and, with u unknown, the prices of the
    evaluation at the returned z; P is None at a fixed u.
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
        P = _prices(X, v, eps, params, coeffs, u) if endogenous else None
        u_eq = [ratio * (P.sum() / n) / 12.0] if endogenous else []
        g = np.concatenate((X_new, v_new, u_eq)) - z
        r = float(np.abs(g).max())
        if not (tentative or math.isfinite(r)):
            raise ConvergenceError(
                f"map evaluation {evals} of the equilibrium solve is not finite "
                f"(residual {r:.3g}); no iterate can follow it")
        return g, eps, P, r

    def u_of(z):
        return z[-1] if endogenous else params.u

    g, eps, P, res = evaluate(z)
    jac = None   # built at the first step; a warm start may need none
    while res > _TOL * max(1.0, np.abs(z).max()):
        jac = jac or _jacobian_blocks(params, coeffs, ratio)
        dz = _newton_direction(_jacobian(z, eps, jac), g)
        for t in _STEP_LENGTHS if dz is not None else ():
            trial = z + t * dz
            if u_of(trial) > u_floor:
                found = evaluate(trial, tentative=True)
                if found[-1] <= (1.0 - 1e-4 * t) * res:
                    z, (g, eps, P, res) = trial, found
                    break
        else:
            z = z + config.lam * g
            if u_of(z) <= u_floor:
                raise ConvergenceError(
                    "service flow u collapsed toward zero; the rent-to-price "
                    "condition has no positive solution at these parameters")
            g, eps, P, res = evaluate(z)
    # Newton from a close start often meets the test at a few 1e-13; one
    # more full step takes the residual to round-off.
    if jac is not None and res > _FINISH_TOL * max(1.0, np.abs(z).max()):
        dz = _newton_direction(_jacobian(z, eps, jac), g)
        if dz is not None and u_of(z + dz) > u_floor:
            found = evaluate(z + dz, tentative=True)
            if found[-1] <= res:
                z, (g, eps, P, res) = z + dz, found
    return z, evals, g, eps, P


@functools.cache
def _index_tables(n: int, endogenous: bool) -> tuple:
    """Read-only tables of n and the u mode: the months, the month ahead
    and behind of each, and the flat positions, in the rows ``_jacobian``
    stacks, that it adds to last (each X row's own X, which takes -1, and
    own v, each v row's v of the month behind, each price row's own v)."""
    N = 2 * n + endogenous
    months = np.arange(n)
    ahead, behind = (months + 1) % n, months - 1
    own_v = n + months
    rows = np.concatenate((months, np.arange((2 + endogenous) * n)))
    cols = np.concatenate((months, own_v, own_v[behind], own_v)[:3 + endogenous])
    tables = (months, ahead, behind, rows * N + cols, np.full(n, -1.0))
    for table in tables:
        table.setflags(write=False)
    return tables


def _jacobian_blocks(params: ModelParams, coeffs: AffineCoefficients,
                     ratio: float | None) -> tuple:
    """The parts of G's generalized Jacobian that do not depend on z.

    Built once per solve. Row m of d_match and d_raw is the gradient, in
    the unknowns, of the match value beta X_{m+1} + u and of the raw cutoff
    (beta X_{m+1} + u - D_m)/A_m; with ``ratio``, row m of d_P is that of
    the z-free part of P_m. ``base`` stacks d_match for the X rows, -I for
    the v rows and d_P for the price rows, and ``raw`` the raw-cutoff rows
    that enter them: d_raw, d_raw of the month behind and d_raw.
    """
    n, beta, theta = params.period, params.beta, params.theta
    endogenous = ratio is not None
    N, k = 2 * n + endogenous, 2 + endogenous
    months, ahead, behind, positions, minus_ones = _index_tables(n, endogenous)
    A = coeffs.A.values
    d_match = np.zeros((n, N))
    d_match[months, ahead] = beta
    if endogenous:
        d_match[:, -1] = 1.0
    d_raw = d_match.copy()
    d_raw[:, :n] -= coeffs._D_matrix
    d_raw /= A[:, None]
    base = np.concatenate((d_match, -np.eye(n, N, n), theta * d_match)[:k])
    if endogenous:   # d_P = theta d_match + (1 - theta)/(1 - beta) d_u
        base[2 * n:, -1] += (1.0 - theta) / (1.0 - beta)
    return (n, ratio, base, np.concatenate((d_raw, d_raw[behind], d_raw)[:k]),
            positions, minus_ones, behind, A, 0.5 * A, 0.5 * theta * A,
            params.hazards.survival.values, coeffs.v_lo)


def _jacobian(z: np.ndarray, eps: np.ndarray, jac: tuple) -> np.ndarray:
    """An element J of G's generalized Jacobian at z, whose evaluation gave
    the clamped cutoffs ``eps``; ``jac`` comes from ``_jacobian_blocks``.

    The cutoff e_m follows its raw value where 0 < e_m < v_m, follows v_m
    where e_m = v_m and stays at 0 otherwise; max(v_m, v_lo) follows v_m
    where v_m > v_lo. Each row is its ``base`` row plus a multiple of its
    raw-cutoff row; the v terms and the -1 of an X row's own X are added
    last. With u unknown, the u row is ratio/12 times the mean of the price
    rows, less 1 on its diagonal.
    """
    n, ratio, base, raw, positions, minus_ones, behind, A, half_A, \
        half_theta_A, phi, v_lo = jac
    v = z[n:2 * n]
    inner = (eps > 0.0) & (eps < v)
    at_v = eps == v
    gap, s = v - eps, np.maximum(v, v_lo)
    a = A * gap / s                  # 0 where e_m = v_m
    b = half_A * gap * gap / (s * s) * (v > v_lo)
    scales = [-a * inner, phi * inner[behind]]
    terms = [minus_ones, a - b, phi * at_v[behind]]
    if ratio is not None:
        scales.append(-half_theta_A * inner)
        terms.append(half_theta_A * ~at_v)
    J = raw * np.concatenate(scales)[:, None]
    J += base
    # Added, not assigned: at n = 1 a v row's month behind is its own -1.
    J.flat[positions] += np.concatenate(terms)
    if ratio is None:
        return J
    J[2 * n] = ratio / 12.0 * (J[2 * n:].sum(axis=0) / n)
    J[2 * n, -1] -= 1.0
    return J[:2 * n + 1]


def _newton_direction(J: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Solve J dz = -g; None when J is singular."""
    try:
        return np.linalg.solve(J, -g)
    except np.linalg.LinAlgError:
        return None
