"""End-to-end pipelines shared by the command-line interface and tests."""

from __future__ import annotations

import numpy as np

from .calibrate import MoveShares, compose_beta, hazards_from_shares
from .core import MONTH_NAMES, SEASONS, HazardProfile, ModelParams, seasonal_deviation
from .errors import DataError
from .fixtures import DEFAULT_ANNUAL_RATE, DEFAULT_DELTA, DEFAULT_THETA
from .solver import EquilibriumSolution, SolverConfig, solve_equilibrium, solve_with_endogenous_u

# row k: the 0-based calendar months of the k-th season of SEASONS
_SEASON_MONTHS = np.array(list(SEASONS.values())) - 1


def solve_hazards(hazards: HazardProfile,
                  annual_rate: float = DEFAULT_ANNUAL_RATE,
                  delta: float = DEFAULT_DELTA,
                  theta: float = DEFAULT_THETA,
                  u_fixed: float | None = None,
                  config: SolverConfig | None = None,
                  ) -> tuple[EquilibriumSolution, float, ModelParams]:
    """Solve the equilibrium for a given hazard profile.

    With ``u_fixed`` unset, the service flow is pinned endogenously to the
    configured rent-to-price ratio; otherwise the equilibrium is solved
    once at the given u. Returns (solution, u, params).
    """
    params = ModelParams(beta_hat=compose_beta(annual_rate), delta=delta,
                         theta=theta, u=1.0 if u_fixed is None else u_fixed,
                         hazards=hazards)
    if u_fixed is not None:
        return solve_equilibrium(params, config), u_fixed, params
    solution, u = solve_with_endogenous_u(params, config)
    return solution, u, params.with_u(u)


def solve_calibration(shares: MoveShares, eta: float, **model
                      ) -> tuple[EquilibriumSolution, float, ModelParams]:
    """Calibrate hazards from move shares, then solve the equilibrium;
    ``model`` takes the keywords of ``solve_hazards``."""
    return solve_hazards(hazards_from_shares(shares, eta), **model)


def deviation_summary(solution: EquilibriumSolution) -> dict:
    """Seasonal deviations of P and Q over a 12-month cycle, with peak
    months and season means."""
    dev_P = seasonal_deviation(solution.P).values
    dev_Q = seasonal_deviation(solution.Q).values

    def describe(dev):
        peak = int(np.argmax(dev))
        return {
            "deviation": dev.tolist(),
            "peak_month": peak + 1,
            "trough_month": int(np.argmin(dev)) + 1,
            "min": float(dev.min()),
            "max": float(dev.max()),
            "amplitude": float(dev.max() - dev.min()),
            "peak_month_name": MONTH_NAMES[peak],
            "season_means": dict(zip(
                SEASONS, dev[_SEASON_MONTHS].mean(axis=1).tolist())),
        }

    return {"P": describe(dev_P), "Q": describe(dev_Q)}


def replicate_biannual(params: dict, config: SolverConfig | None = None) -> dict:
    """Solve the two-season benchmark and compare against its targets.

    ``params`` must carry beta_hat, delta, theta, u, and survival (a list
    of per-season survival probabilities); an optional ``targets`` block
    with sale_probability, vacancies, and tolerance turns the report into
    a pass/fail validation.
    """
    required = ("beta_hat", "delta", "theta", "u", "survival")
    missing = [k for k in required if k not in params]
    if missing:
        raise DataError(f"missing required fields {missing}; "
                        f"expected at least {list(required)}")
    try:
        beta_hat, delta, theta, u = (float(params[k]) for k in required[:4])
        survival = np.asarray(params["survival"], float)
    except (TypeError, ValueError):
        raise DataError(f"{list(required[:4])} must be numbers and "
                        "survival a list of numbers") from None
    targets = params.get("targets")
    if targets and not (isinstance(targets, dict) and
                        {"sale_probability", "vacancies"} <= targets.keys()):
        raise DataError("targets must be an object with "
                        "sale_probability and vacancies")
    model = ModelParams(beta_hat=beta_hat, delta=delta, theta=theta, u=u,
                        hazards=HazardProfile.from_survival(survival))
    solution = solve_equilibrium(model, config)
    v = solution.state.v.values
    eps = solution.state.epsilon.values
    sale_prob = 1.0 - eps / v

    report = {
        "labels": params.get("labels", [str(i + 1) for i in range(len(v))]),
        "vacancies": v.tolist(),
        "sale_probability": sale_prob.tolist(),
        "transactions": solution.Q.values.tolist(),
        "prices": solution.P.values.tolist(),
        "iterations": int(solution.iterations),
        "residual": float(solution.final_residual),
    }
    if targets:
        tol = float(targets.get("tolerance", 0.005))
        err_q = np.abs(sale_prob - np.asarray(targets["sale_probability"]))
        err_v = np.abs(v - np.asarray(targets["vacancies"]))
        report["targets"] = {
            "sale_probability": list(targets["sale_probability"]),
            "vacancies": list(targets["vacancies"]),
            "tolerance": tol,
            "max_error_sale_probability": float(err_q.max()),
            "max_error_vacancies": float(err_v.max()),
            "within_tolerance": bool(err_q.max() <= tol and err_v.max() <= tol),
        }
    return report


def compare_calibrations(solution_pre: EquilibriumSolution,
                         solution_post: EquilibriumSolution) -> dict:
    """Side-by-side seasonal deviations of two 12-month cycles, with
    per-month deltas and season-mean changes."""
    pre = deviation_summary(solution_pre)
    post = deviation_summary(solution_post)
    out = {"pre": pre, "post": post, "delta": {}}
    for key in ("P", "Q"):
        dev_pre = np.asarray(pre[key]["deviation"])
        dev_post = np.asarray(post[key]["deviation"])
        out["delta"][key] = {
            "per_month": (dev_post - dev_pre).tolist(),
            "season_mean_changes": {
                season: post[key]["season_means"][season]
                - pre[key]["season_means"][season]
                for season in SEASONS
            },
        }
    return out
