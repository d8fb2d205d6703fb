"""The one-step equilibrium map and the equilibrium outputs Q and P.

One application of the map, given mover values X and vacancy stocks v:

  (i)   D_m = sum_r w_{m,r} X_{m+r}              (continuation intercepts)
  (ii)  e_m = (beta X_{m+1} + u - D_m) / A_m, clamped into [0, v_m]
  (iii) v'_m = 1 - phi_m + phi_m e_{m-1}          (vacancy law of motion)
  (iv)  X'_m = beta X_{m+1} + u + (A_m/2) (v_m - e_m)^2 / max(v_m, v_lo)

All subscripts wrap cyclically. The map sends the box K into itself; its
damped version (1-lam)*Z + lam*T(Z) shares its fixed points. The map is
piecewise smooth: its only kinks are the clamps on e_m and max(v_m, v_lo),
which is what lets the solver run Newton on T(Z) - Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineCoefficients
from .core import ModelParams, PeriodicSeries


@dataclass(frozen=True)
class EquilibriumState:
    """Mover values X, vacancy stocks v, and clamped reservation cutoffs."""

    X: PeriodicSeries
    v: PeriodicSeries
    epsilon: PeriodicSeries

    @property
    def period(self) -> int:
        return self.X.period


def _step(X: np.ndarray, v: np.ndarray, params: ModelParams,
          coeffs: AffineCoefficients) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw arrays in, raw arrays out; broadcasts over leading batch axes."""
    hazards = params.hazards
    phi = hazards.survival.values
    A = coeffs.A.values

    D = coeffs.continuation_weights(X)
    match_value = params.beta * _ahead(X) + params.u
    eps_bar = np.minimum(np.maximum((match_value - D) / A, 0.0), v)

    # hazard is stored as 1 - phi, so this is 1 - phi + phi*e_{m-1}.
    v_new = hazards.hazard.values + phi * _behind(eps_bar)
    gap = v - eps_bar
    X_new = match_value + 0.5 * A * gap * gap / np.maximum(v, coeffs.box.v_lo)
    return X_new, v_new, eps_bar


# Cyclic shifts along the last axis. Same values as np.roll(a, -1/1,
# axis=-1), at a fraction of its call overhead on 12-month vectors.
def _ahead(a: np.ndarray) -> np.ndarray:
    """out[..., m] = a[..., m+1]."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _behind(a: np.ndarray) -> np.ndarray:
    """out[..., m] = a[..., m-1]."""
    return np.concatenate((a[..., -1:], a[..., :-1]), axis=-1)


def compute_outputs(state: EquilibriumState, params: ModelParams,
                    coeffs: AffineCoefficients) -> tuple[PeriodicSeries, PeriodicSeries]:
    """Transactions Q and Nash-bargained prices P at a state.

    Q_m = max(0, v_m - e_m). The price averages the buyer's outside option
    u/(1-beta), the marginal match value beta X_{m+1} + u, and the seller's
    share of the expected surplus (A_m/2)(v_m - e_m).
    """
    X, v, eps = state.X.values, state.v.values, state.epsilon.values
    Q = np.maximum(0.0, v - eps)
    return PeriodicSeries(Q), PeriodicSeries(_prices(X, v, eps, params, coeffs))


def _prices(X: np.ndarray, v: np.ndarray, eps: np.ndarray,
            params: ModelParams, coeffs: AffineCoefficients) -> np.ndarray:
    """Raw-array prices P_m at (X, v) with clamped cutoffs eps."""
    beta, u, theta = params.beta, params.u, params.theta
    return ((1.0 - theta) * u / (1.0 - beta)
            + theta * (beta * _ahead(X) + u)
            + theta * 0.5 * coeffs.A.values * (v - eps))
