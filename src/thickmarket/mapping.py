"""The one-step equilibrium map and the equilibrium outputs Q and P.

One application of the map, given mover values X and vacancy stocks v:

  (i)   D_m = sum_r w_{m,r} X_{m+r}              (continuation intercepts)
  (ii)  e_m = (beta X_{m+1} + u - D_m) / A_m, clamped into [0, v_m]
  (iii) v'_m = 1 - phi_m + phi_m e_{m-1}          (vacancy law of motion)
  (iv)  X'_m = beta X_{m+1} + u + (A_m/2) (v_m - e_m)^2 / max(v_m, v_lo)

All subscripts wrap cyclically. The map sends the box K into itself; its
damped version (1-lam)*Z + lam*T(Z) shares its fixed points and is the
iteration actually used by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineCoefficients
from .core import ModelParams, PeriodicSeries
from .errors import DomainError


@dataclass(frozen=True)
class EquilibriumState:
    """Mover values X, vacancy stocks v, and clamped reservation cutoffs."""

    X: PeriodicSeries
    v: PeriodicSeries
    epsilon: PeriodicSeries

    @property
    def period(self) -> int:
        return self.X.period

    @classmethod
    def from_arrays(cls, X: np.ndarray, v: np.ndarray, params: ModelParams,
                    coeffs: AffineCoefficients) -> "EquilibriumState":
        """Build a state whose cutoffs are derived from its own (X, v)."""
        eps = reservation_cutoffs(X, v, params, coeffs)
        return cls(PeriodicSeries(X.copy()), PeriodicSeries(v.copy()),
                   PeriodicSeries(eps))


def reservation_cutoffs(X: np.ndarray, v: np.ndarray, params: ModelParams,
                        coeffs: AffineCoefficients) -> np.ndarray:
    """Clamped cutoffs min(max(0, (beta X_{m+1} + u - D_m)/A_m), v_m)."""
    return _step(X, v, params, coeffs)[2]


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


def apply_T(state: EquilibriumState, params: ModelParams,
            coeffs: AffineCoefficients) -> EquilibriumState:
    """One application of the undamped equilibrium map.

    The returned state's cutoffs are re-derived from the updated (X, v) so
    every state object is internally consistent; at a fixed point they
    coincide with the cutoffs used inside the update.
    """
    X_new, v_new, _ = _step(state.X.values, state.v.values, params, coeffs)
    return EquilibriumState.from_arrays(X_new, v_new, params, coeffs)


def apply_T_damped(state: EquilibriumState, lam: float, params: ModelParams,
                   coeffs: AffineCoefficients) -> EquilibriumState:
    """Damped update (1-lam)*state + lam*T(state) on the (X, v) coordinates."""
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"damping coefficient must lie in (0, 1], got {lam}")
    X, v = state.X.values, state.v.values
    X_new, v_new, _ = _step(X, v, params, coeffs)
    X_damped = (1.0 - lam) * X + lam * X_new
    v_damped = (1.0 - lam) * v + lam * v_new
    return EquilibriumState.from_arrays(X_damped, v_damped, params, coeffs)


def compute_outputs(state: EquilibriumState, params: ModelParams,
                    coeffs: AffineCoefficients) -> tuple[PeriodicSeries, PeriodicSeries]:
    """Transactions Q and Nash-bargained prices P at a state.

    Q_m = max(0, v_m - e_m). The price averages the buyer's outside option
    u/(1-beta), the marginal match value beta X_{m+1} + u, and the seller's
    share of the expected surplus (A_m/2)(v_m - e_m).
    """
    beta, u, theta = params.beta, params.u, params.theta
    X = state.X.values
    v = state.v.values
    eps = state.epsilon.values
    A = coeffs.A.values

    Q = np.maximum(0.0, v - eps)
    P = ((1.0 - theta) * u / (1.0 - beta)
         + theta * (beta * _ahead(X) + u)
         + theta * 0.5 * A * (v - eps))
    return PeriodicSeries(Q), PeriodicSeries(P)
