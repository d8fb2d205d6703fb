"""Closed-form value-function slopes, continuation weights, and bounds.

The homeowner value is affine in match quality, H_m(e) = A_m*e + D_m.
Imposing n-periodicity on the slope recursion A_m = 1 + beta*phi_{m+1}*A_{m+1}
gives a closed form for A_m, and unrolling the intercept recursion expresses
D_m as a weighted sum of future mover values, D_m = sum_r w_{m,r} X_{m+r}.
This module computes those objects together with the compact box on which
the one-step equilibrium map is a self-map, and the damping threshold below
which the damped map is theoretically guaranteed to contract. All of them
come from one n x n calendar table of the months ahead of each month, with
no Python loop over months.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import HazardProfile, PeriodicSeries
from .errors import DomainError


@dataclass(frozen=True)
class Box:
    """Coordinate bounds [X_lo, X_hi]^n x [v_lo, v_hi]^n for the map's domain."""

    v_lo: float
    v_hi: float
    X_lo: float
    X_hi: float


@dataclass(frozen=True)
class AffineCoefficients:
    """Slopes A_m, weight table w_{m,r}, and derived bounds.

    W[i, j] holds w_{m,r} for m = i+1 and r = j+1 (r = 1..n lags ahead).
    Wstar is max_m sum_r w_{m,r}; lambda_bar is the damping threshold
    (1-beta) / ((A_max/A_min)*(beta+Wstar)).
    """

    A: PeriodicSeries
    W: np.ndarray
    Wstar: float
    A_min: float
    A_max: float
    lambda_bar: float
    box: Box
    _D_matrix: np.ndarray  # row m0: D = _D_matrix @ X with calendar indexing

    def continuation_weights(self, X: np.ndarray) -> np.ndarray:
        """D_m = sum_r w_{m,r} X_{m+r}, broadcasting over leading axes of X."""
        return X @ self._D_matrix.T


@functools.cache
def _calendar(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of an n-month cycle: cal[m0, r] is the calendar index
    of month m0 + 1 + r; lag[m0, c] is m0 * n + r for the r with
    cal[m0, r] = c, so taking it from a lag-indexed table puts each entry
    on its calendar column; powers is 0..n."""
    months = np.arange(n)
    cal = (months[:, None] + 1 + months) % n
    lag = months[:, None] * n + (months - months[:, None] - 1) % n
    tables = (cal, lag, np.arange(n + 1))
    for table in tables:
        table.setflags(write=False)
    return tables


def compute_affine_coefficients(hazards: HazardProfile, beta: float,
                                u: float) -> AffineCoefficients:
    """Evaluate the closed forms for A, the weights w, and all bounds.

    Parameters
    ----------
    hazards : HazardProfile
        Monthly survival probabilities phi_m, each strictly in (0, 1).
    beta : float
        Effective monthly discount factor, strictly in (0, 1).
    u : float
        Per-month housing service flow, strictly positive.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if not u > 0.0:
        raise DomainError(f"u must be positive, got {u}")
    phi = hazards.survival.values
    n = phi.size

    denom = 1.0 - beta ** n * float(phi.prod())

    # row m0 of prods holds prod_{j=1..s} phi_{m+j}, s = 0..n-1 (empty
    # product = 1)
    cal, lag, powers = _calendar(n)
    ahead = phi[cal]
    prods = np.ones((n, n))
    prods[:, 1:] = np.cumprod(ahead[:, :-1], axis=1)
    beta_pows = beta ** powers
    # vecdot sums each row as np.dot does; matmul and einsum round differently
    A = np.vecdot(prods, beta_pows[:n]) / denom
    W = beta_pows[1:] * prods * (1.0 - ahead) / denom

    row_sums = W.sum(axis=1)
    Wstar = float(row_sums.max())
    A_min = float(A.min())
    A_max = float(A.max())
    lambda_bar = (1.0 - beta) / ((A_max / A_min) * (beta + Wstar))

    v_lo = 1.0 - float(phi.max())
    v_hi = (1.0 - float(phi.min())) / v_lo
    X_lo = u / (1.0 - beta)
    X_hi = X_lo + A_max * v_hi / (2.0 * (1.0 - beta))
    box = Box(v_lo=v_lo, v_hi=v_hi, X_lo=X_lo, X_hi=X_hi)

    # Put the lag-indexed weights on calendar positions so that D = Dmat @ X
    # in one matvec: column (m0 + r) mod n gets w_{m, r}.
    Dmat = W.take(lag)

    return AffineCoefficients(
        A=PeriodicSeries(A), W=W, Wstar=Wstar,
        A_min=A_min, A_max=A_max, lambda_bar=lambda_bar, box=box,
        _D_matrix=Dmat,
    )
