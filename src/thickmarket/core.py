"""Cycle-indexed series, survival/hazard profiles, and model parameters.

Everything in the model is indexed by a calendar position m in 1..n that
wraps around (month n+1 is month 1 again). ``PeriodicSeries`` is the
carrier for all such objects; ``HazardProfile`` holds the monthly match
survival probabilities that drive the seasonal cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# Meteorological seasons as calendar months (1-based).
SEASONS = {
    "winter": (12, 1, 2),
    "spring": (3, 4, 5),
    "summer": (6, 7, 8),
    "autumn": (9, 10, 11),
}


@dataclass(frozen=True)
class PeriodicSeries:
    """A vector of n real values indexed cyclically by month. It checks an
    outside input; ``wrap`` holds a derived one read-only, unchecked."""

    values: np.ndarray

    def __post_init__(self):
        arr = _vector(self.values)
        if not np.isfinite(arr).all():
            raise DomainError("a periodic series must be finite everywhere")
        object.__setattr__(self, "values", arr)

    @classmethod
    def wrap(cls, arr: np.ndarray) -> "PeriodicSeries":
        """The series of a float vector this package made: no copy, no check."""
        arr.flags.writeable = False
        series = object.__new__(cls)
        object.__setattr__(series, "values", arr)
        return series

    @property
    def period(self) -> int:
        return self.values.size


def _vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("a periodic series must be a 1-d vector")
    return arr


def seasonal_deviation(x: np.ndarray) -> np.ndarray:
    """Percentage deviation of each month from the cycle mean, along the
    last axis of x: 100*(x_m - xbar)/xbar, which sums to zero up to
    round-off. Raises ``DomainError`` when a mean is zero.
    """
    xbar = x.sum(axis=-1, keepdims=True) / x.shape[-1]
    if not xbar.all():
        raise DomainError("seasonal deviation is undefined for a zero-mean series")
    return 100.0 * (x - xbar) / xbar


@dataclass(frozen=True)
class HazardProfile:
    """Monthly survival probabilities and their complements (moving hazards).

    survival[m] is the probability an existing match persists into month m;
    hazard[m] = 1 - survival[m] is the probability of becoming a mover in
    month m. All survival probabilities must be strictly inside (0, 1).
    """

    survival: PeriodicSeries
    hazard: PeriodicSeries = field(init=False)

    def __post_init__(self):
        phi = self.survival.values
        lo, hi = phi.min(), phi.max()
        if not (lo > 0.0 and hi < 1.0):   # NaN fails this test too
            PeriodicSeries(phi)   # a non-finite phi fails with its message
            raise DomainError(
                "survival probabilities must lie strictly in (0, 1); "
                f"got min={lo:.6g}, max={hi:.6g}")
        object.__setattr__(self, "hazard", PeriodicSeries.wrap(1.0 - phi))

    @classmethod
    def from_survival(cls, phi) -> "HazardProfile":
        return cls(PeriodicSeries.wrap(_vector(phi).copy()))

    @classmethod
    def from_hazard(cls, h) -> "HazardProfile":
        return cls(PeriodicSeries.wrap(_vector(1.0 - np.asarray(h, dtype=float))))

    @property
    def period(self) -> int:
        return self.survival.period


@dataclass(frozen=True)
class ModelParams:
    """Primitive parameters of the housing market model.

    beta_hat is the monthly pure-time discount factor, delta the monthly
    transaction-disruption probability, and the effective discount
    beta = beta_hat*(1 - delta) is always recomputed, never stored. theta
    is the seller's bargaining weight and u the per-month housing service
    flow (same units as match quality).
    """

    beta_hat: float
    delta: float
    theta: float
    u: float
    hazards: HazardProfile

    def __post_init__(self):
        if not 0.0 < self.beta_hat < 1.0:
            raise DomainError(f"beta_hat must lie in (0, 1), got {self.beta_hat}")
        if not 0.0 <= self.delta < 1.0:
            raise DomainError(f"delta must lie in [0, 1), got {self.delta}")
        if not 0.0 <= self.theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 < self.u < np.inf:
            raise DomainError(f"u must be positive and finite, got {self.u}")
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"effective discount beta must lie in (0, 1), got {self.beta}")

    @property
    def beta(self) -> float:
        return self.beta_hat * (1.0 - self.delta)

    @property
    def period(self) -> int:
        return self.hazards.period

    def with_u(self, u: float) -> "ModelParams":
        return ModelParams(self.beta_hat, self.delta, self.theta, u, self.hazards)
