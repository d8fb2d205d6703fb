"""Hazard calibration from observed monthly move shares.

Monthly moving hazards are taken proportional to the observed share of
annual moves in each month, 1 - phi_m = kappa * s_m, with the scalar kappa
pinned by the annual move rate eta through the survival identity
prod_m (1 - kappa * s_m) = 1 - eta. The product is convex and falls from
one to zero on [0, 1/max_m s_m], so Newton from kappa = 0 climbs to the
unique root without passing it (Fourier's condition). It stops at the
first step that does not raise kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MONTH_NAMES, HazardProfile, PeriodicSeries
from .errors import ConvergenceError, DataError, DomainError

# Newton steps allowed; shares with empty months and eta near 1 take about 20
_NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class MoveShares:
    """Nonnegative monthly move shares summing to one."""

    shares: PeriodicSeries

    def __post_init__(self):
        s = self.shares.values
        if np.any(s < 0.0):
            raise DomainError("move shares must be nonnegative")
        if abs(s.sum() - 1.0) > 1e-12:
            raise DomainError(f"move shares must sum to 1, got {s.sum():.15g}")


def normalize_shares(raw) -> MoveShares:
    """Normalize raw nonnegative monthly counts or percentages to shares."""
    arr = np.asarray(raw, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))   # the first non-finite entry
        raise DomainError(f"move shares must be finite; month {i + 1} is {arr.flat[i]}")
    if np.any(arr < 0.0):
        raise DomainError("move shares cannot contain negative entries")
    total = float(arr.sum())
    if not total > 0.0:
        raise DomainError("move shares must have a positive sum")
    return MoveShares(shares=PeriodicSeries(arr / total))


def solve_kappa(shares: MoveShares, eta: float) -> float:
    """Find the unique kappa with prod(1 - kappa*s_m) = 1 - eta by Newton.

    The product's slope is -prod * sum_m s_m / (1 - kappa*s_m). The root lies
    in (0, 1/max_m s_m) for eta in (0, 1). Raises ``ConvergenceError`` if
    the steps run out.
    """
    target = 1.0 - eta
    if not 0.0 < target < 1.0:   # also rejects an eta that 1 - eta rounds away
        raise DomainError(f"eta must lie in (0, 1) with 1 - eta < 1, got {eta}")
    s = shares.shares.values
    kappa = 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        t = 1.0 - kappa * s
        prod = float(t.prod())
        step = (prod - target) / (prod * float((s / t).sum()))
        if not kappa + step > kappa:
            return kappa
        kappa += step
    raise ConvergenceError(f"kappa did not converge in {_NEWTON_MAX_STEPS} "
                           f"Newton steps (eta = {eta})")


def hazards_from_shares(shares: MoveShares, eta: float) -> HazardProfile:
    """Monthly survival profile phi_m = 1 - kappa * s_m at the solved kappa."""
    return HazardProfile.from_hazard(solve_kappa(shares, eta) * shares.shares.values)


def compose_beta(annual_interest_rate: float) -> float:
    """Monthly pure-time discount factor beta_hat = (1 + rate)^(-1/12).

    ``ModelParams`` prices in the monthly disruption probability delta,
    beta = beta_hat * (1 - delta), and checks both.
    """
    if not annual_interest_rate > -1.0:
        raise DomainError(
            f"annual interest rate must exceed -1, got {annual_interest_rate}")
    beta_hat = (1.0 + annual_interest_rate) ** (-1.0 / 12.0)
    if not beta_hat < 1.0:
        raise DomainError(
            f"a non-positive interest rate gives beta_hat = {beta_hat:.6g} >= 1, "
            "outside the model's discount domain")
    return beta_hat


def shares_from_trends(panel, years) -> MoveShares:
    """Average within-year monthly shares of a search-interest series.

    For each year in ``years`` the 12 monthly values are divided by their
    annual sum, and the per-year share vectors are averaged. Within-year
    shares are invariant to any per-download rescaling of the series, so
    indices from different query windows can be pooled safely.

    Every year used must have all 12 months present and a positive annual
    total, and every month a positive value in some year; otherwise a
    ``DataError`` is raised.
    """
    years = sorted(int(y) for y in years)
    if not years:
        raise DataError("at least one year is required to form shares")
    lookup = {(int(y), int(m)): float(val)
              for y, m, val in zip(panel.years, panel.months, panel.values)}
    share_rows = []
    for year in years:
        row = np.array([lookup.get((year, m), np.nan) for m in range(1, 13)])
        if np.any(np.isnan(row)):
            missing = [m for m in range(1, 13) if (year, m) not in lookup]
            raise DataError(f"year {year} is missing months {missing}")
        total = row.sum()
        if not total > 0.0:
            raise DataError(f"year {year} has a non-positive annual total")
        share_rows.append(row / total)
    shares = np.mean(share_rows, axis=0)
    if np.any(shares == 0.0):
        month = MONTH_NAMES[int(np.argmin(shares))]
        raise DataError(f"search interest in {month} is zero in every year "
                        f"of {years}; each month needs a positive share")
    return normalize_shares(shares)
