"""Seasonality econometrics for monthly panels.

The pipeline is: turn a monthly series into within-year percentage
deviations (the seasonal components), regress the components on month
effects, a post-break indicator, and month-by-post interactions under
sum-to-zero identification, then test the interactions jointly (robust
Wald F), directionally (first half-year versus second), and season by
season. A Chow scan over candidate break years checks that the break
date is not an artifact of the chosen split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import stats as sps

from .core import SEASONS
from .errors import DataError, DomainError, RankDeficientError


@dataclass(frozen=True)
class MonthlyPanel:
    """Observations keyed by (year, month), at most one per key."""

    years: np.ndarray
    months: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        months = np.asarray(self.months, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if not (years.shape == months.shape == values.shape) or years.ndim != 1:
            raise DataError("years, months, and values must be equal-length vectors")
        if np.any((months < 1) | (months > 12)):
            raise DataError("months must lie in 1..12")
        keys = set(zip(years.tolist(), months.tolist()))
        if len(keys) != years.size:
            raise DataError("duplicate (year, month) observations in panel")
        order = np.lexsort((months, years))
        object.__setattr__(self, "years", years[order])
        object.__setattr__(self, "months", months[order])
        object.__setattr__(self, "values", values[order])

    def months_per_year(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for y in self.years.tolist():
            out[y] = out.get(y, 0) + 1
        return out


@dataclass(frozen=True)
class SeasonalComponents:
    """Within-year percentage deviations d_{m,T}, one per observation."""

    years: np.ndarray
    months: np.ndarray
    deviations: np.ndarray
    dropped_years: tuple[int, ...] = ()

    @property
    def n_obs(self) -> int:
        return self.years.size


@dataclass(frozen=True)
class TestReport:
    statistic: float
    p_value: float
    df_numerator: int | None
    df_denominator: int
    one_sided: bool


@dataclass(frozen=True)
class ShiftRegressionFit:
    """Month effects, post-break interactions, and their robust covariance.

    ``gamma`` and ``mu`` are full 12-vectors satisfying the sum-to-zero
    identification exactly (the 12th element is minus the sum of the 11
    free coefficients). ``cov`` is the HC1 covariance of the full free
    coefficient vector ``beta``, with ``mu_idx`` locating the free
    interaction block inside it.
    """

    gamma: np.ndarray
    mu: np.ndarray
    beta: np.ndarray
    cov: np.ndarray
    names: tuple[str, ...]
    mu_idx: np.ndarray
    df_resid: int
    n_obs: int
    rss: float
    response_scale: float

    def is_exact_fit(self) -> bool:
        """True when residuals are at round-off level (noise-free input)."""
        scale = max(1.0, self.response_scale)
        return self.rss <= self.n_obs * (1e-10 * scale) ** 2


@dataclass(frozen=True)
class OLSResult:
    coefficients: np.ndarray
    cov_hc1: np.ndarray
    df_resid: int
    rss: float


@dataclass(frozen=True)
class ChowScanEntry:
    year: int
    F: float
    p_value: float


@dataclass(frozen=True)
class ChowScanResult:
    entries: tuple[ChowScanEntry, ...]
    skipped: tuple[tuple[int, str], ...]

    def best(self) -> ChowScanEntry:
        return max(self.entries, key=lambda e: e.F)


@dataclass(frozen=True)
class SeasonalDeltas:
    winter: float
    spring: float
    summer: float
    autumn: float

    def as_dict(self) -> dict[str, float]:
        return {"winter": self.winter, "spring": self.spring,
                "summer": self.summer, "autumn": self.autumn}


# ---------------------------------------------------------------------------
# seasonal components


def annual_mean_deviation(panel: MonthlyPanel,
                          min_months_per_year: int = 6) -> SeasonalComponents:
    """Percentage deviation of each month from its own year's mean.

    Years with fewer than ``min_months_per_year`` observations are dropped
    and reported in ``dropped_years``. A retained year with zero mean is an
    error (the deviation would divide by zero).
    """
    counts = panel.months_per_year()
    kept = {y for y, c in counts.items() if c >= min_months_per_year}
    dropped = tuple(sorted(set(counts) - kept))

    year_means: dict[int, float] = {}
    for y in sorted(kept):
        mask = panel.years == y
        mean = float(panel.values[mask].mean())
        if mean == 0.0:
            raise DataError(f"year {y} has zero mean; deviations are undefined")
        year_means[y] = mean

    mask = np.isin(panel.years, sorted(kept))
    years = panel.years[mask]
    months = panel.months[mask]
    means = np.array([year_means[y] for y in years.tolist()])
    d = 100.0 * (panel.values[mask] - means) / means
    return SeasonalComponents(years=years, months=months, deviations=d,
                              dropped_years=dropped)


def centered_mean_deviation(panel: MonthlyPanel) -> SeasonalComponents:
    """Percentage deviation of each month from its centred 12-month mean.

    The mean is the 2x12 centred moving average (a 13-term window with half
    weights on both endpoints), which annihilates any 12-periodic cycle;
    months without a complete window (boundaries, gaps) are omitted.
    """
    t_index = panel.years * 12 + (panel.months - 1)
    t0, t1 = int(t_index.min()), int(t_index.max())
    grid = np.full(t1 - t0 + 1, np.nan)
    grid[t_index - t0] = panel.values

    weights = np.ones(13)
    weights[0] = weights[12] = 0.5
    out_years, out_months, out_dev = [], [], []
    for pos in range(6, grid.size - 6):
        window_vals = grid[pos - 6: pos + 7]
        if np.any(np.isnan(window_vals)) or np.isnan(grid[pos]):
            continue
        gbar = float(np.dot(weights, window_vals) / 12.0)
        if gbar == 0.0:
            raise DataError("centred rolling mean is zero; deviation undefined")
        t = t0 + pos
        out_years.append(t // 12)
        out_months.append(t % 12 + 1)
        out_dev.append(100.0 * (grid[pos] - gbar) / gbar)
    return SeasonalComponents(years=np.asarray(out_years, int),
                              months=np.asarray(out_months, int),
                              deviations=np.asarray(out_dev, float))


# ---------------------------------------------------------------------------
# least squares core


def ols_hc1(design: np.ndarray, response: np.ndarray,
            names: tuple[str, ...] | None = None) -> OLSResult:
    """OLS via pivoted QR with the HC1 sandwich covariance.

    HC1 = (n/(n-k)) (X'X)^{-1} X' diag(e^2) X (X'X)^{-1}. Raises
    ``RankDeficientError`` naming the dependent columns when the design is
    rank deficient.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DomainError("design must be (n, k) and response length n")
    n, k = X.shape
    if n <= k:
        raise DomainError(f"need more observations ({n}) than columns ({k})")

    Q, R = np.linalg.qr(X, mode="reduced")
    diag = np.abs(np.diag(R))
    tol = (diag.max() if diag.size else 0.0) * max(n, k) * np.finfo(float).eps
    if np.any(diag <= tol):
        # Redo with column pivoting only to name the dependent columns.
        _, Rp, piv = sla.qr(X, mode="economic", pivoting=True)
        diag_p = np.abs(np.diag(Rp))
        tol_p = diag_p.max() * max(n, k) * np.finfo(float).eps
        rank = int((diag_p > tol_p).sum())
        labels = names or tuple(f"x{j}" for j in range(k))
        offending = sorted(labels[piv[j]] for j in range(rank, k))
        raise RankDeficientError(
            f"design matrix is rank deficient (rank {rank} of {k}); "
            f"dependent columns: {offending}", columns=list(offending))

    beta = sla.solve_triangular(R, Q.T @ y)

    resid = y - X @ beta
    rss = float(resid @ resid)

    r_inv = sla.solve_triangular(R, np.eye(k))
    xtx_inv = r_inv @ r_inv.T

    scores = X * resid[:, None]
    meat = scores.T @ scores
    cov = (n / (n - k)) * xtx_inv @ meat @ xtx_inv
    return OLSResult(coefficients=beta, cov_hc1=cov, df_resid=n - k, rss=rss)


def _sum_coded_months(months: np.ndarray) -> np.ndarray:
    """11 columns: 1{month=j} - 1{month=12}, j = 1..11 (sum-to-zero coding)."""
    cols = np.zeros((months.size, 11))
    for j in range(11):
        cols[:, j] = (months == j + 1).astype(float)
    cols -= (months == 12).astype(float)[:, None]
    return cols


# ---------------------------------------------------------------------------
# shift regression and tests


def fit_seasonal_shift(components: SeasonalComponents, break_year: int,
                       include_year_effects: bool = True) -> ShiftRegressionFit:
    """Regress components on month effects, POST, and month-by-POST terms.

    POST marks observations in years >= ``break_year``. Sum-to-zero
    constraints on the month effects and on the interactions are imposed by
    reparameterization: 11 free coefficients per block, the 12th recovered
    as minus their sum. Year effects, when included, enter as dummies for
    all years except one baseline year on each side of the break, which
    keeps POST identified.
    """
    years = components.years
    months = components.months
    d = components.deviations
    post = (years >= break_year).astype(float)
    if post.min() == post.max():
        raise DataError(
            f"observations must span both sides of the break year {break_year}")

    blocks = [np.ones((d.size, 1))]
    names: list[str] = ["const"]
    if include_year_effects:
        pre_baseline = int(years[post == 0.0].min())
        post_baseline = int(years[post == 1.0].min())
        for y in sorted(set(years.tolist()) - {pre_baseline, post_baseline}):
            blocks.append((years == y).astype(float)[:, None])
            names.append(f"year_{y}")

    blocks.append(post[:, None])
    names.append("post")

    mcols = _sum_coded_months(months)
    gamma_idx = np.arange(len(names), len(names) + 11)
    blocks.append(mcols)
    names.extend(f"month_{j}" for j in range(1, 12))

    mu_idx = np.arange(len(names), len(names) + 11)
    blocks.append(mcols * post[:, None])
    names.extend(f"month_{j}:post" for j in range(1, 12))

    X = np.hstack(blocks)
    fit = ols_hc1(X, d, names=tuple(names))

    gamma_free = fit.coefficients[gamma_idx]
    mu_free = fit.coefficients[mu_idx]
    gamma = np.append(gamma_free, -gamma_free.sum())
    mu = np.append(mu_free, -mu_free.sum())

    return ShiftRegressionFit(
        gamma=gamma, mu=mu, beta=fit.coefficients, cov=fit.cov_hc1,
        names=tuple(names), mu_idx=mu_idx, df_resid=fit.df_resid,
        n_obs=d.size, rss=fit.rss,
        response_scale=float(np.abs(d).max()) if d.size else 0.0)


def joint_F_test(fit: ShiftRegressionFit) -> TestReport:
    """Robust Wald F-test that all month-by-post interactions are zero.

    Under the sum-to-zero constraint the 12 interactions vanish exactly
    when the 11 free coefficients do, so the test has 11 restrictions.
    """
    mu_free = fit.beta[fit.mu_idx]
    V = fit.cov[np.ix_(fit.mu_idx, fit.mu_idx)]
    q = mu_free.size
    if fit.is_exact_fit():
        # Residuals are pure round-off, so V carries no information: the
        # statistic is zero when the interactions vanish to working
        # precision and diverges otherwise.
        noise = 1e-9 * max(1.0, fit.response_scale)
        F = 0.0 if np.abs(mu_free).max() <= noise else np.inf
    else:
        try:
            sol = np.linalg.solve(V, mu_free)
            wald = float(mu_free @ sol)
        except np.linalg.LinAlgError:
            sol = np.linalg.pinv(V) @ mu_free
            recon = V @ sol
            scale = max(np.abs(mu_free).max(), 1.0)
            if np.abs(recon - mu_free).max() > 1e-8 * scale:
                raise DomainError(
                    "restriction covariance is singular and the interactions "
                    "do not lie in its range; the Wald statistic is undefined")
            wald = float(mu_free @ sol)
        F = wald / q
    p = float(sps.f.sf(F, q, fit.df_resid))
    return TestReport(statistic=F, p_value=p, df_numerator=q,
                      df_denominator=fit.df_resid, one_sided=False)


def directional_contrast(fit: ShiftRegressionFit) -> TestReport:
    """One-sided test that Jan-Jun interactions exceed Jul-Dec on average.

    The contrast is (1/6) sum_{m=1..6} mu_m - (1/6) sum_{m=7..12} mu_m,
    expressed in the 11 free coefficients (weight 1/3 on months 1..6, zero
    on 7..11 once the 12th coefficient is substituted out).
    """
    weights = np.zeros(11)
    weights[:6] = 1.0 / 3.0
    mu_free = fit.beta[fit.mu_idx]
    V = fit.cov[np.ix_(fit.mu_idx, fit.mu_idx)]
    estimate = float(weights @ mu_free)
    variance = float(weights @ V @ weights)
    noise = 1e-9 * max(1.0, fit.response_scale)
    if fit.is_exact_fit() or variance <= 0.0:
        if abs(estimate) <= noise:
            t_stat, p = 0.0, 0.5
        elif variance <= 0.0:
            raise DomainError("contrast variance is zero but the contrast is not")
        else:
            t_stat = np.inf if estimate > 0 else -np.inf
            p = 0.0 if estimate > 0 else 1.0
    else:
        t_stat = estimate / np.sqrt(variance)
        p = float(sps.t.sf(t_stat, fit.df_resid))
    return TestReport(statistic=float(t_stat), p_value=p, df_numerator=None,
                      df_denominator=fit.df_resid, one_sided=True)


def seasonal_delta(components: SeasonalComponents,
                   break_year: int) -> SeasonalDeltas:
    """Post-minus-pre change in the average deviation for each season."""
    post = components.years >= break_year
    out = {}
    for season, months in SEASONS.items():
        in_season = np.isin(components.months, months)
        pre_cell = components.deviations[in_season & ~post]
        post_cell = components.deviations[in_season & post]
        if pre_cell.size == 0 or post_cell.size == 0:
            raise DataError(f"no observations for season '{season}' on one "
                            f"side of {break_year}")
        out[season] = float(post_cell.mean() - pre_cell.mean())
    return SeasonalDeltas(**out)


def chow_scan(components: SeasonalComponents, candidate_years,
              min_side_obs: int = 24) -> ChowScanResult:
    """Classic Chow F for seasonal-profile stability at each candidate year.

    The restricted model fits one 12-month profile (12 month means) on the
    full sample; the unrestricted model fits separate profiles before and
    after the candidate year. F = ((RSS_r - RSS_u)/12) / (RSS_u/(n - 24)).
    Candidates leaving fewer than ``min_side_obs`` observations on either
    side are skipped with a note.
    """
    d = components.deviations
    months = components.months
    years = components.years
    n = d.size

    month_mean = np.zeros(13)
    for m in range(1, 13):
        sel = months == m
        if sel.any():
            month_mean[m] = d[sel].mean()
    rss_restricted = float(((d - month_mean[months]) ** 2).sum())

    entries = []
    skipped = []
    for year in candidate_years:
        year = int(year)
        post = years >= year
        n_pre, n_post = int((~post).sum()), int(post.sum())
        if n_pre < min_side_obs or n_post < min_side_obs:
            skipped.append((year, f"only {min(n_pre, n_post)} observations on "
                                  f"one side (need {min_side_obs})"))
            continue
        rss_u = 0.0
        for side in (post, ~post):
            for m in range(1, 13):
                sel = side & (months == m)
                if sel.any():
                    rss_u += float(((d[sel] - d[sel].mean()) ** 2).sum())
        q = 12
        df_denom = n - 24
        numerator = max(0.0, rss_restricted - rss_u) / q
        if numerator == 0.0:
            F = 0.0
        elif rss_u == 0.0:
            F = np.inf
        else:
            F = numerator / (rss_u / df_denom)
        p = float(sps.f.sf(F, q, df_denom))
        entries.append(ChowScanEntry(year=year, F=float(F), p_value=p))
    return ChowScanResult(entries=tuple(entries), skipped=tuple(skipped))
