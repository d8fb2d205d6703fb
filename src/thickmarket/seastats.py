"""Seasonality econometrics for monthly panels.

The pipeline is: turn a monthly series into within-year percentage
deviations (the seasonal components), regress the components on month
effects, a post-break indicator, and month-by-post interactions under
sum-to-zero identification, then test the interactions jointly (robust
Wald F), directionally (first half-year versus second), and season by
season. A Chow scan over candidate break years checks that the break
date is not an artifact of the chosen split.

Every statistic is whole-array numpy with no Python loop over years or
candidates. Year means, seasonal cells and the Chow scan's per-(year,
month) sums are ``np.bincount``s on one calendar index, so no step
depends on row order. All that depends only on where the rows fall lives
in one read-only calendar layout per (years, months): the index, the
counts and, in one-entry memos, the kept and centred rows, the Chow
candidates, the season cells and the factored shift design. The last
layout built is handed to every panel of that shape, so a panel costs
only the sums weighted by its own response. The design is factored into
thin Q, R^-1, its distinct rows (a group index per row and Q at the
first row of each group) and L = R^-1[tested] Q' over the distinct rows,
the rows of the pseudo-inverse for the coefficients a test reads. Q'y
runs over every row; the fitted values and the HC1 meat, L diag(per-group
sums of e^2) L', run over the distinct rows, which a design without year
effects has 24 of, however long the panel. The covariance is the HC1
block of the tested coefficients only. The p-values are F and t tails,
regularized incomplete beta functions computed here with ``math``, one
scalar at a time, and the dependent columns of a rank-deficient design
are named from the null space of its own R, so the battery needs no
scipy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import MONTH_NAMES, SEASONS
from .errors import DataError, DomainError, RankDeficientError


@dataclass(frozen=True)
class MonthlyPanel:
    """Observations keyed by (year, month), at most one per key, sorted by
    date. ``years`` and ``months`` are the read-only arrays of ``layout``,
    the panel's calendar layout."""

    years: np.ndarray
    months: np.ndarray
    values: np.ndarray
    layout: _CalendarLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The layout holds int copies of years and months, and values is
        # copied: the panel never shares an array with its caller.
        layout = _calendar_layout(np.asarray(self.years), np.asarray(self.months))
        values = np.array(self.values, dtype=float)
        if values.shape != layout.years.shape:
            raise DataError("values must be a vector as long as years and months")
        if not layout.is_sorted:   # a sorted panel is kept as it is
            order, layout = layout.by_date
            values = values[order]
        object.__setattr__(self, "years", layout.years)
        object.__setattr__(self, "months", layout.months)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "layout", layout)


@dataclass(frozen=True)
class SeasonalComponents:
    """Within-year percentage deviations d_{m,T}, one per observation.

    ``years`` and ``months`` are the read-only int arrays of ``layout``.
    Components built without the layout of their arrays (so also by
    ``dataclasses.replace`` with new years or months) look it up, which
    checks them as a panel's; the deviations are finite floats, one a row."""

    years: np.ndarray
    months: np.ndarray
    deviations: np.ndarray
    dropped_years: tuple[int, ...] = ()
    layout: _CalendarLayout | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        layout = self.layout
        if layout is None or not (layout.years is self.years
                                  and layout.months is self.months):
            layout = _calendar_layout(np.asarray(self.years), np.asarray(self.months))
        d = np.asarray(self.deviations, dtype=float)
        if d.shape != layout.years.shape:
            raise DataError("deviations must be a vector as long as years and months")
        if not np.isfinite(d).all():
            i = int(np.argmin(np.isfinite(d)))
            raise DataError(f"deviation at {layout.years[i]}-{layout.months[i]:02d} is {d[i]}")
        object.__setattr__(self, "years", layout.years)
        object.__setattr__(self, "months", layout.months)
        object.__setattr__(self, "deviations", d)
        object.__setattr__(self, "layout", layout)


@dataclass(frozen=True)
class TestReport:
    statistic: float
    p_value: float
    df_numerator: int | None
    df_denominator: int


@dataclass(frozen=True)
class ShiftRegressionFit:
    """Month effects, post-break interactions, and their robust covariance.

    ``gamma`` and ``mu`` are full 12-vectors satisfying the sum-to-zero
    identification exactly (the 12th element is minus the sum of the 11
    free coefficients). ``cov`` is the 11-by-11 HC1 covariance of the
    free interactions ``mu[:11]``, the only block the shift tests read.
    """

    gamma: np.ndarray
    mu: np.ndarray
    cov: np.ndarray
    df_resid: int
    n_obs: int
    rss: float
    response_scale: float

    def is_exact_fit(self) -> bool:
        """True when residuals are at round-off level (noise-free input)."""
        scale = max(1.0, self.response_scale)
        return self.rss <= self.n_obs * (1e-10 * scale) ** 2


@dataclass(frozen=True)
class LeastSquaresDesign:
    """A factored design X = QR, all read-only: thin Q (n-by-k); the G
    distinct rows of X as ``group`` (row i is distinct row group[i]) and
    ``q_rows`` (G-by-k, Q at the first row of each); R^-1; and
    L = R^-1[tested] q_rows', the rows of the pseudo-inverse that give the
    tested coefficients, one column per distinct row (t-by-G)."""
    q: np.ndarray
    q_rows: np.ndarray
    group: np.ndarray
    r_inv: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class OLSResult:
    """All k coefficients; ``cov_hc1`` is the t-by-t HC1 covariance of the
    design's tested coefficients, in the order of ``tested``."""
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


# ---------------------------------------------------------------------------
# calendar layouts


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, a new array no caller holds, made read-only."""
    array.flags.writeable = False
    return array


def _memo(build):
    """A one-entry memo on the layout ``build`` takes first, keyed by its
    other arguments (compared with ==): the layout keeps the answer for
    the last key, and a build that raises keeps nothing."""
    @wraps(build)
    def memo(layout, *key):
        last = layout._memos.get(build)
        if last is None or last[0] != key:
            last = layout._memos[build] = key, build(layout, *key)
        return last[1]
    return memo


# Position in SEASONS of each month 1..12 (-1 at the unused entry 0).
_SEASON_OF_MONTH = np.array([-1] + [k for m in range(1, 13) for k, months
                                    in enumerate(SEASONS.values()) if m in months])


_ChowPlan = namedtuple("_ChowPlan", "years before pre_div post_div weights notes")


class _CalendarLayout:
    """What the battery reads from where the rows fall, not from a response.

    ``years`` and ``months`` are read-only int arrays no caller holds, ``first``
    is the earliest year (0 without rows) and t = 12 (year - first) +
    month - 1, so t // 12 is a row per calendar year. The tables are
    computed on first read, and one-entry memos (``_memo``) keep what the
    battery last derived from the layout alone: the kept rows, the
    complete centred windows, the Chow candidates, the season cells and
    the factored shift design. Every array is read-only."""

    def __init__(self, years: np.ndarray, months: np.ndarray):
        self.years, self.months = years, months
        self.first = int(years.min()) if years.size else 0
        self.t = _read_only(12 * (years - self.first) + months - 1)
        self._memos = {}

    @cached_property
    def is_sorted(self) -> bool:
        return bool((self.t[1:] > self.t[:-1]).all())

    @cached_property
    def by_date(self):
        """(order, layout): the stable order that sorts the rows by date and
        the layout of the sorted rows; a repeated (year, month) raises."""
        order = np.argsort(self.t, kind="stable")
        if np.any(np.diff(self.t[order]) == 0):
            raise DataError("duplicate (year, month) observations in panel")
        layout = _CalendarLayout(_read_only(self.years[order]),
                                 _read_only(self.months[order]))
        return _read_only(order), layout

    @cached_property
    def row(self) -> np.ndarray:
        return _read_only(self.t // 12)

    @cached_property
    def year_counts(self) -> np.ndarray:
        return _read_only(np.bincount(self.row))

    @cached_property
    def year_divisor(self) -> np.ndarray:
        """Rows per calendar year, floored at 1 to divide a sum by."""
        return _read_only(np.maximum(self.year_counts, 1))

    @cached_property
    def month_divisor(self) -> np.ndarray:
        """Rows per month at index 1..12, floored at 1 to divide a sum by."""
        return _read_only(np.maximum(np.bincount(self.months, minlength=13), 1))

    @cached_property
    def n_years(self) -> int:
        return int(self.t.max(initial=-1)) // 12 + 1

    @_memo
    def kept(self, min_months: int):
        """(kept, mask, sub-layout, rows, dropped) for the years with at
        least ``min_months`` rows: ``kept`` per calendar year, ``mask`` per
        row and the layout of the kept rows (both None when every row is
        kept: the memo then holds no reference to this layout, so a layout
        is no reference cycle), the calendar-year row of each kept row,
        and the years with some but too few rows."""
        counts = self.year_counts
        kept = counts >= min_months
        mask = kept[self.row]
        if mask.all():
            mask, sub, rows = None, None, self.row
        else:
            sub = _CalendarLayout(_read_only(self.years[mask]),
                                  _read_only(self.months[mask]))
            mask, rows = _read_only(mask), _read_only(self.row[mask])
        dropped = self.first + np.flatnonzero((counts > 0) & ~kept)
        return _read_only(kept), mask, sub, rows, tuple(dropped.tolist())

    @_memo
    def chow_plan(self, years, min_side_obs, side_obs_type) -> _ChowPlan:
        """Each candidate year's prefix-table row ``before``, the per-month
        side counts floored at 1 (``pre_div``, ``post_div``), the weights
        n_pre n_post / n of each month's between-sides square, and the
        note of a skipped candidate (None for a tested one). The key holds
        ``type(min_side_obs)`` too, as the notes print ``min_side_obs``."""
        # Row j counts each month's rows in the first j calendar years.
        count = np.zeros((self.n_years + 1, 12), dtype=int)
        count[1:] = np.bincount(self.t, minlength=self.n_years * 12).reshape(-1, 12)
        count = count.cumsum(axis=0)
        candidates = np.array(years, dtype=int)
        before = np.clip(candidates - self.first, 0, self.n_years)
        n_pre_m = count[before]
        n_post_m = count[-1] - n_pre_m
        n_pre = n_pre_m.sum(axis=1)
        n = self.years.size
        notes = []
        for side_obs in np.minimum(n_pre, n - n_pre).tolist():
            if side_obs < min_side_obs:
                notes.append(f"only {side_obs} "
                             f"observations on one side (need {min_side_obs})")
            elif n - 24 < 1:
                notes.append(f"no residual degrees of freedom ({n} "
                             "observations for 24 parameters)")
            else:
                notes.append(None)
        weights = n_pre_m * n_post_m / self.month_divisor[1:]
        arrays = (before, np.maximum(n_pre_m, 1), np.maximum(n_post_m, 1), weights)
        return _ChowPlan(years, *map(_read_only, arrays), tuple(notes))

    @_memo
    def season_cells(self, break_year):
        """(cell, n): 4 post + season of each row, and the 2-by-4 counts."""
        cell = 4 * (self.years >= break_year) + _SEASON_OF_MONTH[self.months]
        n = np.bincount(cell, minlength=8).reshape(2, 4)
        return _read_only(cell), _read_only(n)

    @_memo
    def window_centres(self, positions: bytes):
        """The layout of the rows at the centres of the complete 13-month
        windows that start at ``positions`` (the bytes of an intp array)."""
        t = np.frombuffer(positions, dtype=np.intp) + 6
        return _CalendarLayout(_read_only(self.first + t // 12), _read_only(t % 12 + 1))


_last_layout = None   # the layout built last


def _calendar_layout(years: np.ndarray, months: np.ndarray) -> _CalendarLayout:
    """The layout of ``years`` and ``months``: the last one built when they
    are its arrays or equal them in value, in any dtype (on 2,400 rows the
    value test takes about half the time of hashing the bytes), else a new
    one over int copies, which are checked first: two 1-d arrays of one
    length, of whole numbers, months in 1..12, or a ``DataError``."""
    global _last_layout
    last = _last_layout
    if last is not None and all(a is b or np.array_equal(a, b) for a, b in
                                ((years, last.years), (months, last.months))):
        return last
    if years.ndim != 1 or years.shape != months.shape:
        raise DataError("years and months must be equal-length vectors")
    years, months = map(_read_only, _integers(np.stack((years, months))))
    if months.min(initial=1) < 1 or months.max(initial=12) > 12:
        raise DataError("months must lie in 1..12")
    _last_layout = _CalendarLayout(years, months)
    return _last_layout


def _integers(array: np.ndarray) -> np.ndarray:
    """The values of ``array`` as a new int array; a ``DataError`` names
    one that is not a whole number."""
    with np.errstate(invalid="ignore"):
        whole = array.astype(int)
    bad = np.flatnonzero(whole != np.asarray(array, dtype=float))
    if bad.size:
        raise DataError(f"years and months must be whole numbers, not {array.flat[bad[0]]}")
    return whole


# ---------------------------------------------------------------------------
# seasonal components


def annual_mean_deviation(panel: MonthlyPanel,
                          min_months_per_year: int = 6) -> SeasonalComponents:
    """Percentage deviation of each month from its own year's mean.

    Years with at least one but fewer than ``min_months_per_year``
    observations are dropped and reported in ``dropped_years``. A retained
    year with zero mean is an error (the deviation would divide by zero),
    as is a deviation that is not finite (from a NaN or inf value, or one
    so large that the deviation overflows).
    """
    layout = panel.layout
    kept, mask, sub, rows, dropped = layout.kept(max(min_months_per_year, 1))
    sub = layout if sub is None else sub
    means = np.bincount(layout.row, weights=panel.values) / layout.year_divisor
    zero = kept & (means == 0.0)
    if zero.any():
        raise DataError(f"year {layout.first + int(np.argmax(zero))} has zero mean; "
                        "deviations are undefined")

    values = panel.values if mask is None else panel.values[mask]
    mean = means[rows]
    with np.errstate(over="ignore", invalid="ignore"):   # refused as not finite
        d = 100.0 * (values - mean) / mean
    return SeasonalComponents(years=sub.years, months=sub.months, deviations=d,
                              dropped_years=dropped, layout=sub)


def centered_mean_deviation(panel: MonthlyPanel) -> SeasonalComponents:
    """Percentage deviation of each month from its centred 12-month mean.

    The mean is the 2x12 centred moving average (a 13-term window with half
    weights on both endpoints), which annihilates any 12-periodic cycle;
    months without a complete window (boundaries, gaps, NaN values) are
    omitted. A deviation that is not finite (from an inf value, or one so
    large that the mean or the deviation overflows) is an error.
    """
    layout = panel.layout
    # at least one 13-month window; windows over the NaN padding are dropped
    grid = np.full(max(int(layout.t.max(initial=0)) + 1, 13), np.nan)
    grid[layout.t] = panel.values

    weights = np.ones(13)
    weights[0] = weights[12] = 0.5
    windows = sliding_window_view(grid, 13)
    pos = np.flatnonzero(~np.isnan(windows).any(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):   # refused as not finite
        gbar = np.vecdot(windows[pos], weights) / 12.0
        if np.any(gbar == 0.0):
            raise DataError("centred rolling mean is zero; deviation undefined")
        d = 100.0 * (grid[pos + 6] - gbar) / gbar
    kept = layout.window_centres(pos.tobytes())
    return SeasonalComponents(years=kept.years, months=kept.months, deviations=d,
                              layout=kept)


# ---------------------------------------------------------------------------
# least squares core


def factor_design(design: np.ndarray, names: tuple[str, ...] | None = None, *,
                  tested: np.ndarray) -> LeastSquaresDesign:
    """Read-only thin Q, distinct rows, R^-1 and L = R^-1[tested] q_rows' of
    an (n, k) design, n > k, for the coefficient positions ``tested``;
    raises ``RankDeficientError`` naming the dependent columns of a
    singular one."""
    X = np.asarray(design, dtype=float)
    if X.ndim != 2:
        raise DomainError("design must be (n, k) and response length n")
    n, k = X.shape
    if n <= k:
        raise DomainError(f"need more observations ({n}) than columns ({k})")

    Q, R = np.linalg.qr(X)
    rtol = max(n, k) * np.finfo(float).eps
    diag = np.abs(np.diag(R))
    if np.any(diag <= (diag.max() if diag.size else 0.0) * rtol):
        # X and R share a null space. As sigma_min(R) <= min|R_jj| and
        # sigma_max(R) >= max|R_jj|, the SVD finds rank < k too; the cap
        # keeps a round-off tie from naming no column.
        _, sv, vt = np.linalg.svd(R)
        rank = min(int((sv > sv[0] * rtol).sum()), k - 1)
        null = vt[rank:].T
        # Complete pivoting: name the column with the largest entry of the
        # null basis and eliminate it from the other null vectors, so the
        # named rows of the basis are nonsingular and X without them has
        # full rank.
        dependent = []
        while null.shape[1]:
            j, c = np.unravel_index(np.abs(null).argmax(), null.shape)
            dependent.append(int(j))
            null = np.delete(null - np.outer(null[:, c], null[j] / null[j, c]),
                             c, axis=1)
        labels = names or tuple(f"x{j}" for j in range(k))
        raise RankDeficientError(
            f"design matrix is rank deficient (rank {rank} of {k}); "
            f"dependent columns: {sorted(labels[j] for j in dependent)}")

    # Rows are grouped only when their bytes are equal; groups are numbered
    # in order of first occurrence, so a design without repeated rows has
    # group = arange(n) and q_rows equal to Q.
    rows = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * k))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.argsort(order)[inverse]
    q_rows = Q[first[order]]

    r_inv = np.linalg.inv(R)
    L = r_inv[tested] @ q_rows.T
    for array in (Q, q_rows, group, r_inv, L):
        array.flags.writeable = False
    return LeastSquaresDesign(q=Q, q_rows=q_rows, group=group, r_inv=r_inv, L=L)


def ols_hc1(design: LeastSquaresDesign, response: np.ndarray) -> OLSResult:
    """OLS and the HC1 covariance of the tested coefficients from a factored
    X = QR: beta = R^-1 Q'y over all n rows, fitted values q_rows Q'y per
    distinct row, e = y - (q_rows Q'y)[group], w_g the sum of e^2 over the
    rows of group g, and HC1 = (n/(n-k)) (L diag(w)) L', the tested block
    of (n/(n-k)) R^-1 Q' diag(e^2) Q R^-T, as equal rows of X have equal
    rows of Q. Without repeated rows w = e^2 exactly. One general matrix
    product forms it faster at these shapes than the symmetric rank update
    (L diag(sqrt w))(L diag(sqrt w))'."""
    Q, r_inv = design.q, design.r_inv
    y = np.asarray(response, dtype=float)
    n, k = Q.shape
    if y.ndim != 1 or y.size != n:
        raise DomainError("design must be (n, k) and response length n")
    qty = Q.T @ y
    beta = r_inv @ qty
    resid = y - (design.q_rows @ qty)[design.group]
    rss = float(resid @ resid)
    w = np.bincount(design.group, resid ** 2)   # every group has a row
    cov = (n / (n - k)) * ((design.L * w) @ design.L.T)
    return OLSResult(coefficients=beta, cov_hc1=cov, df_resid=n - k, rss=rss)


def _sum_coded_months(months: np.ndarray) -> np.ndarray:
    """11 columns: 1{month=j} - 1{month=12}, j = 1..11 (sum-to-zero coding)."""
    cols = (months[:, None] == np.arange(1, 12)).astype(float)
    cols[months == 12] = -1.0
    return cols


# ---------------------------------------------------------------------------
# tail probabilities (every call is scalar)


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, with y = 1 - x
    passed in: formed as 1.0 - x, it would lose the digits of a small y."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if b % 1.0 == 0.0:
        # I_x(a, b) = x^a sum_{j<b} C(a+j-1, j) y^j (A&S 26.6.4), summed in
        # nested form; every term is positive.
        total = 1.0
        for j in range(int(b) - 1, 0, -1):
            total = 1.0 + total * (a + j - 1.0) * y / j
        return math.exp(a * math.log(x) + math.log(total))
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc_cf(b, a, y, x)
    return _betainc_cf(a, b, x, y)


def _betainc_cf(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) from its continued fraction by the modified Lentz method
    (Numerical Recipes, 3rd ed., 6.4; Lentz 1976), which converges fast
    for x < (a + 1)/(a + b + 2). The prefactor x^a y^b / (a B(a, b)) is
    formed in log space, so a p-value near 1e-300 keeps its digits."""
    tiny = 1e-300  # replaces a denominator that is exactly zero
    apb = a + b
    c, d = 1.0, 1.0 / (1.0 - apb * x / (a + 1.0) or tiny)
    h = d
    for m in range(1, 10_000):
        am = a + 2 * m
        num = m * (b - m) * x / ((am - 1.0) * am)
        d = 1.0 / (1.0 + num * d or tiny)
        c = 1.0 + num / c or tiny
        h *= d * c
        num = -(a + m) * (apb + m) * x / (am * (am + 1.0))
        d = 1.0 / (1.0 + num * d or tiny)
        c = 1.0 + num / c or tiny
        step = d * c
        h *= step
        if abs(step - 1.0) <= 2.2e-16:
            break
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return h / a * math.exp(a * math.log(x) + b * math.log(y) - log_beta)


def _f_tail(d1: int, d2: int, F: float) -> float:
    """P(F(d1, d2) > F) = I_x(d2/2, d1/2) with x = d2/(d2 + d1 F); nan for a
    negative or nan F or for d2 <= 0, as ``scipy.special.fdtrc`` gives."""
    if not (F >= 0.0 and d2 > 0):
        return math.nan
    if F == math.inf:
        return 0.0
    s = d2 + d1 * F
    return _betainc(0.5 * d2, 0.5 * d1, d2 / s, d1 * F / s)


def _t_tail(df: int, t: float) -> float:
    """P(T(df) > t): half of I_x(df/2, 1/2) with x = df/(df + t^2) for t > 0,
    one minus that half for t <= 0."""
    if math.isnan(t):
        return math.nan
    s = df + t * t
    half = 0.5 * _betainc(0.5 * df, 0.5, df / s, t * t / s)
    return half if t > 0 else 1.0 - half


# ---------------------------------------------------------------------------
# shift regression and tests


@_memo
def _shift_design(layout, break_year, include_year_effects):
    """Read-only factored shift design of a layout; the last 22 columns are
    the 11 free month effects, then the 11 free (tested) interactions."""
    years, months = layout.years, layout.months
    post = (years >= break_year).astype(float)
    if not post.any() or post.all():
        raise DataError(
            f"observations must span both sides of the break year {break_year}")
    # A month-by-side cell with one observation is fitted exactly, so HC1
    # gives it no variance; an empty cell is left to the rank check.
    cell_counts = np.bincount(post.astype(int) * 12 + months - 1,
                              minlength=24).reshape(2, 12)
    if np.any(cell_counts == 1):
        side, month = np.argwhere(cell_counts == 1)[0]
        where = f"from {break_year} on" if side else f"before {break_year}"
        raise DataError(
            f"{MONTH_NAMES[month]} has a single observation {where}; its "
            "month-by-post term fits it exactly and HC1 gives it no variance")

    blocks = [np.ones((years.size, 1))]
    names: list[str] = ["const"]
    if include_year_effects:
        pre_baseline = int(years[post == 0.0].min())
        post_baseline = int(years[post == 1.0].min())
        effect_years = np.setdiff1d(years, [pre_baseline, post_baseline])
        blocks.append((years[:, None] == effect_years).astype(float))
        names.extend(f"year_{y}" for y in effect_years.tolist())

    blocks.append(post[:, None])
    names.append("post")

    mcols = _sum_coded_months(months)
    blocks += [mcols, mcols * post[:, None]]
    names.extend(f"month_{j}" for j in range(1, 12))
    names.extend(f"month_{j}:post" for j in range(1, 12))

    k = len(names)
    return factor_design(np.hstack(blocks), tuple(names),
                         tested=np.arange(k - 11, k))


def fit_seasonal_shift(components: SeasonalComponents, break_year: int,
                       include_year_effects: bool = True) -> ShiftRegressionFit:
    """Regress components on month effects, POST, and month-by-POST terms.

    POST marks observations in years >= ``break_year``. Sum-to-zero
    constraints on the month effects and on the interactions are imposed by
    reparameterization: 11 free coefficients per block, the 12th recovered
    as minus their sum. Year effects, when included, enter as dummies for
    all years except one baseline year on each side of the break, which
    keeps POST identified. A month observed only once on one side of the
    break is a ``DataError``: its interaction would fit that observation
    exactly.
    """
    d = components.deviations
    fit = ols_hc1(_shift_design(components.layout, break_year, include_year_effects), d)

    gamma_free = fit.coefficients[-22:-11]
    mu_free = fit.coefficients[-11:]
    gamma = np.append(gamma_free, -gamma_free.sum())
    mu = np.append(mu_free, -mu_free.sum())

    return ShiftRegressionFit(
        gamma=gamma, mu=mu, cov=fit.cov_hc1, df_resid=fit.df_resid,
        n_obs=d.size, rss=fit.rss,
        response_scale=float(np.abs(d).max()) if d.size else 0.0)


def joint_F_test(fit: ShiftRegressionFit) -> TestReport:
    """Robust Wald F-test that all month-by-post interactions are zero.

    Under the sum-to-zero constraint the 12 interactions vanish exactly
    when the 11 free coefficients do, so the test has 11 restrictions.
    """
    mu_free, V = fit.mu[:11], fit.cov
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
    p = _f_tail(q, fit.df_resid, F)
    return TestReport(statistic=F, p_value=p, df_numerator=q,
                      df_denominator=fit.df_resid)


def directional_contrast(fit: ShiftRegressionFit) -> TestReport:
    """One-sided test that Jan-Jun interactions exceed Jul-Dec on average.

    The contrast is (1/6) sum_{m=1..6} mu_m - (1/6) sum_{m=7..12} mu_m,
    expressed in the 11 free coefficients (weight 1/3 on months 1..6, zero
    on 7..11 once the 12th coefficient is substituted out).
    """
    weights = np.zeros(11)
    weights[:6] = 1.0 / 3.0
    mu_free, V = fit.mu[:11], fit.cov
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
        p = _t_tail(fit.df_resid, float(t_stat))
    return TestReport(statistic=float(t_stat), p_value=p, df_numerator=None,
                      df_denominator=fit.df_resid)


def seasonal_delta(components: SeasonalComponents,
                   break_year: int) -> dict[str, float]:
    """Post-minus-pre change in the average deviation for each season,
    keyed by season in ``SEASONS`` order."""
    cell, n = components.layout.season_cells(break_year)
    empty = (n == 0).any(axis=0)
    if empty.any():
        raise DataError(f"no observations for season '{list(SEASONS)[empty.argmax()]}'"
                        f" on one side of {break_year}")
    total = np.bincount(cell, weights=components.deviations, minlength=8).reshape(2, 4)
    mean_pre, mean_post = total / n
    return dict(zip(SEASONS, (mean_post - mean_pre).tolist()))


def chow_scan(components: SeasonalComponents, candidate_years,
              min_side_obs: int = 24) -> ChowScanResult:
    """Classic Chow F for seasonal-profile stability at each candidate year.

    The restricted model fits one 12-month profile (12 month means) on the
    full sample; the unrestricted model fits separate profiles before and
    after the candidate year. F = ((RSS_r - RSS_u)/12) / (RSS_u/(n - 24)).
    Candidates leaving fewer than ``min_side_obs`` observations on either
    side, or none of the n - 24 residual degrees of freedom, are skipped
    with a note.
    """
    layout = components.layout
    d = components.deviations
    months = layout.months
    n = d.size

    month_mean = np.bincount(months, weights=d, minlength=13) / layout.month_divisor
    e = d - month_mean[months]
    rss_restricted = float(e @ e)

    # Row j of the prefix table covers the first j calendar years.
    n_years = layout.n_years
    total = np.zeros((n_years + 1, 12))
    total[1:] = np.bincount(layout.t, weights=e, minlength=n_years * 12).reshape(-1, 12)
    total = total.cumsum(axis=0)

    plan = layout.chow_plan(tuple(int(y) for y in candidate_years), min_side_obs,
                            type(min_side_obs))
    s_pre = total[plan.before]
    s_post = total[-1] - s_pre
    # RSS_r - RSS_u is the between-sides sum of squares of each month, so
    # the drop is a sum of nonnegative terms rather than a difference.
    gap = s_pre / plan.pre_div - s_post / plan.post_div
    drop = (plan.weights * gap ** 2).sum(axis=1)
    rss_u = rss_restricted - drop

    # Sums of squares at round-off level count as zero. A drop within the
    # threshold of ShiftRegressionFit.is_exact_fit gives F = 0. RSS_u
    # carries an error near eps * RSS_r, so an RSS_u below 1e-12 RSS_r
    # gives F = inf: the two profiles fit exactly.
    scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    roundoff = n * (1e-10 * scale) ** 2
    q = 12
    df_denom = n - 24
    F = np.full(len(plan.years), np.inf)
    fits = (df_denom > 0) & (rss_u > max(roundoff, 1e-12 * rss_restricted))
    F[fits] = (drop[fits] / q) / (rss_u[fits] / df_denom)
    F[drop <= roundoff] = 0.0

    entries = tuple(ChowScanEntry(year=year, F=f, p_value=_f_tail(q, df_denom, f))
                    for year, f, note in zip(plan.years, F.tolist(), plan.notes)
                    if note is None)
    skipped = tuple((year, note) for year, note in zip(plan.years, plan.notes)
                    if note is not None)
    return ChowScanResult(entries=entries, skipped=skipped)


# ---------------------------------------------------------------------------
# reports


def shift_report(fit: ShiftRegressionFit, components: SeasonalComponents,
                 break_year: int) -> dict:
    """The shift-test document of a fit: the joint F, the directional
    contrast, the seasonal deltas of ``components`` around ``break_year``,
    and the month effects and interactions."""
    joint = joint_F_test(fit)
    contrast = directional_contrast(fit)
    return {
        "break_year": break_year,
        "n_obs": fit.n_obs,
        "joint_F": {"F": joint.statistic, "p": joint.p_value,
                    "df": [joint.df_numerator, joint.df_denominator]},
        "directional_contrast": {"t": contrast.statistic,
                                 "p_one_sided": contrast.p_value,
                                 "df": contrast.df_denominator},
        "seasonal_delta": seasonal_delta(components, break_year),
        "month_effects": fit.gamma.tolist(),
        "month_post_interactions": fit.mu.tolist(),
    }


def break_scan_report(scan: ChowScanResult) -> dict:
    """The break-scan document: each candidate's F and p, each skipped year
    with its reason, and the year of the largest F when some tested
    candidate's F is positive (a scan whose every F is 0 shows no break)."""
    report = {"candidates": [{"year": e.year, "F": e.F, "p": e.p_value}
                             for e in scan.entries],
              "skipped": [{"year": y, "reason": r} for y, r in scan.skipped]}
    if any(e.F > 0.0 for e in scan.entries):
        report["max_F_year"] = scan.best().year
    return report
