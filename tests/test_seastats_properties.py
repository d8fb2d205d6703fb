"""The vectorized seasonality battery against its looped formulas.

``looped_annual_mean_deviation``, ``looped_centered_mean_deviation``,
``looped_seasonal_delta`` and ``looped_chow_scan`` are the per-year,
per-month, per-season and per-candidate loops the vectorized code
replaced, kept verbatim (bar the inlined year counts) as references. The
vectorized functions group by a calendar index, so row order must not
change what they return. ``ols_hc1`` on a factored design is
checked against ``np.linalg.lstsq`` plus the tested block of an explicit
HC1 sandwich.
"""

import ast

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import stats as sps

from thickmarket import seastats
from thickmarket.core import SEASONS
from thickmarket.errors import DataError, DomainError, RankDeficientError
from thickmarket.seastats import (
    ChowScanEntry,
    ChowScanResult,
    MonthlyPanel,
    SeasonalComponents,
    annual_mean_deviation,
    centered_mean_deviation,
    chow_scan,
    directional_contrast,
    factor_design,
    fit_seasonal_shift,
    joint_F_test,
    ols_hc1,
    seasonal_delta,
    shift_report,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


def looped_annual_mean_deviation(panel: MonthlyPanel,
                                 min_months_per_year: int = 6) -> SeasonalComponents:
    counts: dict[int, int] = {}
    for y in panel.years.tolist():
        counts[y] = counts.get(y, 0) + 1
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


def looped_centered_mean_deviation(panel: MonthlyPanel) -> SeasonalComponents:
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


# Position in SEASONS of each month 1..12 (-1 at the unused entry 0).
_SEASON_OF_MONTH = np.array([-1] + [k for m in range(1, 13) for k, months
                                    in enumerate(SEASONS.values()) if m in months])


def looped_seasonal_delta(components: SeasonalComponents,
                          break_year: int) -> dict[str, float]:
    post = components.years >= break_year
    season_of = _SEASON_OF_MONTH[components.months]
    out = {}
    for k, season in enumerate(SEASONS):
        in_season = season_of == k
        pre_cell = components.deviations[in_season & ~post]
        post_cell = components.deviations[in_season & post]
        if pre_cell.size == 0 or post_cell.size == 0:
            raise DataError(f"no observations for season '{season}' on one "
                            f"side of {break_year}")
        out[season] = float(post_cell.mean() - pre_cell.mean())
    return out


def looped_chow_scan(components: SeasonalComponents, candidate_years,
                     min_side_obs: int = 24) -> ChowScanResult:
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


@st.composite
def layouts(draw, min_years=2, full_years=False):
    """(years, months) of an unbalanced panel: years with gaps, some of
    them with only a few months observed."""
    first = draw(st.integers(1990, 2010))
    offsets = draw(st.lists(st.integers(0, 24), min_size=min_years,
                            max_size=16, unique=True))
    rows = []
    for offset in sorted(offsets):
        if full_years or draw(st.booleans()):
            months = range(1, 13)
        else:
            months = sorted(draw(st.sets(st.integers(1, 12), min_size=1)))
        rows += [(first + offset, m) for m in months]
    years, months = np.array(rows).T
    return years, months


@PROPERTY
@given(layout=layouts(), seed=SEEDS, min_months=st.integers(1, 12))
def test_annual_components_match_loop(layout, seed, min_months):
    years, months = layout
    values = np.random.default_rng(seed).uniform(50.0, 150.0, years.size)
    panel = MonthlyPanel(years, months, values)
    got = annual_mean_deviation(panel, min_months)
    ref = looped_annual_mean_deviation(panel, min_months)
    assert got.dropped_years == ref.dropped_years
    assert np.array_equal(got.years, ref.years)
    assert np.array_equal(got.months, ref.months)
    # the year means are summed in another order: round-off differs
    np.testing.assert_allclose(got.deviations, ref.deviations,
                               rtol=1e-12, atol=1e-12)


def test_first_zero_mean_year_named_like_loop():
    rows = [(2021, m, 0.0) for m in range(1, 13)]
    rows += [(2019, m, 0.0) for m in range(1, 3)]      # dropped: too short
    rows += [(2020, m, float(m % 2) * 2.0 - 1.0) for m in range(1, 13)]
    rows += [(2018, m, 5.0) for m in range(1, 13)]
    panel = MonthlyPanel(*map(np.array, zip(*rows)))
    for deviation in (annual_mean_deviation, looped_annual_mean_deviation):
        with pytest.raises(DataError, match="^year 2020 has zero mean"):
            deviation(panel)


@PROPERTY
@given(layout=layouts(), seed=SEEDS)
def test_centered_components_match_loop(layout, seed):
    """Same kept months and the same bits on unbalanced panels with gaps."""
    years, months = layout
    values = np.random.default_rng(seed).uniform(50.0, 150.0, years.size)
    panel = MonthlyPanel(years, months, values)
    got = centered_mean_deviation(panel)
    ref = looped_centered_mean_deviation(panel)
    assert np.array_equal(got.years, ref.years)
    assert np.array_equal(got.months, ref.months)
    assert np.array_equal(got.deviations, ref.deviations)


def test_zero_centred_mean_raises_like_loop():
    rows = [(y, m, 0.0) for y in (2020, 2021) for m in range(1, 13)]
    panel = MonthlyPanel(*map(np.array, zip(*rows)))
    for deviation in (centered_mean_deviation, looped_centered_mean_deviation):
        with pytest.raises(DataError, match="^centred rolling mean is zero"):
            deviation(panel)


@PROPERTY
@given(layout=layouts(min_years=4), seed=SEEDS,
       min_side_obs=st.integers(13, 30),
       log_noise=st.floats(-1.3, 0.7), shift=st.floats(-5.0, 5.0))
def test_grouped_chow_scan_matches_loop(layout, seed, min_side_obs, log_noise,
                                        shift):
    """Same entries and notes; F and p within rtol 1e-10.

    min_side_obs > 12 keeps n - 24 positive. The noise floor of 0.05 bounds
    RSS_r / RSS_u, which sets how many digits the grouped RSS_u loses.
    """
    years, months = layout
    noise = 10.0 ** log_noise
    rng = np.random.default_rng(seed)
    break_year = int(rng.choice(years))
    profile = rng.uniform(-10.0, 10.0, 13)
    moved = shift * rng.uniform(-1.0, 1.0, 13)
    d = (profile[months] + (years >= break_year) * moved[months]
         + noise * rng.standard_normal(years.size))
    components = SeasonalComponents(years=years, months=months, deviations=d)
    candidates = range(int(years.min()) - 2, int(years.max()) + 3)
    got = chow_scan(components, candidates, min_side_obs)
    ref = looped_chow_scan(components, candidates, min_side_obs)
    assert got.skipped == ref.skipped
    assert [e.year for e in got.entries] == [e.year for e in ref.entries]
    for field in ("F", "p_value"):
        np.testing.assert_allclose([getattr(e, field) for e in got.entries],
                                   [getattr(e, field) for e in ref.entries],
                                   rtol=1e-10, atol=0.0)


def shuffled(rng, *arrays):
    order = rng.permutation(arrays[0].size)
    return [a[order] for a in arrays]


@PROPERTY
@given(layout=layouts(), seed=SEEDS, min_months=st.integers(0, 12))
def test_panel_components_ignore_row_order(layout, seed, min_months):
    """A panel built from shuffled rows gives the same components, bit
    for bit, in both modes."""
    years, months = layout
    rng = np.random.default_rng(seed)
    values = rng.uniform(50.0, 150.0, years.size)
    panel = MonthlyPanel(years, months, values)
    moved = MonthlyPanel(*shuffled(rng, years, months, values))
    for deviation in (lambda p: annual_mean_deviation(p, min_months),
                      centered_mean_deviation):
        got, ref = deviation(moved), deviation(panel)
        assert got.dropped_years == ref.dropped_years
        for field in ("years", "months", "deviations"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))


@pytest.mark.parametrize("min_months", [0, 1, 2])
def test_absent_year_is_neither_kept_nor_dropped(min_months):
    """2012 has no rows; 2011 has one, so it is kept at a threshold of 0
    or 1 and dropped at 2, as in the loop."""
    rows = [(2010, m, 100.0 + m) for m in range(1, 13)]
    rows += [(2011, 5, 90.0)]
    rows += [(2013, m, 80.0 + m) for m in (1, 2, 3)]
    panel = MonthlyPanel(*map(np.array, zip(*rows)))
    got = annual_mean_deviation(panel, min_months)
    ref = looped_annual_mean_deviation(panel, min_months)
    assert got.dropped_years == ref.dropped_years == ((2011,) if min_months == 2
                                                       else ())
    assert np.array_equal(got.years, ref.years)
    assert 2012 not in got.years.tolist()
    np.testing.assert_allclose(got.deviations, ref.deviations,
                               rtol=1e-12, atol=1e-12)


@PROPERTY
@given(layout=layouts(), seed=SEEDS)
def test_seasonal_delta_matches_loop(layout, seed):
    """The same deltas within 1e-12 (cell sums are added in another order),
    or the same error naming the first empty season."""
    years, months = layout
    rng = np.random.default_rng(seed)
    components = SeasonalComponents(years=years, months=months,
                                    deviations=rng.uniform(-10.0, 10.0, years.size))
    sample_years = np.unique(years)
    break_year = int(sample_years[sample_years.size // 2])
    try:
        ref = looped_seasonal_delta(components, break_year)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            seasonal_delta(components, break_year)
        assert str(err.value) == str(exc)
        return
    got = seasonal_delta(components, break_year)
    assert list(got) == list(SEASONS)
    np.testing.assert_allclose(list(got.values()), list(ref.values()),
                               rtol=0.0, atol=1e-12)


@PROPERTY
@given(layout=layouts(min_years=4), seed=SEEDS)
def test_chow_scan_and_deltas_ignore_row_order(layout, seed):
    """Shuffled components give the same scan entries and skips, the same
    shift report with and without year effects, and the same deltas, or
    the same error; sums change order, so F, p and the deltas agree to
    round-off."""
    years, months = layout
    rng = np.random.default_rng(seed)
    d = rng.uniform(-10.0, 10.0, 13)[months] + rng.standard_normal(years.size)
    components = SeasonalComponents(years=years, months=months, deviations=d)
    moved = SeasonalComponents(*shuffled(rng, years, months, d))
    candidates = range(int(years.min()) - 2, int(years.max()) + 3)
    got, ref = chow_scan(moved, candidates, 13), chow_scan(components, candidates, 13)
    assert got.skipped == ref.skipped
    assert [e.year for e in got.entries] == [e.year for e in ref.entries]
    for field in ("F", "p_value"):
        np.testing.assert_allclose([getattr(e, field) for e in got.entries],
                                   [getattr(e, field) for e in ref.entries],
                                   rtol=1e-10, atol=0.0)

    # The QR runs over the permuted rows. Over 6,000 fits of this layout
    # strategy the worst gaps were 3e-14 relative in F, 2e-13 relative in
    # the p-values and 3e-14 absolute in t and the effects (t near zero
    # has a large relative gap).
    sample_years = np.unique(years)
    shift_break = int(sample_years[sample_years.size // 2])
    for year_effects in (True, False):
        def report(c):
            return shift_report(fit_seasonal_shift(c, shift_break, year_effects),
                                c, shift_break)
        try:
            ref_report = report(components)
        except (DataError, DomainError) as exc:
            with pytest.raises(type(exc)):
                report(moved)
            continue
        got_report = report(moved)
        stats = [("joint_F", "F"), ("joint_F", "p"), ("directional_contrast", "t"),
                 ("directional_contrast", "p_one_sided")]
        np.testing.assert_allclose([got_report[a][b] for a, b in stats],
                                   [ref_report[a][b] for a, b in stats],
                                   rtol=1e-12, atol=1e-12)
        for key in ("month_effects", "month_post_interactions"):
            np.testing.assert_allclose(got_report[key], ref_report[key],
                                       rtol=0.0, atol=1e-12)

    break_year = int(rng.choice(years))
    try:
        ref_delta = seasonal_delta(components, break_year)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            seasonal_delta(moved, break_year)
        assert str(err.value) == str(exc)
        return
    got_delta = seasonal_delta(moved, break_year)
    np.testing.assert_allclose(list(got_delta.values()), list(ref_delta.values()),
                               rtol=0.0, atol=1e-12)


def lstsq_hc1(X, y):
    """Coefficients from lstsq and the HC1 sandwich written out."""
    n, k = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    bread = np.linalg.inv(X.T @ X)
    e = y - X @ beta
    return beta, n / (n - k) * bread @ (X.T * e**2) @ X @ bread


def assert_matches_lstsq(beta, cov, X, y, tested):
    """beta against the last ``beta.size`` lstsq coefficients; cov against
    the ``tested`` rows and columns of the sandwich, in that order."""
    beta_ref, cov_ref = lstsq_hc1(X, y)
    beta_ref, cov_ref = beta_ref[-beta.size:], cov_ref[np.ix_(tested, tested)]
    np.testing.assert_allclose(beta, beta_ref, rtol=1e-9,
                               atol=1e-9 * np.abs(beta_ref).max())
    np.testing.assert_allclose(cov, cov_ref, rtol=1e-8,
                               atol=1e-10 * np.abs(cov_ref).max())


@PROPERTY
@given(k=st.integers(1, 8), extra=st.integers(2, 40), seed=SEEDS)
def test_ols_hc1_matches_lstsq_sandwich(k, extra, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k + extra, k))
    y = X @ rng.standard_normal(k) + rng.standard_normal(k + extra)
    res = ols_hc1(factor_design(X, tested=np.arange(k)), y)
    assert_matches_lstsq(res.coefficients, res.cov_hc1, X, y, np.arange(k))
    assert res.df_resid == extra


@PROPERTY
@given(k=st.integers(1, 12), extra=st.integers(2, 40), seed=SEEDS,
       contiguous=st.booleans())
def test_ols_hc1_covariance_is_the_tested_block(k, extra, seed, contiguous):
    """For any subset of the coefficients, contiguous or not and in any
    order, the covariance is that block of the full HC1 sandwich."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k + extra, k))
    y = X @ rng.standard_normal(k) + rng.standard_normal(k + extra)
    size = int(rng.integers(1, k + 1))
    if contiguous:
        start = int(rng.integers(0, k - size + 1))
        tested = np.arange(start, start + size)
    else:
        tested = rng.choice(k, size, replace=False)
    res = ols_hc1(factor_design(X, tested=tested), y)
    _, cov_ref = lstsq_hc1(X, y)
    np.testing.assert_allclose(res.cov_hc1, cov_ref[np.ix_(tested, tested)],
                               rtol=1e-10, atol=0.0)


@PROPERTY
@given(layout=layouts(min_years=4, full_years=True), seed=SEEDS,
       year_effects=st.booleans())
def test_shift_fit_matches_lstsq_sandwich(layout, seed, year_effects):
    """The design restated here: const, year dummies bar one baseline year
    on each side, post, sum-coded months and their post interactions."""
    years, months = layout
    sample_years = np.unique(years)
    break_year = int(sample_years[sample_years.size // 2])
    rng = np.random.default_rng(seed)
    profile = rng.uniform(-5.0, 5.0, 13)[months]
    responses = [profile + rng.standard_normal(years.size) for _ in range(2)]
    # The second fit reuses the factored design of the first.
    fits = [fit_seasonal_shift(
        SeasonalComponents(years=years, months=months, deviations=d),
        break_year, include_year_effects=year_effects) for d in responses]

    post = (years >= break_year).astype(float)[:, None]
    coded = np.column_stack([(months == m).astype(float) - (months == 12)
                             for m in range(1, 12)])
    dummies = [(years == y).astype(float) for y in sample_years
               if y not in (sample_years[0], break_year)]
    X = np.column_stack([np.ones(years.size)]
                        + (dummies if year_effects else [])
                        + [post, coded, coded * post])
    # gamma[:11] and mu[:11] are the last 22 coefficients; the 12th of each
    # is minus the sum of the 11.
    for fit, d in zip(fits, responses):
        assert_matches_lstsq(np.r_[fit.gamma[:11], fit.mu[:11]], fit.cov, X, d,
                             np.arange(-11, 0))
        np.testing.assert_array_equal([fit.gamma[11], fit.mu[11]],
                                      [-fit.gamma[:11].sum(), -fit.mu[:11].sum()])


@PROPERTY
@given(k=st.integers(2, 7), extra=st.integers(2, 40), seed=SEEDS,
       n_dependent=st.integers(1, 3))
def test_dropping_named_dependent_columns_restores_full_rank(k, extra, seed,
                                                            n_dependent):
    """As many columns are named as a pivoted QR puts past the rank, and
    the design without them has full rank."""
    rng = np.random.default_rng(seed)
    n = k + n_dependent + extra
    base = rng.standard_normal((n, k))
    combos = base @ rng.integers(-2, 3, (k, n_dependent)).astype(float)
    X = np.column_stack([base, combos])[:, rng.permutation(k + n_dependent)]
    labels = tuple(f"c{j}" for j in range(X.shape[1]))

    _, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int((diag > diag.max() * max(X.shape) * np.finfo(float).eps).sum())
    assert X.shape[1] - rank == n_dependent

    with pytest.raises(RankDeficientError) as err:
        factor_design(X, labels, tested=np.arange(X.shape[1]))
    named = ast.literal_eval(str(err.value).partition("dependent columns: ")[2])
    assert len(named) == n_dependent and named == sorted(set(named))
    assert f"(rank {rank} of {X.shape[1]})" in str(err.value)
    kept = [j for j, label in enumerate(labels) if label not in named]
    assert np.linalg.matrix_rank(X[:, kept]) == len(kept)


# ---------------------------------------------------------------------------
# grouped HC1: equal design rows share one fitted value and one meat column


def per_row_fit(design, y, tested):
    """beta and the HC1 block with one term per row: e = y - Q Q'y and
    (n/(n-k)) R^-1[tested] Q' diag(e^2) Q R^-1[tested]'."""
    Q, r_inv = design.q, design.r_inv
    n, k = Q.shape
    qty = Q.T @ y
    e = y - Q @ qty
    L = r_inv[tested] @ Q.T
    return r_inv @ qty, (n / (n - k)) * ((L * e ** 2) @ L.T)


def some_tested(rng, k):
    return rng.choice(k, int(rng.integers(1, k + 1)), replace=False)


@PROPERTY
@given(k=st.integers(1, 8), distinct=st.integers(0, 10),
       repeats=st.integers(1, 40), stacked=st.booleans(), seed=SEEDS)
def test_grouped_fit_matches_per_row_fit(k, distinct, repeats, stacked, seed):
    """Designs with repeated rows: three stacked copies, or distinct rows
    drawn again in shuffled order."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((k + distinct, k))
    if stacked:
        X = np.vstack([base, base, base])
    else:
        extra = rng.integers(0, base.shape[0], repeats)
        X = base[rng.permutation(np.r_[np.arange(base.shape[0]), extra])]
    y = X @ rng.standard_normal(k) + rng.standard_normal(X.shape[0])
    tested = some_tested(rng, k)
    design = factor_design(X, tested=tested)

    G = base.shape[0]
    assert design.q_rows.shape == (G, k) and design.L.shape == (tested.size, G)
    # Groups are numbered in order of first occurrence.
    first = np.unique(design.group, return_index=True)[1]
    np.testing.assert_array_equal(first, np.sort(first))
    np.testing.assert_array_equal(X[first][design.group], X)
    np.testing.assert_array_equal(design.q_rows, design.q[first])
    if stacked:
        np.testing.assert_array_equal(design.group, np.tile(np.arange(G), 3))

    res = ols_hc1(design, y)
    beta, cov = per_row_fit(design, y, tested)
    np.testing.assert_array_equal(res.coefficients, beta)
    np.testing.assert_allclose(res.cov_hc1, cov, rtol=1e-12, atol=0.0)


@PROPERTY
@given(k=st.integers(1, 12), extra=st.integers(2, 40), seed=SEEDS)
def test_fit_without_repeated_rows_is_the_per_row_fit(k, extra, seed):
    """Every row its own group: beta and HC1 bit for bit as per row."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k + extra, k))
    y = X @ rng.standard_normal(k) + rng.standard_normal(k + extra)
    tested = some_tested(rng, k)
    design = factor_design(X, tested=tested)
    np.testing.assert_array_equal(design.group, np.arange(k + extra))
    np.testing.assert_array_equal(design.q_rows, design.q)

    res = ols_hc1(design, y)
    beta, cov = per_row_fit(design, y, tested)
    np.testing.assert_array_equal(res.coefficients, beta)
    np.testing.assert_array_equal(res.cov_hc1, cov)


def test_rows_one_bit_apart_form_two_groups():
    X = np.random.default_rng(41).standard_normal((5, 3))
    X = np.vstack([X, X])
    X[-1, -1] = np.nextafter(X[-1, -1], np.inf)
    design = factor_design(X, tested=np.arange(3))
    np.testing.assert_array_equal(design.group, [0, 1, 2, 3, 4, 0, 1, 2, 3, 5])
    assert design.L.shape == (3, 6)


def test_null_shift_panels_hold_their_accuracy():
    """50 null panels of 200 years (n = 2400, k = 24, 24 distinct rows)
    against lstsq and the explicit sandwich: t within 5.6e-14 and F within
    6.4e-14 relative. Forming Q'y from per-group sums of y, in place of
    over all rows, gives 7.6e-13 and 1.4e-12 here."""
    years = np.repeat(np.arange(1900, 2100), 12)
    months = np.tile(np.arange(1, 13), 200)
    post = (years >= 2050).astype(float)[:, None]
    coded = np.column_stack([(months == m).astype(float) - (months == 12)
                             for m in range(1, 12)])
    X = np.hstack([np.ones_like(post), post, coded, coded * post])
    contrast = np.r_[np.full(6, 1.0 / 3.0), np.zeros(5)]
    dt, dF = [], []
    for seed in range(50):
        rng = np.random.default_rng([seed, 28])
        level = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(200)))
        pct = 3.0 * np.sin(np.pi * months / 6.0) + rng.standard_normal(2400)
        panel = MonthlyPanel(years, months, np.repeat(level, 12) * (1.0 + pct / 100.0))
        comp = annual_mean_deviation(panel)
        fit = fit_seasonal_shift(comp, 2050, include_year_effects=False)

        beta, cov = lstsq_hc1(X, comp.deviations)
        mu, V = beta[13:], cov[13:, 13:]
        F_ref = mu @ np.linalg.solve(V, mu) / 11.0
        t_ref = contrast @ mu / np.sqrt(contrast @ V @ contrast)
        dF.append(abs(joint_F_test(fit).statistic / F_ref - 1.0))
        dt.append(abs(directional_contrast(fit).statistic - t_ref))
    assert max(dt) <= 3e-13
    assert max(dF) <= 3e-13


# ---------------------------------------------------------------------------
# the layout cache and the layout's memos change no answer


OTHER_YEARS = np.repeat(np.arange(1960, 1972), 12)
OTHER_MONTHS = np.tile(np.arange(1, 13), 12)
OTHER_VALUES = 100.0 + np.sin(np.arange(OTHER_YEARS.size))


def outcome(call, *args):
    """repr of what ``call`` returns, or its error's type and message. repr
    round-trips a float, so equal outcomes are equal bits."""
    try:
        return repr(call(*args))
    except (DataError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


def battery_answers(years, months, values, min_months, centered, year_effects,
                    before, fresh=False):
    """Every answer of the battery on one panel, in order, with ``before``
    run ahead of each call: the components (in annual mode at two
    thresholds, the first again last), then for them and for components
    built directly from copies of their arrays, the shift report, four Chow
    scans over two candidate sets and two ``min_side_obs``, and three
    seasonal deltas over two break years. With ``fresh``, every call gets
    components built anew from the panel's arrays, so no layout memo it
    reads was filled by an earlier call."""
    def components(threshold=min_months):
        before()
        panel = MonthlyPanel(years, months, values)
        before()
        if centered:
            return centered_mean_deviation(panel)
        return annual_mean_deviation(panel, threshold)

    def direct(comp):
        return SeasonalComponents(years=comp.years.copy(), months=comp.months.copy(),
                                  deviations=comp.deviations.copy())

    other = 12 if min_months == 1 else 1
    thresholds = [min_months] if centered else [min_months, other, min_months]
    built = components()
    answers = []
    for threshold in thresholds:
        # A panel of the same layout finds the layout and its memo warm.
        comp = built if threshold == min_months and not fresh \
            else components(threshold)
        answers.append(repr((comp.years.tolist(), comp.months.tolist(),
                             comp.deviations.tolist(), comp.dropped_years)))
    built = built, direct(built)
    for which in (0, 1):
        sample_years = np.unique(built[which].years).tolist() or [2000]
        lo, hi = sample_years[0], sample_years[-1]
        break_year = sample_years[len(sample_years) // 2]
        wide, narrow = range(lo - 2, hi + 3), range(lo + 1, hi)
        calls = [lambda c: shift_report(fit_seasonal_shift(c, break_year, year_effects),
                                        c, break_year)]
        calls += [lambda c, cand=cand, side=side: chow_scan(c, cand, side)
                  for cand, side in ((wide, 13), (wide, 20), (narrow, 13), (wide, 13))]
        calls += [lambda c, year=year: seasonal_delta(c, year)
                  for year in (break_year, hi, break_year)]
        for call in calls:
            c = built[which]
            if fresh:
                c = components()
                c = direct(c) if which else c
            before()
            answers.append(outcome(call, c))
    return answers


def clear_caches():
    seastats._calendar_layout.cache_clear()
    seastats._shift_design.cache_clear()


@PROPERTY
@given(layout=layouts(min_years=3), seed=SEEDS, min_months=st.integers(1, 12),
       centered=st.booleans(), year_effects=st.booleans())
def test_layout_cache_changes_no_answer(layout, seed, min_months, centered,
                                        year_effects):
    """Shuffled panels with gaps and short years, in both deviation modes
    and both year-effect settings, give the same bits on a warm cache (the
    battery rerun on the same layout), with the caches cleared before
    every call, and with another layout's panel and fit run before every
    call, so that each lookup misses. The reference runs every call on
    components built anew after clearing the caches."""
    years, months = layout
    rng = np.random.default_rng(seed)
    years, months, values = shuffled(rng, years, months,
                                     rng.uniform(50.0, 150.0, years.size))

    def other_fit():
        other = annual_mean_deviation(MonthlyPanel(OTHER_YEARS, OTHER_MONTHS,
                                                   OTHER_VALUES))
        fit_seasonal_shift(other, 1966, year_effects)

    def run(before, fresh=False):
        return battery_answers(years, months, values, min_months, centered,
                               year_effects, before, fresh)

    reference = run(clear_caches, fresh=True)
    assert run(lambda: None) == reference
    assert run(lambda: None) == reference   # the same layout, warm
    assert run(clear_caches) == reference
    assert run(other_fit) == reference
