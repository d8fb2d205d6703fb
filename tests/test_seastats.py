"""Components, robust regression, shift tests, Chow scan."""

import ast
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from scipy import special

from thickmarket import seastats
from thickmarket.core import SEASONS
from thickmarket.errors import DataError, DomainError, RankDeficientError
from thickmarket.seastats import (
    MonthlyPanel,
    SeasonalComponents,
    ShiftRegressionFit,
    annual_mean_deviation,
    centered_mean_deviation,
    chow_scan,
    directional_contrast,
    factor_design,
    fit_seasonal_shift,
    joint_F_test,
    ols_hc1,
    seasonal_delta,
)

MONTHS = np.arange(1, 13)


def dependent_columns(err):
    """The column names a RankDeficientError's message ends with."""
    return ast.literal_eval(str(err.value).partition("dependent columns: ")[2])


def panel_of(rows) -> MonthlyPanel:
    """Panel from (year, month, value) triples."""
    years, months, values = zip(*rows)
    return MonthlyPanel(np.array(years), np.array(months), np.array(values))


def full_panel(year_values: dict[int, np.ndarray]) -> MonthlyPanel:
    return panel_of([(y, m, vals[m - 1]) for y, vals in year_values.items()
                     for m in range(1, 13)])


def components_from(yearly: dict[int, np.ndarray]) -> SeasonalComponents:
    rows = [(y, m, vals[m - 1]) for y, vals in yearly.items()
            for m in range(1, 13)]
    return SeasonalComponents(
        years=np.array([r[0] for r in rows]),
        months=np.array([r[1] for r in rows]),
        deviations=np.array([r[2] for r in rows]))


SEASONAL = 4.0 * np.sin(2.0 * np.pi * MONTHS / 12.0)
SEASONAL = SEASONAL - SEASONAL.mean()


def crafted_fit(mu_free, V, rss=1.0) -> ShiftRegressionFit:
    """A fit whose free interactions and their covariance are given, with
    zero month effects; ``rss=0`` makes it an exact fit."""
    mu_free = np.asarray(mu_free, dtype=float)
    return ShiftRegressionFit(
        gamma=np.zeros(12), mu=np.append(mu_free, -mu_free.sum()),
        cov=np.asarray(V), df_resid=100, n_obs=124, rss=rss, response_scale=1.0)


class TestMonthlyPanel:
    def test_duplicate_rejected(self):
        """Whether the rows come sorted or not."""
        for rows in ([(2020, 1, 1.0), (2020, 1, 2.0)],
                     [(2019, 12, 0.5), (2020, 1, 1.0), (2020, 1, 2.0), (2020, 2, 3.0)],
                     [(2020, 1, 1.0), (2021, 1, 2.0), (2020, 1, 3.0)]):
            with pytest.raises(DataError,
                               match="^duplicate \\(year, month\\) observations in panel$"):
                panel_of(rows)

    def test_month_range_enforced(self):
        for month in (0, 13):
            with pytest.raises(DataError, match="^months must lie in 1..12$"):
                panel_of([(2020, 1, 1.0), (2020, month, 1.0)])

    def test_sorted_storage(self):
        p = panel_of([(2021, 2, 1.0), (2020, 5, 2.0),
                                       (2021, 1, 3.0)])
        assert p.years.tolist() == [2020, 2021, 2021]
        assert p.months.tolist() == [5, 1, 2]
        assert p.values.tolist() == [2.0, 3.0, 1.0]

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1]],
                             ids=["sorted", "unsorted"])
    def test_panel_owns_its_arrays(self, order):
        years, months = np.array([2020, 2020, 2021])[order], np.array([11, 12, 1])[order]
        values = np.array([1.0, 2.0, 3.0])[order]
        p = MonthlyPanel(years, months, values)
        for mine, theirs in zip((p.years, p.months, p.values), (years, months, values)):
            assert not np.shares_memory(mine, theirs)
        years[:], months[:], values[:] = 1999, 6, -1.0
        assert p.years.tolist() == [2020, 2020, 2021]
        assert p.months.tolist() == [11, 12, 1]
        assert p.values.tolist() == [1.0, 2.0, 3.0]

    def test_years_and_months_are_read_only(self):
        p = panel_of([(2020, 11, 1.0), (2020, 12, 2.0), (2021, 1, 3.0)])
        for array in (p.years, p.months):
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("mutate", [
        lambda years, months, values: years.__iadd__(1),
        lambda years, months, values: months.__setitem__(slice(0, 12), MONTHS[::-1]),
        lambda years, months, values: values.__imul__(2.0),
    ], ids=["years", "months", "values"])
    def test_writes_into_caller_arrays_reach_no_panel(self, mutate, monkeypatch):
        """A panel and its layout keep their own copies: after the caller's
        arrays are written to, the first panel is unchanged, and a panel
        built from the written arrays gives the components and scan of a
        panel built from fresh copies of them on a cold cache."""
        rng = np.random.default_rng(35)
        years = np.repeat(np.arange(2010, 2020), 12)
        months = np.tile(MONTHS, 10)
        values = 100.0 + SEASONAL[months - 1] + rng.standard_normal(years.size)
        first = MonthlyPanel(years, months, values)
        before = [a.copy() for a in (first.years, first.months, first.values)]

        def battery(panel):
            comp = annual_mean_deviation(panel)
            scan = chow_scan(comp, range(2011, 2020), 13)
            return (comp.years.tolist(), comp.months.tolist(),
                    comp.deviations.tolist(), repr(scan))

        battery(first)
        mutate(years, months, values)
        later = battery(MonthlyPanel(years, months, values))
        for got, ref in zip((first.years, first.months, first.values), before):
            np.testing.assert_array_equal(got, ref)
        monkeypatch.setattr(seastats, "_last_layout", None)
        assert later == battery(MonthlyPanel(years.copy(), months.copy(),
                                             values.copy()))

    @pytest.mark.parametrize("rows", [
        [(y, m, 100.0 + m) for y in range(2010, 2016) for m in MONTHS][::-1],
        [(y, m, 100.0 + m) for y in range(2010, 2016) for m in MONTHS]
        + [(2016, 1, 100.0)],
    ], ids=["unsorted", "short-year-dropped"])
    def test_layouts_are_freed_without_the_cycle_collector(self, rows, monkeypatch):
        """A layout, the layouts its memos hold and its factored design form
        no reference cycle: once the layout slot lets go of them, they are
        freed by reference counting, so panels of ever new shapes do not
        pile up between collections."""
        monkeypatch.setattr(seastats, "_last_layout", None)
        panel = panel_of(rows)
        comp = annual_mean_deviation(panel)
        chow_scan(comp, range(2011, 2016), 13)
        seasonal_delta(comp, 2013)
        fit_seasonal_shift(comp, 2013, include_year_effects=False)
        design = seastats._shift_design(comp.layout, 2013, False)
        held = [weakref.ref(obj) for obj in (panel.layout, comp.layout, design)]
        gc.disable()
        try:
            # not monkeypatch, which would keep the layout it replaces
            seastats._last_layout = None
            del panel, comp, design
            assert [ref() for ref in held] == [None, None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("years, months, bad", [
        ([2020.9, 2021.0], [1, 2], "2020.9"),
        ([2020, 2021], [1.7, 2.0], "1.7"),
        ([2020, 2021], [1.0, np.nan], "nan"),
    ], ids=["year", "month", "nan-month"])
    def test_non_whole_years_or_months_rejected(self, years, months, bad):
        """Not truncated: a panel or components naming a year or month that
        is not a whole number is a DataError naming the value."""
        years, months = np.array(years), np.array(months)
        with pytest.raises(DataError, match=f"whole numbers, not {bad}$"):
            MonthlyPanel(years, months, np.ones(2))
        with pytest.raises(DataError, match=f"whole numbers, not {bad}$"):
            SeasonalComponents(years=years, months=months, deviations=np.ones(2))

    @pytest.mark.parametrize("years, months, values, message", [
        ([2020, 2020, 2021], [11, 12], [1.0, 2.0, 3.0],
         "years and months must be equal-length vectors"),
        ([[2020, 2021]], [[1, 2]], [[1.0, 2.0]],
         "years and months must be equal-length vectors"),
        ([2020, 2021], [1, 2], [1.0, 2.0, 3.0],
         "values must be a vector as long as years and months"),
    ], ids=["months", "2-d", "values"])
    def test_unequal_lengths_rejected(self, years, months, values, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            MonthlyPanel(np.array(years), np.array(months), np.array(values))

    def test_layouts_are_checked_and_built_once(self, monkeypatch):
        """Panels and components built directly on the years and months of
        the last layout, in any dtype, get it without a check or a build:
        one call of ``_integers`` (both arrays at once) and one layout."""
        calls = {"_integers": 0, "_CalendarLayout": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(seastats, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(seastats, name, counting)
        monkeypatch.setattr(seastats, "_last_layout", None)
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        values = 100.0 + SEASONAL[months - 1]
        layouts = set()
        for y, m in ((years, months), (years.astype(float), months.astype(np.int32)),
                     (years.tolist(), months.tolist()), (years.copy(), months.copy())):
            layouts.add(MonthlyPanel(y, m, values).layout)
            layouts.add(SeasonalComponents(years=y, months=m, deviations=values).layout)
        assert len(layouts) == 1
        assert calls == {"_integers": 1, "_CalendarLayout": 1}
        assert layouts.pop().years.dtype == int

    def test_whole_float_years_and_months_are_taken_as_int(self):
        """Panels and components of whole float years and months give the
        bits of integer ones."""
        rng = np.random.default_rng(36)
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        values = 100.0 + SEASONAL[months - 1] + rng.standard_normal(years.size)

        def battery(comp):
            fit = fit_seasonal_shift(comp, 2019)
            return repr((comp.years.dtype, comp.months.dtype, comp.deviations.tolist(),
                         seastats.shift_report(fit, comp, 2019),
                         chow_scan(comp, range(2014, 2022), 13)))

        as_float = years.astype(float), months.astype(float)
        for build in (lambda y, m: annual_mean_deviation(MonthlyPanel(y, m, values)),
                      lambda y, m: SeasonalComponents(years=y, months=m,
                                                      deviations=values.copy())):
            assert battery(build(*as_float)) == battery(build(years, months))


class TestDirectComponents:
    """Components built without their layout are refused what a panel is
    (years that are not whole numbers in ``TestMonthlyPanel``), and
    deviations that are not a finite vector as long as the rows."""

    ROWS = [(2020, m) for m in MONTHS] + [(2021, m) for m in MONTHS]

    @pytest.mark.parametrize("change, message", [
        (lambda y, m, d: (y, np.where(m == 12, 13, m), d), "months must lie in 1..12"),
        (lambda y, m, d: (y, np.where(m == 1, 0, m), d), "months must lie in 1..12"),
        (lambda y, m, d: (y, m[:-1], d[:-1]),
         "years and months must be equal-length vectors"),
        (lambda y, m, d: (y[None], m[None], d[None]),
         "years and months must be equal-length vectors"),
        (lambda y, m, d: (y, m, d[:-1]),
         "deviations must be a vector as long as years and months"),
        (lambda y, m, d: (y, m, np.where(m == 3, np.nan, d)), "deviation at 2020-03 is nan"),
        (lambda y, m, d: (y, m, np.where(y == 2021, np.inf, d)),
         "deviation at 2021-01 is inf"),
    ], ids=["month-13", "month-0", "unequal-lengths", "2-d", "short-deviations",
            "nan", "inf"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_refused(self, change, message, warm, monkeypatch):
        """On a cold layout slot and with the layout of the unchanged rows
        in it."""
        years, months = (np.array(a) for a in zip(*self.ROWS))
        deviations = SEASONAL[months - 1]
        monkeypatch.setattr(seastats, "_last_layout", None)
        if warm:
            SeasonalComponents(years=years, months=months, deviations=deviations)
        y, m, d = change(years, months, deviations)
        with pytest.raises(DataError, match=f"^{message}$"):
            SeasonalComponents(years=y, months=m, deviations=d)

    def test_replaced_rows_and_deviations_are_checked(self):
        """``dataclasses.replace`` with new months looks their layout up, and
        new deviations are checked on the layout kept, and stored as floats."""
        comp = annual_mean_deviation(full_panel({2020: 100.0 + MONTHS}))
        with pytest.raises(DataError, match="^months must lie in 1..12$"):
            dataclasses.replace(comp, months=np.where(comp.months == 12, 13, comp.months))
        d = comp.deviations.copy()
        d[4] = -np.inf
        with pytest.raises(DataError, match="^deviation at 2020-05 is -inf$"):
            dataclasses.replace(comp, deviations=d)
        assert dataclasses.replace(comp, deviations=list(range(12))).deviations.dtype \
            == float


class TestAnnualMeanDeviation:
    def test_constant_year_is_flat(self):
        comp = annual_mean_deviation(full_panel({2020: np.full(12, 5.0)}))
        assert np.all(comp.deviations == 0.0)

    def test_two_month_year_with_low_threshold(self):
        panel = panel_of([(2020, 1, 90.0), (2020, 2, 110.0)])
        comp = annual_mean_deviation(panel, min_months_per_year=2)
        assert np.allclose(sorted(comp.deviations), [-10.0, 10.0])

    def test_short_years_dropped_and_reported(self):
        rows = [(2020, m, 100.0) for m in range(1, 13)]
        rows += [(2021, m, 100.0) for m in range(1, 4)]
        comp = annual_mean_deviation(panel_of(rows))
        assert comp.dropped_years == (2021,)
        assert set(comp.years.tolist()) == {2020}

    def test_sine_panel_matches_direct_arithmetic(self):
        values = 100.0 * (1.0 + 0.05 * np.sin(2 * np.pi * MONTHS / 12.0))
        panel = full_panel({y: values for y in range(2010, 2020)})
        comp = annual_mean_deviation(panel)
        direct = 100.0 * (values - values.mean()) / values.mean()
        for y in range(2010, 2020):
            got = comp.deviations[comp.years == y]
            assert np.abs(got - direct).max() < 1e-12

    def test_within_year_deviations_sum_to_zero(self):
        rng = np.random.default_rng(17)
        panel = full_panel({y: rng.uniform(50, 150, 12) for y in range(2010, 2015)})
        comp = annual_mean_deviation(panel)
        for y in range(2010, 2015):
            assert abs(comp.deviations[comp.years == y].sum()) < 1e-9

    def test_scaling_a_year_leaves_its_deviations_unchanged(self):
        rng = np.random.default_rng(18)
        base = {y: rng.uniform(50, 150, 12) for y in range(2010, 2014)}
        scaled = dict(base)
        scaled[2012] = base[2012] * 3.7
        a = annual_mean_deviation(full_panel(base))
        b = annual_mean_deviation(full_panel(scaled))
        assert np.abs(a.deviations - b.deviations).max() < 1e-10

    def test_zero_mean_year_rejected(self):
        vals = np.zeros(12)
        with pytest.raises(DataError, match="zero mean"):
            annual_mean_deviation(full_panel({2020: vals}))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "value nan at 2021-03 makes the deviation at 2021-01 non-finite"),
        (np.inf, "value inf at 2021-03 makes the deviation at 2021-01 non-finite"),
        (1e307, r"value 1e\+307 at 2021-03 makes the deviation at 2021-03 non-finite"),
        (1e308, r"value 1e\+308 at 2021-03 makes the deviation at 2021-01 non-finite"),
    ], ids=["nan", "inf", "overflow", "overflow-in-the-year"])
    def test_non_finite_deviation_rejected(self, bad, message):
        """A NaN or inf value makes its year's mean, and so every deviation
        of that year, non-finite; a finite value too large for the
        deviation's arithmetic overflows in its own month, or in every
        month of its year once 100 times the mean overflows. The first bad
        deviation is named with the value behind it, and no RuntimeWarning
        is emitted on the way."""
        values = {y: 100.0 + MONTHS for y in range(2019, 2023)}
        values[2021] = np.where(MONTHS == 3, bad, values[2021])
        with pytest.raises(DataError, match=f"^{message}$"):
            annual_mean_deviation(full_panel(values))


class TestRollingMeanDeviation:
    def test_constant_series_is_flat_in_both_modes(self):
        panel = full_panel({y: np.full(12, 3.0) for y in range(2010, 2014)})
        for deviation in (annual_mean_deviation, centered_mean_deviation):
            assert np.all(deviation(panel).deviations == 0.0)

    def test_centered_window_annihilates_annual_cycle(self):
        # For level + pure 12-periodic cycle the 2x12 average equals the level.
        cycle = 10.0 * np.sin(2 * np.pi * MONTHS / 12.0)
        cycle = cycle - cycle.mean()
        panel = full_panel({y: 100.0 + cycle for y in range(2010, 2015)})
        comp = centered_mean_deviation(panel)
        expected = 100.0 * cycle / 100.0
        for y, m, d in zip(comp.years, comp.months, comp.deviations):
            assert abs(d - expected[m - 1]) < 1e-10

    def test_trend_plus_cycle_matches_direct_window(self):
        t = np.arange(60)
        vals = 100.0 + 0.7 * t + 8.0 * np.sin(2 * np.pi * t / 12.0)
        rows = [(2010 + i // 12, i % 12 + 1, vals[i]) for i in range(60)]
        comp = centered_mean_deviation(panel_of(rows))
        w = np.ones(13)
        w[0] = w[12] = 0.5
        assert comp.deviations.size == 48
        for j, i in enumerate(range(6, 54)):
            gbar = np.dot(w, vals[i - 6:i + 7]) / 12.0
            assert abs(comp.deviations[j] - 100.0 * (vals[i] - gbar) / gbar) < 1e-12

    def test_boundary_months_omitted(self):
        panel = full_panel({2010: np.arange(1.0, 13.0)})
        comp = centered_mean_deviation(panel)
        assert comp.deviations.size == 0

    @pytest.mark.parametrize("bad, message", [
        (np.inf, "value inf at 2021-03 makes the deviation at 2020-09 non-finite"),
        (1e307, r"value 1e\+307 at 2021-03 makes the deviation at 2021-03 non-finite"),
        (1e308, r"value 1e\+308 at 2021-03 makes the deviation at 2020-09 non-finite"),
    ], ids=["inf", "overflow", "overflow-in-the-windows"])
    def test_non_finite_deviation_rejected(self, bad, message):
        """A NaN is a gap that drops the windows over it, but an inf makes
        the deviations of its windows non-finite, and a finite value too
        large overflows the deviation of its month or of its windows: the
        first bad deviation is named with the value behind it, with no
        RuntimeWarning."""
        values = {y: 100.0 + MONTHS for y in range(2019, 2023)}
        values[2021] = np.where(MONTHS == 3, bad, values[2021])
        with pytest.raises(DataError, match=f"^{message}$"):
            centered_mean_deviation(full_panel(values))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["clean", "nan"])
    def test_nan_panel_on_a_shared_layout(self, order, monkeypatch):
        """Two panels on one layout, one with a NaN that drops the windows
        over it, give in either order what each gives on a cold slot."""
        rng = np.random.default_rng(37)
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        clean = 100.0 + SEASONAL[months - 1] + rng.standard_normal(years.size)
        holed = clean.copy()
        holed[60] = np.nan

        def battery(values):
            comp = centered_mean_deviation(MonthlyPanel(years, months, values))
            fit = fit_seasonal_shift(comp, 2019, include_year_effects=False)
            return repr((comp.years.tolist(), comp.months.tolist(),
                         comp.deviations.tolist(),
                         seastats.shift_report(fit, comp, 2019),
                         chow_scan(comp, range(2014, 2022), 13)))

        cold = []
        for values in (clean, holed):
            monkeypatch.setattr(seastats, "_last_layout", None)
            cold.append(battery(values))
        assert cold[0] != cold[1]
        monkeypatch.setattr(seastats, "_last_layout", None)
        warm = {i: battery((clean, holed)[i]) for i in order}
        assert [warm[0], warm[1]] == cold


class TestOlsHc1:
    def test_exact_fit(self):
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        res = ols_hc1(factor_design(X, tested=np.arange(4)), X @ b)
        assert np.abs(res.coefficients - b).max() < 1e-10
        assert res.rss < 1e-20

    def test_two_point_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([2.0, 5.0])
        res = ols_hc1(factor_design(np.vstack([X, X]), tested=np.arange(2)),
                      np.concatenate([y, y]))
        assert np.allclose(res.coefficients, [2.0, 3.0])

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(22)
        X = np.column_stack([np.ones(200), rng.standard_normal((200, 5))])
        y = X @ rng.standard_normal(6) + rng.standard_normal(200)
        res = ols_hc1(factor_design(X, tested=np.arange(6)), y)
        beta_ne = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.abs(res.coefficients - beta_ne).max() < 1e-8
        e = y - X @ beta_ne
        xtx_inv = np.linalg.inv(X.T @ X)
        meat = (X * e[:, None]**2).T @ X
        v_ne = (200 / (200 - 6)) * xtx_inv @ ((X * (e**2)[:, None]).T @ X) @ xtx_inv
        assert np.abs(res.cov_hc1 - v_ne).max() < 1e-10
        assert res.df_resid == 194

    @pytest.mark.parametrize("shape, message", [
        ((3, 3), r"more observations \(3\) than columns \(3\)"),
        ((2, 3), r"more observations \(2\) than columns \(3\)"),
        ((12,), "design must be"), ((2, 6, 2), "design must be")])
    def test_design_shape_checked(self, shape, message):
        X = np.random.default_rng(25).standard_normal(shape)
        with pytest.raises(DomainError, match=message):
            factor_design(X, tested=np.arange(1))

    @pytest.mark.parametrize("length", [29, 31])
    def test_response_length_checked(self, length):
        X = np.column_stack([np.ones(30), np.arange(30.0)])
        with pytest.raises(DomainError, match="response length n"):
            ols_hc1(factor_design(X, tested=np.arange(2)), np.ones(length))

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(40)
        X = np.column_stack([np.ones(40), x, 2.0 * x])
        with pytest.raises(RankDeficientError) as err:
            factor_design(X, ("const", "a", "b"), tested=np.arange(3))
        # the null vector is (0, 2, -1)/sqrt(5); "a" has its largest entry
        assert dependent_columns(err) == ["a"]

    @pytest.mark.parametrize("scale, named", [
        (1.0, ["zero"]), (0.0, ["a", "b", "zero"])],
        ids=["zero-column", "zero-design"])
    def test_zero_columns_are_named(self, scale, named):
        """A zero column is the null space; a zero design is all of it."""
        X = scale * np.random.default_rng(24).standard_normal((12, 2))
        X = np.column_stack([X[:, 0], np.zeros(12), X[:, 1]])
        with pytest.raises(RankDeficientError) as err:
            factor_design(X, ("a", "zero", "b"), tested=np.arange(3))
        assert dependent_columns(err) == named


class TestFitSeasonalShift:
    def test_no_shift_gives_zero_interactions(self):
        comp = components_from({y: SEASONAL for y in range(2014, 2026)})
        fit = fit_seasonal_shift(comp, 2021)
        assert np.abs(fit.mu).max() < 1e-9

    def test_exact_recovery_of_sum_zero_shift(self):
        shift = np.zeros(12)
        shift[2], shift[5] = 2.0, -2.0
        yearly = {y: SEASONAL + (shift if y >= 2021 else 0.0)
                  for y in range(2014, 2026)}
        fit = fit_seasonal_shift(components_from(yearly), 2021)
        assert np.abs(fit.mu - shift).max() < 1e-9
        assert np.abs(fit.gamma - SEASONAL).max() < 1e-9

    def test_sum_to_zero_exact(self):
        rng = np.random.default_rng(24)
        yearly = {y: SEASONAL + rng.standard_normal(12)
                  for y in range(2014, 2026)}
        fit = fit_seasonal_shift(components_from(yearly), 2021)
        assert fit.gamma.sum() == 0.0
        assert fit.mu.sum() == 0.0

    def test_break_outside_sample_rejected(self):
        comp = components_from({y: SEASONAL for y in range(2014, 2020)})
        with pytest.raises(DataError, match="both sides"):
            fit_seasonal_shift(comp, 2021)

    def test_empty_sample_rejected(self):
        empty = components_from({})
        with pytest.raises(DataError, match="both sides"):
            fit_seasonal_shift(empty, 2021)

    @pytest.mark.parametrize("years, break_year, where", [
        (range(2013, 2022), 2021, "Jan has a single observation from 2021 on"),
        (range(2020, 2026), 2021, "Jan has a single observation before 2021"),
    ], ids=["one-post-year", "one-pre-year"])
    def test_single_observation_side_rejected(self, years, break_year, where):
        rng = np.random.default_rng(33)
        comp = components_from({y: SEASONAL + rng.standard_normal(12)
                                for y in years})
        for year_effects in (True, False):
            with pytest.raises(DataError, match=where):
                fit_seasonal_shift(comp, break_year, year_effects)

    def test_one_month_with_one_observation_on_a_side_rejected(self):
        rng = np.random.default_rng(34)
        comp = components_from({y: SEASONAL + rng.standard_normal(12)
                                for y in range(2014, 2026)})
        lone_may = (comp.months != 5) | (comp.years < 2021) | (comp.years == 2025)
        thin = SeasonalComponents(years=comp.years[lone_may],
                                  months=comp.months[lone_may],
                                  deviations=comp.deviations[lone_may])
        with pytest.raises(DataError, match="May has a single observation "
                                            "from 2021 on"):
            fit_seasonal_shift(thin, 2021)
        no_may = (comp.months != 5) | (comp.years < 2021)
        empty = SeasonalComponents(years=comp.years[no_may],
                                   months=comp.months[no_may],
                                   deviations=comp.deviations[no_may])
        with pytest.raises(RankDeficientError):
            fit_seasonal_shift(empty, 2021)

    def test_fwl_year_effects_equal_demeaning(self):
        """Month effects agree between year-dummy and within-year-demeaned fits."""
        rng = np.random.default_rng(25)
        years = np.repeat(np.arange(2010, 2020), 12)
        months = np.tile(MONTHS, 10)
        y = (50.0 + 5.0 * np.cos(2 * np.pi * months / 12.0)
             + np.repeat(rng.normal(0.0, 4.0, 10), 12)
             + rng.standard_normal(120))
        from thickmarket.seastats import _sum_coded_months
        year_dummies = np.column_stack(
            [(years == yy).astype(float) for yy in range(2010, 2020)])
        fit_a = ols_hc1(factor_design(
            np.hstack([year_dummies, _sum_coded_months(months)]),
            tested=np.arange(21)), y)
        demeaned = y - np.repeat(
            [y[years == yy].mean() for yy in range(2010, 2020)], 12)
        fit_b = ols_hc1(factor_design(np.hstack([np.ones((120, 1)),
                                                 _sum_coded_months(months)]),
                                      tested=np.arange(12)),
                        demeaned)
        assert np.abs(fit_a.coefficients[-11:] - fit_b.coefficients[-11:]).max() < 1e-9


def shift_design_matrix(years, months, break_year, year_effects):
    """The shift design restated: const, year dummies bar the first year on
    each side of the break, post, sum-coded months, their post terms."""
    post = (years >= break_year).astype(float)[:, None]
    coded = np.column_stack([(months == m).astype(float) - (months == 12)
                             for m in range(1, 12)])
    baselines = (years.min(), years[years >= break_year].min())
    dummies = [(years == y).astype(float) for y in np.unique(years)
               if y not in baselines]
    return np.column_stack([np.ones(years.size)]
                           + (dummies if year_effects else [])
                           + [post, coded, coded * post])


def assert_matches_lstsq_hc1(fit, X, y):
    """gamma[:11] and mu[:11] against the last 22 lstsq coefficients (the
    month effects, then the interactions), gamma[11] and mu[11] as minus
    the sums of the 11; the fit's covariance against the interaction block
    (the last 11 columns of X) of the explicit HC1 sandwich."""
    n, k = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    bread = np.linalg.inv(X.T @ X)
    scores = X * (y - X @ beta)[:, None]
    cov = (n / (n - k) * bread @ (scores.T @ scores) @ bread)[-11:, -11:]
    np.testing.assert_allclose(np.r_[fit.gamma[:11], fit.mu[:11]], beta[-22:],
                               rtol=1e-10, atol=1e-10 * np.abs(beta).max())
    np.testing.assert_array_equal([fit.gamma[11], fit.mu[11]],
                                  [-fit.gamma[:11].sum(), -fit.mu[:11].sum()])
    np.testing.assert_allclose(fit.cov, cov, rtol=1e-10,
                               atol=1e-10 * np.abs(cov).max())


class TestFactorReuse:
    """fit_seasonal_shift factors a design once and refactors on any change
    to the layout's values, the break year or the year effects."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        """Shapes of the designs factored, and the last factor made."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            self.last_design = factor_design(*args, **kwargs)
            return self.last_design

        monkeypatch.setattr(seastats, "_last_layout", None)
        monkeypatch.setattr(seastats, "factor_design", counting)
        return calls

    @staticmethod
    def noisy(years, months, seed):
        rng = np.random.default_rng(seed)
        d = SEASONAL[months - 1] + rng.standard_normal(years.size)
        return SeasonalComponents(years=years, months=months, deviations=d)

    def fit_and_check(self, comp, break_year, year_effects=True):
        fit = fit_seasonal_shift(comp, break_year,
                                 include_year_effects=year_effects)
        X = shift_design_matrix(comp.years, comp.months, break_year,
                                year_effects)
        assert_matches_lstsq_hc1(fit, X, comp.deviations)
        return fit

    def test_repeated_fits_factor_once(self, factor_calls):
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        for seed in range(4):
            self.fit_and_check(self.noisy(years, months, seed), 2019)
        assert len(factor_calls) == 1

    def test_each_design_change_factors_again(self, factor_calls):
        """int32 years are a dtype, not a change: every layout is int, so
        they get the int64 layout and its design."""
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        kept = years != 2015
        variants = [
            (self.noisy(years, months, 1), 2019, True, 1),
            (self.noisy(years, months, 2), 2020, True, 2),
            (self.noisy(years, months, 3), 2020, False, 3),
            (self.noisy(years.astype(np.int32), months, 4), 2020, False, 3),
            (self.noisy(years[kept], months[kept], 5), 2020, False, 4),
        ]
        for comp, break_year, year_effects, count in variants:
            self.fit_and_check(comp, break_year, year_effects)
            assert len(factor_calls) == count
        assert factor_calls[3] == (132, 24)

    def test_cached_arrays_are_read_only(self, factor_calls):
        years = np.repeat(np.arange(2012, 2024), 12)
        comp = self.noisy(years, np.tile(MONTHS, 12), 6)
        fit_seasonal_shift(comp, 2019)
        design = self.last_design
        assert design.L.shape == (11, comp.years.size)
        for array in (design.q, design.q_rows, design.r_inv, design.L):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(ValueError):
            design.group[0] = 1
        fit_seasonal_shift(comp, 2019)
        assert len(factor_calls) == 1

    def test_rank_deficient_design_is_never_cached(self, factor_calls):
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        good = self.noisy(years, months, 7)
        no_may = months != 5
        bad = self.noisy(years[no_may], months[no_may], 8)
        first = fit_seasonal_shift(good, 2019)
        for _ in range(2):
            with pytest.raises(RankDeficientError) as err:
                fit_seasonal_shift(bad, 2019)
            assert dependent_columns(err) == ["month_5", "month_5:post"]
        after = fit_seasonal_shift(good, 2019)
        np.testing.assert_array_equal(after.cov, first.cov)
        assert len(factor_calls) == 3

    def test_a_failed_build_keeps_the_last_design(self, factor_calls):
        """A design build that raises, on a month with one observation on a
        side or on a rank-deficient design, leaves the layout's last
        design in its memo."""
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        keep = (months != 5) | (years < 2020)   # no May from 2020 on
        comp = self.noisy(years[keep], months[keep], 12)
        first = fit_seasonal_shift(comp, 2018)
        with pytest.raises(DataError, match="May has a single observation from 2019"):
            fit_seasonal_shift(comp, 2019)
        with pytest.raises(RankDeficientError):
            fit_seasonal_shift(comp, 2020)
        again = fit_seasonal_shift(comp, 2018)
        np.testing.assert_array_equal(again.cov, first.cov)
        assert len(factor_calls) == 2   # 2018, then the rank-deficient 2020

    def test_alternating_layouts_keep_their_designs(self, factor_calls):
        """Each layout keeps its own design, so two live layouts fit in
        turn over six fits factor two designs."""
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        comps = [self.noisy(years, months, 9), self.noisy(years + 1, months, 10)]
        for i in range(6):
            self.fit_and_check(comps[i % 2], 2019)
        assert len(factor_calls) == 2

    def test_repeated_centred_fits_factor_once(self, factor_calls):
        """Panels of one layout get the centred rows of its memo, so the
        fits of their centred components share one design."""
        rng = np.random.default_rng(11)
        years = np.repeat(np.arange(2012, 2024), 12)
        months = np.tile(MONTHS, 12)
        for _ in range(3):
            values = 100.0 + SEASONAL[months - 1] + rng.standard_normal(years.size)
            panel = MonthlyPanel(years, months, values)
            self.fit_and_check(centered_mean_deviation(panel), 2019)
        assert len(factor_calls) == 1


class TestFactoredDesign:
    def test_factor_is_read_only(self):
        X = np.random.default_rng(32).standard_normal((9, 3))
        design = factor_design(np.vstack([X, X]), tested=np.array([2, 0]))
        assert design.q_rows.shape == (9, 3) and design.L.shape == (2, 9)
        for array in (design.q, design.q_rows, design.r_inv, design.L):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(ValueError):
            design.group[0] = 1


def assert_tails_match(got, ref):
    """rtol 1e-11 where the reference p is at least 1e-280, atol 1e-280
    below (subnormal and underflowing tails)."""
    got, ref = np.asarray(got), np.asarray(ref)
    deep = ref < 1e-280
    np.testing.assert_allclose(got[~deep], ref[~deep], rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(got[deep], ref[deep], rtol=0.0, atol=1e-280)


class TestTailProbabilities:
    """The in-repo F and t tails against ``scipy.special`` on every df the
    battery produces (Chow q = 12, joint F q = 11) and odd and even
    neighbours, from one residual degree of freedom to a 200-year panel."""

    DENOMINATOR_DF = (1, 2, 5, 10, 121, 132, 2376, 2388)
    F_GRID = np.r_[0.0, np.geomspace(1e-6, 1e3, 600), np.inf]

    @pytest.mark.parametrize("d1", [1, 2, 3, 11, 12, 24, 35])
    def test_f_tail_matches_fdtrc(self, d1):
        for d2 in self.DENOMINATOR_DF:
            got = [seastats._f_tail(d1, d2, F) for F in self.F_GRID.tolist()]
            assert_tails_match(got, special.fdtrc(d1, d2, self.F_GRID))

    @pytest.mark.parametrize("df", [1, 2, 5, 10, 121, 132, 2376])
    def test_t_tail_matches_stdtr(self, df):
        t = np.linspace(-40.0, 40.0, 1601)
        got = [seastats._t_tail(df, v) for v in t.tolist()]
        assert_tails_match(got, special.stdtr(df, -t))

    def test_edges_map_as_in_scipy(self):
        for d1, d2 in ((1, 1), (11, 132), (12, 2376)):
            assert seastats._f_tail(d1, d2, 0.0) == 1.0
            assert seastats._f_tail(d1, d2, np.inf) == 0.0
        for d2, F in ((0, 1.0), (-12, 1.0), (10, -1.0), (10, np.nan)):
            assert np.isnan(seastats._f_tail(12, d2, F))
        assert seastats._t_tail(132, 0.0) == 0.5
        assert np.isnan(seastats._t_tail(132, np.nan))

    def test_reports_match_scipy_on_a_fit(self):
        rng = np.random.default_rng(30)
        yearly = {y: SEASONAL + rng.standard_normal(12)
                  for y in range(2010, 2026)}
        comp = components_from(yearly)
        fit = fit_seasonal_shift(comp, 2021)
        joint, contrast = joint_F_test(fit), directional_contrast(fit)
        scan = chow_scan(comp, range(2013, 2024))
        assert joint.p_value == pytest.approx(
            special.fdtrc(11, fit.df_resid, joint.statistic), rel=1e-11)
        assert contrast.p_value == pytest.approx(
            special.stdtr(fit.df_resid, -contrast.statistic), rel=1e-11)
        np.testing.assert_allclose(
            [e.p_value for e in scan.entries],
            special.fdtrc(12, comp.deviations.size - 24,
                          [e.F for e in scan.entries]), rtol=1e-11)


class TestJointF:
    def test_noise_free_null_is_zero(self):
        comp = components_from({y: SEASONAL for y in range(2014, 2026)})
        rep = joint_F_test(fit_seasonal_shift(comp, 2021))
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_large_shift_small_noise_rejects(self):
        rng = np.random.default_rng(26)
        shift = np.zeros(12)
        shift[2], shift[5] = 3.0, -3.0
        yearly = {y: SEASONAL + (shift if y >= 2021 else 0.0)
                  + 0.2 * rng.standard_normal(12) for y in range(2010, 2026)}
        rep = joint_F_test(fit_seasonal_shift(components_from(yearly), 2021))
        assert rep.p_value < 0.001
        assert rep.df_numerator == 11

    def test_degrees_of_freedom(self):
        rng = np.random.default_rng(27)
        yearly = {y: SEASONAL + rng.standard_normal(12)
                  for y in range(2010, 2026)}
        fit = fit_seasonal_shift(components_from(yearly), 2021)
        rep = joint_F_test(fit)
        # const, 14 year effects (16 years less two baselines), post,
        # 11 month effects, 11 interactions
        n, k = 16 * 12, 1 + 14 + 1 + 11 + 11
        assert fit.n_obs == n and fit.df_resid == n - k
        assert rep.df_denominator == n - k


    def test_singular_covariance_uses_pseudo_inverse(self):
        V = np.diag([1.0] * 10 + [0.0])
        mu = np.r_[np.full(10, 0.5), 0.0]
        rep = joint_F_test(crafted_fit(mu, V))
        assert rep.statistic == pytest.approx(10 * 0.25 / 11, rel=1e-12)

    def test_interactions_outside_a_singular_covariance_rejected(self):
        V = np.diag([1.0] * 10 + [0.0])
        with pytest.raises(DomainError, match="not lie in its range"):
            joint_F_test(crafted_fit(np.full(11, 0.5), V))


class TestDirectionalContrast:
    @pytest.mark.parametrize("mu_first, rss, variance, t, p", [
        (0.0, 0.0, 1.0, 0.0, 0.5),
        (0.0, 1.0, 0.0, 0.0, 0.5),
        (0.3, 0.0, 1.0, np.inf, 0.0),
        (-0.3, 0.0, 1.0, -np.inf, 1.0),
    ], ids=["exact-zero", "no-variance-zero", "exact-positive",
            "exact-negative"])
    def test_degenerate_outcomes(self, mu_first, rss, variance, t, p):
        mu = np.r_[mu_first, np.zeros(10)]
        rep = directional_contrast(crafted_fit(mu, variance * np.eye(11), rss))
        assert (rep.statistic, rep.p_value) == (t, p)

    def test_zero_variance_with_nonzero_contrast_rejected(self):
        mu = np.r_[0.3, np.zeros(10)]
        with pytest.raises(DomainError, match="variance is zero"):
            directional_contrast(crafted_fit(mu, np.zeros((11, 11))))

    def test_symmetric_wobble_gives_exact_half(self):
        # Identical wobble in pre and post years: contrast 0, residuals not 0.
        wobble = np.zeros(12)
        wobble[0] = 1.0
        yearly = {}
        for y in range(2015, 2027):
            sign = 1.0 if y % 2 == 0 else -1.0
            yearly[y] = SEASONAL + sign * wobble
        fit = fit_seasonal_shift(components_from(yearly), 2021)
        rep = directional_contrast(fit)
        assert abs(rep.statistic) < 1e-9
        assert abs(rep.p_value - 0.5) < 1e-9

    def test_constructed_contrast_value(self):
        shift = np.zeros(12)
        shift[2], shift[8] = 2.0, -2.0   # +2 March, -2 September
        yearly = {y: SEASONAL + (shift if y >= 2021 else 0.0)
                  for y in range(2014, 2026)}
        fit = fit_seasonal_shift(components_from(yearly), 2021)
        mu = fit.mu
        contrast = mu[:6].mean() - mu[6:].mean()
        assert abs(contrast - 2.0 / 3.0) < 1e-9
        rep = directional_contrast(fit)
        assert rep.statistic > 0.0


class TestSeasonalDelta:
    def test_identical_periods_give_zeros(self):
        comp = components_from({y: SEASONAL for y in range(2014, 2026)})
        d = seasonal_delta(comp, 2021)
        assert list(d) == list(SEASONS)
        assert max(abs(x) for x in d.values()) < 1e-12

    def test_unit_spring_shift(self):
        shift = np.zeros(12)
        shift[2:5] = 1.0
        yearly = {y: SEASONAL + (shift if y >= 2021 else 0.0)
                  for y in range(2014, 2026)}
        d = seasonal_delta(components_from(yearly), 2021)
        assert abs(d["spring"] - 1.0) < 1e-12
        assert abs(d["winter"]) < 1e-12

    def test_empty_side_rejected(self):
        comp = components_from({y: SEASONAL for y in range(2014, 2020)})
        with pytest.raises(DataError):
            seasonal_delta(comp, 2021)

    def test_replaced_years_get_their_own_layout(self):
        """``dataclasses.replace`` with new years does not keep the old
        years' layout: the deltas and the scan are those of components
        built from the new years."""
        rng = np.random.default_rng(36)
        comp = components_from({y: SEASONAL + rng.standard_normal(12)
                                for y in range(2010, 2020)})
        seasonal_delta(comp, 2015)
        moved = dataclasses.replace(comp, years=comp.years + 5)
        fresh = SeasonalComponents(years=comp.years + 5, months=comp.months,
                                   deviations=comp.deviations)
        assert moved.layout.first == 2015
        assert seasonal_delta(moved, 2020) == seasonal_delta(fresh, 2020)
        assert chow_scan(moved, range(2016, 2024)) == chow_scan(fresh, range(2016, 2024))


class TestChowScan:
    def test_stable_profile_no_noise_gives_zero(self):
        comp = components_from({y: SEASONAL for y in range(2010, 2026)})
        scan = chow_scan(comp, range(2013, 2024))
        assert all(e.F == 0.0 for e in scan.entries)

    @pytest.mark.parametrize("amplitude", [-1.0, 0.5, 1.7, 2.0, 3.0, 5.0])
    def test_noise_free_break_gives_infinite_F_only_at_the_break(
            self, amplitude):
        yearly = {y: SEASONAL * (amplitude if y >= 2021 else 1.0)
                  for y in range(2013, 2026)}
        scan = chow_scan(components_from(yearly), range(2016, 2024))
        F = {e.year: e.F for e in scan.entries}
        assert F.pop(2021) == np.inf
        assert all(0.0 < f < np.inf for f in F.values())

    def test_argmax_at_constructed_break(self):
        rng = np.random.default_rng(28)
        yearly = {y: SEASONAL * (3.0 if y >= 2019 else 1.0)
                  + 0.3 * rng.standard_normal(12) for y in range(2010, 2026)}
        scan = chow_scan(components_from(yearly), range(2014, 2024))
        assert scan.best().year == 2019

    def test_nesting_inequality(self):
        rng = np.random.default_rng(29)
        yearly = {y: SEASONAL + rng.standard_normal(12)
                  for y in range(2010, 2026)}
        scan = chow_scan(components_from(yearly), range(2013, 2024))
        assert all(e.F >= 0.0 for e in scan.entries)
        assert all(0.0 <= e.p_value <= 1.0 for e in scan.entries)

    def test_panel_shorter_than_two_profiles_is_all_skipped(self):
        """With n < 24 the Chow denominator has no degrees of freedom; no
        candidate is kept, and no p-value is computed for one."""
        rng = np.random.default_rng(31)
        comp = SeasonalComponents(
            years=np.repeat([2019, 2020], [8, 12]),
            months=np.r_[np.arange(5, 13), MONTHS],
            deviations=rng.standard_normal(20))
        scan = chow_scan(comp, range(2018, 2023))
        assert scan.entries == ()
        assert [y for y, _ in scan.skipped] == list(range(2018, 2023))

    def test_no_residual_degrees_of_freedom_is_skipped(self):
        """On n = 20 rows the unrestricted model's 24 parameters leave no
        residual degrees of freedom, whatever ``min_side_obs`` allows."""
        rng = np.random.default_rng(31)
        comp = SeasonalComponents(
            years=np.repeat([2019, 2020], [8, 12]),
            months=np.r_[np.arange(5, 13), MONTHS],
            deviations=rng.standard_normal(20))
        scan = chow_scan(comp, [2020], min_side_obs=1)
        assert scan.entries == ()
        assert scan.skipped == ((2020, "no residual degrees of freedom "
                                       "(20 observations for 24 parameters)"),)

    def test_thin_sides_skipped_with_note(self):
        comp = components_from({y: SEASONAL for y in range(2010, 2016)})
        scan = chow_scan(comp, [2011, 2013])
        skipped_years = [y for y, _ in scan.skipped]
        assert 2011 in skipped_years
        assert all("observations" in note for _, note in scan.skipped)

    def test_skip_note_prints_min_side_obs_as_given(self):
        """The note of a skipped candidate prints ``min_side_obs`` as it
        was passed, also when an equal value of another type came first."""
        comp = components_from({y: SEASONAL for y in range(2010, 2016)})
        notes = [chow_scan(comp, [2011], side).skipped[0][1] for side in (24, 24.0)]
        assert notes == ["only 12 observations on one side (need 24)",
                         "only 12 observations on one side (need 24.0)"]
