"""CSV ingestion, deflation, writers, fixture integrity."""

import hashlib
import json

import numpy as np
import pytest

from thickmarket.dataio import (
    RawSeries,
    deflate_and_index,
    equilibrium_to_dict,
    read_monthly_csv,
    read_shares_csv,
    to_panel,
    write_results,
)
from thickmarket.errors import DataError
from thickmarket.fixtures import SIPP_POST_RAW, SIPP_PRE_RAW


def write_csv(path, rows, header="date,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def month_range(start, end):
    """Inclusive (year, month) range."""
    out = []
    y, m = start
    while (y, m) <= end:
        out.append((y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


class TestReadMonthlyCsv:
    def test_two_rows(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01,100", "2019-02,101"])
        series = read_monthly_csv(p)
        assert series.n_obs == 2
        assert series.dates == ((2019, 1), (2019, 2))
        assert series.values.tolist() == [100.0, 101.0]

    def test_duplicate_month_named(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01,100", "2019-01,101"])
        with pytest.raises(DataError, match="2019-01"):
            read_monthly_csv(p)

    def test_full_sample_span(self, tmp_path):
        dates = month_range((2008, 2), (2025, 6))
        rows = [f"{y}-{m:02d},{100 + i}" for i, (y, m) in enumerate(dates)]
        series = read_monthly_csv(write_csv(tmp_path / "s.csv", rows))
        assert series.n_obs == 209
        assert (series.dates[0], series.dates[-1]) == ((2008, 2), (2025, 6))

    def test_day_field_truncated(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01-31,100", "2019-02-28,101"])
        assert read_monthly_csv(p).dates == ((2019, 1), (2019, 2))

    def test_parse_error_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01,100", "201901,101"])
        with pytest.raises(DataError, match="line 3"):
            read_monthly_csv(p)

    def test_bad_value_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01,abc"])
        with pytest.raises(DataError, match="line 2"):
            read_monthly_csv(p)

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01,1"], header="month,price")
        with pytest.raises(DataError, match="lacks column"):
            read_monthly_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_monthly_csv(tmp_path / "absent.csv")

    def test_unsorted_input_is_sorted(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-03,3", "2019-01,1", "2019-02,2"])
        series = read_monthly_csv(p)
        assert series.values.tolist() == [1.0, 2.0, 3.0]

    def test_custom_columns(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01,9.5"], header="period,price")
        series = read_monthly_csv(p, value_column="price", date_column="period")
        assert series.values.tolist() == [9.5]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, bad):
        p = write_csv(tmp_path / "s.csv", ["2019-01,100", f"2019-02,{bad}"])
        with pytest.raises(DataError, match="line 3: non-finite value"):
            read_monthly_csv(p)


class TestReadSharesCsv:
    def test_month_names(self, tmp_path):
        rows = [f"{name},{i + 1}" for i, name in enumerate(
            ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
             "Oct", "Nov", "Dec"])]
        shares = read_shares_csv(write_csv(tmp_path / "m.csv", rows,
                                           header="month,share"))
        assert abs(shares.shares.values.sum() - 1.0) < 1e-12
        assert shares.shares.at(12) == 12.0 / 78.0

    def test_numeric_months(self, tmp_path):
        rows = [f"{m},1" for m in range(1, 13)]
        shares = read_shares_csv(write_csv(tmp_path / "m.csv", rows,
                                           header="month,share"))
        assert np.allclose(shares.shares.values, 1.0 / 12.0)

    def test_missing_month_rejected(self, tmp_path):
        rows = [f"{m},1" for m in range(1, 12)]
        with pytest.raises(DataError, match="missing"):
            read_shares_csv(write_csv(tmp_path / "m.csv", rows,
                                      header="month,share"))

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_share_names_month_and_file(
            self, tmp_path, bad):
        rows = [f"{m},{bad if m == 3 else 1}" for m in range(1, 13)]
        path = write_csv(tmp_path / "m.csv", rows, header="month,share")
        with pytest.raises(DataError) as err:
            read_shares_csv(path)
        message = str(err.value)
        assert "line 4" in message and "Mar" in message and str(path) in message


class TestDeflation:
    def _series(self, dates, values):
        return RawSeries(dates=tuple(dates), values=np.asarray(values, float))

    def test_self_deflation_is_flat_100(self):
        dates = month_range((2019, 1), (2019, 12))
        vals = np.linspace(90, 130, 12)
        out = deflate_and_index(self._series(dates, vals),
                                self._series(dates, vals), 2019)
        assert np.abs(out.values - 100.0).max() < 1e-12

    def test_constant_ratio(self):
        dates = month_range((2019, 1), (2019, 12))
        out = deflate_and_index(self._series(dates, [4.0] * 12),
                                self._series(dates, [2.0] * 12), 2019)
        assert np.abs(out.values - 100.0).max() < 1e-12

    def test_known_inflation_path(self):
        dates = month_range((2018, 1), (2020, 12))
        t = np.arange(36)
        nominal = 100.0 * 1.002 ** t
        cpi = 1.0 * 1.001 ** t
        out = deflate_and_index(self._series(dates, nominal),
                                self._series(dates, cpi), 2019)
        real = nominal / cpi
        base = real[12:24].mean()
        assert np.abs(out.values - 100.0 * real / base).max() < 1e-9

    def test_coverage_error(self):
        n_dates = month_range((2019, 1), (2019, 12))
        c_dates = month_range((2019, 1), (2019, 11))
        with pytest.raises(DataError, match="cover"):
            deflate_and_index(self._series(n_dates, np.ones(12)),
                              self._series(c_dates, np.ones(11)), 2019)

    def test_zero_deflator_error(self):
        dates = month_range((2019, 1), (2019, 12))
        cpi = np.ones(12)
        cpi[5] = 0.0
        with pytest.raises(DataError, match="zero"):
            deflate_and_index(self._series(dates, np.ones(12)),
                              self._series(dates, cpi), 2019)

    def test_incomplete_base_year_error(self):
        dates = month_range((2019, 2), (2019, 12))
        with pytest.raises(DataError, match="base year"):
            deflate_and_index(self._series(dates, np.ones(11)),
                              self._series(dates, np.ones(11)), 2019)


class TestToPanel:
    def test_one_complete_year(self):
        dates = month_range((2020, 1), (2020, 12))
        panel = to_panel(RawSeries(dates=tuple(dates), values=np.arange(12.0)))
        assert panel.months_per_year() == {2020: 12}

    def test_partial_edge_years_flagged(self):
        dates = month_range((2008, 2), (2025, 6))
        panel = to_panel(RawSeries(dates=tuple(dates),
                                   values=np.arange(float(len(dates)))))
        counts = panel.months_per_year()
        assert sorted(y for y, c in counts.items() if c < 12) == [2008, 2025]
        assert (counts[2008], counts[2025]) == (11, 6)

    def test_empty_series(self):
        panel = to_panel(RawSeries(dates=(), values=np.array([])))
        assert panel.n_obs == 0


class TestWriters:
    def test_identical_runs_are_byte_identical(self, tmp_path, pre_params):
        from thickmarket import SolverConfig, solve_equilibrium
        sol = solve_equilibrium(pre_params, SolverConfig())
        a = write_results(equilibrium_to_dict(sol, u=pre_params.u),
                          tmp_path / "a.json")
        b = write_results(equilibrium_to_dict(sol, u=pre_params.u),
                          tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_equilibrium_schema(self, tmp_path, pre_params):
        from thickmarket import SolverConfig, solve_equilibrium
        sol = solve_equilibrium(pre_params, SolverConfig())
        path = write_results(equilibrium_to_dict(sol, u=pre_params.u),
                             tmp_path / "sol.json")
        doc = json.loads(path.read_text())
        for key in ("X", "v", "epsilon", "Q", "P"):
            assert len(doc[key]) == 12
        assert isinstance(doc["iterations"], int)
        assert doc["residual"] < 1e-5

    def test_json_six_significant_digits(self, tmp_path):
        path = write_results({"x": 0.12345678901234}, tmp_path / "r.json")
        assert json.loads(path.read_text())["x"] == 0.123457

    def test_full_precision_round_trip(self, tmp_path):
        values = {"x": 0.1 + 0.2, "y": [1.0 / 3.0, 2.0 / 7.0]}
        path = write_results(values, tmp_path / "r.json", full_precision=True)
        assert json.loads(path.read_text()) == values

    def test_panel_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        dates = month_range((2015, 1), (2017, 12))
        values = rng.standard_normal(len(dates)) * 100
        rows = [[f"{y}-{m:02d}", v] for (y, m), v in zip(dates, values.tolist())]
        path = write_results({"columns": ["date", "value"], "rows": rows},
                             tmp_path / "panel.csv", format="csv",
                             full_precision=True)
        back = read_monthly_csv(path)
        assert back.dates == tuple(dates)
        assert np.array_equal(back.values, values)

    def test_table_format_aligns(self, tmp_path):
        path = write_results({"columns": ["a", "bb"], "rows": [[1, 2.5]]},
                             tmp_path / "t.txt", format="table")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["a", "bb"]


class TestFixtureIntegrity:
    def test_published_columns_digit_for_digit(self):
        # Checksums of the printed percent columns, frozen at packaging time.
        pre = ",".join(f"{x:.1f}" for x in SIPP_PRE_RAW)
        post = ",".join(f"{x:.1f}" for x in SIPP_POST_RAW)
        assert hashlib.sha256(pre.encode()).hexdigest() == (
            "b6d59e9606a614381797b5051595189e2a3f06eec95a3a34d585b14dbb69d658")
        assert hashlib.sha256(post.encode()).hexdigest() == (
            "f592d296fe45b10ced4df6fb1ef284237df17a406bfa12ef410fd89687f3615f")
        assert abs(sum(SIPP_PRE_RAW) - 99.9) < 1e-12
        assert abs(sum(SIPP_POST_RAW) - 100.1) < 1e-12
