"""CSV ingestion, deflation, writers, fixture integrity."""

import csv
import hashlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickmarket.dataio import (
    RawSeries,
    deflate_and_index,
    equilibrium_to_dict,
    hazards_to_dict,
    naming,
    read_equilibrium_json,
    read_hazards_json,
    read_monthly_csv,
    read_shares_csv,
    to_panel,
    write_in_place,
    write_results,
)
from thickmarket.calibrate import solve_kappa
from thickmarket.core import HazardProfile
from thickmarket.errors import DataError, DomainError, RankDeficientError
from thickmarket.fixtures import SIPP_POST_RAW, SIPP_PRE_RAW, shares_fixture


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


def series(dates, values):
    """A RawSeries of (year, month) pairs, keyed 12*year + month - 1."""
    keys = np.array([12 * y + m - 1 for y, m in dates], dtype=np.int64)
    return RawSeries(keys=keys, values=np.asarray(values, float))


class TestReadMonthlyCsv:
    def test_two_rows(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01,100", "2019-02,101"])
        series = read_monthly_csv(p)
        assert series.values.size == 2
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
        assert series.values.size == 209
        assert (series.dates[0], series.dates[-1]) == ((2008, 2), (2025, 6))

    def test_day_field_truncated(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-01-31,100", "2019-02-28,101"])
        assert read_monthly_csv(p).dates == ((2019, 1), (2019, 2))

    @pytest.mark.parametrize("date", ["0-01", "10000-01"])
    def test_year_out_of_range_reports_line(self, tmp_path, date):
        p = write_csv(tmp_path / "s.csv", ["2019-01,100", f"{date},101"])
        with pytest.raises(DataError, match="line 3: year .* out of range"):
            read_monthly_csv(p)

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

    def test_blank_or_absent_value_skips_the_month(self, tmp_path):
        p = write_csv(tmp_path / "s.csv",
                      ["2019-01,100", "2019-02,", "2019-03, ", "2019-04",
                       "2019-05,104"])
        series = read_monthly_csv(p)
        assert series.dates == ((2019, 1), (2019, 5))
        assert series.values.tolist() == [100.0, 104.0]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(DataError, match="s.csv: empty file"):
            read_monthly_csv(p)

    def test_month_13_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["2019-12,100", "2019-13,101"])
        with pytest.raises(DataError, match="line 3: month 13 out of range"):
            read_monthly_csv(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, bad):
        p = write_csv(tmp_path / "s.csv", ["2019-01,100", f"2019-02,{bad}"])
        with pytest.raises(DataError, match="line 3: non-finite value"):
            read_monthly_csv(p)

    def test_row_without_a_date_cell_is_named(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value,date\n100,2019-01\n101\n")
        pattern = (f"^{re.escape(str(p))}: line 3: cannot parse date '' "
                   r"\(expected YYYY-MM or YYYY-MM-DD\)$")
        with pytest.raises(DataError, match=pattern):
            read_monthly_csv(p)

    def test_errors_name_the_physical_line_after_blank_lines(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text('date,value\n2019-01,1\n\n2019-02,"2\n"\n2019-13,2\n')
        with pytest.raises(DataError, match="line 6: month 13 out of range"):
            read_monthly_csv(p)


def dictreader_series(path, value_column="value", date_column="date"):
    """``read_monthly_csv`` restated on ``csv.DictReader`` and a sort of
    (date, value) pairs: a missing cell reads as empty and an error names
    the physical line a row ends on. Returns (dates, values)."""
    rows = []
    with naming(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise DataError("empty file, expected a CSV header")
        missing = {date_column, value_column} - set(reader.fieldnames)
        if missing:
            raise DataError(f"header lacks column(s) {sorted(missing)}; "
                            f"found {reader.fieldnames}")
        for row in reader:
            line, text = reader.reader.line_num, row[date_column]
            parts = text.strip().split("-")
            if len(parts) not in (2, 3):
                raise DataError(f"line {line}: cannot parse date '{text}' "
                                "(expected YYYY-MM or YYYY-MM-DD)")
            try:
                year, month = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"line {line}: cannot parse date '{text}'") from None
            if not 1 <= month <= 12:
                raise DataError(f"line {line}: month {month} out of range in '{text}'")
            if not 1 <= year <= 9999:
                raise DataError(f"line {line}: year {year} out of range in '{text}'")
            raw = row[value_column].strip()
            if raw == "":
                continue
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"line {line}: cannot parse value "
                                f"'{row[value_column]}'") from None
            if not math.isfinite(value):
                raise DataError(f"line {line}: non-finite value '{raw}'")
            rows.append(((year, month), value))
        rows.sort(key=lambda r: r[0])
        for (prev, _), (cur, _) in zip(rows, rows[1:]):
            if cur == prev:
                raise DataError(f"duplicate observation for {cur[0]}-{cur[1]:02d}")
    return tuple(d for d, _ in rows), [v for _, v in rows]


VALID_DATES = st.builds("{}-{:02d}{}".format, st.integers(2018, 2019),
                        st.integers(1, 12), st.sampled_from(["", "-01", "-28"]))
VALID_VALUES = st.sampled_from(["", " "]) | st.floats(-1e3, 1e3).map(repr)
DATE_CELLS = VALID_DATES | st.sampled_from(
    ["", " ", "2019", "2019-13", "0-01", "x-01", " 2019-02 ", "2019-1-1-1",
     "2019-03\n", "2019,04"])
VALUE_CELLS = VALID_VALUES | st.sampled_from(
    ["abc", "nan", "-inf", " 7 ", "1,5", "2\n", '"3"'])


@st.composite
def monthly_csvs(draw):
    """CSV text and its date and value column names. Half the documents
    draw only valid dates and blank or finite values; one in ten lacks a
    column, one row in five is cut short or runs long."""
    date_column, value_column = draw(st.sampled_from(
        [("date", "value"), ("period", "price")]))
    extra = draw(st.lists(st.sampled_from(["note", date_column, value_column]),
                          max_size=2))
    header = draw(st.permutations([date_column, value_column] + extra))
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from([date_column, value_column])))
    clean = draw(st.booleans())
    dates, values = (VALID_DATES, VALID_VALUES) if clean else (DATE_CELLS,
                                                               VALUE_CELLS)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(dates) if name == date_column else
                 draw(values) if name == value_column else "n" for name in header]
        if draw(st.integers(0, 4)) == 0:
            cells = (cells + ["extra"])[:draw(st.integers(0, len(cells) + 1))]
        rows.append(cells)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=draw(
        st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue(), date_column, value_column


def outcome(read, path, value_column, date_column):
    """(dates, values) of a read, or the message of its DataError."""
    try:
        result = read(path, value_column=value_column, date_column=date_column)
    except DataError as exc:
        return str(exc)
    if isinstance(result, RawSeries):   # the restatement returns the pair
        result = result.dates, result.values.tolist()
    return result


class TestReaderRestatement:
    def test_reader_matches_dictreader_restatement(self, tmp_path):
        """Blank lines, quoted cells, short and long rows, unsorted and
        repeated dates, custom and repeated column names and blank values
        give the same series or the same error message; both outcomes
        occur often."""
        path, seen = tmp_path / "restated.csv", {str: 0, tuple: 0}

        @settings(derandomize=True, max_examples=150, deadline=None)
        @given(document=monthly_csvs())
        def check(document):
            text, date_column, value_column = document
            path.write_text(text)
            args = (path, value_column, date_column)
            result = outcome(read_monthly_csv, *args)
            assert result == outcome(dictreader_series, *args)
            seen[type(result)] += 1

        check()
        assert min(seen.values()) >= 30, seen

    def test_every_feature_in_one_document(self, tmp_path):
        """A repeated column means its last occurrence; a blank line, a
        short row and a blank value drop out; quoted cells and long rows
        read as written; the rows come back sorted."""
        path = tmp_path / "s.csv"
        path.write_text('period,price,note,price\n2019-02,9,n,"1.5"\n\n'
                        '2018-12,1,n\n"2019-01-28",x,n,2,extra\n'
                        '2019-03,,n," 4 "\n')
        args = (path, "price", "period")
        assert outcome(read_monthly_csv, *args) == outcome(dictreader_series, *args) \
            == (((2019, 1), (2019, 2), (2019, 3)), [2.0, 1.5, 4.0])


class TestReadSharesCsv:
    def test_month_names(self, tmp_path):
        rows = [f"{name},{i + 1}" for i, name in enumerate(
            ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
             "Oct", "Nov", "Dec"])]
        shares = read_shares_csv(write_csv(tmp_path / "m.csv", rows,
                                           header="month,share"))
        assert abs(shares.shares.values.sum() - 1.0) < 1e-12
        assert shares.shares.values[11] == 12.0 / 78.0

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


    @pytest.mark.parametrize("rows, message", [
        (["1,1", "Foo,1"], "line 3: unknown month 'Foo'"),
        (["1,1", "13,1"], "line 3: unknown month '13'"),
        (["Jan,1", "1,1"], "line 3: duplicate month '1'"),
        (["1,1", "2,abc"], "line 3: cannot parse share 'abc'"),
    ], ids=["unknown-name", "month-13", "repeated", "unparsable"])
    def test_bad_row_names_line_and_file(self, tmp_path, rows, message):
        path = write_csv(tmp_path / "m.csv", rows, header="month,share")
        pattern = f"^{re.escape(str(path))}: {message}$"
        with pytest.raises(DataError, match=pattern):
            read_shares_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("month,share\n1,1\n\n13,1\n", "line 4: unknown month '13'"),
        ("month,share\n\n\n1,1\n2\n", "line 5: cannot parse share 'None'"),
        ("share,month\n1,1\n1\n", "line 3: unknown month 'None'"),
        ("month,share,month\n1,1\n", "line 2: unknown month 'None'"),
    ], ids=["after-blank-line", "short-row", "no-month-cell", "last-month-column"])
    def test_errors_name_the_physical_line(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}$"):
            read_shares_csv(path)


class TestNaming:
    def test_missing_file_becomes_data_error(self, tmp_path):
        path = tmp_path / "absent.csv"
        pattern = f"^no such file: {re.escape(str(path))}$"
        with pytest.raises(DataError, match=pattern):
            with naming(path):
                path.read_text()

    @pytest.mark.parametrize("error", [DataError, DomainError,
                                       RankDeficientError])
    def test_input_error_keeps_its_type(self, error):
        with pytest.raises(error, match="^A deflated by B: bad$") as info:
            with naming("A deflated by B"):
                raise error("bad")
        assert type(info.value) is error

    @pytest.mark.parametrize("reader", [read_monthly_csv, read_shares_csv])
    def test_text_that_is_not_utf8_names_file_and_byte(self, tmp_path, reader):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"date,value\n2019-01,1\xff\n")
        pattern = f"^{re.escape(str(path))}: not UTF-8 text \\(byte 0xff"
        with pytest.raises(DataError, match=pattern):
            reader(path)

    def test_other_errors_pass_unchanged(self):
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            with naming("f.csv"):
                raise ZeroDivisionError("boom")


class TestReadArraysJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_hazards_json(tmp_path / "absent.json")

    def test_document_without_survival(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"hazard": [0.01] * 12}))
        with pytest.raises(DataError, match=r"lacks arrays \['survival'\]"):
            read_hazards_json(path)

    @pytest.mark.parametrize("survival", [
        [0.99] * 11 + [float("nan")], [0.99] * 11 + [float("inf")], 0.99, [],
        [[0.99] * 12], [0.99] * 11 + ["abc"]],
        ids=["nan", "inf", "scalar", "empty", "nested", "text"])
    def test_survival_must_be_finite_vector(self, tmp_path, survival):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"survival": survival}))
        pattern = f"^{re.escape(str(path))}: 'survival' must be"
        with pytest.raises(DataError, match=pattern):
            read_hazards_json(path)

    def test_snapshot_arrays_come_back_as_vectors(self, tmp_path):
        path = tmp_path / "s.json"
        doc = {key: [1.0, 2.0] * 6 for key in ("X", "v", "epsilon", "Q", "P")}
        path.write_text(json.dumps({**doc, "v": [3.0] * 12, "u": 0.5}))
        X, v = read_equilibrium_json(path)
        assert X.dtype == float and v.dtype == float
        assert X.tolist() == [1.0, 2.0] * 6 and v.tolist() == [3.0] * 12

    @pytest.mark.parametrize("key, size", [("Q", 13), ("epsilon", 11),
                                           ("X", 2)])
    def test_every_snapshot_array_holds_12_values(self, tmp_path, key, size):
        path = tmp_path / "s.json"
        doc = {k: [1.0] * 12 for k in ("X", "v", "epsilon", "Q", "P")}
        path.write_text(json.dumps({**doc, key: [1.0] * size}))
        pattern = f"^{re.escape(str(path))}: '{key}' must be an array of 12"
        with pytest.raises(DataError, match=pattern):
            read_equilibrium_json(path)

    def test_hazards_round_trip(self, tmp_path):
        shares, eta = shares_fixture("sipp-pre")
        kappa = solve_kappa(shares, eta)
        profile = HazardProfile.from_hazard(kappa * shares.shares.values)
        path = write_results(hazards_to_dict(profile, kappa, eta, shares, "x"),
                             tmp_path / "hazards.json", full_precision=True)
        back, eta_back = read_hazards_json(path)
        assert back.survival.values.tolist() == profile.survival.values.tolist()
        assert eta_back == eta
        doc = json.loads(path.read_text())
        assert doc["source"] == "x" and doc["kappa"] == kappa
        assert doc["shares"] == shares.shares.values.tolist()

    def test_hazards_without_eta(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"survival": [0.99] * 12}))
        profile, eta = read_hazards_json(path)
        assert eta is None and profile.survival.values.tolist() == [0.99] * 12

    @staticmethod
    def calibrated_document():
        shares, eta = shares_fixture("sipp-pre")
        kappa = solve_kappa(shares, eta)
        profile = HazardProfile.from_hazard(kappa * shares.shares.values)
        return hazards_to_dict(profile, kappa, eta, shares, "x")

    def test_restated_keys_of_a_calibrated_document_agree(self, tmp_path):
        path = tmp_path / "h.json"
        doc = self.calibrated_document()
        for absent in (None, "hazard", "eta", "kappa", "shares"):
            path.write_text(json.dumps({k: doc[k] for k in doc if k != absent}))
            assert read_hazards_json(path)[0].survival.values.tolist() == \
                doc["survival"]

    @pytest.mark.parametrize("key, value, named", [
        ("hazard", lambda d: [h + 2e-12 for h in d["hazard"]], "'hazard'"),
        ("eta", lambda d: d["eta"] + 2e-12, "'eta'"),
        ("kappa", lambda d: d["kappa"] * (1 + 1e-9), "'kappa' * 'shares'"),
        ("shares", lambda d: d["shares"][1:] + d["shares"][:1],
         "'kappa' * 'shares'"),
        ("kappa", lambda d: "abc", "'kappa' must be a number"),
        ("hazard", lambda d: d["hazard"][:11], "'hazard' must be an array"),
    ], ids=["hazard", "eta", "kappa", "shares", "kappa-text", "hazard-short"])
    def test_restated_key_that_disagrees_is_named(self, tmp_path, key, value,
                                                  named):
        path = tmp_path / "h.json"
        doc = self.calibrated_document()
        path.write_text(json.dumps({**doc, key: value(doc)}))
        pattern = f"^{re.escape(str(path))}: {re.escape(named)}"
        with pytest.raises(DataError, match=pattern):
            read_hazards_json(path)

    @pytest.mark.parametrize("eta", ["abc", 1.5, True, 0.0, None, [0.1]])
    def test_eta_must_be_a_number_in_the_unit_interval(self, tmp_path, eta):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"survival": [0.99] * 12, "eta": eta}))
        pattern = f"^{re.escape(str(path))}: 'eta' must be a number in"
        with pytest.raises(DataError, match=pattern):
            read_hazards_json(path)


class TestDeflation:
    def _series(self, dates, values):
        return series(dates, values)

    def test_self_deflation_is_flat_one(self):
        dates = month_range((2019, 1), (2019, 12))
        vals = np.linspace(90, 130, 12)
        out = deflate_and_index(self._series(dates, vals),
                                self._series(dates, vals))
        assert out.values.tolist() == [1.0] * 12

    def test_constant_ratio(self):
        dates = month_range((2019, 1), (2019, 12))
        out = deflate_and_index(self._series(dates, [4.0] * 12),
                                self._series(dates, [2.0] * 12))
        assert out.values.tolist() == [2.0] * 12

    def test_known_inflation_path(self):
        dates = month_range((2018, 1), (2020, 12))
        t = np.arange(36)
        nominal = 100.0 * 1.002 ** t
        cpi = 1.0 * 1.001 ** t
        out = deflate_and_index(self._series(dates, nominal),
                                self._series(dates, cpi))
        assert np.array_equal(out.values, nominal / cpi)

    def test_no_base_year_leaves_deflated_values(self):
        dates = month_range((2018, 1), (2018, 6))
        out = deflate_and_index(self._series(dates, [4.0, 6.0] * 3),
                                self._series(dates, [2.0] * 6))
        assert out.values.tolist() == [2.0, 3.0] * 3

    def test_coverage_error(self):
        n_dates = month_range((2019, 1), (2019, 12))
        c_dates = month_range((2019, 1), (2019, 11))
        with pytest.raises(DataError, match="cover"):
            deflate_and_index(self._series(n_dates, np.ones(12)),
                              self._series(c_dates, np.ones(11)))

    def test_zero_deflator_error(self):
        dates = month_range((2019, 1), (2019, 12))
        cpi = np.ones(12)
        cpi[5] = 0.0
        with pytest.raises(DataError, match="zero"):
            deflate_and_index(self._series(dates, np.ones(12)),
                              self._series(dates, cpi))


    @pytest.mark.parametrize("gap, zero, message", [
        ((2019, 9), (2019, 4), "deflator is zero at 2019-04"),
        ((2019, 3), (2019, 9), "deflator does not cover 2019-03"),
        (None, (2019, 12), "deflator is zero at 2019-12"),
        ((2019, 1), None, "deflator does not cover 2019-01"),
    ])
    def test_first_bad_month_in_date_order_is_named(self, gap, zero, message):
        dates = month_range((2019, 1), (2019, 12))
        cpi = {d: 0.0 if d == zero else 2.0
               for d in month_range((2018, 6), (2020, 6)) if d != gap}
        with pytest.raises(DataError, match=f"^{message}$"):
            deflate_and_index(series(dates, np.ones(12)),
                              series(cpi.keys(), list(cpi.values())))

    def test_empty_deflator_covers_nothing(self):
        with pytest.raises(DataError, match="^deflator does not cover 2019-01$"):
            deflate_and_index(series([(2019, 1)], [1.0]), series((), []))


class TestRawSeries:
    @pytest.mark.parametrize("dates, message", [
        ([(2019, 1), (2019, 3), (2019, 3)], "^duplicate observation for 2019-03$"),
        ([(2019, 3), (2019, 1)],
         r"^dates must be strictly increasing; \(2019, 1\) follows \(2019, 3\)$"),
    ])
    def test_dates_must_rise(self, dates, message):
        with pytest.raises(DataError, match=message):
            series(dates, np.ones(len(dates)))

    def test_dates_and_values_must_pair(self):
        with pytest.raises(DataError, match="equal length"):
            series([(2019, 1)], [1.0, 2.0])


class TestToPanel:
    def test_one_complete_year(self):
        dates = month_range((2020, 1), (2020, 12))
        panel = to_panel(series(dates, np.arange(12.0)))
        years, counts = np.unique(panel.years, return_counts=True)
        assert (years.tolist(), counts.tolist()) == ([2020], [12])

    def test_partial_edge_years_flagged(self):
        dates = month_range((2008, 2), (2025, 6))
        panel = to_panel(series(dates, np.arange(float(len(dates)))))
        years, n = np.unique(panel.years, return_counts=True)
        counts = dict(zip(years.tolist(), n.tolist()))
        assert sorted(y for y, c in counts.items() if c < 12) == [2008, 2025]
        assert (counts[2008], counts[2025]) == (11, 6)

    def test_empty_series(self):
        panel = to_panel(series((), []))
        assert panel.years.size == 0


class TestWriters:
    def test_identical_runs_are_byte_identical(self, tmp_path, pre_params):
        from thickmarket import SolverConfig, solve_equilibrium
        sol = solve_equilibrium(pre_params, SolverConfig())
        a = write_results(equilibrium_to_dict(sol, "x", 0.1), tmp_path / "a.json")
        b = write_results(equilibrium_to_dict(sol, "x", 0.1), tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_equilibrium_schema(self, tmp_path, pre_params):
        from thickmarket import SolverConfig, solve_equilibrium
        sol = solve_equilibrium(pre_params, SolverConfig())
        path = write_results(equilibrium_to_dict(sol, "x"), tmp_path / "sol.json")
        doc = json.loads(path.read_text())
        assert doc["source"] == "x" and "eta" not in doc
        for key in ("X", "v", "epsilon", "Q", "P"):
            assert len(doc[key]) == 12
        assert isinstance(doc["iterations"], int)
        assert doc["residual"] < 1e-5
        assert doc["u"] == pre_params.u

    def test_json_six_significant_digits(self, tmp_path):
        path = write_results({"x": 0.12345678901234}, tmp_path / "r.json")
        assert json.loads(path.read_text())["x"] == 0.123457

    def test_non_finite_floats_become_null_and_inf_strings(self, tmp_path):
        doc = {"nan": float("nan"), "inf": [float("inf"), -float("inf")],
               "n": 3, "np": [np.float64("nan"), np.float64("-inf"),
                              np.float64(0.12345678)]}
        path = write_results(doc, tmp_path / "r.json")
        assert json.loads(path.read_text()) == {
            "nan": None, "inf": ["inf", "-inf"], "n": 3,
            "np": [None, "-inf", 0.123457]}

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
                             tmp_path / "panel.csv", full_precision=True)
        back = read_monthly_csv(path)
        assert back.dates == tuple(dates)
        assert np.array_equal(back.values, values)

    def test_table_format_aligns(self, tmp_path):
        path = write_results({"columns": ["a", "bb"], "rows": [[1, 2.5]]},
                             tmp_path / "t.txt")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["a", "bb"]

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(DataError, match="suffix must be .json, .csv or .txt"):
            write_results({"x": 1.0}, tmp_path / "r.yaml")
        assert not (tmp_path / "r.yaml").exists()


class TestWriteInPlace:
    """Outputs are rewritten in place, then cut to length, not truncated
    at open; the bytes are those ``Path.write_text`` wrote."""

    TEXTS = ["", "a\n", '{\n  "source": "Zürich – 2021"\n}\n', "x" * 70_000]

    @pytest.mark.parametrize("text", TEXTS, ids=["empty", "line", "utf8", "large"])
    def test_bytes_equal_path_write_text(self, tmp_path, text):
        (tmp_path / "old").write_text(text, encoding="utf-8")
        write_in_place(tmp_path / "new", text)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    def test_shorter_text_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "r.json"
        write_in_place(path, "a much longer document\n" * 50)
        write_in_place(path, "short\n")
        assert path.read_bytes() == b"short\n"

    def test_absent_file_is_created_under_the_umask(self, tmp_path):
        (tmp_path / "old").write_text("x")
        write_in_place(tmp_path / "new", "x")
        modes = [os.stat(tmp_path / n).st_mode for n in ("old", "new")]
        assert modes[0] == modes[1]

    def test_symlinked_output_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old,longer,content\n")
        link.symlink_to(target)
        write_results({"columns": ["a"], "rows": [[1]]}, link)
        assert link.is_symlink() and target.read_text() == "a\n1\n"

    def test_unwritable_output_is_named(self, tmp_path):
        (tmp_path / "r.json").mkdir()
        with pytest.raises(DataError, match=f"^cannot write {re.escape(str(tmp_path))}"):
            write_results({"x": 1.0}, tmp_path / "r.json")


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
