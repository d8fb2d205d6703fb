"""CSV ingestion, CPI deflation, deterministic result writers, and the
hand-off files ``hazards.json`` and ``solution.json`` that one command
writes and another reads back; no other module knows their keys.

Input series are plain UTF-8 ``date,value`` CSVs (ISO year-month dates;
full dates are truncated to the month). ``write_results`` writes every
output file, in the format its suffix names, with stable key ordering and
6 significant digits (or exact floats), so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibrate import MoveShares, normalize_shares
from .core import MONTH_NAMES, HazardProfile
from .errors import DataError, DomainError
from .seastats import MonthlyPanel


@contextlib.contextmanager
def naming(label):
    """Name ``label`` in the input errors raised inside: a missing file
    becomes ``DataError("no such file: label")``, text that is not UTF-8 a
    DataError naming the first bad byte, and a DataError or DomainError is
    raised again as its own type with ``"label: "`` in front."""
    try:
        yield
    except FileNotFoundError:
        raise DataError(f"no such file: {label}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{label}: not UTF-8 text (byte "
                        f"0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    except (DataError, DomainError) as exc:
        raise type(exc)(f"{label}: {exc}") from None


@dataclass(frozen=True)
class RawSeries:
    """A monthly series whose int keys, 12*year + month - 1, strictly rise."""

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if self.keys.size != values.size:
            raise DataError("dates and values must have equal length")
        bad = np.flatnonzero(np.diff(self.keys) <= 0)
        if bad.size:
            prev, cur = self.dates[bad[0]:bad[0] + 2]
            if cur == prev:
                raise DataError(f"duplicate observation for {cur[0]}-{cur[1]:02d}")
            raise DataError(f"dates must be strictly increasing; {cur} follows {prev}")
        object.__setattr__(self, "values", values)

    @property
    def dates(self) -> tuple[tuple[int, int], ...]:
        years, months = np.divmod(self.keys, 12)
        return tuple(zip(years.tolist(), (months + 1).tolist()))


def read_monthly_csv(path, value_column: str = "value",
                     date_column: str = "date") -> RawSeries:
    """Parse a monthly CSV into a sorted, duplicate-checked series; blank
    lines are skipped, a missing cell is empty, errors name the line."""
    keys, values = [], []
    with naming(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("empty file, expected a CSV header")
        column = {name: i for i, name in enumerate(header)}   # the last one
        missing = {date_column, value_column} - column.keys()
        if missing:
            raise DataError(f"header lacks column(s) {sorted(missing)}; "
                            f"found {header}")
        at_date, at_value = column[date_column], column[value_column]
        for row in filter(None, reader):
            line_no, width = reader.line_num, len(row)
            text = row[at_date] if at_date < width else ""
            parts = text.strip().split("-")   # YYYY-MM or YYYY-MM-DD
            if len(parts) not in (2, 3):
                raise DataError(f"line {line_no}: cannot parse date '{text}' "
                                "(expected YYYY-MM or YYYY-MM-DD)")
            try:
                year, month = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"line {line_no}: cannot parse date '{text}'") from None
            if not 1 <= month <= 12:
                raise DataError(f"line {line_no}: month {month} out of range in '{text}'")
            if not 1 <= year <= 9999:   # a calendar grid spans every year in between
                raise DataError(f"line {line_no}: year {year} out of range in '{text}'")
            cell = row[at_value] if at_value < width else ""
            if not (raw := cell.strip()):
                continue
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"line {line_no}: cannot parse value "
                                f"'{cell}'") from None
            if not math.isfinite(value):
                raise DataError(f"line {line_no}: non-finite value '{raw}'")
            keys.append(12 * year + month - 1)
            values.append(value)
        keys = np.array(keys, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        return RawSeries(keys=keys[order], values=np.array(values)[order])


def read_shares_csv(path) -> MoveShares:
    """Read a 12-row month,share table (months 1..12 or Jan..Dec names)."""
    name_to_month = {n.lower(): i + 1 for i, n in enumerate(MONTH_NAMES)}
    raw = np.full(12, np.nan)
    with naming(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or {"month", "share"} - set(header):
            raise DataError("expected header 'month,share'")
        for row in filter(None, reader):
            row, line_no = dict(zip(header, row + [None] * len(header))), reader.line_num
            token = (row["month"] or "").strip()   # None: a short row
            if token.isdigit():
                month = int(token)
            else:
                month = name_to_month.get(token[:3].lower(), 0)
            if not 1 <= month <= 12:
                raise DataError(f"line {line_no}: unknown month '{row['month']}'")
            if not np.isnan(raw[month - 1]):
                raise DataError(f"line {line_no}: duplicate month '{row['month']}'")
            try:
                share = float(row["share"])
            except (TypeError, ValueError):   # TypeError: a row without share
                raise DataError(f"line {line_no}: cannot parse share "
                                f"'{row['share']}'") from None
            if not (math.isfinite(share) and share > 0.0):
                raise DataError(
                    f"line {line_no}: share for {MONTH_NAMES[month - 1]} "
                    f"must be positive and finite, got '{row['share']}'")
            raw[month - 1] = share
        if np.any(np.isnan(raw)):
            missing = [MONTH_NAMES[i] for i in range(12) if np.isnan(raw[i])]
            raise DataError(f"missing shares for {missing}")
        return normalize_shares(raw)


def deflate_and_index(nominal: RawSeries, cpi: RawSeries) -> RawSeries:
    """Deflate, unscaled, by a price index that must cover every month of
    the nominal series; an error names the first uncovered or zero month."""
    at = np.searchsorted(cpi.keys, nominal.keys)
    covered = np.append(cpi.keys, -1)[at] == nominal.keys
    deflator = np.append(cpi.values, np.nan)[at]
    bad = np.flatnonzero(~covered | (deflator == 0.0))
    if bad.size:
        year, month = nominal.dates[bad[0]]
        what = "does not cover" if not covered[bad[0]] else "is zero at"
        raise DataError(f"deflator {what} {year}-{month:02d}")
    return RawSeries(keys=nominal.keys, values=nominal.values / deflator)


def to_panel(series: RawSeries) -> MonthlyPanel:
    """Reshape a dated series into (year, month, value) observations."""
    years, months = np.divmod(series.keys, 12)
    return MonthlyPanel(years=years, months=months + 1, values=series.values)


# ---------------------------------------------------------------------------
# deterministic writers


def round6(obj):
    """Recursively round floats to 6 significant digits for stable output."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round6(x) for x in obj]
    return obj


def write_results(results, path, full_precision: bool = False) -> Path:
    """Write a result object deterministically; returns the path written.

    The suffix picks the format: ``.json`` takes any JSON-serializable
    object, ``.csv`` a dict with 'columns' (list of names) and 'rows'
    (list of row sequences), and ``.txt`` the same shape rendered as an
    aligned table. The parent directory must exist.
    """
    path = Path(path)
    if path.suffix == ".json":
        payload = results if full_precision else round6(results)
        text = json.dumps(payload, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    elif path.suffix in (".csv", ".txt"):
        columns = list(results["columns"])
        rows = [[_fmt_cell(c, full_precision) for c in row]
                for row in results["rows"]]
        if path.suffix == ".csv":
            lines = [",".join(columns)]
            lines += [",".join(row) for row in rows]
        else:
            widths = [max(len(col), *(len(r[j]) for r in rows)) if rows
                      else len(col) for j, col in enumerate(columns)]
            lines = ["  ".join(col.rjust(w) for col, w in zip(columns, widths))]
            lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths))
                      for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        raise DataError(f"{path}: unknown output format "
                        "(suffix must be .json, .csv or .txt)")
    try:
        write_in_place(path, text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    return path


def write_in_place(path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path``, then cut it to length: on ext4
    an O_TRUNC open of a non-empty file costs writeback (DECISIONS.md §11)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def _fmt_cell(value, full_precision: bool) -> str:
    if isinstance(value, float):
        return repr(value) if full_precision else f"{value:.6g}"
    return str(value)


def hazards_to_dict(profile, kappa: float, eta: float, shares: MoveShares,
                    source: str) -> dict:
    """The ``hazards.json`` document, which ``read_hazards_json`` reads."""
    return {
        "hazard": profile.hazard.values.tolist(),
        "survival": profile.survival.values.tolist(),
        "kappa": float(kappa),
        "eta": float(eta),
        "shares": shares.shares.values.tolist(),
        "source": source,
    }


def equilibrium_to_dict(solution, source: str, eta: float | None = None) -> dict:
    """The ``solution.json`` document, which ``read_equilibrium_json``
    reads; ``eta`` is left out when the source does not give it."""
    return {
        "X": solution.state.X.values.tolist(),
        "v": solution.state.v.values.tolist(),
        "epsilon": solution.state.epsilon.values.tolist(),
        "Q": solution.Q.values.tolist(),
        "P": solution.P.values.tolist(),
        "iterations": int(solution.iterations),
        "residual": float(solution.final_residual),
        "u": float(solution.u),
        "source": source,
        **({} if eta is None else {"eta": float(eta)}),
    }


def load_json_object(path) -> dict:
    """Parse a JSON file holding an object; malformed JSON is a DataError."""
    with naming(path):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise DataError(f"malformed JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise DataError(f"expected a JSON object, got {type(doc).__name__}")
        return doc


def _monthly_arrays(doc: dict, keys: tuple[str, ...], kind: str) -> list:
    """``keys`` of a hand-off document as vectors of 12 finite numbers."""
    missing = set(keys) - set(doc)
    if missing:
        raise DataError(f"{kind} lacks arrays {sorted(missing)}")
    arrays = []
    for key in keys:
        try:
            arrays.append(np.asarray(doc[key], dtype=float))
            if arrays[-1].shape != (12,) or not np.isfinite(arrays[-1]).all():
                raise ValueError
        except (TypeError, ValueError):
            raise DataError(f"'{key}' must be an array of 12 finite numbers, "
                            "one per month") from None
    return arrays


def read_hazards_json(path) -> tuple[HazardProfile, float | None]:
    """The hazards of a ``hazards.json`` and its eta, None when absent.

    The other keys restate ``survival``; each one present must agree with
    it within 1e-12: ``hazard`` = 1 - survival, ``eta`` = 1 - prod(survival)
    and, given both, ``kappa`` * ``shares`` = 1 - survival.
    """
    doc = load_json_object(path)
    with naming(path):
        (survival,) = _monthly_arrays(doc, ("survival",), "hazard document")
        eta = doc.get("eta")
        if "eta" in doc and not (isinstance(eta, float) and 0.0 < eta < 1.0):
            raise DataError(f"'eta' must be a number in (0, 1), got {eta!r}")
        hazard = 1.0 - survival
        restated = []
        if "hazard" in doc:
            restated.append(("'hazard'", "1 - survival", _monthly_arrays(
                doc, ("hazard",), "hazard document")[0], hazard))
        if eta is not None:
            restated.append(("'eta'", "1 - prod(survival)", eta,
                             1.0 - survival.prod()))
        if {"kappa", "shares"} <= doc.keys():
            kappa = doc["kappa"]
            if isinstance(kappa, bool) or not isinstance(kappa, (int, float)):
                raise DataError(f"'kappa' must be a number, got {kappa!r}")
            (shares,) = _monthly_arrays(doc, ("shares",), "hazard document")
            restated.append(("'kappa' * 'shares'", "1 - survival",
                             kappa * shares, hazard))
        for name, rule, given, implied in restated:
            off = float(np.abs(given - implied).max())
            if not off <= 1e-12:
                raise DataError(f"{name} must equal {rule} within 1e-12; "
                                f"it is off by {off:.3g}")
        return HazardProfile.from_survival(survival), eta


def read_equilibrium_json(path) -> tuple[np.ndarray, np.ndarray]:
    """X and v of a ``solution.json``; its five arrays are checked."""
    doc = load_json_object(path)
    with naming(path):
        X, v, *_ = _monthly_arrays(doc, ("X", "v", "epsilon", "Q", "P"),
                                   "snapshot")
    return X, v
