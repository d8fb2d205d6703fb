"""CSV ingestion, CPI deflation, and deterministic result writers.

Input series are plain ``date,value`` CSVs (ISO year-month dates; full
dates are truncated to the month). Outputs are written with stable key
ordering and 6-significant-digit formatting so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibrate import MoveShares, normalize_shares
from .core import MONTH_NAMES
from .errors import DataError
from .seastats import MonthlyPanel


@dataclass(frozen=True)
class RawSeries:
    """A dated monthly series with strictly increasing, duplicate-free dates."""

    dates: tuple[tuple[int, int], ...]   # (year, month) pairs
    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if len(self.dates) != values.size:
            raise DataError("dates and values must have equal length")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DataError(f"dates must be strictly increasing; "
                                f"{cur} follows {prev}")
        object.__setattr__(self, "values", values)

    @property
    def n_obs(self) -> int:
        return self.values.size


def _parse_month(text: str, line_no: int) -> tuple[int, int]:
    token = text.strip()
    parts = token.split("-")
    if len(parts) not in (2, 3):
        raise DataError(f"line {line_no}: cannot parse date '{text}' "
                        "(expected YYYY-MM or YYYY-MM-DD)")
    try:
        year, month = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse date '{text}'") from None
    if not 1 <= month <= 12:
        raise DataError(f"line {line_no}: month {month} out of range in '{text}'")
    return year, month


def read_monthly_csv(path, value_column: str = "value",
                     date_column: str = "date") -> RawSeries:
    """Parse a monthly CSV into a sorted, duplicate-checked series."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    rows: list[tuple[tuple[int, int], float]] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a CSV header")
        missing = {date_column, value_column} - set(reader.fieldnames)
        if missing:
            raise DataError(f"{path}: header lacks column(s) {sorted(missing)}; "
                            f"found {reader.fieldnames}")
        for line_no, row in enumerate(reader, start=2):
            date = _parse_month(row[date_column], line_no)
            raw = (row[value_column] or "").strip()
            if raw == "":
                continue
            try:
                value = float(raw)
            except ValueError:
                raise DataError(
                    f"line {line_no}: cannot parse value '{row[value_column]}'"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"line {line_no}: non-finite value '{raw}' "
                                f"in {path}")
            rows.append((date, value))
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DataError(f"duplicate observation for {d1[0]}-{d1[1]:02d}")
    return RawSeries(dates=tuple(d for d, _ in rows),
                     values=np.array([v for _, v in rows]),
                     source=str(path))


def read_shares_csv(path) -> MoveShares:
    """Read a 12-row month,share table (months 1..12 or Jan..Dec names)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    name_to_month = {n.lower(): i + 1 for i, n in enumerate(MONTH_NAMES)}
    raw = np.full(12, np.nan)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                {"month", "share"} - set(reader.fieldnames):
            raise DataError(f"{path}: expected header 'month,share'")
        for line_no, row in enumerate(reader, start=2):
            token = row["month"].strip()
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
            except ValueError:
                raise DataError(
                    f"line {line_no}: cannot parse share '{row['share']}'"
                ) from None
            if not (math.isfinite(share) and share > 0.0):
                raise DataError(
                    f"{path}: line {line_no}: share for {MONTH_NAMES[month - 1]} "
                    f"must be positive and finite, got '{row['share']}'")
            raw[month - 1] = share
    if np.any(np.isnan(raw)):
        missing = [MONTH_NAMES[i] for i in range(12) if np.isnan(raw[i])]
        raise DataError(f"{path}: missing shares for {missing}")
    return normalize_shares(raw, label="custom", source=str(path))


def deflate_and_index(nominal: RawSeries, cpi: RawSeries,
                      base_year: int) -> RawSeries:
    """Deflate by a price index and rescale the base-year mean to 100.

    The deflator must cover every month of the nominal series, and the
    base year must be fully present (all 12 months) in the deflated
    series.
    """
    cpi_map = dict(zip(cpi.dates, cpi.values.tolist()))
    real = []
    for date, value in zip(nominal.dates, nominal.values.tolist()):
        if date not in cpi_map:
            raise DataError(f"deflator does not cover {date[0]}-{date[1]:02d}")
        deflator = cpi_map[date]
        if deflator == 0.0:
            raise DataError(f"deflator is zero at {date[0]}-{date[1]:02d}")
        real.append(value / deflator)
    real = np.array(real)
    base_mask = np.array([d[0] == base_year for d in nominal.dates])
    if base_mask.sum() != 12:
        raise DataError(f"base year {base_year} is not fully present "
                        f"({int(base_mask.sum())} of 12 months)")
    scale = 100.0 / real[base_mask].mean()
    return RawSeries(dates=nominal.dates, values=real * scale,
                     source=nominal.source)


def to_panel(series: RawSeries) -> MonthlyPanel:
    """Reshape a dated series into (year, month, value) observations."""
    years = np.array([d[0] for d in series.dates], dtype=int)
    months = np.array([d[1] for d in series.dates], dtype=int)
    return MonthlyPanel(years=years, months=months, values=series.values)


# ---------------------------------------------------------------------------
# deterministic writers


def round6(obj):
    """Recursively round floats to 6 significant digits for stable output."""
    if isinstance(obj, float):
        if np.isnan(obj):
            return None
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.6g}")
    if isinstance(obj, (np.floating,)):
        return round6(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [round6(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round6(x) for x in obj]
    return obj


def write_results(results, path, format: str = "json",
                  full_precision: bool = False) -> Path:
    """Write a result object deterministically; returns the path written.

    ``json`` expects any JSON-serializable object, ``csv`` a dict with
    'columns' (list of names) and 'rows' (list of row sequences), and
    ``table`` the same shape rendered as aligned text.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if format == "json":
        payload = results if full_precision else round6(results)
        text = json.dumps(payload, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    elif format in ("csv", "table"):
        columns = list(results["columns"])
        rows = [[_fmt_cell(c, full_precision) for c in row]
                for row in results["rows"]]
        if format == "csv":
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
        raise DataError(f"unknown output format '{format}'")
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    return path


def _fmt_cell(value, full_precision: bool) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value)) if full_precision else f"{float(value):.6g}"
    return str(value)


def equilibrium_to_dict(solution, u: float | None = None) -> dict:
    """JSON document for an equilibrium: 12-element arrays plus diagnostics."""
    doc = {
        "X": solution.state.X.values.tolist(),
        "v": solution.state.v.values.tolist(),
        "epsilon": solution.state.epsilon.values.tolist(),
        "Q": solution.Q.values.tolist(),
        "P": solution.P.values.tolist(),
        "iterations": int(solution.iterations),
        "residual": float(solution.final_residual),
        "lambda": float(solution.lambda_used),
    }
    if u is not None:
        doc["u"] = float(u)
    return doc


def hazards_to_dict(profile, kappa: float, eta: float) -> dict:
    return {
        "hazard": profile.hazard.values.tolist(),
        "survival": profile.survival.values.tolist(),
        "kappa": float(kappa),
        "eta": float(eta),
    }


def load_json_object(path: Path) -> dict:
    """Parse a JSON file holding an object; malformed JSON is a DataError."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise DataError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def read_hazards_json(path):
    """Load a calibrated hazard document (as written by hazards_to_dict)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    doc = load_json_object(path)
    if "survival" not in doc:
        raise DataError(f"{path}: hazard document lacks a 'survival' array")
    return doc


def read_equilibrium_json(path) -> dict:
    """Load an equilibrium snapshot; arrays come back as numpy vectors."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    doc = load_json_object(path)
    missing = {"X", "v", "epsilon", "Q", "P"} - set(doc)
    if missing:
        raise DataError(f"{path}: snapshot lacks arrays {sorted(missing)}")
    for key in ("X", "v", "epsilon", "Q", "P"):
        doc[key] = np.asarray(doc[key], dtype=float)
    return doc
