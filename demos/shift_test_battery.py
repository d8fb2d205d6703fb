"""Demonstrate the seasonality test battery on a constructed panel.

A synthetic monthly series carries a stable seasonal profile until 2021,
then gains 2 points in March-May and loses 2 in September-November. It is
written to a CSV and run through the command-line battery: ``shift-test``
(month/post interaction regression with a robust joint F, a first-half-year
contrast and season-by-season deltas) and ``break-scan`` (a Chow scan over
candidate break years), which recovers the break.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from thickmarket import cli


def write_panel(path, seed=20210301):
    rng = np.random.default_rng(seed)
    rows = ["date,value"]
    for year in range(2008, 2026):
        for month in range(1, 13):
            level = 100.0 + 5.0 * np.sin(2.0 * np.pi * month / 12.0)
            if year >= 2021:
                level += 2.0 * (month in (3, 4, 5)) - 2.0 * (month in (9, 10, 11))
            level += 0.5 * rng.standard_normal()
            rows.append(f"{year}-{month:02d},{float(level)!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def run(*argv):
    if cli.main([str(a) for a in argv]) != 0:
        raise SystemExit(f"thickmarket {argv[0]} failed")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        data = write_panel(out / "panel.csv")
        print("shift test at 2021:")
        run("shift-test", "--data", data, "--break-year", 2021,
            "--out", out / "shift")
        print("\nChow scan over candidate break years:")
        run("break-scan", "--data", data, "--from-year", 2013,
            "--to-year", 2023, "--out", out / "scan")
        scan = json.loads((out / "scan" / "break_scan.json").read_text())
    print(f"\nThe scan peaks at {scan['max_F_year']}, the constructed break "
          "year, and the joint and directional tests agree the profile "
          "moved earlier.")


if __name__ == "__main__":
    main()
