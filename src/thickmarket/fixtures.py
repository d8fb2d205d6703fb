"""Bundled calibration inputs: published move-share columns and defaults.

The two share columns are the published survey estimates of the monthly
distribution of household moves (percent of annual moves), for the
2017-2019 and 2021-2023 averaging windows. As printed they sum to 99.9
and 100.1 because of rounding; they are renormalized to exact shares
before entering the model. Annual move rates and the remaining default
parameters follow the same calibration.
"""

from __future__ import annotations

import json
from importlib import resources

from .calibrate import MoveShares, normalize_shares
from .errors import DataError

# Percent of annual moves by calendar month, January..December, as printed.
SIPP_PRE_RAW = (4.7, 4.7, 7.1, 8.1, 8.9, 12.7, 11.4, 11.3, 10.0, 7.4, 7.1, 6.5)
SIPP_POST_RAW = (5.5, 5.6, 8.9, 9.5, 9.8, 9.7, 9.5, 11.4, 9.9, 7.0, 6.5, 6.8)

ETA_PRE = 0.103
ETA_POST = 0.083

DEFAULT_ANNUAL_RATE = 0.06
DEFAULT_DELTA = 0.025
DEFAULT_THETA = 0.5
DEFAULT_RENT_PRICE_RATIO = 0.03

# name -> (share column, default annual move rate); compare's pre and post
# sides default to the first and the second.
SHARE_FIXTURES = {
    "sipp-pre": (SIPP_PRE_RAW, ETA_PRE),
    "sipp-post": (SIPP_POST_RAW, ETA_POST),
}


def shares_fixture(name: str) -> tuple[MoveShares, float]:
    """Resolve a named share fixture to (shares, default eta)."""
    if name not in SHARE_FIXTURES:
        raise DataError(f"unknown share fixture '{name}' "
                        f"(use {' or '.join(SHARE_FIXTURES)})")
    raw, eta = SHARE_FIXTURES[name]
    return normalize_shares(raw), eta


def load_biannual_benchmark() -> dict:
    """Parameter file for the two-season benchmark replication (n = 2)."""
    ref = resources.files("thickmarket").joinpath("data/nt_biannual.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)
