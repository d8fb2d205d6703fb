"""Share normalization, the kappa root, discounting, trends shares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickmarket import (
    DataError,
    DomainError,
    HazardProfile,
    ModelParams,
    MoveShares,
    PeriodicSeries,
    compose_beta,
    hazards_from_shares,
    normalize_shares,
    shares_from_trends,
    solve_kappa,
)
from thickmarket.fixtures import (
    ETA_POST,
    ETA_PRE,
    SIPP_POST_RAW,
    SIPP_PRE_RAW,
)
from thickmarket.seastats import MonthlyPanel


class TestNormalizeShares:
    def test_published_pre_column(self):
        shares = normalize_shares(SIPP_PRE_RAW)
        assert abs(shares.shares.values.sum() - 1.0) < 1e-12
        assert abs(shares.shares.values[5] - 12.7 / 99.9) < 1e-12
        assert abs(np.sum(SIPP_PRE_RAW) - 99.9) < 1e-12

    def test_published_post_column_sum(self):
        shares = normalize_shares(SIPP_POST_RAW)
        assert abs(np.sum(SIPP_POST_RAW) - 100.1) < 1e-12
        assert np.abs(shares.shares.values * 100.1 - SIPP_POST_RAW).max() < 1e-12

    def test_equal_inputs(self):
        shares = normalize_shares(np.ones(12))
        assert np.allclose(shares.shares.values, 1.0 / 12.0)

    def test_negative_entry_rejected(self):
        raw = np.ones(12)
        raw[3] = -0.1
        with pytest.raises(DomainError):
            normalize_shares(raw)

    def test_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            normalize_shares(np.zeros(12))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        """Shares are checked where they enter, so nothing downstream of
        ``normalize_shares`` checks them again; the first non-finite entry
        is named before any other check runs."""
        raw = np.ones(12)
        raw[7] = bad
        raw[9] = -1.0
        with pytest.raises(DomainError,
                           match=f"^move shares must be finite; month 8 is {bad}$"):
            normalize_shares(raw)


class TestMoveShares:
    """Shares built directly, not through ``normalize_shares``."""

    def test_negative_share_rejected(self):
        shares = np.full(12, 0.1)
        shares[0], shares[1] = 0.6, -0.6   # the sum stays 1
        assert abs(shares.sum() - 1.0) < 1e-12
        with pytest.raises(DomainError, match="^move shares must be nonnegative$"):
            MoveShares(PeriodicSeries(shares))

    def test_shares_not_summing_to_one_rejected(self):
        with pytest.raises(DomainError, match="^move shares must sum to 1, got 1.2$"):
            MoveShares(PeriodicSeries(np.full(12, 0.1)))


class TestSolveKappa:
    def test_uniform_closed_form(self):
        shares = normalize_shares(np.ones(12))
        for eta in (0.05, 0.103, 0.3, 0.9):
            kappa = solve_kappa(shares, eta)
            expected = 12.0 * (1.0 - (1.0 - eta) ** (1.0 / 12.0))
            assert abs(kappa - expected) < 1e-10

    def test_vanishing_move_rate(self):
        shares = normalize_shares(SIPP_PRE_RAW)
        assert solve_kappa(shares, 1e-9) < 1e-7

    def test_product_residual(self):
        for shares, eta in ((normalize_shares(SIPP_PRE_RAW), ETA_PRE),
                            (normalize_shares(SIPP_POST_RAW), ETA_POST)):
            kappa = solve_kappa(shares, eta)
            product = np.prod(1.0 - kappa * shares.shares.values)
            assert abs(product - (1 - eta)) <= 1e-15

    def test_against_fine_grid_scan(self):
        """Independent oracle: argmin over a 10^7-point grid of the product."""
        shares = normalize_shares(SIPP_PRE_RAW)
        kappa = solve_kappa(shares, ETA_PRE)
        s = shares.shares.values
        hi = (1.0 - 1e-12) / s.max()
        n_grid = 10_000_000
        grid = np.linspace(0.0, hi, n_grid)
        # evaluate log-product in chunks to bound memory
        best_k, best_err = 0.0, np.inf
        target = 1.0 - ETA_PRE
        for chunk in np.array_split(grid, 40):
            prod = np.prod(1.0 - np.outer(chunk, s), axis=1)
            err = np.abs(prod - target)
            j = int(np.argmin(err))
            if err[j] < best_err:
                best_err, best_k = float(err[j]), float(chunk[j])
        assert abs(kappa - best_k) <= hi / (n_grid - 1)

    def test_bracketing_endpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            shares = normalize_shares(rng.uniform(0.2, 3.0, 12))
            eta = rng.uniform(0.01, 0.95)
            hi = (1.0 - 1e-12) / shares.shares.values.max()
            s = shares.shares.values
            f_lo = np.prod(1.0 - 0.0 * s) - (1.0 - eta)
            f_hi = np.prod(1.0 - hi * s) - (1.0 - eta)
            assert f_lo > 0.0 > f_hi

    def test_kappa_increases_with_eta(self):
        shares = normalize_shares(SIPP_PRE_RAW)
        kappas = [solve_kappa(shares, eta)
                  for eta in np.linspace(0.02, 0.9, 15)]
        assert np.all(np.diff(kappas) > 0.0)

    def test_eta_out_of_range(self):
        shares = normalize_shares(SIPP_PRE_RAW)
        for eta in (0.0, 1.0, -0.2, np.nan, 1e-17):   # 1 - 1e-17 rounds to 1
            with pytest.raises(DomainError, match="eta"):
                solve_kappa(shares, eta)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), one_hot=st.booleans(),
           eta=st.floats(1e-9, 1.0 - 1e-12))
    def test_newton_root_property(self, seed, one_hot, eta):
        """Dirichlet shares with zero months, or all moves in one month."""
        rng = np.random.default_rng(seed)
        raw = np.zeros(12)
        if one_hot:
            raw[rng.integers(12)] = 1.0
        else:
            raw = rng.dirichlet(np.full(12, 0.5)) * (rng.uniform(size=12) < 0.7)
            raw[rng.integers(12)] += 0.1
        shares = normalize_shares(raw)
        kappa = solve_kappa(shares, eta)
        assert 0.0 < kappa < 1.0 / shares.shares.values.max()
        product = np.prod(1.0 - kappa * shares.shares.values)
        assert abs(product - (1.0 - eta)) <= 1e-14
        assert solve_kappa(shares, 0.5 * eta) < kappa


class TestHazardsFromShares:
    def test_uniform_hazard_level(self):
        shares = normalize_shares(np.ones(12))
        hz = hazards_from_shares(shares, 0.103)
        expected = (1.0 - (1.0 - 0.103) ** (1.0 / 12.0))
        assert np.abs(hz.hazard.values - expected).max() < 1e-10

    def test_annual_survival_identity(self):
        for shares, eta in ((normalize_shares(SIPP_PRE_RAW), ETA_PRE),
                            (normalize_shares(SIPP_POST_RAW), ETA_POST)):
            hz = hazards_from_shares(shares, eta)
            assert abs(np.prod(hz.survival.values) - (1.0 - eta)) < 1e-10

    def test_modal_months(self):
        pre = hazards_from_shares(normalize_shares(SIPP_PRE_RAW), ETA_PRE)
        post = hazards_from_shares(normalize_shares(SIPP_POST_RAW), ETA_POST)
        assert int(np.argmax(pre.hazard.values)) + 1 == 6    # June
        assert int(np.argmax(post.hazard.values)) + 1 == 8   # August

    def test_share_round_trip(self):
        shares = normalize_shares(SIPP_PRE_RAW)
        hz = hazards_from_shares(shares, ETA_PRE)
        implied = hz.hazard.values / hz.hazard.values.sum()
        assert np.abs(implied - shares.shares.values).max() < 1e-10

    def test_zero_share_month_rejected(self):
        raw = np.ones(12)
        raw[0] = 0.0
        with pytest.raises(DomainError):
            hazards_from_shares(normalize_shares(raw), 0.103)


class TestComposeBeta:
    def test_six_percent_rate(self):
        beta_hat = compose_beta(0.06)
        assert abs(beta_hat - 1.06 ** (-1.0 / 12.0)) < 1e-15
        assert round(beta_hat, 3) == 0.995

    def test_disruption_compounds_annually(self):
        """delta enters through ``ModelParams``, which checks it."""
        hazards = HazardProfile.from_survival(np.full(12, 0.99))
        params = ModelParams(beta_hat=compose_beta(0.06), delta=0.025,
                             theta=0.5, u=1.0, hazards=hazards)
        annual_disruption = 1.0 - (1.0 - 0.025) ** 12
        assert abs(annual_disruption - 0.262) < 5e-4
        assert abs(params.beta - 1.06 ** (-1.0 / 12.0) * 0.975) < 1e-15

    def test_zero_rate_rejected(self):
        with pytest.raises(DomainError, match="non-positive interest rate"):
            compose_beta(0.0)

    def test_rate_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            compose_beta(-1.5)


def _trend_panel(per_year_values: dict[int, np.ndarray]) -> MonthlyPanel:
    rows = [(y, m, vals[m - 1]) for y, vals in per_year_values.items()
            for m in range(1, 13) if not np.isnan(vals[m - 1])]
    years, months, values = zip(*rows)
    return MonthlyPanel(np.array(years), np.array(months), np.array(values))


class TestSharesFromTrends:
    def test_flat_single_year(self):
        panel = _trend_panel({2015: np.ones(12)})
        shares = shares_from_trends(panel, [2015])
        assert np.allclose(shares.shares.values, 1.0 / 12.0)

    def test_per_year_rescaling_is_irrelevant(self):
        panel = _trend_panel({2015: np.ones(12), 2016: 2.0 * np.ones(12)})
        shares = shares_from_trends(panel, [2015, 2016])
        assert np.abs(shares.shares.values - 1.0 / 12.0).max() < 1e-15

    def test_one_month_doubled(self):
        vals = np.ones(12)
        vals[6] = 2.0
        panel = _trend_panel({2015: vals, 2016: vals * 3.0})
        shares = shares_from_trends(panel, [2015, 2016])
        expected = np.full(12, 1.0 / 13.0)
        expected[6] = 2.0 / 13.0
        assert np.abs(shares.shares.values - expected).max() < 1e-12

    def test_scale_invariance_property(self):
        rng = np.random.default_rng(13)
        raw = {y: rng.uniform(10.0, 100.0, 12) for y in range(2010, 2016)}
        base = shares_from_trends(_trend_panel(raw), raw.keys())
        scaled = dict(raw)
        scaled[2012] = raw[2012] * 7.3
        rescaled = shares_from_trends(_trend_panel(scaled), raw.keys())
        assert np.abs(base.shares.values - rescaled.shares.values).max() < 1e-12

    def test_incomplete_year_rejected(self):
        vals = np.ones(12)
        vals[4] = np.nan
        panel = _trend_panel({2015: vals})
        with pytest.raises(DataError, match="missing months"):
            shares_from_trends(panel, [2015])

    def test_no_years_rejected(self):
        panel = _trend_panel({2015: np.ones(12)})
        with pytest.raises(DataError, match="at least one year"):
            shares_from_trends(panel, [])

    def test_zero_total_rejected(self):
        panel = _trend_panel({2015: np.zeros(12)})
        with pytest.raises(DataError, match="non-positive"):
            shares_from_trends(panel, [2015])
