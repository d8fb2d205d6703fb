"""Cyclic indexing, hazard profiles, parameter validation."""

import numpy as np
import pytest

from thickmarket.core import HazardProfile, ModelParams, PeriodicSeries, seasonal_deviation
from thickmarket.errors import DomainError


class TestPeriodicSeries:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            PeriodicSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            PeriodicSeries(np.array([]))


class TestHazardProfile:
    def test_survival_plus_hazard_is_one(self):
        rng = np.random.default_rng(0)
        phi = rng.uniform(0.9, 0.999, 12)
        hp = HazardProfile.from_survival(phi)
        assert np.all(hp.survival.values + hp.hazard.values == 1.0)

    def test_rejects_degenerate_endpoints(self):
        with pytest.raises(DomainError):
            HazardProfile.from_survival(np.array([0.5] * 11 + [1.0]))
        with pytest.raises(DomainError):
            HazardProfile.from_survival(np.array([0.5] * 11 + [0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", ["from_survival", "from_hazard"])
    def test_rejects_non_finite_with_the_series_message(self, build, bad):
        """The one min/max range test refuses NaN too, and a non-finite
        input keeps the message a checked series gives it."""
        values = np.full(12, 0.99 if build == "from_survival" else 0.01)
        values[4] = bad
        with pytest.raises(DomainError, match="finite everywhere"):
            getattr(HazardProfile, build)(values)

    def test_holds_read_only_copies(self):
        phi = np.linspace(0.9, 0.99, 12)
        hp = HazardProfile.from_survival(phi)
        phi[0] = 0.5
        assert hp.survival.values[0] == 0.9 and phi.flags.writeable
        for series in (hp.survival, hp.hazard):
            with pytest.raises(ValueError, match="read-only"):
                series.values[0] = 0.5

    def test_phi_max_leaves_positive_floor(self):
        hp = HazardProfile.from_survival(np.linspace(0.9, 0.99, 12))
        assert 1.0 - hp.survival.values.max() > 0.0

    def test_from_hazard_round_trip(self):
        h = np.linspace(0.01, 0.05, 12)
        hp = HazardProfile.from_hazard(h)
        assert np.allclose(hp.hazard.values, h)


class TestModelParams:
    def test_beta_recomputed(self):
        hp = HazardProfile.from_survival(np.full(12, 0.99))
        p = ModelParams(beta_hat=0.995, delta=0.025, theta=0.5, u=1.0, hazards=hp)
        assert p.beta == 0.995 * 0.975

    @pytest.mark.parametrize("kwargs", [
        dict(beta_hat=1.0), dict(beta_hat=0.0), dict(delta=1.0),
        dict(delta=-0.1), dict(theta=1.5), dict(theta=-0.1), dict(u=0.0),
    ])
    def test_domain_validation(self, kwargs):
        hp = HazardProfile.from_survival(np.full(12, 0.99))
        base = dict(beta_hat=0.995, delta=0.025, theta=0.5, u=1.0, hazards=hp)
        base.update(kwargs)
        with pytest.raises(DomainError):
            ModelParams(**base)


class TestSeasonalDeviation:
    def test_constant_series_is_zero(self):
        dev = seasonal_deviation(np.full(12, 7.0))
        assert np.all(dev == 0.0)

    def test_two_period_arithmetic(self):
        dev = seasonal_deviation(np.array([90.0, 110.0]))
        assert np.allclose(dev, [-10.0, 10.0])

    def test_sums_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(50, 150, 12)
        dev = seasonal_deviation(x)
        assert abs(dev.sum()) < 1e-10

    def test_zero_mean_rejected(self):
        with pytest.raises(DomainError):
            seasonal_deviation(np.array([-1.0, 1.0]))
