"""Closed-form slopes and weights against analytic and linear-solve oracles."""

import numpy as np
import pytest

from thickmarket.affine import compute_affine_coefficients
from thickmarket.core import HazardProfile
from thickmarket.errors import DomainError


def linear_solve_slopes(phi: np.ndarray, beta: float) -> np.ndarray:
    """Independent oracle: solve A_m = 1 + beta*phi_{m+1}*A_{m+1} directly."""
    n = phi.size
    M = np.eye(n)
    for m in range(n):
        M[m, (m + 1) % n] -= beta * phi[(m + 1) % n]
    return np.linalg.solve(M, np.ones(n))


def looped_coefficients(phi: np.ndarray, beta: float):
    """The per-month loops the coefficient table replaced, kept verbatim as
    a reference. Returns (A, W, Dmat) with D = Dmat @ X."""
    n = phi.size

    denom = 1.0 - beta ** n * float(np.prod(phi))

    A = np.empty(n)
    W = np.empty((n, n))
    beta_pows = beta ** np.arange(n + 1)
    for m0 in range(n):
        # prods[s] = prod_{j=1..s} phi_{m+j}, s = 0..n-1 (empty product = 1)
        ahead = phi[(m0 + 1 + np.arange(n - 1)) % n]
        prods = np.concatenate(([1.0], np.cumprod(ahead)))
        A[m0] = np.dot(beta_pows[:n], prods) / denom
        W[m0, :] = beta_pows[1:] * prods * (1.0 - phi[(m0 + 1 + np.arange(n)) % n]) / denom

    Dmat = np.zeros((n, n))
    for m0 in range(n):
        Dmat[m0, (m0 + 1 + np.arange(n)) % n] = W[m0, :]
    return A, W, Dmat


class TestCoefficientTableMatchesLoops:
    """The one-table closed forms keep the looped formulas' bits."""

    @pytest.mark.parametrize("n", [2, 3, 12, 25])
    def test_bit_identical_on_random_draws(self, n):
        rng = np.random.default_rng([17, n])
        for _ in range(200):
            phi = rng.uniform(0.05, 0.9995, n)
            beta = rng.uniform(0.05, 0.995)
            c = compute_affine_coefficients(HazardProfile.from_survival(phi),
                                            beta, 1.0)
            A, W, Dmat = looped_coefficients(phi, beta)
            X = rng.uniform(0.0, 50.0, (3, n))
            Wstar = float(W.sum(axis=1).max())
            lambda_bar = (1.0 - beta) / ((A.max() / A.min()) * (beta + Wstar))
            assert np.array_equal(c.A.values, A)
            assert np.array_equal(c.W, W)
            assert np.array_equal(c.continuation_weights(X), X @ Dmat.T)
            assert c.Wstar == Wstar
            assert c.lambda_bar == lambda_bar


class TestConstantHazardClosedForms:
    """With constant phi the cyclic sums telescope to scalar formulas."""

    PHI, BETA = 0.99, 0.97

    @pytest.fixture()
    def coeffs(self):
        hz = HazardProfile.from_survival(np.full(12, self.PHI))
        return compute_affine_coefficients(hz, self.BETA, 1.0)

    def test_slope_is_geometric_sum(self, coeffs):
        expected = 1.0 / (1.0 - self.BETA * self.PHI)
        assert np.all(np.abs(coeffs.A.values / expected - 1.0) < 1e-10)

    def test_weight_row_sum(self, coeffs):
        expected = self.BETA * (1.0 - self.PHI) / (1.0 - self.BETA * self.PHI)
        rows = coeffs.W.sum(axis=1)
        assert np.all(np.abs(rows / expected - 1.0) < 1e-10)
        assert abs(coeffs.Wstar / expected - 1.0) < 1e-10


class TestSeasonalCalibration:
    def test_slopes_match_linear_solve(self, pre_params, pre_coeffs):
        phi = pre_params.hazards.survival.values
        oracle = linear_solve_slopes(phi, pre_params.beta)
        assert np.abs(pre_coeffs.A.values / oracle - 1.0).max() < 1e-12

    def test_lambda_bar_matches_linear_solve(self, pre_params, pre_coeffs):
        oracle = linear_solve_slopes(pre_params.hazards.survival.values,
                                     pre_params.beta)
        lb = ((1.0 - pre_params.beta)
              / ((oracle.max() / oracle.min())
                 * (pre_params.beta + pre_coeffs.Wstar)))
        assert abs(pre_coeffs.lambda_bar / lb - 1.0) < 1e-12
        assert pre_coeffs.lambda_bar > 0.0

    def test_weights_reproduce_intercept_recursion(self, pre_params, pre_coeffs):
        # D_m = beta*phi_{m+1}*D_{m+1} + beta*(1-phi_{m+1})*X_{m+1} must hold
        # for the weighted-sum form at arbitrary X.
        rng = np.random.default_rng(4)
        phi = pre_params.hazards.survival.values
        beta = pre_params.beta
        for _ in range(20):
            X = rng.uniform(0.0, 50.0, 12)
            D = pre_coeffs.continuation_weights(X)
            rhs = (beta * np.roll(phi, -1) * np.roll(D, -1)
                   + beta * (1.0 - np.roll(phi, -1)) * np.roll(X, -1))
            assert np.abs(D - rhs).max() < 1e-10 * max(1.0, np.abs(D).max())

    def test_bounds_and_box(self, pre_params, pre_coeffs):
        c = pre_coeffs
        phi = pre_params.hazards.survival.values
        beta, u = pre_params.beta, pre_params.u
        assert 1.0 <= c.A_min <= c.A_max <= 1.0 / (1.0 - beta * phi.max()) + 1e-12
        assert np.all(c.W >= 0.0)
        assert np.all(c.W.sum(axis=1) <= c.Wstar + 1e-15)
        assert c.box.v_lo == 1.0 - phi.max()
        assert c.box.v_hi == (1.0 - phi.min()) / (1.0 - phi.max())
        assert c.box.X_lo == u / (1.0 - beta)
        expected_hi = u / (1.0 - beta) + c.A_max * c.box.v_hi / (2.0 * (1.0 - beta))
        assert abs(c.box.X_hi - expected_hi) < 1e-12 * expected_hi


class TestRecursionProperty:
    def test_recursion_holds_over_random_draws(self):
        """Closed form satisfies A_m = 1 + beta*phi_{m+1}*A_{m+1} everywhere."""
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(10_000):
            phi = rng.uniform(0.05, 0.9995, 12)
            beta = rng.uniform(0.05, 0.995)
            hz = HazardProfile.from_survival(phi)
            c = compute_affine_coefficients(hz, beta, 1.0)
            A = c.A.values
            resid = A - (1.0 + beta * np.roll(phi, -1) * np.roll(A, -1))
            worst = max(worst, np.abs(resid / A).max())
        assert worst < 1e-10

    def test_general_period(self):
        phi = np.array([0.95, 0.94])
        c = compute_affine_coefficients(HazardProfile.from_survival(phi), 0.97, 1.0)
        A = c.A.values
        resid = A - (1.0 + 0.97 * np.roll(phi, -1) * np.roll(A, -1))
        assert np.abs(resid).max() < 1e-12


class TestValidation:
    def test_rejects_bad_beta(self):
        hz = HazardProfile.from_survival(np.full(12, 0.99))
        for beta in (0.0, 1.0, -0.5, 1.4):
            with pytest.raises(DomainError):
                compute_affine_coefficients(hz, beta, 1.0)

    def test_rejects_nonpositive_u(self):
        hz = HazardProfile.from_survival(np.full(12, 0.99))
        with pytest.raises(DomainError):
            compute_affine_coefficients(hz, 0.97, 0.0)
