"""One-step map: clamping, box invariance, damping, Lipschitz behavior."""

import numpy as np
import pytest

from thickmarket.affine import compute_affine_coefficients
from thickmarket.core import ModelParams
from thickmarket.mapping import _prices, _step


def random_states(box, n, rng):
    X = rng.uniform(box.X_lo, box.X_hi, size=(n, 12))
    v = rng.uniform(box.v_lo, box.v_hi, size=(n, 12))
    return X, v


def outputs_at(X, v, params, coeffs):
    """Transactions Q = max(0, v - e) and prices P at (X, v), with the
    map's clamped cutoffs e there; returns (Q, P, e)."""
    eps = _step(X, v, params, coeffs)[2]
    return np.maximum(0.0, v - eps), _prices(X, v, eps, params, coeffs), eps


def damped_map(X, v, lam, params, coeffs):
    """T_lam(Z) = (1 - lam) Z + lam T(Z) on the (X, v) coordinates."""
    X_new, v_new, _ = _step(X, v, params, coeffs)
    return (1.0 - lam) * X + lam * X_new, (1.0 - lam) * v + lam * v_new


def pair_dist(X1, v1, X2, v2):
    return np.maximum(np.abs(X1 - X2).max(axis=-1), np.abs(v1 - v2).max(axis=-1))


@pytest.fixture()
def constant_setup(constant_params):
    coeffs = compute_affine_coefficients(constant_params.hazards,
                                         constant_params.beta,
                                         constant_params.u)
    return constant_params, coeffs


class TestMapStructure:
    def test_constant_inputs_give_constant_outputs(self, constant_setup):
        params, coeffs = constant_setup
        X = np.full(12, coeffs.box.X_lo)
        v = np.full(12, coeffs.box.v_lo)
        Xn, vn, _ = _step(X, v, params, coeffs)
        assert np.ptp(Xn) == 0.0
        assert np.ptp(vn) == 0.0
        assert np.ptp(_step(Xn, vn, params, coeffs)[2]) == 0.0

    def test_clamp_invariant(self, pre_params, pre_coeffs):
        rng = np.random.default_rng(2)
        X, v = random_states(pre_coeffs.box, 500, rng)
        _, _, eps_bar = _step(X, v, pre_params, pre_coeffs)
        assert np.all(eps_bar >= 0.0)
        assert np.all(eps_bar <= v)

    def test_box_self_mapping(self, pre_params, pre_coeffs):
        rng = np.random.default_rng(3)
        X, v = random_states(pre_coeffs.box, 2000, rng)
        Xn, vn, _ = _step(X, v, pre_params, pre_coeffs)
        box = pre_coeffs.box
        assert np.all(Xn >= box.X_lo) and np.all(Xn <= box.X_hi)
        assert np.all(vn >= box.v_lo) and np.all(vn <= box.v_hi)

    def test_cutoffs_consistent_on_state(self, pre_params, pre_coeffs,
                                         pre_solution):
        """A solved state carries the map's cutoffs at its own (X, v)."""
        state = pre_solution.state
        expected = _step(state.X.values, state.v.values, pre_params, pre_coeffs)[2]
        assert np.array_equal(state.epsilon.values, expected)


class TestDamping:
    def test_lambda_one_is_bitwise_identical(self, pre_params, pre_coeffs):
        rng = np.random.default_rng(5)
        X, v = random_states(pre_coeffs.box, 1, rng)
        Xa, va, _ = _step(X[0], v[0], pre_params, pre_coeffs)
        Xb, vb = damped_map(X[0], v[0], 1.0, pre_params, pre_coeffs)
        assert np.array_equal(Xa, Xb)
        assert np.array_equal(va, vb)
        assert np.array_equal(_step(Xa, va, pre_params, pre_coeffs)[2],
                              _step(Xb, vb, pre_params, pre_coeffs)[2])

    def test_small_lambda_is_convex_combination(self, pre_params, pre_coeffs):
        rng = np.random.default_rng(6)
        X, v = random_states(pre_coeffs.box, 1, rng)
        X, v = X[0], v[0]
        X_full, v_full, _ = _step(X, v, pre_params, pre_coeffs)
        X_damped, v_damped = damped_map(X, v, 0.01, pre_params, pre_coeffs)
        assert np.allclose(X_damped, 0.99 * X + 0.01 * X_full,
                           rtol=0, atol=1e-14)
        assert np.allclose(v_damped, 0.99 * v + 0.01 * v_full,
                           rtol=0, atol=1e-14)

    def test_fixed_point_preserved_for_any_lambda(self, pre_params,
                                                  pre_solution,
                                                  pre_coeffs):
        X = pre_solution.state.X.values
        v = pre_solution.state.v.values
        for lam in (0.01, 0.3, 1.0):
            X_out, v_out = damped_map(X, v, lam, pre_params, pre_coeffs)
            diff = max(np.abs(X_out - X).max(), np.abs(v_out - v).max())
            assert diff < 1e-8


class TestLipschitzBound:
    """The one-step map obeys the stated constant on random pairs in the box."""

    @pytest.mark.parametrize("calibration", ["pre", "post", "constant"])
    def test_undamped_bound_on_random_pairs(self, calibration, pre_params,
                                            post_hazards, constant_params,
                                            beta_pair):
        if calibration == "pre":
            params = pre_params
        elif calibration == "constant":
            params = constant_params
        else:
            beta_hat, _ = beta_pair
            params = ModelParams(beta_hat=beta_hat, delta=0.025, theta=0.5,
                                 u=0.0012, hazards=post_hazards)
        coeffs = compute_affine_coefficients(params.hazards, params.beta,
                                             params.u)
        kappa = (params.beta + (coeffs.A_max / coeffs.A_min)
                 * (params.beta + coeffs.Wstar))
        rng = np.random.default_rng(7)
        X1, v1 = random_states(coeffs.box, 1000, rng)
        X2, v2 = random_states(coeffs.box, 1000, rng)
        TX1, Tv1, _ = _step(X1, v1, params, coeffs)
        TX2, Tv2, _ = _step(X2, v2, params, coeffs)
        ratios = pair_dist(TX1, Tv1, TX2, Tv2) / pair_dist(X1, v1, X2, v2)
        assert np.all(ratios <= kappa)


class TestOutputs:
    def test_cutoff_at_upper_support_kills_trade(self, pre_params, pre_coeffs):
        X, v = np.full(12, pre_coeffs.box.X_lo), np.full(12, 0.5)
        # at e = v no house sells, Q = max(0, v - e) = 0, and the seller's
        # share of the surplus vanishes from the price
        beta, theta, u = pre_params.beta, pre_params.theta, pre_params.u
        P = _prices(X, v, v.copy(), pre_params, pre_coeffs)
        expected = (1.0 - theta) * u / (1.0 - beta) + theta * (beta * X + u)
        assert np.abs(P - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_zero_bargaining_weight_gives_flat_price(self, beta_pair,
                                                     pre_hazards):
        beta_hat, beta = beta_pair
        params = ModelParams(beta_hat=beta_hat, delta=0.025, theta=0.0,
                             u=0.5, hazards=pre_hazards)
        coeffs = compute_affine_coefficients(pre_hazards, beta, 0.5)
        rng = np.random.default_rng(8)
        X = rng.uniform(coeffs.box.X_lo, coeffs.box.X_hi, 12)
        v = rng.uniform(coeffs.box.v_lo, coeffs.box.v_hi, 12)
        _, P, _ = outputs_at(X, v, params, coeffs)
        expected = 0.5 / (1.0 - beta)
        assert np.abs(P - expected).max() < 1e-12 * expected

    def test_transactions_never_negative(self, pre_params, pre_coeffs):
        rng = np.random.default_rng(9)
        X, v = random_states(pre_coeffs.box, 50, rng)
        for i in range(50):
            Q, _, _ = outputs_at(X[i], v[i], pre_params, pre_coeffs)
            assert np.all(Q >= 0.0)


def _step_reference(X, v, params, coeffs):
    """Reference map: np.roll, np.clip and the original operation order."""
    beta, u = params.beta, params.u
    phi = params.hazards.survival.values
    A = coeffs.A.values
    D = coeffs.continuation_weights(X)
    X_next = np.roll(X, -1, axis=-1)
    eps = (beta * X_next + u - D) / A
    eps_bar = np.clip(eps, 0.0, v)
    v_new = 1.0 - phi + phi * np.roll(eps_bar, 1, axis=-1)
    gap = v - eps_bar
    X_new = beta * X_next + u + 0.5 * A * gap * gap / np.maximum(v, coeffs.box.v_lo)
    return X_new, v_new, eps_bar


def _outputs_reference(X, v, eps, params, coeffs):
    beta, u, theta = params.beta, params.u, params.theta
    A = coeffs.A.values
    Q = np.maximum(0.0, v - eps)
    X_next = np.roll(X, -1)
    P = ((1.0 - theta) * u / (1.0 - beta)
         + theta * (beta * X_next + u)
         + theta * 0.5 * A * (v - eps))
    return Q, P


def same_bits(a, b):
    """Bit-for-bit equality, so that -0.0 and 0.0 differ too."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestKernelMatchesReference:
    """The kernel keeps the reference formulas' operations, order and bits."""

    def check(self, X, v, params, coeffs):
        got = _step(X, v, params, coeffs)
        want = _step_reference(X, v, params, coeffs)
        for g, w in zip(got, want):
            assert same_bits(g, w)

    def test_start_point(self, pre_params, pre_coeffs):
        X = np.full(12, pre_coeffs.box.X_lo)
        v = pre_params.hazards.hazard.values.copy()
        self.check(X, v, pre_params, pre_coeffs)

    def test_random_batch(self, pre_params, pre_coeffs):
        X, v = random_states(pre_coeffs.box, 200, np.random.default_rng(10))
        self.check(X, v, pre_params, pre_coeffs)

    def test_clamp_binding_at_both_ends(self, pre_params, pre_coeffs):
        box = pre_coeffs.box
        X = np.where(np.arange(12) % 2 == 0, box.X_lo, box.X_hi)
        v = np.linspace(box.v_lo, box.v_hi, 12)
        raw = ((pre_params.beta * np.roll(X, -1) + pre_params.u
                - pre_coeffs.continuation_weights(X)) / pre_coeffs.A.values)
        assert np.any(raw < 0.0) and np.any(raw > v)
        self.check(X, v, pre_params, pre_coeffs)

    def test_outputs(self, pre_params, pre_coeffs):
        X, v = random_states(pre_coeffs.box, 20, np.random.default_rng(11))
        for i in range(20):
            Q, P, eps = outputs_at(X[i], v[i], pre_params, pre_coeffs)
            Q_ref, P_ref = _outputs_reference(X[i], v[i], eps, pre_params,
                                              pre_coeffs)
            assert same_bits(Q, Q_ref)
            assert same_bits(P, P_ref)
