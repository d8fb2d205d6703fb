"""Solver: oracles, uniqueness, equivariance, endogenous u, benchmark."""

import warnings

import numpy as np
import pytest

from thickmarket import (
    ConvergenceError,
    DomainError,
    HazardProfile,
    ModelParams,
    SolverConfig,
    compute_affine_coefficients,
    solve_equilibrium,
    solve_with_endogenous_u,
)
from thickmarket.fixtures import load_biannual_benchmark
from thickmarket.mapping import _step
from thickmarket.solver import residual
from thickmarket.workflows import replicate_biannual


class TestConstantHazardOracle:
    def test_matches_scalar_bisection(self, constant_params, scalar_oracle):
        sol = solve_equilibrium(constant_params, SolverConfig(tolerance=1e-9))
        eps, v, X = scalar_oracle(0.991, constant_params.beta,
                                  constant_params.u)
        assert np.abs(sol.state.epsilon.values - eps).max() < 1e-6
        assert np.abs(sol.state.v.values - v).max() < 1e-6
        assert np.abs(sol.state.X.values - X).max() < 1e-6

    def test_solution_is_month_invariant(self, constant_params):
        sol = solve_equilibrium(constant_params, SolverConfig(tolerance=1e-9))
        assert np.ptp(sol.state.X.values) < 1e-9
        assert np.ptp(sol.state.v.values) < 1e-9


class TestConvergenceContract:
    def test_final_residual_below_tolerance(self, pre_params, pre_solution_tight):
        sol = solve_equilibrium(pre_params, SolverConfig())
        assert sol.converged
        assert sol.final_residual < 1e-5
        coeffs = compute_affine_coefficients(pre_params.hazards,
                                             pre_params.beta, pre_params.u)
        assert residual(sol.state, pre_params, coeffs) == sol.final_residual

    def test_initial_guess_is_not_a_fixed_point(self, pre_params, pre_coeffs):
        from thickmarket.solver import _initial_point
        X, v = _initial_point(pre_params, pre_coeffs, SolverConfig())
        from thickmarket.mapping import EquilibriumState
        state = EquilibriumState.from_arrays(X, v, pre_params, pre_coeffs)
        assert residual(state, pre_params, pre_coeffs) > 0.0

    def test_residual_decreases_along_iteration(self, pre_params, pre_coeffs):
        X = np.full(12, pre_coeffs.box.X_lo)
        v = pre_params.hazards.hazard.values.copy()
        lam = 0.01
        prev = np.inf
        for t in range(2000):
            Xn, vn, _ = _step(X, v, pre_params, pre_coeffs)
            res = max(np.abs(Xn - X).max(), np.abs(vn - v).max())
            if t > 0:
                assert res <= prev * (1.0 + 1e-12)
            prev = res
            X += lam * (Xn - X)
            v += lam * (vn - v)

    def test_nonconvergence_raises_with_residual(self, pre_params):
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(pre_params, SolverConfig(max_iterations=10))
        assert err.value.residual is not None
        assert err.value.residual > 0

    def test_nonconvergence_partial_solution(self, pre_params):
        sol = solve_equilibrium(pre_params, SolverConfig(max_iterations=10),
                                raise_on_fail=False)
        assert not sol.converged
        assert sol.iterations == 10

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", -5),
        ("u_max_outer_iterations", 0), ("u_outer_tolerance", 0.0),
        ("u_outer_tolerance", -1e-8), ("u_outer_tolerance", float("nan")),
    ])
    def test_empty_budget_or_tolerance_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            SolverConfig(**{field: value})

    def test_warns_above_damping_threshold(self, pre_params, pre_coeffs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_equilibrium(
                pre_params,
                SolverConfig(lam=min(1.0, 2.0 * pre_coeffs.lambda_bar),
                             max_iterations=50),
                raise_on_fail=False)
        assert any("lambda_bar" in str(w.message) for w in caught)


def _reference_loop(params, coeffs, X, v, config):
    """The damped iteration as first written, on separate X and v arrays."""
    X, v = X.copy(), v.copy()
    res = np.inf
    for iterations in range(1, config.max_iterations + 1):
        X_new, v_new, _ = _step(X, v, params, coeffs)
        res = float(max(np.abs(X_new - X).max(), np.abs(v_new - v).max()))
        if res < config.tolerance:
            break
        X += config.lam * (X_new - X)
        v += config.lam * (v_new - v)
    return X, v, res, iterations


class TestFusedLoopMatchesReference:
    """One (X, v) vector follows the two-array trajectory bit for bit."""

    def check(self, params, coeffs, X0, v0, config):
        sol = solve_equilibrium(params, config, raise_on_fail=False)
        X, v, res, iterations = _reference_loop(params, coeffs, X0, v0, config)
        assert np.array_equal(sol.state.X.values, X)
        assert np.array_equal(sol.state.v.values, v)
        assert sol.final_residual == res
        assert sol.iterations == iterations

    def test_cold_start(self, pre_params, pre_coeffs):
        self.check(pre_params, pre_coeffs, np.full(12, pre_coeffs.box.X_lo),
                   pre_params.hazards.hazard.values,
                   SolverConfig(max_iterations=300))

    def test_warm_start_to_convergence(self, pre_params, pre_coeffs,
                                       pre_solution_tight):
        X0 = pre_solution_tight.state.X.values * 1.001
        v0 = pre_solution_tight.state.v.values
        config = SolverConfig(initial_X=X0, initial_v=v0)
        self.check(pre_params, pre_coeffs, X0, v0, config)

    def test_caller_start_arrays_not_mutated(self, pre_params, pre_coeffs):
        X0 = np.full(12, pre_coeffs.box.X_hi)
        v0 = np.full(12, pre_coeffs.box.v_hi)
        config = SolverConfig(initial_X=X0, initial_v=v0, max_iterations=50)
        sol = solve_equilibrium(pre_params, config, raise_on_fail=False)
        assert np.all(X0 == pre_coeffs.box.X_hi)
        assert np.all(v0 == pre_coeffs.box.v_hi)
        assert not np.shares_memory(sol.state.X.values, sol.state.v.values)
        assert not np.shares_memory(sol.state.X.values, X0)

    def test_fixture_hazards_not_mutated(self, pre_params):
        before = pre_params.hazards.hazard.values.copy()
        solve_equilibrium(pre_params, SolverConfig(max_iterations=50),
                          raise_on_fail=False)
        assert np.array_equal(pre_params.hazards.hazard.values, before)


class TestUniquenessAndSymmetry:
    def test_two_starts_reach_same_fixed_point(self, pre_params, pre_coeffs):
        low = solve_equilibrium(pre_params, SolverConfig(tolerance=1e-7))
        high = solve_equilibrium(
            pre_params,
            SolverConfig(tolerance=1e-7,
                         initial_X=np.full(12, pre_coeffs.box.X_hi),
                         initial_v=np.full(12, pre_coeffs.box.v_hi)))
        diff = max(np.abs(low.state.X.values - high.state.X.values).max(),
                   np.abs(low.state.v.values - high.state.v.values).max())
        assert diff < 1e-4

    def test_damping_does_not_move_the_limit(self, pre_params):
        a = solve_equilibrium(pre_params, SolverConfig(tolerance=1e-7, lam=0.01))
        b = solve_equilibrium(pre_params, SolverConfig(tolerance=1e-7, lam=0.005))
        diff = max(np.abs(a.state.X.values - b.state.X.values).max(),
                   np.abs(a.state.v.values - b.state.v.values).max())
        assert diff < 1e-4

    def test_bitwise_determinism(self, pre_params):
        a = solve_equilibrium(pre_params, SolverConfig())
        b = solve_equilibrium(pre_params, SolverConfig())
        assert np.array_equal(a.state.X.values, b.state.X.values)
        assert np.array_equal(a.state.v.values, b.state.v.values)
        assert np.array_equal(a.P.values, b.P.values)
        assert a.iterations == b.iterations

    def test_rotating_hazards_rotates_solution(self, pre_params):
        k = 5
        rotated = ModelParams(
            beta_hat=pre_params.beta_hat, delta=pre_params.delta,
            theta=pre_params.theta, u=pre_params.u,
            hazards=pre_params.hazards.rotated(k))
        base = solve_equilibrium(pre_params, SolverConfig(tolerance=1e-9))
        rot = solve_equilibrium(rotated, SolverConfig(tolerance=1e-9))
        for attr in ("X", "v", "epsilon"):
            ref = getattr(base.state, attr).values
            got = getattr(rot.state, attr).values
            assert np.abs(np.roll(ref, k) - got).max() < 1e-6
        assert np.abs(np.roll(base.Q.values, k) - rot.Q.values).max() < 1e-6
        assert np.abs(np.roll(base.P.values, k) - rot.P.values).max() < 1e-6


class TestFixedPointIdentities:
    def test_reservation_condition(self, pre_params, pre_solution_tight,
                                   pre_coeffs):
        st = pre_solution_tight.state
        D = pre_coeffs.continuation_weights(st.X.values)
        lhs = pre_coeffs.A.values * st.epsilon.values + D
        rhs = pre_params.beta * np.roll(st.X.values, -1) + pre_params.u
        assert np.abs(lhs - rhs).max() < 1e-6

    def test_vacancy_law(self, pre_params, pre_solution_tight):
        phi = pre_params.hazards.survival.values
        st = pre_solution_tight.state
        implied = 1.0 - phi + phi * np.roll(st.epsilon.values, 1)
        assert np.abs(implied - st.v.values).max() < 1e-6


class TestEndogenousU:
    def test_rent_price_condition_holds(self, sipp_pre_endogenous):
        solution, u = sipp_pre_endogenous
        target = 0.03 * solution.P.mean() / 12.0
        assert abs(u - target) / u < 1e-7
        assert u > 0.0

    def test_theta_zero_is_detected_as_degenerate(self, beta_pair, pre_hazards):
        beta_hat, _ = beta_pair
        params = ModelParams(beta_hat=beta_hat, delta=0.025, theta=0.0,
                             u=1.0, hazards=pre_hazards)
        with pytest.raises(ConvergenceError, match="collapsed"):
            solve_with_endogenous_u(params, SolverConfig())

    def test_u_damping_reaches_same_point(self, beta_pair, pre_hazards,
                                          sipp_pre_endogenous):
        beta_hat, _ = beta_pair
        params = ModelParams(beta_hat=beta_hat, delta=0.025, theta=0.5,
                             u=1.0, hazards=pre_hazards)
        _, u_damped = solve_with_endogenous_u(
            params, SolverConfig(u_damping=0.5))
        _, u_ref = sipp_pre_endogenous
        assert abs(u_damped - u_ref) / u_ref < 1e-6


class TestBiannualBenchmark:
    def test_reproduces_published_steady_state(self):
        params = load_biannual_benchmark()
        report = replicate_biannual(params)
        assert report["targets"]["within_tolerance"]
        q = np.asarray(report["sale_probability"])
        v = np.asarray(report["vacancies"])
        assert np.abs(q - [0.25, 0.31]).max() <= 0.005
        assert np.abs(v - [0.167, 0.180]).max() <= 0.005

    def test_symmetric_two_season_hazards_give_equal_seasons(self):
        params = {"beta_hat": 0.9713, "delta": 0.0, "theta": 0.5, "u": 0.05,
                  "survival": [0.95, 0.95], "labels": ["winter", "summer"]}
        report = replicate_biannual(params)
        assert abs(report["vacancies"][0] - report["vacancies"][1]) < 1e-7
        assert abs(report["sale_probability"][0]
                   - report["sale_probability"][1]) < 1e-7

    def test_missing_fields_named(self):
        from thickmarket import DataError
        with pytest.raises(DataError, match="survival"):
            replicate_biannual({"beta_hat": 0.97, "delta": 0.0})
