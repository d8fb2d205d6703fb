"""Solver: oracles, uniqueness, equivariance, endogenous u, benchmark."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thickmarket import (
    ConvergenceError,
    DomainError,
    HazardProfile,
    ModelParams,
    SolverConfig,
    compute_affine_coefficients,
    compute_outputs,
    hazards_from_shares,
    solve_equilibrium,
    solve_with_endogenous_u,
)
from thickmarket import solver
from thickmarket.calibrate import normalize_shares
from thickmarket.fixtures import (
    DEFAULT_RENT_PRICE_RATIO,
    SIPP_POST_RAW,
    SIPP_PRE_RAW,
    load_biannual_benchmark,
)
from thickmarket.mapping import EquilibriumState, _step
from thickmarket.workflows import replicate_biannual, solve_calibration


def defect(X, v, params, coeffs):
    """Sup-norm fixed-point defect |T(X, v) - (X, v)| over X and v."""
    X_new, v_new, _ = _step(X, v, params, coeffs)
    return float(max(np.abs(X_new - X).max(), np.abs(v_new - v).max()))


def random_calibration(i):
    """Shares ~ Dirichlet(3 x SIPP table), pre and post alternating;
    eta ~ U(0.07, 0.12)."""
    rng = np.random.default_rng([2026, i])
    base = SIPP_PRE_RAW if i % 2 == 0 else SIPP_POST_RAW
    shares = normalize_shares(rng.dirichlet(3.0 * np.asarray(base)))
    return shares, float(rng.uniform(0.07, 0.12))


def count_steps(monkeypatch):
    """Route solver._step through a counter; returns the list it fills."""
    calls = []

    def counting_step(*args):
        calls.append(None)
        return _step(*args)

    monkeypatch.setattr(solver, "_step", counting_step)
    return calls


def stop_bound(solution):
    """The solver's stopping bound 1e-12 * max(1, |(X, v)|) in sup norm."""
    z = np.concatenate((solution.state.X.values, solution.state.v.values))
    return 1e-12 * max(1.0, np.abs(z).max())


class TestConstantHazardOracle:
    def test_matches_scalar_bisection(self, constant_params, scalar_oracle,
                                      constant_solution):
        sol = constant_solution
        eps, v, X = scalar_oracle(0.991, constant_params.beta,
                                  constant_params.u)
        assert np.abs(sol.state.epsilon.values - eps).max() < 1e-6
        assert np.abs(sol.state.v.values - v).max() < 1e-6
        assert np.abs(sol.state.X.values - X).max() < 1e-6

    def test_solution_is_month_invariant(self, constant_solution):
        sol = constant_solution
        assert np.ptp(sol.state.X.values) < 1e-9
        assert np.ptp(sol.state.v.values) < 1e-9


class TestConvergenceContract:
    def test_final_residual_below_tolerance(self, pre_params, pre_solution):
        sol = pre_solution
        assert sol.final_residual <= stop_bound(sol)
        coeffs = compute_affine_coefficients(pre_params.hazards,
                                             pre_params.beta, pre_params.u)
        assert defect(sol.state.X.values, sol.state.v.values, pre_params,
                      coeffs) == sol.final_residual

    def test_initial_guess_is_not_a_fixed_point(self, pre_params, pre_coeffs):
        from thickmarket.solver import _initial_point
        X, v = _initial_point(pre_params, pre_coeffs, SolverConfig())
        assert defect(X, v, pre_params, pre_coeffs) > 0.0

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
            solve_equilibrium(pre_params, SolverConfig(max_iterations=3))
        assert err.value.residual is not None
        assert err.value.residual > 0

    def test_iterations_count_every_map_evaluation(self, monkeypatch,
                                                   pre_params):
        calls = count_steps(monkeypatch)
        sol = solve_equilibrium(pre_params, SolverConfig())
        assert sol.iterations == len(calls) <= 50

    def test_budget_covers_every_evaluation(self, pre_params, pre_solution):
        needed = pre_solution.iterations
        sol = solve_equilibrium(pre_params, SolverConfig(max_iterations=needed))
        assert sol.iterations == needed
        with pytest.raises(ConvergenceError, match="map evaluations"):
            solve_equilibrium(pre_params,
                              SolverConfig(max_iterations=needed - 1))

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", -5),
    ])
    def test_empty_budget_or_tolerance_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            SolverConfig(**{field: value})


def _reference_loop(params, lam=0.9, tol=1e-12, max_iterations=100_000):
    """The damped iteration (X, v) += lam*(T(X, v) - (X, v)) on separate
    arrays from the cold start, stopped at max|T - id| < tol, written here
    without the solver. Returns the state and the prices at its limit.

    lam = 0.9 lies above lambda_bar, so convergence is checked by the
    residual alone; it keeps each solve to a few hundred steps.
    """
    coeffs = compute_affine_coefficients(params.hazards, params.beta, params.u)
    X = np.full(params.period, coeffs.box.X_lo)
    v = params.hazards.hazard.values.copy()
    for _ in range(max_iterations):
        X_new, v_new, _ = _step(X, v, params, coeffs)
        if max(np.abs(X_new - X).max(), np.abs(v_new - v).max()) < tol:
            state = EquilibriumState.from_arrays(X, v, params, coeffs)
            return state, compute_outputs(state, params, coeffs)[1]
        X += lam * (X_new - X)
        v += lam * (v_new - v)
    raise AssertionError("reference loop did not converge")


def assert_matches_reference(solution, params, tol=1e-9):
    state, P = _reference_loop(params)
    for attr in ("X", "v", "epsilon"):
        assert np.abs(getattr(state, attr).values
                      - getattr(solution.state, attr).values).max() <= tol
    assert np.abs(P.values - solution.P.values).max() <= tol


def two_season_params():
    doc = load_biannual_benchmark()
    return ModelParams(beta_hat=doc["beta_hat"], delta=doc["delta"],
                       theta=doc["theta"], u=doc["u"],
                       hazards=HazardProfile.from_survival(
                           np.asarray(doc["survival"])))


class TestFusedLoopMatchesReference:
    """Fixed-u Newton reaches the damped reference loop's limit and leaves
    its inputs alone."""

    def test_fixed_u_newton_matches_reference_loop(self, pre_params,
                                                   pre_solution,
                                                   constant_params,
                                                   constant_solution,
                                                   beta_pair):
        assert_matches_reference(pre_solution, pre_params)
        assert_matches_reference(constant_solution, constant_params)
        params = two_season_params()
        assert_matches_reference(solve_equilibrium(params), params)
        for i in range(20):
            params = ModelParams(
                beta_hat=beta_pair[0], delta=0.025, theta=0.5, u=0.0014,
                hazards=hazards_from_shares(*random_calibration(i)))
            solution = solve_equilibrium(params)
            assert solution.final_residual <= stop_bound(solution)
            assert_matches_reference(solution, params)

    def test_caller_start_arrays_not_mutated(self, pre_params, pre_coeffs):
        X0 = np.full(12, pre_coeffs.box.X_hi)
        v0 = np.full(12, pre_coeffs.box.v_hi)
        config = SolverConfig(initial_X=X0, initial_v=v0)
        sol = solve_equilibrium(pre_params, config)
        assert np.all(X0 == pre_coeffs.box.X_hi)
        assert np.all(v0 == pre_coeffs.box.v_hi)
        assert not np.shares_memory(sol.state.X.values, sol.state.v.values)
        assert not np.shares_memory(sol.state.X.values, X0)

    def test_fixture_hazards_not_mutated(self, pre_params):
        before = pre_params.hazards.hazard.values.copy()
        solve_equilibrium(pre_params, SolverConfig())
        assert np.array_equal(pre_params.hazards.hazard.values, before)


class TestUniquenessAndSymmetry:
    def test_two_starts_reach_same_fixed_point(self, pre_params, pre_coeffs,
                                               pre_solution):
        """Starts at all four corners of the box reach one point."""
        box = pre_coeffs.box
        for X0, v0 in itertools.product((box.X_lo, box.X_hi),
                                        (box.v_lo, box.v_hi)):
            sol = solve_equilibrium(pre_params, SolverConfig(
                initial_X=np.full(12, X0), initial_v=np.full(12, v0)))
            diff = max(
                np.abs(pre_solution.state.X.values - sol.state.X.values).max(),
                np.abs(pre_solution.state.v.values - sol.state.v.values).max())
            assert diff <= 1e-12

    def test_damping_does_not_move_the_limit(self, pre_params, pre_solution):
        a = pre_solution   # lam = 0.01
        b = solve_equilibrium(pre_params, SolverConfig(lam=0.005))
        diff = max(np.abs(a.state.X.values - b.state.X.values).max(),
                   np.abs(a.state.v.values - b.state.v.values).max())
        assert diff < 1e-4

    def test_bitwise_determinism(self, pre_params, pre_solution):
        a = pre_solution
        b = solve_equilibrium(pre_params, SolverConfig())
        assert np.array_equal(a.state.X.values, b.state.X.values)
        assert np.array_equal(a.state.v.values, b.state.v.values)
        assert np.array_equal(a.P.values, b.P.values)
        assert a.iterations == b.iterations

    def test_rotating_hazards_rotates_solution(self, pre_params,
                                               pre_solution):
        k = 5
        rotated = ModelParams(
            beta_hat=pre_params.beta_hat, delta=pre_params.delta,
            theta=pre_params.theta, u=pre_params.u,
            hazards=pre_params.hazards.rotated(k))
        base = pre_solution
        rot = solve_equilibrium(rotated, SolverConfig())
        for attr in ("X", "v", "epsilon"):
            ref = getattr(base.state, attr).values
            got = getattr(rot.state, attr).values
            assert np.abs(np.roll(ref, k) - got).max() < 1e-6
        assert np.abs(np.roll(base.Q.values, k) - rot.Q.values).max() < 1e-6
        assert np.abs(np.roll(base.P.values, k) - rot.P.values).max() < 1e-6


class TestFixedPointIdentities:
    def test_reservation_condition(self, pre_params, pre_solution,
                                   pre_coeffs):
        st = pre_solution.state
        D = pre_coeffs.continuation_weights(st.X.values)
        lhs = pre_coeffs.A.values * st.epsilon.values + D
        rhs = pre_params.beta * np.roll(st.X.values, -1) + pre_params.u
        assert np.abs(lhs - rhs).max() < 1e-6

    def test_vacancy_law(self, pre_params, pre_solution):
        phi = pre_params.hazards.survival.values
        st = pre_solution.state
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


@pytest.fixture(scope="module")
def newton_solves():
    """50 endogenous-u solves, each with the map evaluations it made."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        calls = count_steps(mp)
        for i in range(50):
            calls.clear()
            solution, u, params = solve_calibration(*random_calibration(i))
            runs.append((solution, u, params, len(calls)))
    return runs


@pytest.fixture()
def pre_seeded_at_u1(beta_pair, pre_hazards):
    """SIPP pre-2021 parameters with the service flow seeded at u = 1, as
    the workflows seed the endogenous-u solve."""
    beta_hat, _ = beta_pair
    return ModelParams(beta_hat=beta_hat, delta=0.025, theta=0.5, u=1.0,
                       hazards=pre_hazards)


class TestNewtonEndogenousU:
    def test_residual_of_the_full_system(self, newton_solves):
        for solution, u, params, _ in newton_solves:
            assert defect(solution.state.X.values, solution.state.v.values,
                          params, solution.coeffs) <= 1e-12
            target = DEFAULT_RENT_PRICE_RATIO * solution.P.mean() / 12.0
            assert abs(target - u) <= 1e-12

    def test_iterations_count_every_map_evaluation(self, newton_solves):
        for solution, _, _, steps in newton_solves:
            assert solution.iterations == steps <= 50

    def test_matches_tight_damped_fixed_u_solve(self, newton_solves):
        for solution, _, params, _ in newton_solves:
            assert_matches_reference(solution, params)

    @staticmethod
    def check_direction(params, coeffs, ratio):
        """J dz = -g, with J dz taken by central differences of G along dz
        at random points of the box and, when ``ratio`` is given, u within
        a factor 2 of the fixture's (the price formula restated here)."""
        n = 12
        beta, theta, A = params.beta, params.theta, coeffs.A.values
        jac = solver._jacobian_blocks(params, coeffs, ratio)

        def G(z):
            if ratio is None:
                X, v = z[:n], z[n:]
                X_new, v_new, eps = _step(X, v, params, coeffs)
                return np.r_[X_new - X, v_new - v], eps
            X, v, u = z[:n], z[n:-1], z[-1]
            X_new, v_new, eps = _step(X, v, params.with_u(u), coeffs)
            P = ((1.0 - theta) * u / (1.0 - beta)
                 + theta * (beta * np.roll(X, -1) + u)
                 + theta * 0.5 * A * (v - eps))
            return np.r_[X_new - X, v_new - v, ratio * P.mean() / 12.0 - u], eps

        rng = np.random.default_rng(12)
        box, h = coeffs.box, 1e-7
        for _ in range(100):
            z = np.r_[rng.uniform(box.X_lo, box.X_hi, n),
                      rng.uniform(box.v_lo, box.v_hi, n)]
            if ratio is not None:
                z = np.r_[z, params.u * rng.uniform(0.5, 2.0)]
            g, eps = G(z)
            dz = solver._newton_direction(z, eps, g, params, coeffs, jac)
            J_dz = (G(z + h * dz)[0] - G(z - h * dz)[0]) / (2.0 * h)
            assert np.abs(J_dz + g).max() <= 1e-6 * np.abs(g).max()

    def test_direction_solves_the_linearized_system(self, pre_params,
                                                   pre_coeffs):
        self.check_direction(pre_params, pre_coeffs, DEFAULT_RENT_PRICE_RATIO)

    def test_direction_solves_the_linearized_system_at_fixed_u(
            self, pre_params, pre_coeffs):
        self.check_direction(pre_params, pre_coeffs, None)

    def test_forced_fallback_reaches_same_point(self, monkeypatch,
                                                pre_seeded_at_u1,
                                                sipp_pre_endogenous):
        newton = solver._newton_direction
        flipped = []

        def uphill_first(*args):
            dz = newton(*args)
            if len(flipped) < 3:
                flipped.append(None)
                return -dz    # the line search cannot decrease |G| along it
            return dz

        monkeypatch.setattr(solver, "_newton_direction", uphill_first)
        calls = count_steps(monkeypatch)
        solution, u = solve_with_endogenous_u(pre_seeded_at_u1, SolverConfig())
        reference, u_ref = sipp_pre_endogenous
        assert len(flipped) == 3
        assert solution.iterations == len(calls)
        # each damped step is followed by one evaluation at its new point
        assert solution.iterations >= reference.iterations + 3
        assert abs(u - u_ref) <= 1e-12 * u_ref
        for attr in ("X", "v"):
            assert np.abs(getattr(solution.state, attr).values
                          - getattr(reference.state, attr).values
                          ).max() <= 1e-12

    @pytest.mark.parametrize("budget", [1, 5])
    def test_small_budget_raises(self, pre_seeded_at_u1, budget):
        with pytest.raises(ConvergenceError, match="map evaluations"):
            solve_with_endogenous_u(pre_seeded_at_u1,
                                    SolverConfig(max_iterations=budget))

    def test_budget_covers_every_evaluation(self, pre_seeded_at_u1,
                                            sipp_pre_endogenous):
        needed = sipp_pre_endogenous[0].iterations
        solution, _ = solve_with_endogenous_u(
            pre_seeded_at_u1, SolverConfig(max_iterations=needed))
        assert solution.iterations == needed
        with pytest.raises(ConvergenceError):
            solve_with_endogenous_u(pre_seeded_at_u1,
                                    SolverConfig(max_iterations=needed - 1))


def test_workflows_import_leaves_scipy_unloaded():
    """scipy costs about half a second to import; the solve path needs none."""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, thickmarket.workflows; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
