"""Solver: oracles, uniqueness, equivariance, endogenous u, benchmark."""

import ast
import collections
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickmarket import mapping, solver
from thickmarket.affine import compute_affine_coefficients
from thickmarket.calibrate import compose_beta, hazards_from_shares, normalize_shares
from thickmarket.core import HazardProfile, ModelParams, PeriodicSeries
from thickmarket.errors import ConvergenceError, DataError, DomainError
from thickmarket.fixtures import (
    DEFAULT_RENT_PRICE_RATIO,
    SIPP_POST_RAW,
    SIPP_PRE_RAW,
    load_biannual_benchmark,
)
from thickmarket.mapping import EquilibriumState, _step
from thickmarket.solver import SolverConfig, solve_equilibrium, solve_with_endogenous_u
from thickmarket.workflows import (
    deviation_summary,
    replicate_biannual,
    solve_calibration,
    solve_hazards,
)


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


def residual(z, params, coeffs, ratio=None):
    """(G(z), eps): T(X, v; u) - (X, v) and, when ``ratio`` is given, with
    z = (X, v, u), the u equation ratio*mean(P)/12 - u (the price formula
    restated here), and the clamped cutoffs of the evaluation."""
    n = params.period
    X, v = z[:n], z[n:2 * n]
    if ratio is None:
        X_new, v_new, eps = _step(X, v, params, coeffs)
        return np.r_[X_new - X, v_new - v], eps
    beta, theta, u = params.beta, params.theta, z[-1]
    X_new, v_new, eps = _step(X, v, params.with_u(u), coeffs)
    P = ((1.0 - theta) * u / (1.0 - beta)
         + theta * (beta * np.roll(X, -1) + u)
         + theta * 0.5 * coeffs.A.values * (v - eps))
    return np.r_[X_new - X, v_new - v, ratio * P.mean() / 12.0 - u], eps


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
        """The flat model's steady state is not that of seasonal hazards."""
        z = solver._initial_point(pre_params, SolverConfig())
        assert z.shape == (24,)
        assert defect(z[:12], z[12:], pre_params, pre_coeffs) > 0.0

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
        with pytest.raises(ConvergenceError, match="last residual") as err:
            solve_equilibrium(pre_params, SolverConfig(max_iterations=3))
        residual = float(str(err.value).rpartition("last residual ")[2][:-1])
        assert residual > 0

    def test_iterations_count_every_map_evaluation(self, monkeypatch,
                                                   pre_params):
        calls = count_steps(monkeypatch)
        sol = solve_equilibrium(pre_params, SolverConfig())
        assert sol.iterations == len(calls) <= 50

    def test_no_map_evaluation_outside_the_count(self, monkeypatch,
                                                 pre_params, pre_seeded_at_u1):
        """Every evaluation goes through the counted ``solver._step``."""
        def uncounted(*args):
            raise AssertionError("map evaluated outside the solver's count")

        monkeypatch.setattr(mapping, "_step", uncounted)
        assert solve_equilibrium(pre_params).final_residual >= 0.0
        solution, u = solve_with_endogenous_u(pre_seeded_at_u1)
        assert u > 0.0 and solution.iterations > 0

    def test_budget_covers_every_evaluation(self, pre_params, pre_solution):
        needed = pre_solution.iterations
        sol = solve_equilibrium(pre_params, SolverConfig(max_iterations=needed))
        assert sol.iterations == needed
        with pytest.raises(ConvergenceError, match="map evaluations"):
            solve_equilibrium(pre_params,
                              SolverConfig(max_iterations=needed - 1))

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", -5), ("lam", 0.0),
        ("lam", 1.5), ("lam", float("nan")), ("rent_price_ratio", 0.0),
        ("rent_price_ratio", -0.03), ("rent_price_ratio", float("nan")),
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
        X_new, v_new, eps = _step(X, v, params, coeffs)
        if max(np.abs(X_new - X).max(), np.abs(v_new - v).max()) < tol:
            state = EquilibriumState(PeriodicSeries(X), PeriodicSeries(v),
                                     PeriodicSeries(eps))
            return state, mapping._prices(X, v, eps, params, coeffs)
        X += lam * (X_new - X)
        v += lam * (v_new - v)
    raise AssertionError("reference loop did not converge")


def assert_matches_reference(solution, params, tol=1e-9):
    state, P = _reference_loop(params)
    for attr in ("X", "v", "epsilon"):
        assert np.abs(getattr(state, attr).values
                      - getattr(solution.state, attr).values).max() <= tol
    assert np.abs(P - solution.P.values).max() <= tol


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
        assert SolverConfig().lam == 0.01
        a = pre_solution
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

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rotating_hazards_rotates_solution(self, seed):
        """On eq-sweep-like calibrations, in both u modes and for every
        shift k, rotating phi by k months rotates X, v, the cutoffs, P and
        Q by k and leaves u unchanged, within 1e-12 relative."""
        shares, eta, *_ = property_calibration(seed, wide=False)
        phi = hazards_from_shares(shares, eta).survival.values
        for u_fixed in (None, 0.0014):
            base, u, _ = solve_hazards(HazardProfile.from_survival(phi),
                                       u_fixed=u_fixed)
            for k in range(1, 12):
                rot, u_rot, _ = solve_hazards(
                    HazardProfile.from_survival(np.roll(phi, k)), u_fixed=u_fixed)
                assert abs(u_rot - u) <= 1e-12 * u
                for want, got in ((base.state.X, rot.state.X),
                                  (base.state.v, rot.state.v),
                                  (base.state.epsilon, rot.state.epsilon),
                                  (base.P, rot.P), (base.Q, rot.Q)):
                    np.testing.assert_allclose(got.values, np.roll(want.values, k),
                                               rtol=1e-12, atol=0.0)


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
        target = 0.03 * solution.P.values.mean() / 12.0
        assert abs(u - target) / u < 1e-7
        assert u > 0.0

    def test_theta_zero_is_detected_as_degenerate(self, beta_pair, pre_hazards):
        """At theta = 0 every price is u/(1 - beta): no u is pinned."""
        beta_hat, _ = beta_pair
        params = ModelParams(beta_hat=beta_hat, delta=0.025, theta=0.0,
                             u=1.0, hazards=pre_hazards)
        with pytest.raises(DomainError, match="theta = 0.*--u-fixed"):
            solve_with_endogenous_u(params, SolverConfig())

    @pytest.mark.parametrize("above", [0.0, 1e-9, 0.5, 5.0])
    def test_rent_ratio_without_positive_u_is_domain_error(
            self, monkeypatch, pre_seeded_at_u1, above):
        """Every price is at least u/(1 - beta), so u = ratio*mean(P)/12 has
        no positive root once ratio >= 12*(1 - beta); no map is evaluated."""
        calls = count_steps(monkeypatch)
        bound = 12.0 * (1.0 - pre_seeded_at_u1.beta)
        config = SolverConfig(rent_price_ratio=bound + above)
        with pytest.raises(DomainError, match=r"< 12\*\(1 - beta\) = 0\.35"):
            solve_with_endogenous_u(pre_seeded_at_u1, config)
        assert calls == []

    def test_vanishing_theta_collapses_u(self, beta_pair, pre_hazards):
        """Just above theta = 0 the solve runs, and u collapses to zero."""
        beta_hat, _ = beta_pair
        params = ModelParams(beta_hat=beta_hat, delta=0.025, theta=1e-300,
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
    """SIPP pre-2021 parameters with u = 1, as the workflows pass them to
    the endogenous-u solve. Every such solve starts u at the flat model's
    value, so this u only sets the floor below which u has collapsed."""
    beta_hat, _ = beta_pair
    return ModelParams(beta_hat=beta_hat, delta=0.025, theta=0.5, u=1.0,
                       hazards=pre_hazards)


class TestNewtonEndogenousU:
    def test_residual_of_the_full_system(self, newton_solves):
        for solution, u, params, _ in newton_solves:
            coeffs = compute_affine_coefficients(params.hazards, params.beta,
                                                 params.u)
            assert defect(solution.state.X.values, solution.state.v.values,
                          params, coeffs) <= 1e-12
            target = DEFAULT_RENT_PRICE_RATIO * solution.P.values.mean() / 12.0
            assert abs(target - u) <= 1e-12

    def test_stepped_solves_end_at_round_off(self, newton_solves, pre_solution):
        """A solve that stepped to meet the 1e-12 test takes one more full
        Newton step while its residual is above 1e-15 * max(1, |z|)."""
        params = two_season_params()
        solutions = [s for s, *_ in newton_solves] + [
            pre_solution, solve_equilibrium(params)]
        for solution in solutions:
            assert solution.final_residual <= 1e-3 * stop_bound(solution)

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
        a factor 2 of the fixture's."""
        n = 12
        jac = solver._jacobian_blocks(params, coeffs, ratio)

        def G(z):
            return residual(z, params, coeffs, ratio)

        rng = np.random.default_rng(12)
        box, h = coeffs.box, 1e-7
        for _ in range(100):
            z = np.r_[rng.uniform(box.X_lo, box.X_hi, n),
                      rng.uniform(box.v_lo, box.v_hi, n)]
            if ratio is not None:
                z = np.r_[z, params.u * rng.uniform(0.5, 2.0)]
            g, eps = G(z)
            dz = solver._newton_direction(solver._jacobian(z, eps, jac), g)
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

    def test_singular_jacobian_takes_the_damped_step(self, monkeypatch,
                                                     pre_params, pre_solution):
        """Where J is singular ``_newton_direction`` returns None, and the
        loop takes one damped step z += lam*G(z) and goes on from there."""
        jacobian, newton = solver._jacobian, solver._newton_direction
        directions = []

        def singular_first(z, eps, jac):
            J = jacobian(z, eps, jac)
            return J if directions else np.zeros_like(J)

        def recording(J, g):
            directions.append(newton(J, g))
            return directions[-1]

        monkeypatch.setattr(solver, "_jacobian", singular_first)
        monkeypatch.setattr(solver, "_newton_direction", recording)
        calls = count_steps(monkeypatch)
        solution = solve_equilibrium(pre_params)
        assert directions[0] is None
        assert all(dz is not None for dz in directions[1:])
        assert solution.iterations == len(calls) > pre_solution.iterations
        for attr in ("X", "v"):
            assert np.abs(getattr(solution.state, attr).values
                          - getattr(pre_solution.state, attr).values
                          ).max() <= 1e-12

    @pytest.mark.parametrize("budget", [1, 4])
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


# clamp state: (raw cutoff in units of v_lo, v as a multiple of the raw cutoff)
CLAMP_STATES = {"inner": (1.5, 2.0), "zero": (-1.0, -2.0), "at_v": (4.0, 0.5),
                "low": (0.25, 2.0)}


def clamped_point(params, coeffs, states, endogenous):
    """z with month m's cutoff in clamp state ``states[m]``, every margin a
    fifth of v_lo or more: 'inner' 0 < e < v with v > v_lo, 'zero' a raw
    cutoff below 0, 'at_v' one above v with v > v_lo, 'low' 0 < e < v < v_lo.
    X is solved from the raw cutoffs (beta X_{m+1} + u - D_m)/A_m."""
    n, beta, u, v_lo = params.period, params.beta, params.u, coeffs.box.v_lo
    A = coeffs.A.values
    target, v_factor = np.array([CLAMP_STATES[s] for s in states]).T
    X = np.linalg.solve(beta * np.roll(np.eye(n), 1, axis=1) - coeffs._D_matrix,
                        A * v_lo * target - u)
    raw = (beta * np.roll(X, -1) + u - coeffs.continuation_weights(X)) / A
    v = v_factor * raw
    z = np.r_[X, v, u] if endogenous else np.r_[X, v]
    eps = residual(z, params, coeffs, DEFAULT_RENT_PRICE_RATIO
                   if endogenous else None)[1]
    margin = 0.2 * v_lo
    for s, e, vm, r in zip(states, eps, v, raw):
        assert {"inner": margin <= e <= vm - margin and vm >= v_lo + margin,
                "zero": e == 0.0 and r <= -margin,
                "at_v": e == vm and r >= vm + margin and vm >= v_lo + margin,
                "low": margin <= e <= vm - margin and vm <= v_lo - margin}[s]
    return z, eps


def clamp_patterns(n):
    """Every pattern of states at n <= 2; at n = 12 the four rotations of
    the states, repeated."""
    states = tuple(CLAMP_STATES)
    if n <= 2:
        return list(itertools.product(states, repeat=n))
    return [(states[k:] + states[:k]) * (n // 4) for k in range(4)]


class TestJacobianEntries:
    """``_jacobian`` equals central differences of G column by column, with
    every month's cutoff held inside one clamp state, in both u modes and
    at n = 1, where a v row's month behind is the month itself."""

    @pytest.mark.parametrize("endogenous", [False, True],
                             ids=["fixed-u", "endogenous-u"])
    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_matches_central_differences(self, beta_pair, n, endogenous):
        phi = [0.9] if n == 1 else np.linspace(0.8, 0.95, n)
        params = ModelParams(beta_hat=beta_pair[0], delta=0.025, theta=0.5,
                             u=0.0014, hazards=HazardProfile.from_survival(phi))
        coeffs = compute_affine_coefficients(params.hazards, params.beta,
                                             params.u)
        ratio = DEFAULT_RENT_PRICE_RATIO if endogenous else None
        jac = solver._jacobian_blocks(params, coeffs, ratio)
        h = 1e-6
        for states in clamp_patterns(n):
            z, eps = clamped_point(params, coeffs, states, endogenous)
            J = solver._jacobian(z, eps, jac)
            assert J.shape == (z.size, z.size)
            for j in range(z.size):
                step = np.zeros(z.size)
                step[j] = h * max(1.0, abs(z[j]))
                column = (residual(z + step, params, coeffs, ratio)[0]
                          - residual(z - step, params, coeffs, ratio)[0]
                          ) / (2.0 * step[j])
                np.testing.assert_allclose(J[:, j], column, rtol=1e-6,
                                           atol=1e-8, err_msg=f"{states} {j}")

    @pytest.mark.parametrize("endogenous", [False, True],
                             ids=["fixed-u", "endogenous-u"])
    def test_one_month_warm_start_reaches_the_cold_answer(
            self, monkeypatch, beta_pair, endogenous):
        """A start off the flat point builds Jacobians at n = 1."""
        params = ModelParams(beta_hat=beta_pair[0], delta=0.025, theta=0.5,
                             u=0.0014,
                             hazards=HazardProfile.from_survival([0.9]))
        solve = solve_with_endogenous_u if endogenous else solve_equilibrium
        cold = solve(params)
        cold = cold[0] if endogenous else cold
        built = []
        jacobian = solver._jacobian
        monkeypatch.setattr(solver, "_jacobian",
                            lambda *args: built.append(None) or jacobian(*args))
        warm = solve(params, SolverConfig(
            max_iterations=50, initial_X=1.5 * cold.state.X.values,
            initial_v=0.5 * cold.state.v.values))
        warm = warm[0] if endogenous else warm
        assert cold.iterations == 1 and len(built) >= 2
        assert abs(warm.u - cold.u) <= 1e-12 * cold.u
        for attr in ("X", "v", "epsilon"):
            np.testing.assert_allclose(getattr(warm.state, attr).values,
                                       getattr(cold.state, attr).values,
                                       rtol=1e-12, atol=0.0)


class TestNewtonCost:
    """Newton's cost pinned as counts: a Jacobian that slows convergence
    without moving the fixed point changes them."""

    @pytest.mark.parametrize("u_fixed", [None, 0.0014],
                             ids=["endogenous-u", "fixed-u"])
    def test_cold_solves_take_five_evaluations_and_four_jacobians(
            self, monkeypatch, u_fixed):
        """Every cold solve of 200 eq-sweep-like calibrations takes 5 map
        evaluations and builds 4 Jacobians, the finishing step's included."""
        calls, built = count_steps(monkeypatch), []
        jacobian = solver._jacobian
        monkeypatch.setattr(solver, "_jacobian",
                            lambda *args: built.append(None) or jacobian(*args))
        counts = collections.Counter()
        for i in range(200):
            calls.clear()
            built.clear()
            solution, _, _ = solve_calibration(*random_calibration(i),
                                               u_fixed=u_fixed)
            counts[solution.iterations, len(calls), len(built)] += 1
        assert counts == {(5, 5, 4): 200}


class TestOnePass:
    """Every solve builds the coefficients once and runs Newton once, and
    a ratio that pins no u stops it before any map evaluation."""

    def test_one_coefficient_build_and_one_newton_run(
            self, monkeypatch, pre_params, pre_seeded_at_u1):
        builds, runs = [], []
        build, newton = solver.compute_affine_coefficients, solver._newton
        monkeypatch.setattr(solver, "compute_affine_coefficients",
                            lambda *args: builds.append(None) or build(*args))
        monkeypatch.setattr(solver, "_newton",
                            lambda *args: runs.append(None) or newton(*args))
        solve_equilibrium(pre_params)
        assert len(builds) == len(runs) == 1
        builds.clear()
        runs.clear()
        solution, u = solve_with_endogenous_u(pre_seeded_at_u1)
        assert len(builds) == len(runs) == 1
        assert solution.u == u

    # 12*(1 - beta) is 0.35667 at the fixture's beta
    @pytest.mark.parametrize("theta, ratio", [
        (0.5, 0.0), (0.5, -0.03), (0.5, float("nan")), (0.5, 0.3567),
        (0.5, 5.0), (0.0, DEFAULT_RENT_PRICE_RATIO)])
    def test_ratio_without_positive_u_stops_before_newton(
            self, monkeypatch, pre_seeded_at_u1, theta, ratio):
        calls = count_steps(monkeypatch)
        params = ModelParams(beta_hat=pre_seeded_at_u1.beta_hat,
                             delta=pre_seeded_at_u1.delta, theta=theta, u=1.0,
                             hazards=pre_seeded_at_u1.hazards)
        with pytest.raises(DomainError, match="theta = 0" if theta == 0.0
                           else r"0 < rent_price_ratio < 12\*\(1 - beta\)"):
            solve_equilibrium(params, ratio=ratio)
        assert calls == []


def endogenous_oracle(phi, beta, theta, ratio, scalar_oracle):
    """u of a constant-hazard cycle by bisection of ratio*P(u)/12 - u, with
    the month-invariant oracle at each u. Returns (eps, v, X, u)."""
    A = 1.0 / (1.0 - beta * phi)

    def excess(u):
        eps, v, X = scalar_oracle(phi, beta, u)
        P = ((1.0 - theta) * u / (1.0 - beta) + theta * (beta * X + u)
             + theta * 0.5 * A * (v - eps))
        return ratio * P / 12.0 - u

    lo, hi = 0.0, 0.5
    assert excess(hi) < 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    u = 0.5 * (lo + hi)
    return (*scalar_oracle(phi, beta, u), u)


def property_calibration(seed, wide):
    """Shares, eta, theta, annual rate and rent ratio from one seed: those
    of ``eq-sweep`` (Dirichlet(3 x SIPP table), eta ~ U(0.07, 0.12), the
    model's defaults), or with ``wide`` a Dirichlet concentration in
    [0.5, 30], eta in [0.01, 0.5], theta in [0.05, 0.95], an annual rate
    in [1%, 15%] and a rent ratio in [0.005, 0.2]."""
    rng = np.random.default_rng(seed)
    base = np.asarray(SIPP_PRE_RAW if seed % 2 == 0 else SIPP_POST_RAW)
    if not wide:
        shares = normalize_shares(rng.dirichlet(3.0 * base))
        return shares, rng.uniform(0.07, 0.12), 0.5, 0.06, DEFAULT_RENT_PRICE_RATIO
    shares = normalize_shares(rng.dirichlet(rng.uniform(0.5, 30.0) * base))
    return (shares, rng.uniform(0.01, 0.5), rng.uniform(0.05, 0.95),
            rng.uniform(0.01, 0.15), rng.uniform(0.005, 0.2))


class TestFlatStart:
    """Cold solves start at the steady state of the flat model, the same
    market with the annual survival spread evenly over the cycle."""

    def test_constant_hazards_start_at_the_fixed_point(self, monkeypatch,
                                                       constant_params):
        """One evaluation, at fixed u and with endogenous u alike."""
        calls = count_steps(monkeypatch)
        assert solve_equilibrium(constant_params).iterations == len(calls) == 1
        calls.clear()
        solution, _ = solve_with_endogenous_u(constant_params.with_u(1.0))
        assert solution.iterations == len(calls) == 1

    @pytest.mark.parametrize("u", [1e-4, 0.0014, 0.25, 0.9])
    def test_root_matches_bisection_at_fixed_u(self, constant_params,
                                               scalar_oracle, u):
        """Covers both branches of the root formula (b > 0 at small u)."""
        params = constant_params.with_u(u)
        X_bar, e_bar, u_bar = solver._flat_steady_state(params, None)
        eps, _, X = scalar_oracle(0.991, params.beta, u)
        assert u_bar == u
        assert abs(e_bar - eps) <= 1e-13
        assert abs(X_bar - X) <= 1e-13 * X

    @pytest.mark.parametrize("theta, ratio", [(0.5, 0.03), (0.1, 0.2),
                                              (0.9, 0.005)])
    def test_root_matches_bisection_with_endogenous_u(self, constant_params,
                                                      scalar_oracle, theta,
                                                      ratio):
        params = ModelParams(beta_hat=constant_params.beta_hat,
                             delta=constant_params.delta, theta=theta, u=1.0,
                             hazards=constant_params.hazards)
        X_bar, e_bar, u_bar = solver._flat_steady_state(params, ratio)
        eps, _, X, u = endogenous_oracle(0.991, params.beta, theta, ratio,
                                         scalar_oracle)
        assert abs(u_bar - u) <= 1e-12 * u
        assert abs(e_bar - eps) <= 1e-12
        assert abs(X_bar - X) <= 1e-12 * X

    def test_market_shut_at_u_of_one(self, constant_params):
        """At a fixed u >= 1 every cutoff clamps at v = 1 and nothing sells."""
        X_bar, e_bar, _ = solver._flat_steady_state(constant_params.with_u(2.0),
                                                    None)
        assert e_bar == 1.0
        assert X_bar == 2.0 / (1.0 - constant_params.beta)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
    def test_same_point_as_box_corners_in_few_evaluations(self, seed, wide):
        """From the flat start, a solve takes at most 8 evaluations and no
        fallback step, and ends within 1e-10 of the solves from the box's
        corners: for endogenous u the corner (u/(1 - beta), 1 - phi_m) at
        u = 1 that cold solves started from before, for the fixed-u solve
        at the solved u all four. A fallback is taken when no direction
        exists or when all eight cuts of one fail, which alone costs nine
        evaluations; so the spy on directions and the count rule it out."""
        shares, eta, theta, rate, ratio = property_calibration(seed, wide)
        beta_hat = compose_beta(rate)
        seeded = ModelParams(beta_hat=beta_hat, delta=0.025, theta=theta,
                             u=1.0, hazards=hazards_from_shares(shares, eta))
        config = SolverConfig(rent_price_ratio=ratio)
        newton = solver._newton_direction
        directions = []

        def spy(*args):
            directions.append(newton(*args))
            return directions[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_newton_direction", spy)
            calls = count_steps(mp)
            solution, u = solve_with_endogenous_u(seeded, config)
            assert solution.iterations == len(calls) <= 8
            calls.clear()
            fixed = solve_equilibrium(seeded.with_u(u), config)
            assert fixed.iterations == len(calls) <= 8
        assert all(dz is not None for dz in directions)

        def distance(a, b):
            return max(np.abs(a.state.X.values - b.state.X.values).max(),
                       np.abs(a.state.v.values - b.state.v.values).max())

        # every endogenous solve starts u at the flat model's value, so the
        # corner start at u = 1 goes to Newton directly
        coeffs = compute_affine_coefficients(seeded.hazards, seeded.beta, 1.0)
        corner = np.r_[np.full(12, 1.0 / (1.0 - seeded.beta)),
                       seeded.hazards.hazard.values, 1.0]
        z, *_ = solver._newton(corner, seeded, coeffs, config, ratio)
        assert np.abs(z[:24] - np.r_[solution.state.X.values,
                                     solution.state.v.values]).max() <= 1e-10
        assert abs(u - z[-1]) <= 1e-10 * u
        box = compute_affine_coefficients(seeded.hazards, seeded.beta, u).box
        for X0, v0 in itertools.product((box.X_lo, box.X_hi),
                                        (box.v_lo, box.v_hi)):
            other = solve_equilibrium(seeded.with_u(u), replace(
                config, initial_X=np.full(12, X0), initial_v=np.full(12, v0)))
            assert distance(fixed, other) <= 1e-10

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
    def test_every_start_in_the_box_reaches_the_flat_start_answer(self, seed,
                                                                  wide):
        """The paper's equilibrium is unique in the box K. From starts drawn
        uniformly in K at the solved u, Newton at that fixed u and Newton
        with u unknown (started at the solved u, the floor set by a seeded
        u of 1 as the workflows set it) both end within 1e-10 of the cold
        solve; no start ends in a false collapse of u."""
        shares, eta, theta, rate, ratio = property_calibration(seed, wide)
        seeded = ModelParams(beta_hat=compose_beta(rate), delta=0.025,
                             theta=theta, u=1.0,
                             hazards=hazards_from_shares(shares, eta))
        config = SolverConfig(rent_price_ratio=ratio)
        cold, u = solve_with_endogenous_u(seeded, config)
        answer = np.r_[cold.state.X.values, cold.state.v.values]
        coeffs = compute_affine_coefficients(seeded.hazards, seeded.beta, u)
        box, rng = coeffs.box, np.random.default_rng(seed)
        for _ in range(4):
            start = np.r_[rng.uniform(box.X_lo, box.X_hi, 12),
                          rng.uniform(box.v_lo, box.v_hi, 12)]
            fixed, *_ = solver._newton(start, seeded.with_u(u), coeffs, config)
            free, *_ = solver._newton(np.r_[start, u], seeded, coeffs, config,
                                      ratio)
            assert np.abs(fixed - answer).max() <= 1e-10
            assert np.abs(free[:24] - answer).max() <= 1e-10
            assert abs(free[-1] - u) <= 1e-10 * u


class TestStartRule:
    """A start is cold or a full (X, v) pair, and an unknown u always starts
    at the flat model's value, so ``params.u`` only sets the u floor."""

    @pytest.mark.parametrize("given", ["initial_X", "initial_v"])
    def test_lone_start_array_is_domain_error(self, monkeypatch, pre_params,
                                              given):
        calls = count_steps(monkeypatch)
        config = SolverConfig(**{given: np.ones(12)})
        for solve in (solve_equilibrium, solve_with_endogenous_u):
            with pytest.raises(DomainError, match="both initial_X and"):
                solve(pre_params, config)
        assert calls == []

    def test_warm_endogenous_start_takes_u_from_flat_model(
            self, pre_seeded_at_u1, sipp_pre_endogenous):
        """Warm from its own answer, a solve takes fewer evaluations than
        cold and ends at the same point; the seeded u changes nothing."""
        cold, u_cold = sipp_pre_endogenous
        config = SolverConfig(initial_X=cold.state.X.values,
                              initial_v=cold.state.v.values)
        warm, u = solve_with_endogenous_u(pre_seeded_at_u1, config)
        assert warm.iterations < cold.iterations == 5
        assert abs(u - u_cold) <= 1e-14 * u_cold
        for attr in ("X", "v", "epsilon"):
            a, b = (getattr(s.state, attr).values for s in (warm, cold))
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
        other, u_other = solve_with_endogenous_u(
            pre_seeded_at_u1.with_u(u_cold), config)
        assert u_other == u and other.iterations == warm.iterations
        assert np.array_equal(other.state.X.values, warm.state.X.values)


class TestFiniteGuard:
    """A non-finite map evaluation never comes back as an answer: a trial
    with one is rejected, and the start or a damped step with one ends the
    solve in ``ConvergenceError``."""

    @pytest.mark.parametrize("endogenous", [False, True])
    def test_non_finite_start_raises_at_once(self, monkeypatch, pre_params,
                                             pre_seeded_at_u1, endogenous):
        """Before the guard, a NaN residual at the start counted as
        converged and came back as a one-evaluation solution."""
        calls = []

        def poisoned(*args):
            calls.append(None)
            X_new, v_new, eps = _step(*args)
            return X_new * np.nan, v_new, eps

        monkeypatch.setattr(solver, "_step", poisoned)
        solve = solve_with_endogenous_u if endogenous else solve_equilibrium
        with pytest.raises(ConvergenceError, match="evaluation 1 .* not finite"):
            solve(pre_seeded_at_u1 if endogenous else pre_params)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=120)
    @given(i=st.integers(0, 19), k=st.integers(1, 6), part=st.integers(0, 2),
           month=st.integers(0, 11), endogenous=st.booleans(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_injected_non_finite_value_raises_or_is_shed(
            self, i, k, part, month, endogenous, bad):
        """A NaN or inf put into X, v or eps of evaluation k either ends the
        solve within one more evaluation or is shed on the way to the
        clean answer; no non-finite residual or array is returned."""
        shares, eta = random_calibration(i)
        _, u, _ = solve_calibration(shares, eta)
        model = {} if endogenous else {"u_fixed": u}
        clean, u_clean, _ = solve_calibration(shares, eta, **model)
        calls = []

        def poisoned(*args):
            out = _step(*args)   # fresh arrays
            calls.append(None)
            if len(calls) == k:
                out[part][month] = bad
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_step", poisoned)
            try:
                solution, u_got, _ = solve_calibration(shares, eta, **model)
            except ConvergenceError as exc:
                assert "finite" in str(exc) and k <= len(calls) <= k + 1
                return
        assert solution.iterations == len(calls)
        assert solution.final_residual <= stop_bound(solution)
        assert abs(u_got - u_clean) <= 1e-10 * u_clean
        for got, want in ((solution.state.X, clean.state.X),
                          (solution.state.v, clean.state.v),
                          (solution.state.epsilon, clean.state.epsilon),
                          (solution.Q, clean.Q), (solution.P, clean.P)):
            assert np.isfinite(got.values).all()
            scale = max(1.0, np.abs(want.values).max())
            assert np.abs(got.values - want.values).max() <= 1e-10 * scale


class TestChecksAtTheEdge:
    """Values are checked where they enter; what the solve derives from
    them is held in plain read-only arrays and never checked again."""

    LAZY = {"Wstar", "A_min", "A_max", "lambda_bar", "box"}

    def test_eq_sweep_item_runs_no_series_or_finiteness_check(
            self, monkeypatch):
        """An eq-sweep item, a calibration, an endogenous-u solve and a
        deviation summary, runs no ``PeriodicSeries`` check and no
        ``np.isfinite`` (the solve's own guard tests one residual with
        ``math.isfinite``), and computes none of the bounds that only
        tests read."""
        shares, eta = random_calibration(3)   # normalize_shares: the edge
        checks, built = [], []
        post_init, isfinite = PeriodicSeries.__post_init__, np.isfinite
        build = solver.compute_affine_coefficients
        monkeypatch.setattr(PeriodicSeries, "__post_init__", lambda self: (
            checks.append("series"), post_init(self))[1])
        monkeypatch.setattr(np, "isfinite", lambda *args: (
            checks.append("isfinite"), isfinite(*args))[1])
        monkeypatch.setattr(solver, "compute_affine_coefficients",
                            lambda *args: built.append(build(*args)) or built[-1])
        solution, _, _ = solve_calibration(shares, eta)
        deviation_summary(solution)
        assert checks == []
        assert len(built) == 1 and not self.LAZY & vars(built[0]).keys()
        PeriodicSeries(np.ones(3))   # the counters see a check
        assert checks == ["series", "isfinite"]

    def test_solved_arrays_are_read_only(self, sipp_pre_endogenous):
        solution, _ = sipp_pre_endogenous
        for series in (solution.state.X, solution.state.v,
                       solution.state.epsilon, solution.Q, solution.P):
            assert not series.values.flags.writeable

    @pytest.mark.parametrize("u", [1.0, 2.0, 1e306])
    def test_fixed_u_of_one_or_more_is_refused(self, monkeypatch,
                                               pre_hazards, u):
        """At u >= 1 no house sells; the refusal names the CLI flag and
        comes before any map evaluation."""
        calls = count_steps(monkeypatch)
        with pytest.raises(DomainError, match="--u-fixed .* shuts the market"):
            solve_hazards(pre_hazards, u_fixed=u)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("given", ["initial_X", "initial_v"])
    def test_non_finite_warm_start_is_domain_error(self, monkeypatch,
                                                   pre_params, given, bad):
        calls = count_steps(monkeypatch)
        start = {"initial_X": np.full(12, 0.3), "initial_v": np.full(12, 0.1)}
        start[given][5] = bad
        for solve in (solve_equilibrium, solve_with_endogenous_u):
            with pytest.raises(DomainError, match=f"{given} must be finite"):
                solve(pre_params, SolverConfig(**start))
        assert calls == []


    @pytest.mark.parametrize("given", ["initial_X", "initial_v"])
    @pytest.mark.parametrize("shape", [(11,), (13,), (12, 1)])
    def test_warm_start_of_the_wrong_shape_is_domain_error(self, monkeypatch,
                                                            pre_params, given, shape):
        calls = count_steps(monkeypatch)
        start = {"initial_X": np.full(12, 0.3), "initial_v": np.full(12, 0.1)}
        start[given] = np.full(shape, start[given][0])
        for solve in (solve_equilibrium, solve_with_endogenous_u):
            with pytest.raises(DomainError, match=rf"^{given} must have shape \(12,\)$"):
                solve(pre_params, SolverConfig(**start))
        assert calls == []


def scipy_modules_after_import(module):
    """Top two levels of the scipy modules a fresh interpreter holds after
    importing ``module``."""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {module}; "
            "print(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules "
            "if m.split('.')[0] == 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip())


def test_workflows_import_leaves_scipy_unloaded():
    """scipy costs about half a second to import; the solve path needs none."""
    assert scipy_modules_after_import("thickmarket.workflows") == []


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    """The CLI loads no scipy module: seastats computes its F and t tails
    with ``math`` (``scipy.special`` alone takes about 0.22 s to import) and
    names the columns of a rank-deficient design from an SVD of its R.
    ``tests/test_cli.py::test_every_command_runs_without_scipy`` runs every
    command with scipy refused."""
    assert scipy_modules_after_import("thickmarket.cli") == []


def test_seastats_import_leaves_scipy_unloaded():
    assert scipy_modules_after_import("thickmarket.seastats") == []


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
        with pytest.raises(DataError, match="survival"):
            replicate_biannual({"beta_hat": 0.97, "delta": 0.0})
