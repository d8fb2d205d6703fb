"""Shared calibrations and solved equilibria for the test suite."""

from __future__ import annotations

import os
import sys

# The suite works on small matrices where BLAS thread pools only add
# contention (orders of magnitude on 2-core CI boxes). BLAS reads these
# once, when numpy loads it, so they are set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402
from thickmarket.affine import compute_affine_coefficients  # noqa: E402
from thickmarket.calibrate import compose_beta, hazards_from_shares  # noqa: E402
from thickmarket.core import HazardProfile, ModelParams  # noqa: E402
from thickmarket.fixtures import (  # noqa: E402
    DEFAULT_DELTA,
    DEFAULT_THETA,
    shares_fixture,
)
from thickmarket.solver import (  # noqa: E402
    SolverConfig,
    solve_equilibrium,
    solve_with_endogenous_u,
)

# One profile for every property test, loaded before any test module builds
# its settings: examples come from a fixed derivation per test, so every run
# checks the same cases, and no deadline, as a first example pays for imports.
# A test's own settings give only max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def pytest_report_header(config):
    pin = " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS)
    if NUMPY_LOADED_BEFORE_PIN:
        pin += " (not applied: numpy was loaded first)"
    return f"BLAS pin: {pin}"


def month_invariant_oracle(phi: float, beta: float, u: float) -> tuple:
    """Bisection on the scalar cutoff equation for a constant-hazard cycle.

    With identical months, the equilibrium solves
        e = (beta*X + u - W*X) / A,  v = 1 - phi + phi*e,
        X = (u + (A/2)(v - e)^2 / v) / (1 - beta),
    where A = 1/(1 - beta*phi) and W = beta(1-phi)/(1-beta*phi). The cutoff
    equation A*e + W*X = beta*X + u has a sign change on [0, 1].
    """
    A = 1.0 / (1.0 - beta * phi)
    W = beta * (1.0 - phi) / (1.0 - beta * phi)

    def x_of(eps):
        v = 1.0 - phi + phi * eps
        return (u + 0.5 * A * (v - eps) ** 2 / v) / (1.0 - beta)

    def g(eps):
        return A * eps - (beta * x_of(eps) + u - W * x_of(eps))

    lo, hi = 0.0, 1.0
    assert g(lo) < 0.0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    v = 1.0 - phi + phi * eps
    return eps, v, x_of(eps)


@pytest.fixture(scope="session")
def scalar_oracle():
    """The independent month-invariant equilibrium oracle, as a callable."""
    return month_invariant_oracle


@pytest.fixture(scope="session")
def beta_pair():
    """(beta_hat, beta) at a 6% annual rate and the default delta."""
    beta_hat = compose_beta(0.06)
    return beta_hat, beta_hat * (1.0 - DEFAULT_DELTA)


@pytest.fixture(scope="session")
def pre_hazards():
    return hazards_from_shares(*shares_fixture("sipp-pre"))


@pytest.fixture(scope="session")
def post_hazards():
    return hazards_from_shares(*shares_fixture("sipp-post"))


@pytest.fixture(scope="session")
def pre_params(beta_pair, pre_hazards):
    beta_hat, _ = beta_pair
    return ModelParams(beta_hat=beta_hat, delta=DEFAULT_DELTA,
                       theta=DEFAULT_THETA, u=0.0014, hazards=pre_hazards)


@pytest.fixture(scope="session")
def pre_coeffs(pre_params):
    return compute_affine_coefficients(pre_params.hazards, pre_params.beta,
                                       pre_params.u)


@pytest.fixture(scope="session")
def constant_params(beta_pair):
    beta_hat, _ = beta_pair
    hazards = HazardProfile.from_survival(np.full(12, 0.991))
    return ModelParams(beta_hat=beta_hat, delta=DEFAULT_DELTA,
                       theta=DEFAULT_THETA, u=0.25, hazards=hazards)


@pytest.fixture(scope="session")
def pre_solution(pre_params):
    """SIPP pre-2021 equilibrium at fixed u."""
    return solve_equilibrium(pre_params, SolverConfig())


@pytest.fixture(scope="session")
def constant_solution(constant_params):
    """Month-invariant equilibrium at fixed u."""
    return solve_equilibrium(constant_params, SolverConfig())


@pytest.fixture(scope="session")
def sipp_pre_endogenous(beta_pair, pre_hazards):
    """Full endogenous-u solve of the pre-2021 calibration."""
    beta_hat, _ = beta_pair
    params = ModelParams(beta_hat=beta_hat, delta=DEFAULT_DELTA,
                         theta=DEFAULT_THETA, u=1.0, hazards=pre_hazards)
    solution, u = solve_with_endogenous_u(params, SolverConfig())
    return solution, u


@pytest.fixture(scope="session")
def sipp_post_endogenous(beta_pair, post_hazards):
    beta_hat, _ = beta_pair
    params = ModelParams(beta_hat=beta_hat, delta=DEFAULT_DELTA,
                         theta=DEFAULT_THETA, u=1.0, hazards=post_hazards)
    solution, u = solve_with_endogenous_u(params, SolverConfig())
    return solution, u
