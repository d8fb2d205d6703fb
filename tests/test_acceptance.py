"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 9 needs user-supplied market data (see the environment variables
in its docstring) and is skipped when the files are not provided.
"""

import json
import os
import time

import numpy as np
import pytest

from thickmarket import (
    HazardProfile,
    ModelParams,
    SolverConfig,
    compute_affine_coefficients,
    hazards_from_shares,
    normalize_shares,
    seasonal_deviation,
    solve_kappa,
    solve_with_endogenous_u,
)
from thickmarket.dataio import deflate_and_index, read_monthly_csv, to_panel
from thickmarket.fixtures import (
    DEFAULT_DELTA,
    DEFAULT_THETA,
    load_biannual_benchmark,
    shares_fixture,
)
from thickmarket.mapping import _step
from thickmarket.seastats import (
    SeasonalComponents,
    annual_mean_deviation,
    chow_scan,
    directional_contrast,
    fit_seasonal_shift,
    joint_F_test,
    seasonal_delta,
)
from thickmarket.workflows import replicate_biannual

MONTH = {name: i + 1 for i, name in enumerate(
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"])}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def timed_sipp_solutions(beta_pair, pre_hazards, post_hazards):
    """Fresh endogenous-u solves of both calibrations, individually timed."""
    beta_hat, _ = beta_pair
    out = {}
    for name, hz in (("pre", pre_hazards), ("post", post_hazards)):
        params = ModelParams(beta_hat=beta_hat, delta=DEFAULT_DELTA,
                             theta=DEFAULT_THETA, u=1.0, hazards=hz)
        t0 = time.perf_counter()
        solution, u = solve_with_endogenous_u(params, SolverConfig())
        out[name] = (solution, u, time.perf_counter() - t0)
    return out


class TestCriterion1:
    def test_biannual_benchmark_replication(self):
        """Two-season benchmark: sale probabilities and stocks within 0.005.

        Conditional: the parameter file reproduces a published bi-annual
        calibration whose inputs come from that study's appendix, not from
        the monthly model's sources.
        """
        try:
            params = load_biannual_benchmark()
        except FileNotFoundError:
            pytest.skip("two-season benchmark parameter file not bundled")
        hz = HazardProfile.from_survival(np.asarray(params["survival"]))
        coeffs = compute_affine_coefficients(hz, params["beta_hat"]
                                             * (1 - params["delta"]),
                                             params["u"])
        lam = 0.9 * coeffs.lambda_bar
        t0 = time.perf_counter()
        rep = replicate_biannual(params, SolverConfig(lam=lam))
        elapsed = time.perf_counter() - t0
        q = np.asarray(rep["sale_probability"])
        v = np.asarray(rep["vacancies"])
        err_q = np.abs(q - [0.25, 0.31]).max()
        err_v = np.abs(v - [0.167, 0.180]).max()
        ok = err_q <= 0.005 and err_v <= 0.005 and elapsed < 1.0
        assert report(
            "criterion 1", ok,
            f"sale prob (w,s)=({q[0]:.4f},{q[1]:.4f}) stocks "
            f"(w,s)=({v[0]:.4f},{v[1]:.4f}); max errors q={err_q:.2g} "
            f"v={err_v:.2g} (tol 0.005); runtime {elapsed:.2f}s (<1s)")


class TestCriterion2:
    def test_peak_months(self, timed_sipp_solutions):
        """Pre-2021 price deviation peaks in June; post-2021 in April."""
        sol_pre, _, t_pre = timed_sipp_solutions["pre"]
        sol_post, _, t_post = timed_sipp_solutions["post"]
        peak_pre = int(np.argmax(seasonal_deviation(sol_pre.P.values))) + 1
        peak_post = int(np.argmax(seasonal_deviation(sol_post.P.values))) + 1
        ok = (peak_pre == MONTH["Jun"] and peak_post == MONTH["Apr"]
              and t_pre < 30.0 and t_post < 30.0)
        assert report(
            "criterion 2", ok,
            f"price peaks: pre=month {peak_pre} (want 6), post=month "
            f"{peak_post} (want 4); solve times {t_pre:.1f}s/{t_post:.1f}s "
            "(<30s each)")


class TestCriterion3:
    def test_amplitude_bands(self, timed_sipp_solutions):
        """Price deviations in [-9, +10] containing [-4, +4]; volume >= 4x."""
        sol_pre, _, _ = timed_sipp_solutions["pre"]
        sol_post, _, _ = timed_sipp_solutions["post"]
        dev_p_pre = seasonal_deviation(sol_pre.P.values)
        dev_p_post = seasonal_deviation(sol_post.P.values)
        dev_q_pre = seasonal_deviation(sol_pre.Q.values)
        dev_q_post = seasonal_deviation(sol_post.Q.values)

        within = (dev_p_pre.min() >= -9.0 and dev_p_pre.max() <= 10.0
                  and dev_p_post.min() >= -9.0 and dev_p_post.max() <= 10.0)
        contains = dev_p_pre.min() <= -4.0 and dev_p_pre.max() >= 4.0
        ratio_pre = np.ptp(dev_q_pre) / np.ptp(dev_p_pre)
        ratio_post = np.ptp(dev_q_post) / np.ptp(dev_p_post)
        ratios = ratio_pre >= 4.0 and ratio_post >= 4.0
        ok = within and contains and ratios
        assert report(
            "criterion 3", ok,
            f"price range pre [{dev_p_pre.min():.2f}, {dev_p_pre.max():.2f}] "
            f"post [{dev_p_post.min():.2f}, {dev_p_post.max():.2f}] "
            f"(within [-9,10]; pre contains [-4,4]); volume/price amplitude "
            f"ratios {ratio_pre:.1f}/{ratio_post:.1f} (>=4)")


class TestCriterion4:
    def test_spring_shift_direction(self, timed_sipp_solutions):
        """Post vs pre: spring deviations rise, summer deviations fall."""
        sol_pre, _, _ = timed_sipp_solutions["pre"]
        sol_post, _, _ = timed_sipp_solutions["post"]
        spring = [2, 3, 4]   # Mar-May, zero-based
        summer = [5, 6, 7]   # Jun-Aug
        details = []
        ok = True
        for label, pre_s, post_s in (("P", sol_pre.P, sol_post.P),
                                     ("Q", sol_pre.Q, sol_post.Q)):
            d_pre = seasonal_deviation(pre_s.values)
            d_post = seasonal_deviation(post_s.values)
            d_spring = d_post[spring].mean() - d_pre[spring].mean()
            d_summer = d_post[summer].mean() - d_pre[summer].mean()
            ok = ok and d_spring > 0.0 and d_summer < 0.0
            details.append(f"{label}: spring {d_spring:+.2f}pp, "
                           f"summer {d_summer:+.2f}pp")
        assert report("criterion 4", ok,
                      "; ".join(details) + " (want spring>0, summer<0)")


def _draw_calibration(rng):
    phi = rng.uniform(0.97, 0.999, 12)
    beta_hat = rng.uniform(0.94, 0.985)
    u = rng.uniform(0.05, 2.0)
    hz = HazardProfile.from_survival(phi)
    params = ModelParams(beta_hat=beta_hat, delta=0.0, theta=0.5, u=u,
                         hazards=hz)
    coeffs = compute_affine_coefficients(hz, params.beta, u)
    return params, coeffs


class TestCriterion5:
    """Contraction suite: 1000 parameter draws, one random pair each."""

    def test_box_self_mapping(self):
        rng = np.random.default_rng(501)
        t0 = time.perf_counter()
        failures = 0
        for _ in range(1000):
            params, coeffs = _draw_calibration(rng)
            box = coeffs.box
            X = rng.uniform(box.X_lo, box.X_hi, size=(2, 12))
            v = rng.uniform(box.v_lo, box.v_hi, size=(2, 12))
            Xn, vn, _ = _step(X, v, params, coeffs)
            if not (np.all(Xn >= box.X_lo) and np.all(Xn <= box.X_hi)
                    and np.all(vn >= box.v_lo) and np.all(vn <= box.v_hi)):
                failures += 1
        elapsed = time.perf_counter() - t0
        ok = failures == 0 and elapsed < 60.0
        assert report(
            "criterion 5 (box)", ok,
            f"box self-mapping: {failures}/1000 draws violated; "
            f"runtime {elapsed:.1f}s (<60s)")

    def test_damped_contraction_bound(self):
        """The stated damped modulus beta + lam*(A_max/A_min)*(beta+W*).

        At lam = 0.5*lambda_bar this modulus lies below 1 - lam whenever
        (A_max/A_min)*(beta+W*) > 1, while the damped map moves generic
        pairs by at least (1-lam) times their distance in directions the
        one-step map barely reacts to, so the stated inequality cannot
        hold there; see the decisions ledger for the full analysis. The
        check is asserted exactly as specified.
        """
        rng = np.random.default_rng(502)
        t0 = time.perf_counter()
        violations = 0
        worst = 0.0
        for _ in range(1000):
            params, coeffs = _draw_calibration(rng)
            box = coeffs.box
            lam = 0.5 * coeffs.lambda_bar
            kappa_lam = (params.beta + lam * (coeffs.A_max / coeffs.A_min)
                         * (params.beta + coeffs.Wstar))
            X = rng.uniform(box.X_lo, box.X_hi, size=(2, 12))
            v = rng.uniform(box.v_lo, box.v_hi, size=(2, 12))
            TX, Tv, _ = _step(X, v, params, coeffs)
            TlX = (1 - lam) * X + lam * TX
            Tlv = (1 - lam) * v + lam * Tv
            dist_in = max(np.abs(X[0] - X[1]).max(), np.abs(v[0] - v[1]).max())
            dist_out = max(np.abs(TlX[0] - TlX[1]).max(),
                           np.abs(Tlv[0] - Tlv[1]).max())
            ratio = dist_out / dist_in
            worst = max(worst, ratio / kappa_lam)
            if dist_out > kappa_lam * dist_in:
                violations += 1
        elapsed = time.perf_counter() - t0
        ok = violations == 0 and elapsed < 60.0
        assert report(
            "criterion 5 (contraction)", ok,
            f"{violations}/1000 pairs exceed the stated damped modulus "
            f"(worst ratio/bound {worst:.4f}); runtime {elapsed:.1f}s; "
            "the stated bound is unattainable for lam well below "
            "lambda_bar - see decisions ledger")


class TestCriterion6:
    def test_constant_hazard_analytics(self, constant_params, scalar_oracle,
                                       constant_solution):
        """Closed forms at constant hazard and the scalar-system oracle."""
        hz = HazardProfile.from_survival(np.full(12, 0.99))
        coeffs = compute_affine_coefficients(hz, 0.97, 1.0)
        a_expected = 1.0 / (1.0 - 0.97 * 0.99)
        w_expected = 0.97 * 0.01 / (1.0 - 0.97 * 0.99)
        a_err = np.abs(coeffs.A.values / a_expected - 1.0).max()
        w_err = np.abs(coeffs.W.sum(axis=1) / w_expected - 1.0).max()

        sol = constant_solution
        eps, v, X = scalar_oracle(0.991, constant_params.beta,
                                  constant_params.u)
        sol_err = max(np.abs(sol.state.epsilon.values - eps).max(),
                      np.abs(sol.state.v.values - v).max(),
                      np.abs(sol.state.X.values - X).max())
        ok = a_err < 1e-10 and w_err < 1e-10 and sol_err < 1e-6
        assert report(
            "criterion 6", ok,
            f"A rel err {a_err:.2g} (<1e-10), sum-w rel err {w_err:.2g} "
            f"(<1e-10), equilibrium vs bisection oracle {sol_err:.2g} (<1e-6)")


class TestCriterion7:
    def test_kappa_calibration(self):
        """Uniform closed form to 1e-10; product residual < 1e-12 on fixtures."""
        uniform = normalize_shares(np.ones(12))
        worst_closed = 0.0
        for eta in (0.05, 0.083, 0.103, 0.25):
            got = solve_kappa(uniform, eta)
            expected = 12.0 * (1.0 - (1.0 - eta) ** (1.0 / 12.0))
            worst_closed = max(worst_closed, abs(got - expected))
        worst_resid = 0.0
        for shares, eta in (shares_fixture("sipp-pre"),
                            shares_fixture("sipp-post")):
            kappa = solve_kappa(shares, eta)
            product = np.prod(1.0 - kappa * shares.shares.values)
            worst_resid = max(worst_resid, abs(product - (1 - eta)))
        ok = worst_closed < 1e-10 and worst_resid < 1e-12
        assert report(
            "criterion 7", ok,
            f"uniform closed-form error {worst_closed:.2g} (<1e-10); "
            f"fixture product residual {worst_resid:.2g} (<1e-12)")


class TestCriterion8:
    def test_econometric_suite(self):
        """Exact shift recovery, null size in [4%, 7%], Chow argmax."""
        t0 = time.perf_counter()

        months = np.arange(1, 13)
        profile = 4.0 * np.sin(2 * np.pi * months / 12.0)
        profile -= profile.mean()

        # noise-free constructed shift recovered exactly
        shift = np.zeros(12)
        shift[2], shift[5] = 2.0, -2.0
        rows = [(y, m, profile[m - 1] + (shift[m - 1] if y >= 2021 else 0.0))
                for y in range(2013, 2026) for m in range(1, 13)]
        comp = SeasonalComponents(
            years=np.array([r[0] for r in rows]),
            months=np.array([r[1] for r in rows]),
            deviations=np.array([r[2] for r in rows]))
        fit = fit_seasonal_shift(comp, 2021)
        recovery_err = np.abs(fit.mu - shift).max()

        # null rejection rate of the 5% joint F over 1000 replications
        rng = np.random.default_rng(20260809)
        n_years = 200
        years = np.repeat(np.arange(1900, 1900 + n_years), 12)
        sim_months = np.tile(months, n_years)
        gamma = 3.0 * np.sin(2 * np.pi * sim_months / 12.0)
        brk = 1900 + n_years * 3 // 4
        rejections = 0
        for _ in range(1000):
            d = gamma + rng.standard_normal(years.size)
            sim = SeasonalComponents(years=years, months=sim_months,
                                     deviations=d)
            f = fit_seasonal_shift(sim, brk, include_year_effects=False)
            if joint_F_test(f).p_value < 0.05:
                rejections += 1
        rate = rejections / 1000.0

        # Chow scan argmax at the constructed break year
        rng2 = np.random.default_rng(808)
        rows = [(y, m, profile[m - 1] * (3.0 if y >= 2019 else 1.0)
                 + 0.3 * rng2.standard_normal())
                for y in range(2010, 2026) for m in range(1, 13)]
        comp_b = SeasonalComponents(
            years=np.array([r[0] for r in rows]),
            months=np.array([r[1] for r in rows]),
            deviations=np.array([r[2] for r in rows]))
        scan = chow_scan(comp_b, range(2014, 2024))
        argmax_year = scan.best().year

        elapsed = time.perf_counter() - t0
        ok = (recovery_err < 1e-9 and 0.04 <= rate <= 0.07
              and argmax_year == 2019 and elapsed < 120.0)
        assert report(
            "criterion 8", ok,
            f"shift recovery err {recovery_err:.2g} (<1e-9); null rejection "
            f"rate {rate:.3f} (in [0.04, 0.07]); Chow argmax {argmax_year} "
            f"(want 2019); runtime {elapsed:.0f}s (<120s)")


class TestCriterion9:
    """Published-number reproduction on user-supplied market data.

    Provide CSV paths via environment variables:
      THICKMARKET_ZILLOW_PRICES  - median sale price, date,value
      THICKMARKET_ZILLOW_SALES   - sales count, date,value
      THICKMARKET_CPI            - all-items CPI (NSA), date,value
    """

    EXPECTED = {
        "prices": dict(F=2.31, p=0.011, t=2.25, p1=0.013,
                       deltas=(-0.1, 2.1, -1.1, -0.9), chow_2021=1.91),
        "sales": dict(F=2.45, p=0.007, t=2.34, p1=0.010,
                      deltas=(1.2, 6.3, -2.2, -4.6), chow_2021=1.79),
    }

    def test_reproduce_published_tables(self):
        prices_path = os.environ.get("THICKMARKET_ZILLOW_PRICES")
        sales_path = os.environ.get("THICKMARKET_ZILLOW_SALES")
        cpi_path = os.environ.get("THICKMARKET_CPI")
        if not (prices_path and sales_path and cpi_path):
            pytest.skip(
                "user-supplied market data not provided; set "
                "THICKMARKET_ZILLOW_PRICES, THICKMARKET_ZILLOW_SALES, and "
                "THICKMARKET_CPI to run the published-number reproduction")

        cpi = read_monthly_csv(cpi_path)
        series = {
            "prices": deflate_and_index(read_monthly_csv(prices_path), cpi),
            "sales": read_monthly_csv(sales_path),
        }
        ok = True
        details = []
        for name, raw in series.items():
            comp = annual_mean_deviation(to_panel(raw))
            fit = fit_seasonal_shift(comp, 2021)
            joint = joint_F_test(fit)
            contrast = directional_contrast(fit)
            deltas = seasonal_delta(comp, 2021)
            scan = chow_scan(comp, range(2013, 2024))
            chow_2021 = next(e.F for e in scan.entries if e.year == 2021)
            e = self.EXPECTED[name]
            got_deltas = tuple(deltas.values())
            checks = [
                abs(joint.statistic - e["F"]) <= 0.05,
                abs(joint.p_value - e["p"]) <= 0.02,
                abs(contrast.statistic - e["t"]) <= 0.05,
                abs(contrast.p_value - e["p1"]) <= 0.02,
                all(abs(g - w) <= 0.05 for g, w in zip(got_deltas, e["deltas"])),
                abs(chow_2021 - e["chow_2021"]) <= 0.05,
            ]
            ok = ok and all(checks)
            details.append(f"{name}: F={joint.statistic:.2f} "
                           f"p={joint.p_value:.3f} t={contrast.statistic:.2f} "
                           f"chow21={chow_2021:.2f} checks={checks}")
        assert report("criterion 9", ok, "; ".join(details))
