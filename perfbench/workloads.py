"""The three benchmark workloads: inputs, items, checks and trace hooks.

Every input is a function of (seed, item index) alone, so a seed always
gives the same inputs. Each workload names the program modules its
worker imports before the first item (what ``setup_s`` times), the call
that makes one item, the check that decides whether the item's answer is
right, and the hooks the traced run installs. The checks compare against
references computed here, independently of the program's own code paths.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Published SIPP percent-of-annual-moves tables (Jan..Dec), pre and post,
# and the default model parameters. They are copied rather than imported
# so that the inputs, and the reference the checks use, stay the same on
# every commit the benchmark compares.
SIPP_PRE = (4.7, 4.7, 7.1, 8.1, 8.9, 12.7, 11.4, 11.3, 10.0, 7.4, 7.1, 6.5)
SIPP_POST = (5.5, 5.6, 8.9, 9.5, 9.8, 9.7, 9.5, 11.4, 9.9, 7.0, 6.5, 6.8)
ANNUAL_RATE, DELTA, THETA, RENT_RATIO = 0.06, 0.025, 0.5, 0.03

CLI_COMMANDS = ("calibrate", "solve", "shift", "scan")


# ---------------------------------------------------------------------------
# independent references


def kappa_for(shares: np.ndarray, eta: float) -> float:
    """Root of prod(1 - kappa*s) = 1 - eta on (0, 1/max s)."""
    from scipy.optimize import brentq
    return brentq(lambda k: np.prod(1.0 - k * shares) - (1.0 - eta),
                  0.0, (1.0 - 1e-12) / shares.max(), xtol=1e-15, rtol=1e-15)


class ReferenceModel:
    """The periodic equilibrium map and prices, restated from the model.

    A_m = sum_s beta^s prod_{j<=s} phi_{m+j} / (1 - beta^n Phi), and
    w_{m,r} = beta^r prod_{j<r} phi_{m+j} (1 - phi_{m+r}) / (1 - beta^n Phi).
    """

    def __init__(self, phi: np.ndarray, beta: float, theta: float = THETA):
        n = phi.size
        denom = 1.0 - beta ** n * np.prod(phi)
        self.A = np.empty(n)
        self.Dmat = np.zeros((n, n))
        for m in range(n):
            ahead = phi[(m + 1 + np.arange(n)) % n]
            prods = np.concatenate(([1.0], np.cumprod(ahead[:-1])))
            self.A[m] = np.sum(beta ** np.arange(n) * prods) / denom
            w = beta ** np.arange(1, n + 1) * prods * (1.0 - ahead) / denom
            self.Dmat[m, (m + 1 + np.arange(n)) % n] = w
        self.phi, self.beta, self.theta = phi, beta, theta
        self.v_lo = 1.0 - phi.max()

    def cutoffs(self, X, v, u):
        eps = (self.beta * np.roll(X, -1) + u - self.Dmat @ X) / self.A
        return np.clip(eps, 0.0, v)

    def step(self, X, v, u):
        eps = self.cutoffs(X, v, u)
        gap = v - eps
        X_new = (self.beta * np.roll(X, -1) + u
                 + 0.5 * self.A * gap * gap / np.maximum(v, self.v_lo))
        v_new = 1.0 - self.phi + self.phi * np.roll(eps, 1)
        return X_new, v_new

    def outputs(self, X, v, u):
        eps = self.cutoffs(X, v, u)
        b, t = self.beta, self.theta
        P = ((1 - t) * u / (1 - b) + t * (b * np.roll(X, -1) + u)
             + t * 0.5 * self.A * (v - eps))
        return np.maximum(0.0, v - eps), P

    def fixed_point(self, X, v, u, endogenous_u: bool):
        """Polish (X, v) to T(X, v; u) = (X, v) with ``scipy.optimize.root``;
        with ``endogenous_u`` u is a 25th unknown pinned by
        u = ratio * mean(P) / 12. Raises when the polish fails."""
        from scipy.optimize import root
        n = X.size

        def G(z):
            uu = z[2 * n] if endogenous_u else u
            X_new, v_new = self.step(z[:n], z[n:2 * n], uu)
            parts = [X_new - z[:n], v_new - z[n:2 * n]]
            if endogenous_u:
                _, P = self.outputs(z[:n], z[n:2 * n], uu)
                parts.append([RENT_RATIO * P.mean() / 12.0 - uu])
            return np.concatenate(parts)

        z0 = np.concatenate([X, v, [u]] if endogenous_u else [X, v])
        res = root(G, z0, method="hybr", options={"xtol": 1e-14})
        defect = float(np.abs(G(res.x)).max())
        if not defect < 1e-12:
            raise ArithmeticError(f"reference polish failed: defect {defect:.3g}")
        z = res.x
        return z[:n], z[n:2 * n], (float(z[2 * n]) if endogenous_u else u)


def reference_model(shares: np.ndarray, eta: float) -> ReferenceModel:
    """The reference map for normalized move shares and annual rate eta."""
    beta = (1.0 + ANNUAL_RATE) ** (-1.0 / 12.0) * (1.0 - DELTA)
    return ReferenceModel(1.0 - kappa_for(shares, eta) * shares, beta)


def seasonal_dev(x: np.ndarray) -> np.ndarray:
    return 100.0 * (x - x.mean()) / x.mean()


class Workload:
    """What a worker needs to run, check and trace one kind of item."""

    name: str
    program_modules: tuple[str, ...]    # imported before the first item
    trace_items: int                    # items in one pass of a traced run
    required_spans: tuple[str, ...]     # layers that must record spans
    hooks: tuple[tuple[str, str, str], ...]   # (module, name, span)

    @classmethod
    def prepare(cls, seed: int, workdir: Path) -> None:
        """Write input files into ``workdir`` before any worker starts."""


# ---------------------------------------------------------------------------
# eq-sweep


class EqSweep(Workload):
    """One item: solve_calibration (endogenous u), then deviation_summary."""

    name = "eq-sweep"
    program_modules = ("thickmarket.workflows",)
    trace_items = 1
    required_spans = ("calibrate", "solver.outer", "solver.inner", "affine",
                      "mapping.step")
    hooks = (
        ("thickmarket.workflows", "hazards_from_shares", "calibrate"),
        ("thickmarket.workflows", "solve_with_endogenous_u", "solver.outer"),
        ("thickmarket.workflows", "solve_equilibrium", "solver.inner"),
        ("thickmarket.solver", "solve_equilibrium", "solver.inner"),
        ("thickmarket.solver", "compute_affine_coefficients", "affine"),
        ("thickmarket.solver", "_step", "mapping.step"),
    )
    DEV_TOL_PP = 0.05
    U_TOL_REL = 1e-3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.errors = {"solver.err_dev_pp": 0.0, "solver.err_u_rel": 0.0}

    def make_input(self, i: int):
        """Shares ~ Dirichlet(3 x SIPP table), pre and post alternating.

        eta is U(0.07, 0.12), stratified over each block of four items
        (one draw per quarter of the range, quarters in a fixed order): the
        number of map evaluations falls steeply with eta, and stratifying
        keeps the mix of easy and hard calibrations in a 3- to 5-item run
        alike from seed to seed.
        """
        rng = np.random.default_rng([self.seed, 1, i])
        quarter = (2, 0, 3, 1)[i % 4]
        base = SIPP_PRE if i % 2 == 0 else SIPP_POST
        shares = rng.dirichlet(3.0 * np.asarray(base))
        eta = 0.07 + 0.05 * (quarter + rng.uniform()) / 4.0
        from thickmarket.calibrate import normalize_shares
        return normalize_shares(shares), float(eta)

    def run_item(self, inp):
        from thickmarket import workflows
        shares, eta = inp
        solution, u, _ = workflows.solve_calibration(shares, eta)
        return solution, u, workflows.deviation_summary(solution)

    def check(self, inp, out) -> bool:
        shares, eta = inp
        solution, u, summary = out
        model = reference_model(shares.shares.values, eta)
        X, v, u_ref = model.fixed_point(solution.state.X.values,
                                        solution.state.v.values, u, True)
        Q, P = model.outputs(X, v, u_ref)
        err_dev = max(
            np.abs(np.asarray(summary["P"]["deviation"]) - seasonal_dev(P)).max(),
            np.abs(np.asarray(summary["Q"]["deviation"]) - seasonal_dev(Q)).max())
        err_u = abs(u - u_ref) / u_ref
        errs = self.errors
        errs["solver.err_dev_pp"] = max(errs["solver.err_dev_pp"], float(err_dev))
        errs["solver.err_u_rel"] = max(errs["solver.err_u_rel"], float(err_u))
        return bool(err_dev <= self.DEV_TOL_PP and err_u <= self.U_TOL_REL)


# ---------------------------------------------------------------------------
# shift-mc


class ShiftMC(Workload):
    """One item: one Monte Carlo replication of the full seasonality battery.

    Every replication is a 200-year monthly level panel under the null with
    the same years and months, so all replications share one design matrix
    (n = 2400, k = 24: constant, post, 11 month and 11 month-by-post terms).
    """

    name = "shift-mc"
    program_modules = ("thickmarket.seastats",)
    trace_items = 64
    required_spans = ("seastats.components", "seastats.fit", "seastats.ols",
                      "seastats.tests", "seastats.chow")
    hooks = (
        ("workloads", "shift_components", "seastats.components"),
        ("thickmarket.seastats", "fit_seasonal_shift", "seastats.fit"),
        ("thickmarket.seastats", "ols_hc1", "seastats.ols"),
        ("workloads", "shift_tests", "seastats.tests"),
        ("thickmarket.seastats", "chow_scan", "seastats.chow"),
    )
    FIRST_YEAR, N_YEARS = 1900, 200
    BREAK = FIRST_YEAR + N_YEARS * 3 // 4
    CANDIDATES = tuple(range(BREAK - 5, BREAK + 5))
    RTOL = 1e-8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.years = np.repeat(np.arange(self.FIRST_YEAR,
                                         self.FIRST_YEAR + self.N_YEARS), 12)
        self.months = np.tile(np.arange(1, 13), self.N_YEARS)
        self._design = None

    def make_input(self, i: int) -> np.ndarray:
        """Levels: a drifting yearly level times a stable seasonal profile
        plus N(0, 1) percentage noise, so the null of no shift holds."""
        rng = np.random.default_rng([self.seed, 3, i])
        level = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(self.N_YEARS)))
        pct = 3.0 * np.sin(2 * np.pi * self.months / 12.0) \
            + rng.standard_normal(self.months.size)
        return np.repeat(level, 12) * (1.0 + pct / 100.0)

    def run_item(self, values):
        from thickmarket import seastats
        components = shift_components(self.years, self.months, values)
        fit = seastats.fit_seasonal_shift(components, self.BREAK,
                                          include_year_effects=False)
        joint, contrast, _ = shift_tests(fit, components, self.BREAK)
        scan = seastats.chow_scan(components, self.CANDIDATES)
        return (joint.statistic, contrast.statistic,
                [(e.year, e.F) for e in scan.entries])

    def reference(self, values):
        """F, t and Chow F from ``np.linalg.lstsq`` and an explicit HC1
        sandwich, on deviations computed here from the levels."""
        table = values.reshape(self.N_YEARS, 12)
        d = 100.0 * (table / table.mean(axis=1, keepdims=True) - 1.0)
        if self._design is None:
            post = (self.years >= self.BREAK).astype(float)[:, None]
            month = (self.months[:, None] == np.arange(1, 12)).astype(float)
            month -= (self.months == 12).astype(float)[:, None]
            X = np.hstack([np.ones_like(post), post, month, month * post])
            self._design = X, np.linalg.inv(X.T @ X)
        X, bread = self._design
        n, k = X.shape
        y = d.ravel()
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        scores = X * (y - X @ beta)[:, None]
        cov = n / (n - k) * bread @ (scores.T @ scores) @ bread
        mu, V = beta[13:], cov[13:, 13:]
        F = float(mu @ np.linalg.solve(V, mu)) / mu.size
        w = np.r_[np.full(6, 1.0 / 3.0), np.zeros(5)]
        t = float(w @ mu / math.sqrt(w @ V @ w))

        def within_ss(rows):
            return float(((rows - rows.mean(axis=0)) ** 2).sum())

        rss_r = within_ss(d)
        chow = []
        for year in self.CANDIDATES:
            cut = year - self.FIRST_YEAR
            rss_u = within_ss(d[:cut]) + within_ss(d[cut:])
            chow.append((year, (rss_r - rss_u) / 12.0 / (rss_u / (n - 24))))
        return F, t, chow

    def check(self, values, out) -> bool:
        F, t, chow = out
        F_ref, t_ref, chow_ref = self.reference(values)
        return bool(
            [y for y, _ in chow] == [y for y, _ in chow_ref]
            and np.allclose([F, t] + [f for _, f in chow],
                            [F_ref, t_ref] + [f for _, f in chow_ref],
                            rtol=self.RTOL, atol=0.0))


def shift_components(years, months, values):
    """Level panel to within-year percentage deviations (seastats)."""
    from thickmarket import seastats
    return seastats.annual_mean_deviation(
        seastats.MonthlyPanel(years, months, values))


def shift_tests(fit, components, break_year):
    """Joint F, directional contrast and seasonal deltas (seastats)."""
    from thickmarket import seastats
    return (seastats.joint_F_test(fit), seastats.directional_contrast(fit),
            seastats.seasonal_delta(components, break_year))


# ---------------------------------------------------------------------------
# cli-pipeline


class CliPipeline(Workload):
    """One item: eight in-process ``thickmarket`` commands on seeded files.

    calibrate a share table; solve at fixed u warm-started from a
    converged snapshot (one map evaluation); shift-test and break-scan a
    deflated 13-year price panel (n = 156, k = 35); then rerun all four
    manifests. Output directories are rewritten on every item.
    """

    name = "cli-pipeline"
    program_modules = ("thickmarket.cli",)
    trace_items = 4
    required_spans = ("cli.command", "dataio.read", "dataio.write",
                      "calibrate", "solver.inner", "mapping.step",
                      "seastats.fit", "seastats.ols", "seastats.chow")
    _cli = "thickmarket.cli"
    hooks = (
        (_cli, "main", "cli.command"),
        (_cli, "read_shares_csv", "dataio.read"),
        (_cli, "read_monthly_csv", "dataio.read"),
        (_cli, "read_hazards_json", "dataio.read"),
        (_cli, "read_equilibrium_json", "dataio.read"),
        (_cli, "deflate_and_index", "dataio.prep"),
        (_cli, "to_panel", "dataio.prep"),
        (_cli, "write_results", "dataio.write"),
        (_cli, "solve_kappa", "calibrate"),
        (_cli, "hazards_from_shares", "calibrate"),
        ("thickmarket.workflows", "solve_equilibrium", "solver.inner"),
        ("thickmarket.solver", "compute_affine_coefficients", "affine"),
        ("thickmarket.solver", "_step", "mapping.step"),
        (_cli, "annual_mean_deviation", "seastats.components"),
        (_cli, "fit_seasonal_shift", "seastats.fit"),
        ("thickmarket.seastats", "ols_hc1", "seastats.ols"),
        (_cli, "joint_F_test", "seastats.tests"),
        (_cli, "directional_contrast", "seastats.tests"),
        (_cli, "seasonal_delta", "seastats.tests"),
        (_cli, "chow_scan", "seastats.chow"),
    )
    FIRST_YEAR, LAST_YEAR, BREAK = 2013, 2025, 2021

    def __init__(self, seed: int, workdir: Path):
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        i, o = self.inputs, self.out
        params = json.loads((i / "params.json").read_text())
        self.argvs = [
            ["calibrate", "--shares", i / "shares.csv",
             "--eta", repr(params["eta"]), "--out", o / "calibrate"],
            ["solve", "--hazards", o / "calibrate" / "hazards.json",
             "--u-fixed", repr(params["u"]),
             "--warm-start", i / "snapshot.json", "--out", o / "solve"],
            ["shift-test", "--data", i / "prices.csv", "--deflate-by",
             i / "cpi.csv", "--break-year", self.BREAK, "--out", o / "shift"],
            ["break-scan", "--data", i / "prices.csv", "--deflate-by",
             i / "cpi.csv", "--from-year", self.FIRST_YEAR + 2,
             "--to-year", self.LAST_YEAR - 1, "--out", o / "scan"],
        ] + [["rerun", o / c / "manifest.json", "--out", o / f"{c}_rerun"]
             for c in CLI_COMMANDS]
        self.argvs = [[str(a) for a in argv] for argv in self.argvs]
        self.reruns = self.reruns_identical = 0

    @classmethod
    def prepare(cls, seed: int, workdir: Path) -> None:
        """Write the share table, price and CPI panels, and a snapshot
        converged at the solve's fixed u, all drawn from the seed."""
        rng = np.random.default_rng([seed, 4])
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        shares = rng.dirichlet(3.0 * np.asarray(SIPP_PRE))
        eta = float(rng.uniform(0.07, 0.12))
        u = float(rng.uniform(0.0012, 0.0016))
        (inputs / "shares.csv").write_text("month,share\n" + "".join(
            f"{m},{s!r}\n" for m, s in enumerate(shares.tolist(), start=1)))
        (inputs / "params.json").write_text(json.dumps({"eta": eta, "u": u}))

        model = reference_model(shares / shares.sum(), eta)
        X, v, _ = model.fixed_point(np.full(12, u / (1.0 - model.beta)),
                                    1.0 - model.phi, u, endogenous_u=False)
        Q, P = model.outputs(X, v, u)
        snapshot = {"X": X.tolist(), "v": v.tolist(),
                    "epsilon": model.cutoffs(X, v, u).tolist(),
                    "Q": Q.tolist(), "P": P.tolist()}
        (inputs / "snapshot.json").write_text(json.dumps(snapshot))

        months = np.arange(1, 13)
        dates, prices, cpi = [], [], []
        index = 100.0
        for year in range(cls.FIRST_YEAR, cls.LAST_YEAR + 1):
            for m in months:
                index *= 1.0 + 0.002 + 0.001 * rng.standard_normal()
                real = 100.0 + 5.0 * math.sin(2 * math.pi * m / 12.0)
                if year >= cls.BREAK:
                    real += 2.0 * (m in (3, 4, 5)) - 2.0 * (m in (9, 10, 11))
                real += 0.5 * rng.standard_normal()
                dates.append(f"{year}-{m:02d}")
                prices.append(real * index / 100.0)
                cpi.append(index)
        for name, column in (("prices.csv", prices), ("cpi.csv", cpi)):
            (inputs / name).write_text("date,value\n" + "".join(
                f"{d},{x:.6f}\n" for d, x in zip(dates, column)))

    def make_input(self, i: int):
        return None

    def run_item(self, _):
        from thickmarket import cli
        return [cli.main(argv) for argv in self.argvs]

    def check(self, _, codes) -> bool:
        if any(code != 0 for code in codes):
            return False
        identical = sum(reruns_identical(self.out / c, self.out / f"{c}_rerun")
                        for c in CLI_COMMANDS)
        self.reruns += len(CLI_COMMANDS)
        self.reruns_identical += identical
        solution = json.loads((self.out / "solve" / "solution.json").read_text())
        return solution["iterations"] == 1 and identical == len(CLI_COMMANDS)


def reruns_identical(original: Path, rerun: Path) -> bool:
    """Same output files, byte for byte; the manifest is excluded."""
    names = sorted(p.name for p in original.iterdir() if p.name != "manifest.json")
    rerun_names = sorted(p.name for p in rerun.iterdir() if p.name != "manifest.json")
    return names == rerun_names and all(
        (original / n).read_bytes() == (rerun / n).read_bytes() for n in names)


WORKLOADS = {w.name: w for w in (EqSweep, ShiftMC, CliPipeline)}
