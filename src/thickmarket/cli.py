"""Command-line interface: calibration, solving, and seasonality tests.

Every run writes its outputs plus a ``manifest.json`` recording the
resolved parameters, a replayable argument vector and the working
directory; ``rerun`` replays a manifest, from any directory, into a fresh
output directory and reproduces the outputs byte for byte.
Exit codes: 0 success, 1 solver non-convergence, 2 input or domain error
(including malformed JSON), 3 internal error (an unexpected exception; its
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import hazards_from_shares, shares_from_trends, solve_kappa
from .core import MONTH_NAMES, HazardProfile
from .dataio import (
    deflate_and_index,
    equilibrium_to_dict,
    hazards_to_dict,
    load_json_object,
    read_equilibrium_json,
    read_hazards_json,
    read_monthly_csv,
    read_shares_csv,
    to_panel,
    write_results,
)
from .errors import ConvergenceError, DataError, DomainError, RankDeficientError
from .fixtures import (
    DEFAULT_ANNUAL_RATE,
    DEFAULT_DELTA,
    DEFAULT_RENT_PRICE_RATIO,
    DEFAULT_THETA,
    load_biannual_benchmark,
    shares_fixture,
)
from .seastats import (
    annual_mean_deviation,
    chow_scan,
    directional_contrast,
    fit_seasonal_shift,
    joint_F_test,
    rolling_mean_deviation,
    seasonal_delta,
)
from .solver import SolverConfig
from .workflows import (
    compare_calibrations,
    deviation_summary,
    replicate_biannual,
    solve_calibration,
    solve_hazards,
)

ENV_OUTDIR = "THICKMARKET_OUTDIR"
INPUT_FILE = "FILE"   # metavar of every option naming an input file


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUTDIR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, args, parameters: dict,
                    outputs: list[Path]) -> Path:
    """Write ``manifest.json``; replay argv and inputs come from the parser.

    Every option of the command except ``--out`` is replayed in parser
    order: flags only when set, unset (``None``) options not at all.
    """
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    replay, inputs = [args.command], []
    for action in sub.choices[args.command]._actions:
        value = getattr(args, action.dest, None)
        if (not action.option_strings or action.dest == "out"
                or value is None or value is False):
            continue
        replay.append(action.option_strings[0])
        if action.nargs != 0:
            replay.append(str(value))   # str of a float is its exact repr
        if action.metavar == INPUT_FILE:
            inputs.append(str(value))
    manifest = {
        "command": args.command,
        "replay": replay,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": [p.name for p in outputs],
        "cwd": os.getcwd(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def _parse_years(spec: str) -> list[int]:
    """Year list from 'A-B' ranges and comma-separated entries."""
    years: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if "-" in token:
            a, b = token.split("-", 1)
            years.extend(range(int(a), int(b) + 1))
        elif token:
            years.append(int(token))
    if not years:
        raise DataError(f"cannot parse year list '{spec}'")
    return years


def _resolve_shares(args):
    """Shares plus default eta from --fixture, --shares, or --trends."""
    if args.fixture:
        shares, eta_default = shares_fixture(args.fixture)
        label = args.fixture
    elif args.shares:
        shares = read_shares_csv(args.shares)
        eta_default = None
        label = str(args.shares)
    elif getattr(args, "trends", None):
        if not args.trend_years:
            raise DataError("--trend-years is required with --trends "
                            "(e.g. 2010-2020)")
        panel = to_panel(read_monthly_csv(args.trends))
        shares = shares_from_trends(panel, _parse_years(args.trend_years))
        eta_default = None
        label = f"{args.trends} [{args.trend_years}]"
    else:
        raise DataError("provide a share source: --fixture, --shares, "
                        "or --trends")
    eta = args.eta if args.eta is not None else eta_default
    if eta is None:
        raise DataError("--eta is required when not using a fixture")
    return shares, float(eta), label


def _solver_config(args) -> SolverConfig:
    return SolverConfig(lam=args.lam, max_iterations=args.max_iter,
                        rent_price_ratio=args.rent_ratio)


# ---------------------------------------------------------------------------
# commands


def cmd_calibrate(args) -> list[Path]:
    out_dir = _out_dir(args)
    shares, eta, label = _resolve_shares(args)
    scale = solve_kappa(shares, eta)
    hazards = hazards_from_shares(shares, eta)
    doc = hazards_to_dict(hazards, scale.kappa, eta)
    doc["shares"] = shares.shares.values.tolist()
    doc["source"] = label
    # machine-handoff file: full precision so solve sees the exact hazards
    outputs = [write_results(doc, out_dir / "hazards.json",
                             full_precision=True)]
    _write_manifest(out_dir, args,
                    {"eta": eta, "kappa": scale.kappa, "source": label},
                    outputs)
    print(f"calibrated hazards from {label}: kappa={scale.kappa:.6g} eta={eta}")
    print(f"wrote {outputs[0]}")
    return outputs


def cmd_solve(args) -> list[Path]:
    out_dir = _out_dir(args)
    config = _solver_config(args)
    if args.warm_start:
        snapshot = read_equilibrium_json(args.warm_start)
        config.initial_X = snapshot["X"]
        config.initial_v = snapshot["v"]
    if args.hazards_file:
        hz_doc = read_hazards_json(args.hazards_file)
        hazards = HazardProfile.from_survival(np.asarray(hz_doc["survival"]))
        eta = args.eta if args.eta is not None else hz_doc.get("eta")
        label = str(args.hazards_file)
        solution, u, params = solve_hazards(
            hazards, annual_rate=args.annual_rate, delta=args.delta,
            theta=args.theta, u_fixed=args.u_fixed, config=config)
    else:
        shares, eta, label = _resolve_shares(args)
        solution, u, params = solve_calibration(
            shares, eta, annual_rate=args.annual_rate, delta=args.delta,
            theta=args.theta, u_fixed=args.u_fixed, config=config)

    doc = equilibrium_to_dict(solution, u=u)
    if eta is not None:
        doc["eta"] = eta
    doc["source"] = label
    summary = deviation_summary(solution)
    outputs = [write_results(doc, out_dir / "solution.json",
                             full_precision=True)]
    rows = [[m, summary["P"]["deviation"][m - 1], summary["Q"]["deviation"][m - 1]]
            for m in range(1, solution.period + 1)]
    outputs.append(write_results(
        {"columns": ["month", "P_dev", "Q_dev"], "rows": rows},
        out_dir / "deviations.csv", format="csv"))
    outputs.append(write_results(summary, out_dir / "summary.json"))

    _write_manifest(out_dir, args,
                    {"eta": eta, "u": u, "lambda": args.lam,
                     "delta": args.delta, "theta": args.theta,
                     "source": label},
                    outputs)
    name = summary["P"].get("peak_month_name", summary["P"]["peak_month"])
    print(f"solved {label}: u={u:.6g}, {solution.iterations} iterations, "
          f"residual {solution.final_residual:.3g}")
    print(f"price deviation peak: {name}; "
          f"range [{summary['P']['min']:.2f}%, {summary['P']['max']:.2f}%]")
    for p in outputs:
        print(f"wrote {p}")
    return outputs


def _resolve_side(fixture, shares_path, eta_override, side):
    if shares_path:
        shares, eta = read_shares_csv(shares_path), None
        label = str(shares_path)
    else:
        shares, eta = shares_fixture(fixture)
        label = fixture
    if eta_override is not None:
        eta = eta_override
    if eta is None:
        raise DataError(f"--{side}-eta is required with --{side}-shares")
    return shares, eta, label


def cmd_compare(args) -> list[Path]:
    out_dir = _out_dir(args)
    config = _solver_config(args)
    pre_shares, pre_eta, pre_label = _resolve_side(
        args.pre_fixture, args.pre_shares, args.pre_eta, "pre")
    post_shares, post_eta, post_label = _resolve_side(
        args.post_fixture, args.post_shares, args.post_eta, "post")

    model = {"annual_rate": args.annual_rate, "delta": args.delta,
             "theta": args.theta, "config": config}
    sol_pre, _, _ = solve_calibration(pre_shares, pre_eta, **model)
    sol_post, _, _ = solve_calibration(post_shares, post_eta, **model)
    report = compare_calibrations(sol_pre, sol_post)

    columns = [column for key in ("P", "Q") for column in (
        report["pre"][key]["deviation"], report["post"][key]["deviation"],
        report["delta"][key]["per_month"])]
    rows = [list(row) for row in zip(MONTH_NAMES, *columns)]
    outputs = [
        write_results({"columns": ["month", "P_dev_pre", "P_dev_post",
                                   "P_dev_change", "Q_dev_pre", "Q_dev_post",
                                   "Q_dev_change"], "rows": rows},
                      out_dir / "compare.csv", format="csv"),
        write_results(report, out_dir / "compare.json"),
    ]
    _write_manifest(out_dir, args,
                    {"pre_eta": pre_eta, "post_eta": post_eta,
                     "pre_source": pre_label, "post_source": post_label},
                    outputs)
    for key in ("P", "Q"):
        ch = report["delta"][key]["season_mean_changes"]
        print(f"{key}: peak {report['pre'][key]['peak_month_name']} -> "
              f"{report['post'][key]['peak_month_name']}; "
              f"spring {ch['spring']:+.2f}pp, summer {ch['summer']:+.2f}pp")
    for p in outputs:
        print(f"wrote {p}")
    return outputs


def _load_components(args):
    series = read_monthly_csv(args.data, value_column=args.value_column,
                              date_column=args.date_column)
    if args.deflate_by:
        cpi = read_monthly_csv(args.deflate_by)
        series = deflate_and_index(series, cpi, base_year=args.base_year)
    panel = to_panel(series)
    if args.mode == "centered12":
        return rolling_mean_deviation(panel, window="centered_12")
    return annual_mean_deviation(panel, min_months_per_year=args.min_months)


def cmd_shift_test(args) -> list[Path]:
    out_dir = _out_dir(args)
    components = _load_components(args)
    fit = fit_seasonal_shift(components, args.break_year,
                             include_year_effects=not args.no_year_effects)
    joint = joint_F_test(fit)
    contrast = directional_contrast(fit)
    deltas = seasonal_delta(components, args.break_year)

    report = {
        "break_year": args.break_year,
        "n_obs": fit.n_obs,
        "joint_F": {"F": joint.statistic, "p": joint.p_value,
                    "df": [joint.df_numerator, joint.df_denominator]},
        "directional_contrast": {"t": contrast.statistic,
                                 "p_one_sided": contrast.p_value,
                                 "df": contrast.df_denominator},
        "seasonal_delta": deltas.as_dict(),
        "month_effects": fit.gamma.tolist(),
        "month_post_interactions": fit.mu.tolist(),
    }
    table = {
        "columns": ["F", "p", "t", "p1",
                    "win_delta", "spr_delta", "sum_delta", "aut_delta"],
        "rows": [[joint.statistic, joint.p_value, contrast.statistic,
                  contrast.p_value, deltas.winter, deltas.spring,
                  deltas.summer, deltas.autumn]],
    }
    outputs = [
        write_results(report, out_dir / "shift_test.json"),
        write_results(table, out_dir / "shift_test.txt", format="table"),
    ]
    _write_manifest(out_dir, args,
                    {"break_year": args.break_year, "mode": args.mode}, outputs)
    print(f"joint F = {joint.statistic:.3g} (p = {joint.p_value:.3g}); "
          f"contrast t = {contrast.statistic:.3g} (p1 = {contrast.p_value:.3g})")
    print(f"seasonal deltas (pp): winter {deltas.winter:+.2f}, "
          f"spring {deltas.spring:+.2f}, summer {deltas.summer:+.2f}, "
          f"autumn {deltas.autumn:+.2f}")
    for p in outputs:
        print(f"wrote {p}")
    return outputs


def cmd_break_scan(args) -> list[Path]:
    out_dir = _out_dir(args)
    components = _load_components(args)
    scan = chow_scan(components, range(args.from_year, args.to_year + 1))
    rows = [[e.year, e.F, e.p_value] for e in scan.entries]
    report = {
        "candidates": [{"year": e.year, "F": e.F, "p": e.p_value}
                       for e in scan.entries],
        "skipped": [{"year": y, "reason": r} for y, r in scan.skipped],
    }
    if scan.entries:
        report["max_F_year"] = scan.best().year
    outputs = [
        write_results(report, out_dir / "break_scan.json"),
        write_results({"columns": ["year", "F", "p"], "rows": rows},
                      out_dir / "break_scan.txt", format="table"),
    ]
    _write_manifest(out_dir, args,
                    {"from_year": args.from_year, "to_year": args.to_year},
                    outputs)
    for e in scan.entries:
        print(f"  {e.year}: F = {e.F:.3g} (p = {e.p_value:.3g})")
    for year, reason in scan.skipped:
        print(f"  {year}: skipped ({reason})")
    for p in outputs:
        print(f"wrote {p}")
    return outputs


def cmd_replicate_nt(args) -> list[Path]:
    out_dir = _out_dir(args)
    if args.params:
        path = Path(args.params)
        if not path.exists():
            raise DataError(
                f"no such parameter file: {path}; provide a JSON file with "
                "fields beta_hat, delta, theta, u, survival (per-season list) "
                "and optional labels/targets")
        params = load_json_object(path)
    else:
        params = load_biannual_benchmark()
    config = SolverConfig(lam=args.lam, max_iterations=args.max_iter)
    report = replicate_biannual(params, config)
    outputs = [write_results(report, out_dir / "benchmark_report.json")]
    _write_manifest(out_dir, args, {}, outputs)
    labels = report["labels"]
    for i, label in enumerate(labels):
        print(f"  {label}: vacancies {report['vacancies'][i]:.4f}, "
              f"sale probability {report['sale_probability'][i]:.4f}")
    if "targets" in report:
        verdict = "PASS" if report["targets"]["within_tolerance"] else "FAIL"
        print(f"validation against targets: {verdict} "
              f"(max errors: q {report['targets']['max_error_sale_probability']:.2g}, "
              f"v {report['targets']['max_error_vacancies']:.2g})")
    for p in outputs:
        print(f"wrote {p}")
    return outputs


def cmd_rerun(args) -> list[Path]:
    path = Path(args.manifest)
    if not path.exists():
        raise DataError(f"no such manifest: {path}")
    manifest = load_json_object(path)
    replay = manifest.get("replay")
    if not replay:
        raise DataError(f"manifest {path} has no replay arguments")
    out = _out_dir(args).resolve()   # relative input paths resolve in "cwd"
    replayed = _build_parser().parse_args(list(replay) + ["--out", str(out)])
    here = os.getcwd()
    os.chdir(manifest.get("cwd", here))
    try:
        return _dispatch(replayed)
    finally:
        os.chdir(here)


# ---------------------------------------------------------------------------
# wiring


def _add_out(p):
    p.add_argument("--out", default=None,
                   help=f"output directory (default: ${ENV_OUTDIR} or '.')")


def _add_share_source(p):
    p.add_argument("--fixture", choices=["sipp-pre", "sipp-post"], default=None,
                   help="bundled share table")
    p.add_argument("--shares", default=None, metavar=INPUT_FILE,
                   help="CSV with header month,share (months 1-12 or Jan-Dec)")
    p.add_argument("--trends", default=None, metavar=INPUT_FILE,
                   help="monthly search-interest CSV (date,value); shares are "
                        "within-year volumes averaged over --trend-years")
    p.add_argument("--trend-years", default=None,
                   help="years to average for --trends, e.g. 2010-2020")
    p.add_argument("--eta", type=float, default=None,
                   help="annual move rate (defaults per fixture: 0.103 pre, "
                        "0.083 post)")


def _add_solver_flags(p):
    p.add_argument("--lambda", dest="lam", type=float, default=0.01,
                   help="damped fallback step of the solver (default 0.01)")
    p.add_argument("--max-iter", type=int, default=2_000_000,
                   help="budget of map evaluations (default 2000000)")
    p.add_argument("--rent-ratio", type=float, default=DEFAULT_RENT_PRICE_RATIO,
                   help="annual rent-to-price ratio for endogenous u")


def _add_model_flags(p):
    p.add_argument("--annual-rate", type=float, default=DEFAULT_ANNUAL_RATE,
                   help="annual interest rate (default 0.06)")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="monthly disruption probability (default 0.025)")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA,
                   help="seller bargaining weight (default 0.5)")


def _add_panel_flags(p):
    p.add_argument("--data", required=True, metavar=INPUT_FILE,
                   help="monthly CSV (date,value)")
    p.add_argument("--value-column", default="value")
    p.add_argument("--date-column", default="date")
    p.add_argument("--mode", choices=["annual", "centered12"], default="annual",
                   help="deviation mode: annual mean or centred 12-month mean")
    p.add_argument("--min-months", type=int, default=6,
                   help="minimum months for a year to enter (annual mode)")
    p.add_argument("--deflate-by", default=None, metavar=INPUT_FILE,
                   help="price-index CSV used to deflate the series first")
    p.add_argument("--base-year", type=int, default=2019,
                   help="index base year when deflating (mean = 100)")


@functools.cache   # one parser per process: main, rerun and manifests share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thickmarket",
        description="Housing market seasonality: equilibrium solver and tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="move shares -> monthly hazard vector")
    _add_share_source(p)
    _add_out(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("solve", help="solve the periodic equilibrium")
    _add_share_source(p)
    p.add_argument("--hazards", dest="hazards_file", default=None,
                   metavar=INPUT_FILE,
                   help="calibrated hazard JSON (output of 'calibrate') "
                        "instead of a share source")
    p.add_argument("--warm-start", default=None, metavar=INPUT_FILE,
                   help="equilibrium snapshot JSON used as the initial state")
    _add_model_flags(p)
    _add_solver_flags(p)
    p.add_argument("--u-fixed", type=float, default=None,
                   help="fix the service flow u instead of solving for it")
    _add_out(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="pre vs post calibration side by side")
    p.add_argument("--pre-fixture", default="sipp-pre")
    p.add_argument("--post-fixture", default="sipp-post")
    p.add_argument("--pre-shares", default=None, metavar=INPUT_FILE,
                   help="month,share CSV for the pre side (needs --pre-eta)")
    p.add_argument("--post-shares", default=None, metavar=INPUT_FILE,
                   help="month,share CSV for the post side (needs --post-eta)")
    p.add_argument("--pre-eta", type=float, default=None)
    p.add_argument("--post-eta", type=float, default=None)
    _add_model_flags(p)
    _add_solver_flags(p)
    _add_out(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("shift-test", help="post-break seasonal shift battery")
    _add_panel_flags(p)
    p.add_argument("--break-year", type=int, default=2021)
    p.add_argument("--no-year-effects", action="store_true")
    _add_out(p)
    p.set_defaults(func=cmd_shift_test)

    p = sub.add_parser("break-scan", help="Chow F over candidate break years")
    _add_panel_flags(p)
    p.add_argument("--from-year", type=int, required=True)
    p.add_argument("--to-year", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_break_scan)

    p = sub.add_parser("replicate-nt",
                       help="two-season benchmark validation (n = 2)")
    p.add_argument("--params", default=None, metavar=INPUT_FILE,
                   help="JSON parameter file (default: bundled fixture)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--max-iter", type=int, default=2_000_000)
    _add_out(p)
    p.set_defaults(func=cmd_replicate_nt)

    p = sub.add_parser("rerun", help="replay a manifest")
    p.add_argument("manifest")
    _add_out(p)
    p.set_defaults(func=cmd_rerun)

    return parser


def _dispatch(args) -> list[Path]:
    return args.func(args)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, RankDeficientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
