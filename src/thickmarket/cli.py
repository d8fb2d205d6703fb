"""Command-line interface: calibration, solving, and seasonality tests.

Every run that succeeds writes its outputs plus a ``manifest.json``
recording the resolved parameters, a replayable argument vector and the
working directory; a run that fails writes nothing. ``rerun`` replays a
manifest, from any directory, into a fresh output directory and
reproduces the outputs byte for byte.
Exit codes: 0 success, 1 solver non-convergence, 2 input or domain error
(including malformed JSON), 3 internal error (an unexpected exception; its
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .calibrate import hazards_from_shares, shares_from_trends, solve_kappa
from .core import MONTH_NAMES, HazardProfile
from .dataio import (
    deflate_and_index,
    equilibrium_to_dict,
    hazards_to_dict,
    load_json_object,
    naming,
    read_equilibrium_json,
    read_hazards_json,
    read_monthly_csv,
    read_shares_csv,
    to_panel,
    write_in_place,
    write_results,
)
from .errors import ConvergenceError, DataError, DomainError
from .fixtures import (
    DEFAULT_ANNUAL_RATE,
    DEFAULT_DELTA,
    DEFAULT_RENT_PRICE_RATIO,
    DEFAULT_THETA,
    SHARE_FIXTURES,
    load_biannual_benchmark,
    shares_fixture,
)
from .seastats import (
    annual_mean_deviation,
    break_scan_report,
    centered_mean_deviation,
    chow_scan,
    fit_seasonal_shift,
    shift_report,
)
# Called only by the reports; named here for the benchmark's hooks (ROADMAP item 10).
from .seastats import directional_contrast, joint_F_test, seasonal_delta  # noqa: F401
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
# Machine-handoff files that a later command reads back (solve --hazards,
# solve --warm-start): written at full precision so the reader sees exact floats.
FULL_PRECISION = frozenset({"hazards.json", "solution.json"})
# compare's default fixture on each side
SIDE_FIXTURES = dict(zip(("pre", "post"), SHARE_FIXTURES))
MIN_MONTHS = 6   # --min-months in annual mode; centered12 takes only this


def _write_manifest(out_dir: Path, args, parameters: dict,
                    outputs: list[Path]) -> None:
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
    write_in_place(out_dir / "manifest.json",
                   json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _parse_years(spec: str) -> list[int]:
    """Distinct years in 1-9999 from 'A-B' ranges and comma-separated entries."""
    spans: list[tuple[int, int]] = []
    for token in filter(None, map(str.strip, spec.split(","))):
        a, dash, b = token.partition("-")
        try:
            first, last = int(a), int(b if dash else a)
            if last < first:
                raise ValueError
        except ValueError:
            raise DataError(f"cannot parse --trend-years '{spec}': '{token}' is "
                            "neither a year nor a rising range (e.g. 2010-2020)"
                            ) from None
        if first < 1 or last > 9999:
            raise DataError(f"--trend-years '{spec}': '{token}' leaves 1-9999")
        if any(first <= hi and lo <= last for lo, hi in spans):
            raise DataError(f"--trend-years '{spec}': '{token}' repeats a year")
        spans.append((first, last))
    if not spans:
        raise DataError(f"cannot parse --trend-years '{spec}' (e.g. 2010-2020)")
    return [year for first, last in spans for year in range(first, last + 1)]


def _resolve_shares(args, side: str = ""):
    """Shares, eta and a source label from the one share source given.

    The sources are --fixture, --shares, --trends and solve's --hazards,
    or with ``side`` ("pre" or "post") compare's --pre-/--post-fixture
    and --pre-/--post-shares. Options the source would silently ignore
    are refused: a second source, --trend-years without --trends, and
    --eta with --hazards, whose file holds the eta it was calibrated at
    (shares and eta are then None). A side's fixture defaults to
    ``SIDE_FIXTURES``, and that default yields to a shares file: older
    manifests replay it next to one.
    """
    def opt(name):
        return getattr(args, f"{side}_{name}" if side else name, None)

    flag = f"--{side}-" if side else "--"
    eta, fixture = opt("eta"), opt("fixture")
    path, trends, trend_years = opt("shares"), opt("trends"), opt("trend_years")
    if side and fixture in (None, SIDE_FIXTURES[side]):
        fixture = None if path else SIDE_FIXTURES[side]
    sources = {f"{flag}fixture": fixture, f"{flag}shares": path,
               "--trends": trends, "--hazards": opt("hazards_file")}
    given = [name for name, value in sources.items() if value]
    if len(given) > 1:
        raise DataError(f"{' and '.join(given)} are alternative share "
                        "sources; give one")
    if trend_years and not trends:
        raise DataError("--trend-years applies only with --trends")

    if sources["--hazards"]:
        if eta is not None:
            raise DataError(f"--eta does not apply with --hazards: "
                            f"{args.hazards_file} holds the eta it was "
                            "calibrated at")
        return None, None, str(args.hazards_file)
    if fixture:
        shares, eta_default = shares_fixture(fixture)
        eta, label = (eta_default if eta is None else eta), fixture
    elif path:
        shares, label = read_shares_csv(path), str(path)
    elif trends:
        if not trend_years:
            raise DataError("--trend-years is required with --trends "
                            "(e.g. 2010-2020)")
        panel = to_panel(read_monthly_csv(trends))
        years = _parse_years(trend_years)
        with naming(trends):
            shares = shares_from_trends(panel, years)
        label = f"{trends} [{trend_years}]"
    else:
        raise DataError("provide a share source: --fixture, --shares, "
                        "or --trends")
    if eta is None:
        raise DataError(f"{flag}eta is required with {flag}shares" if side
                        else "--eta is required when not using a fixture")
    return shares, float(eta), label


def _solver_config(args) -> SolverConfig:
    """--rent-ratio pins an unknown u; --u-fixed takes only its default,
    which older manifests replay."""
    ratio = DEFAULT_RENT_PRICE_RATIO if args.rent_ratio is None else args.rent_ratio
    if getattr(args, "u_fixed", None) is not None and ratio != DEFAULT_RENT_PRICE_RATIO:
        raise DataError("--rent-ratio does not apply with --u-fixed: "
                        "it pins an unknown u")
    return SolverConfig(max_iterations=args.max_iter, rent_price_ratio=ratio)


# ---------------------------------------------------------------------------
# commands


# Each command returns its documents, keyed by output file name, and its
# manifest parameters; ``_dispatch`` writes both.


def cmd_calibrate(args):
    shares, eta, label = _resolve_shares(args)
    kappa = solve_kappa(shares, eta)
    hazards = HazardProfile.from_hazard(kappa * shares.shares.values)
    doc = hazards_to_dict(hazards, kappa, eta, shares, label)
    print(f"calibrated hazards from {label}: kappa={kappa:.6g} eta={eta}")
    return {"hazards.json": doc}, {"eta": eta, "kappa": kappa, "source": label}


def cmd_solve(args):
    shares, eta, label = _resolve_shares(args)
    config = _solver_config(args)
    if shares is None:   # --hazards
        hazards, eta = read_hazards_json(args.hazards_file)
    else:
        hazards = hazards_from_shares(shares, eta)
    if args.warm_start:
        config.initial_X, config.initial_v = read_equilibrium_json(args.warm_start)
    solution, u, _ = solve_hazards(
        hazards, annual_rate=args.annual_rate, delta=args.delta,
        theta=args.theta, u_fixed=args.u_fixed, config=config)

    summary = deviation_summary(solution)
    rows = [[m, *pq] for m, pq in enumerate(
        zip(summary["P"]["deviation"], summary["Q"]["deviation"]), start=1)]
    outputs = {"solution.json": equilibrium_to_dict(solution, label, eta),
               "deviations.csv": {"columns": ["month", "P_dev", "Q_dev"],
                                  "rows": rows},
               "summary.json": summary}

    print(f"solved {label}: u={u:.6g}, {solution.iterations} iterations, "
          f"residual {solution.final_residual:.3g}")
    print(f"price deviation peak: {summary['P']['peak_month_name']}; "
          f"range [{summary['P']['min']:.2f}%, {summary['P']['max']:.2f}%]")
    return outputs, {"eta": eta, "u": u, "delta": args.delta,
                     "theta": args.theta, "source": label}


def cmd_compare(args):
    config = _solver_config(args)
    pre_shares, pre_eta, pre_label = _resolve_shares(args, "pre")
    post_shares, post_eta, post_label = _resolve_shares(args, "post")

    model = {"annual_rate": args.annual_rate, "delta": args.delta,
             "theta": args.theta, "config": config}
    sol_pre, _, _ = solve_calibration(pre_shares, pre_eta, **model)
    sol_post, _, _ = solve_calibration(post_shares, post_eta, **model)
    report = compare_calibrations(sol_pre, sol_post)

    columns = [column for key in ("P", "Q") for column in (
        report["pre"][key]["deviation"], report["post"][key]["deviation"],
        report["delta"][key]["per_month"])]
    rows = [list(row) for row in zip(MONTH_NAMES, *columns)]
    outputs = {"compare.csv": {"columns": ["month", "P_dev_pre", "P_dev_post",
                                           "P_dev_change", "Q_dev_pre",
                                           "Q_dev_post", "Q_dev_change"],
                               "rows": rows},
               "compare.json": report}
    for key in ("P", "Q"):
        ch = report["delta"][key]["season_mean_changes"]
        print(f"{key}: peak {report['pre'][key]['peak_month_name']} -> "
              f"{report['post'][key]['peak_month_name']}; "
              f"spring {ch['spring']:+.2f}pp, summer {ch['summer']:+.2f}pp")
    return outputs, {"pre_eta": pre_eta, "post_eta": post_eta,
                     "pre_source": pre_label, "post_source": post_label}


def _load_components(args):
    """The seasonal components of --data and the label its input errors
    carry; --min-months applies in annual mode, and centered12 takes only
    its default, which older manifests replay."""
    centered = args.mode == "centered12"
    min_months = MIN_MONTHS if args.min_months is None else args.min_months
    if centered and min_months != MIN_MONTHS:
        raise DataError("--min-months does not apply with --mode centered12: "
                        "only annual mode drops short years")
    if min_months < 1:
        raise DataError(f"--min-months {min_months} must be at least 1")
    label = args.data
    series = read_monthly_csv(args.data, value_column=args.value_column,
                              date_column=args.date_column)
    if args.deflate_by:
        cpi = read_monthly_csv(args.deflate_by)
        label = f"{args.data} deflated by {args.deflate_by}"
        with naming(label):
            series = deflate_and_index(series, cpi)
    panel = to_panel(series)
    with naming(label):
        components = (centered_mean_deviation(panel) if centered
                      else annual_mean_deviation(panel, min_months))
        if components.deviations.size == 0:
            limits = "" if centered else f", --min-months {min_months}"
            raise DataError(f"no observations left to test (--mode {args.mode}{limits})")
    return components, label


def cmd_shift_test(args):
    components, label = _load_components(args)
    with naming(label):
        fit = fit_seasonal_shift(components, args.break_year,
                                 include_year_effects=not args.no_year_effects)
        report = shift_report(fit, components, args.break_year)
    joint, contrast = report["joint_F"], report["directional_contrast"]
    deltas = report["seasonal_delta"]
    stats = [joint["F"], joint["p"], contrast["t"], contrast["p_one_sided"]]
    table = {"columns": ["F", "p", "t", "p1"]
                        + [season[:3] + "_delta" for season in deltas],
             "rows": [[*stats, *deltas.values()]]}
    print("joint F = {:.3g} (p = {:.3g}); contrast t = {:.3g} (p1 = {:.3g})"
          .format(*stats))
    print("seasonal deltas (pp): "
          + ", ".join(f"{season} {x:+.2f}" for season, x in deltas.items()))
    return ({"shift_test.json": report, "shift_test.txt": table},
            {"break_year": args.break_year, "mode": args.mode})


def cmd_break_scan(args):
    if not 1 <= args.from_year <= args.to_year <= 9999:
        raise DataError(f"--from-year {args.from_year} and --to-year "
                        f"{args.to_year} must give a rising range in 1-9999")
    components, label = _load_components(args)
    with naming(label):
        scan = chow_scan(components, range(args.from_year, args.to_year + 1))
    report = break_scan_report(scan)
    rows = [[c["year"], c["F"], c["p"]] for c in report["candidates"]]
    for year, F, p in rows:
        print(f"  {year}: F = {F:.3g} (p = {p:.3g})")
    for s in report["skipped"]:
        print(f"  {s['year']}: skipped ({s['reason']})")
    return ({"break_scan.json": report,
             "break_scan.txt": {"columns": ["year", "F", "p"], "rows": rows}},
            {"from_year": args.from_year, "to_year": args.to_year})


def cmd_replicate_nt(args):
    if args.params and not Path(args.params).exists():
        raise DataError(
            f"no such parameter file: {args.params}; provide a JSON file with "
            "fields beta_hat, delta, theta, u, survival (per-season list) "
            "and optional labels/targets")
    params = (load_json_object(args.params) if args.params
              else load_biannual_benchmark())
    config = SolverConfig(max_iterations=args.max_iter)
    with naming(args.params or "bundled benchmark file"):
        report = replicate_biannual(params, config)
    outputs = {"benchmark_report.json": report}
    for label, v, q in zip(report["labels"], report["vacancies"],
                           report["sale_probability"]):
        print(f"  {label}: vacancies {v:.4f}, sale probability {q:.4f}")
    if "targets" in report:
        verdict = "PASS" if report["targets"]["within_tolerance"] else "FAIL"
        print(f"validation against targets: {verdict} "
              f"(max errors: q {report['targets']['max_error_sale_probability']:.2g}, "
              f"v {report['targets']['max_error_vacancies']:.2g})")
    return outputs, {}


def cmd_rerun(args, out_dir: Path) -> list[Path]:
    """Replay a manifest; the replayed command writes its own manifest."""
    path = Path(args.manifest)
    manifest = load_json_object(path)
    here = os.getcwd()
    with naming(f"manifest {path}"):
        replay = manifest.get("replay")
        if not (isinstance(replay, list) and all(isinstance(a, str) for a in replay)):
            raise DataError("replay must be a list of strings")
        # relative input paths resolve in "cwd", so the output path is absolute
        argv = replay + ["--out", str(out_dir.resolve())]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                replayed = _build_parser().parse_args(argv)
            except SystemExit:
                reason = err.getvalue().rpartition("error: ")[2].strip()
                raise DataError(f"replay does not parse ({reason})") from None
        cwd = manifest.get("cwd", here)
        if not (isinstance(cwd, str) and os.path.isdir(cwd)):
            raise DataError(f"cwd {cwd!r} is not a directory")
    os.chdir(cwd)
    try:
        return _dispatch(replayed)
    finally:
        os.chdir(here)


# ---------------------------------------------------------------------------
# wiring


def _add_share_source(p, side=""):
    """The share-source options, or with ``side`` compare's --pre-*/--post-*
    fixture, shares and eta; all default to None, and ``_resolve_shares``
    fills in a side's fixture from ``SIDE_FIXTURES``."""
    flag = f"--{side}-" if side else "--"
    p.add_argument(f"{flag}fixture", choices=SHARE_FIXTURES, default=None,
                   help="bundled share table")
    p.add_argument(f"{flag}shares", default=None, metavar=INPUT_FILE,
                   help="CSV with header month,share (months 1-12 or Jan-Dec)")
    if not side:
        p.add_argument("--trends", default=None, metavar=INPUT_FILE,
                       help="monthly search-interest CSV (date,value); shares "
                            "are within-year volumes averaged over --trend-years")
        p.add_argument("--trend-years", default=None,
                       help="years to average for --trends, e.g. 2010-2020")
    etas = ", ".join(f"{name} {eta}" for name, (_, eta) in SHARE_FIXTURES.items())
    p.add_argument(f"{flag}eta", type=float, default=None,
                   help=f"annual move rate (default per fixture: {etas})")


def _add_solver_flags(p):
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations,
                   help="budget of map evaluations (default %(default)s)")


def _add_model_flags(p):
    p.add_argument("--annual-rate", type=float, default=DEFAULT_ANNUAL_RATE,
                   help="annual interest rate (default %(default)s)")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="monthly disruption probability (default %(default)s)")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA,
                   help="seller bargaining weight (default %(default)s)")
    p.add_argument("--rent-ratio", type=float, default=None,
                   help="annual rent-to-price ratio that pins an unknown u "
                        f"(default {DEFAULT_RENT_PRICE_RATIO})")


def _add_panel_flags(p):
    p.add_argument("--data", required=True, metavar=INPUT_FILE,
                   help="monthly CSV (date,value)")
    p.add_argument("--value-column", default="value")
    p.add_argument("--date-column", default="date")
    p.add_argument("--mode", choices=["annual", "centered12"], default="annual",
                   help="deviation mode: annual mean or centred 12-month mean")
    p.add_argument("--min-months", type=int, default=None,
                   help="minimum months for a year to enter (annual mode only; "
                        f"default {MIN_MONTHS})")
    p.add_argument("--deflate-by", default=None, metavar=INPUT_FILE,
                   help="price-index CSV used to deflate the series first")


@functools.cache   # one parser per process: main, rerun and manifests share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thickmarket",
        description="Housing market seasonality: equilibrium solver and tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="move shares -> monthly hazard vector")
    _add_share_source(p)
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
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="pre vs post calibration side by side")
    for side in SIDE_FIXTURES:
        _add_share_source(p, side)
    _add_model_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("shift-test", help="post-break seasonal shift battery")
    _add_panel_flags(p)
    p.add_argument("--break-year", type=int, default=2021)
    p.add_argument("--no-year-effects", action="store_true")
    p.set_defaults(func=cmd_shift_test)

    p = sub.add_parser("break-scan", help="Chow F over candidate break years")
    _add_panel_flags(p)
    p.add_argument("--from-year", type=int, required=True)
    p.add_argument("--to-year", type=int, required=True)
    p.set_defaults(func=cmd_break_scan)

    p = sub.add_parser("replicate-nt",
                       help="two-season benchmark validation (n = 2)")
    p.add_argument("--params", default=None, metavar=INPUT_FILE,
                   help="JSON parameter file (default: bundled fixture)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_replicate_nt)

    p = sub.add_parser("rerun", help="replay a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)

    for p in sub.choices.values():   # --out is every command's last option
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${ENV_OUTDIR} or '.')")
    return parser


def _dispatch(args) -> list[Path]:
    """Run a command, then write its outputs, the manifest and a line each."""
    out_dir = Path(args.out or os.environ.get(ENV_OUTDIR) or ".")
    if args.func is cmd_rerun:
        return cmd_rerun(args, out_dir)
    documents, parameters = args.func(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [write_results(doc, out_dir / name,
                             full_precision=name in FULL_PRECISION)
               for name, doc in documents.items()]
    _write_manifest(out_dir, args, parameters, outputs)
    for p in outputs:
        print(f"wrote {p}")
    return outputs


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # usage error (2) or --help (0)
        return exc.code
    try:
        _dispatch(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, OSError) as exc:   # RankDeficientError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
