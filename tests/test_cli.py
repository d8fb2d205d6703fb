"""Command wiring: exit codes, wrapper fidelity, manifest replay."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thickmarket
from thickmarket import calibrate, cli, solver
from thickmarket.cli import main
from thickmarket.mapping import _step
from thickmarket.calibrate import hazards_from_shares, solve_kappa
from thickmarket.dataio import read_monthly_csv, round6, to_panel
from thickmarket.errors import DataError
from thickmarket.fixtures import load_biannual_benchmark, shares_fixture
from thickmarket.seastats import (
    annual_mean_deviation,
    break_scan_report,
    chow_scan,
    fit_seasonal_shift,
    shift_report,
)

PARSER = cli._build_parser()
SUBPARSERS = next(a for a in PARSER._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
INPUT_FILE_OPTIONS = {"--shares", "--trends", "--hazards", "--warm-start",
                      "--data", "--deflate-by", "--params", "--pre-shares",
                      "--post-shares"}
# one quick run of every manifest-writing command; "{panel}" is a price CSV
COMMAND_ARGS = {
    "calibrate": ["--fixture", "sipp-pre"],
    "solve": ["--fixture", "sipp-pre", "--u-fixed", 0.0014],
    "compare": [],
    "shift-test": ["--data", "{panel}", "--break-year", 2021],
    "break-scan": ["--data", "{panel}", "--from-year", 2014, "--to-year", 2023],
    "replicate-nt": [],
}


MODEL_EDGES = ([("--theta", v, "theta") for v in (-0.1, 1.5, "nan", 0)]
               + [("--delta", v, "delta") for v in (-0.1, 1, "nan")]
               + [("--annual-rate", v, "interest rate") for v in (0, -1, "nan")]
               + [("--rent-ratio", v, "rent_price_ratio") for v in (0, 1, "nan")]
               # at the defaults no u > 0 exists once ratio >= 12*(1 - beta)
               + [("--rent-ratio", 0.9, "rent_price_ratio < 12*(1 - beta)")])
# commands that read one input file, "{file}"
SHARES_ARGV = ["calibrate", "--shares", "{file}", "--eta", 0.1]
HAZARDS_ARGV = ["solve", "--hazards", "{file}", "--u-fixed", 0.0014]
WARM_ARGV = ["solve", "--fixture", "sipp-pre", "--warm-start", "{file}"]
PARAMS_ARGV = ["replicate-nt", "--params", "{file}"]
SHIFT_ARGV = ["shift-test", "--data", "{file}", "--break-year", 2021]
SCAN_ARGV = ["break-scan", "--data", "{file}", "--from-year", 2014,
             "--to-year", 2023]
SOURCES = {"calibrate": ["--fixture", "sipp-pre"],
           "solve": ["--fixture", "sipp-pre"], "compare": []}
# (command, flag, bad value, what the error must name); SOURCES gives each
# command the share source it runs with
DOMAIN_EDGES = (
    [(c, flag, v, named) for c in ("solve", "compare")
     for flag, v, named in MODEL_EDGES]
    + [(c, "--pre-eta" if c == "compare" else "--eta", v, "eta")
       for c in SOURCES for v in (0, 1, "nan", 1e-17)]
    + [("solve", "--u-fixed", v, "u must") for v in (0, "nan", "inf")])


def run(argv):
    return main([str(a) for a in argv])


def non_default_argv(command):
    """Every option of a subcommand (bar --out), each off its default."""
    argv = [command]
    for action in SUBPARSERS[command]._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv += [flag, next(c for c in action.choices if c != action.default)]
        elif action.type is float:
            argv += [flag, repr(0.1 + 0.2)]   # needs all 17 digits to round-trip
        elif action.type is int:
            argv += [flag, "7"]
        else:
            argv += [flag, f"{action.dest}-value"]
    return argv


def panel_text(years=range(2009, 2025), zero_year=None):
    """A date,value CSV of a seasonal panel, all zero in ``zero_year``."""
    return "date,value\n" + "".join(
        f"{y}-{m:02d},{0 if y == zero_year else 100 + m}\n"
        for y in years for m in range(1, 13))


# no March from 2021 on: the shift design's March columns are dependent
NO_LATE_MARCH = "".join(f"{line}\n" for line in panel_text().splitlines()
                        if not (line[:4] >= "2021" and line[4:8] == "-03,"))


def make_shift_panel(path, rng, shift_months=(3, 4, 5), shift=2.0,
                     years=range(2009, 2025), noise=0.4):
    rows = ["date,value"]
    for y in years:
        for m in range(1, 13):
            base = 100.0 + 5.0 * np.sin(2 * np.pi * m / 12.0)
            if y >= 2021 and m in shift_months:
                base += shift
            if y >= 2021 and m in (9, 10, 11):
                base -= shift
            rows.append(f"{y}-{m:02d},{base + noise * rng.standard_normal():.6f}")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestCalibrateCommand:
    def test_solves_kappa_once(self, tmp_path, monkeypatch):
        """Counts kappa solves through both the cli and calibrate names."""
        calls = []

        def counting(shares, eta):
            calls.append(eta)
            return solve_kappa(shares, eta)
        monkeypatch.setattr(cli, "solve_kappa", counting)
        monkeypatch.setattr(calibrate, "solve_kappa", counting)
        assert run(["calibrate", "--fixture", "sipp-pre",
                    "--out", tmp_path / "cal"]) == 0
        assert len(calls) == 1

    def test_fixture_matches_library_exactly(self, tmp_path):
        out = tmp_path / "cal"
        assert run(["calibrate", "--fixture", "sipp-post", "--out", out]) == 0
        doc = json.loads((out / "hazards.json").read_text())
        shares, eta = shares_fixture("sipp-post")
        hz = hazards_from_shares(shares, eta)
        kappa = solve_kappa(shares, eta)
        assert doc["hazard"] == hz.hazard.values.tolist()
        assert doc["kappa"] == kappa
        assert int(np.argmax(doc["hazard"])) + 1 == 8   # August modal post-2021

    def test_custom_shares_csv(self, tmp_path):
        csv = tmp_path / "shares.csv"
        csv.write_text("month,share\n" +
                       "\n".join(f"{m},1" for m in range(1, 13)) + "\n")
        out = tmp_path / "cal"
        assert run(["calibrate", "--shares", csv, "--eta", 0.05,
                    "--out", out]) == 0
        doc = json.loads((out / "hazards.json").read_text())
        expected = 1.0 - (1.0 - 0.05) ** (1.0 / 12.0)
        assert np.abs(np.array(doc["hazard"]) - expected).max() < 1e-6

    def test_shares_without_eta_is_input_error(self, tmp_path):
        csv = tmp_path / "shares.csv"
        csv.write_text("month,share\n" +
                       "\n".join(f"{m},1" for m in range(1, 13)) + "\n")
        assert run(["calibrate", "--shares", csv,
                    "--out", tmp_path / "cal"]) == 2

    def test_zero_share_names_month_and_file(self, tmp_path, capsys):
        csv = tmp_path / "zero.csv"
        csv.write_text("month,share\n" + "\n".join(
            f"{m},{0 if m == 1 else 1}" for m in range(1, 13)) + "\n")
        assert run(["calibrate", "--shares", csv, "--eta", 0.1,
                    "--out", tmp_path / "cal"]) == 2
        err = capsys.readouterr().err
        assert "Jan" in err and str(csv) in err

    def test_missing_source_is_input_error(self, tmp_path):
        assert run(["calibrate", "--out", tmp_path / "cal"]) == 2

    def test_trends_source(self, tmp_path):
        rows = ["date,value"]
        for y in (2015, 2016):
            for m in range(1, 13):
                rows.append(f"{y}-{m:02d},{2.0 if m == 7 else 1.0}")
        trends = tmp_path / "trends.csv"
        trends.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cal"
        assert run(["calibrate", "--trends", trends, "--trend-years",
                    "2015-2016", "--eta", 0.1, "--out", out]) == 0
        doc = json.loads((out / "hazards.json").read_text())
        assert int(np.argmax(doc["shares"])) + 1 == 7
        assert abs(doc["shares"][6] - 2.0 / 13.0) < 1e-12

    def test_trends_month_without_interest_names_month_file_and_years(
            self, tmp_path, capsys):
        trends = tmp_path / "trends.csv"
        trends.write_text("date,value\n" + "".join(
            f"{y}-{m:02d},{0 if m == 2 else 1}\n"
            for y in (2015, 2016, 2017) for m in range(1, 13)))
        assert run(["calibrate", "--trends", trends, "--trend-years",
                    "2015-2017", "--eta", 0.1, "--out", tmp_path / "cal"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trends}: search interest in Feb ")
        assert "[2015, 2016, 2017]" in err

    def test_trends_without_years_is_input_error(self, tmp_path):
        trends = tmp_path / "trends.csv"
        trends.write_text("date,value\n2015-01,1\n")
        assert run(["calibrate", "--trends", trends, "--eta", 0.1,
                    "--out", tmp_path / "cal"]) == 2


class TestSolveCommand:
    def test_fixed_u_solve_and_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
                    "--out", out]) == 0
        doc = json.loads((out / "solution.json").read_text())
        assert "converged" not in doc
        assert doc["residual"] <= 1e-12 * max(1.0, *doc["X"], *doc["v"])
        assert len(doc["P"]) == 12
        dev = (out / "deviations.csv").read_text().splitlines()
        assert dev[0] == "month,P_dev,Q_dev"
        assert len(dev) == 13

    def test_nonconvergence_exit_code(self, tmp_path):
        assert run(["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
                    "--max-iter", 3, "--out", tmp_path / "x"]) == 1

    def test_bad_fixture_is_input_error(self, tmp_path):
        rc = run(["solve", "--shares", tmp_path / "nope.csv", "--eta", 0.1,
                  "--out", tmp_path / "x"])
        assert rc == 2

    def test_solve_from_calibrated_hazards_file(self, tmp_path):
        cal = tmp_path / "cal"
        run(["calibrate", "--fixture", "sipp-pre", "--out", cal])
        out = tmp_path / "sol"
        assert run(["solve", "--hazards", cal / "hazards.json",
                    "--u-fixed", 0.0014, "--out", out]) == 0
        direct = tmp_path / "direct"
        assert run(["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
                    "--out", direct]) == 0
        a = json.loads((out / "solution.json").read_text())
        b = json.loads((direct / "solution.json").read_text())
        assert a["P"] == b["P"]   # full-precision hazard handoff is lossless

    def test_hazards_without_eta_solve_and_write_no_eta(self, tmp_path):
        cal, out = tmp_path / "cal", tmp_path / "sol"
        assert run(["calibrate", "--fixture", "sipp-pre", "--out", cal]) == 0
        doc = json.loads((cal / "hazards.json").read_text())
        del doc["eta"]
        (cal / "hazards.json").write_text(json.dumps(doc))
        assert run(["solve", "--hazards", cal / "hazards.json",
                    "--u-fixed", 0.0014, "--out", out]) == 0
        assert "eta" not in json.loads((out / "solution.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["eta"] is None

    def test_hazards_that_disagree_with_survival_are_refused(self, tmp_path,
                                                             capsys):
        """A ``hazard`` array that is not 1 - survival is an input error
        naming the file and the key, not a solve of the survival alone."""
        path = tmp_path / "hazards.json"
        path.write_text(json.dumps({"hazard": [0.5] * 12,
                                    "survival": [0.99] * 12,
                                    "eta": 0.1, "kappa": 3.0}))
        out = tmp_path / "sol"
        assert run(["solve", "--hazards", path, "--u-fixed", 0.0014,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'hazard' must equal 1 - survival")
        assert not out.exists()

    def test_warm_start_reaches_same_fixed_point_faster(self, tmp_path):
        first = tmp_path / "first"
        run(["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
             "--out", first])
        warm = tmp_path / "warm"
        assert run(["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
                    "--warm-start", first / "solution.json",
                    "--out", warm]) == 0
        a = json.loads((first / "solution.json").read_text())
        b = json.loads((warm / "solution.json").read_text())
        assert b["iterations"] < a["iterations"]
        assert max(abs(x - y) for x, y in zip(a["P"], b["P"])) < 1e-3


class TestManifests:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_reruns_reproduce_outputs_byte_identically(self, tmp_path, capsys,
                                                       command):
        """The manifest lists the files written, stdout ends by naming them,
        and a rerun rewrites them byte for byte."""
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(49))
        argv = [panel if a == "{panel}" else a for a in COMMAND_ARGS[command]]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run([command, *argv, "--out", out_a]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        written = sorted(p.name for p in out_a.iterdir()
                         if p.name != "manifest.json")
        assert written and sorted(manifest["outputs"]) == written
        lines = capsys.readouterr().out.splitlines()
        wrote = [f"wrote {out_a / name}" for name in manifest["outputs"]]
        assert lines[-len(wrote):] == wrote
        assert not any(line.startswith("wrote ") for line in lines[:-len(wrote)])

        assert run(["rerun", out_a / "manifest.json", "--out", out_b]) == 0
        assert sorted(p.name for p in out_b.iterdir()
                      if p.name != "manifest.json") == written
        for name in written:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_written_alongside_outputs(self, tmp_path):
        out = tmp_path / "cal"
        run(["calibrate", "--fixture", "sipp-pre", "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "calibrate"
        assert "hazards.json" in manifest["outputs"]
        assert manifest["replay"][0] == "calibrate"

    @pytest.mark.parametrize("command", sorted(set(SUBPARSERS) - {"rerun"}))
    def test_replay_round_trips_every_option(self, tmp_path, command):
        argv = non_default_argv(command)
        args = PARSER.parse_args(argv + ["--out", str(tmp_path)])
        for action in SUBPARSERS[command]._actions:
            if action.option_strings and action.dest not in ("help", "out"):
                assert getattr(args, action.dest) != action.default, action.dest

        cli._write_manifest(tmp_path, args, {}, [])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert vars(PARSER.parse_args(manifest["replay"])) == {**vars(args),
                                                                "out": None}
        assert manifest["inputs"] == [argv[i + 1] for i, a in enumerate(argv)
                                      if a in INPUT_FILE_OPTIONS]

    def test_rerun_from_another_directory(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        (a / "s.csv").write_text("month,share\n" + "".join(
            f"{m},{m}\n" for m in range(1, 13)))
        monkeypatch.chdir(a)
        assert run(["calibrate", "--shares", "s.csv", "--eta", 0.1,
                    "--out", "out"]) == 0
        monkeypatch.chdir(b)
        assert run(["rerun", "../a/out/manifest.json", "--out", "out"]) == 0
        assert ((a / "out" / "hazards.json").read_bytes()
                == (b / "out" / "hazards.json").read_bytes())

    def test_rerun_missing_manifest(self, tmp_path):
        assert run(["rerun", tmp_path / "none.json"]) == 2

    @pytest.mark.parametrize("edit", [
        lambda replay: replay + ["--tol", "1e-4"],
        lambda replay: ["solve", "--fixture", "sipp-pre", "--lambda", "0.01",
                        "--u-fixed", "0.0014"],
        lambda replay: ["shift-test", "--data", "prices.csv",
                        "--base-year", "2005"],
        lambda replay: " ".join(replay),
        lambda replay: replay + [0.1],
        lambda replay: [],
    ], ids=["retired-option", "retired-lambda", "retired-base-year", "string",
            "non-string-item", "empty"])
    def test_replay_that_does_not_parse_is_input_error(self, tmp_path, capsys,
                                                       edit):
        out = tmp_path / "cal"
        assert run(["calibrate", "--fixture", "sipp-pre", "--out", out]) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["replay"] = edit(manifest["replay"])
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["rerun", path, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.startswith(f"error: manifest {path}")

    @pytest.mark.parametrize("cwd", [123, "{missing}"], ids=["int", "missing"])
    def test_manifest_cwd_that_is_no_directory_is_input_error(
            self, tmp_path, capsys, cwd):
        """An integer would be taken as a file descriptor by os.chdir."""
        out = tmp_path / "cal"
        assert run(["calibrate", "--fixture", "sipp-pre", "--out", out]) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["cwd"] = str(tmp_path / "gone") if cwd == "{missing}" else cwd
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["rerun", path, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {path}: cwd")
        assert not (tmp_path / "x").exists()

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THICKMARKET_OUTDIR", str(tmp_path / "envout"))
        assert run(["calibrate", "--fixture", "sipp-pre"]) == 0
        assert (tmp_path / "envout" / "hazards.json").exists()


class TestCompareCommand:
    def test_shares_files_accepted(self, tmp_path):
        csv = tmp_path / "shares.csv"
        csv.write_text("month,share\n" +
                       "\n".join(f"{m},1" for m in range(1, 13)) + "\n")
        out = tmp_path / "cmp"
        assert run(["compare", "--pre-shares", csv, "--pre-eta", 0.1,
                    "--post-shares", csv, "--post-eta", 0.1,
                    "--out", out]) == 0
        doc = json.loads((out / "compare.json").read_text())
        assert max(abs(x) for x in doc["delta"]["P"]["per_month"]) == 0.0

    def test_annual_rate_reaches_both_solves(self, tmp_path, monkeypatch):
        calls = []

        def record(shares, eta, **kwargs):
            calls.append(kwargs)
            return None, None, None

        def stop(*_):
            raise DataError("stop before writing outputs")

        monkeypatch.setattr(cli, "solve_calibration", record)
        monkeypatch.setattr(cli, "compare_calibrations", stop)
        assert run(["compare", "--annual-rate", 0.02,
                    "--out", tmp_path / "cmp"]) == 2
        assert [c["annual_rate"] for c in calls] == [0.02, 0.02]

    def test_unknown_fixture_name_rejected(self, tmp_path, capsys):
        assert main(["compare", "--pre-fixture", "pre",
                     "--out", str(tmp_path)]) == 2
        assert "invalid choice: 'pre'" in capsys.readouterr().err
        with pytest.raises(DataError, match="unknown share fixture"):
            shares_fixture("pre")

    def test_shares_file_without_eta_is_input_error(self, tmp_path):
        csv = tmp_path / "shares.csv"
        csv.write_text("month,share\n" +
                       "\n".join(f"{m},1" for m in range(1, 13)) + "\n")
        assert run(["compare", "--pre-shares", csv,
                    "--out", tmp_path / "cmp"]) == 2

    def test_defaulted_fixture_of_an_older_manifest_yields(self, tmp_path):
        """Manifests written while the side fixtures had parser defaults
        replay ``--pre-fixture sipp-pre`` next to ``--pre-shares``; the
        default fixture yields to the file, so they rerun unchanged."""
        csv = tmp_path / "shares.csv"
        csv.write_text("month,share\n" + "".join(
            f"{m},{m % 5 + 1}\n" for m in range(1, 13)))
        new, old = tmp_path / "new", tmp_path / "old"
        assert run(["compare", "--pre-shares", csv, "--pre-eta", 0.1,
                    "--out", new]) == 0
        manifest = json.loads((new / "manifest.json").read_text())
        assert "--pre-fixture" not in manifest["replay"]
        manifest["replay"][1:1] = ["--pre-fixture", "sipp-pre",
                                   "--post-fixture", "sipp-post"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run(["rerun", tmp_path / "manifest.json", "--out", old]) == 0
        for name in ("compare.json", "compare.csv"):
            assert (new / name).read_bytes() == (old / name).read_bytes()
        replayed = json.loads((old / "manifest.json").read_text())
        assert replayed["parameters"] == manifest["parameters"]

    def test_defaulted_rent_ratio_of_an_older_manifest_yields(self, tmp_path):
        """Manifests written while --rent-ratio had a parser default replay
        ``--rent-ratio 0.03`` next to ``--u-fixed``; the default is accepted
        there, so they rerun unchanged."""
        new, old = tmp_path / "new", tmp_path / "old"
        assert run(["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
                    "--out", new]) == 0
        manifest = json.loads((new / "manifest.json").read_text())
        replay = manifest["replay"]
        assert "--rent-ratio" not in replay
        at = replay.index("--max-iter")   # where the parser default sat
        replay[at:at] = ["--rent-ratio", "0.03"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run(["rerun", tmp_path / "manifest.json", "--out", old]) == 0
        for name in ("solution.json", "summary.json", "deviations.csv"):
            assert (new / name).read_bytes() == (old / name).read_bytes()

    def test_identical_sides_give_zero_deltas(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare", "--pre-fixture", "sipp-pre",
                    "--post-fixture", "sipp-pre", "--out", out]) == 0
        doc = json.loads((out / "compare.json").read_text())
        for key in ("P", "Q"):
            assert max(abs(x) for x in doc["delta"][key]["per_month"]) == 0.0
        table = (out / "compare.csv").read_text().splitlines()
        assert table[0].startswith("month,P_dev_pre")
        assert len(table) == 13


class TestShiftTestCommand:
    @pytest.mark.parametrize("command", ["shift-test", "break-scan"])
    def test_default_min_months_of_an_older_manifest_yields(self, tmp_path,
                                                           command):
        """Manifests written while --min-months had a parser default replay
        ``--min-months 6`` under ``--mode centered12``; the default is
        accepted there, so they rerun unchanged."""
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(57))
        argv = [panel if a == "{panel}" else a for a in COMMAND_ARGS[command]]
        new, old = tmp_path / "new", tmp_path / "old"
        assert run([command, *argv, "--mode", "centered12", "--out", new]) == 0
        manifest = json.loads((new / "manifest.json").read_text())
        replay = manifest["replay"]
        assert "--min-months" not in replay
        at = replay.index("--mode") + 2   # where the parser default sat
        replay[at:at] = ["--min-months", "6"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run(["rerun", tmp_path / "manifest.json", "--out", old]) == 0
        for name in manifest["outputs"]:
            assert (new / name).read_bytes() == (old / name).read_bytes()

    def test_deflation_needs_no_base_year(self, tmp_path):
        """Deviations are ratios to year means, so the level of the deflator
        moves none of them."""
        years = range(2000, 2016)
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(53), years=years)
        cpi = {(y, m): float(f"{100.0 * 1.002 ** (12 * (y - 2000) + m):.6f}")
               for y in years for m in range(1, 13)}
        for name, scale in (("cpi", 1.0), ("cpi_x4", 4.0)):
            (tmp_path / f"{name}.csv").write_text("date,value\n" + "".join(
                f"{y}-{m:02d},{scale * c!r}\n" for (y, m), c in cpi.items()))
            assert run(["shift-test", "--data", panel, "--deflate-by",
                        tmp_path / f"{name}.csv", "--break-year", 2010,
                        "--out", tmp_path / name]) == 0
        for name in ("shift_test.json", "shift_test.txt"):
            assert ((tmp_path / "cpi" / name).read_bytes()
                    == (tmp_path / "cpi_x4" / name).read_bytes())

    @pytest.mark.parametrize("bad", ["data", "deflator"])
    def test_parse_error_names_the_file(self, tmp_path, capsys, bad):
        """With --data and --deflate-by, the error says which file is bad."""
        files = {"data": make_shift_panel(tmp_path / "panel.csv",
                                          np.random.default_rng(54)),
                 "deflator": tmp_path / "cpi.csv"}
        files["deflator"].write_text("date,value\n" + "".join(
            f"{y}-{m:02d},100\n" for y in range(2009, 2025) for m in range(1, 13)))
        lines = files[bad].read_text().splitlines()
        lines[2] = "2009-0x,100"
        files[bad].write_text("\n".join(lines) + "\n")
        assert run(["shift-test", "--data", files["data"], "--deflate-by",
                    files["deflator"], "--out", tmp_path / "st"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[bad]}: line 3: cannot parse date")

    @pytest.mark.parametrize("defect, message", [
        ("truncated", "deflator does not cover 2017-04"),
        ("zero", "deflator is zero at 2017-04"),
    ])
    def test_deflator_gap_names_both_files(self, tmp_path, capsys, defect,
                                           message):
        """A deflator that fails to cover or is zero at a month of the data
        is a fault of the pair, so the error names both files."""
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(55))
        cpi = tmp_path / "cpi.csv"
        rows = [(y, m) for y in range(2009, 2025) for m in range(1, 13)]
        if defect == "truncated":
            rows = rows[:rows.index((2017, 4))]
        cpi.write_text("date,value\n" + "".join(
            f"{y}-{m:02d},{0 if (y, m) == (2017, 4) else 100}\n" for y, m in rows))
        for command in ("shift-test", "break-scan"):
            years = ["--from-year", 2014, "--to-year", 2023] * (command == "break-scan")
            assert run([command, "--data", panel, "--deflate-by", cpi, *years,
                        "--out", tmp_path / command]) == 2
            assert capsys.readouterr().err == (
                f"error: {panel} deflated by {cpi}: {message}\n")
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("command", ["shift-test", "break-scan"])
    @pytest.mark.parametrize("bad_file, cell, message", [
        ("cpi", "1e-320", "deflated value is not finite at 2015-03"),
        ("panel", "1e308",
         "value 1e+308 at 2015-03 makes the deviation at 2015-01 non-finite"),
    ], ids=["subnormal-cpi", "huge-price"])
    def test_non_finite_data_is_refused(self, tmp_path, capsys, command,
                                        bad_file, cell, message):
        """A cell that passes the reader, being finite and non-zero, but
        overflows the deflated series or the deviations is an input error,
        not a report of F = inf or nan."""
        files = {"panel": make_shift_panel(tmp_path / "panel.csv",
                                           np.random.default_rng(58)),
                 "cpi": tmp_path / "cpi.csv"}
        files["cpi"].write_text("date,value\n" + "".join(
            f"{y}-{m:02d},100\n" for y in range(2009, 2025) for m in range(1, 13)))
        text = files[bad_file].read_text()
        start = text.index("2015-03,") + len("2015-03,")
        files[bad_file].write_text(text[:start] + cell + text[text.index("\n", start):])
        years = ["--from-year", 2014, "--to-year", 2023] * (command == "break-scan")
        deflate = ["--deflate-by", files["cpi"]] * (bad_file == "cpi")
        assert run([command, "--data", files["panel"], *deflate, *years,
                    "--out", tmp_path / "out"]) == 2
        label = " deflated by ".join(map(str, [files["panel"], *deflate[1:]]))
        assert capsys.readouterr().err == f"error: {label}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_constructed_shift_detected(self, tmp_path):
        rng = np.random.default_rng(44)
        panel = make_shift_panel(tmp_path / "panel.csv", rng)
        out = tmp_path / "st"
        assert run(["shift-test", "--data", panel, "--break-year", 2021,
                    "--out", out]) == 0
        doc = json.loads((out / "shift_test.json").read_text())
        assert doc["joint_F"]["p"] < 0.05
        assert doc["seasonal_delta"]["spring"] > 0.5
        assert doc["directional_contrast"]["p_one_sided"] < 0.05
        assert (out / "shift_test.txt").exists()

    def test_no_shift_panel_accepts_null(self, tmp_path):
        rng = np.random.default_rng(45)
        panel = make_shift_panel(tmp_path / "panel.csv", rng, shift=0.0,
                                 noise=1.0)
        out = tmp_path / "st"
        assert run(["shift-test", "--data", panel, "--break-year", 2021,
                    "--out", out]) == 0
        doc = json.loads((out / "shift_test.json").read_text())
        assert doc["joint_F"]["F"] < 3.0
        assert abs(doc["seasonal_delta"]["spring"]) < 1.5

    def test_non_finite_value_is_input_error(self, tmp_path, capsys):
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(50))
        lines = panel.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",nan"
        panel.write_text("\n".join(lines) + "\n")
        assert run(["shift-test", "--data", panel,
                    "--out", tmp_path / "st"]) == 2
        assert "line 6: non-finite value" in capsys.readouterr().err

    def test_row_without_a_date_is_input_error(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text("value,date\n100,2019-01\n101\n")
        assert run(["shift-test", "--data", panel, "--out", tmp_path / "st"]) == 2
        assert capsys.readouterr().err == (
            f"error: {panel}: line 3: cannot parse date '' "
            "(expected YYYY-MM or YYYY-MM-DD)\n")

    def test_centered_mode_runs(self, tmp_path):
        rng = np.random.default_rng(46)
        panel = make_shift_panel(tmp_path / "panel.csv", rng)
        assert run(["shift-test", "--data", panel, "--break-year", 2021,
                    "--mode", "centered12", "--out", tmp_path / "st"]) == 0

    @pytest.mark.parametrize("years, where", [
        (range(2013, 2022), "from 2021 on"), (range(2020, 2026), "before 2021"),
    ], ids=["one-post-year", "one-pre-year"])
    def test_single_observation_side_is_input_error(self, tmp_path, capsys,
                                                    years, where):
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(54), years=years)
        out = tmp_path / "st"
        assert run(["shift-test", "--data", panel, "--break-year", 2021,
                    "--out", out]) == 2
        assert f"Jan has a single observation {where}" in capsys.readouterr().err
        assert not out.exists()


class TestBreakScanCommand:
    def test_noise_free_break_and_thin_candidate_reported(self, tmp_path,
                                                          capsys):
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(55), noise=0.0)
        out = tmp_path / "bs"
        assert run(["break-scan", "--data", panel, "--from-year", 2010,
                    "--to-year", 2021, "--out", out]) == 0
        reason = "only 12 observations on one side (need 24)"
        assert f"  2010: skipped ({reason})" in capsys.readouterr().out
        doc = json.loads((out / "break_scan.json").read_text())
        assert doc["skipped"] == [{"year": 2010, "reason": reason}]
        F = {c["year"]: c["F"] for c in doc["candidates"]}
        assert F.pop(2021) == "inf" and doc["max_F_year"] == 2021
        assert all(isinstance(f, float) for f in F.values())

    def test_argmax_at_constructed_break(self, tmp_path):
        rng = np.random.default_rng(47)
        panel = make_shift_panel(tmp_path / "panel.csv", rng, shift=3.0)
        out = tmp_path / "bs"
        assert run(["break-scan", "--data", panel, "--from-year", 2014,
                    "--to-year", 2023, "--out", out]) == 0
        doc = json.loads((out / "break_scan.json").read_text())
        assert doc["max_F_year"] == 2021

    def test_stable_panel_small_f(self, tmp_path):
        rng = np.random.default_rng(48)
        panel = make_shift_panel(tmp_path / "panel.csv", rng, shift=0.0,
                                 noise=1.0)
        out = tmp_path / "bs"
        assert run(["break-scan", "--data", panel, "--from-year", 2014,
                    "--to-year", 2023, "--out", out]) == 0
        doc = json.loads((out / "break_scan.json").read_text())
        assert all(c["F"] < 2.5 for c in doc["candidates"])


@pytest.mark.parametrize("noise, shift, scan_years, joint_F, has_max", [
    (0.4, 2.0, (2014, 2023), None, True),
    (0.0, 2.0, (2014, 2023), "inf", True),
    (0.0, 0.0, (2014, 2023), 0.0, False),
    (0.4, 2.0, (2001, 2009), None, False),
], ids=["noisy", "noise-free-shift", "noise-free-null", "all-skipped"])
def test_reports_are_the_written_documents(tmp_path, noise, shift, scan_years,
                                           joint_F, has_max):
    """round6 of seastats' shift and break-scan reports, built from the
    panel the CLI reads, is the JSON the CLI writes; a noise-free panel
    writes its F as 0 or "inf", and a scan with every candidate skipped,
    or with every tested candidate's F at 0 (a noise-free panel without a
    shift), names no max_F_year."""
    panel = make_shift_panel(tmp_path / "panel.csv", np.random.default_rng(58),
                             shift=shift, noise=noise)
    first, last = scan_years
    assert run(["shift-test", "--data", panel, "--out", tmp_path / "st"]) == 0
    assert run(["break-scan", "--data", panel, "--from-year", first,
                "--to-year", last, "--out", tmp_path / "bs"]) == 0
    shift_doc = json.loads((tmp_path / "st" / "shift_test.json").read_text())
    scan_doc = json.loads((tmp_path / "bs" / "break_scan.json").read_text())

    components = annual_mean_deviation(to_panel(read_monthly_csv(panel)),
                                       cli.MIN_MONTHS)
    fit = fit_seasonal_shift(components, 2021)
    assert round6(shift_report(fit, components, 2021)) == shift_doc
    scan = chow_scan(components, range(first, last + 1))
    assert round6(break_scan_report(scan)) == scan_doc
    if joint_F is not None:
        assert shift_doc["joint_F"]["F"] == joint_F
    assert ("max_F_year" in scan_doc) is has_max


class TestReplicateBenchmark:
    def test_bundled_fixture_validates(self, tmp_path):
        out = tmp_path / "nt"
        assert run(["replicate-nt", "--out", out]) == 0
        doc = json.loads((out / "benchmark_report.json").read_text())
        assert doc["targets"]["within_tolerance"] is True

    def test_missing_params_file_names_fields(self, tmp_path, capsys):
        rc = run(["replicate-nt", "--params", tmp_path / "gone.json",
                  "--out", tmp_path / "nt"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "beta_hat" in err and "survival" in err

    def test_symmetric_seasons(self, tmp_path):
        params = {"beta_hat": 0.9713, "delta": 0.0, "theta": 0.5, "u": 0.05,
                  "survival": [0.95, 0.95], "labels": ["winter", "summer"]}
        pfile = tmp_path / "sym.json"
        pfile.write_text(json.dumps(params))
        out = tmp_path / "nt"
        assert run(["replicate-nt", "--params", pfile, "--out", out]) == 0
        doc = json.loads((out / "benchmark_report.json").read_text())
        assert doc["sale_probability"][0] == doc["sale_probability"][1]

    @pytest.mark.parametrize("field, value, named", [
        ("labels", ["winter", "spring", "summer"], "labels"),
        ("labels", 5, "labels"),
        ("labels", ["winter"], "labels"),
        ("tolerance", "x", "targets.tolerance"),
        ("sale_probability", [0.25], "targets.sale_probability"),
    ], ids=["three-labels", "labels-not-a-list", "one-label",
            "tolerance-not-a-number", "one-sale-probability"])
    def test_malformed_optional_fields_are_refused(self, tmp_path, capsys,
                                                   field, value, named):
        """Labels must be n strings and each target n finite numbers, with a
        positive finite tolerance; otherwise exit 2 naming the field."""
        params = load_biannual_benchmark()
        if field == "labels":
            params["labels"] = value
        else:
            params["targets"][field] = value
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        out = tmp_path / "nt"
        assert run(["replicate-nt", "--params", pfile, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pfile}: {named} must be ")
        assert "Traceback" not in err and not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, flag, value, named", DOMAIN_EDGES,
        ids=[f"{c}{flag}={v}" for c, flag, v, _ in DOMAIN_EDGES])
    def test_model_parameter_edges_are_domain_errors(
            self, tmp_path, capsys, command, flag, value, named):
        """Exit 2 naming the parameter, with no traceback and no outputs."""
        out = tmp_path / "out"
        assert run([command, *SOURCES[command], flag, value,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("u", [1, 2, 1e306])
    def test_fixed_u_of_one_or_more_is_refused(self, tmp_path, capsys,
                                               monkeypatch, u):
        """A fixed u >= 1 shuts the market: exit 2 naming --u-fixed before
        any map evaluation, with the error line alone on stderr (no
        overflow warning, no zero-mean deviation error)."""
        calls = []
        monkeypatch.setattr(solver, "_step",
                            lambda *args: calls.append(None) or _step(*args))
        out = tmp_path / "out"
        assert run(["solve", "--fixture", "sipp-pre", "--u-fixed", u,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --u-fixed ") and err.count("\n") == 1
        assert "shuts the market" in err
        assert calls == [] and not out.exists()

    def test_non_finite_map_evaluation_exits_1(self, tmp_path, capsys,
                                               monkeypatch):
        """A solve that reaches a non-finite evaluation does not converge
        (exit 1); it is not an input error and writes nothing."""
        def poisoned(*args):
            X_new, v_new, eps = _step(*args)
            return X_new, v_new * np.nan, eps

        monkeypatch.setattr(solver, "_step", poisoned)
        out = tmp_path / "out"
        assert run(["solve", "--fixture", "sipp-pre", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: map evaluation 1 of the equilibrium "
                              "solve is not finite")
        assert not out.exists()

    def test_theta_zero_solves_at_fixed_u(self, tmp_path):
        assert run(["solve", "--fixture", "sipp-pre", "--theta", 0,
                    "--u-fixed", 0.0014, "--out", tmp_path / "x"]) == 0

    @pytest.mark.parametrize("command", ["shift-test", "break-scan"])
    def test_emptied_panel_is_input_error(self, tmp_path, capsys, command):
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(52))
        argv = [panel if a == "{panel}" else a for a in COMMAND_ARGS[command]]
        out = tmp_path / "out"
        assert run([command, *argv, "--min-months", 13, "--out", out]) == 2
        assert "no observations left to test" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["annual", "centered12"])
    @pytest.mark.parametrize("command", ["shift-test", "break-scan"])
    def test_csv_without_values_is_input_error(self, tmp_path, capsys,
                                               command, mode):
        panel = tmp_path / "panel.csv"
        panel.write_text("date,value\n2019-01,\n2019-02,\n")
        argv = [panel if a == "{panel}" else a for a in COMMAND_ARGS[command]]
        out = tmp_path / "out"
        assert run([command, *argv, "--mode", mode, "--out", out]) == 2
        assert "no observations left to test" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--hazards", "{file}", "--u-fixed", 0.0014],
        ["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
         "--warm-start", "{file}"],
        ["replicate-nt", "--params", "{file}"],
        ["rerun", "{file}"],
    ], ids=["hazards", "warm-start", "params", "manifest"])
    @pytest.mark.parametrize("text", ["{bad", "[1, 2]"],
                             ids=["malformed", "not-an-object"])
    def test_bad_json_is_input_error(self, tmp_path, capsys, argv, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = [bad if a == "{file}" else a for a in argv]
        assert run(argv + ["--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--no-such-option"], 2),
        (["frobnicate"], 2),
        (["solve", "--help"], 0),
    ], ids=["unknown-option", "unknown-command", "help"])
    def test_usage_returns_argparse_code(self, capsys, argv, code):
        assert main(argv) == code
        out = capsys.readouterr()
        assert "usage:" in (out.err if code else out.out)

    @pytest.mark.parametrize("argv", [
        ["solve", "--fixture", "sipp-pre", "--u-fixed", "0.0014"],
        ["compare"],
        ["replicate-nt"],
    ], ids=["solve", "compare", "replicate-nt"])
    def test_retired_lambda_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--lambda", "0.01", "--out", str(out)]) == 2
        assert "unrecognized arguments: --lambda 0.01" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["shift-test", "break-scan"])
    def test_retired_base_year_is_usage_error(self, tmp_path, capsys, command):
        argv = ["prices.csv" if a == "{panel}" else a
                for a in COMMAND_ARGS[command]]
        out = tmp_path / "out"
        assert run([command, *argv, "--base-year", 2005, "--out", out]) == 2
        assert "unrecognized arguments: --base-year 2005" in capsys.readouterr().err
        assert not out.exists()

    def test_unexpected_exception_exits_3(self, tmp_path, capsys,
                                          monkeypatch):
        def broken(shares, eta):
            raise ZeroDivisionError("boom")
        monkeypatch.setattr(cli, "solve_kappa", broken)
        assert run(["calibrate", "--fixture", "sipp-pre",
                    "--out", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "internal error: ZeroDivisionError('boom')" in err
        assert "Traceback" in err

    @pytest.mark.parametrize("command", ["solve", "replicate-nt"])
    def test_empty_iteration_budget_is_domain_error(self, tmp_path, capsys,
                                                    command):
        source = (["--fixture", "sipp-pre", "--u-fixed", 0.0014]
                  if command == "solve" else [])
        assert run([command, *source, "--max-iter", 0,
                    "--out", tmp_path / "x"]) == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["calibrate", "--trends", "{trends}", "--trend-years", "abc",
          "--eta", 0.1], "--trend-years"),
        (["calibrate", "--trends", "{trends}", "--trend-years", "2010-x",
          "--eta", 0.1], "--trend-years"),
        (["calibrate", "--trends", "{trends}", "--trend-years", "2015-",
          "--eta", 0.1], "'2015-'"),
        (["calibrate", "--trends", "{trends}", "--trend-years",
          "2015,2020-2010", "--eta", 0.1], "'2020-2010'"),
        (["calibrate", "--trends", "{trends}", "--trend-years", ",",
          "--eta", 0.1], "--trend-years ','"),
        (["calibrate", "--trends", "{trends}", "--trend-years",
          "2015-2016,2015", "--eta", 0.1], "'2015' repeats a year"),
        (["calibrate", "--trends", "{trends}", "--trend-years",
          "2015,1-3000000", "--eta", 0.1], "'1-3000000' leaves 1-9999"),
        (["shift-test", "--data", "{panel}", "--min-months", 13],
         "--min-months"),
        (["shift-test", "--data", "{panel}", "--min-months", 0],
         "--min-months 0"),
        (["shift-test", "--data", "{panel}", "--min-months", -3],
         "--min-months -3"),
        (["solve", "--hazards", "{hazards}", "--u-fixed", 0.0014], "{hazards}"),
        (["replicate-nt", "--params", "{params}"], "{params}"),
        (["break-scan", "--data", "{panel}", "--from-year", 2023,
          "--to-year", 2015], "--from-year 2023 and --to-year 2015"),
        (["break-scan", "--data", "{panel}", "--from-year", 2014,
          "--to-year", 202015], "--from-year 2014 and --to-year 202015"),
        (["break-scan", "--data", "{panel}", "--from-year", 0,
          "--to-year", 2015], "--from-year 0 and --to-year 2015"),
    ], ids=["trend-years", "trend-range", "open-range", "reversed-range",
            "no-years", "repeated-year", "huge-range", "min-months",
            "min-months-zero", "min-months-negative", "hazards",
            "params", "falling-scan", "huge-scan", "scan-from-year-zero"])
    def test_ill_typed_input_is_input_error(self, tmp_path, capsys, argv,
                                            named):
        """Values that parse as the wrong type exit 2 and name their source."""
        files = {"{trends}": tmp_path / "trends.csv",
                 "{panel}": tmp_path / "panel.csv",
                 "{hazards}": tmp_path / "hazards.json",
                 "{params}": tmp_path / "params.json"}
        files["{trends}"].write_text("date,value\n2015-01,1\n")
        make_shift_panel(files["{panel}"], np.random.default_rng(51))
        files["{hazards}"].write_text(json.dumps(
            {"survival": [0.99] * 11 + ["abc"]}))
        files["{params}"].write_text(json.dumps(
            {**load_biannual_benchmark(), "beta_hat": "abc"}))
        argv = [files.get(a, a) for a in argv]
        assert run(argv + ["--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(files.get(named, named)) in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, text", [
        (SHARES_ARGV, "month,share\n1,1\nFoo,1\n"),
        (SHARES_ARGV, "month,share\n1,1\n1,1\n"),
        (SHARES_ARGV, "month,share\n1,1\n2,abc\n"),
        (SHARES_ARGV, "month,share\n1,1\n2\n"),
        (SHARES_ARGV, "share,month\n1,1\n1\n"),
        (HAZARDS_ARGV, json.dumps({"survival": [0.99] * 11 + [float("nan")]})),
        (HAZARDS_ARGV, json.dumps({"survival": 0.99})),
        (HAZARDS_ARGV, json.dumps({"survival": []})),
        (HAZARDS_ARGV, json.dumps({"survival": [0.99] * 11 + [1.5]})),
        (HAZARDS_ARGV, json.dumps({"survival": [0.9, 0.95]})),
        (WARM_ARGV, json.dumps({key: [1.0] * (11 if key == "X" else 12)
                                for key in ("X", "v", "epsilon", "Q", "P")})),
        (WARM_ARGV, json.dumps({key: [1.0] * (13 if key == "v" else 12)
                                for key in ("X", "v", "epsilon", "Q", "P")})),
        (WARM_ARGV, json.dumps({key: [1.0] * (13 if key == "Q" else 12)
                                for key in ("X", "v", "epsilon", "Q", "P")})),
        (HAZARDS_ARGV, json.dumps({"survival": [0.99] * 12, "eta": "abc"})),
        (HAZARDS_ARGV, json.dumps({"survival": [0.99] * 12, "eta": 1.5})),
        (HAZARDS_ARGV, json.dumps({"survival": [0.99] * 12, "eta": True})),
        (PARAMS_ARGV, json.dumps({**load_biannual_benchmark(), "targets": {
            "vacancies": [0.167, 0.18]}})),
        (PARAMS_ARGV, json.dumps({**load_biannual_benchmark(), "targets": {
            "sale_probability": [0.25, 0.31]}})),
        (PARAMS_ARGV, json.dumps({**load_biannual_benchmark(),
                                  "targets": [0.25, 0.31]})),
        (PARAMS_ARGV, json.dumps({**load_biannual_benchmark(),
                                  "beta_hat": 1.5})),
        (PARAMS_ARGV, json.dumps({**load_biannual_benchmark(),
                                  "survival": [1.5, 0.9]})),
        (SHIFT_ARGV, panel_text(zero_year=2016)),
        (SCAN_ARGV, panel_text(zero_year=2016)),
        (SHIFT_ARGV, panel_text(years=range(2009, 2021))),
        (SHIFT_ARGV, NO_LATE_MARCH),
    ], ids=["shares-unknown-month", "shares-repeated-month",
            "shares-unparsable", "shares-short-row", "shares-no-month",
            "hazards-nan", "hazards-scalar", "hazards-empty",
            "hazards-out-of-range", "hazards-two-seasons", "warm-start-short-X",
            "warm-start-long-v", "warm-start-long-Q", "hazards-eta-text",
            "hazards-eta-above-one", "hazards-eta-bool",
            "targets-without-sale-probability",
            "targets-without-vacancies", "targets-not-an-object",
            "params-beta-hat-out-of-range", "params-survival-out-of-range",
            "shift-test-zero-mean-year", "break-scan-zero-mean-year",
            "shift-test-no-post-break-year", "shift-test-rank-deficient"])
    def test_bad_input_file_is_named(self, tmp_path, capsys, argv, text):
        """Every input error in a file's content exits 2 naming the file."""
        bad = tmp_path / "input"
        bad.write_text(text)
        out = tmp_path / "out"
        assert run([bad if a == "{file}" else a for a in argv]
                   + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, text, message", [
        (SHIFT_ARGV, panel_text(zero_year=2016), "year 2016 has zero mean"),
        (SCAN_ARGV, panel_text(zero_year=2016), "year 2016 has zero mean"),
        (SHIFT_ARGV, panel_text(years=range(2009, 2021)),
         "observations must span both sides of the break year 2021"),
        (SHIFT_ARGV, NO_LATE_MARCH, "design matrix is rank deficient"),
    ], ids=["shift-test-zero-mean-year", "break-scan-zero-mean-year",
            "shift-test-no-post-break-year", "shift-test-rank-deficient"])
    def test_deflated_panel_error_names_both_files(self, tmp_path, capsys,
                                                   argv, text, message):
        """A fault found after deflation names the panel and its deflator."""
        panel, cpi = tmp_path / "panel.csv", tmp_path / "cpi.csv"
        panel.write_text(text)
        cpi.write_text(panel_text())
        out = tmp_path / "out"
        assert run([panel if a == "{file}" else a for a in argv]
                   + ["--deflate-by", cpi, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {panel} deflated by {cpi}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--eta", 0.1, "--shares", "{missing}"],
        ["calibrate", "--eta", 0.1, "--trend-years", 2015,
         "--trends", "{missing}"],
        ["solve", "--u-fixed", 0.0014, "--hazards", "{missing}"],
        ["solve", "--fixture", "sipp-pre", "--warm-start", "{missing}"],
        ["shift-test", "--data", "{missing}"],
        ["shift-test", "--data", "{panel}", "--deflate-by", "{missing}"],
        ["replicate-nt", "--params", "{missing}"],
        ["rerun", "{missing}"],
    ], ids=["shares", "trends", "hazards", "warm-start", "data", "deflate-by",
            "params", "manifest"])
    def test_missing_input_file_is_named(self, tmp_path, capsys, argv):
        missing = tmp_path / "absent"
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(56))
        files = {"{missing}": missing, "{panel}": panel}
        out = tmp_path / "out"
        assert run([files.get(a, a) for a in argv] + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["shift-test", "--data", "{bad}"],
        ["shift-test", "--data", "{panel}", "--deflate-by", "{bad}"],
        ["calibrate", "--shares", "{bad}", "--eta", 0.1],
        ["calibrate", "--trends", "{bad}", "--trend-years", 2015,
         "--eta", 0.1],
    ], ids=["data", "deflate-by", "shares", "trends"])
    def test_input_that_is_not_utf8_is_named(self, tmp_path, capsys, argv):
        """A byte that is not UTF-8 exits 2 naming the file and the byte."""
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"date,value\n2015-01,caf\xe9\n")
        panel = make_shift_panel(tmp_path / "panel.csv",
                                 np.random.default_rng(59))
        files = {"{bad}": bad, "{panel}": panel}
        out = tmp_path / "out"
        assert run([files.get(a, a) for a in argv] + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text (byte 0xe9")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["calibrate", "--fixture", "sipp-pre", "--shares", "{shares}"],
         "--fixture and --shares are alternative"),
        (["calibrate", "--shares", "{shares}", "--eta", 0.1,
          "--trends", "{trends}", "--trend-years", "2015"],
         "--shares and --trends are alternative"),
        (["calibrate", "--fixture", "sipp-pre", "--trend-years", "2015"],
         "--trend-years applies only with --trends"),
        (["solve", "--fixture", "sipp-pre", "--hazards", "{hazards}",
          "--u-fixed", 0.0014], "--fixture and --hazards are alternative"),
        (["solve", "--hazards", "{hazards}", "--eta", 0.5,
          "--u-fixed", 0.0014], "--eta does not apply with --hazards"),
        (["compare", "--pre-fixture", "sipp-post", "--pre-shares", "{shares}",
          "--pre-eta", 0.1], "--pre-fixture and --pre-shares are alternative"),
        (["compare", "--post-fixture", "sipp-pre", "--post-shares",
          "{shares}", "--post-eta", 0.1],
         "--post-fixture and --post-shares are alternative"),
        (["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
          "--rent-ratio", 5], "--rent-ratio does not apply with --u-fixed"),
        (["shift-test", "--data", "{panel}", "--mode", "centered12",
          "--min-months", 99],
         "--min-months does not apply with --mode centered12"),
        (["break-scan", "--data", "{panel}", "--from-year", 2014,
          "--to-year", 2023, "--mode", "centered12", "--min-months", 5],
         "--min-months does not apply with --mode centered12"),
    ], ids=["fixture-shares", "shares-trends", "trend-years-alone",
            "fixture-hazards", "eta-hazards", "compare-pre-fixture-shares",
            "compare-post-fixture-shares", "rent-ratio-u-fixed",
            "min-months-centered12", "break-scan-min-months-centered12"])
    def test_option_the_source_ignores_is_input_error(self, tmp_path, capsys,
                                                      argv, named):
        """One share source per run: an option it would ignore exits 2."""
        files = {"{shares}": tmp_path / "shares.csv",
                 "{trends}": tmp_path / "trends.csv",
                 "{hazards}": tmp_path / "cal" / "hazards.json",
                 "{panel}": tmp_path / "panel.csv"}
        make_shift_panel(files["{panel}"], np.random.default_rng(58))
        files["{shares}"].write_text("month,share\n" + "".join(
            f"{m},1\n" for m in range(1, 13)))
        files["{trends}"].write_text("date,value\n" + "".join(
            f"2015-{m:02d},1\n" for m in range(1, 13)))
        assert run(["calibrate", "--fixture", "sipp-pre",
                    "--out", tmp_path / "cal"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run([files.get(a, a) for a in argv] + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["calibrate"], 2),
        (["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
          "--max-iter", 3], 1),
        (["shift-test", "--data", "{missing}"], 2),
        (["rerun", "{missing}"], 2),
    ], ids=["calibrate", "solve", "shift-test", "rerun"])
    def test_failed_command_creates_no_output_directory(self, tmp_path, argv,
                                                        code):
        argv = [tmp_path / "missing" if a == "{missing}" else a for a in argv]
        out = tmp_path / "out"
        assert run(argv + ["--out", out]) == code
        assert not out.exists()


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this package's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


REFUSE_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not refused")
from thickmarket.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency. With every scipy import
    refused, each command exits as it does with scipy importable and
    writes the same files, and a design with no May still names its
    dependent columns."""
    panel = make_shift_panel(tmp_path / "panel.csv", np.random.default_rng(50))
    no_may = tmp_path / "no_may.csv"
    no_may.write_text("".join(f"{line}\n" for line in panel.read_text().splitlines()
                              if "-05," not in line))

    def argvs(out):
        return [[str(a) for a in argv] for argv in [
            ["calibrate", "--fixture", "sipp-pre", "--out", out / "calibrate"],
            ["solve", "--fixture", "sipp-post", "--out", out / "solve"],
            ["compare", "--out", out / "compare"],
            ["shift-test", "--data", panel, "--out", out / "shift-test"],
            ["shift-test", "--data", no_may, "--out", out / "no-may"],
            ["break-scan", "--data", panel, "--from-year", 2014,
             "--to-year", 2023, "--out", out / "break-scan"],
            ["replicate-nt", "--out", out / "replicate-nt"],
            ["rerun", out / "shift-test" / "manifest.json",
             "--out", out / "rerun"]]]

    blocked, open_ = tmp_path / "blocked", tmp_path / "open"
    proc = run_python(REFUSE_SCIPY, json.dumps(argvs(blocked)))
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [main(argv) for argv in argvs(open_)]
    assert codes == [0, 0, 0, 0, 2, 0, 0, 0]
    assert ("dependent columns: ['month_5', 'month_5:post']"
            in proc.stderr.splitlines()[-1])

    written = sorted(p.relative_to(open_) for p in open_.rglob("*.*")
                     if p.name != "manifest.json")
    assert len(written) == 13
    assert written == sorted(p.relative_to(blocked) for p in blocked.rglob("*.*")
                             if p.name != "manifest.json")
    for name in written:
        assert (open_ / name).read_bytes() == (blocked / name).read_bytes()


def test_seastats_imports_no_io_cli_or_workflows():
    """The battery loads only the package, ``core`` and ``errors``: not the
    solver, the file readers and writers, the CLI nor the solver's
    pipelines, so a process that only runs the battery (the benchmark's
    shift-mc) pays for none of their imports."""
    proc = run_python("import json, sys, thickmarket.seastats; "
                      "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = {name for name in json.loads(proc.stdout)
              if name.partition(".")[0] == "thickmarket"}
    assert loaded == {"thickmarket", "thickmarket.core", "thickmarket.errors",
                      "thickmarket.seastats"}


PACKAGE_DIR = Path(cli.__file__).parent


@pytest.mark.parametrize("module", sorted(
    "thickmarket" if path.stem == "__init__" else f"thickmarket.{path.stem}"
    for path in PACKAGE_DIR.glob("*.py")))
def test_each_module_imports_alone(module):
    """Each module imports in a fresh interpreter, so none works only
    because another module happened to be imported first."""
    proc = run_python(f"import {module}")
    assert proc.returncode == 0, proc.stderr


def test_version_matches_pyproject():
    """Every manifest records ``__version__``; pyproject.toml states it too."""
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == thickmarket.__version__


def test_workflows_imports_no_battery_io_or_cli():
    """The solver's pipelines load neither the seasonality battery, the
    file readers and writers nor the CLI, so a process that only solves
    (the benchmark's eq-sweep) pays for none of their imports."""
    proc = run_python("import json, sys, thickmarket.workflows; "
                      "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "thickmarket.workflows" in loaded
    assert not loaded & {"thickmarket.seastats", "thickmarket.dataio",
                         "thickmarket.cli"}
