"""Command wiring: exit codes, wrapper fidelity, manifest replay."""

import argparse
import json

import numpy as np
import pytest

from thickmarket import cli
from thickmarket.cli import main
from thickmarket.calibrate import hazards_from_shares, solve_kappa
from thickmarket.errors import DataError
from thickmarket.fixtures import ETA_POST, sipp_post_shares

PARSER = cli._build_parser()
SUBPARSERS = next(a for a in PARSER._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
INPUT_FILE_OPTIONS = {"--shares", "--trends", "--hazards", "--warm-start",
                      "--data", "--deflate-by", "--params", "--pre-shares",
                      "--post-shares"}


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
    def test_fixture_matches_library_exactly(self, tmp_path):
        out = tmp_path / "cal"
        assert run(["calibrate", "--fixture", "sipp-post", "--out", out]) == 0
        doc = json.loads((out / "hazards.json").read_text())
        shares = sipp_post_shares()
        hz = hazards_from_shares(shares, ETA_POST)
        kappa = solve_kappa(shares, ETA_POST).kappa
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
    def test_reruns_reproduce_outputs_byte_identically(self, tmp_path):
        out_a = tmp_path / "a"
        assert run(["solve", "--fixture", "sipp-pre", "--u-fixed", 0.0014,
                    "--out", out_a]) == 0
        out_b = tmp_path / "b"
        assert run(["rerun", out_a / "manifest.json", "--out", out_b]) == 0
        for name in ("solution.json", "deviations.csv", "summary.json"):
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

    def test_shares_file_without_eta_is_input_error(self, tmp_path):
        csv = tmp_path / "shares.csv"
        csv.write_text("month,share\n" +
                       "\n".join(f"{m},1" for m in range(1, 13)) + "\n")
        assert run(["compare", "--pre-shares", csv,
                    "--out", tmp_path / "cmp"]) == 2

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

    def test_centered_mode_runs(self, tmp_path):
        rng = np.random.default_rng(46)
        panel = make_shift_panel(tmp_path / "panel.csv", rng)
        assert run(["shift-test", "--data", panel, "--break-year", 2021,
                    "--mode", "centered12", "--out", tmp_path / "st"]) == 0


class TestBreakScanCommand:
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


class TestExitCodes:
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

    def test_unexpected_exception_exits_3(self, tmp_path, capsys,
                                          monkeypatch):
        def broken(shares, eta):
            raise ZeroDivisionError("boom")
        monkeypatch.setattr(cli, "hazards_from_shares", broken)
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
