"""Tests of the benchmark itself: its checks reject wrong answers, the loop
counts them as failed, the traced run reports every per-layer metric, and
count drift is flagged.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class Replay(workloads.Workload):
    """Feeds a fixed answer to a real workload's check."""

    def __init__(self, real, inp, answer):
        self.real, self.inp, self.answer = real, inp, answer

    def make_input(self, i):
        return self.inp

    def run_item(self, _):
        return self.answer

    def check(self, inp, out):
        return self.real.check(inp, out)


def assert_counted_as_failed(real, inp, wrong):
    result = worker.run_untraced(Replay(real, inp, wrong), seconds=0.05)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def eq_sweep_answer(inp):
    """A right answer for an eq-sweep input, from the reference model, in
    the shape the program returns (solution, u, deviation summary)."""
    shares, eta = inp
    model = workloads.reference_model(shares.shares.values, eta)
    u0 = 0.0014
    X, v, u = model.fixed_point(np.full(12, u0 / (1.0 - model.beta)),
                                1.0 - model.phi, u0, True)
    Q, P = model.outputs(X, v, u)
    solution = SimpleNamespace(state=SimpleNamespace(
        X=SimpleNamespace(values=X), v=SimpleNamespace(values=v)))
    summary = {"P": {"deviation": workloads.seasonal_dev(P).tolist()},
               "Q": {"deviation": workloads.seasonal_dev(Q).tolist()}}
    return solution, u, summary


def test_eq_sweep_check_rejects_a_nudged_solution():
    wl = workloads.EqSweep(5, None)
    inp = wl.make_input(0)
    solution, u, summary = eq_sweep_answer(inp)
    assert wl.check(inp, (solution, u, summary))
    nudged = json.loads(json.dumps(summary))
    nudged["P"]["deviation"][3] += 0.1
    assert not wl.check(inp, (solution, u, nudged))
    assert_counted_as_failed(wl, inp, (solution, u, nudged))


def test_eq_sweep_inputs_repeat_for_a_seed_and_stratify_eta():
    a, b = workloads.EqSweep(9, None), workloads.EqSweep(9, None)
    for i in range(8):
        (sa, ea), (sb, eb) = a.make_input(i), b.make_input(i)
        assert ea == eb and np.array_equal(sa.shares.values, sb.shares.values)
    quarters = sorted(int((a.make_input(i)[1] - 0.07) / 0.0125) for i in range(4))
    assert quarters == [0, 1, 2, 3]


def test_shift_mc_check_rejects_an_F_off_by_1e_6():
    wl = workloads.ShiftMC(5, None)
    values = wl.make_input(0)
    F, t, chow = wl.run_item(values)
    assert wl.check(values, (F, t, chow))
    wrong = (F * (1.0 + 1e-6), t, chow)
    assert not wl.check(values, wrong)
    assert_counted_as_failed(wl, values, wrong)


def test_cli_pipeline_check_rejects_a_changed_rerun_byte(tmp_path):
    workloads.CliPipeline.prepare(5, tmp_path)
    wl = workloads.CliPipeline(5, tmp_path)
    codes = wl.run_item(None)
    assert codes == [0] * 8
    assert wl.check(None, codes)
    target = tmp_path / "out" / "shift_rerun" / "shift_test.txt"
    data = bytearray(target.read_bytes())
    data[10] ^= 1
    target.write_bytes(bytes(data))
    assert not wl.check(None, codes)
    assert_counted_as_failed(wl, None, codes)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    wl = workloads.ShiftMC(5, None)
    wl.trace_items = 2
    result = worker.run_traced(wl, 0.0, tmp_path / "spans.npz")
    names = {m["name"] for m in run.metric_specs(trace=1)}
    assert set(result["metrics"]) | {"process.blas_threads"} == names
    assert result["failed"] == 0
    assert result["pass_counts"][0]["seastats.ols_calls"] == 2
    assert result["metrics"]["seastats.chow_candidates"] == 10
    assert result["metrics"]["bench.item_self_frac"] < 0.05
    assert (tmp_path / "spans.npz").exists()


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    names, code, parent, _, _, _, dur, self_time = tracer.columns()
    assert names == ["outer", "inner"] and parent.tolist() == [-1, 0]
    assert self_time[0] == pytest.approx(dur[0] - dur[1])
    assert self_time[1] == dur[1]


def test_hook_on_a_missing_name_fails_loudly():
    with pytest.raises(LookupError):
        Tracer().hook("thickmarket.solver", "no_such_function", "solver.inner")


def test_count_drift_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = SimpleNamespace(workload="shift-mc", seed=1)
    counts = {"seastats.ols_calls": 64}
    assert run.count_drift(args, [counts, counts]) == []
    assert run.count_drift(args, [counts]) == []
    assert len(run.count_drift(args, [counts, {"seastats.ols_calls": 63}])) == 1
    assert len(run.count_drift(args, [{"seastats.ols_calls": 65}])) == 1


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shift-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
