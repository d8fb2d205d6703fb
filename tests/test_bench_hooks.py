"""Every trace hook of the benchmark names a function that still exists,
and the hooked functions are called as its spans assume.

The traced benchmark rebinds these ``(module, name)`` pairs and raises on a
missing one; this catches a deletion or rename in milliseconds. Hooks on
the benchmark's own ``workloads`` module are skipped there. The benchmark
also fails a traced run in which a required layer recorded no span, so one
item of each workload runs here under its own hook table.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from thickmarket import seastats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS_PY = PERFBENCH / "workloads.py"


def test_every_hook_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    hooks = [(w.name, module, attr) for w in workloads.WORKLOADS.values()
             for module, attr, _ in w.hooks if module != "workloads"]
    missing = [f"{name}: {module}.{attr}" for name, module, attr in hooks
               if not hasattr(importlib.import_module(module), attr)]
    assert hooks and not missing


@pytest.fixture()
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``tracer`` modules, read from
    ``perfbench/`` under the names its hook tables use. ``worker`` is not
    imported: it sets the BLAS variables of the environment on import."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("workloads", "tracer")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["eq-sweep", "shift-mc", "cli-pipeline"])
def test_traced_item_records_every_required_span(bench, tmp_path, name):
    """One item under the workload's hooks records a span of every layer
    the traced run requires, passes the workload's check and leaves every
    hooked name as it found it."""
    workloads, tracer_module = bench
    cls = workloads.WORKLOADS[name]
    cls.prepare(1, tmp_path)
    workload = cls(1, tmp_path)
    tracer = tracer_module.Tracer()

    def hooked_names():
        return [getattr(importlib.import_module(module), attr)
                for module, attr, _ in cls.hooks]

    originals = hooked_names()
    inp = workload.make_input(0)
    try:
        for module, attr, span in cls.hooks:
            tracer.hook(module, attr, span)
        item = tracer.begin_item(0)
        out = workload.run_item(inp)
        tracer.close(item)
    finally:
        tracer.unhook()
    assert all(a is b for a, b in zip(hooked_names(), originals))
    recorded = {tracer.names[code] for code in tracer.code}
    assert [s for s in cls.required_spans if s not in recorded] == []
    assert workload.check(inp, out)


def test_each_shift_fit_calls_ols_hc1_once(monkeypatch):
    """The ``seastats.ols`` span and ``seastats.ols_calls`` count one
    ``ols_hc1`` call, through the module global, per fit: on a cache miss
    of the factored design and on a hit."""
    calls = []
    ols_hc1 = seastats.ols_hc1

    def counting(*args):
        calls.append(args)
        return ols_hc1(*args)

    monkeypatch.setattr(seastats, "ols_hc1", counting)
    monkeypatch.setattr(seastats, "_last_layout", None)
    factored, factor_design = [], seastats.factor_design
    monkeypatch.setattr(seastats, "factor_design", lambda X, *args, **kwargs:
                        factored.append(X.shape) or factor_design(X, *args, **kwargs))
    years = np.repeat(np.arange(2012, 2024), 12)
    months = np.tile(np.arange(1, 13), 12)
    rng = np.random.default_rng(41)
    for count in (1, 2):
        comp = seastats.SeasonalComponents(
            years=years, months=months, deviations=rng.standard_normal(years.size))
        seastats.fit_seasonal_shift(comp, 2019)
        assert len(calls) == count
    assert factored == [(144, 34)]
