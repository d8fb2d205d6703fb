"""Every trace hook of the benchmark names a function that still exists,
and the hooked functions are called as its spans assume.

The traced benchmark rebinds these ``(module, name)`` pairs and raises on a
missing one; this catches a deletion or rename in milliseconds. Hooks on
the benchmark's own ``workloads`` module are skipped.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from thickmarket import seastats

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_hook_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    hooks = [(w.name, module, attr) for w in workloads.WORKLOADS.values()
             for module, attr, _ in w.hooks if module != "workloads"]
    missing = [f"{name}: {module}.{attr}" for name, module, attr in hooks
               if not hasattr(importlib.import_module(module), attr)]
    assert hooks and not missing


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
    seastats._shift_design.cache_clear()
    years = np.repeat(np.arange(2012, 2024), 12)
    months = np.tile(np.arange(1, 13), 12)
    rng = np.random.default_rng(41)
    for count in (1, 2):
        comp = seastats.SeasonalComponents(
            years=years, months=months, deviations=rng.standard_normal(years.size))
        seastats.fit_seasonal_shift(comp, 2019)
        assert len(calls) == count
    assert seastats._shift_design.cache_info().hits == 1
    seastats._shift_design.cache_clear()
