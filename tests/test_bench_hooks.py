"""Every trace hook of the benchmark names a function that still exists.

The traced benchmark rebinds these ``(module, name)`` pairs and raises on a
missing one; this catches a deletion or rename in milliseconds. Hooks on
the benchmark's own ``workloads`` module are skipped.
"""

import importlib
import importlib.util
from pathlib import Path

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
