"""Benchmark worker: one workload, one process, one item at a time.

The worker pins BLAS to one thread before numpy is loaded, imports the
program modules its workload calls, and prints ``READY`` when it reaches
its first item; the parent times that interval as set-up. It then runs a
closed loop with one client until ``--seconds`` have passed, checking
every answer outside the timed region, and writes a JSON result file.

With ``--trace 1`` the loop alternates untraced and traced passes over
the workload's fixed trace set, so both sides time the same items; the
ratio is the tracing overhead, and per-pass counts must repeat exactly.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# Floating-point operations in one map evaluation, computed from the
# formulas in mapping._step for a 12-month cycle: the continuation matvec
# (2n^2 - n), cutoffs (4n), clamp (2n), vacancy update (3n), gap (n) and
# mover-value update (8n), i.e. 2n^2 + 17n.
FLOPS_PER_STEP = 2 * 12 ** 2 + 17 * 12


def blas_threads() -> dict[str, int]:
    """Thread count in effect in every OpenBLAS the process has loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                counts[path] = int(fn())
                break
    if not counts:
        raise RuntimeError("no OpenBLAS thread query found in the loaded libraries")
    return counts


def run_one(workload, i: int, tracer=None):
    """Make input i, time the item, then check it. Returns (ok, seconds);
    seconds is None when the item raised."""
    inp = workload.make_input(i)
    span = tracer.begin_item(i) if tracer else None
    t0 = time.perf_counter()
    try:
        out = workload.run_item(inp)
    except Exception:
        traceback.print_exc()
        return False, None
    finally:
        if tracer:
            tracer.close(span)
    elapsed = time.perf_counter() - t0
    try:
        ok = workload.check(inp, out)
    except Exception:
        traceback.print_exc()
        ok = False
    return ok, elapsed


def run_untraced(workload, seconds: float) -> dict:
    times, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ok, elapsed = run_one(workload, attempted)
        attempted += 1
        failed += not ok
        if elapsed is not None:
            times.append(elapsed)
    return {"attempted": attempted, "failed": failed, "item_times": times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def install_hooks(tracer, workload) -> None:
    after = {
        "solver.inner": lambda tr, sol: tr.count("solver.iterations", sol.iterations),
        "seastats.chow": lambda tr, scan: tr.count("seastats.chow_candidates",
                                                   len(scan.entries)),
        "dataio.write": lambda tr, path: tr.count("dataio.bytes_written",
                                                  Path(path).stat().st_size),
    }
    for module, attr, span in workload.hooks:
        tracer.hook(module, attr, span, after.get(span))


def pass_counts(tracer, first_span: int, counters_before: dict) -> dict:
    """Counts of one traced pass that must repeat exactly for a seed."""
    codes = tracer.code[first_span:]
    spans = {name: codes.count(code) for code, name in enumerate(tracer.names)}
    counters = {k: v - counters_before.get(k, 0) for k, v in tracer.counters.items()}
    return {"mapping.step_calls": spans.get("mapping.step", 0),
            "seastats.ols_calls": spans.get("seastats.ols", 0),
            "solver.iterations": counters.get("solver.iterations", 0),
            "dataio.bytes_written": counters.get("dataio.bytes_written", 0)}


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer
    tracer = Tracer()
    pass_time = {False: [], True: []}
    counts, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while not pass_time[True] or time.perf_counter() < deadline:
        for traced in (False, True):
            if traced:
                install_hooks(tracer, workload)
                first_span, before = len(tracer.code), dict(tracer.counters)
            total = 0.0
            for i in range(workload.trace_items):
                ok, elapsed = run_one(workload, i, tracer if traced else None)
                attempted += 1
                failed += not ok
                total += elapsed or 0.0
            if traced:
                tracer.unhook()
                counts.append(pass_counts(tracer, first_span, before))
            pass_time[traced].append(total)
    metrics = layer_metrics(tracer, workload, len(pass_time[True]))
    mean = {k: sum(v) / len(v) for k, v in pass_time.items()}
    metrics["process.tracing_overhead"] = mean[True] / mean[False] - 1.0
    tracer.save(spans_path)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "pass_counts": counts, "passes": len(counts)}


def layer_metrics(tracer, workload, passes: int) -> dict:
    """Per-item layer metrics over every traced item."""
    import numpy as np
    names, code, _, _, _, _, dur, self_time = tracer.columns()
    n_items = passes * workload.trace_items
    missing = [s for s in workload.required_spans
               if s not in names or not np.any(code == names.index(s))]
    if missing:
        raise RuntimeError(f"hooked layers recorded no spans on {workload.name}: "
                           f"{missing}; the program no longer calls them by "
                           "these names")

    def mask(span):
        return code == names.index(span) if span in names else np.zeros_like(code, bool)

    def calls(span):
        return float(mask(span).sum()) / n_items

    def busy(span):
        return float(dur[mask(span)].sum()) / n_items

    def own(span):
        return float(self_time[mask(span)].sum()) / n_items

    def counter(name):
        return tracer.counters.get(name, 0) / n_items

    steps = calls("mapping.step")
    reruns = getattr(workload, "reruns", 0)
    item_busy = busy("item")
    return {
        "mapping.step_calls": steps,
        "mapping.busy_s": busy("mapping.step"),
        "mapping.us_per_step": busy("mapping.step") / steps * 1e6 if steps else 0.0,
        "mapping.flops_per_step": float(FLOPS_PER_STEP),
        "solver.inner_solves": calls("solver.inner"),
        "solver.iterations": counter("solver.iterations"),
        "solver.inner_busy_s": busy("solver.inner"),
        "solver.self_s": own("solver.inner") + own("solver.outer"),
        "solver.outer_busy_s": busy("solver.outer"),
        "solver.err_dev_pp": 0.0,
        "solver.err_u_rel": 0.0,
        **getattr(workload, "errors", {}),
        "calibrate.calls": calls("calibrate"),
        "calibrate.busy_s": busy("calibrate"),
        "affine.calls": calls("affine"),
        "affine.busy_s": busy("affine"),
        "seastats.components_busy_s": busy("seastats.components"),
        "seastats.fit_self_s": own("seastats.fit"),
        "seastats.ols_calls": calls("seastats.ols"),
        "seastats.ols_busy_s": busy("seastats.ols"),
        "seastats.tests_busy_s": busy("seastats.tests"),
        "seastats.chow_busy_s": busy("seastats.chow"),
        "seastats.chow_candidates": counter("seastats.chow_candidates"),
        "dataio.read_calls": calls("dataio.read"),
        "dataio.read_busy_s": busy("dataio.read"),
        "dataio.prep_busy_s": busy("dataio.prep"),
        "dataio.write_calls": calls("dataio.write"),
        "dataio.write_busy_s": busy("dataio.write"),
        "dataio.bytes_written": counter("dataio.bytes_written"),
        "cli.commands": calls("cli.command"),
        "cli.busy_s": busy("cli.command"),
        "cli.self_s": own("cli.command"),
        "cli.rerun_identical": workload.reruns_identical / reruns if reruns else 0.0,
        "bench.item_s": item_busy,
        "bench.item_self_frac": own("item") / item_busy if item_busy else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path,
                        help="where the traced run writes its spans")
    parser.add_argument("--probe", action="store_true",
                        help="exit as soon as the first item is reached")
    args = parser.parse_args(argv)

    import workloads
    cls = workloads.WORKLOADS[args.workload]
    for module in cls.program_modules:
        importlib.import_module(module)
    workload = cls(args.seed, args.workdir)
    print("READY", flush=True)
    if args.probe:
        return 0

    # The program prints progress lines; keep them off the parent's pipe.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    if args.trace:
        result = run_traced(workload, args.seconds, args.spans)
    else:
        result = run_untraced(workload, args.seconds)
    threads = blas_threads()
    result["blas_threads"] = threads
    if args.trace:
        result["metrics"]["process.blas_threads"] = float(max(threads.values()))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
