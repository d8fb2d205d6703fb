"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eq-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The parent writes the workload's input
files from the seed, times fresh worker interpreters up to their first
item (``setup_s``, the median of several), and runs one worker for the
measured loop. ``--trace 0`` prints the end-to-end metrics listed in
BENCHMARK.json, ``--trace 1`` the per-layer ones from a traced run. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "thickmarket"
WORK = HERE / "_work"        # per-run inputs and outputs, removed after the run
OUT = HERE / "_out"          # spans of traced runs and the count ledger
SETUP_SAMPLES = 7            # fresh interpreters timed per run, main worker included
DEADLINE_S = 170.0           # the whole run, set-up and checks included


class BenchError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, workdir: Path, deadline: float,
          probe: bool = False, result: Path | None = None,
          spans: Path | None = None):
    """Start a worker and wait for READY. Returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if probe:
        cmd.append("--probe")
    if result:
        cmd += ["--result", str(result)]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - t0
    if line.strip() != b"READY":
        stop(proc)
        raise BenchError(f"worker did not reach its first item (got {line!r})")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker overran the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def count_drift(args, pass_counts: list[dict]) -> list[str]:
    """Deterministic counts must match across the run's traced passes and
    across runs of the same seed on the same source (kept in a ledger)."""
    drift = [f"pass {i} counts {c} differ from pass 0 {pass_counts[0]}"
             for i, c in enumerate(pass_counts) if c != pass_counts[0]]
    ledger_path = OUT / "counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{args.workload}/seed={args.seed}/src={source_digest()}"
    if key in ledger and ledger[key] != pass_counts[0]:
        drift.append(f"counts {pass_counts[0]} differ from an earlier run "
                     f"{ledger[key]} of the same seed and source")
    ledger.setdefault(key, pass_counts[0])
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return drift


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (worker result, measured values)."""
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.WORKLOADS[args.workload].prepare(args.seed, workdir)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = spawn(args, workdir, deadline, probe=True)
                finish(proc, deadline)
                setups.append(setup)
        result_path = workdir / "result.json"
        spans = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-{args.seed}.npz"
        proc, setup = spawn(args, workdir, deadline, result=result_path, spans=spans)
        setups.append(setup)
        finish(proc, deadline)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if any(n != 1 for n in result["blas_threads"].values()):
        raise BenchError(f"BLAS is not pinned to one thread: {result['blas_threads']}")
    if args.trace:
        return result, result["metrics"]
    times = result["item_times"]
    if not times:
        raise BenchError("no item completed")
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # Reported but not gated: on a host whose speed flips between two
    # levels for seconds at a time, the median item time of a run jumps to
    # whichever level held most of it; the mean behind items_per_s does not.
    tail = ""
    for pct in (99, 90):
        if len(times) * (100 - pct) / 100 >= 10:
            tail = f", p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.6g} s"
            break
    print(f"{args.workload} seed {args.seed}: item_p50_s "
          f"{statistics.median(times):.6g} s over {len(times)} items{tail}; "
          f"fail_frac {result['failed'] / result['attempted']:.6g}; "
          f"set-up samples {[round(s, 4) for s in setups]} s")
    return result, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result, values = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = result["failed"] == 0
    if args.trace:
        drift = count_drift(args, result["pass_counts"])
        for line in drift:
            print(f"DRIFT: {line}", file=sys.stderr)
        correct = correct and not drift
        print(f"{result['passes']} traced passes; counts per pass "
              f"{result['pass_counts'][0]}")
    metrics = {}
    for spec in metric_specs(args.trace):
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:28s} {value:.6g} {spec['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
