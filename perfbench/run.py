"""qcollide benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload me-3carrier --seed 1 --seconds 56 --trace 0

Runs the workload's operations back to back in one process (a closed loop
with a single caller) until ``--seconds`` are used, then prints a run
record, a readable summary, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, all measured with tracing
off.  ``--trace 1`` spends half the time untraced and half traced and
reports the per-layer metrics (see METRICS.md), including the tracing
overhead as traced against untraced pass time.  The program is imported
from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "qcollide", "__init__.py")):
        sys.exit(f"perfbench: no qcollide source under {SRC}")


def _import_program():
    """Put the checkout's own source first on the path; fail loudly without it."""
    _require_source()
    sys.path.insert(0, SRC)
    import qcollide

    if os.path.dirname(os.path.dirname(os.path.abspath(qcollide.__file__))) != SRC:
        sys.exit(f"perfbench: imported qcollide from {qcollide.__file__}, not from {SRC}")
    return qcollide


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args):
    """Everything before the first operation: imports, inputs from the seed,
    scenario loading."""
    _import_program()
    import workloads

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    return workloads, workloads.build_workload(args.workload, args.seed, args.size, work_dir)


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that set the workload up and exit."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup failed: {proc.stderr.strip()}")
    return times


def measure(workloads, workload, seconds: float, traced: bool = False, on_pass=None) -> list:
    """Run passes until the next one would overrun ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(workload, traced=traced))
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def end_to_end_metrics(passes, setup_times) -> dict:
    if any(p.traced for p in passes):
        raise ValueError("end-to-end metrics must come from untraced passes only")
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_record(args) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = 0
    for root, _, files in os.walk(os.path.join(SRC, "qcollide")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "callers": 1,
        "loop": "closed",
        "src_lines": src_lines,
    }


def _summarize_passes(label: str, passes) -> None:
    for i, p in enumerate(passes, 1):
        kinds = ", ".join(f"{k} {v:.3f}s" for k, v in p.kind_s.items() if v > 0)
        print(f"{label} pass {i}: {p.wall_s:.3f} s ({kinds}); {p.failed}/{p.attempted} failed")
    for kind in passes[0].kind_s:
        if any(p.kind_s[kind] > 0 for p in passes):
            print(f"  {kind}_s median {statistics.median(p.kind_s[kind] for p in passes):.4f} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    _require_source()
    if args.setup_only:
        _, workload = setup(args)
        shutil.rmtree(workload.work_dir, ignore_errors=True)
        return 0

    setup_times = time_setup(args)
    workloads, workload = setup(args)
    record = run_record(args)
    print("record " + json.dumps(record, sort_keys=True))
    try:
        if args.trace == 0:
            passes = measure(workloads, workload, args.seconds)
            metrics = end_to_end_metrics(passes, setup_times)
            _summarize_passes("untraced", passes)
        else:
            import layers

            untraced = measure(workloads, workload, args.seconds / 2)
            traced, layer_report = layers.traced_passes(
                workloads, workload, args.seconds / 2, measure,
                spans_path=os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"),
            )
            metrics = layers.per_layer_metrics(untraced, traced, layer_report)
            _summarize_passes("untraced", untraced)
            _summarize_passes("traced", traced)
            if layer_report.absent:
                print("absent: " + ", ".join(layer_report.absent))
            passes = untraced + traced
    finally:
        shutil.rmtree(workload.work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in sorted({q for p in passes for q in p.problems}):
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"setup runs: {', '.join(f'{t:.3f}' for t in setup_times)} s")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
