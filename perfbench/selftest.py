"""Self-test of the benchmark itself (not of qcollide).

    python3 perfbench/selftest.py

Checks that every workload runs at a tiny size and prints the promised
schema with a unit on every metric, that corrupted outputs are counted as
failures, that the reference comparison allows last-bit rounding but not
a wrong value, that no end-to-end number comes from a traced pass, that a
missing traced function is reported as absent, and that self time
subtracts the union of overlapping children.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, _import_program, end_to_end_metrics

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_schema(spec: dict, workloads) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(
        {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
        "BENCHMARK.json names a workload that perfbench does not define",
    )
    for workload in workloads.WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr[-500:]}")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
            metrics = result["metrics"]
            expect(set(metrics) == set(names), f"{where}: metrics {sorted(set(metrics) ^ set(names))} differ")
            for name, m in metrics.items():
                expect(m.get("unit") == names[name], f"{where}: {name} has unit {m.get('unit')!r}")
                expect(
                    isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"]),
                    f"{where}: {name} value {m.get('value')!r}",
                )
            if trace == 1:
                expect(not set(metrics) & set(end_to_end), f"{where}: end-to-end metric in traced output")
            print(f"schema ok: {where}")


def corrupt(op) -> None:
    """Damage the output of one operation so that its check must fail."""
    if op.out_dir is None:
        return
    files = {
        "simulate": ("trajectory.csv", _replace_last_trace),
        "generators": ("generators.json", None),
        "converge": ("convergence.csv", lambda text: text + "800,0,0,1\n"),
        "verify": ("verify.json", lambda text: json.dumps({**json.loads(text), "passed": False})),
    }
    name, edit = files[op.kind]
    path = os.path.join(op.out_dir, name)
    if edit is None:
        os.remove(path)
        return
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def _replace_last_trace(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    row = lines[-1].split(",")
    row[header.index("trace")] = "1.5"
    lines[-1] = ",".join(row)
    return "\n".join(lines) + "\n"


def check_failure_accounting(workloads) -> None:
    work_dir = os.path.join(OUT, f"selftest-{os.getpid()}")
    try:
        w = workloads.build_workload("cli-builtins", 3, "tiny", work_dir)
        clean = workloads.run_pass(w)
        expect(clean.failed == 0, f"clean tiny pass failed: {clean.problems}")
        broken = workloads.run_pass(w, after_op=corrupt)
        expect(
            broken.failed == broken.attempted == len(w.ops),
            f"corrupted pass counted {broken.failed}/{broken.attempted} failures: {broken.problems}",
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("failure accounting ok: every corrupted output counted")

    reference = {"final": {"trace": 1.0, "n_c1_re": 0.3712}, "rows": 101}
    rounding = {"final": {"trace": 1.0 + 2e-16, "n_c1_re": 0.3712 * (1 + 1e-13)}, "rows": 101}
    wrong = {"final": {"trace": 1.0, "n_c1_re": 0.3712 * (1 + 1e-5)}, "rows": 101}
    expect(workloads.compare(rounding, reference) == [], "last-bit rounding rejected")
    expect(workloads.compare(wrong, reference) != [], "a wrong value passed the reference check")
    expect(workloads.compare({**rounding, "rows": 100}, reference) != [], "a wrong sample count passed")
    print("reference comparison ok")


def check_traced_separation(workloads) -> None:
    traced = workloads.PassResult(1.0, {}, 1, 0, [], 0, traced=True)
    try:
        end_to_end_metrics([traced], [0.1])
    except ValueError:
        print("separation ok: end-to-end metrics refuse traced passes")
        return
    expect(False, "end-to-end metrics accepted a traced pass")


def check_tracer() -> None:
    from tracer import Span, Target, Tracer, self_times

    spans = [
        Span(1, None, "parent", 0.0, 10.0, 1),
        Span(2, 1, "worker", 1.0, 5.0, 2),
        Span(3, 1, "worker", 3.0, 7.0, 3),
    ]
    own = self_times(spans)
    expect(abs(own[1] - 4.0) < 1e-12, f"parent self time {own[1]}, expected 10 - |[1,7]| = 4")

    import qcollide.collision

    original = qcollide.collision.simulate
    tracer = Tracer([
        Target("gone.function", "qcollide.collision", "no_such_function"),
        Target("gone.module", "qcollide.no_such_module", "anything"),
        Target("collision.simulate", "qcollide.collision", "simulate"),
    ])
    tracer.install()
    try:
        import qcollide.scenarios

        expect(qcollide.scenarios.simulate is qcollide.collision.simulate, "re-bound name not wrapped")
        expect(qcollide.collision.simulate is not original, "simulate not wrapped")
    finally:
        tracer.uninstall()
    expect(qcollide.collision.simulate is original, "uninstall left a wrapper behind")
    expect(tracer.absent == ["gone.function", "gone.module"], f"absent: {tracer.absent}")
    print("tracer ok: union self time, every binding wrapped, missing targets absent")


def main() -> int:
    _import_program()
    sys.path.insert(0, HERE)
    import workloads

    check_tracer()
    check_traced_separation(workloads)
    check_failure_accounting(workloads)
    check_schema(benchmark_spec(), workloads)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
