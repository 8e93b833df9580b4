"""Workloads of the qcollide benchmark: inputs, operations and output checks.

Every operation goes through qcollide's public surface only: the CLI entry
``qcollide.cli.main(argv)``, and ``load_scenario``, ``scenario_generator``
and ``integrate`` as in the README.  Functions are looked up on their
modules at call time, so the traced run sees its wrappers and a later
refactor of the internals needs no change here.

Each operation is checked after it runs: exit code, state invariants of
the final sample, convergence order, the verify verdict, and on inputs
that do not depend on the seed (or on the reference seed) a comparison
with values recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import qcollide
import qcollide.cli
import qcollide.scenarios

# Captured before any tracing, so the benchmark's own checks add nothing to
# the traced eigvalsh count.
_eigvalsh = np.linalg.eigvalsh

WORKLOADS = ("stream", "me-3carrier", "cli-builtins")
BUILTINS = ("dephasing-1q", "ad-chain-2q", "rotating-env-2q", "bosonic-fiber", "replacer")
COMMANDS = ("simulate", "generators", "converge", "verify")
OP_KINDS = ("simulate", "generators", "converge", "verify", "integrate")
REFERENCE_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# A sample is a valid state within the tolerance qcollide itself applies to
# recorded samples.
STATE_TOL = 1e-8
# Reference comparison: loose enough for last-bit rounding accumulated over
# a few thousand steps, tight enough that any change of the physics fails.
REF_ATOL = 1e-9
REF_RTOL = 1e-6
ORDER_WINDOW = (0.9, 1.1)

# Sizes: "full" is the benchmark; "tiny" runs every operation on small
# inputs for the self-test.
SIZES = {
    "full": {"chain_dim": 3, "chain_collisions": 400, "integrate_steps": 2000, "builtin": None},
    "tiny": {
        "chain_dim": 2,
        "chain_collisions": 20,
        "integrate_steps": 100,
        "builtin": {"n_collisions": 20, "sweep": [25, 50, 100]},
    },
}


# --- inputs ------------------------------------------------------------------


def _random_pure_state(rng: np.random.Generator, d: int) -> list:
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    ket /= np.linalg.norm(ket)
    rho = np.outer(ket, ket.conj())
    return [[[float(z.real), float(z.imag)] for z in row] for row in rho]


def chain_config(seed: int, d: int, n_collisions: int) -> dict:
    """Three-carrier lossy bosonic chain: the bosonic-fiber couplings on three
    carriers, kappa 0.25, ground eta, and a product initial state of random
    pure carrier states drawn from the seed."""
    rng = np.random.default_rng(seed)
    return {
        "scenario": "custom",
        "carrier_dims": [d, d, d],
        "env_dim": d,
        "couplings": {"system": [["x", "p"]] * 3, "environment": ["x", "p"]},
        "eta": "ground",
        "channel": {"kind": "lossy", "dim": d, "kappa": 0.25},
        "rho0": {"kind": "product", "factors": [_random_pure_state(rng, d) for _ in range(3)]},
        "observables": [{"name": f"n_c{m}", "carrier": m, "op": "number"} for m in (1, 2, 3)],
        "n_collisions": n_collisions,
        "seed": seed,
    }


def _write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


# --- observations and checks ---------------------------------------------------


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def observe_trajectory(out_dir: str) -> dict:
    rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    final = {k: float(v) for k, v in rows[-1].items() if k != "step"}
    return {"rows": len(rows), "final": final}


def check_trajectory(obs: dict) -> list[str]:
    final = obs["final"]
    problems = []
    if not abs(final["trace"] - 1.0) <= STATE_TOL:
        problems.append(f"final |tr-1| = {abs(final['trace'] - 1.0):.3e}")
    if not final["min_eigenvalue"] >= -STATE_TOL:
        problems.append(f"final min eigenvalue {final['min_eigenvalue']:.3e}")
    return problems


def observe_rates(out_dir: str) -> dict:
    rows = _read_csv(os.path.join(out_dir, "rates.csv"))
    path = os.path.join(out_dir, "generators.json")
    return {
        "rates": [[float(r[k]) for k in ("m", "m_prime", "l", "l_prime", "re", "im")] for r in rows],
        "generators_json": os.path.isfile(path) and os.path.getsize(path) > 0,
    }


def check_rates(obs: dict) -> list[str]:
    problems = [] if obs["rates"] else ["rates.csv has no rows"]
    if not obs["generators_json"]:
        problems.append("generators.json missing or empty")
    return problems


def observe_convergence(out_dir: str) -> dict:
    rows = _read_csv(os.path.join(out_dir, "convergence.csv"))
    ns = [int(r["n"]) for r in rows]
    errors = [float(r["error"]) for r in rows]
    order = None
    if len(rows) >= 2 and errors[-1] > 0 and errors[-2] > 0:
        order = math.log(errors[-2] / errors[-1]) / math.log(ns[-1] / ns[-2])
    return {"n": ns, "errors": errors, "order": order}


def check_convergence(obs: dict) -> list[str]:
    errors = obs["errors"]
    problems = []
    if len(errors) < 2 or not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"errors not strictly decreasing: {errors}")
    lo, hi = ORDER_WINDOW
    if obs["order"] is None or not lo <= obs["order"] <= hi:
        problems.append(f"fitted order {obs['order']} outside [{lo}, {hi}]")
    return problems


def observe_verify(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "verify.json")) as fh:
        report = json.load(fh)
    return {
        "passed": report["passed"],
        "ratios": {k: v["ratio"] for k, v in sorted(report["halving"].items())},
    }


def check_verify(obs: dict) -> list[str]:
    return [] if obs["passed"] is True else ["verify.json reports passed = false"]


def observe_state(final: np.ndarray, samples: int) -> dict:
    final = np.asarray(final)
    herm = 0.5 * (final + final.conj().T)
    return {
        "samples": samples,
        "trace": float(np.real(np.trace(final))),
        "min_eigenvalue": float(_eigvalsh(herm)[0]),
        "diagonal": [float(x) for x in np.real(np.diag(final))],
    }


def check_state(obs: dict) -> list[str]:
    problems = []
    if not abs(obs["trace"] - 1.0) <= STATE_TOL:
        problems.append(f"final |tr-1| = {abs(obs['trace'] - 1.0):.3e}")
    if not obs["min_eigenvalue"] >= -STATE_TOL:
        problems.append(f"final min eigenvalue {obs['min_eigenvalue']:.3e}")
    return problems


def compare(observed, reference, path: str = "") -> list[str]:
    """Differences between an observation and its reference; numbers within
    REF_ATOL + REF_RTOL * |reference|, everything else exact."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or set(observed) != set(reference):
            return [f"{path or 'value'}: keys differ from the reference"]
        out = []
        for key in sorted(reference):
            out += compare(observed[key], reference[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (o, r) in enumerate(zip(observed, reference)):
            out += compare(o, r, f"{path}[{i}]")
        return out
    if isinstance(reference, float) and not isinstance(observed, bool):
        if isinstance(observed, (int, float)) and abs(observed - reference) <= REF_ATOL + REF_RTOL * abs(reference):
            return []
        return [f"{path}: {observed!r} differs from reference {reference!r}"]
    return [] if observed == reference else [f"{path}: {observed!r} != reference {reference!r}"]


# --- operations ------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a workload.

    ``run`` performs it and returns what ``observe`` needs; ``observe``
    turns that into plain data (it may raise if an output is missing);
    ``check`` lists invariant violations; ``seeded`` marks outputs that
    depend on the workload seed, compared with the reference only on the
    reference seed.
    """

    kind: str
    label: str
    run: Callable[[], object]
    observe: Callable[[object], dict]
    check: Callable[[dict], list[str]]
    out_dir: str | None = None
    seeded: bool = False


def cli_op(kind: str, label: str, argv: list[str], out_dir: str | None, observe, check, seeded) -> Op:
    if out_dir is not None:
        argv = argv + ["--out", out_dir]

    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qcollide.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        return code, out.getvalue(), err.getvalue()

    def observe_cli(result):
        code, stdout, stderr = result
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.strip()[-300:]}")
        return observe(out_dir) if out_dir is not None else observe(stdout)

    return Op(kind, label, run, observe_cli, check, out_dir, seeded)


def _summary_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return {"summary": lines[-1] if lines else ""}


def _no_problems(obs: dict) -> list[str]:
    return []


def _integrate_op(sc, steps: int) -> Op:
    def run():
        gen = qcollide.scenarios.scenario_generator(sc)
        return qcollide.integrate(gen.total, sc.rho0, sc.t_end, sc.t_end / steps)

    def observe(traj):
        return observe_state(traj.final_state().entries, len(traj))

    return Op("integrate", "integrate chain3", run, observe, check_state, None, seeded=True)


@dataclass
class Workload:
    name: str
    seed: int
    work_dir: str
    ops: list[Op] = field(default_factory=list)
    reference: dict = field(default_factory=dict)


def build_workload(name: str, seed: int, size: str, work_dir: str, use_reference: bool = True) -> Workload:
    """Generate the inputs of one workload from its seed and list its operations."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    dims = SIZES[size]
    inputs = os.path.join(work_dir, "inputs")
    outputs = os.path.join(work_dir, "outputs")
    os.makedirs(inputs, exist_ok=True)
    chain_path = _write_json(
        os.path.join(inputs, "chain3.json"),
        chain_config(seed, dims["chain_dim"], dims["chain_collisions"]),
    )
    seed_arg = ["--seed", str(seed)]
    ops: list[Op] = []

    def out(label: str) -> str:
        return os.path.join(outputs, label.replace(" ", "_"))

    def builtin_source(builtin: str) -> str:
        return builtin if dims["builtin"] is None else _tiny_builtin(inputs, builtin, dims)

    if name == "stream":
        for label, source in (("bosonic-fiber", builtin_source("bosonic-fiber")), ("chain3", chain_path)):
            ops.append(
                cli_op(
                    "simulate", f"simulate {label}", ["simulate", "--config", source],
                    out(f"simulate {label}"), observe_trajectory, check_trajectory,
                    seeded=label == "chain3",
                )
            )
    elif name == "me-3carrier":
        sc = qcollide.load_scenario(chain_path)
        ops.append(
            cli_op(
                "generators", "generators chain3", ["generators", "--config", chain_path],
                None, _summary_line, _no_problems, seeded=False,
            )
        )
        ops.append(_integrate_op(sc, dims["integrate_steps"]))
        ops.append(
            cli_op(
                "verify", "verify chain3", ["verify", "--config", chain_path] + seed_arg,
                out("verify chain3"), observe_verify, check_verify, seeded=True,
            )
        )
    else:
        checks = {
            "simulate": (observe_trajectory, check_trajectory),
            "generators": (observe_rates, check_rates),
            "converge": (observe_convergence, check_convergence),
            "verify": (observe_verify, check_verify),
        }
        for builtin in BUILTINS:
            source = builtin_source(builtin)
            for command in COMMANDS:
                label = f"{command} {builtin}"
                observe, check = checks[command]
                extra = seed_arg if command == "verify" else []
                ops.append(
                    cli_op(
                        command, label, [command, "--config", source] + extra,
                        out(label), observe, check, seeded=command == "verify",
                    )
                )
    reference = {}
    if use_reference and size == "full":
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)["ops"]
    return Workload(name, seed, work_dir, ops, reference)


def _tiny_builtin(inputs: str, builtin: str, dims: dict) -> str:
    config = {"scenario": builtin, **dims["builtin"]}
    if builtin == "bosonic-fiber":
        config["params"] = {"d": 2}
    return _write_json(os.path.join(inputs, f"{builtin}.json"), config)


# --- one pass ----------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    kind_s: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    bytes_written: int
    traced: bool = False


def _bytes_under(path: str | None) -> int:
    if path is None or not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files)


def evaluate(op: Op, result, workload: Workload) -> list[str]:
    """Every check that applies to one finished operation."""
    try:
        obs = op.observe(result)
    except (OSError, KeyError, TypeError, ValueError, IndexError, RuntimeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    problems = op.check(obs)
    ref = workload.reference.get(op.label)
    if ref is not None and (not op.seeded or workload.seed == REFERENCE_SEED):
        problems += compare(obs, ref)
    return problems


def run_pass(workload: Workload, traced: bool = False, after_op=None) -> PassResult:
    """Run every operation of the workload once, one after another.

    Only the operations are timed; clearing old outputs and checking new
    ones is not.  ``after_op(op)`` runs between an operation and its check
    (the self-test uses it to corrupt outputs)."""
    kind_s = {k: 0.0 for k in OP_KINDS}
    failed = 0
    problems = []
    written = 0
    for op in workload.ops:
        if op.out_dir is not None:
            shutil.rmtree(op.out_dir, ignore_errors=True)
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        kind_s[op.kind] += time.perf_counter() - start
        if after_op is not None:
            after_op(op)
        found = [error] if error else evaluate(op, result, workload)
        written += _bytes_under(op.out_dir)
        if found:
            failed += 1
            problems += [f"{op.label}: {p}" for p in found]
    return PassResult(
        wall_s=sum(kind_s.values()),
        kind_s=kind_s,
        attempted=len(workload.ops),
        failed=failed,
        problems=problems,
        bytes_written=written,
        traced=traced,
    )


def observations(workload: Workload) -> dict:
    """Run each operation once and return its observation, for recording
    the reference."""
    out = {}
    for op in workload.ops:
        if op.out_dir is not None:
            shutil.rmtree(op.out_dir, ignore_errors=True)
        out[op.label] = op.observe(op.run())
    return out
