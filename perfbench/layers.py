"""Per-layer metrics of the traced run (layer = qcollide module).

The listed public functions are wrapped from here, never edited in the
program.  A function that no longer exists is reported as absent and its
metrics read 0; the run goes on.  See METRICS.md for which end-to-end
metric each layer metric should move, and on which workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from tracer import Target, Tracer, self_times


def _collisions(bound) -> dict:
    cfg = bound.arguments["cfg"]
    return {"collision.collisions": cfg.n_collisions * len(cfg.carrier_dims)}


def _samples(bound) -> dict:
    return {"trajectory.samples": len(bound.arguments["raw_states"])}


def _rk4_steps(bound) -> dict:
    args = bound.arguments
    return {"integrator.rk4_steps": max(int(round(args["t_end"] / args["dt"])), 1)}


TARGETS = [
    Target("collision.simulate", "qcollide.collision", "simulate", work=_collisions),
    Target("collision.collision_unitary", "qcollide.collision", "collision_unitary"),
    Target("collision.check_assumption", "qcollide.collision", "check_assumption"),
    Target("trajectory.build_trajectory", "qcollide.trajectory", "build_trajectory", work=_samples),
    Target("trajectory.to_csv", "qcollide.trajectory", "Trajectory.to_csv"),
    Target("channels.DensityMatrix.validate", "qcollide.channels", "DensityMatrix.__post_init__"),
    Target("channels.KrausChannel.apply_raw", "qcollide.channels", "KrausChannel.apply_raw"),
    Target("channels.KrausChannel.superoperator", "qcollide.channels", "KrausChannel.superoperator"),
    Target("numpy.eigvalsh", "numpy.linalg", "eigvalsh", span=False),
    Target("ops.embed", "qcollide.ops", "embed"),
    Target("ops.expm_hermitian", "qcollide.ops", "expm_hermitian"),
    Target("generators.full_generator", "qcollide.generators", "full_generator"),
    Target("generators.local_dissipator", "qcollide.generators", "local_dissipator"),
    Target("generators.cross_dissipator", "qcollide.generators", "cross_dissipator"),
    Target("generators.local_rates", "qcollide.generators", "local_rates"),
    Target("generators.cross_rates", "qcollide.generators", "cross_rates"),
    Target("generators.GeneratorSet.to_dict", "qcollide.generators", "GeneratorSet.to_dict"),
    Target("jsonio.complex_matrix_to_json", "qcollide.jsonio", "complex_matrix_to_json"),
    Target("scenarios.load_scenario", "qcollide.scenarios", "load_scenario"),
    Target("scenarios.run_generators", "qcollide.scenarios", "run_generators"),
    Target("scenarios.run_converge", "qcollide.scenarios", "run_converge"),
    Target("scenarios.run_verify", "qcollide.scenarios", "run_verify"),
    Target("integrator.integrate", "qcollide.integrator", "integrate", work=_rk4_steps),
    Target("integrator.trace_distance", "qcollide.integrator", "trace_distance"),
    Target("perturbation.verify_first_order", "qcollide.perturbation", "verify_first_order"),
    Target("perturbation.verify_second_order", "qcollide.perturbation", "verify_second_order"),
    Target("perturbation.remainder_halving_ratios", "qcollide.perturbation", "remainder_halving_ratios"),
    Target("cli.main", "qcollide.cli", "main"),
]

# Name -> unit, in report order.  Every name is listed in BENCHMARK.json.
PER_LAYER = {
    "collision.simulate.self_s": "s",
    "collision.simulate.calls": "count",
    "collision.collisions": "count",
    "collision.us_per_collision": "us",
    "collision.collision_unitary.calls": "count",
    "collision.check_assumption.self_s": "s",
    "trajectory.build_trajectory.self_s": "s",
    "trajectory.samples": "count",
    "trajectory.us_per_sample": "us",
    "trajectory.to_csv.self_s": "s",
    "channels.DensityMatrix.validate.calls": "count",
    "channels.DensityMatrix.validate.self_s": "s",
    "channels.validations_per_sample": "ratio",
    "channels.KrausChannel.apply_raw.calls": "count",
    "channels.KrausChannel.superoperator.calls": "count",
    "numpy.eigvalsh.calls": "count",
    "trajectory.eigvalsh_per_sample": "ratio",
    "ops.embed.calls": "count",
    "ops.embed.self_s": "s",
    "ops.expm_hermitian.calls": "count",
    "generators.full_generator.calls": "count",
    "generators.full_generator.self_s": "s",
    "generators.local_dissipator.self_s": "s",
    "generators.cross_dissipator.self_s": "s",
    "generators.local_rates.self_s": "s",
    "generators.cross_rates.self_s": "s",
    "generators.GeneratorSet.to_dict.self_s": "s",
    "jsonio.complex_matrix_to_json.self_s": "s",
    "scenarios.run_generators.self_s": "s",
    "scenarios.bytes_written": "B",
    "scenarios.run_converge.self_s": "s",
    "integrator.integrate.self_s": "s",
    "integrator.rk4_steps": "count",
    "integrator.us_per_step": "us",
    "integrator.trace_distance.self_s": "s",
    "perturbation.verify_first_order.self_s": "s",
    "perturbation.verify_second_order.self_s": "s",
    "perturbation.remainder_halving_ratios.self_s": "s",
    "scenarios.load_scenario.self_s": "s",
    "scenarios.run_verify.self_s": "s",
    "cli.main.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class LayerReport:
    passes: list[dict] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_values(spans, counts: dict, work: dict, bytes_written: int) -> dict:
    """Layer numbers of one traced pass."""
    values: dict[str, float] = {}

    def add(key, amount):
        values[key] = values.get(key, 0.0) + amount

    own = self_times(spans)
    for s in spans:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", own[s.sid])
        add(f"{s.name}.incl_s", s.end - s.start)
    for name, n in counts.items():
        add(f"{name}.calls", n)
    for name, amount in work.items():
        add(name, amount)
    values["scenarios.bytes_written"] = bytes_written

    def get(key):
        return values.get(key, 0.0)

    samples = get("trajectory.samples")
    values["collision.us_per_collision"] = 1e6 * _ratio(get("collision.simulate.self_s"), get("collision.collisions"))
    values["trajectory.us_per_sample"] = 1e6 * _ratio(get("trajectory.build_trajectory.incl_s"), samples)
    values["channels.validations_per_sample"] = _ratio(get("channels.DensityMatrix.validate.calls"), samples)
    values["trajectory.eigvalsh_per_sample"] = _ratio(get("numpy.eigvalsh.calls"), samples)
    values["integrator.us_per_step"] = 1e6 * _ratio(get("integrator.integrate.self_s"), get("integrator.rk4_steps"))
    return values


def traced_passes(workloads, workload, seconds: float, measure, spans_path: str):
    """Measure with every target wrapped; spans are written after the last pass."""
    tracer = Tracer(TARGETS)
    report = LayerReport()
    all_spans = []
    pending = []

    def collect():
        spans, counts, work = tracer.take()
        all_spans.extend(spans)
        pending.append((spans, counts, work))

    tracer.install()
    try:
        passes = measure(workloads, workload, seconds, traced=True, on_pass=collect)
    finally:
        tracer.uninstall()
    report.absent = list(tracer.absent)
    for (spans, counts, work), p in zip(pending, passes):
        report.passes.append(pass_values(spans, counts, work, p.bytes_written))
    Tracer.write_spans(spans_path, all_spans)
    return passes, report


def per_layer_metrics(untraced, traced, report: LayerReport) -> dict:
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    values = {
        name: statistics.median(p.get(name, 0.0) for p in report.passes)
        for name in PER_LAYER
        if not name.startswith("trace.")
    }
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
