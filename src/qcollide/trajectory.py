"""Trajectory container shared by the collision engine and the ME integrator.

Both writers emit the same CSV schema (step, t, observable re/im pairs,
trace, min_eigenvalue) so outputs can be diffed at the file level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import DensityMatrix
from .jsonio import write_json
from .ops import Operator

SAMPLE_ATOL = 1e-8


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(eq=False)
class Trajectory:
    """Ordered samples of a state evolution with observable expectations."""

    steps: np.ndarray
    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    observable_names: tuple[str, ...]
    observable_values: np.ndarray  # shape (n_samples, n_observables), complex
    traces: np.ndarray
    min_eigenvalues: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.states)
        self.steps = np.asarray(self.steps, dtype=int)
        self.times = np.asarray(self.times, dtype=float)
        self.observable_values = np.asarray(self.observable_values, dtype=complex).reshape(
            n, len(self.observable_names)
        )
        self.traces = np.asarray(self.traces, dtype=float)
        self.min_eigenvalues = np.asarray(self.min_eigenvalues, dtype=float)
        if not (len(self.steps) == len(self.times) == n == len(self.traces) == len(self.min_eigenvalues)):
            raise ValueError("trajectory field lengths disagree")
        if np.any(np.diff(self.times) <= 0) and n > 1:
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.states)

    def final_state(self) -> DensityMatrix:
        return self.states[-1]

    def expectations(self, name: str) -> np.ndarray:
        idx = self.observable_names.index(name)
        return self.observable_values[:, idx]

    def to_csv(self, path) -> None:
        header = ["step", "t"]
        for name in self.observable_names:
            header += [f"{name}_re", f"{name}_im"]
        header += ["trace", "min_eigenvalue"]
        lines = [",".join(header)]
        for i in range(len(self)):
            row = [str(int(self.steps[i])), _fmt(self.times[i])]
            for v in self.observable_values[i]:
                row += [_fmt(v.real), _fmt(v.imag)]
            row += [_fmt(self.traces[i]), _fmt(self.min_eigenvalues[i])]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path, include_states: bool = False) -> None:
        payload = {
            "metadata": self.metadata,
            "observable_names": list(self.observable_names),
            "samples": [
                {
                    "step": int(self.steps[i]),
                    "t": float(self.times[i]),
                    "observables": [[float(v.real), float(v.imag)] for v in self.observable_values[i]],
                    "trace": float(self.traces[i]),
                    "min_eigenvalue": float(self.min_eigenvalues[i]),
                }
                for i in range(len(self))
            ],
        }
        if include_states:
            for i, sample in enumerate(payload["samples"]):
                sample["state"] = self.states[i].entries
        write_json(path, payload)


def sample_state(arr: np.ndarray, dims: tuple[int, ...], step: int, t: float) -> DensityMatrix:
    """Validate one recorded sample; a violation aborts the run with a
    RuntimeError naming the step, so the CLI reports a property failure."""
    try:
        return DensityMatrix(Operator(dims, arr), atol=SAMPLE_ATOL)
    except ValueError as exc:
        raise RuntimeError(f"state invariants violated at step {step}, t={t:.6g}: {exc}") from exc


def observable_arrays(
    observables: Sequence[Operator], side: int, observable_names: Sequence[str] | None
) -> tuple[list[np.ndarray], tuple[str, ...]]:
    """Observable matrices on a state space of the given side, with their
    names (obs0, obs1, ... when none are given)."""
    if any(o.side != side for o in observables):
        raise ValueError(f"observables must act on the state space (side {side})")
    if observable_names is None:
        observable_names = [f"obs{i}" for i in range(len(observables))]
    if len(observable_names) != len(observables):
        raise ValueError("one name per observable required")
    return [np.asarray(o.entries) for o in observables], tuple(observable_names)


def build_trajectory(
    steps: Sequence[int],
    times: Sequence[float],
    raw_states: Sequence[DensityMatrix],
    observables: Sequence[np.ndarray],
    observable_names: Sequence[str],
    metadata: dict | None = None,
) -> Trajectory:
    """Assemble a Trajectory from the validated samples; trace and minimum
    eigenvalue are read from the states, not recomputed."""
    values = np.zeros((len(raw_states), len(observables)), dtype=complex)
    for i, state in enumerate(raw_states):
        for j, obs in enumerate(observables):
            values[i, j] = np.einsum("ij,ji->", obs, state.entries)
    return Trajectory(
        steps=np.asarray(steps),
        times=np.asarray(times),
        states=tuple(raw_states),
        observable_names=tuple(observable_names),
        observable_values=values,
        traces=np.asarray([state.op.trace().real for state in raw_states]),
        min_eigenvalues=np.asarray([state.min_eigenvalue for state in raw_states]),
        metadata=metadata or {},
    )
