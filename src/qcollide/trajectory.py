"""Trajectory container shared by the collision engine and the ME integrator.

Both writers emit the same CSV schema (step, t, observable re/im pairs,
trace, min_eigenvalue) so outputs can be diffed at the file level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .channels import DensityMatrix, StateViolation, check_states
from .jsonio import write_csv, write_json
from .ops import Operator

SAMPLE_ATOL = 1e-8
# recorded samples are validated in stacks of this many
SAMPLE_BATCH = 64


@dataclass(eq=False)
class Trajectory:
    """Ordered samples of a state evolution with observable expectations.

    `states` are read-only complex (D, D) arrays on the tensor space `dims`:
    the rows of the stacks that passed the one state check, whose traces are
    kept alongside.  The check certifies positivity without eigenvalues, so
    `min_eigenvalues` are computed when first read.
    """

    steps: np.ndarray
    times: np.ndarray
    states: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    observable_names: tuple[str, ...]
    observable_values: np.ndarray  # shape (n_samples, n_observables), complex
    traces: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.states)
        self.steps = np.asarray(self.steps, dtype=int)
        self.times = np.asarray(self.times, dtype=float)
        self.observable_values = np.asarray(self.observable_values, dtype=complex).reshape(
            n, len(self.observable_names)
        )
        self.traces = np.asarray(self.traces, dtype=float)
        if not (len(self.steps) == len(self.times) == n == len(self.traces)):
            raise ValueError("trajectory field lengths disagree")
        if np.any(np.diff(self.times) <= 0) and n > 1:
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        """The minimum eigenvalue of every sample, by one batched eigvalsh
        per SAMPLE_BATCH samples, computed once when first read."""
        return np.concatenate(
            [
                np.linalg.eigvalsh(np.array(self.states[i : i + SAMPLE_BATCH]))[:, 0]
                for i in range(0, len(self), SAMPLE_BATCH)
            ]
        )

    def final_state(self) -> DensityMatrix:
        """The last sample as a DensityMatrix (checked again, at SAMPLE_ATOL)."""
        return DensityMatrix(Operator(self.dims, self.states[-1]), SAMPLE_ATOL)

    def expectations(self, name: str) -> np.ndarray:
        idx = self.observable_names.index(name)
        return self.observable_values[:, idx]

    def to_csv(self, path) -> None:
        columns = [f"{name}_{part}" for name in self.observable_names for part in ("re", "im")]
        header = ["step", "t", *columns, "trace", "min_eigenvalue"]
        reim = np.ascontiguousarray(self.observable_values).view(np.float64).tolist()  # re, im side by side
        rows = zip(self.steps.tolist(), self.times.tolist(), reim, self.traces.tolist(), self.min_eigenvalues.tolist())
        write_csv(path, header, [[step, t, *v, trace, low] for step, t, v, trace, low in rows])

    def to_json(self, path) -> None:
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
                    "state": self.states[i],
                }
                for i in range(len(self))
            ],
        }
        write_json(path, payload)


def check_samples(stack: np.ndarray, steps: Sequence[int], times: Sequence[float]) -> np.ndarray:
    """Run the one state check (`channels.check_states`) over a complex
    (n, D, D) stack of the samples taken at `steps` and `times`, then make the
    stack read-only; returns the traces.  A failing
    sample aborts the run with a RuntimeError naming its step, so the CLI
    reports a property failure."""
    try:
        traces = check_states(stack, SAMPLE_ATOL)
    except StateViolation as exc:
        step, t = steps[exc.index], times[exc.index]
        raise RuntimeError(f"state invariants violated at step {step}, t={t:.6g}: {exc}") from exc
    stack.setflags(write=False)
    return traces


class SampleRecorder:
    """The recorded samples of one run, validated SAMPLE_BATCH at a time.

    `record` copies a raw sample (the propagation loop of `simulate` and
    `integrate` records real coordinates) into the next row of a reused
    buffer of SAMPLE_BATCH samples.  A full batch, and the last one at
    `trajectory`, is turned into a new complex (n, D, D) stack by `convert`
    and checked in one call (`check_samples`); the recorder keeps the checked
    stacks and the check's traces, and the trajectory's states are the rows
    of those stacks.  A violation surfaces
    at most one batch after the failing step was recorded.
    """

    def __init__(self, dims: tuple[int, ...], convert: Callable[[np.ndarray], np.ndarray]):
        self.dims = dims
        self._convert = convert
        self._buf: np.ndarray | None = None
        self._pending = 0
        self.steps: list[int] = []
        self.times: list[float] = []
        self._stacks: list[np.ndarray] = []
        self._traces: list[np.ndarray] = []

    def record(self, step: int, t: float, sample: np.ndarray) -> None:
        if self._buf is None:
            self._buf = np.empty((SAMPLE_BATCH,) + sample.shape, dtype=sample.dtype)
        self._buf[self._pending] = sample
        self._pending += 1
        self.steps.append(step)
        self.times.append(t)
        if self._pending == SAMPLE_BATCH:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        stack = self._convert(self._buf[: self._pending])
        first = len(self.steps) - self._pending
        self._pending = 0
        self._traces.append(check_samples(stack, self.steps[first:], self.times[first:]))
        self._stacks.append(stack)

    def trajectory(
        self,
        observables: Sequence[np.ndarray],
        observable_names: Sequence[str],
        metadata: dict | None = None,
    ) -> Trajectory:
        self._flush()
        rows = [row for stack in self._stacks for row in stack]
        return build_trajectory(
            self.steps, self.times, rows, np.concatenate(self._traces), self.dims,
            observables, observable_names, metadata,
        )


def check_observable_name(name, taken) -> None:
    """A ValueError unless `name` can head the two CSV columns <name>_re and
    <name>_im: a nonempty string without commas, double quotes or line
    breaks, and not one of the names `taken`."""
    if not isinstance(name, str) or not name or any(c in name for c in ',"\r\n'):
        raise ValueError(f"expected a nonempty string without commas, double quotes or line breaks, got {name!r}")
    if name in taken:
        raise ValueError(f"duplicate observable name {name!r}")


def observable_arrays(
    observables: Sequence[Operator], side: int, observable_names: Sequence[str] | None
) -> tuple[list[np.ndarray], tuple[str, ...]]:
    """Observable matrices on a state space of the given side, with their
    names (obs0, obs1, ... when none are given; `check_observable_name`)."""
    if any(o.side != side for o in observables):
        raise ValueError(f"observables must act on the state space (side {side})")
    if observable_names is None:
        observable_names = [f"obs{i}" for i in range(len(observables))]
    if len(observable_names) != len(observables):
        raise ValueError("one name per observable required")
    for i, name in enumerate(observable_names):
        check_observable_name(name, observable_names[:i])
    return [np.asarray(o.entries) for o in observables], tuple(observable_names)


def build_trajectory(
    steps: Sequence[int],
    times: Sequence[float],
    raw_states: Sequence[np.ndarray],
    traces: np.ndarray,
    dims: tuple[int, ...],
    observables: Sequence[np.ndarray],
    observable_names: Sequence[str],
    metadata: dict | None = None,
) -> Trajectory:
    """Assemble a Trajectory from checked samples (read-only complex arrays)
    and the traces their check returned."""
    values = np.zeros((len(raw_states), len(observables)), dtype=complex)
    for i, state in enumerate(raw_states):
        for j, obs in enumerate(observables):
            values[i, j] = np.einsum("ij,ji->", obs, state)
    return Trajectory(
        steps=np.asarray(steps),
        times=np.asarray(times),
        states=tuple(raw_states),
        dims=tuple(dims),
        observable_names=tuple(observable_names),
        observable_values=values,
        traces=traces,
        metadata=metadata or {},
    )
