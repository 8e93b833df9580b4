"""Trajectory container shared by the collision engine and the ME integrator.

Both writers emit the same CSV schema (step, t, observable re/im pairs,
trace, min_eigenvalue) so outputs can be diffed at the file level.

Samples have one format, owned here: a Hermitian X = A + iB (A symmetric,
B antisymmetric) is stored as the real coordinates s = vec(S), S = A + B
(`_real_coordinates`), and rebuilt as X = ((1+i)S + (1-i)S^T)/2
(`_hermitian`).  `SampleRecorder`, the one way a Trajectory is made,
checks the samples batch by batch and keeps their rows (`Samples`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .channels import DensityMatrix, StateViolation, check_states
from .jsonio import CSV_CHUNK_ROWS, quote, write_csv, write_json
from .ops import Operator, vec

SAMPLE_ATOL = 1e-8
# recorded samples are validated in stacks of this many
SAMPLE_BATCH = 64


def _hermitian(s: np.ndarray, side: int, out: np.ndarray | None = None) -> np.ndarray:
    """X = ((1+i)S + (1-i)S^T)/2 = A + iB from the real coordinates s = vec(S),
    for a stack of coordinate rows shaped (n, D^2), written into `out`
    when given; exactly Hermitian, since A = (S + S^T)/2 and
    B = (S - S^T)/2 are built from the same entry pairs."""
    m = s.reshape(-1, side, side).swapaxes(-2, -1)  # row-wise unvec
    x = np.empty(m.shape, dtype=complex) if out is None else out
    np.add(m, m.swapaxes(-2, -1), out=x.real)
    np.subtract(m, m.swapaxes(-2, -1), out=x.imag)
    x *= 0.5
    return x


def _real_coordinates(x: np.ndarray) -> np.ndarray:
    """s = vec(S) with S = A + B for the Hermitian part A + iB of x:
    A = (Re x + Re x^T)/2 and B = (Im x - Im x^T)/2, so S = (P + Q^T)/2 with
    P = Re x + Im x and Q = Re x - Im x (S = P exactly when x is Hermitian)."""
    return vec(0.5 * (x.real + x.imag + (x.real - x.imag).T))


class Samples:
    """The recorded states of a trajectory, kept as the read-only batches of
    at most SAMPLE_BATCH rows that their state check saw: (b, D^2) float64
    rows of real Hermitian coordinates, 8 D^2 bytes per sample, batch k
    from sample starts[k] on.  Each read converts (`_hermitian`) only what
    it needs: one batch at a time into a reused buffer (`stacks`), or the
    whole run once (`stack`)."""

    def __init__(self, batches: list[np.ndarray], side: int):
        self.batches = batches
        self.side = side
        self.starts = np.cumsum([0] + [len(b) for b in batches]).tolist()

    def __len__(self) -> int:
        return self.starts[-1]

    def stacks(self) -> Iterator[np.ndarray]:
        """The samples in order as complex stacks, one per batch, converted
        into one reused buffer: each is valid until the next one is made."""
        buf = np.empty((SAMPLE_BATCH, self.side, self.side), dtype=complex)
        for batch in self.batches:
            yield _hermitian(batch, self.side, out=buf[: len(batch)])

    def stack(self) -> np.ndarray:
        """All samples as one new read-only complex (n, D, D) array."""
        out = np.empty((len(self), self.side, self.side), dtype=complex)
        for start, batch in zip(self.starts, self.batches):
            _hermitian(batch, self.side, out=out[start : start + len(batch)])
        out.setflags(write=False)
        return out


@dataclass(eq=False)
class Trajectory:
    """Ordered samples of a state evolution with observable expectations.

    `samples` holds the states on the tensor space `dims` as their state
    check saw them (`Samples`), and `traces` are the check's.  States are
    converted on read: `final_state()` converts the last row,
    `min_eigenvalues` one batch at a time, computed when first read, since
    the check certifies positivity without eigenvalues, and `states` the
    whole run once.
    """

    steps: np.ndarray
    times: np.ndarray
    samples: Samples
    dims: tuple[int, ...]
    observable_names: tuple[str, ...]
    observable_values: np.ndarray  # shape (n_samples, n_observables), complex
    traces: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.samples)
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
        return len(self.samples)

    @cached_property
    def states(self) -> tuple[np.ndarray, ...]:
        """Every sample as a read-only complex (D, D) array, the rows of one
        stack of the whole run, converted when first read."""
        return tuple(self.samples.stack())

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        """The minimum eigenvalue of every sample, by one batched eigvalsh
        per SAMPLE_BATCH samples, computed once when first read."""
        return np.concatenate([np.linalg.eigvalsh(stack)[:, 0] for stack in self.samples.stacks()])

    def final_state(self) -> DensityMatrix:
        """The last sample as a DensityMatrix (checked again, at SAMPLE_ATOL)."""
        last = _hermitian(self.samples.batches[-1][-1], self.samples.side)[0]
        return DensityMatrix(Operator(self.dims, last), SAMPLE_ATOL)

    def expectations(self, name: str) -> np.ndarray:
        idx = self.observable_names.index(name)
        return self.observable_values[:, idx]

    def to_csv(self, path) -> None:
        """The CSV of the run, its columns read CSV_CHUNK_ROWS rows at a time."""
        columns = [f"{name}_{part}" for name in self.observable_names for part in ("re", "im")]
        header = ["step", "t", *columns, "trace", "min_eigenvalue"]
        reim = np.ascontiguousarray(self.observable_values).view(np.float64)  # re, im side by side
        arrays = self.steps, self.times, reim, self.traces, self.min_eigenvalues
        chunks = (zip(*(a[i : i + CSV_CHUNK_ROWS].tolist() for a in arrays)) for i in range(0, len(self), CSV_CHUNK_ROWS))
        write_csv(path, header, ([step, t, *v, trace, low] for rows in chunks for step, t, v, trace, low in rows))

    def to_json(self, path) -> None:
        keys = ("step", "t", "observables", "trace", "min_eigenvalue", "state")
        reim = np.ascontiguousarray(self.observable_values).view(np.float64).reshape(len(self), -1, 2).tolist()
        columns = self.steps.tolist(), self.times.tolist(), reim, self.traces.tolist(), self.min_eigenvalues.tolist()
        samples = [dict(zip(keys, row)) for row in zip(*columns, self.states)]
        names = list(self.observable_names)
        write_json(path, {"metadata": self.metadata, "observable_names": names, "samples": samples})


class SampleRecorder:
    """The one way a Trajectory is made: the samples of one run, recorded
    and validated SAMPLE_BATCH at a time.

    `record` copies (D^2,) real coordinate rows into the next rows of the
    current batch, and their steps into an int64 buffer beside it: one row
    per call on a per-step route, a window's or a batch's rows otherwise.
    A full batch, and the last one (only its filled rows) at `trajectory`,
    is kept as it is, read-only, and checked in one `channels.check_states`
    call on the complex stack `_hermitian` makes of it, which is exactly
    Hermitian by construction: the check tests finiteness in place of the
    Hermiticity defect.  The stack and the check's shifted copy go into two
    buffers reused across batches.  A failing sample aborts the run with a
    RuntimeError naming its step, which the CLI reports as a property
    failure, at most one batch after it was recorded.
    """

    def __init__(self, dims: tuple[int, ...], dt: float):
        self.dims = dims
        self.dt = dt
        self._side = math.prod(dims)
        self._buf: np.ndarray | None = None
        self._buf_steps: np.ndarray | None = None
        self._pending = 0
        self._states = np.empty((SAMPLE_BATCH, self._side, self._side), dtype=complex)
        self._scratch = np.empty_like(self._states)
        self._batches: list[np.ndarray] = []
        self._steps: list[np.ndarray] = []
        self._traces: list[np.ndarray] = []

    def record(self, steps: Sequence[int], rows: np.ndarray, cols: np.ndarray | None = None) -> None:
        """Record rows[i], taken at step steps[i], or rows[i, cols] when the
        rows hold the coordinates in another order."""
        done = 0
        while done < len(rows):
            if self._buf is None:
                self._buf = np.empty((SAMPLE_BATCH, rows.shape[1]))
                self._buf_steps = np.empty(SAMPLE_BATCH, dtype=np.int64)
            take = min(len(rows) - done, SAMPLE_BATCH - self._pending)
            fill = slice(self._pending, self._pending + take)
            self._buf_steps[fill] = steps[done : done + take]
            if cols is None:
                self._buf[fill] = rows[done : done + take]
            else:  # cols is a permutation; with mode "raise" numpy would buffer `out`
                np.take(rows[done : done + take], cols, axis=1, out=self._buf[fill], mode="clip")
            self._pending += take
            done += take
            if self._pending == SAMPLE_BATCH:
                self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        n = self._pending
        rows, steps = (b if n == SAMPLE_BATCH else b[:n].copy() for b in (self._buf, self._buf_steps))
        self._buf, self._buf_steps, self._pending = None, None, 0
        try:
            states = _hermitian(rows, self._side, out=self._states[:n])
            self._traces.append(check_states(states, SAMPLE_ATOL, self._scratch))
        except StateViolation as exc:
            step = int(steps[exc.index])
            raise RuntimeError(f"state invariants violated at step {step}, t={step * self.dt:.6g}: {exc}") from exc
        rows.setflags(write=False)
        self._batches.append(rows)
        self._steps.append(steps)

    def trajectory(
        self,
        observables: Sequence[np.ndarray],
        observable_names: Sequence[str],
        metadata: dict | None = None,
    ) -> Trajectory:
        self._flush()
        self._states = self._scratch = None
        samples = Samples(self._batches, self._side)
        return build_trajectory(
            np.concatenate(self._steps), self.dt, samples, np.concatenate(self._traces), self.dims,
            observables, observable_names, metadata,
        )


def check_observable_name(name, taken) -> None:
    """A ValueError unless `name` can head the two CSV columns <name>_re and
    <name>_im: a nonempty string without commas, double quotes or line
    breaks, and not one of the names `taken`."""
    if not isinstance(name, str) or not name or any(c in name for c in ',"\r\n'):
        raise ValueError(f"expected a nonempty string without commas, double quotes or line breaks, got {quote(name)}")
    if name in taken:
        raise ValueError(f"duplicate observable name {quote(name)}")


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
    steps: np.ndarray,
    dt: float,
    raw_states: Samples,
    traces: np.ndarray,
    dims: tuple[int, ...],
    observables: Sequence[np.ndarray],
    observable_names: Sequence[str],
    metadata: dict | None = None,
) -> Trajectory:
    """Assemble a Trajectory from the checked samples (`SampleRecorder`),
    their int64 steps and the traces their check returned.  Each time is
    step * dt, computed here once.  Each observable is read by one einsum
    per converted batch."""
    values = np.zeros((len(raw_states), len(observables)), dtype=complex)
    if observables:
        i = 0
        for stack in raw_states.stacks():
            for j, obs in enumerate(observables):
                values[i : i + len(stack), j] = np.einsum("ij,nji->n", obs, stack)
            i += len(stack)
    return Trajectory(
        steps=steps,
        times=steps * dt,
        samples=raw_states,
        dims=tuple(dims),
        observable_names=tuple(observable_names),
        observable_values=values,
        traces=traces,
        metadata=metadata or {},
    )
