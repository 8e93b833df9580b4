"""Fixed-step 4th-order integration of d rho/dt = G(rho).

Deterministic classical RK4, no adaptivity.  A GKSL generator maps Hermitian
matrices to Hermitian matrices, so the state lives in real Hermitian
coordinates: X = A + iB (A symmetric, B antisymmetric) is stored as the real
matrix S = A + B, and X = ((1+i)S + (1-i)S^T)/2.  Each generator is converted
once into the real D^2 x D^2 matrix R of S -> s(Herm(G X(S))).  For a linear
generator one RK4 step of size h is exactly s <- T4(hR) s, with T4 the
degree-4 Taylor polynomial, built once per generator segment in two matrix
products (Paterson-Stockmeyer).  The conversion holds for any
Hermiticity-preserving linear map, and the loop (`_propagate`) is the one
`collision.simulate` runs too: one matvec per step, or, when a fixed map
runs at least as many steps as its side (n >= D^2), one matrix product per
SAMPLE_BATCH steps with the map's power.  Recorded steps are rows of the
computed ones, so the record stride never changes a sample.  A recorded
step only copies its real coordinates into a small batch buffer
(`trajectory.SampleRecorder`); each full batch, and the last one, becomes
complex states in one vectorized conversion and goes through the one state
check in one call, whose positivity verdict is one batched Cholesky
factorization.  Minimum eigenvalues are computed only when a trajectory's
`min_eigenvalues` is read.  Recorded samples are exactly Hermitian by
construction and are never re-symmetrized; trace and positivity are
checked on every recorded sample but never enforced, so a broken generator
shows up instead of being masked.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .channels import DensityMatrix
from .ops import Operator, Superoperator, hermitize, trace_out, vec
from .trajectory import (
    SAMPLE_BATCH,
    SampleRecorder,
    Trajectory,
    build_trajectory,
    check_samples,
    observable_arrays,
)

GeneratorLike = Superoperator | Sequence[tuple[float, Superoperator]]

# a segment start t is on the step grid when t / dt is an integer within this
# relative tolerance
GRID_RTOL = 1e-9


def _segments(generator: GeneratorLike, dt: float):
    """Return (segment start times, matrices, description).  Schedules are
    piecewise constant, keyed by segment start times, which must lie on the
    step grid so that no step straddles a segment boundary."""
    if isinstance(generator, Superoperator):
        return [0.0], [generator.matrix], {"kind": "static"}
    segments = sorted(((float(t), g) for t, g in generator), key=lambda p: p[0])
    if not segments:
        raise ValueError("empty generator schedule")
    if segments[0][0] > 0.0:
        raise ValueError("generator schedule must start at t = 0")
    for i, (t, _) in enumerate(segments):
        steps = t / dt
        if abs(steps - round(steps)) > GRID_RTOL * max(abs(steps), 1.0):
            raise ValueError(
                f"schedule segment {i} starts at t = {t!r}, off the step grid of dt = {dt!r}"
            )
    desc = {"kind": "schedule", "segments": len(segments)}
    return [t for t, _ in segments], [g.matrix for _, g in segments], desc


def _real_map(g: np.ndarray) -> np.ndarray:
    """R = (Re G + T Re G T + Im G T - T Im G) / 2, a Hermiticity-preserving
    linear map G (on column-stacked vectors) in real Hermitian coordinates;
    T is the transpose permutation of vec, which swaps the row and column
    index on each side.  G is a (D^2, D^2) matrix or, to spare a copy, any
    view of its (D, D, D, D) tensor with each of the four indices split
    into the same number of axes."""
    t = g.reshape((math.isqrt(g.shape[0]),) * 4) if g.ndim == 2 else g
    k = t.ndim // 4
    col, row, col_in, row_in = (tuple(range(i * k, (i + 1) * k)) for i in range(4))
    re, im = t.real, t.imag
    r = np.add(re, re.transpose(row + col + row_in + col_in), out=np.empty(t.shape))
    r += im.transpose(col + row + row_in + col_in)
    r -= im.transpose(row + col + col_in + row_in)
    r *= 0.5
    side2 = math.isqrt(r.size)
    return r.reshape(side2, side2)


def _rk4_propagator(r: np.ndarray, h: float) -> np.ndarray:
    """T4(hR) = (I + A + A^2/2) + A^2 (A/6 + A^2/24) with A = hR, by
    Paterson-Stockmeyer: two matrix products.  Overwrites r."""
    a = np.multiply(r, h, out=r)
    a2 = a @ a
    tail = a2 * 0.25
    tail += a
    tail *= 1.0 / 6.0
    t4 = a2 @ tail
    a2 *= 0.5
    t4 += a2
    t4 += a
    t4.flat[:: t4.shape[0] + 1] += 1.0
    return t4


def _hermitian(s: np.ndarray, side: int) -> np.ndarray:
    """X = ((1+i)S + (1-i)S^T)/2 = A + iB from the real coordinates s = vec(S),
    for a stack of coordinate rows shaped (n, D^2); exactly Hermitian, since
    A = (S + S^T)/2 and B = (S - S^T)/2 are built from the same entry pairs."""
    m = s.reshape(-1, side, side).swapaxes(-2, -1)  # row-wise unvec
    x = np.empty(m.shape, dtype=complex)
    np.add(m, m.swapaxes(-2, -1), out=x.real)
    np.subtract(m, m.swapaxes(-2, -1), out=x.imag)
    x *= 0.5
    return x


def _real_coordinates(x: np.ndarray) -> np.ndarray:
    """s = vec(S) with S = A + B for the Hermitian part A + iB of x:
    A = (Re x + Re x^T)/2 and B = (Im x - Im x^T)/2, so S = (P + Q^T)/2 with
    P = Re x + Im x and Q = Re x - Im x (S = P exactly when x is Hermitian)."""
    return vec(0.5 * (x.real + x.imag + (x.real - x.imag).T))


def _propagate(
    rho0: DensityMatrix,
    dt: float,
    record_stride: int,
    segments: Iterable[tuple[int, np.ndarray | Callable[[int, np.ndarray, np.ndarray], None]]],
) -> SampleRecorder:
    """The one propagation loop of `integrate` and `collision.simulate`.

    From rho0, in real Hermitian coordinates, each `(n, advance)` of
    `segments` advances the state by n steps: `advance` is a fixed real map
    M (s <- M s), or `advance(k, s, out)`, which writes the coordinates
    after step k into `out`.  Steps are recorded at t = k dt: step 0, every
    `record_stride` steps and the last step.

    A fixed map runs one matvec per step unless its segment has at least as
    many steps as its side, n >= D^2.  Then the loop works a block at a
    time: the segment's first state and the next SAMPLE_BATCH - 1 steps
    (matvecs) fill a block of SAMPLE_BATCH states; Q = M^SAMPLE_BATCH is
    built by squaring, the loop drops its reference to M, and each further
    block of SAMPLE_BATCH steps is one product, block @ Q^T.  The squarings
    cost about log2(SAMPLE_BATCH) D^2 matvecs, which shorter segments would
    not repay.  Recorded steps are rows of the computed ones, so the stride
    never changes a sample.
    """
    side = rho0.side
    recorder = SampleRecorder(rho0.dims, lambda rows: _hermitian(rows, side))

    def record(rows: np.ndarray, first: int) -> None:
        # rows[i] holds the coordinates after step first + i
        for i in range(-first % record_stride, len(rows), record_stride):
            recorder.record(first + i, (first + i) * dt, rows[i])

    s = _real_coordinates(rho0.entries)
    recorder.record(0, 0.0, s)
    k = 0
    for n, advance in segments:
        if callable(advance) or n < len(advance):
            step = advance if callable(advance) else lambda _, x, out, m=advance: np.matmul(m, x, out=out)
            buf = np.empty_like(s)
            for k in range(k + 1, k + n + 1):
                step(k, s, buf)
                s, buf = buf, s
                if k % record_stride == 0:
                    recorder.record(k, k * dt, s)
            continue
        block = np.empty((SAMPLE_BATCH, s.size))
        block[0] = s
        head = min(n, SAMPLE_BATCH - 1)
        for j in range(1, head + 1):
            np.matmul(advance, block[j - 1], out=block[j])
        record(block[1 : head + 1], k + 1)
        s, k, n = block[head], k + head, n - head
        if n > 0:
            q = advance @ advance
            del advance  # only its power is needed from here
            scratch = np.empty_like(q)
            for _ in range(SAMPLE_BATCH.bit_length() - 2):
                np.matmul(q, q, out=scratch)
                q, scratch = scratch, q
            scratch = np.empty_like(block)
        while n > 0:
            rows = min(n, SAMPLE_BATCH)
            np.matmul(block[:rows], q.T, out=scratch[:rows])
            block, scratch = scratch, block
            record(block[:rows], k + 1)
            s, k, n = block[rows - 1], k + rows, n - rows
    if k % record_stride:
        recorder.record(k, k * dt, s)
    return recorder


def integrate(
    generator: GeneratorLike,
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
    observables: Sequence[Operator] = (),
    record_stride: int = 1,
    observable_names: Sequence[str] | None = None,
) -> Trajectory:
    """Integrate rho over [0, t_end] with fixed step dt (final time within dt
    of t_end).  A schedule segment that starts off the step grid is a
    ValueError.  Aborts with a RuntimeError naming the first recorded sample
    that fails the state check (trace or positivity off by more than 1e-8),
    at most one batch of samples after it: that signals a broken generator,
    not an integration problem.
    """
    if dt <= 0 or dt > t_end:
        raise ValueError("need 0 < dt <= t_end")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    starts, mats, desc = _segments(generator, dt)
    obs, names = observable_arrays(observables, rho0.side, observable_names)
    n_steps = max(int(round(t_end / dt)), 1)

    def segments():
        # a segment runs the steps after its start up to the next start:
        # starts lie on the step grid, so no step straddles a boundary, and
        # a segment that runs no step builds no propagator
        done = 0
        for mat, end in zip(mats, [round(t / dt) for t in starts[1:]] + [n_steps]):
            end = min(end, n_steps)
            if end > done:
                yield end - done, _rk4_propagator(_real_map(mat), dt)
                done = end

    recorder = _propagate(rho0, dt, record_stride, segments())
    metadata = {"engine": "me-rk4", "dt": dt, "t_end": n_steps * dt, "generator": desc}
    return recorder.trajectory(obs, names, metadata)


def reduced_trajectory(traj: Trajectory, keep: Sequence[int]) -> Trajectory:
    """Partial trace applied samplewise; `keep` lists 1-based carrier indices.
    The reduced samples go through the state check in one call."""
    keep0 = [int(m) - 1 for m in keep]
    reduced = [trace_out(state, traj.dims, keep0) for state in traj.states]
    stack = np.array([r for _, r in reduced])
    traces = check_samples(stack, traj.steps, traj.times)
    metadata = {**traj.metadata, "reduced_to": list(keep)}
    return build_trajectory(traj.steps, traj.times, list(stack), traces, reduced[0][0], [], [], metadata)


def trace_distance(a: DensityMatrix | Operator, b: DensityMatrix | Operator) -> float:
    """(1/2) sum |eigenvalues(a - b)|; in [0, 1] for states."""
    ea = a.entries if hasattr(a, "entries") else np.asarray(a)
    eb = b.entries if hasattr(b, "entries") else np.asarray(b)
    if ea.shape != eb.shape:
        raise ValueError(f"shape mismatch: {ea.shape} vs {eb.shape}")
    delta = hermitize(ea - eb)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
