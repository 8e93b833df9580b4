"""Fixed-step 4th-order integration of d rho/dt = G(rho).

Deterministic classical RK4, no adaptivity.  A GKSL generator maps Hermitian
matrices to Hermitian matrices, so the state lives in real Hermitian
coordinates: X = A + iB (A symmetric, B antisymmetric) is stored as the real
matrix S = A + B, and X = ((1+i)S + (1-i)S^T)/2.  Each generator is converted
once into the real D^2 x D^2 matrix R of S -> s(Herm(G X(S))).  For a linear
generator one RK4 step of size h is exactly s <- T4(hR) s, with T4 the
degree-4 Taylor polynomial, so the propagator T4(hR) is built once per
distinct generator and every step is a single real matrix-vector product;
the products run back to back.  The conversion holds for any
Hermiticity-preserving linear map, and the loop (`_propagate`) is the one
`collision.simulate` runs too.  A recorded step only copies its real
coordinates into a small batch buffer (`trajectory.SampleRecorder`); each
full batch, and the last one, becomes complex states in one vectorized
conversion and goes through the one state check in one call.  Recorded
samples are exactly Hermitian by construction and are never re-symmetrized;
trace and positivity are checked on every recorded sample but never
enforced, so a broken generator shows up instead of being masked.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Sequence

import numpy as np

from .channels import DensityMatrix
from .ops import Operator, Superoperator, hermitize, trace_out, vec
from .trajectory import SampleRecorder, Trajectory, build_trajectory, check_samples, observable_arrays

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


def _rk4_propagator(g: np.ndarray, h: float) -> np.ndarray:
    """T4(hG) = I + hG(I + hG/2(I + hG/3(I + hG/4))) by Horner's rule."""
    p = g * (h / 4.0)
    p.flat[:: g.shape[0] + 1] += 1.0
    for k in (3.0, 2.0, 1.0):
        p = g @ p
        p *= h / k
        p.flat[:: g.shape[0] + 1] += 1.0
    return p


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
    n_steps: int,
    record_stride: int,
    step: Callable[[int, np.ndarray, np.ndarray], None],
) -> SampleRecorder:
    """The one propagation loop of `integrate` and `collision.simulate`: from
    rho0, in real Hermitian coordinates, `step(k, s, out)` writes the
    coordinates after step k into `out` (one real matvec on the propagator
    routes), and steps are recorded at t = k dt: step 0, every
    `record_stride` steps and the last step."""
    side = rho0.side
    s = _real_coordinates(rho0.entries)
    buf = np.empty_like(s)
    recorder = SampleRecorder(rho0.dims, lambda rows: _hermitian(rows, side))
    recorder.record(0, 0.0, s)
    for k in range(1, n_steps + 1):
        step(k, s, buf)
        s, buf = buf, s
        if k % record_stride == 0 or k == n_steps:
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
    propagators: dict[int, np.ndarray] = {}

    def step(k: int, s: np.ndarray, out: np.ndarray) -> None:
        # one lookup per step, at the midpoint: segments start on the step
        # grid, so the step never straddles a segment boundary
        idx = bisect.bisect_right(starts, (k - 0.5) * dt) - 1
        if idx not in propagators:
            propagators[idx] = _rk4_propagator(_real_map(mats[idx]), dt)
        np.matmul(propagators[idx], s, out=out)

    n_steps = max(int(round(t_end / dt)), 1)
    recorder = _propagate(rho0, dt, n_steps, record_stride, step)
    metadata = {"engine": "me-rk4", "dt": dt, "t_end": n_steps * dt, "generator": desc}
    return recorder.trajectory(obs, names, metadata)


def reduced_trajectory(traj: Trajectory, keep: Sequence[int]) -> Trajectory:
    """Partial trace applied samplewise; `keep` lists 1-based carrier indices.
    The reduced samples go through the state check in one call."""
    keep0 = [int(m) - 1 for m in keep]
    reduced = [trace_out(state, traj.dims, keep0) for state in traj.states]
    stack = np.array([r for _, r in reduced])
    traces, min_eigs = check_samples(stack, traj.steps, traj.times)
    metadata = {**traj.metadata, "reduced_to": list(keep)}
    return build_trajectory(
        traj.steps, traj.times, list(stack), traces, min_eigs, reduced[0][0], [], [], metadata
    )


def trace_distance(a: DensityMatrix | Operator, b: DensityMatrix | Operator) -> float:
    """(1/2) sum |eigenvalues(a - b)|; in [0, 1] for states."""
    ea = a.entries if hasattr(a, "entries") else np.asarray(a)
    eb = b.entries if hasattr(b, "entries") else np.asarray(b)
    if ea.shape != eb.shape:
        raise ValueError(f"shape mismatch: {ea.shape} vs {eb.shape}")
    delta = hermitize(ea - eb)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
