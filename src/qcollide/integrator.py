"""Fixed-step 4th-order integration of d rho/dt = G(rho).

Deterministic classical RK4 on the vectorized state, no adaptivity.  For a
linear generator one RK4 step of size h is exactly v <- T4(hG) v, with T4 the
degree-4 Taylor polynomial, so the propagator T4(hG) is built once per
distinct generator and every step is a single matrix-vector product.
Hermiticity is re-symmetrized every step; trace and positivity are checked
on every recorded sample but never enforced, so a broken generator shows up
instead of being masked.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channels import DensityMatrix
from .ops import Operator, Superoperator, hermitize, unvec, vec
from .trajectory import Trajectory, build_trajectory, observable_arrays, sample_state

GeneratorLike = Superoperator | Sequence[tuple[float, Superoperator]]


def _segments(generator: GeneratorLike):
    """Return (segment start times, matrices, description).  Schedules are
    piecewise constant, keyed by segment start times; dt should subdivide the
    segment grid."""
    if isinstance(generator, Superoperator):
        return [0.0], [generator.matrix], {"kind": "static"}
    segments = sorted(((float(t), g) for t, g in generator), key=lambda p: p[0])
    if not segments:
        raise ValueError("empty generator schedule")
    if segments[0][0] > 0.0:
        raise ValueError("generator schedule must start at t = 0")
    desc = {"kind": "schedule", "segments": len(segments)}
    return [t for t, _ in segments], [g.matrix for _, g in segments], desc


def _rk4_propagator(g: np.ndarray, h: float) -> np.ndarray:
    """T4(hG) = I + hG(I + hG/2(I + hG/3(I + hG/4))) by Horner's rule."""
    p = g * (h / 4.0)
    p.flat[:: g.shape[0] + 1] += 1.0
    for k in (3.0, 2.0, 1.0):
        p = g @ p
        p *= h / k
        p.flat[:: g.shape[0] + 1] += 1.0
    return p


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
    of t_end).  Aborts with a RuntimeError when a recorded sample fails the
    state check (trace or positivity off by more than 1e-8): that signals a
    broken generator, not an integration problem.
    """
    if dt <= 0 or dt > t_end:
        raise ValueError("need 0 < dt <= t_end")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    starts, mats, desc = _segments(generator)
    dims = rho0.dims
    side = rho0.side
    obs, names = observable_arrays(observables, side, observable_names)

    n_steps = max(int(round(t_end / dt)), 1)
    v = vec(np.array(rho0.entries, dtype=complex))
    steps, times, states = [0], [0.0], [rho0]
    propagators: dict[int, np.ndarray] = {}
    for k in range(1, n_steps + 1):
        # one lookup per step, at the midpoint: schedules are piecewise
        # constant on a grid the step subdivides, so the step never
        # straddles a segment boundary
        idx = int(np.searchsorted(starts, (k - 0.5) * dt, side="right")) - 1
        if idx not in propagators:
            propagators[idx] = _rk4_propagator(mats[idx], dt)
        v = propagators[idx] @ v
        rho = hermitize(unvec(v, side))
        v = vec(rho)
        if k % record_stride == 0 or k == n_steps:
            steps.append(k)
            times.append(k * dt)
            states.append(sample_state(rho, dims, k, k * dt))

    metadata = {"engine": "me-rk4", "dt": dt, "t_end": n_steps * dt, "generator": desc}
    return build_trajectory(steps, times, states, obs, names, metadata)


def reduced_trajectory(traj: Trajectory, keep: Sequence[int]) -> Trajectory:
    """Partial trace applied samplewise; `keep` lists 1-based carrier indices."""
    from .ops import partial_trace

    keep0 = sorted(int(m) - 1 for m in keep)
    states = []
    for step, t, state in zip(traj.steps, traj.times, traj.states):
        reduced = partial_trace(state.op, keep0)
        states.append(sample_state(reduced.entries, reduced.dims, step, t))
    metadata = dict(traj.metadata)
    metadata["reduced_to"] = list(keep)
    return build_trajectory(traj.steps, traj.times, states, [], [], metadata)


def trace_distance(a: DensityMatrix | Operator, b: DensityMatrix | Operator) -> float:
    """(1/2) sum |eigenvalues(a - b)|; in [0, 1] for states."""
    ea = a.entries if hasattr(a, "entries") else np.asarray(a)
    eb = b.entries if hasattr(b, "entries") else np.asarray(b)
    if ea.shape != eb.shape:
        raise ValueError(f"shape mismatch: {ea.shape} vs {eb.shape}")
    delta = hermitize(ea - eb)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
