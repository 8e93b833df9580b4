"""Exact discrete simulation of the multipartite collision model.

An ordered set of carriers S_1..S_M collides with a stream of identical
sub-environments; between collisions each sub-environment relaxes under a
CPT channel.  The main simulation path is the column recursion.  When every
column is the same linear map Phi on the carriers (no collision index, no
local schedule) and its build fits the entry budget COLUMN_MAP_MAX_ENTRIES,
`simulate` builds Phi once from its Kraus form (the Stinespring dilation of
eta, the collisions and the relaxation, traced over the environment), and
the stream is Phi^n, advanced on each invariant sector of Phi on its own
(`integrator._propagate`).  Otherwise each collision runs the direct
column on the carriers plus one environment site.  The direct column also
serves `evolve_column_step` and the expansion's exact side, and the row
decomposition is kept as a correctness oracle on small instances.

Joint states are laid out as [S_1, ..., S_M, E] with the environment last.
Carrier indices m and collision indices n are 1-based throughout.
"""

from __future__ import annotations

import bisect
import copy
import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channels import DensityMatrix, KrausChannel, orbit_points
from .ops import (
    DEFAULT_TOL,
    Operator,
    SandwichForm,
    expm_hermitian,
    kron,
    partial_trace,
    trace_out,
)
from .integrator import _components, _propagate, _real_map, _split
from .trajectory import Trajectory, observable_arrays

ROW_PATH_MAX_SIDE = 256
# simulate builds the traced column as one map when no array of the build
# has more complex entries than this (`_column_phi_entries`; 16 MiB each);
# the map then advances by its invariant sectors (`integrator.SECTOR_CUT`)
COLUMN_MAP_MAX_ENTRIES = 2**20


def _check_coupling_list(ops: Sequence[Operator], dim: int, label: str):
    for op in ops:
        if op.side != dim:
            raise ValueError(f"{label} operator side {op.side} does not match dimension {dim}")
        if not op.is_hermitian(DEFAULT_TOL):
            raise ValueError(f"{label} operator is not Hermitian")
        if np.max(np.abs(op.entries)) == 0:
            raise ValueError(f"{label} operator is identically zero")


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Hermitian coupling terms H = sum_l A_l (x) B_l for every carrier.

    `system_ops[m-1][l]` acts on carrier m, `env_ops[m-1][l]` on the
    sub-environment.  With `env_shared` (the default) every carrier must list
    the same environment operators, so checking carrier 1's list covers all.  For
    non-uniform collisions, `collision_system_ops[n-1][m-1][l]` supplies the
    carrier operators used at collision n; such a spec is collision-indexed,
    and `at(n)` resolves it to the plain spec of collision n.
    """

    system_ops: tuple[tuple[Operator, ...], ...]
    env_ops: tuple[tuple[Operator, ...], ...]
    env_shared: bool = True
    collision_system_ops: tuple[tuple[tuple[Operator, ...], ...], ...] | None = None

    def __post_init__(self):
        system_ops = tuple(tuple(ops) for ops in self.system_ops)
        env_ops = tuple(tuple(ops) for ops in self.env_ops)
        if not system_ops:
            raise ValueError("need at least one carrier")
        if len(env_ops) != len(system_ops):
            raise ValueError("system and environment coupling lists must pair per carrier")
        env_dim = env_ops[0][0].side if env_ops[0] else 0
        for m, (a_list, b_list) in enumerate(zip(system_ops, env_ops), start=1):
            if not a_list or len(a_list) != len(b_list):
                raise ValueError(f"carrier {m}: coupling term counts differ or are empty")
            _check_coupling_list(a_list, a_list[0].side, f"carrier {m} system")
            _check_coupling_list(b_list, env_dim, f"carrier {m} environment")
        if self.env_shared:
            first = [b.entries for b in env_ops[0]]
            for m, b_list in enumerate(env_ops[1:], start=2):
                same = len(b_list) == len(first) and all(
                    np.array_equal(b.entries, f) for b, f in zip(b_list, first)
                )
                if not same:
                    raise ValueError(f"env_shared: carrier {m} environment operators differ from carrier 1's")
        if self.collision_system_ops is not None:
            frozen = tuple(tuple(tuple(ops) for ops in per_m) for per_m in self.collision_system_ops)
            for n, per_m in enumerate(frozen, start=1):
                if len(per_m) != len(system_ops):
                    raise ValueError("collision-indexed operators must cover every carrier")
                for m, ops in enumerate(per_m, start=1):
                    if len(ops) != len(system_ops[m - 1]):
                        raise ValueError("collision-indexed term count mismatch")
                    _check_coupling_list(ops, system_ops[m - 1][0].side, f"collision {n} carrier {m} system")
            object.__setattr__(self, "collision_system_ops", frozen)
        object.__setattr__(self, "system_ops", system_ops)
        object.__setattr__(self, "env_ops", env_ops)

    @classmethod
    def uniform(
        cls, system_ops: Sequence[Sequence[Operator]], env_ops: Sequence[Operator]
    ) -> "CouplingSpec":
        """Same environment operators for every carrier, no collision index."""
        env = tuple(env_ops)
        return cls(
            system_ops=tuple(tuple(ops) for ops in system_ops),
            env_ops=tuple(env for _ in system_ops),
            env_shared=True,
        )

    @property
    def n_carriers(self) -> int:
        return len(self.system_ops)

    def n_terms(self, m: int) -> int:
        return len(self.system_ops[m - 1])

    def at(self, n: int) -> "CouplingSpec":
        """The couplings of collision n: the plain spec of its carrier
        operators when collision-indexed, otherwise this spec itself."""
        if self.collision_system_ops is None:
            return self
        if not 1 <= n <= len(self.collision_system_ops):
            raise ValueError(f"collision index {n} outside tabulated range")
        # a copy, not a new spec: every table row was checked at construction,
        # and simulate resolves one spec per collision
        spec = copy.copy(self)
        object.__setattr__(spec, "system_ops", self.collision_system_ops[n - 1])
        object.__setattr__(spec, "collision_system_ops", None)
        return spec

    def a_ops(self, m: int) -> tuple[Operator, ...]:
        """Carrier-m operators of a spec that is not collision-indexed."""
        if self.collision_system_ops is not None:
            raise ValueError("couplings are collision-indexed; resolve collision n with .at(n) first")
        return self.system_ops[m - 1]

    def b_ops(self, m: int) -> tuple[Operator, ...]:
        return self.env_ops[m - 1]


@dataclass(frozen=True, eq=False)
class HamiltonianSchedule:
    """Piecewise-constant local Hamiltonian h(t) for one carrier.

    Segment j covers [breakpoints[j], breakpoints[j+1]); the last segment
    extends to infinity.  The first breakpoint must be 0.
    """

    breakpoints: tuple[float, ...]
    ops: tuple[Operator, ...]

    def __post_init__(self):
        pts = tuple(float(t) for t in self.breakpoints)
        ops = tuple(self.ops)
        if not pts or pts[0] != 0.0 or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("breakpoints must start at 0 and increase strictly")
        if len(ops) != len(pts):
            raise ValueError("need one Hamiltonian per segment")
        for op in ops:
            if not op.is_hermitian(DEFAULT_TOL):
                raise ValueError("schedule Hamiltonians must be Hermitian")
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "ops", ops)

    @classmethod
    def constant(cls, h: Operator) -> "HamiltonianSchedule":
        return cls((0.0,), (h,))

    @property
    def dim(self) -> int:
        return self.ops[0].side

    def at(self, t: float) -> Operator:
        idx = bisect.bisect_right(self.breakpoints, t) - 1
        return self.ops[max(idx, 0)]

    def propagator(self, t0: float, t1: float) -> np.ndarray:
        """Time-ordered propagator over [t0, t1], exact for the step schedule."""
        if t1 < t0:
            raise ValueError("propagator requires t1 >= t0")
        cuts = [t0] + [t for t in self.breakpoints if t0 < t < t1] + [t1]
        u = np.eye(self.dim, dtype=complex)
        for a, b in zip(cuts, cuts[1:]):
            u = expm_hermitian(self.at(a), b - a).entries @ u
        return u


@dataclass(frozen=True, eq=False)
class CollisionConfig:
    """Full description of one collision-model run.

    The collision unitary is exp(-i g H dt); collision n happens at n*dt,
    which only matters when local free-evolution schedules are present.
    """

    carrier_dims: tuple[int, ...]
    env_dim: int
    g: float
    dt: float
    n_collisions: int
    eta: DensityMatrix
    channel: KrausChannel
    couplings: CouplingSpec
    local_hamiltonians: tuple[HamiltonianSchedule | None, ...] | None = None

    def __post_init__(self):
        carrier_dims = tuple(int(d) for d in self.carrier_dims)
        object.__setattr__(self, "carrier_dims", carrier_dims)
        if not 0 < self.dt < math.inf:
            raise ValueError(f"collision duration dt must be positive and finite; got {self.dt!r}")
        if not 0 <= self.g < math.inf:
            raise ValueError(f"coupling strength g must be nonnegative and finite; got {self.g!r}")
        if self.n_collisions < 0:
            raise ValueError("n_collisions must be nonnegative")
        if self.eta.side != self.env_dim:
            raise ValueError("environment state side does not match env_dim")
        if self.channel.side != self.env_dim:
            raise ValueError("relaxation channel side does not match env_dim")
        if self.couplings.n_carriers != len(carrier_dims):
            raise ValueError("coupling spec carrier count does not match carrier_dims")
        table = self.couplings.collision_system_ops
        if table is not None and len(table) < self.n_collisions:
            raise ValueError(
                f"collision-indexed couplings tabulate {len(table)} collisions, "
                f"fewer than n_collisions = {self.n_collisions}"
            )
        for m, d in enumerate(carrier_dims, start=1):
            if self.couplings.system_ops[m - 1][0].side != d:
                raise ValueError(f"carrier {m} coupling operators do not match dimension {d}")
            if self.couplings.env_ops[m - 1][0].side != self.env_dim:
                raise ValueError(f"carrier {m} environment operators do not match env_dim")
        if self.local_hamiltonians is not None:
            scheds = tuple(self.local_hamiltonians)
            if len(scheds) != len(carrier_dims):
                raise ValueError("need one schedule entry (or None) per carrier")
            for m, sched in enumerate(scheds, start=1):
                if sched is not None and sched.dim != carrier_dims[m - 1]:
                    raise ValueError(f"carrier {m} schedule dimension mismatch")
            object.__setattr__(self, "local_hamiltonians", scheds)

    @property
    def n_carriers(self) -> int:
        return len(self.carrier_dims)

    @property
    def gamma(self) -> float:
        return self.g * self.g * self.dt

    def tau(self, n: int) -> float:
        """Time of the n-th collision (tau_0 = 0)."""
        return n * self.dt

    @property
    def joint_dims(self) -> tuple[int, ...]:
        return self.carrier_dims + (self.env_dim,)

    def at(self, n: int) -> "CollisionConfig":
        """This configuration with its couplings resolved at collision n."""
        return replace(self, couplings=self.couplings.at(n))


def collision_hamiltonian(cfg: CollisionConfig, m: int) -> Operator:
    """Coupling Hamiltonian sum_l A_l (x) B_l on carrier m and one sub-environment."""
    if not 1 <= m <= cfg.n_carriers:
        raise ValueError(f"carrier index {m} out of range")
    return functools.reduce(Operator.__add__, map(kron, cfg.couplings.a_ops(m), cfg.couplings.b_ops(m)))


def collision_unitary(cfg: CollisionConfig, m: int) -> Operator:
    """exp(-i g H dt) for the collision of carrier m with a sub-environment."""
    return expm_hermitian(collision_hamiltonian(cfg, m), cfg.g * cfg.dt)


@dataclass(frozen=True)
class AssumptionReport:
    """First-moment check of the environment operators along the relaxation orbit."""

    entries: tuple[tuple[int, int, float], ...]  # (channel power or carrier index, term, value)
    max_violation: float
    tol: float
    passed: bool
    uniform: bool

    def to_dict(self) -> dict:
        return {
            "uniform": self.uniform,
            "max_violation": self.max_violation,
            "tol": self.tol,
            "passed": self.passed,
            "entries": [
                {("power" if self.uniform else "carrier"): m, "term": l, "value": v}
                for (m, l, v) in self.entries
            ],
        }


def check_assumption(cfg: CollisionConfig, m_max: int, tol: float = DEFAULT_TOL) -> AssumptionReport:
    """Verify that every environment coupling operator has zero mean on the
    relaxation orbit of eta.

    Uniform case: |tr(B_l M^m(eta))| for m = 0..m_max.  Per-carrier
    environment operators: |tr(B_(m,l) M^(m-1)(eta))| for m = 1..m_max.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    uniform = cfg.couplings.env_shared
    if uniform:  # (label, operators); point i is read on M^i(eta)
        points = [(k, cfg.couplings.b_ops(1)) for k in range(m_max + 1)]
    else:
        m_top = min(m_max, cfg.n_carriers)
        points = [(m, cfg.couplings.b_ops(m)) for m in range(1, m_top + 1)]
    sigmas = orbit_points(cfg.channel, cfg.eta.entries, len(points) - 1)
    entries = [
        (label, l, float(abs(np.einsum("ij,ji->", b.entries, sigma))))
        for (label, b_ops), sigma in zip(points, sigmas)
        for l, b in enumerate(b_ops)
    ]
    max_violation = float(np.max([v for (_, _, v) in entries]))  # NaN propagates
    return AssumptionReport(
        entries=tuple(entries),
        max_violation=max_violation,
        tol=tol,
        passed=max_violation <= tol,
        uniform=uniform,
    )


# --- column path -----------------------------------------------------------


def _collision_forms(cfg: CollisionConfig) -> list[SandwichForm]:
    """The collisions of one column, X -> U_m X U_m^dag, as forms on
    (carrier m, one sub-environment)."""
    us = [collision_unitary(cfg, m) for m in range(1, cfg.n_carriers + 1)]
    return [SandwichForm(u.dims, [u.entries], [u.entries.conj().T]) for u in us]


def _column(joint: np.ndarray, cfg: CollisionConfig, collisions: Sequence[SandwichForm]) -> np.ndarray:
    """Joint carriers (x) environment-site matrix after one collision: for
    m = 1..M collide carrier m with the site (`collisions[m-1]`, from
    `_collision_forms`, on the factors (m, E)), then relax the site (the
    channel's Kraus form on E).  The environment is not traced out."""
    dims, env = cfg.joint_dims, cfg.n_carriers
    for m, collide in enumerate(collisions):
        joint = cfg.channel.form.on_factors(collide.on_factors(joint, dims, (m, env)), dims, (env,))
    return joint


def evolve_column_step(joint: DensityMatrix, cfg: CollisionConfig) -> DensityMatrix:
    """One column of the collision sequence: for m = 1..M collide carrier m
    with the fresh sub-environment and relax it, then trace the environment
    factor out.  Input is the joint state carriers (x) one environment site;
    collision-indexed couplings are resolved first (`cfg.at(n)`).
    """
    if joint.dims != cfg.joint_dims:
        raise ValueError(
            f"joint state dims {joint.dims} do not match carriers+environment {cfg.joint_dims}"
        )
    out = Operator(cfg.joint_dims, _column(joint.entries, cfg, _collision_forms(cfg)))
    return DensityMatrix(partial_trace(out, keep=range(cfg.n_carriers)), atol=1e-8)


def _free_evolution_unitary(cfg: CollisionConfig, t0: float, t1: float) -> np.ndarray | None:
    if cfg.local_hamiltonians is None:
        return None
    blocks = (
        np.eye(d, dtype=complex) if sched is None else sched.propagator(t0, t1)
        for d, sched in zip(cfg.carrier_dims, cfg.local_hamiltonians)
    )
    return functools.reduce(np.kron, blocks)


def _column_phi(cfg: CollisionConfig) -> np.ndarray:
    """The traced column rho -> tr_E[column(rho (x) eta)] as the tensor
    phi[s', s, t', t] of its column-stacked matrix, out[s, s'] =
    sum phi[s', s, t', t] rho[t, t'], which `integrator._real_map` reads.

    The column is a Kraus form sum_j p_j |x_j><x_j| of kets on (E, carriers
    done, their inputs), from eta's eigh (only exact zero weights dropped,
    so a slightly negative one stays, signed).  For each carrier but the
    last the kets take U_m on (m, E), then branch into the relaxation's
    K_k x_j while there are no more kets than a ket has entries, which
    keeps exact zeros exact (the invariant sectors); else, and before the
    last carrier, they are summed into their Choi matrix C, whose eigh
    gives the kets again, so that no array outgrows C.  U_M and the trace
    of E through Q = sum_k K_k^dag K_k meet C in one product per output
    row of the carriers before M.
    """
    dims, de, kraus = cfg.carrier_dims, cfg.env_dim, [k.entries for k in cfg.channel.kraus]
    us = [collision_unitary(cfg, m).entries.reshape(d, de, d, de) for m, d in enumerate(dims, start=1)]
    c, x, side = cfg.eta.entries, None, 1
    for m, (u, d) in enumerate(zip(us[:-1], dims), start=1):
        if x is None:  # one eigh per block of c's nonzero pattern: a whole eigh mixes the sectors
            labels, p, x = _components(len(c), *np.nonzero(c)), np.zeros(len(c)), np.zeros_like(c)
            for block in (np.flatnonzero(labels == k) for k in range(labels.max() + 1)):
                p[block], x[np.ix_(block, block)] = np.linalg.eigh(c[np.ix_(block, block)])
            p, x = p[p != 0], x[:, p != 0].T
        # (ket, e, S, T) -> (ket, e', S, s, T, t)
        x = np.tensordot(x.reshape(len(p), de, side, side), u, ([1], [3])).transpose(0, 4, 1, 3, 2, 5)
        x, side = x.reshape(len(p), de, -1), side * d
        if m + 1 < len(dims) and len(p) * len(kraus) <= de * side**2:
            p, x = np.repeat(p, len(kraus)), np.stack([k @ x for k in kraus], axis=1)
            continue
        c = 0
        for k in kraus:
            z = (k @ x).reshape(len(p), -1)
            c += z.T @ (p[:, None] * z.conj())
        x = z = None
    d, u = dims[-1], us[-1]
    # t[e, f, s, t, s', t'] = sum Q[h, g] U[s g, t e] conj(U[s' h, t' f]), one e at a time
    qu, t = np.tensordot(cfg.channel.completeness, u, ([1], [1])), np.empty((de, de) + (d,) * 4, complex)
    for e in range(de):
        t[e] = np.moveaxis(np.tensordot(qu[..., e], u.conj(), ([0], [1])), 4, 0)
    c, phi = c.reshape(de, side, side, de, side, side), np.empty((side, d) * 4, dtype=complex)
    for i in range(side):  # phi[S', s', S, s, T', t', T, t], one S at a time
        phi[:, :, i] = np.tensordot(c[:, i], t, ([0, 2], [0, 1])).transpose(1, 5, 3, 2, 6, 0, 4)
    return phi.reshape((side * d,) * 4)


def _column_phi_entries(cfg: CollisionConfig) -> int:
    """Complex entries of the largest array `_column_phi` builds: the map
    (D_c^4), C before the last carrier (D_(<M)^4 d_e^2; the kets and their
    branches are no more) or the last carrier's tensors (d_M^4 d_e^2)."""
    head = math.prod(cfg.carrier_dims[:-1]) ** 4
    return max(math.prod(cfg.carrier_dims) ** 4, max(head, cfg.carrier_dims[-1] ** 4) * cfg.env_dim**2)


def simulate(
    cfg: CollisionConfig,
    rho0: DensityMatrix,
    observables: Sequence[Operator] = (),
    record_stride: int = 1,
    observable_names: Sequence[str] | None = None,
) -> Trajectory:
    """Iterate the column recursion for cfg.n_collisions collisions.

    When the column is the same map at every collision (couplings not
    collision-indexed, no local schedule) and no array of its build has more
    than COLUMN_MAP_MAX_ENTRIES complex entries (`_column_phi_entries`),
    Phi is built once from its Kraus form (`_column_phi`) in real
    Hermitian coordinates and split into its invariant sectors
    (`integrator._split`); every collision is one real matvec per block,
    or, for a block of side b <= n_collisions, every SAMPLE_BATCH
    collisions are one matrix product (`integrator._propagate`).  The
    iterated map takes 8 D_c^4 bytes (at most 8 MiB; three times that
    while the block mode squares it), its blocks less.
    Otherwise each collision runs the direct column (`_column` on
    rho (x) eta, then `ops.trace_out` of the environment) with one list of
    collision forms, or with the list of `cfg.at(n)` when the couplings are
    collision-indexed.
    Both routes go through the integrator's one propagation loop, so
    recorded samples are exactly Hermitian.

    Local free evolution, when configured, is applied to the carriers over
    [tau_(n-1), tau_n] before collision n.  Samples are recorded at step 0,
    every `record_stride` collisions, and at the final collision, the map
    route handing over a window of them per call and the direct column one
    per collision.  They are kept as real coordinate rows, 8 D^2 bytes each,
    and validated in batches (`trajectory.SampleRecorder`), so an invalid
    state aborts the run at most one batch after it was recorded; the
    trajectory converts them to complex states when read, and computes
    minimum eigenvalues only when `Trajectory.min_eigenvalues` is read.
    """
    if rho0.dims != cfg.carrier_dims:
        raise ValueError(f"initial state dims {rho0.dims} do not match carriers {cfg.carrier_dims}")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    obs, names = observable_arrays(observables, rho0.side, observable_names)

    indexed = cfg.couplings.collision_system_ops is not None
    if not indexed and cfg.local_hamiltonians is None and _column_phi_entries(cfg) <= COLUMN_MAP_MAX_ENTRIES:
        advance = _split(_real_map(_column_phi(cfg)), cfg.n_collisions)
    else:
        collisions, carriers = None if indexed else _collision_forms(cfg), range(cfg.n_carriers)

        def advance(n: int, rho: np.ndarray) -> np.ndarray:
            v = _free_evolution_unitary(cfg, cfg.tau(n - 1), cfg.tau(n))
            if v is not None:
                rho = v @ rho @ v.conj().T
            forms = _collision_forms(cfg.at(n)) if indexed else collisions
            return trace_out(_column(np.kron(rho, cfg.eta.entries), cfg, forms), cfg.joint_dims, carriers)[1]

    recorder = _propagate(rho0, cfg.dt, record_stride, [(cfg.n_collisions, advance)])
    metadata = {
        "engine": "collision",
        "g": cfg.g,
        "dt": cfg.dt,
        "gamma": cfg.gamma,
        "n_collisions": cfg.n_collisions,
        "record_stride": record_stride,
    }
    return recorder.trajectory(obs, names, metadata)


# --- row path (correctness oracle) ----------------------------------------


def evolve_row(cfg: CollisionConfig, rho0: DensityMatrix, n_sites: int) -> DensityMatrix:
    """Row decomposition: carrier by carrier, collide with sub-environments
    1..n_sites (site j at the couplings of collision j) and then relax all
    of them once.  Exponential in n_sites; guarded to a total side of 256.
    """
    if rho0.dims != cfg.carrier_dims:
        raise ValueError("initial state dims do not match carriers")
    if n_sites < 1:
        raise ValueError("need at least one environment site")
    side = math.prod(cfg.carrier_dims) * cfg.env_dim**n_sites
    if side > ROW_PATH_MAX_SIDE:
        raise ValueError(
            f"row path total side {side} exceeds the guard {ROW_PATH_MAX_SIDE}; "
            "use the column path for larger instances"
        )
    dims = cfg.carrier_dims + (cfg.env_dim,) * n_sites
    arr = rho0.entries
    for _ in range(n_sites):
        arr = np.kron(arr, cfg.eta.entries)
    n_carr = cfg.n_carriers
    forms = [_collision_forms(cfg.at(j)) for j in range(1, n_sites + 1)]
    for m in range(1, n_carr + 1):
        for j in range(1, n_sites + 1):
            arr = forms[j - 1][m - 1].on_factors(arr, dims, (m - 1, n_carr - 1 + j))
        for j in range(1, n_sites + 1):
            arr = cfg.channel.form.on_factors(arr, dims, (n_carr - 1 + j,))
    reduced = partial_trace(Operator(dims, arr), keep=range(n_carr))
    return DensityMatrix(reduced, atol=1e-8)


# --- interaction picture ---------------------------------------------------


def interaction_frame_couplings(cfg: CollisionConfig) -> CouplingSpec:
    """Rotate the carrier coupling operators into the frame of the local free
    evolution: A -> V(tau_n,0)^dag A V(tau_n,0), tabulated per collision
    (`CouplingSpec.at(n)` reads collision n).

    The collision duration is assumed short against the spacing of the
    collision times; the transformation itself is exact for the piecewise
    constant schedules used here.
    """
    if cfg.local_hamiltonians is None:
        raise ValueError("interaction frame requires local Hamiltonian schedules")
    spec = cfg.couplings
    if spec.collision_system_ops is not None:
        raise ValueError("couplings are already collision-indexed")
    cumulative = [np.eye(d, dtype=complex) for d in cfg.carrier_dims]
    tabulated = []
    for n in range(1, cfg.n_collisions + 1):
        t0, t1 = cfg.tau(n - 1), cfg.tau(n)
        per_m = []
        for m, sched in enumerate(cfg.local_hamiltonians):
            if sched is not None:
                cumulative[m] = sched.propagator(t0, t1) @ cumulative[m]
            v = cumulative[m]
            per_m.append(
                tuple(
                    Operator(a.dims, v.conj().T @ a.entries @ v)
                    for a in spec.system_ops[m]
                )
            )
        tabulated.append(tuple(per_m))
    return CouplingSpec(
        system_ops=spec.system_ops,
        env_ops=spec.env_ops,
        env_shared=spec.env_shared,
        collision_system_ops=tuple(tabulated),
    )


def frame_propagator(cfg: CollisionConfig, n: int) -> np.ndarray:
    """Joint free-evolution unitary V(tau_n, 0) over all carriers."""
    if cfg.local_hamiltonians is None:
        raise ValueError("no local Hamiltonian schedules configured")
    return _free_evolution_unitary(cfg, 0.0, cfg.tau(n))
