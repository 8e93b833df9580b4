import dataclasses
import gc
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_cpt_channel, random_hermitian, random_state
from qcollide.channels import DensityMatrix, identity_channel, lossy_bosonic_channel
from qcollide.collision import CollisionConfig, CouplingSpec, HamiltonianSchedule, _column_phi, simulate
from qcollide.generators import full_generator, single_carrier_generator
import qcollide.integrator
import qcollide.trajectory
from qcollide.integrator import (
    SectorMap,
    _components,
    _propagate,
    _real_entries,
    _real_map,
    _rk4_propagator,
    _sectors,
    _split,
    integrate,
    reduced_trajectory,
    trace_distance,
)
from qcollide.jsonio import complex_matrix_to_json
from qcollide.scenarios import collision_config, load_scenario, scenario_generator
from qcollide.ops import (
    Operator, SandwichForm, hermitize, momentum_op, pauli, position_op, projector, unvec, vec,
)
from qcollide.trajectory import SAMPLE_BATCH, SampleRecorder

SX = pauli("x")
GROUND = DensityMatrix.ground(2)


def dephasing_generator(gamma=1.0):
    spec = CouplingSpec.uniform([[SX]], [SX])
    return full_generator(spec, GROUND, identity_channel(2), gamma, (2,)).total


def dephasing_exact(t, gamma=1.0):
    return np.diag([(1 + math.exp(-2 * gamma * t)) / 2, (1 - math.exp(-2 * gamma * t)) / 2])


class TestIntegrate:
    def test_zero_generator_is_constant(self, rng):
        rho0 = random_state(rng, (2,))
        zero = np.zeros((4, 4))
        traj = integrate(zero, rho0, t_end=1.0, dt=0.05)
        for state in traj.states:
            assert np.max(np.abs(state - rho0.entries)) <= 1e-14

    def test_dephasing_closed_form(self):
        traj = integrate(dephasing_generator(), GROUND, t_end=0.5, dt=1e-3,
                         observables=[projector(2, 0)], observable_names=["p0"])
        got = traj.expectations("p0")[-1].real
        want = (1 + math.exp(-1.0)) / 2
        assert abs(got - want) <= 1e-8

    def test_fourth_order_convergence(self):
        exact = Operator((2,), dephasing_exact(0.5))

        def err(dt):
            traj = integrate(dephasing_generator(), GROUND, t_end=0.5, dt=dt)
            return trace_distance(traj.final_state(), exact)

        e_coarse, e_fine = err(0.02), err(0.01)
        order = math.log2(e_coarse / e_fine)
        assert e_fine < e_coarse
        assert 3.7 <= order <= 4.3

    def test_trace_conserved(self, rng):
        gen = dephasing_generator()
        traj = integrate(gen, random_state(rng, (2,)), t_end=1.0, dt=1e-3)
        budget = 1e-10 * (1.0 / 1e-3)
        assert np.max(np.abs(traj.traces - 1.0)) <= budget

    def test_positivity_monitored(self, rng):
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        gen = full_generator(spec, GROUND, lossy_bosonic_channel(2, 0.25), 1.0, (2, 2)).total
        traj = integrate(gen, random_state(rng, (2, 2)), t_end=1.0, dt=5e-3)
        assert traj.min_eigenvalues.min() >= -1e-8

    @pytest.mark.parametrize("rate", [1.0, 1e-7])
    def test_aborts_on_broken_generator(self, rate):
        # d rho/dt = rate * rho inflates the trace; must abort with a diagnostic,
        # also when the drift stays below 1e-6 but exceeds the 1e-8 sample check
        grow = rate * np.eye(4)
        with pytest.raises(RuntimeError, match="invariants violated at step"):
            integrate(grow, GROUND, t_end=1.0, dt=0.01)

    def test_growth_names_the_first_failing_step_past_a_batch(self):
        # d rho/dt = rate * rho: the trace e^(rate t) first leaves 1 +- 1e-8 at
        # the step of the per-sample formula, in a later batch than the first
        dt = 0.01
        rate = 1e-8 / (150.5 * dt)
        want = next(k for k in range(1, 10**6) if abs(math.expm1(rate * k * dt)) > 1e-8)
        assert want > SAMPLE_BATCH
        grow = rate * np.eye(4)
        with pytest.raises(RuntimeError, match=f"invariants violated at step {want}, t={want * dt:.6g}: trace"):
            integrate(grow, GROUND, t_end=3.0, dt=dt)

    def test_nan_generator_segment_aborts_at_its_first_step(self):
        nan = np.full((4, 4), np.nan)
        zero = np.zeros((4, 4))
        with pytest.raises(RuntimeError, match="at step 101, t=1.01: density matrix has a non-finite entry"):
            integrate([(0.0, zero), (1.0, nan)], GROUND, t_end=2.0, dt=0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_aborts(self, monkeypatch, bad):
        # poison the sample of step 70 where the recorder converts its batch
        hermitian, seen = qcollide.trajectory._hermitian, [0]

        def poisoned(rows, side, out=None):
            x = hermitian(rows, side, out)
            i = 70 - seen[0]
            seen[0] += len(x)
            if 0 <= i < len(x):
                x[i, 0, 0] = bad
            return x

        monkeypatch.setattr(qcollide.trajectory, "_hermitian", poisoned)
        with pytest.raises(RuntimeError, match="at step 70, t=0.7: density matrix has a non-finite entry"):
            integrate(dephasing_generator(), GROUND, t_end=1.0, dt=0.01)

    def test_strided_samples_equal_stride_one_bit_for_bit(self, rng):
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        gen = full_generator(spec, GROUND, lossy_bosonic_channel(2, 0.25), 1.0, (2, 2)).total
        rho0 = random_state(rng, (2, 2))
        every = integrate(gen, rho0, t_end=1.0, dt=5e-3)
        by_step = dict(zip(every.steps.tolist(), range(len(every))))
        for stride in (7, SAMPLE_BATCH + 1):
            coarse = integrate(gen, rho0, t_end=1.0, dt=5e-3, record_stride=stride)
            for i, step in enumerate(coarse.steps.tolist()):
                j = by_step[step]
                assert np.array_equal(coarse.states[i], every.states[j])
                assert coarse.traces[i] == every.traces[j]
                assert coarse.min_eigenvalues[i] == every.min_eigenvalues[j]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="dt"):
            integrate(dephasing_generator(), GROUND, t_end=0.1, dt=0.2)

    def test_final_time_within_dt(self):
        traj = integrate(dephasing_generator(), GROUND, t_end=0.5, dt=0.03)
        assert abs(traj.times[-1] - 0.5) <= 0.03

    def test_piecewise_constant_schedule(self):
        # x-dephasing for t < 0.25 then frozen: matches the closed form piecewise
        gen = dephasing_generator()
        zero = np.zeros((4, 4))
        schedule = [(0.0, gen), (0.25, zero)]
        traj = integrate(schedule, GROUND, t_end=0.5, dt=1e-3)
        want = dephasing_exact(0.25)
        assert np.max(np.abs(traj.final_state().entries - want)) <= 1e-9

    def test_off_grid_segment_rejected(self):
        # a segment starting inside a step would silently run that whole step
        # with the later generator
        gen = dephasing_generator()
        zero = np.zeros((4, 4))
        with pytest.raises(ValueError, match="segment 1 starts at t = 0.015"):
            integrate([(0.0, gen), (0.015, zero)], GROUND, t_end=0.1, dt=0.01)

    def test_generator_of_another_side_is_rejected_before_the_first_step(self, monkeypatch):
        # carrier 1's generator on the pair's state would advance 4 of the
        # 16 coordinates and leave the rest of the window uninitialized: it
        # is refused before any matrix is built or any step runs
        sc = load_scenario("ad-chain-2q")
        gen = scenario_generator(sc)
        single = single_carrier_generator(gen, 1)
        schedule = [(0.0, gen.total), (0.5, single)]

        def refuse(*args):
            raise AssertionError("the propagation ran")

        monkeypatch.setattr(SandwichForm, "matrix", refuse)
        monkeypatch.setattr(qcollide.integrator, "_propagate", refuse)
        with pytest.raises(ValueError, match="the generator acts on side 2, rho0 on side 4"):
            integrate(single, sc.rho0, 1.0, 0.1)
        with pytest.raises(ValueError, match="schedule segment 1 acts on side 2, rho0 on side 4"):
            integrate(schedule, sc.rho0, 1.0, 0.1)

    @pytest.mark.parametrize(
        "t_end, dt, start, match",
        [
            (1.0, math.nan, 0.5, "need 0 < dt <= t_end, both finite"),
            (math.nan, 0.1, 0.5, "need 0 < dt <= t_end, both finite"),
            (math.inf, 0.1, 0.5, "need 0 < dt <= t_end, both finite"),
            (1.0, math.inf, 0.5, "need 0 < dt <= t_end, both finite"),
            (1.0, 0.1, math.nan, "segment 1 starts at t = nan, not a finite time"),
            (1.0, 0.1, math.inf, "segment 1 starts at t = inf, not a finite time"),
            (1.0, 0.1, -math.inf, "segment 1 starts at t = -inf, not a finite time"),
        ],
    )
    def test_non_finite_times_are_rejected(self, t_end, dt, start, match):
        gen = dephasing_generator()
        zero = np.zeros((4, 4))
        with pytest.raises(ValueError, match=match):
            integrate([(0.0, gen), (start, zero)], GROUND, t_end=t_end, dt=dt)
        if math.isfinite(start):
            with pytest.raises(ValueError, match=match):
                integrate(gen, GROUND, t_end=t_end, dt=dt)

    def test_samples_exactly_hermitian(self, rng):
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        correlated = full_generator(spec, GROUND, lossy_bosonic_channel(2, 0.25), 1.0, (2, 2)).total
        for gen in (correlated, random_lindblad(rng, (2, 2))):
            traj = integrate(gen, random_state(rng, (2, 2)), t_end=0.2, dt=1e-3)
            for x in traj.states:
                assert np.array_equal(x, x.conj().T)

    def test_real_coordinates_keep_the_hermitian_part(self, rng):
        # a non-Hermitian input drops its anti-Hermitian part; for a
        # Hermitian one S = Re x + Im x exactly
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        back = qcollide.integrator._hermitian(qcollide.integrator._real_coordinates(x), 4)[0]
        assert np.max(np.abs(back - hermitize(x))) <= 1e-15
        rho = hermitize(random_state(rng, (2, 2)).entries)
        assert np.array_equal(qcollide.integrator._real_coordinates(rho), vec(rho.real + rho.imag))


def random_lindblad(rng, dims, n_jumps=2):
    """-i[H, X] + sum_k (L_k X L_k^dag - {L_k^dag L_k, X}/2): trace preserving."""
    side = math.prod(dims)
    eye = np.eye(side)
    h = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    h = 0.5 * (h + h.conj().T)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for _ in range(n_jumps):
        jump = 0.5 * (rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
        jj = jump.conj().T @ jump
        mat += np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))
    return mat


def staged_rk4(schedule, rho0, n_steps, dt):
    """Classical RK4 with the four stages k1..k4, one generator lookup at each
    step midpoint and Hermiticity restored after every step."""
    starts = [t for t, _ in schedule]
    side = rho0.side
    v = vec(np.array(rho0.entries))
    states = [rho0.entries]
    for k in range(1, n_steps + 1):
        idx = int(np.searchsorted(starts, (k - 1) * dt + 0.5 * dt, side="right")) - 1
        g = schedule[max(idx, 0)][1]
        g = g.matrix() if isinstance(g, SandwichForm) else g
        k1 = g @ v
        k2 = g @ (v + 0.5 * dt * k1)
        k3 = g @ (v + 0.5 * dt * k2)
        k4 = g @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = hermitize(unvec(v, side))
        v = vec(rho)
        states.append(rho)
    return states


class TestPropagatorAgainstStagedRK4:
    DIMS = (2, 3)
    N_STEPS = 200
    DT = 1e-3

    def _check(self, generator, schedule, rng):
        rho0 = random_state(rng, self.DIMS)
        traj = integrate(generator, rho0, t_end=self.N_STEPS * self.DT, dt=self.DT)
        want = staged_rk4(schedule, rho0, self.N_STEPS, self.DT)
        assert len(traj) == self.N_STEPS + 1
        assert traj.times[-1] == self.N_STEPS * self.DT
        assert traj.metadata["engine"] == "me-rk4"
        for state, ref in zip(traj.states, want):
            assert np.max(np.abs(state - ref)) <= 1e-12

    def test_static_generator(self, rng):
        gen = random_lindblad(rng, self.DIMS)
        self._check(gen, [(0.0, gen)], rng)

    def test_three_segment_schedule(self, rng):
        schedule = [(0.0, random_lindblad(rng, self.DIMS)),
                    (0.05, random_lindblad(rng, self.DIMS)),
                    (0.12, random_lindblad(rng, self.DIMS))]
        self._check(schedule, schedule, rng)


def horner_rk4_propagator(r, h):
    """T4(hR) = I + hR(I + hR/2(I + hR/3(I + hR/4))) by Horner's rule."""
    p = r * (h / 4.0)
    p.flat[:: r.shape[0] + 1] += 1.0
    for k in (3.0, 2.0, 1.0):
        p = r @ p
        p *= h / k
        p.flat[:: r.shape[0] + 1] += 1.0
    return p


def random_column_map(rng, carrier_dims, env_dim=2):
    """The real map of one collision column with random couplings, channel
    and environment state."""
    couplings = CouplingSpec.uniform(
        [[random_hermitian(rng, (d,))] for d in carrier_dims], [random_hermitian(rng, (env_dim,))]
    )
    cfg = CollisionConfig(
        carrier_dims=carrier_dims,
        env_dim=env_dim,
        g=1.0,
        dt=0.3,
        n_collisions=1,
        eta=random_state(rng, (env_dim,)),
        channel=random_cpt_channel(rng, env_dim),
        couplings=couplings,
    )
    return _real_map(_column_phi(cfg))


class TestPropagatorBuild:
    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 3), (3, 3)])
    def test_paterson_stockmeyer_matches_horner(self, rng, dims):
        for scale in (1e-3, 0.1, 0.5, 1.0):
            r = _real_map(random_lindblad(rng, dims))
            h = scale / np.linalg.norm(r, 2)
            want = horner_rk4_propagator(r, h)
            got = _rk4_propagator(r.copy(), h)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.linalg.norm(want, 2)


class TestBlockPropagation:
    """A fixed map advances a block of SAMPLE_BATCH steps per product once a
    segment has at least D^2 steps; the samples match one matvec per step."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(2,), (2, 2), (2, 3)]),
        kind=st.sampled_from(["gksl", "column"]),
        lengths=st.lists(st.integers(1, 300), min_size=1, max_size=2),
        stride=st.integers(1, 70),
    )
    @example(seed=0, dims=(2, 3), kind="gksl", lengths=[35], stride=1)
    @example(seed=0, dims=(2, 3), kind="column", lengths=[36], stride=1)
    @example(seed=0, dims=(2, 3), kind="gksl", lengths=[300, 35], stride=7)
    @example(seed=0, dims=(2,), kind="column", lengths=[3, 130], stride=SAMPLE_BATCH + 1)
    def test_blocks_match_the_serial_loop(self, seed, dims, kind, lengths, stride):
        rng = np.random.default_rng(seed)
        if kind == "gksl":
            maps = [_rk4_propagator(_real_map(random_lindblad(rng, dims)), 1e-2) for _ in lengths]
        else:
            maps = [random_column_map(rng, dims) for _ in lengths]
        rho0 = random_state(rng, dims)
        traj = qcollide.integrator._propagate(rho0, 0.1, stride, list(zip(lengths, maps))).trajectory([], [])

        s = qcollide.integrator._real_coordinates(rho0.entries)
        serial = [s]
        for n, m in zip(lengths, maps):
            for _ in range(n):
                s = m @ s
                serial.append(s)
        total = sum(lengths)
        steps = sorted(set(range(0, total + 1, stride)) | {total})
        assert traj.steps.tolist() == steps
        want = qcollide.integrator._hermitian(np.array(serial)[steps], rho0.side)
        assert np.max(np.abs(np.array(traj.states) - want)) <= 1e-13


    @pytest.mark.parametrize("dims, n_steps, products", [((2, 2), 200, 64), ((4, 4), 255, 255), ((4, 4), 256, 64)])
    def test_mode_rule(self, rng, dims, n_steps, products):
        # one product with M per step below n_steps = D^2; from there on
        # SAMPLE_BATCH - 1 matvecs and the first squaring, then only Q
        calls = []

        class CountedMap(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                calls.append(ufunc.__name__)
                inputs = [np.asarray(x) for x in inputs]
                if out is not None:
                    kwargs["out"] = tuple(np.asarray(x) for x in out)
                return getattr(ufunc, method)(*inputs, **kwargs)

        m = _rk4_propagator(_real_map(random_lindblad(rng, dims)), 1e-3).view(CountedMap)
        rho0 = random_state(rng, dims)
        qcollide.integrator._propagate(rho0, 0.1, n_steps, [(n_steps, m)])
        assert calls == ["matmul"] * products


def charged_lindblad(rng, charges):
    """A random GKSL generator that conserves the coherence order q_i - q_j
    of the basis charges q: H keeps the charge, one jump keeps it and one
    lowers it by one.  Its real map has one sector per |q_i - q_j|."""
    q = np.asarray(charges)
    side = len(q)
    eye = np.eye(side)
    h = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    h = 0.5 * (h + h.conj().T) * (q[:, None] == q)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for shift in (0, 1):
        jump = 0.5 * (rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))) * (q[:, None] == q - shift)
        jj = jump.conj().T @ jump
        mat += np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))
    return mat


def hidden_sector_map(rng, side, count):
    """The real map of `charged_lindblad` with the charges 0..count-1 spread
    over the basis in a random order, so each sector's coordinates are
    scattered; returns the map and the |order| of every coordinate
    (coordinate i + side j holds S[i, j])."""
    q = rng.permutation(np.arange(side) % count)
    return _real_map(charged_lindblad(rng, q)), np.abs(np.subtract.outer(q, q)).ravel(order="F")


def blocks_of(fixed):
    return fixed.blocks if isinstance(fixed, SectorMap) else [fixed]


def whole_map_loop(s, n, m):
    """The coordinates after steps 0..n of the propagation loop for one
    fixed map m, as it ran before maps were split: one matvec per step when
    n < D^2, else SAMPLE_BATCH - 1 matvecs and then one product per
    SAMPLE_BATCH steps with m^SAMPLE_BATCH built by six squarings."""
    states = [s]
    for _ in range(n if n < len(m) else min(n, SAMPLE_BATCH - 1)):
        states.append(m @ states[-1])
    if len(states) == n + 1:
        return np.array(states)
    q = m @ m
    for _ in range(SAMPLE_BATCH.bit_length() - 2):
        q = q @ q
    block = np.array(states)
    done, out = SAMPLE_BATCH - 1, [block]
    while done < n:
        rows = min(n - done, SAMPLE_BATCH)
        block = block[:rows] @ q.T
        out.append(block)
        done += rows
    return np.concatenate(out)


CHAIN3 = {
    "scenario": "custom",
    "carrier_dims": [3, 3, 3],
    "env_dim": 3,
    "couplings": {"system": [["x", "p"]] * 3, "environment": ["x", "p"]},
    "eta": "ground",
    "channel": {"kind": "lossy", "dim": 3, "kappa": 0.25},
    "rho0": {"kind": "product", "factors": [complex_matrix_to_json(np.diag([1.0, 0.0, 0.0]))] * 3},
}


class TestSectors:
    """Fixed maps split into the connected components of their entries, when
    the split is stable and pays, and the split loop gives the whole map's
    samples."""

    @pytest.mark.parametrize(
        "config, n, count, largest",
        [
            # the `integrate` of the 3-carrier benchmark chain and the
            # converge reference of bosonic-fiber run 2,000 steps
            (CHAIN3, 2000, 13, 141),
            ("bosonic-fiber", 2000, 13, 44),
            # 12 more blocks first pay at 279 steps: bosonic-fiber's own
            # 100 collisions run whole
            ("bosonic-fiber", 100, 1, 256),
            ("bosonic-fiber", 278, 1, 256),
            ("bosonic-fiber", 279, 13, 44),
            # side 16 or 4: no run repays a block, so the parity (2) and
            # replacer (4) components stay whole
            ("ad-chain-2q", 10**9, 1, 16),
            ("rotating-env-2q", 10**9, 1, 16),
            ("replacer", 10**9, 1, 16),
            ("dephasing-1q", 10**9, 1, 4),
        ],
    )
    @pytest.mark.parametrize("which", ["R", "Phi"])
    def test_builtin_sector_counts(self, config, n, count, largest, which):
        sc = load_scenario(config)
        if which == "R":
            m = _real_map(scenario_generator(sc).total.matrix())
        else:
            m = _real_map(_column_phi(collision_config(sc, sc.n_collisions)))
        sectors = _sectors(m, n)
        assert len(sectors) == count
        assert max(map(len, sectors)) == largest
        order = np.concatenate(sectors)
        assert sorted(order.tolist()) == list(range(len(m)))
        assert all(np.all(np.diff(idx) > 0) for idx in sectors)

    @pytest.mark.parametrize("config, components", [("ad-chain-2q", 2), ("replacer", 4), ("dephasing-1q", 2)])
    def test_small_maps_have_components_the_pays_rule_keeps_whole(self, monkeypatch, config, components):
        m = _real_map(scenario_generator(load_scenario(config)).total.matrix())
        monkeypatch.setattr(qcollide.integrator, "SECTOR_STEP_COST", 0)
        monkeypatch.setattr(qcollide.integrator, "SECTOR_BLOCK_COST", 0)
        assert len(_sectors(m, 1)) == components

    @pytest.mark.parametrize("scale, count", [(1e-12, 1), (1e-15, 1), (1e-17, 2)])
    def test_cross_entry_between_the_cuts_keeps_the_map_whole(self, rng, scale, count):
        # a genuine coupling (above SECTOR_CUT) joins the sectors; one between
        # the cuts makes the split unstable; residue below SECTOR_FLOOR is dropped
        r, order = hidden_sector_map(rng, 9, 2)
        assert len(_sectors(r, 10**4)) == 2
        i, j = np.flatnonzero(order == 0)[3], np.flatnonzero(order == 1)[5]
        r[i, j] = scale * np.abs(r).max()
        assert len(_sectors(r, 10**4)) == count

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_is_whole(self, rng, bad):
        r, _ = hidden_sector_map(rng, 9, 2)
        r[0, 1] = bad
        assert len(_sectors(r, 10**4)) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
        counts=st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True),
        lengths=st.lists(st.integers(1, 300), min_size=2, max_size=2),
        stride=st.integers(1, 70),
    )
    # two sectors of 41 and 40 coordinates: at n = 40 one block steps by
    # matvecs and the other by products in the same segment
    @example(seed=0, dims=(3, 3), counts=[2, 4], lengths=[40, 300], stride=1)
    @example(seed=1, dims=(3, 3), counts=[1, 3], lengths=[64, 65], stride=SAMPLE_BATCH + 1)
    def test_split_matches_the_whole_map_loop(self, seed, dims, counts, lengths, stride):
        rng = np.random.default_rng(seed)
        side = math.prod(dims)
        wholes, splits = [], []
        for count in counts:
            r, order = hidden_sector_map(rng, side, count)
            wholes.append(_rk4_propagator(r.copy(), 1e-2))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qcollide.integrator, "SECTOR_STEP_COST", 0)
                mp.setattr(qcollide.integrator, "SECTOR_BLOCK_COST", 0)
                splits.append(_split(r, 1, lambda block: _rk4_propagator(block, 1e-2)))
            assert len(blocks_of(splits[-1])) == count
            if count > 1:
                # each block holds one |order| of the hidden charges
                bounds = np.cumsum([len(b) for b in splits[-1].blocks])[:-1]
                for idx in np.split(splits[-1].order, bounds):
                    assert len(set(order[idx].tolist())) == 1
        rho0 = random_state(rng, dims)
        got = _propagate(rho0, 0.1, stride, list(zip(lengths, splits))).trajectory([], [])
        want = _propagate(rho0, 0.1, stride, list(zip(lengths, wholes))).trajectory([], [])
        assert np.array_equal(got.steps, want.steps)
        assert np.max(np.abs(np.array(got.states) - np.array(want.states))) <= 1e-13

    @pytest.mark.parametrize("dims, n_steps, stride", [((2, 2), 15, 1), ((2, 2), 16, 1), ((2, 3), 200, 7),
                                                       ((3, 3), 80, 3), ((3, 3), 300, SAMPLE_BATCH + 1)])
    def test_one_sector_map_takes_the_whole_map_loop_bit_for_bit(self, rng, dims, n_steps, stride):
        gen = random_lindblad(rng, dims)
        assert len(_sectors(_real_map(gen), n_steps)) == 1
        m = _rk4_propagator(_real_map(gen), 1e-2)
        rho0 = random_state(rng, dims)
        traj = integrate(gen, rho0, t_end=n_steps * 1e-2, dt=1e-2, record_stride=stride)
        steps = sorted(set(range(0, n_steps + 1, stride)) | {n_steps})
        want = whole_map_loop(qcollide.integrator._real_coordinates(rho0.entries), n_steps, m)[steps]
        assert traj.steps.tolist() == steps
        assert np.array_equal(np.array(traj.states), qcollide.integrator._hermitian(want, rho0.side))


def scatter_matrix(form):
    """The column-stacked matrix of a SandwichForm as it was built before
    the entries kernel, one scatter per term into zeros, then the two K
    scatters: the oracle of `SandwichForm.entries`."""
    side = math.prod(form.dims)
    mat = np.zeros((side * side, side * side), dtype=complex)

    def support(a, partner):
        return np.nonzero(a) if np.isfinite(partner).all() else np.indices(a.shape).reshape(2, -1)

    flat = mat.reshape(-1)
    for s_a, f_a in zip(form.sandwich, form.ops):
        (l, j), (i, k) = support(f_a, s_a), support(s_a, f_a)
        pos = np.add.outer(j * side**3 + l * side, i * side**2 + k).ravel()
        flat[pos] += np.repeat(f_a[l, j], len(i)) * np.tile(s_a[i, k], len(l))
    if form.k is not None:
        t = mat.reshape((side,) * 4)
        diag = np.arange(side)
        t[diag, :, diag, :] -= form.k
        t[:, diag, :, diag] -= form.k.conj()
    return mat


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_split(got, want):
    """The same SectorMap (order and every block) or the same whole map, bit
    for bit, NaN and the sign of zero included."""
    assert type(got) is type(want)
    if isinstance(want, SectorMap):
        assert np.array_equal(got.order, want.order)
        assert len(got.blocks) == len(want.blocks)
        for g, w in zip(got.blocks, want.blocks):
            assert g.shape == w.shape and np.array_equal(bits(g), bits(w))
    else:
        assert got.shape == want.shape and np.array_equal(bits(got), bits(want))


def sparse_form(rng, dims, n_terms, with_k, special):
    """A random SandwichForm whose multipliers keep about half their
    entries, one of them `special` (NaN or an infinity) when given."""
    side = math.prod(dims)

    def sparse(*shape):
        a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < rng.random())
        a[rng.random(shape) < 0.1] = -0.0
        return a

    sandwich, ops, k = sparse(n_terms, side, side), sparse(n_terms, side, side), sparse(side, side) if with_k else None
    if special is not None:
        targets = [m for m in (sandwich, ops, k) if m is not None and m.size]
        target = targets[rng.integers(len(targets))]
        target.reshape(-1)[rng.integers(target.size)] = special
    return SandwichForm(dims, sandwich, ops, k)


class TestFormRoute:
    """A form-backed generator's R is built from the form's entries
    (`SandwichForm.entries`, `_real_entries`): the sectors and blocks of the
    dense route, bit for bit, and no D^4 array unless the map stays whole."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)]),
        kind=st.sampled_from(["conserving", "non-conserving", "form"]),
        n_terms=st.integers(0, 3),
        with_k=st.booleans(),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0, np.nan)]),
    )
    @example(seed=0, dims=(3, 3), kind="conserving", n_terms=0, with_k=True, special=None)
    @example(seed=0, dims=(3, 2), kind="form", n_terms=2, with_k=True, special=np.nan)
    def test_blocks_equal_the_dense_route(self, seed, dims, kind, n_terms, with_k, special):
        rng = np.random.default_rng(seed)
        if kind == "form":
            form = sparse_form(rng, dims, n_terms if with_k else max(n_terms, 1), with_k, special)
        elif 1 in dims:  # no coupling on a carrier of dimension 1
            return
        else:
            de = 3
            if kind == "conserving":
                carriers, env = [[position_op(d), momentum_op(d)] for d in dims], [position_op(de), momentum_op(de)]
            else:  # zero mean on the ground state, which the lossy channel keeps
                b = random_hermitian(rng, (de,)).entries.copy()
                b[0, 0] = 0.0
                carriers, env = [[random_hermitian(rng, (d,))] for d in dims], [Operator((de,), b)]
            spec = CouplingSpec.uniform(carriers, env)
            form = full_generator(spec, DensityMatrix.ground(de), lossy_bosonic_channel(de, 0.3), 1.0, dims).total
        with np.errstate(invalid="ignore", over="ignore"), pytest.MonkeyPatch.context() as mp:
            keys, values = form.entries()
            assert np.all(np.diff(keys) > 0)
            # no entry is an exact +0 (both bits zero); a -0 is kept, which
            # the bitwise comparisons below see
            assert not (values.view(np.int64).reshape(-1, 2) == 0).all(axis=1).any()
            assert np.all(_real_entries(form).values.view(np.int64) != 0)
            dense = np.zeros(math.prod(dims) ** 4, dtype=complex)
            dense[keys] = values
            assert np.array_equal(bits(dense), bits(scatter_matrix(form).reshape(-1)))
            assert np.array_equal(bits(form.matrix()), bits(scatter_matrix(form)))
            real = _real_map(form.matrix())
            for n in (1, 500, 10**6):  # n = 1 never pays; the others do on (3, 3)
                assert_same_split(_split(_real_entries(form), n, np.copy), _split(real, n, np.copy))
            mp.setattr(qcollide.integrator, "SECTOR_STEP_COST", 0)  # every split pays
            mp.setattr(qcollide.integrator, "SECTOR_BLOCK_COST", 0)
            assert_same_split(_split(_real_entries(form), 1, np.copy), _split(real, 1, np.copy))

    def test_chain_lists_only_its_nonzero_entries(self):
        # the sandwich products of different terms cancel exactly on 2,916
        # keys, and R's four swapped copies cancel too: neither is listed
        form = scenario_generator(load_scenario(CHAIN3)).total
        keys, values = form.entries()
        real = _real_entries(form)
        assert len(keys) == np.count_nonzero(values) == 5912
        assert len(real.keys) == np.count_nonzero(real.values) == 5912

    def test_conserving_chain_splits_into_its_coherence_orders(self):
        sc = load_scenario(CHAIN3)
        got = _split(_real_entries(scenario_generator(sc).total), 2000, np.copy)
        assert len(got.blocks) == 13 and max(len(b) for b in got.blocks) == 141

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60))
    def test_components_match_the_grown_components(self, n, edges):
        # each component grown from its smallest vertex by all its members'
        # neighbours at once: the dense routine the edge list replaced
        rows, cols = (np.array([e[i] % n for e in edges], dtype=np.intp) for i in (0, 1))
        adj = np.zeros((n, n), dtype=bool)
        adj[rows, cols] = adj[cols, rows] = True
        want, count = np.full(n, -1), 0
        for seed in range(n):
            if want[seed] < 0:
                members = np.zeros(n, dtype=bool)
                members[seed] = True
                while not np.array_equal(members, grown := members | adj[members].any(axis=0)):
                    members = grown
                want[members], count = count, count + 1
        assert _components(n, rows, cols).tolist() == want.tolist()

    def test_integrate_builds_no_array_of_d4_entries(self):
        # chain3 (D = 27): the complex matrix would take 8.5 MB and R 4.3 MB
        sc = load_scenario(CHAIN3)
        gen = scenario_generator(sc).total
        tracemalloc.start()
        try:
            traj = integrate(gen, sc.rho0, 1.0, 1.0 / 2000, record_stride=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps.tolist() == [0, 2000]
        assert peak <= 6e6

def assert_same_samples(got, want):
    """The same steps, times, states, traces, minimum eigenvalues and
    observable values, bit for bit."""
    assert got.steps.tolist() == want.steps.tolist()
    assert got.times.tolist() == want.times.tolist()
    assert np.array_equal(np.array(got.states), np.array(want.states))
    assert got.traces.tolist() == want.traces.tolist()
    assert got.min_eigenvalues.tolist() == want.min_eigenvalues.tolist()
    assert np.array_equal(got.observable_values, want.observable_values)


def one_row_per_call(mp):
    """Have the recorder take every row in a call of its own, as a route
    that records step by step hands them over."""
    record = SampleRecorder.record

    def per_step(self, steps, rows, cols=None):
        for step, row in zip(steps, rows, strict=True):
            record(self, [step], (row if cols is None else row[cols])[None])

    mp.setattr(SampleRecorder, "record", per_step)


def observables_on(rng, dims, count=2):
    return [np.asarray(random_hermitian(rng, dims).entries) for _ in range(count)], [f"o{i}" for i in range(count)]


class TestRecording:
    """A fixed map's route hands the recorder a window of rows per call, the
    direct column one row per step; recorded samples are kept as real
    coordinate rows and converted on read."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
        counts=st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True),
        lengths=st.lists(st.integers(1, 300), min_size=2, max_size=2),
        stride=st.integers(1, 70),
    )
    @example(seed=0, dims=(3, 3), counts=[1, 3], lengths=[63, 129], stride=1)
    @example(seed=1, dims=(2, 3), counts=[2, 1], lengths=[300, 65], stride=70)
    def test_windows_match_per_step_recording(self, seed, dims, counts, lengths, stride):
        # a two-segment schedule whose sectors differ (one segment may be
        # whole, in the natural order), recorded a window per call and a row
        # per call
        rng = np.random.default_rng(seed)
        side = math.prod(dims)
        maps = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcollide.integrator, "SECTOR_STEP_COST", 0)
            mp.setattr(qcollide.integrator, "SECTOR_BLOCK_COST", 0)
            for count, n in zip(counts, lengths):
                r, _ = hidden_sector_map(rng, side, count)
                maps.append(_split(r, n, lambda block: _rk4_propagator(block, 1e-2)))
        assert [len(blocks_of(m)) for m in maps] == counts
        rho0 = random_state(rng, dims)
        obs, names = observables_on(rng, dims)
        record, calls = SampleRecorder.record, []

        def counted(self, steps, *rest):
            calls.append(len(steps))
            record(self, steps, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SampleRecorder, "record", counted)
            windows = _propagate(rho0, 0.1, stride, list(zip(lengths, maps))).trajectory(obs, names)
        with pytest.MonkeyPatch.context() as mp:
            one_row_per_call(mp)
            per_step = _propagate(rho0, 0.1, stride, list(zip(lengths, maps))).trajectory(obs, names)
        assert_same_samples(windows, per_step)
        # step 0, then one call per window (the first holds SAMPLE_BATCH - 1
        # steps), and the last step when the stride skips it
        per_segment = [1 + max(0, -(-(n - SAMPLE_BATCH + 1) // SAMPLE_BATCH)) for n in lengths]
        assert len(calls) == 1 + sum(per_segment) + (sum(lengths) % stride != 0)
        assert sum(calls) == len(windows)

    @settings(max_examples=15, deadline=None)
    @given(stride=st.integers(1, 70), chunks=st.lists(st.integers(1, 150), min_size=1, max_size=6))
    def test_direct_column_records_per_step_like_windows(self, stride, chunks):
        # a local Hamiltonian keeps rotating-env-2q on the direct column,
        # which records a row per call; the same rows handed over in windows
        # of the sizes `chunks` (repeated) give the same samples
        sc = load_scenario("rotating-env-2q")
        sched = HamiltonianSchedule.constant(Operator((2,), 0.4 * pauli("z").entries))
        cfg = dataclasses.replace(collision_config(sc, 150), local_hamiltonians=(sched, None))
        obs, names = [op for _, op in sc.observables], [name for name, _ in sc.observables]
        record, rows = SampleRecorder.record, []

        def logged(self, steps, batch, cols=None):
            assert len(steps) == 1 and cols is None
            rows.append(batch[0].copy())
            record(self, steps, batch)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SampleRecorder, "record", logged)
            traj = simulate(cfg, sc.rho0, observables=obs, record_stride=stride, observable_names=names)
        assert len(rows) == len(traj)
        replay = SampleRecorder(sc.rho0.dims, cfg.dt)
        done, sizes = 0, iter(chunks * len(rows))
        while done < len(rows):
            end = min(len(rows), done + next(sizes))
            replay.record(traj.steps[done:end], np.array(rows[done:end]))
            done = end
        assert_same_samples(replay.trajectory([o.entries for o in obs], names), traj)

    def test_chain_run_holds_real_coordinates(self):
        # 2,001 samples of the 3-carrier chain (D = 27) take 8 D^2 bytes
        # each; the final state and the minimum eigenvalues are read without
        # the run's complex stack, which takes 16 D^2 bytes per sample
        sc = load_scenario(CHAIN3)
        traj = integrate(scenario_generator(sc).total, sc.rho0, sc.t_end, sc.t_end / 2000)
        assert len(traj) == 2001
        kept = traj.samples.batches
        assert all(b.dtype == np.float64 and b.base is None for b in kept)
        assert sum(b.nbytes for b in kept) == 8 * 27**2 * 2001
        stack = 16 * 27**2 * 2001
        peaks = []
        tracemalloc.start()
        try:
            for read in (traj.final_state, lambda: traj.min_eigenvalues, lambda: traj.states):
                tracemalloc.reset_peak()
                read()
                peaks.append(tracemalloc.get_traced_memory()[1])
                if len(peaks) == 2:
                    assert "states" not in vars(traj)
        finally:
            tracemalloc.stop()
        assert peaks[0] < stack / 100 and peaks[1] < stack / 10
        assert peaks[2] >= stack  # the measurement sees the stack when it is built


def reachable_arrays(root) -> list[np.ndarray]:
    """Every numpy array reachable from `root` through object references
    and array bases, not through classes, modules or functions."""
    stack, seen, arrays = [root], set(), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


class TestGeneratorMemory:
    """A generator keeps its GKSL forms, and `integrate` holds a segment's
    complex matrix only while it builds R."""

    def test_generator_keeps_no_matrix(self):
        # reading every piece's matrix leaves no array of D^4 = 27^4 entries
        # reachable from the generator, only the forms' multipliers
        gen = scenario_generator(load_scenario(CHAIN3))
        pieces = [gen.total, *gen.local_terms, *gen.cross_terms.values()]
        assert all(piece.matrix().shape == (27**2, 27**2) for piece in pieces)
        sizes = [a.size for a in reachable_arrays(gen)]
        assert 6 * 27**2 in sizes  # the six stacked carrier operators of `total`
        assert max(sizes) < 27**4 / 100

    def test_integrate_peak_stays_below_the_samples_and_half_the_matrix(self):
        sc = load_scenario(CHAIN3)
        gen = scenario_generator(sc)
        # `total` is first read inside the trace, so a generator that kept
        # its complex matrix would count it for the whole run
        samples, matrix = 8 * 27**2 * 2001, 16 * 27**4
        tracemalloc.start()
        try:
            traj = integrate(gen.total, sc.rho0, sc.t_end, sc.t_end / 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 2001
        assert samples < peak < samples + matrix / 2


class TestReducedTrajectory:
    def test_keep_all_is_identity(self, rng):
        gen = dephasing_generator()
        traj = integrate(gen, random_state(rng, (2,)), t_end=0.2, dt=1e-2)
        red = reduced_trajectory(traj, keep=[1])
        for a, b in zip(traj.states, red.states):
            assert np.allclose(a, b)

    def test_product_local_factorization(self, rng):
        # local-only generator on a product state: reduction equals a local run
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        gen2 = full_generator(
            spec, GROUND, lossy_bosonic_channel(2, 0.0), 1.0, (2, 2)
        ).total  # kappa=0: replacer-to-vacuum, no cross rates
        rho1 = random_state(rng, (2,))
        rho2 = random_state(rng, (2,))
        joint = DensityMatrix.from_matrix(np.kron(rho1.entries, rho2.entries), (2, 2))
        red = reduced_trajectory(integrate(gen2, joint, t_end=0.4, dt=1e-3), keep=[1])
        local = integrate(dephasing_generator(), rho1, t_end=0.4, dt=1e-3)
        for a, b in zip(red.states, local.states):
            assert trace_distance(a, b) <= 1e-10

    def test_reduced_samples_have_unit_trace(self, rng):
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        gen = full_generator(spec, GROUND, lossy_bosonic_channel(2, 0.5), 1.0, (2, 2)).total
        traj = integrate(gen, random_state(rng, (2, 2)), t_end=0.3, dt=1e-2)
        red = reduced_trajectory(traj, keep=[2])
        assert np.max(np.abs(red.traces - 1.0)) <= 1e-10


class TestCsvSchemaParity:
    def test_same_columns_as_collision_engine(self, tmp_path):
        from qcollide.collision import CollisionConfig, simulate

        obs = [projector(2, 0)]
        me_traj = integrate(dephasing_generator(), GROUND, t_end=0.1, dt=0.05,
                            observables=obs, observable_names=["p0"])
        spec = CouplingSpec.uniform([[SX]], [SX])
        cfg = CollisionConfig(
            carrier_dims=(2,), env_dim=2, g=1.0, dt=0.05, n_collisions=2,
            eta=GROUND, channel=identity_channel(2), couplings=spec,
        )
        cm_traj = simulate(cfg, GROUND, observables=obs, observable_names=["p0"])
        me_traj.to_csv(tmp_path / "me.csv")
        cm_traj.to_csv(tmp_path / "cm.csv")
        me_header = (tmp_path / "me.csv").read_text().splitlines()[0]
        cm_header = (tmp_path / "cm.csv").read_text().splitlines()[0]
        assert me_header == cm_header


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = random_state(rng, (2,))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        excited = DensityMatrix.from_matrix(np.diag([0.0, 1.0]), (2,))
        assert abs(trace_distance(GROUND, excited) - 1.0) <= 1e-14

    def test_diagonal_pair(self):
        a = Operator((2,), np.diag([1.0, 0.0]))
        b = Operator((2,), np.diag([0.75, 0.25]))
        # oracle: eigenvalues of the difference are +-0.25
        eig = np.linalg.eigvalsh(a.entries - b.entries)
        assert abs(trace_distance(a, b) - 0.5 * np.sum(np.abs(eig))) <= 1e-15
        assert abs(trace_distance(a, b) - 0.25) <= 1e-15

    def test_range_for_states(self, rng):
        for _ in range(5):
            a, b = random_state(rng, (3,)), random_state(rng, (3,))
            d = trace_distance(a, b)
            assert 0.0 <= d <= 1.0

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(random_state(rng, (2,)), random_state(rng, (3,)))
