"""Recorded samples: a trajectory keeps its checked batches as read-only
rows of real Hermitian coordinates and the check's traces; states are
converted on read, and their minimum eigenvalues are computed when read."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_state
from qcollide.channels import DensityMatrix, check_states, lossy_bosonic_channel
from qcollide.cli import main
from qcollide.collision import CollisionConfig, CouplingSpec, HamiltonianSchedule, simulate
from qcollide.generators import full_generator
from qcollide.integrator import _hermitian, _real_coordinates, integrate, reduced_trajectory
from qcollide.ops import Operator, partial_trace, pauli, unvec, vec
from qcollide.scenarios import load_scenario, run_simulate
import qcollide.trajectory
from qcollide.trajectory import SAMPLE_ATOL, SAMPLE_BATCH, SampleRecorder

SX = pauli("x")
GROUND = DensityMatrix.ground(2)
SPEC_3 = CouplingSpec.uniform([[SX]] * 3, [SX])
DAMPING = lossy_bosonic_channel(2, 0.25)


def chain_collisions(n_collisions):
    return CollisionConfig(
        carrier_dims=(2, 2, 2),
        env_dim=2,
        g=1.0,
        dt=0.05,
        n_collisions=n_collisions,
        eta=GROUND,
        channel=DAMPING,
        couplings=SPEC_3,
    )


def chain_generator():
    return full_generator(SPEC_3, GROUND, DAMPING, 1.0, (2, 2, 2)).total


def batches(traj):
    """The checked batches of a recorded trajectory as the complex stacks
    the check saw."""
    return [_hermitian(batch, 8) for batch in traj.samples.batches]


def traced_rows(rows, dims, keep0):
    """The partial trace over every factor not in `keep0` of each sample's
    real coordinate matrix S = unvec(row), as vec rows: the traced factors'
    diagonal terms added one at a time, in the order of their joint index."""
    n, drop = len(dims), [i for i in range(len(dims)) if i not in keep0]
    dk, de = math.prod(dims[i] for i in keep0), math.prod(dims[i] for i in drop)
    out = []
    for row in rows:
        s = unvec(row, math.prod(dims)).reshape(dims + dims)
        t = s.transpose(keep0 + drop + [n + i for i in keep0 + drop]).reshape(dk, de, dk, de)
        r = t[:, 0, :, 0].copy()
        for j in range(1, de):
            r += t[:, j, :, j]
        out.append(vec(r))
    return np.array(out)


@pytest.fixture(params=["simulate", "integrate"])
def long_run(request, rng):
    rho0 = random_state(rng, (2, 2, 2))
    if request.param == "simulate":
        return simulate(chain_collisions(150), rho0)
    return integrate(chain_generator(), rho0, t_end=0.3, dt=2e-3)


class TestSamples:
    def test_samples_are_read_only_real_batches(self, long_run):
        # each checked batch is kept as its real coordinate rows, the last one
        # with only its filled rows; states are the rows of one read-only
        # complex stack of the whole run, converted from those rows
        traj = long_run
        assert len(traj) == 151
        kept = traj.samples.batches
        assert [len(b) for b in kept] == [SAMPLE_BATCH, SAMPLE_BATCH, 151 - 2 * SAMPLE_BATCH]
        for batch in kept:
            assert batch.shape[1:] == (64,) and batch.dtype == np.float64
            assert batch.base is None and not batch.flags.writeable
        rows = [row for stack in batches(traj) for row in stack]
        assert len(rows) == len(traj.states)
        for row, state in zip(rows, traj.states):
            assert state.shape == (8, 8) and state.dtype == complex
            assert not state.flags.writeable
            assert np.array_equal(state, row)
            assert state.base is traj.states[0].base
            with pytest.raises(ValueError):
                state[0, 0] = 0.0
        assert traj.states[0].base.ndim == 3 and not traj.states[0].base.flags.writeable

    def test_traces_and_min_eigenvalues_come_from_the_check(self, long_run):
        # traces are the check's; minimum eigenvalues are those of the checked
        # stacks, computed once, when first read
        traj = long_run
        traces = [check_states(s, SAMPLE_ATOL) for s in batches(traj)]
        assert np.array_equal(traj.traces, np.concatenate(traces))
        assert "min_eigenvalues" not in vars(traj)
        min_eigs = traj.min_eigenvalues
        assert "states" not in vars(traj)  # read batch by batch
        assert np.array_equal(min_eigs, np.concatenate([np.linalg.eigvalsh(s)[:, 0] for s in batches(traj)]))
        assert np.array_equal(traj.traces, [complex(np.trace(x)).real for x in traj.states])
        assert np.array_equal(min_eigs, [np.linalg.eigvalsh(x)[0] for x in traj.states])
        assert traj.min_eigenvalues is min_eigs

    def test_runs_compute_no_eigenvalues(self, monkeypatch, rng):
        rho0 = random_state(rng, (2, 2, 2))
        generator = chain_generator()  # its rate check reads eigenvalues

        def refused(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        for traj in (
            simulate(chain_collisions(150), rho0),
            integrate(generator, rho0, t_end=0.3, dt=2e-3),
        ):
            reduced_trajectory(traj, keep=[2])

    def test_step_zero_is_recorded_like_every_sample(self, rng):
        rho0 = random_state(rng, (2, 2, 2))
        # both engines record step 0 through their real coordinates, which
        # make every sample exactly Hermitian
        for traj in (
            simulate(chain_collisions(3), rho0),
            integrate(chain_generator(), rho0, t_end=0.01, dt=1e-3),
        ):
            assert traj.steps[0] == 0 and traj.times[0] == 0.0
            assert np.array_equal(traj.samples.batches[0][0], _real_coordinates(rho0.entries))
            assert np.max(np.abs(traj.states[0] - rho0.entries)) <= 1e-15
            assert np.array_equal(traj.states[0], traj.states[0].conj().T)
            assert not traj.states[0].flags.writeable
            assert traj.states[0].base is traj.states[-1].base

    def test_final_state_is_the_last_row(self, long_run):
        final = long_run.final_state()
        assert isinstance(final, DensityMatrix)
        assert final.dims == (2, 2, 2)
        assert np.array_equal(final.entries, long_run.states[-1])

    def test_no_density_matrix_per_sample(self, monkeypatch, rng):
        rho0 = random_state(rng, (2, 2, 2))
        post_init, calls = DensityMatrix.__post_init__, [0]

        def counted(self):
            calls[0] += 1
            post_init(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        traj = integrate(chain_generator(), rho0, t_end=0.4, dt=2e-3)
        assert len(traj) == 201
        assert calls[0] == 0
        simulate(chain_collisions(200), rho0)
        assert calls[0] == 0
        traj.final_state()
        assert calls[0] == 1


class TestStepsAndTimes:
    """The step is the one record of when a sample was taken: the recorder
    keeps int64 steps, and every time is step * dt, computed once."""

    def test_times_are_steps_times_dt_bit_for_bit(self, rng):
        rho0 = random_state(rng, (2, 2, 2))
        for traj in (
            simulate(chain_collisions(150), rho0, record_stride=7),
            integrate(chain_generator(), rho0, t_end=0.3, dt=2e-3, record_stride=7),
        ):
            dt = traj.metadata["dt"]
            red = reduced_trajectory(traj, keep=[2])
            assert red.metadata["dt"] == dt
            assert traj.steps.tolist() == red.steps.tolist() == [*range(0, 150, 7), 150]
            for t in (traj, red):
                assert t.steps.dtype == np.int64 and t.times.dtype == np.float64
                want = np.array([step * dt for step in t.steps.tolist()])
                assert np.array_equal(t.times.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("at", [0, 5, SAMPLE_BATCH + 3])
    def test_poisoned_sample_names_its_step_and_time(self, at):
        dt = 0.3
        rows = np.tile(_real_coordinates(np.eye(2) / 2), (2 * SAMPLE_BATCH, 1))
        rows[at, 0] = np.nan
        steps = np.arange(7, 7 + 3 * len(rows), 3)
        recorder = SampleRecorder((2,), dt)
        with pytest.raises(RuntimeError) as info:
            recorder.record(steps, rows)
        step = int(steps[at])
        assert str(info.value).startswith(f"state invariants violated at step {step}, t={step * dt:.6g}: ")

    def test_stride_one_run_peaks_below_250_bytes_per_sample(self):
        # 20,000 collisions of a two-qubit chain keep 128 B of rows and
        # 8 B of step per sample while recording, and no Python number
        sc = load_scenario({"scenario": "ad-chain-2q", "n_collisions": 20000})
        tracemalloc.start()
        try:
            traj = run_simulate(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 20001
        assert peak <= 250 * len(traj)


    def test_csv_run_peaks_below_300_bytes_per_sample(self, tmp_path):
        # simulate --out converts each column to Python numbers one
        # CSV_CHUNK_ROWS slice at a time, never whole
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"scenario": "ad-chain-2q", "n_collisions": 200000}))
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (tmp_path / "out" / "trajectory.csv").read_text().count("\n")
        assert rows == 200002
        assert peak <= 300 * (rows - 1)

class TestReducedTrajectory:
    def test_matches_per_sample_partial_trace(self, long_run, monkeypatch):
        traj = long_run
        assert len(traj) > SAMPLE_BATCH
        check, calls = qcollide.trajectory.check_states, []

        def counted(stack, atol, scratch=None):
            calls.append(len(stack))
            return check(stack, atol, scratch)

        monkeypatch.setattr(qcollide.trajectory, "check_states", counted)
        red = reduced_trajectory(traj, keep=[1, 3])
        assert calls == [len(b) for b in traj.samples.batches]  # one check per batch
        assert red.dims == (2, 2)
        assert red.metadata["reduced_to"] == [1, 3]
        assert np.array_equal(red.steps, traj.steps) and np.array_equal(red.times, traj.times)
        want_rows = traced_rows(np.concatenate(traj.samples.batches), traj.dims, [0, 2])
        assert np.array_equal(np.concatenate(red.samples.batches), want_rows)
        for state, r in zip(traj.states, red.states, strict=True):
            want = partial_trace(Operator(traj.dims, state), [0, 2]).entries
            assert np.max(np.abs(r - want)) <= 1e-15
            assert not r.flags.writeable and r.base is red.states[0].base
        assert np.array_equal(red.traces, [complex(np.trace(x)).real for x in red.states])
        assert "min_eigenvalues" not in vars(red)
        assert np.array_equal(red.min_eigenvalues, [np.linalg.eigvalsh(x)[0] for x in red.states])

    def test_invalid_reduced_sample_names_its_step(self, rng):
        traj = simulate(chain_collisions(3), random_state(rng, (2, 2, 2)))
        bad = traj.samples.batches[0].copy()
        bad[2, 0] += 1e-3  # S[0, 0] of sample 2: its trace grows
        bad.setflags(write=False)
        traj.samples.batches[0] = bad
        with pytest.raises(RuntimeError, match="at step 2, t=0.1: trace"):
            reduced_trajectory(traj, keep=[2])

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(2, 3), min_size=2, max_size=3).map(tuple),
        engine=st.sampled_from(["simulate", "integrate"]),
        steps=st.integers(SAMPLE_BATCH + 1, 2 * SAMPLE_BATCH + 10),
        data=st.data(),
    )
    def test_reduced_rows_are_the_partial_trace_of_real_coordinates(self, seed, dims, engine, steps, data):
        # runs of more than one batch on 2-3 carriers of dimension 2-3,
        # reduced to any nonempty subset of carriers, all of them included
        keep = data.draw(st.lists(st.integers(1, len(dims)), min_size=1, max_size=len(dims), unique=True))
        rng = np.random.default_rng(seed)
        spec = CouplingSpec.uniform([[random_hermitian(rng, (d,))] for d in dims], [SX])
        rho0 = random_state(rng, dims)
        if engine == "simulate":
            cfg = CollisionConfig(carrier_dims=dims, env_dim=2, g=1.0, dt=0.05, n_collisions=steps,
                                  eta=GROUND, channel=DAMPING, couplings=spec)
            traj = simulate(cfg, rho0)
        else:
            gen = full_generator(spec, GROUND, DAMPING, 1.0, dims).total
            traj = integrate(gen, rho0, t_end=steps * 2e-3, dt=2e-3)
        assert len(traj) == steps + 1 > SAMPLE_BATCH
        check, calls = qcollide.trajectory.check_states, []

        def counted(stack, atol, scratch=None):
            calls.append(len(stack))
            return check(stack, atol, scratch)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcollide.trajectory, "check_states", counted)
            red = reduced_trajectory(traj, keep=keep)
        keep0 = sorted(m - 1 for m in keep)
        dk = math.prod(dims[i] for i in keep0)
        assert red.dims == tuple(dims[i] for i in keep0)
        # one check per batch, and the traces are the check's
        assert calls == [len(b) for b in traj.samples.batches]
        traces = [check_states(_hermitian(b, dk), SAMPLE_ATOL) for b in red.samples.batches]
        assert np.array_equal(red.traces, np.concatenate(traces))
        # float64 (b, d^2) rows, batch for batch, bit for bit the partial
        # trace of each sample's real coordinate matrix
        assert [len(b) for b in red.samples.batches] == [len(b) for b in traj.samples.batches]
        for b in red.samples.batches:
            assert b.dtype == np.float64 and b.shape[1:] == (dk * dk,) and not b.flags.writeable
        rows = np.concatenate(red.samples.batches)
        assert np.array_equal(rows, traced_rows(np.concatenate(traj.samples.batches), dims, keep0))
        # and within 1e-15 of the complex partial trace of each state
        for state, r in zip(traj.states, red.states, strict=True):
            want = partial_trace(Operator(traj.dims, state), keep0).entries
            assert np.max(np.abs(r - want)) <= 1e-15


class TestObservableNames:
    """Library runs take the names a config document may give: each heads
    the two CSV columns <name>_re and <name>_im."""

    P0, P1 = (Operator((2,), np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0]))

    @staticmethod
    def run(engine, names):
        if engine == "simulate":
            cfg = CollisionConfig(carrier_dims=(2,), env_dim=2, g=1.0, dt=0.1, n_collisions=3,
                                  eta=GROUND, channel=DAMPING, couplings=CouplingSpec.uniform([[SX]], [SX]))
            return simulate(cfg, GROUND, observables=[TestObservableNames.P0, TestObservableNames.P1],
                            observable_names=names)
        gen = full_generator(CouplingSpec.uniform([[SX]], [SX]), GROUND, DAMPING, 1.0, (2,)).total
        return integrate(gen, GROUND, t_end=0.3, dt=0.1, observables=[TestObservableNames.P0, TestObservableNames.P1],
                         observable_names=names)

    @pytest.mark.parametrize("engine", ["simulate", "integrate"])
    @pytest.mark.parametrize(
        "names, message",
        [
            (["a,b", "a,b"], "without commas"),
            (["p0", 'say "x"'], "double quotes"),
            (["p0", "p\r1"], "line breaks"),
            (["p\n0", "p1"], "line breaks"),
            (["", "p1"], "nonempty string"),
            ([0, "p1"], "got 0"),
            (["p", "p"], "duplicate observable name 'p'"),
        ],
    )
    def test_bad_name_rejected(self, engine, names, message):
        with pytest.raises(ValueError, match=message):
            self.run(engine, names)

    @pytest.mark.parametrize("engine", ["simulate", "integrate"])
    def test_header_has_two_fields_per_observable(self, engine, tmp_path):
        self.run(engine, ["p 0", "p1"]).to_csv(tmp_path / "t.csv")
        header, row = (tmp_path / "t.csv").read_text().splitlines()[:2]
        assert header == "step,t,p 0_re,p 0_im,p1_re,p1_im,trace,min_eigenvalue"
        assert len(row.split(",")) == 8


class TestObservableValues:
    """Each observable is read per batch; its values equal the single-state
    einsum "ij,ji->" on every sample, to the last bit."""

    STEPS = 470  # stride 7 still records more than one batch

    def run(self, route, rho0, observables, stride):
        cfg = chain_collisions(self.STEPS)
        if route == "simulate-direct":  # a local schedule takes the per-collision column
            local = (HamiltonianSchedule.constant(Operator((2,), 0.7 * pauli("z").entries)), None, None)
            cfg = dataclasses.replace(cfg, local_hamiltonians=local)
        if route.startswith("simulate"):
            return simulate(cfg, rho0, observables, record_stride=stride)
        t_end = self.STEPS * 2e-3
        return integrate(chain_generator(), rho0, t_end=t_end, dt=2e-3, observables=observables, record_stride=stride)

    @pytest.mark.parametrize("route", ["simulate-map", "simulate-direct", "integrate"])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_values_equal_the_single_state_einsum(self, rng, route, stride, count):
        raw = [rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) for _ in range(count)]
        # Hermitian and non-Hermitian observables alternate
        ops = [Operator((2, 2, 2), m + m.conj().T if j % 2 == 0 else m) for j, m in enumerate(raw)]
        traj = self.run(route, random_state(rng, (2, 2, 2)), ops, stride)
        assert len(traj) > SAMPLE_BATCH
        want = np.array([[np.einsum("ij,ji->", op.entries, x) for op in ops] for x in traj.states])
        assert traj.observable_values.tobytes() == want.tobytes()
