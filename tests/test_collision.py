import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_cpt_channel, random_hermitian, random_state, random_unitary
from qcollide.channels import (
    DensityMatrix,
    KrausChannel,
    identity_channel,
    lossy_bosonic_channel,
    replacer_channel,
    unitary_channel,
)
import qcollide.collision
from qcollide.collision import (
    COLUMN_MAP_MAX_ENTRIES,
    CollisionConfig,
    CouplingSpec,
    HamiltonianSchedule,
    check_assumption,
    collision_unitary,
    evolve_column_step,
    evolve_row,
    frame_propagator,
    interaction_frame_couplings,
    simulate,
    _column,
    _column_phi,
    _column_phi_entries,
    _collision_forms,
)
from qcollide.integrator import _real_map, _sectors
from qcollide.ops import Operator, SandwichForm, expm_hermitian, kron, partial_trace, pauli, projector, trace_out, vec
from qcollide.scenarios import BUILTIN_NAMES, collision_config, load_scenario, run_verify

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
GROUND = DensityMatrix.ground(2)


def qubit_config(n_collisions=10, g=1.0, dt=0.1, channel=None, couplings=None, m_carriers=1, **kw):
    if couplings is None:
        couplings = CouplingSpec.uniform([[SX]] * m_carriers, [SX])
    return CollisionConfig(
        carrier_dims=(2,) * m_carriers,
        env_dim=2,
        g=g,
        dt=dt,
        n_collisions=n_collisions,
        eta=GROUND,
        channel=channel or identity_channel(2),
        couplings=couplings,
        **kw,
    )


def lossy_env_config(dims, de, n_collisions=3):
    """Carriers coupled through x (x) x to one lossy bosonic mode of de levels."""

    def x(d):
        return Operator((d,), np.diag(np.sqrt(np.arange(1, d)), 1) + np.diag(np.sqrt(np.arange(1, d)), -1))

    return CollisionConfig(
        carrier_dims=dims, env_dim=de, g=1.0, dt=0.1, n_collisions=n_collisions,
        eta=DensityMatrix.ground(de), channel=lossy_bosonic_channel(de, 0.3),
        couplings=CouplingSpec.uniform([[x(d)] for d in dims], [x(de)]),
    )


class TestCouplingSpec:
    def test_rejects_non_hermitian(self):
        bad = Operator((2,), np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            CouplingSpec.uniform([[bad]], [SX])

    def test_rejects_zero_operator(self):
        zero = Operator((2,), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero"):
            CouplingSpec.uniform([[SX]], [zero])

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="counts"):
            CouplingSpec(system_ops=((SX, SY),), env_ops=((SX,),))

    def test_shared_env_needs_equal_lists(self):
        # a shared spec is checked on carrier 1's list only, so carrier 2's
        # nonzero-mean SZ would pass the assumption check unseen
        with pytest.raises(ValueError, match="carrier 2 environment operators differ"):
            CouplingSpec(((SX,), (SX,)), ((SX,), (SZ,)))
        with pytest.raises(ValueError, match="carrier 2 environment operators differ"):
            CouplingSpec(((SX,), (SX, SY)), ((SX,), (SX, SY)))
        per_carrier = CouplingSpec(((SX,), (SX,)), ((SX,), (SZ,)), env_shared=False)
        report = check_assumption(qubit_config(couplings=per_carrier, m_carriers=2), m_max=2)
        assert not report.passed and report.max_violation == pytest.approx(1.0)

    def test_shared_env_compares_by_value(self):
        copy = Operator((2,), np.array(SX.entries))
        spec = CouplingSpec(((SX,), (SY,)), ((SX,), (copy,)))
        assert spec.env_shared

    @pytest.mark.parametrize(
        "entry, message",
        [
            (Operator((2,), np.array([[0, 1], [0, 0]])), "collision 2 carrier 1 system operator is not Hermitian"),
            (Operator((2,), np.zeros((2, 2))), "collision 2 carrier 1 system operator is identically zero"),
            (Operator((3,), np.eye(3)), "collision 2 carrier 1 system operator side 3 does not match dimension 2"),
        ],
        ids=["non-hermitian", "zero", "wrong-side"],
    )
    def test_collision_indexed_rows_are_checked(self, entry, message):
        table = (((SX,), (SY,)), ((entry,), (SY,)))
        with pytest.raises(ValueError, match=message):
            CouplingSpec(((SX,), (SY,)), ((SX,), (SX,)), collision_system_ops=table)

    def test_short_collision_table_rejected(self):
        # six tabulated collisions cannot drive ten
        table = tuple(((SY,),) for _ in range(6))
        spec = CouplingSpec(((SX,),), ((SX,),), collision_system_ops=table)
        message = "collision-indexed couplings tabulate 6 collisions, fewer than n_collisions = 10"
        with pytest.raises(ValueError, match=message):
            qubit_config(n_collisions=10, couplings=spec)
        cfg = qubit_config(n_collisions=6, couplings=spec)
        assert len(simulate(cfg, GROUND)) == 7
        with pytest.raises(ValueError, match=message):
            replace(cfg, n_collisions=10)

    @pytest.mark.parametrize(
        "field, value",
        [("g", math.nan), ("g", math.inf), ("g", -1.0), ("dt", math.nan), ("dt", math.inf), ("dt", -math.inf), ("dt", 0.0)],
    )
    def test_g_and_dt_must_be_finite(self, field, value):
        # NaN fails every comparison, so a bare dt <= 0 or g < 0 lets it in
        message = {"g": "coupling strength g must be nonnegative and finite", "dt": "collision duration dt must be positive and finite"}
        with pytest.raises(ValueError, match=message[field]):
            replace(qubit_config(), **{field: value})

    def test_at_resolves_one_collision(self):
        table = (((SY,),), ((SZ,),))
        spec = CouplingSpec(((SX,),), ((SX,),), collision_system_ops=table)
        assert spec.at(2).a_ops(1) == (SZ,) and spec.at(2).collision_system_ops is None
        plain = spec.at(1)
        assert plain.at(5) is plain
        with pytest.raises(ValueError, match="outside tabulated range"):
            spec.at(3)
        with pytest.raises(ValueError, match=r"\.at\(n\)"):
            spec.a_ops(1)


class TestCollisionUnitary:
    def test_zero_coupling_gives_identity(self):
        cfg = qubit_config(g=0.0)
        u = collision_unitary(cfg, 1)
        assert np.allclose(u.entries, np.eye(4))

    def test_sx_sx_half_pi(self):
        # (sx x sx)^2 = I, so exp(-i u sx x sx) = cos(u) - i sin(u) sx x sx
        cfg = qubit_config(g=1.0, dt=np.pi / 2)
        u = collision_unitary(cfg, 1)
        want = -1j * kron(SX, SX).entries
        assert np.allclose(u.entries, want, atol=1e-14)

    def test_random_two_term_unitarity(self, rng):
        spec = CouplingSpec.uniform(
            [[random_hermitian(rng, (2,)), random_hermitian(rng, (2,))]],
            [random_hermitian(rng, (2,)), random_hermitian(rng, (2,))],
        )
        cfg = qubit_config(couplings=spec, g=1.3, dt=0.7)
        u = collision_unitary(cfg, 1)
        assert np.max(np.abs(u.entries @ u.entries.conj().T - np.eye(4))) <= 1e-12


class TestCheckAssumption:
    def test_sx_ground_identity_channel(self):
        report = check_assumption(qubit_config(), m_max=6)
        assert report.passed and report.max_violation == 0.0

    def test_sz_fails_with_value_one(self):
        spec = CouplingSpec.uniform([[SZ]], [SZ])
        report = check_assumption(qubit_config(couplings=spec), m_max=3)
        assert not report.passed
        assert abs(report.max_violation - 1.0) < 1e-14

    def test_sx_with_damping(self):
        cfg = qubit_config(channel=lossy_bosonic_channel(2, 0.25))
        report = check_assumption(cfg, m_max=8)
        # oracle: direct traces along the orbit
        sigma = GROUND.entries
        for _ in range(9):
            assert abs(np.trace(SX.entries @ sigma)) <= 1e-14
            sigma = sum(
                k.entries @ sigma @ k.entries.conj().T for k in cfg.channel.kraus
            )
        assert report.passed

    def test_report_dict(self):
        d = check_assumption(qubit_config(), m_max=2).to_dict()
        assert d["passed"] and len(d["entries"]) == 3

    @pytest.mark.parametrize("shared", [True, False], ids=["uniform", "per-carrier"])
    def test_entries_follow_the_orbit(self, rng, shared):
        # oracle: |tr(B M^k(eta))| from powers of the superoperator matrix, on a
        # random channel and an eta that is not its fixed point; uniform points
        # are the powers k = 0..m_max, per-carrier points the carriers m at k = m - 1
        chan = random_cpt_channel(rng, 2)
        b = [random_hermitian(rng, (2,)) for _ in range(3)]
        env = ((b[0], b[1]),) * 3 if shared else tuple((b[m], b[(m + 1) % 3]) for m in range(3))
        spec = CouplingSpec(((SX, SY),) * 3, env, env_shared=shared)
        cfg = replace(qubit_config(channel=chan, m_carriers=3, couplings=spec), eta=random_state(rng, (2,)))
        report = check_assumption(cfg, m_max=4)
        labels = [0, 1, 2, 3, 4] if shared else [1, 2, 3]
        assert [label for label, _, _ in report.entries] == [x for x in labels for _ in range(2)]
        for label, l, value in report.entries:
            k, m = (label, 1) if shared else (label - 1, label)
            sigma = (np.linalg.matrix_power(chan.form.matrix(), k) @ vec(cfg.eta.entries)).reshape(2, 2).T
            assert abs(value - abs(np.trace(spec.b_ops(m)[l].entries @ sigma))) <= 1e-12


    @pytest.mark.parametrize("shared, applications", [(True, 4), (False, 2)], ids=["uniform", "per-carrier"])
    def test_applies_the_channel_once_per_point_after_the_first(self, monkeypatch, rng, shared, applications):
        # m_max = 4 reads M^0..M^4 (uniform) or, on three carriers, M^0..M^2
        b = [random_hermitian(rng, (2,)) for _ in range(3)]
        env = ((b[0],),) * 3 if shared else tuple((b[m],) for m in range(3))
        spec = CouplingSpec(((SX,),) * 3, env, env_shared=shared)
        cfg = qubit_config(channel=random_cpt_channel(rng, 2), m_carriers=3, couplings=spec)
        apply, calls = SandwichForm.apply, [0]

        def counted(form, x):
            calls[0] += 1
            return apply(form, x)

        monkeypatch.setattr(SandwichForm, "apply", counted)
        check_assumption(cfg, m_max=4)
        assert calls[0] == applications


class TestColumnStep:
    def test_zero_coupling_returns_input(self, rng):
        cfg = qubit_config(g=0.0, channel=random_cpt_channel(rng, 2))
        rho = random_state(rng, (2,))
        joint = DensityMatrix.from_matrix(np.kron(rho.entries, GROUND.entries), (2, 2))
        out = evolve_column_step(joint, cfg)
        assert np.max(np.abs(out.entries - rho.entries)) <= 1e-12

    def test_single_collision_dephasing(self):
        cfg = qubit_config(g=0.9, dt=0.4)
        joint = DensityMatrix.from_matrix(np.kron(GROUND.entries, GROUND.entries), (2, 2))
        out = evolve_column_step(joint, cfg)
        # oracle: explicit 4x4 conjugation + partial trace
        u = expm_hermitian(kron(SX, SX), cfg.g * cfg.dt).entries
        conj = u @ np.kron(GROUND.entries, GROUND.entries) @ u.conj().T
        want = partial_trace(Operator((2, 2), conj), keep=[0]).entries
        assert np.allclose(out.entries, want, atol=1e-14)
        gdt = cfg.g * cfg.dt
        assert np.allclose(out.entries, np.diag([np.cos(gdt) ** 2, np.sin(gdt) ** 2]))

    def test_output_is_valid_state(self, rng):
        for _ in range(5):
            spec = CouplingSpec.uniform(
                [[random_hermitian(rng, (2,))], [random_hermitian(rng, (2,))]],
                [random_hermitian(rng, (2,))],
            )
            cfg = qubit_config(couplings=spec, m_carriers=2, channel=random_cpt_channel(rng, 2))
            rho = random_state(rng, (2, 2))
            joint = DensityMatrix.from_matrix(np.kron(rho.entries, GROUND.entries), (2, 2, 2))
            out = evolve_column_step(joint, cfg)
            assert abs(out.op.trace() - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.entries)[0] >= -1e-9

    def test_rejects_wrong_dims(self):
        cfg = qubit_config()
        joint = DensityMatrix.maximally_mixed((2, 2, 2))
        with pytest.raises(ValueError, match="dims"):
            evolve_column_step(joint, cfg)


class TestSimulate:
    def test_zero_collisions_single_sample(self, rng):
        cfg = qubit_config(n_collisions=0)
        rho = random_state(rng, (2,))
        traj = simulate(cfg, rho)
        assert len(traj) == 1
        assert np.allclose(traj.final_state().entries, rho.entries)

    def test_dephasing_against_closed_form(self):
        gamma, t = 1.0, 0.5
        n = 100
        dt = t / n
        cfg = qubit_config(n_collisions=n, g=math.sqrt(gamma / dt), dt=dt)
        traj = simulate(cfg, GROUND, observables=[projector(2, 0)], observable_names=["p0"])
        got = traj.expectations("p0")[-1].real
        want = (1 + math.exp(-2 * gamma * t)) / 2
        assert abs(got - want) < 1e-2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_aborts(self, monkeypatch, bad):
        # map route: collisions 70..100 run a poisoned copy of the map, so the
        # coordinates after collision 70 are the first non-finite ones, past
        # the first batch; both segments run a block at a time
        propagate, built = qcollide.collision._propagate, [0]
        column_phi = qcollide.collision._column_phi

        def counted_phi(cfg):
            built[0] += 1
            return column_phi(cfg)

        def poisoned(rho0, dt, record_stride, segments):
            [(n, phi)] = segments
            assert n >= len(phi)
            bad_phi = phi.copy()
            bad_phi[3, 3] = bad  # S[1, 1] <- S[1, 1]
            return propagate(rho0, dt, record_stride, [(69, phi), (n - 69, bad_phi)])

        monkeypatch.setattr(qcollide.collision, "_column_phi", counted_phi)
        monkeypatch.setattr(qcollide.collision, "_propagate", poisoned)
        # the run goes on past collision 70 until its batch is checked, and
        # inf * 0 in the later collisions is NaN
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="at step 70, t=7: density matrix has a non-finite entry"):
                simulate(qubit_config(n_collisions=100), GROUND)
        assert built[0] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_aborts_direct_column(self, monkeypatch, bad):
        # a local schedule keeps the direct column: poison its traced state
        calls = [0]

        def poisoned(arr, dims, keep):
            kept, out = trace_out(arr, dims, keep)
            calls[0] += 1
            if calls[0] == 70:
                out = out.copy()
                out[1, 1] = bad
            return kept, out

        monkeypatch.setattr(qcollide.collision, "trace_out", poisoned)
        sched = HamiltonianSchedule.constant(Operator((2,), 0.4 * SZ.entries))
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="at step 70, t=7: density matrix has a non-finite entry"):
                simulate(qubit_config(n_collisions=100, local_hamiltonians=(sched,)), GROUND)

    def test_replacer_keeps_carriers_product(self, rng):
        eta = GROUND
        spec = CouplingSpec.uniform([[SX], [SY]], [SX])
        cfg = CollisionConfig(
            carrier_dims=(2, 2),
            env_dim=2,
            g=1.2,
            dt=0.15,
            n_collisions=20,
            eta=eta,
            channel=replacer_channel(eta),
            couplings=spec,
        )
        rho1 = random_state(rng, (2,))
        rho2 = random_state(rng, (2,))
        rho0 = DensityMatrix.from_matrix(np.kron(rho1.entries, rho2.entries), (2, 2))
        traj = simulate(cfg, rho0)
        final = traj.final_state()
        red1 = partial_trace(final.op, keep=[0]).entries
        red2 = partial_trace(final.op, keep=[1]).entries
        assert np.max(np.abs(final.entries - np.kron(red1, red2))) <= 1e-10

    def test_replacer_matches_independent_runs(self, rng):
        # with the environment reset after every collision the carriers evolve independently
        eta = GROUND
        chan = replacer_channel(eta)
        spec2 = CouplingSpec.uniform([[SX], [SY]], [SX])
        cfg2 = CollisionConfig(
            carrier_dims=(2, 2), env_dim=2, g=0.8, dt=0.2, n_collisions=15,
            eta=eta, channel=chan, couplings=spec2,
        )
        rho1 = random_state(rng, (2,))
        rho2 = random_state(rng, (2,))
        rho0 = DensityMatrix.from_matrix(np.kron(rho1.entries, rho2.entries), (2, 2))
        joint_final = simulate(cfg2, rho0).final_state()

        def single(op, rho):
            spec1 = CouplingSpec.uniform([[op]], [SX])
            cfg1 = CollisionConfig(
                carrier_dims=(2,), env_dim=2, g=0.8, dt=0.2, n_collisions=15,
                eta=eta, channel=chan, couplings=spec1,
            )
            return simulate(cfg1, rho).final_state().entries

        want = np.kron(single(SX, rho1), single(SY, rho2))
        assert np.max(np.abs(joint_final.entries - want)) <= 1e-10

    def test_trace_and_positivity_along_run(self, rng):
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        cfg = qubit_config(couplings=spec, m_carriers=2, n_collisions=40,
                           channel=lossy_bosonic_channel(2, 0.5))
        traj = simulate(cfg, random_state(rng, (2, 2)))
        assert np.max(np.abs(traj.traces - 1.0)) <= 1e-10
        assert traj.min_eigenvalues.min() >= -1e-9

    def test_carrier_one_never_sees_later_carriers(self, rng):
        # discrete semicausality: the reduced state of carrier 1 is the same
        # whether carrier 2 exists, and whatever carrier 2's coupling is
        chan = lossy_bosonic_channel(2, 0.3)
        rho1 = random_state(rng, (2,))
        rho2 = random_state(rng, (2,))
        rho0 = DensityMatrix.from_matrix(np.kron(rho1.entries, rho2.entries), (2, 2))

        def reduced_first(second_op):
            spec = CouplingSpec.uniform([[SX], [second_op]], [SX])
            cfg = qubit_config(couplings=spec, m_carriers=2, n_collisions=12, channel=chan)
            final = simulate(cfg, rho0).final_state()
            return partial_trace(final.op, keep=[0]).entries

        alone = simulate(
            qubit_config(n_collisions=12, channel=chan), rho1
        ).final_state().entries
        for op in (SY, SZ, 0.5 * SX):
            assert np.max(np.abs(reduced_first(op) - alone)) <= 1e-11

    def test_recording_stride(self):
        cfg = qubit_config(n_collisions=10)
        traj = simulate(cfg, GROUND, record_stride=4)
        assert list(traj.steps) == [0, 4, 8, 10]
        assert np.allclose(traj.times, [0.0, 0.4, 0.8, 1.0])


class TestColumnMap:
    CHANNELS = ("lossy", "unitary", "replacer", "kraus")

    @staticmethod
    def channel(rng, kind, de):
        if kind == "lossy":
            return lossy_bosonic_channel(de, 0.3)
        if kind == "unitary":
            return unitary_channel(Operator((de,), random_unitary(rng, de)))
        if kind == "replacer":
            return replacer_channel(random_state(rng, (de,)))
        if kind == "leaky":  # not trace-preserving: sum_k K_k^dag K_k = 0.81
            return KrausChannel(tuple(Operator((de,), 0.9 * k.entries) for k in random_cpt_channel(rng, de).kraus))
        return random_cpt_channel(rng, de)

    @pytest.mark.parametrize("env_shared", [True, False])
    @pytest.mark.parametrize("de", [2, 3])
    @pytest.mark.parametrize("dims", [(2,), (2, 3), (2, 3, 2)])
    def test_matches_direct_column(self, rng, dims, de, env_shared):
        # the materialized map against one direct column on random
        # couplings, channels and states: the index order is the risk
        for kind in self.CHANNELS:
            n_terms = int(rng.integers(1, 3))
            system = [[random_hermitian(rng, (d,)) for _ in range(n_terms)] for d in dims]
            if env_shared:
                spec = CouplingSpec.uniform(system, [random_hermitian(rng, (de,)) for _ in range(n_terms)])
            else:
                env = [[random_hermitian(rng, (de,)) for _ in range(n_terms)] for _ in dims]
                spec = CouplingSpec(system, env, env_shared=False)
            cfg = CollisionConfig(
                carrier_dims=dims, env_dim=de, g=1.3, dt=0.4, n_collisions=1,
                eta=random_state(rng, (de,)), channel=self.channel(rng, kind, de), couplings=spec,
            )
            rho = random_state(rng, dims).entries
            joint = np.kron(rho, cfg.eta.entries)
            _, direct = trace_out(_column(joint, cfg, _collision_forms(cfg)), cfg.joint_dims, range(len(dims)))
            phi = _column_phi(cfg).reshape(rho.size, rho.size)
            assert np.max(np.abs(phi @ vec(rho) - vec(direct))) <= 1e-12, kind

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tuple),
        de=st.sampled_from([2, 3]),
        env_shared=st.booleans(),
        kind=st.sampled_from(CHANNELS + ("leaky",)),
        rank=st.integers(1, 3),
        negative=st.booleans(),
    )
    @example(seed=1, dims=(2, 3), de=3, env_shared=False, kind="kraus", rank=2, negative=True)
    @example(seed=2, dims=(2, 2), de=2, env_shared=True, kind="leaky", rank=1, negative=False)
    # 3 kets times a mixed replacer's 9 Kraus operators outgrow the 12 entries
    # of a ket after the first carrier: the kets pass through their Choi matrix
    @example(seed=3, dims=(2, 2, 2), de=3, env_shared=False, kind="replacer", rank=3, negative=True)
    def test_kraus_form_matches_direct_column(self, seed, dims, de, env_shared, kind, rank, negative):
        # eta = diag(w) with rank(eta) nonzero weights at random places, and
        # with `negative` one weight of -1e-11 (DensityMatrix accepts it):
        # the signed weights keep the map linear in eta, so the Kraus form
        # is the direct column on rho (x) eta whatever eta's spectrum; a
        # leaky relaxation enters the last carrier's trace through
        # sum_k K_k^dag K_k
        rng = np.random.default_rng(seed)
        rank = min(rank, de)
        w = np.zeros(de)
        w[:rank] = rng.dirichlet(np.ones(rank))
        if negative and rank < de:
            w[rank], w[0], rank = -1e-11, w[0] + 1e-11, rank + 1
        eta = DensityMatrix.from_matrix(np.diag(rng.permutation(w)), (de,))
        system = [[random_hermitian(rng, (d,))] for d in dims]
        env = [[random_hermitian(rng, (de,))] for _ in (dims[:1] if env_shared else dims)]
        spec = CouplingSpec(system, env * len(dims) if env_shared else env, env_shared=env_shared)
        channel = self.channel(rng, kind, de)
        cfg = CollisionConfig(
            carrier_dims=dims, env_dim=de, g=1.1, dt=0.5, n_collisions=1, eta=eta, channel=channel, couplings=spec,
        )
        side = math.prod(dims)
        phi = _column_phi(cfg).reshape(side * side, side * side)
        forms = _collision_forms(cfg)
        for x in (random_state(rng, dims).entries, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))):
            _, direct = trace_out(_column(np.kron(x, eta.entries), cfg, forms), cfg.joint_dims, range(len(dims)))
            assert np.max(np.abs(phi @ vec(x) - vec(direct))) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_trajectories_match_direct_column(self, monkeypatch, name):
        sc = load_scenario(name)
        cfg = collision_config(sc, 200)
        mapped = simulate(cfg, sc.rho0)
        monkeypatch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 0)
        direct = simulate(cfg, sc.rho0)
        assert len(mapped) == len(direct) == 201
        assert np.max(np.abs(np.array(mapped.states) - np.array(direct.states))) <= 1e-12

    def test_mode_rule(self, monkeypatch):
        built = [0]
        column_phi = qcollide.collision._column_phi

        def counted(cfg):
            built[0] += 1
            return column_phi(cfg)

        def uses_map(cfg):
            before = built[0]
            simulate(cfg, DensityMatrix.maximally_mixed(cfg.carrier_dims))
            return built[0] - before == 1

        monkeypatch.setattr(qcollide.collision, "_column_phi", counted)
        # the 3-carrier qutrit chain (largest build array: the map, 27^4
        # entries) takes the map, its d = 4 version (64^4) does not
        assert 27**4 <= COLUMN_MAP_MAX_ENTRIES < 64**4
        cfg = qubit_config(m_carriers=2, n_collisions=3)
        assert _column_phi_entries(cfg) == 4**4
        assert uses_map(cfg)
        sched = HamiltonianSchedule.constant(Operator((2,), 0.4 * SZ.entries))
        scheduled = qubit_config(m_carriers=2, n_collisions=3, local_hamiltonians=(sched, None))
        assert not uses_map(scheduled)
        indexed = qubit_config(m_carriers=2, n_collisions=3, couplings=interaction_frame_couplings(scheduled))
        assert not uses_map(indexed)
        monkeypatch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 4**4 - 1)
        assert not uses_map(cfg)
        monkeypatch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 4**4)
        assert uses_map(cfg)
        # the environment counts too: two qubits on a d_e = 32 site build a
        # Choi matrix of 2^4 * 32^2 entries before the last carrier, four
        # times their 4^4-entry map
        wide = lossy_env_config((2, 2), 32)
        assert _column_phi_entries(wide) == 2**4 * 32**2
        monkeypatch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 2**4 * 32**2 - 1)
        assert not uses_map(wide)
        monkeypatch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 2**4 * 32**2)
        assert uses_map(wide)

    @pytest.mark.parametrize(
        "dims, de, eta, channel, entries",
        [
            ((2, 2), 48, "maximally-mixed", "lossy", 2**4 * 48**2),
            ((2, 2, 2, 2), 16, "ground", "lossy", 2**20),
            ((2, 2, 2), 8, "ground", "mixed-replacer", 4**4 * 8**2),
        ],
    )
    def test_mode_rule_ignores_eta_rank_and_kraus_count(self, monkeypatch, rng, dims, de, eta, channel, entries):
        # the Choi matrix of the carriers done bounds the kets kept, so the
        # rule counts neither eta's rank nor the A^(M-1) Kraus branches: a
        # maximally mixed eta, four carriers with d_e lossy Kraus operators
        # (the last at the budget) and a replacer with d_e^2 ones (whose
        # kets pass through their Choi matrix) take the map, and it agrees
        # with the direct column
        built = []
        monkeypatch.setattr(qcollide.collision, "_column_phi", lambda cfg: built.append(cfg) or _column_phi(cfg))
        cfg = lossy_env_config(dims, de, n_collisions=1)
        if eta == "maximally-mixed":
            cfg = replace(cfg, eta=DensityMatrix.maximally_mixed((de,)))
        if channel == "mixed-replacer":
            cfg = replace(cfg, channel=replacer_channel(DensityMatrix.maximally_mixed((de,))))
            assert len(cfg.channel.kraus) == de**2
        assert _column_phi_entries(cfg) == entries <= COLUMN_MAP_MAX_ENTRIES
        rho = random_state(rng, dims)
        mapped = simulate(cfg, rho)
        assert built == [cfg]
        monkeypatch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 0)
        direct = simulate(cfg, rho)
        assert np.max(np.abs(mapped.states[-1] - direct.states[-1])) <= 1e-12

    def test_choi_compression_keeps_the_sectors(self, rng):
        # 8 kets times 8 lossy Kraus operators outgrow the 32 entries of a
        # ket after the first carrier, so the kets pass through their Choi
        # matrix; its eigh, one per block of its nonzero pattern, keeps the
        # map's two charge sectors apart at every run length
        cfg = replace(lossy_env_config((2,) * 4, 8), eta=DensityMatrix.maximally_mixed((8,)))
        phi = _column_phi(cfg)
        assert [len(_sectors(_real_map(phi), n)) for n in (100, 1000, 10**6)] == [2, 2, 2]
        x = random_state(rng, cfg.carrier_dims).entries
        joint = _column(np.kron(x, cfg.eta.entries), cfg, _collision_forms(cfg))
        _, direct = trace_out(joint, cfg.joint_dims, range(cfg.n_carriers))
        assert np.max(np.abs(phi.reshape(x.size, x.size) @ vec(x) - vec(direct))) <= 1e-12

    @pytest.mark.parametrize(
        "dims, de, replacer",
        [((2, 2), 32, False), ((2, 2, 2), 8, False), ((3, 3, 3), 3, False), ((2, 2), 48, False), ((2,) * 4, 4, True)],
        ids=["dims0-32", "dims1-8", "dims2-3", "dims3-48", "dims4-4-replacer"],
    )
    def test_build_memory_follows_entry_count(self, dims, de, replacer):
        # no tensor of d_m^4 d_e^4 entries and no d_e^4 channel matrix: the
        # build holds a few arrays of at most `_column_phi_entries` at once
        # (the Choi matrix, its eigenvectors and kets, the next Choi matrix
        # and its terms, and the map), plus the collision unitaries and the
        # Kraus operators; a replacer's d_e^2 Kraus operators would branch
        # the kets past that after the first carriers, so they pass through
        # their Choi matrix there
        cfg = replace(lossy_env_config(dims, de), eta=DensityMatrix.maximally_mixed((de,)))
        if replacer:
            cfg = replace(cfg, channel=replacer_channel(DensityMatrix.maximally_mixed((de,))))
        tracemalloc.start()
        try:
            _column_phi(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * _column_phi_entries(cfg)

    def test_no_form_is_materialized(self, monkeypatch, rng):
        # on d_e = 8 and d_e = 48 sites both simulate routes, one column and
        # the row oracle apply every form (the collisions and the Kraus
        # relaxation) without its superoperator matrix: the relaxation's
        # factor matrix, d_e^4 entries, would be larger than one joint
        # matrix, D^2, so `on_factors` keeps the product route
        def refuse(form):
            raise AssertionError(f"SandwichForm.matrix called on dims {form.dims}")

        monkeypatch.setattr(SandwichForm, "matrix", refuse)
        for de in (8, 48):
            cfg = lossy_env_config((2, 2), de, n_collisions=4)
            assert de**4 > math.prod(cfg.joint_dims) ** 2
            rho = random_state(rng, cfg.carrier_dims)
            assert _column_phi_entries(cfg) <= COLUMN_MAP_MAX_ENTRIES
            mapped = simulate(cfg, rho)
            with monkeypatch.context() as patch:
                patch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 0)
                direct = simulate(cfg, rho)
            assert np.max(np.abs(np.array(mapped.states) - np.array(direct.states))) <= 1e-12
            joint = DensityMatrix.from_matrix(np.kron(rho.entries, cfg.eta.entries), cfg.joint_dims)
            column = evolve_column_step(joint, cfg)
            row = evolve_row(cfg, rho, 1)
            assert np.max(np.abs(row.entries - column.entries)) <= 1e-12

    def test_verify_builds_only_factor_matrices_within_one_state(self, monkeypatch):
        # verify on the largest builtin joint space materializes a form only
        # for `on_factors`' factor route, whose matrix has no more entries
        # than one joint matrix: the Kraus relaxation on the d_e = 4 site
        sides, matrix = [], SandwichForm.matrix

        def record(form):
            sides.append(form.side)
            return matrix(form)

        monkeypatch.setattr(SandwichForm, "matrix", record)
        sc = load_scenario("bosonic-fiber")
        assert run_verify(sc).passed
        joint_side = math.prod(sc.carrier_dims) * sc.channel.side
        assert sides and all(side**4 <= joint_side**2 for side in sides)

    def test_wide_environment_map_matches_direct_column(self, monkeypatch, rng):
        cfg = lossy_env_config((2, 2), 24, n_collisions=30)
        rho = random_state(rng, cfg.carrier_dims)
        mapped = simulate(cfg, rho)
        assert np.max(np.abs(mapped.states[-1] - rho.entries)) > 0.1
        monkeypatch.setattr(qcollide.collision, "COLUMN_MAP_MAX_ENTRIES", 0)
        direct = simulate(cfg, rho)
        assert np.max(np.abs(np.array(mapped.states) - np.array(direct.states))) <= 1e-12

    def test_long_run_trace_drift(self):
        # |tr - 1| grows linearly, about 9e-16 per collision here; the state
        # is never renormalized
        sc = load_scenario("ad-chain-2q")
        traj = simulate(collision_config(sc, 20_000), sc.rho0, record_stride=20_000)
        assert list(traj.steps) == [0, 20_000]
        assert abs(traj.traces[-1] - 1.0) <= 1e-10
        assert np.array_equal(traj.states[-1], traj.states[-1].conj().T)


class TestRowPath:
    def test_single_site_matches_column(self, rng):
        spec = CouplingSpec.uniform([[SX], [SY]], [SX])
        cfg = qubit_config(couplings=spec, m_carriers=2, n_collisions=1,
                           channel=lossy_bosonic_channel(2, 0.5))
        rho0 = random_state(rng, (2, 2))
        row = evolve_row(cfg, rho0, 1)
        joint = DensityMatrix.from_matrix(np.kron(rho0.entries, GROUND.entries), (2, 2, 2))
        col = evolve_column_step(joint, cfg)
        assert np.max(np.abs(row.entries - col.entries)) <= 1e-12

    def test_two_sites_matches_column(self, rng):
        spec = CouplingSpec.uniform([[SX], [SY]], [SX])
        cfg = qubit_config(couplings=spec, m_carriers=2, n_collisions=2,
                           channel=lossy_bosonic_channel(2, 0.25), g=1.1, dt=0.3)
        rho0 = random_state(rng, (2, 2))
        row = evolve_row(cfg, rho0, 2)
        col = simulate(cfg, rho0).final_state()
        assert np.max(np.abs(row.entries - col.entries)) <= 1e-11

    def test_zero_coupling_returns_input(self, rng):
        cfg = qubit_config(g=0.0, n_collisions=2)
        rho0 = random_state(rng, (2,))
        row = evolve_row(cfg, rho0, 2)
        assert np.max(np.abs(row.entries - rho0.entries)) <= 1e-12

    def test_equivalence_randomized(self, rng):
        # random couplings, channels, carriers and sites within the size guard
        for m_carriers, n_sites, env_dim in ((1, 3, 2), (2, 2, 2), (3, 1, 3), (2, 2, 3)):
            spec = CouplingSpec.uniform(
                [[random_hermitian(rng, (2,))] for _ in range(m_carriers)],
                [random_hermitian(rng, (env_dim,))],
            )
            cfg = CollisionConfig(
                carrier_dims=(2,) * m_carriers,
                env_dim=env_dim,
                g=0.9,
                dt=0.25,
                n_collisions=n_sites,
                eta=DensityMatrix.ground(env_dim),
                channel=random_cpt_channel(rng, env_dim),
                couplings=spec,
            )
            rho0 = random_state(rng, (2,) * m_carriers)
            row = evolve_row(cfg, rho0, n_sites)
            col = simulate(cfg, rho0).final_state()
            assert np.max(np.abs(row.entries - col.entries)) <= 1e-11

    def test_size_guard(self):
        cfg = qubit_config(m_carriers=2, n_collisions=8)
        with pytest.raises(ValueError, match="256"):
            evolve_row(cfg, DensityMatrix.maximally_mixed((2, 2)), 8)


class TestInteractionFrame:
    def test_zero_hamiltonian_leaves_couplings(self):
        zero_sched = HamiltonianSchedule.constant(Operator((2,), np.zeros((2, 2))))
        cfg = qubit_config(n_collisions=4, local_hamiltonians=(zero_sched,))
        bar = interaction_frame_couplings(cfg)
        for n in range(1, 5):
            assert np.allclose(bar.at(n).a_ops(1)[0].entries, SX.entries)

    def test_constant_sz_rotation(self):
        omega = 1.3
        sched = HamiltonianSchedule.constant(Operator((2,), omega / 2 * SZ.entries))
        cfg = qubit_config(n_collisions=5, dt=0.2, local_hamiltonians=(sched,))
        bar = interaction_frame_couplings(cfg)
        for n in range(1, 6):
            tau = cfg.tau(n)
            got = bar.at(n).a_ops(1)[0].entries
            want = math.cos(omega * tau) * SX.entries - math.sin(omega * tau) * SY.entries
            # oracle: explicit conjugation by the 2x2 exponential
            v = expm_hermitian(Operator((2,), omega / 2 * SZ.entries), tau).entries
            assert np.allclose(got, v.conj().T @ SX.entries @ v, atol=1e-12)
            assert np.allclose(got, want, atol=1e-12)

    def test_rotated_couplings_stay_hermitian(self, rng):
        h = random_hermitian(rng, (2,))
        a = random_hermitian(rng, (2,))
        spec = CouplingSpec.uniform([[a]], [SX])
        cfg = qubit_config(couplings=spec, n_collisions=6,
                           local_hamiltonians=(HamiltonianSchedule.constant(h),))
        bar = interaction_frame_couplings(cfg)
        for n in range(1, 7):
            assert bar.at(n).a_ops(1)[0].is_hermitian(1e-12)

    def test_missing_schedule_rejected(self):
        cfg = qubit_config()
        with pytest.raises(ValueError, match="schedule"):
            interaction_frame_couplings(cfg)

    def test_lab_frame_matches_rotated_run(self, rng):
        # map the lab-frame trajectory into the rotating frame and compare
        # with the run driven by the frame-transformed couplings
        omega = 0.9
        scheds = (
            HamiltonianSchedule.constant(Operator((2,), omega / 2 * SZ.entries)),
            HamiltonianSchedule.constant(Operator((2,), -omega / 3 * SZ.entries)),
        )
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        cfg_lab = CollisionConfig(
            carrier_dims=(2, 2), env_dim=2, g=1.0, dt=0.1, n_collisions=8,
            eta=GROUND, channel=lossy_bosonic_channel(2, 0.5), couplings=spec,
            local_hamiltonians=scheds,
        )
        bar_spec = interaction_frame_couplings(cfg_lab)
        cfg_rot = CollisionConfig(
            carrier_dims=(2, 2), env_dim=2, g=1.0, dt=0.1, n_collisions=8,
            eta=GROUND, channel=lossy_bosonic_channel(2, 0.5), couplings=bar_spec,
        )
        rho0 = random_state(rng, (2, 2))
        lab = simulate(cfg_lab, rho0)
        rot = simulate(cfg_rot, rho0)
        for i, n in enumerate(lab.steps):
            v = frame_propagator(cfg_lab, int(n))
            mapped = v.conj().T @ lab.states[i] @ v
            assert np.max(np.abs(mapped - rot.states[i])) <= 1e-10

    def test_piecewise_schedule_propagator(self):
        h1 = Operator((2,), 0.7 * SZ.entries)
        h2 = Operator((2,), 0.3 * SX.entries)
        sched = HamiltonianSchedule((0.0, 1.0), (h1, h2))
        u = sched.propagator(0.5, 1.5)
        want = expm_hermitian(h2, 0.5).entries @ expm_hermitian(h1, 0.5).entries
        assert np.allclose(u, want, atol=1e-14)

    def test_converges_to_time_dependent_generator(self):
        # frame-rotated couplings give a collision-indexed model whose
        # weak-coupling limit is a time-dependent generator; integrate it as
        # a piecewise-constant schedule on the same collision grid
        from dataclasses import replace

        from qcollide.generators import full_generator
        from qcollide.integrator import integrate, trace_distance

        omega, gamma, t_end = 1.1, 1.0, 0.6
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        chan = lossy_bosonic_channel(2, 0.25)
        sched = HamiltonianSchedule.constant(Operator((2,), omega / 2 * SZ.entries))
        rho0 = DensityMatrix.from_ket(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))

        def distance_at(n):
            dt = t_end / n
            cfg_lab = CollisionConfig(
                carrier_dims=(2, 2), env_dim=2, g=math.sqrt(gamma / dt), dt=dt,
                n_collisions=n, eta=GROUND, channel=chan, couplings=spec,
                local_hamiltonians=(sched, sched),
            )
            rotated = replace(
                cfg_lab, couplings=interaction_frame_couplings(cfg_lab), local_hamiltonians=None
            )
            coll = simulate(rotated, rho0, record_stride=n)
            schedule = [
                (
                    (k - 1) * dt,
                    full_generator(rotated.couplings.at(k), GROUND, chan, gamma, (2, 2)).total,
                )
                for k in range(1, n + 1)
            ]
            me = integrate(schedule, rho0, t_end, dt / 4)
            return trace_distance(coll.final_state(), me.final_state())

        d40, d80 = distance_at(40), distance_at(80)
        assert d80 < d40 < 5e-3


class TestTrajectoryExport(object):
    def test_csv_schema(self, tmp_path):
        cfg = qubit_config(n_collisions=3)
        traj = simulate(cfg, GROUND, observables=[projector(2, 0)], observable_names=["p0"])
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t,p0_re,p0_im,trace,min_eigenvalue"
        assert len(lines) == 5

    def test_json_includes_states_on_request(self, tmp_path):
        import json

        cfg = qubit_config(n_collisions=2)
        traj = simulate(cfg, GROUND)
        path = tmp_path / "traj.json"
        traj.to_json(path)
        data = json.loads(path.read_text())
        assert len(data["samples"]) == 3
        assert "state" in data["samples"][0]
