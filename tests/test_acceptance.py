"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N (...): PASS` line; a failed
assertion leaves the criterion marked FAIL in the captured output.
"""

import math
from dataclasses import replace

import numpy as np

from conftest import act, random_cpt_channel, random_hermitian, random_state
from qcollide.channels import (
    DensityMatrix,
    identity_channel,
    lossy_bosonic_channel,
    replacer_channel,
    unitary_channel,
    validate_cpt,
)
from qcollide.collision import (
    CollisionConfig,
    CouplingSpec,
    HamiltonianSchedule,
    evolve_row,
    frame_propagator,
    interaction_frame_couplings,
    simulate,
)
from qcollide.generators import (
    cross_dissipator,
    cross_rates,
    full_generator,
    local_rates,
    signaling_correction,
    single_carrier_generator,
    stationary_rates,
)
from qcollide.integrator import integrate, reduced_trajectory, trace_distance
from qcollide.ops import Operator, expm_hermitian, partial_trace, pauli
from qcollide.perturbation import (
    remainder_halving_ratios,
    verify_first_order,
    verify_second_order,
)
from qcollide.scenarios import collision_config, load_scenario, run_converge
from test_perturbation import compliant_random_cfg, make_cfg

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
GROUND = DensityMatrix.ground(2)


class _Criterion:
    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.ok = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number} ({self.name}): {verdict}")
        return False


def test_criterion_1_collision_to_me_convergence():
    with _Criterion(1, "collision->ME convergence"):
        # dephasing: closed-form reference diag((1+e^(-2 gamma t))/2, ...)
        gamma, t_end = 1.0, 0.5
        sc = load_scenario("dephasing-1q")
        closed = Operator(
            (2,),
            np.diag([
                (1 + math.exp(-2 * gamma * t_end)) / 2,
                (1 - math.exp(-2 * gamma * t_end)) / 2,
            ]),
        )
        errors = {}
        for n in (50, 100, 200, 400):
            cfg = collision_config(sc, n)
            final = simulate(cfg, sc.rho0, record_stride=n).final_state()
            errors[n] = trace_distance(final, closed)
        assert errors[100] < 1e-2
        assert errors[50] > errors[100] > errors[200] > errors[400]
        p = math.log2(errors[200] / errors[400])
        assert 0.8 <= p <= 1.2

        # two-carrier damping chain vs the integrated generator
        report = run_converge(load_scenario("ad-chain-2q"))
        errs = [e["error"] for e in report.entries]
        assert report.errors_strictly_decreasing
        assert report.fitted_order >= 0.4


def test_criterion_2_rate_formula_oracles():
    with _Criterion(2, "rate formulas"):
        gamma = 1.7
        spec2 = CouplingSpec.uniform([[SX], [SX]], [SX])
        local = local_rates(spec2, GROUND, identity_channel(2), 1, gamma)
        assert np.max(np.abs(local - np.array([[gamma]]))) <= 1e-12

        damping = lossy_bosonic_channel(2, 0.25)  # damping probability 0.75
        cross_ad = cross_rates(spec2, GROUND, damping, 1, 2, gamma)
        assert np.max(np.abs(cross_ad - np.array([[0.5 * gamma]]))) <= 1e-12

        rotation = unitary_channel(expm_hermitian(SZ, math.pi / 4))
        cross_rot = cross_rates(spec2, GROUND, rotation, 1, 2, gamma)
        assert np.max(np.abs(cross_rot - np.array([[1j * gamma]]))) <= 1e-12


def test_criterion_3_psd_rates(rng):
    with _Criterion(3, "PSD local rates"):
        for trial in range(100):
            d = int(rng.integers(2, 4))
            n_terms = int(rng.integers(1, 4))
            bs = [random_hermitian(rng, (d,)) for _ in range(n_terms)]
            a_ops = [random_hermitian(rng, (2,)) for _ in range(n_terms)]
            m = int(rng.integers(1, 4))
            spec = CouplingSpec.uniform([a_ops] * m, bs)
            eta = random_state(rng, (d,))
            chan = random_cpt_channel(rng, d, n_kraus=int(rng.integers(1, 4)))
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rates = local_rates(spec, eta, chan, m, 1.0 + float(rng.random()))
            assert np.max(np.abs(rates - rates.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(rates)[0] >= -1e-10


def test_criterion_4_semicausality(rng):
    with _Criterion(4, "semicausality"):
        checked = 0
        while checked < 100:
            m_carriers = int(rng.integers(2, 4))
            d_env = int(rng.integers(2, 4))
            n_terms = int(rng.integers(1, 3))
            bs = [random_hermitian(rng, (d_env,)) for _ in range(n_terms)]
            a_lists = [
                [random_hermitian(rng, (2,)) for _ in range(n_terms)]
                for _ in range(m_carriers)
            ]
            spec = CouplingSpec.uniform(a_lists, bs)
            eta = random_state(rng, (d_env,))
            chan = random_cpt_channel(rng, d_env)
            m = 1
            mp = int(rng.integers(2, m_carriers + 1))
            rates = cross_rates(spec, eta, chan, m, mp, 1.0)
            dims = (2,) * m_carriers
            diss = cross_dissipator(spec, rates, m, mp, dims)
            for _ in range(10):
                x = random_hermitian(rng, dims)
                keep = tuple(i for i in range(m_carriers) if i != mp - 1)
                traced = partial_trace(act(diss, x), keep=keep)
                assert np.max(np.abs(traced.entries)) <= 1e-11
                checked += 1


def test_criterion_5_nonsignaling_dichotomy():
    with _Criterion(5, "non-signaling vs signaling dichotomy"):
        dt = 1e-3
        # real rates: the later carrier's reduced dynamics closes on its own
        for name in ("ad-chain-2q", "replacer"):
            sc_real = load_scenario(name)
            gen_real = full_generator(sc_real.couplings, sc_real.eta, sc_real.channel, 1.0, (2, 2))
            assert np.max(np.abs(gen_real.rates.cross[(1, 2)].imag)) <= 1e-14
            joint = integrate(gen_real.total, sc_real.rho0, 1.0, dt)
            reduced = reduced_trajectory(joint, keep=[2])
            rho2_0 = DensityMatrix(partial_trace(sc_real.rho0.op, [1]), atol=1e-8)
            local = integrate(single_carrier_generator(gen_real, 2), rho2_0, 1.0, dt)
            for a, b in zip(reduced.states, local.states):
                assert trace_distance(a, b) <= 1e-9

        # complex rates: it does not close, and the joint-state term repairs it
        sc_cx = load_scenario("rotating-env-2q")
        gen_cx = full_generator(sc_cx.couplings, sc_cx.eta, sc_cx.channel, 1.0, (2, 2))
        joint_cx = integrate(gen_cx.total, sc_cx.rho0, 1.0, dt)
        reduced_cx = reduced_trajectory(joint_cx, keep=[2])
        rho2_0 = DensityMatrix(partial_trace(sc_cx.rho0.op, [1]), atol=1e-8)
        local_cx = integrate(single_carrier_generator(gen_cx, 2), rho2_0, 1.0, dt)
        gap = trace_distance(reduced_cx.final_state(), local_cx.final_state())
        assert gap > 1e-3

        local_gen = single_carrier_generator(gen_cx, 2)
        for state in joint_cx.states[:: max(len(joint_cx) // 20, 1)]:
            state = Operator(joint_cx.dims, state)
            lhs = partial_trace(act(gen_cx.total, state), keep=[1]).entries
            rho2 = partial_trace(state, keep=[1])
            corr = signaling_correction(
                sc_cx.couplings, gen_cx.rates.cross[(1, 2)], state, (2, 2)
            )
            rhs = act(local_gen, rho2).entries + corr.entries
            assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_criterion_6_memoryless_limit(rng):
    with _Criterion(6, "memoryless replacer limit"):
        sc = load_scenario("replacer")
        gen = full_generator(sc.couplings, sc.eta, sc.channel, 1.0, (2, 2))
        assert np.max(np.abs(gen.rates.cross[(1, 2)])) <= 1e-14

        cfg = collision_config(sc, 30)
        traj = simulate(cfg, sc.rho0)
        for state in traj.states:
            red1 = partial_trace(Operator(traj.dims, state), keep=[0]).entries
            red2 = partial_trace(Operator(traj.dims, state), keep=[1]).entries
            assert np.max(np.abs(state - np.kron(red1, red2))) <= 1e-10


def test_criterion_7_bosonic_fiber():
    with _Criterion(7, "bosonic fiber correlation decay"):
        d = 4
        for kappa in (0.25, 0.5):
            sc = load_scenario({"scenario": "bosonic-fiber", "params": {"d": d, "kappa": kappa}})
            mats = {
                dist: stationary_rates(sc.couplings, sc.eta, sc.channel, dist, sc.gamma)
                for dist in (1, 2, 3)
            }
            for dist in (1, 2):
                a, b = mats[dist], mats[dist + 1]
                assert np.linalg.norm(b) / np.linalg.norm(a) - math.sqrt(kappa) <= 1e-10
                mask = np.abs(a) > 1e-12
                ratios = np.abs(b[mask]) / np.abs(a[mask])
                assert np.max(np.abs(ratios - math.sqrt(kappa))) <= 1e-10

        # two-level truncation reduces exactly to amplitude damping p = 1-kappa
        for kappa in (0.25, 0.5):
            lossy = lossy_bosonic_channel(2, kappa)
            p = 1.0 - kappa
            want0 = np.diag([1.0, math.sqrt(1.0 - p)])
            want1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]])
            assert np.max(np.abs(lossy.kraus[0].entries - want0)) == 0.0
            assert np.max(np.abs(lossy.kraus[1].entries - want1)) == 0.0
            assert validate_cpt(lossy).passed


def test_criterion_8_expansion_identities(rng):
    with _Criterion(8, "expansion identities and remainder orders"):
        builtins = [
            load_scenario(name)
            for name in ("dephasing-1q", "ad-chain-2q", "rotating-env-2q", "replacer", "bosonic-fiber")
        ]
        for sc in builtins:
            cfg = collision_config(sc, 100)
            states = [sc.rho0, DensityMatrix.maximally_mixed(sc.carrier_dims)]
            states.append(random_state(rng, sc.carrier_dims))
            for rho in states:
                f = verify_first_order(cfg, rho)
                s = verify_second_order(cfg, rho)
                assert f.residual < 1e-12, sc.name
                assert s.residual_a < 1e-10 and s.residual_b < 1e-10, sc.name

        for _ in range(20):
            m_carriers = int(rng.integers(2, 4))
            env_dim = int(rng.integers(2, 4))
            n_terms = int(rng.integers(1, 3))
            cfg = compliant_random_cfg(rng, m_carriers, env_dim, n_terms)
            rho = random_state(rng, cfg.carrier_dims)
            f = verify_first_order(cfg, rho)
            s = verify_second_order(cfg, rho)
            assert f.residual < 1e-12
            assert s.residual_a < 1e-10 and s.residual_b < 1e-10

        # remainder orders: cubic decay (ratio ~ 8) for the unitary- and
        # column-level remainders everywhere; the step defect decays at
        # least as fast, hitting the nominal 8 when odd moments survive
        ratio_cfgs = [
            collision_config(load_scenario("ad-chain-2q"), 100),
            collision_config(load_scenario("bosonic-fiber"), 100),
            compliant_random_cfg(rng),
        ]
        for cfg in ratio_cfgs:
            cfg = replace(cfg, g=0.05 / cfg.dt)  # expansion parameter g*dt = 0.05
            rep = remainder_halving_ratios(cfg, seed=5)
            assert 6.0 <= rep.unitary[2] <= 10.0
            assert 6.0 <= rep.column[2] <= 10.0
            assert rep.step[2] >= 6.0

        tri = Operator((3,), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex))
        eta3 = DensityMatrix.from_matrix(np.diag([0.5, 0.3, 0.2]), (3,))
        spec_tri = CouplingSpec.uniform([[SX], [SY]], [tri])
        cfg_tri = make_cfg(spec_tri, identity_channel(3), eta=eta3, env_dim=3, g=2.0, dt=0.05)
        rep = remainder_halving_ratios(cfg_tri, seed=5)
        assert 6.0 <= rep.step[2] <= 10.0


def test_criterion_9_row_column_equivalence(rng):
    with _Criterion(9, "row/column decomposition equivalence"):
        cases = [
            (1, 3, 2, 2),
            (1, 2, 3, 3),
            (2, 1, 2, 2),
            (2, 2, 2, 2),
            (2, 2, 3, 2),
            (2, 3, 2, 2),
            (3, 1, 2, 2),
            (3, 2, 2, 2),
            (2, 2, 2, 3),
        ]
        for m_carriers, n_sites, env_dim, carrier_dim in cases:
            side = carrier_dim**m_carriers * env_dim**n_sites
            assert side <= 256
            spec = CouplingSpec.uniform(
                [[random_hermitian(rng, (carrier_dim,))] for _ in range(m_carriers)],
                [random_hermitian(rng, (env_dim,))],
            )
            cfg = CollisionConfig(
                carrier_dims=(carrier_dim,) * m_carriers,
                env_dim=env_dim,
                g=1.1,
                dt=0.3,
                n_collisions=n_sites,
                eta=random_state(rng, (env_dim,)),
                channel=random_cpt_channel(rng, env_dim),
                couplings=spec,
            )
            rho0 = random_state(rng, (carrier_dim,) * m_carriers)
            row = evolve_row(cfg, rho0, n_sites)
            col = simulate(cfg, rho0).final_state()
            assert np.max(np.abs(row.entries - col.entries)) <= 1e-11


def test_criterion_10_interaction_picture(rng):
    with _Criterion(10, "interaction-picture consistency"):
        omega = 1.3
        scheds = (
            HamiltonianSchedule.constant(Operator((2,), omega / 2 * SZ.entries)),
            HamiltonianSchedule.constant(Operator((2,), omega / 2 * SZ.entries)),
        )
        spec = CouplingSpec.uniform([[SX], [SX]], [SX])
        cfg_lab = CollisionConfig(
            carrier_dims=(2, 2),
            env_dim=2,
            g=1.0,
            dt=0.1,
            n_collisions=12,
            eta=GROUND,
            channel=lossy_bosonic_channel(2, 0.25),
            couplings=spec,
            local_hamiltonians=scheds,
        )
        rotated = interaction_frame_couplings(cfg_lab)
        cfg_rot = CollisionConfig(
            carrier_dims=(2, 2),
            env_dim=2,
            g=1.0,
            dt=0.1,
            n_collisions=12,
            eta=GROUND,
            channel=lossy_bosonic_channel(2, 0.25),
            couplings=rotated,
        )
        rho0 = random_state(rng, (2, 2))
        lab = simulate(cfg_lab, rho0)
        rot = simulate(cfg_rot, rho0)
        for i, n in enumerate(lab.steps):
            v = frame_propagator(cfg_lab, int(n))
            mapped = v.conj().T @ lab.states[i] @ v
            assert np.max(np.abs(mapped - rot.states[i])) <= 1e-10
