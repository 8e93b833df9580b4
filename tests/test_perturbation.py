
from dataclasses import replace

import numpy as np
import pytest

from conftest import act, random_hermitian, random_state
from qcollide.channels import (
    DensityMatrix,
    identity_channel,
    lossy_bosonic_channel,
    replacer_channel,
    unitary_channel,
)
from qcollide.collision import (
    CollisionConfig,
    CouplingSpec,
    HamiltonianSchedule,
    collision_hamiltonian,
    evolve_column_step,
    interaction_frame_couplings,
)
from qcollide.generators import full_generator
from qcollide.ops import (
    Operator,
    embed,
    expm_hermitian,
    pauli,
    trace_out,
    unvec,
    vec,
)
from qcollide.perturbation import (
    _orders,
    _random_hermitian,
    collision_step_defect,
    column_expansion,
    column_remainder,
    remainder_halving_ratios,
    traced_orders,
    unitary_expansion_terms,
    unitary_remainder,
    verify_first_order,
    verify_second_order,
)

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
GROUND = DensityMatrix.ground(2)


def make_cfg(spec, channel, eta=None, g=2.0, dt=0.05, carrier_dims=None, env_dim=2):
    carrier_dims = carrier_dims or (2,) * spec.n_carriers
    return CollisionConfig(
        carrier_dims=carrier_dims,
        env_dim=env_dim,
        g=g,
        dt=dt,
        n_collisions=1,
        eta=eta or DensityMatrix.ground(env_dim),
        channel=channel,
        couplings=spec,
    )


def compliant_random_cfg(rng, m_carriers=2, env_dim=2, n_terms=2, share_env=True):
    """Random configuration with zero-mean couplings on the relaxation orbit.

    Environment operators have zero diagonal; eta is diagonal and is a fixed
    point of the channel (diagonal-unitary conjugation), so every first
    moment vanishes along the orbit while cross rates stay generically
    complex and nonzero.  With share_env=False every carrier gets its own
    environment operator list.
    """
    probs = rng.dirichlet(np.ones(env_dim))
    eta = DensityMatrix.from_matrix(np.diag(probs), (env_dim,))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=env_dim))
    chan = unitary_channel(Operator((env_dim,), np.diag(phases)))

    def env_list():
        ops = []
        for _ in range(n_terms):
            b = random_hermitian(rng, (env_dim,)).entries.copy()
            np.fill_diagonal(b, 0.0)
            ops.append(Operator((env_dim,), b))
        return ops

    a_lists = [
        [random_hermitian(rng, (2,)) for _ in range(n_terms)] for _ in range(m_carriers)
    ]
    if share_env:
        spec = CouplingSpec.uniform(a_lists, env_list())
    else:
        spec = CouplingSpec(
            system_ops=tuple(tuple(ops) for ops in a_lists),
            env_ops=tuple(tuple(env_list()) for _ in range(m_carriers)),
            env_shared=False,
        )
    return make_cfg(spec, chan, eta=eta, env_dim=env_dim)


class TestUnitaryExpansionTerms:
    def test_zero_hamiltonian(self):
        zeros = Operator((2, 2), np.zeros((4, 4)))
        u1, u2 = unitary_expansion_terms(zeros)
        assert np.max(np.abs(u1.matrix())) == 0.0
        assert np.max(np.abs(u2.matrix())) == 0.0

    def test_both_terms_traceless(self, rng):
        h = random_hermitian(rng, (2, 2))
        u1, u2 = unitary_expansion_terms(h)
        for _ in range(5):
            x = random_hermitian(rng, (2, 2))
            assert abs(act(u1, x).trace()) <= 1e-12
            assert abs(act(u2, x).trace()) <= 1e-12

    def test_first_term_is_commutator(self, rng):
        h = random_hermitian(rng, (2,))
        u1, _ = unitary_expansion_terms(h)
        eye = np.eye(h.side)
        want = (-1j) * (np.kron(eye, h.entries) - np.kron(h.entries.T, eye))
        assert np.allclose(u1.matrix(), want)

    def test_remainder_is_cubic(self, rng):
        h = random_hermitian(rng, (2, 2), norm=1.0)
        x = random_hermitian(rng, (2, 2))
        s = 0.1
        r_hi = unitary_remainder(h, s, x)
        r_lo = unitary_remainder(h, s / 2, x)
        assert 6.0 <= r_hi / r_lo <= 10.0


class TestColumnExpansion:
    def test_single_carrier_has_no_pair_term(self):
        spec = CouplingSpec.uniform([[SX]], [SX])
        cfg = make_cfg(spec, identity_channel(2))
        _, _, c2b = column_expansion(cfg)
        assert np.max(np.abs(c2b)) == 0.0

    def test_identity_channel_first_order_sums_commutators(self):
        spec = CouplingSpec.uniform([[SX], [SY]], [SX])
        cfg = make_cfg(spec, identity_channel(2))
        c1, _, _ = column_expansion(cfg)
        dims = (2, 2, 2)
        h1 = embed(
            Operator((2, 2), np.kron(SX.entries, SX.entries)), dims, (0, 2)
        )
        h2 = embed(
            Operator((2, 2), np.kron(SY.entries, SX.entries)), dims, (1, 2)
        )
        eye = np.eye(8)
        want = (-1j) * sum(np.kron(eye, h.entries) - np.kron(h.entries.T, eye) for h in (h1, h2))
        assert np.max(np.abs(c1 - want)) <= 1e-13

    def test_materialized_matches_application(self, rng):
        cfg = compliant_random_cfg(rng)
        c1, c2a, c2b = column_expansion(cfg)
        x = random_hermitian(rng, cfg.joint_dims)
        _, y1, y2a, y2b = _orders(cfg, x.entries)
        side = x.side
        for c, y in ((c1, y1), (c2a, y2a), (c2b, y2b)):
            assert c.shape == (side**2, side**2)
            assert np.allclose(unvec(c @ vec(x.entries), side), y, atol=1e-12)

    def test_remainder_is_cubic(self, rng):
        cfg = make_cfg(
            CouplingSpec.uniform([[SX], [SY]], [SX]), lossy_bosonic_channel(2, 0.5),
            g=2.0, dt=0.05,
        )
        x = random_hermitian(rng, (2, 2, 2))
        r_hi = column_remainder(cfg, x)
        r_lo = column_remainder(replace(cfg, g=cfg.g / 2), x)
        assert 6.0 <= r_hi / r_lo <= 10.0


def per_order_loops(cfg, x):
    """(C0 x, C'x, C''a x, C''b x) from one loop per order, threading x
    through channel powers M^k, the powers of the channel's superoperator
    matrix contracted with the environment factor, and the embedded joint
    collision Hamiltonians: the pair term sums
    E^(M-m'+1) U'_m' E^(m'-m) U'_m E^(m-1) over m < m' explicitly."""
    dims, m_count, de = cfg.joint_dims, cfg.n_carriers, cfg.env_dim
    hs = [
        embed(collision_hamiltonian(cfg, m), dims, (m - 1, m_count)).entries
        for m in range(1, m_count + 1)
    ]
    # p[E, e, G, g] = P[e + de E, g + de G] for the column-stacked power P
    superop = cfg.channel.form.matrix()
    powers = [np.linalg.matrix_power(superop, k).reshape(de, de, de, de) for k in range(m_count + 2)]

    def env(k, y):
        if k == 0:
            return y
        ds = y.shape[-1] // de
        y4 = y.reshape(y.shape[:-2] + (ds, de, ds, de))
        return np.einsum("EeGg,...igjG->...iejE", powers[k], y4).reshape(y.shape)

    def u1(h, y):
        return -1j * (h @ y - y @ h)

    def u2(h, y):
        return h @ y @ h - 0.5 * (h @ h @ y + y @ h @ h)

    c1 = sum(env(m_count - m + 1, u1(hs[m - 1], env(m - 1, x))) for m in range(1, m_count + 1))
    c2a = sum(env(m_count - m + 1, u2(hs[m - 1], env(m - 1, x))) for m in range(1, m_count + 1))
    c2b = np.zeros_like(x, dtype=complex)
    for m in range(1, m_count):
        base = u1(hs[m - 1], env(m - 1, x))
        for mp in range(m + 1, m_count + 1):
            c2b = c2b + env(m_count - mp + 1, u1(hs[mp - 1], env(mp - m, base)))
    return env(m_count, x), c1, c2a, c2b


def frame_rotated_cfg(rng, m_carriers):
    """Collision-indexed couplings from a free carrier-1 rotation."""
    sched = HamiltonianSchedule.constant(random_hermitian(rng, (2,)))
    base = compliant_random_cfg(rng, m_carriers=m_carriers, env_dim=3)
    base = replace(base, n_collisions=4, local_hamiltonians=(sched,) + (None,) * (m_carriers - 1))
    return replace(base, couplings=interaction_frame_couplings(base), local_hamiltonians=None)


class TestOnePassOrders:
    CASES = [(m, de, share) for m in (1, 2, 3) for de in (2, 3) for share in (True, False)]

    def test_matches_per_order_loops(self, rng):
        for m_carriers, env_dim, share_env in self.CASES:
            cfg = compliant_random_cfg(rng, m_carriers=m_carriers, env_dim=env_dim, share_env=share_env)
            side = 2**m_carriers * env_dim
            # unnormalized non-Hermitian inputs, one matrix and a stack of two
            x = rng.normal(size=(2, side, side)) + 1j * rng.normal(size=(2, side, side))
            for arr in (x[0], x):
                got = _orders(cfg, arr)
                want = per_order_loops(cfg, arr)
                for g_k, w_k in zip(got, want):
                    assert np.max(np.abs(g_k - w_k)) <= 1e-12

    def test_matches_per_order_loops_collision_indexed(self, rng):
        for m_carriers in (2, 3):
            cfg = frame_rotated_cfg(rng, m_carriers)
            side = 2**m_carriers * 3
            x = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            for n in (1, 3):
                got = _orders(cfg.at(n), x)
                want = per_order_loops(cfg.at(n), x)
                for g_k, w_k in zip(got, want):
                    assert np.max(np.abs(g_k - w_k)) <= 1e-12
            # the orders really depend on the collision index here
            assert np.max(np.abs(_orders(cfg.at(1), x)[1] - got[1])) > 1e-3


class TestExactSideIsSimulatorColumn:
    def test_step_defect_pins_to_evolve_column_step(self, rng):
        # the defect's stepped state is bit for bit the simulator's column
        for cfg in (compliant_random_cfg(rng, m_carriers=3), frame_rotated_cfg(rng, 2).at(3)):
            rho = random_state(rng, cfg.carrier_dims)
            joint = DensityMatrix.from_matrix(np.kron(rho.entries, cfg.eta.entries), cfg.joint_dims)
            stepped = evolve_column_step(joint, cfg).entries
            gen = full_generator(cfg.couplings, cfg.eta, cfg.channel, cfg.gamma, cfg.carrier_dims)
            diff = (stepped - rho.entries) / cfg.dt - gen.apply(rho.entries)
            assert collision_step_defect(cfg, rho) == np.linalg.norm(diff)


class TestVerifyFirstOrder:
    def test_compliant_scenarios(self, rng):
        configs = [
            make_cfg(CouplingSpec.uniform([[SX], [SY]], [SX]), lossy_bosonic_channel(2, 0.25)),
            make_cfg(CouplingSpec.uniform([[SX]], [SY]), identity_channel(2)),
            compliant_random_cfg(rng),
        ]
        for cfg in configs:
            rho = random_state(rng, cfg.carrier_dims)
            report = verify_first_order(cfg, rho)
            assert report.passed and report.residual < 1e-12

    def test_violated_assumption_is_order_one(self, rng):
        cfg = make_cfg(CouplingSpec.uniform([[SZ], [SZ]], [SZ]), identity_channel(2))
        rho = random_state(rng, (2, 2))
        report = verify_first_order(cfg, rho)
        assert report.residual > 0.1

    def test_maximally_mixed_state(self, rng):
        cfg = compliant_random_cfg(rng)
        report = verify_first_order(cfg, DensityMatrix.maximally_mixed((2, 2)))
        assert report.residual < 1e-12


class TestSharedOrders:
    def test_reports_read_one_pass(self, rng):
        # both reports from one traced_orders pass equal the standalone ones
        for cfg in (compliant_random_cfg(rng, m_carriers=3), frame_rotated_cfg(rng, 2).at(3)):
            rho = random_state(rng, cfg.carrier_dims)
            gen = full_generator(cfg.couplings, cfg.eta, cfg.channel, 1.0, cfg.carrier_dims)
            orders = traced_orders(cfg, rho)
            assert verify_first_order(cfg, rho, orders=orders) == verify_first_order(cfg, rho)
            assert verify_second_order(cfg, rho, gen=gen, orders=orders) == verify_second_order(
                cfg, rho, gen=gen
            )


class TestVerifySecondOrder:
    def test_compliant_qubit_scenarios(self, rng):
        for _ in range(3):
            cfg = compliant_random_cfg(rng)
            rho = random_state(rng, cfg.carrier_dims)
            report = verify_second_order(cfg, rho)
            assert report.passed, (report.residual_a, report.residual_b)

    def test_replacer_pair_term_vanishes(self, rng):
        eta = GROUND
        cfg = make_cfg(CouplingSpec.uniform([[SX], [SY]], [SX]), replacer_channel(eta))
        rho = random_state(rng, (2, 2))
        report = verify_second_order(cfg, rho)
        assert report.passed
        # the traced pair term itself must vanish, not just match the (zero) cross rates
        joint = np.kron(rho.entries, eta.entries)
        _, traced = trace_out(_orders(cfg, joint)[3], cfg.joint_dims, range(cfg.n_carriers))
        assert np.max(np.abs(traced)) <= 1e-12

    def test_rate_rescaling_linearity(self, rng):
        cfg = compliant_random_cfg(rng)
        rho = random_state(rng, cfg.carrier_dims)
        gen1 = full_generator(cfg.couplings, cfg.eta, cfg.channel, 1.0, cfg.carrier_dims)
        gen5 = full_generator(cfg.couplings, cfg.eta, cfg.channel, 5.0, cfg.carrier_dims)
        r1 = verify_second_order(cfg, rho, gen=gen1)
        r5 = verify_second_order(cfg, rho, gen=gen5)
        assert r1.passed and r5.passed

    def test_identities_randomized(self, rng):
        for m_carriers, env_dim in ((2, 2), (3, 2), (2, 3), (3, 3)):
            cfg = compliant_random_cfg(rng, m_carriers=m_carriers, env_dim=env_dim)
            rho = random_state(rng, cfg.carrier_dims)
            f = verify_first_order(cfg, rho)
            s = verify_second_order(cfg, rho)
            assert f.residual <= 1e-12
            assert s.residual_a <= 1e-10 and s.residual_b <= 1e-10

    def test_identities_with_per_carrier_env_ops(self, rng):
        for m_carriers, env_dim in ((2, 2), (3, 3)):
            cfg = compliant_random_cfg(
                rng, m_carriers=m_carriers, env_dim=env_dim, share_env=False
            )
            rho = random_state(rng, cfg.carrier_dims)
            assert verify_first_order(cfg, rho).residual <= 1e-12
            s = verify_second_order(cfg, rho)
            assert s.residual_a <= 1e-10 and s.residual_b <= 1e-10

    @staticmethod
    def rotated_qubit_pair():
        """Two qubits whose carrier-1 couplings turn under a sigma_z schedule."""
        sched = HamiltonianSchedule.constant(Operator((2,), 0.65 * SZ.entries))
        base = make_cfg(
            CouplingSpec.uniform([[SX], [SY]], [SX]),
            lossy_bosonic_channel(2, 0.25),
            g=1.0,
            dt=0.1,
        )
        base = replace(base, n_collisions=6, local_hamiltonians=(sched, None))
        return replace(base, couplings=interaction_frame_couplings(base), local_hamiltonians=None)

    def test_identities_with_collision_indexed_couplings(self, rng):
        # frame-rotated couplings depend on the collision index; the traced
        # expansion must match the generator built at the same collision
        rotated = self.rotated_qubit_pair()
        rho = random_state(rng, rotated.carrier_dims)
        for n in (1, 3, 6):
            f = verify_first_order(rotated.at(n), rho)
            s = verify_second_order(rotated.at(n), rho)
            assert f.residual <= 1e-12
            assert s.residual_a <= 1e-10 and s.residual_b <= 1e-10

    def test_given_generator_at_every_collision(self, rng):
        # a generator built by the caller on the resolved couplings pairs
        # with the column of the same collision
        rotated = self.rotated_qubit_pair()
        rho = random_state(rng, rotated.carrier_dims)
        for n in range(1, rotated.n_collisions + 1):
            cfg_n = rotated.at(n)
            gen = full_generator(cfg_n.couplings, cfg_n.eta, cfg_n.channel, 1.0, cfg_n.carrier_dims)
            s = verify_second_order(cfg_n, rho, gen=gen)
            assert s.residual_a <= 1e-10 and s.residual_b <= 1e-10

    def test_unresolved_couplings_rejected(self, rng):
        rotated = self.rotated_qubit_pair()
        rho = random_state(rng, rotated.carrier_dims)
        with pytest.raises(ValueError, match=r"\.at\(n\)"):
            full_generator(rotated.couplings, rotated.eta, rotated.channel, 1.0, rotated.carrier_dims)
        with pytest.raises(ValueError, match=r"\.at\(n\)"):
            traced_orders(rotated, rho)


class TestStepDefect:
    def test_cubic_bound_via_halving(self, rng):
        # triangle-adjacency env coupling keeps the third moments alive,
        # so the defect decays at the nominal cubic rate
        tri = Operator((3,), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex))
        eta = DensityMatrix.from_matrix(np.diag([0.5, 0.3, 0.2]), (3,))
        spec = CouplingSpec.uniform([[SX], [SY]], [tri])
        cfg = make_cfg(spec, identity_channel(3), eta=eta, env_dim=3, g=2.0, dt=0.05)
        report = remainder_halving_ratios(cfg, seed=11)
        assert 6.0 <= report.step[2] <= 10.0
        assert 6.0 <= report.unitary[2] <= 10.0
        assert 6.0 <= report.column[2] <= 10.0

    def test_even_moment_configs_superconverge(self, rng):
        cfg = make_cfg(CouplingSpec.uniform([[SX], [SY]], [SX]), lossy_bosonic_channel(2, 0.5),
                       g=2.0, dt=0.05)
        report = remainder_halving_ratios(cfg, seed=11)
        # vanishing odd moments push the step defect to quartic decay
        assert report.step[2] >= 10.0
        assert 6.0 <= report.unitary[2] <= 10.0
        assert 6.0 <= report.column[2] <= 10.0

    def test_column_ratio_reads_one_expansion_pass(self, rng, monkeypatch):
        # the expansion orders do not depend on g: the halved column reuses
        # the probe's orders, and both remainders equal column_remainder's
        cfg = compliant_random_cfg(rng, m_carriers=3)
        want = remainder_halving_ratios(cfg, seed=11)
        calls = []

        def counted(cfg, x):
            calls.append(cfg.g)
            return _orders(cfg, x)

        monkeypatch.setattr("qcollide.perturbation._orders", counted)
        report = remainder_halving_ratios(cfg, seed=11)
        assert calls == [cfg.g]
        assert report == want
        # the joint probe is the second draw of the seed
        probes = np.random.default_rng(11)
        _random_hermitian(probes, collision_hamiltonian(cfg, 1).dims)
        x = _random_hermitian(probes, cfg.joint_dims)
        assert report.column[:2] == (column_remainder(cfg, x), column_remainder(replace(cfg, g=0.5 * cfg.g), x))

    def test_defect_magnitude_scales(self, rng):
        cfg = compliant_random_cfg(rng)
        rho = random_state(rng, cfg.carrier_dims)
        d_hi = collision_step_defect(cfg, rho)
        d_lo = collision_step_defect(replace(cfg, g=cfg.g / 2), rho)
        assert d_lo < d_hi
