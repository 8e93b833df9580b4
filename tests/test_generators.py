import math
import warnings

import numpy as np
import pytest

from conftest import act, random_cpt_channel, random_hermitian, random_state
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
    interaction_frame_couplings,
)
from qcollide.generators import (
    cross_dissipator,
    cross_rates,
    full_generator,
    local_dissipator,
    local_rates,
    reduced_two_carrier_generator,
    signaling_correction,
    single_carrier_generator,
    stationary_local_rates,
    stationary_rates,
)
from qcollide.integrator import integrate, reduced_trajectory, trace_distance
from qcollide.ops import (
    Operator,
    SandwichForm,
    embed,
    expm_hermitian,
    momentum_op,
    partial_trace,
    pauli,
    position_op,
    unvec,
    vec,
)
from qcollide.scenarios import BUILTIN_NAMES, load_scenario, scenario_generator

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
GROUND = DensityMatrix.ground(2)
AD75 = lossy_bosonic_channel(2, 0.25)  # damping probability 0.75


def spec_1q(*bs):
    bs = list(bs) or [SX]
    a_ops = [SX, SZ, SY][: len(bs)]
    return CouplingSpec.uniform([a_ops], bs)


SPEC_2Q = CouplingSpec.uniform([[SX], [SX]], [SX])


class TestLocalRates:
    def test_sx_vacuum_unit_rate(self):
        for chan in (identity_channel(2), AD75, replacer_channel(GROUND)):
            rates = local_rates(spec_1q(), GROUND, chan, 1, 1.0)
            assert np.allclose(rates, [[1.0]])

    def test_sx_sy_pair(self):
        spec = CouplingSpec.uniform([[SX, SZ]], [SX, SY])
        rates = local_rates(spec, GROUND, identity_channel(2), 1, 1.0)
        # oracle: direct traces, tr(sx sy |0><0|) = i
        assert np.allclose(rates, [[1.0, 1j], [-1j, 1.0]])
        eig = np.linalg.eigvalsh(rates)
        assert np.allclose(sorted(eig), [0.0, 2.0], atol=1e-12)

    def test_carrier_independent_at_fixed_point(self):
        spec = CouplingSpec.uniform([[SX, SZ]] * 5, [SX, SY])
        base = local_rates(spec, GROUND, AD75, 1, 2.0)
        for m in range(2, 6):
            rates = local_rates(spec, GROUND, AD75, m, 2.0)
            assert np.max(np.abs(rates - base)) <= 1e-12

    def test_gamma_scaling(self):
        spec = spec_1q(SX, SY)
        r1 = local_rates(spec, GROUND, AD75, 1, 1.0)
        r3 = local_rates(spec, GROUND, AD75, 1, 3.0)
        assert np.allclose(r3, 3.0 * r1)

    def test_psd_randomized(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 4))
            n_terms = int(rng.integers(1, 4))
            bs = [random_hermitian(rng, (d,)) for _ in range(n_terms)]
            eta = random_state(rng, (d,))
            chan = random_cpt_channel(rng, d)
            m = int(rng.integers(1, 4))
            a_ops = [SX, SZ, SY][:n_terms]
            spec_m = CouplingSpec.uniform([a_ops] * m, bs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rates = local_rates(spec_m, eta, chan, m, 1.7)
            assert np.max(np.abs(rates - rates.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(rates)[0] >= -1e-10

    def test_warns_on_nonzero_first_moment(self):
        spec = CouplingSpec.uniform([[SZ]], [SZ])
        with pytest.warns(RuntimeWarning, match="first moment"):
            local_rates(spec, GROUND, identity_channel(2), 1, 1.0)


class TestCrossRates:
    def test_replacer_kills_correlations(self, rng):
        eta = random_state(rng, (2,))
        b = random_hermitian(rng, (2,))
        b = Operator((2,), b.entries - np.trace(b.entries @ eta.entries).real * np.eye(2))
        # b now has zero mean on eta, so the assumption holds
        spec = CouplingSpec.uniform([[SX], [SX]], [b])
        rates = cross_rates(spec, eta, replacer_channel(eta), 1, 2, 1.0)
        assert np.max(np.abs(rates)) <= 1e-14

    def test_damping_distance_one(self):
        rates = cross_rates(SPEC_2Q, GROUND, AD75, 1, 2, 1.0)
        # oracle: M(sx |0><0|) = sqrt(0.25)|1><0|, then tr(sx .) = 0.5
        assert np.allclose(rates, [[0.5]], atol=1e-14)

    def test_rotating_env_imaginary(self):
        rot = unitary_channel(expm_hermitian(SZ, math.pi / 4))
        rates = cross_rates(SPEC_2Q, GROUND, rot, 1, 2, 1.0)
        assert np.allclose(rates, [[1j]], atol=1e-14)

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="m' > m"):
            cross_rates(SPEC_2Q, GROUND, AD75, 2, 1, 1.0)
        with pytest.raises(ValueError, match="m' > m"):
            cross_rates(SPEC_2Q, GROUND, AD75, 1, 1, 1.0)


class TestStationaryRates:
    def test_fixed_point_matches_cross_rates(self):
        spec = CouplingSpec.uniform([[SX, SZ]] * 4, [SX, SY])
        for d in (1, 2, 3):
            stat = stationary_rates(spec, GROUND, AD75, d, 1.0)
            for m in range(1, 4 - d + 1):
                direct = cross_rates(spec, GROUND, AD75, m, m + d, 1.0)
                assert np.max(np.abs(stat - direct)) <= 1e-12

    def test_damping_decay_with_distance(self):
        kappa = 0.25
        chan = lossy_bosonic_channel(2, kappa)
        gamma = 1.3
        for d in (1, 2, 3, 4):
            stat = stationary_rates(SPEC_2Q, GROUND, chan, d, gamma)
            # oracle: repeated channel application multiplies |1><0| by sqrt(kappa)
            assert abs(stat[0, 0] - gamma * kappa ** (d / 2)) <= 1e-13

    def test_local_stationary(self):
        rates = stationary_local_rates(spec_1q(SX, SY), GROUND, 1.0)
        assert np.allclose(rates, [[1.0, 1j], [-1j, 1.0]])

    def test_distance_zero_rejected(self):
        with pytest.raises(ValueError, match="distance"):
            stationary_rates(SPEC_2Q, GROUND, AD75, 0, 1.0)

    def test_emerges_as_large_m_limit(self):
        # environment input far from equilibrium: the cross rates depend on
        # the carrier index at the head of the chain and settle onto the
        # stationary values once the relaxation orbit has converged
        excited = DensityMatrix.from_matrix(np.diag([0.0, 1.0]), (2,))
        spec = CouplingSpec.uniform([[SX, SZ]] * 30, [SX, SY])
        stat = stationary_rates(spec, GROUND, AD75, 1, 1.0)
        gaps = [
            np.max(np.abs(cross_rates(spec, excited, AD75, m, m + 1, 1.0) - stat))
            for m in (1, 3, 5, 9)
        ]
        assert gaps[0] > 1e-2  # genuinely m-dependent at the head
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        # empirical-limit route: feed the relaxed orbit point as eta0
        sigma = excited
        for _ in range(40):
            sigma = DensityMatrix.from_matrix(AD75.apply(sigma.op).entries, (2,))
        stat_emp = stationary_rates(spec, sigma, AD75, 1, 1.0)
        deep = cross_rates(spec, excited, AD75, 25, 26, 1.0)
        assert np.max(np.abs(stat_emp - deep)) <= 1e-12

    def test_warns_when_not_fixed(self):
        excited = DensityMatrix.from_matrix(np.diag([0.0, 1.0]), (2,))
        with pytest.warns(RuntimeWarning, match="fixed point"):
            stationary_rates(SPEC_2Q, excited, AD75, 1, 1.0)


class TestLocalDissipator:
    def test_sx_flip_action(self):
        diss = local_dissipator(spec_1q(), np.array([[1.0]]), 1, (2,))
        out = act(diss, Operator((2,), np.diag([1.0, 0.0])))
        assert np.allclose(out.entries, np.diag([-1.0, 1.0]))

    def test_zero_rates_zero_map(self):
        diss = local_dissipator(spec_1q(), np.array([[0.0]]), 1, (2,))
        assert np.max(np.abs(diss.matrix())) == 0.0

    def test_trace_free(self, rng):
        spec = CouplingSpec.uniform([[SX, SZ], [SY, SX]], [SX, SY])
        rates = local_rates(spec, GROUND, AD75, 1, 1.0)
        diss = local_dissipator(spec, rates, 1, (2, 2))
        for _ in range(5):
            x = random_hermitian(rng, (2, 2))
            assert abs(act(diss, x).trace()) <= 1e-12

    def test_embedding_acts_locally(self, rng):
        spec = CouplingSpec.uniform([[SX], [SY]], [SX])
        rates = np.array([[0.7]])
        diss = local_dissipator(spec, rates, 2, (2, 2))
        rho1 = random_state(rng, (2,))
        rho2 = random_state(rng, (2,))
        joint = Operator((2, 2), np.kron(rho1.entries, rho2.entries))
        out = partial_trace(act(diss, joint), keep=[1]).entries
        local = local_dissipator(CouplingSpec.uniform([[SY]], [SX]), rates, 1, (2,))
        want = act(local, rho2.op).entries
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_rejects_non_hermitian_rates(self):
        with pytest.raises(ValueError, match="Hermitian"):
            local_dissipator(spec_1q(), np.array([[1j]]), 1, (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, bad):
        with pytest.raises(ValueError, match="local rate matrix of carrier 1 is not finite"):
            local_dissipator(spec_1q(), np.array([[bad]]), 1, (2,))


def kron_lindblad(a_ops, rates):
    """(1/2) sum rates[l,l'] (2 A_l' X A_l - A_l A_l' X - X A_l A_l'), term by term with np.kron."""
    eye = np.eye(a_ops[0].shape[0])
    mat = 0
    for l, al in enumerate(a_ops):
        for lp, alp in enumerate(a_ops):
            prod = al @ alp
            mat = mat + rates[l, lp] * (
                np.kron(al.T, alp) - 0.5 * np.kron(eye, prod) - 0.5 * np.kron(prod.T, eye)
            )
    return mat


def kron_cross(a_m, a_mp, rates):
    """sum rates[l,l'] A_l [X, A'_l'] - conj(rates[l,l']) [X, A'_l'] A_l, term by term with np.kron."""
    eye = np.eye(a_m[0].shape[0])
    mat = 0
    for l, al in enumerate(a_m):
        for lp, alp in enumerate(a_mp):
            r = rates[l, lp]
            first = np.kron(alp.T, al) - np.kron(eye, al @ alp)
            second = np.kron((alp @ al).T, eye) - np.kron(al.T, alp)
            mat = mat + r * first - np.conj(r) * second
    return mat


@pytest.mark.parametrize("dims", [(2, 3), (3, 3, 2)], ids=["2x3", "3x3x2"])
@pytest.mark.parametrize("n_terms", [1, 3])
class TestAssemblyAgainstKron:
    """Dissipator matrices against the per-pair kron formulas, on random
    couplings and random (cross: complex, non-Hermitian) rates with a zero entry."""

    @staticmethod
    def _spec(rng, dims, n_terms):
        system = [[random_hermitian(rng, (d,)) for _ in range(n_terms)] for d in dims]
        return CouplingSpec.uniform(system, [random_hermitian(rng, (2,)) for _ in range(n_terms)])

    @staticmethod
    def _rates(rng, n_terms):
        r = rng.normal(size=(n_terms, n_terms)) + 1j * rng.normal(size=(n_terms, n_terms))
        if n_terms > 1:
            r[0, -1] = 0.0
        return r

    def test_local_dissipator(self, rng, dims, n_terms):
        spec = self._spec(rng, dims, n_terms)
        for m in range(1, len(dims) + 1):
            r = self._rates(rng, n_terms)
            r = r + r.conj().T
            a_ops = [embed(a, dims, (m - 1,)).entries for a in spec.a_ops(m)]
            got = local_dissipator(spec, r, m, dims).matrix()
            assert np.max(np.abs(got - kron_lindblad(a_ops, r))) <= 1e-12

    def test_cross_dissipator(self, rng, dims, n_terms):
        spec = self._spec(rng, dims, n_terms)
        for m in range(1, len(dims) + 1):
            for mp in range(m + 1, len(dims) + 1):
                r = self._rates(rng, n_terms)
                a_m = [embed(a, dims, (m - 1,)).entries for a in spec.a_ops(m)]
                a_mp = [embed(a, dims, (mp - 1,)).entries for a in spec.a_ops(mp)]
                got = cross_dissipator(spec, r, m, mp, dims).matrix()
                assert np.max(np.abs(got - kron_cross(a_m, a_mp, r))) <= 1e-12

    def test_total(self, rng, dims, n_terms):
        spec = self._spec(rng, dims, n_terms)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # random B_l have a first moment
            gen = full_generator(spec, random_state(rng, (2,)), random_cpt_channel(rng, 2), 0.8, dims)
        ops = [[embed(a, dims, (m - 1,)).entries for a in spec.a_ops(m)] for m in range(1, len(dims) + 1)]
        want = sum(kron_lindblad(a, r) for a, r in zip(ops, gen.rates.local))
        for (m, mp), r in gen.rates.cross.items():
            want = want + kron_cross(ops[m - 1], ops[mp - 1], r)
        assert np.max(np.abs(gen.total.matrix() - want)) <= 1e-12


class TestCrossDissipator:
    def test_zero_rates_zero_map(self):
        diss = cross_dissipator(SPEC_2Q, np.array([[0.0]]), 1, 2, (2, 2))
        assert np.max(np.abs(diss.matrix())) == 0.0

    def test_semicausality(self, rng):
        spec = CouplingSpec.uniform([[SX, SY], [SX, SZ]], [SX, SY])
        rates = cross_rates(spec, GROUND, AD75, 1, 2, 1.0)
        diss = cross_dissipator(spec, rates, 1, 2, (2, 2))
        for _ in range(20):
            x = random_hermitian(rng, (2, 2))
            traced = partial_trace(act(diss, x), keep=[0])
            assert np.max(np.abs(traced.entries)) <= 1e-11

    def test_real_rates_nonsignaling(self, rng):
        rates = cross_rates(SPEC_2Q, GROUND, AD75, 1, 2, 1.0)
        assert np.max(np.abs(rates.imag)) <= 1e-14
        diss = cross_dissipator(SPEC_2Q, rates, 1, 2, (2, 2))
        for _ in range(20):
            x = random_hermitian(rng, (2, 2))
            traced = partial_trace(act(diss, x), keep=[1])
            assert np.max(np.abs(traced.entries)) <= 1e-11

    def test_complex_rates_signal(self, rng):
        rot = unitary_channel(expm_hermitian(SZ, math.pi / 4))
        rates = cross_rates(SPEC_2Q, GROUND, rot, 1, 2, 1.0)
        diss = cross_dissipator(SPEC_2Q, rates, 1, 2, (2, 2))
        x = random_hermitian(rng, (2, 2))
        traced = partial_trace(act(diss, x), keep=[1])
        assert np.max(np.abs(traced.entries)) > 1e-3

    def test_hermiticity_preserving(self, rng):
        rot = unitary_channel(expm_hermitian(SZ, 0.9))
        rates = cross_rates(SPEC_2Q, GROUND, rot, 1, 2, 1.0)
        diss = cross_dissipator(SPEC_2Q, rates, 1, 2, (2, 2))
        x = random_hermitian(rng, (2, 2))
        out = act(diss, x).entries
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="directional"):
            cross_dissipator(SPEC_2Q, np.array([[1.0]]), 2, 1, (2, 2))

    def test_bosonic_ladder_form(self, rng):
        # quadrature couplings with a lossy environment reduce to the
        # ladder-operator cross term gamma*sqrt(kappa)^(d) { a_m [., a_m'^dag] ... }
        d_fock = 4
        kappa = 0.5
        x_op, p_op = position_op(d_fock), momentum_op(d_fock)
        spec = CouplingSpec.uniform([[x_op, p_op], [x_op, p_op]], [x_op, p_op])
        eta = DensityMatrix.ground(d_fock)
        chan = lossy_bosonic_channel(d_fock, kappa)
        gamma = 0.8
        rates = cross_rates(spec, eta, chan, 1, 2, gamma)
        diss = cross_dissipator(spec, rates, 1, 2, (d_fock, d_fock))
        from qcollide.ops import annihilation, embed

        a1 = embed(annihilation(d_fock), (d_fock, d_fock), (0,)).entries
        a2 = embed(annihilation(d_fock), (d_fock, d_fock), (1,)).entries
        pref = gamma * math.sqrt(kappa)
        rho = random_state(rng, (d_fock, d_fock)).entries
        want = pref * (
            (a1 @ rho @ a2.conj().T - a2.conj().T @ a1 @ rho)
            - (rho @ a1.conj().T @ a2 - a2 @ rho @ a1.conj().T)
        )
        got = act(diss, Operator((d_fock, d_fock), rho)).entries
        assert np.max(np.abs(got - want)) <= 1e-12


class TestFullGenerator:
    def test_single_carrier_total_is_local(self):
        gen = full_generator(spec_1q(), GROUND, AD75, 1.0, (2,))
        assert len(gen.local_terms) == 1 and not gen.cross_terms
        assert np.allclose(gen.total.matrix(), gen.local_terms[0].matrix())

    def test_replacer_has_no_cross(self, rng):
        spec = CouplingSpec.uniform([[SX], [SY]], [SX])
        gen = full_generator(spec, GROUND, replacer_channel(GROUND), 1.0, (2, 2))
        assert np.max(np.abs(gen.rates.cross[(1, 2)])) <= 1e-14
        want = gen.local_terms[0].matrix() + gen.local_terms[1].matrix()
        assert np.max(np.abs(gen.total.matrix() - want)) <= 1e-14

    def test_total_matches_independent_assembly(self):
        gen = full_generator(SPEC_2Q, GROUND, AD75, 1.0, (2, 2))
        l1 = local_dissipator(SPEC_2Q, local_rates(SPEC_2Q, GROUND, AD75, 1, 1.0), 1, (2, 2))
        l2 = local_dissipator(SPEC_2Q, local_rates(SPEC_2Q, GROUND, AD75, 2, 1.0), 2, (2, 2))
        d12 = cross_dissipator(SPEC_2Q, cross_rates(SPEC_2Q, GROUND, AD75, 1, 2, 1.0), 1, 2, (2, 2))
        want = l1.matrix() + l2.matrix() + d12.matrix()
        assert np.max(np.abs(gen.total.matrix() - want)) <= 1e-14

    def test_total_is_ordered_sum_of_terms(self):
        spec = CouplingSpec.uniform([[SX], [SZ], [SX]], [SX])
        gen = full_generator(spec, GROUND, AD75, 1.0, (2, 2, 2))
        terms = list(gen.local_terms) + list(gen.cross_terms.values())
        assert list(gen.cross_terms) == [(1, 2), (1, 3), (2, 3)]
        want = terms[0].matrix()
        for term in terms[1:]:
            want = want + term.matrix()
        assert np.max(np.abs(gen.total.matrix() - want)) <= 1e-14
        assert not np.shares_memory(gen.total.matrix(), terms[0].matrix())

    def test_trace_annihilating_and_hermiticity(self, rng):
        rot = unitary_channel(expm_hermitian(SZ, 0.6))
        spec = CouplingSpec(
            system_ops=((SX, SZ), (SY,)),
            env_ops=((SX, SY), (SX,)),
            env_shared=False,
        )
        gen = full_generator(spec, GROUND, rot, 1.0, (2, 2))
        for _ in range(10):
            x = random_hermitian(rng, (2, 2))
            out = act(gen.total, x)
            assert abs(out.trace()) <= 1e-10 * np.linalg.norm(x.entries)
            assert np.max(np.abs(out.entries - out.entries.conj().T)) <= 1e-11


    @pytest.mark.parametrize("n_carriers, applications", [(3, 5), (6, 20), (10, 54)])
    def test_walks_each_orbit_once(self, monkeypatch, n_carriers, applications):
        # one walk of eta's orbit (M - 1 applications) and one of each
        # carrier's stack B_l sigma_m to the last carrier (M(M-1)/2); each
        # rate matrix walking its own orbit took 8, 70 and 330
        calls, apply = [], SandwichForm.apply

        def counted(form, x):
            calls.append(form.side)
            return apply(form, x)

        monkeypatch.setattr(SandwichForm, "apply", counted)
        spec = CouplingSpec.uniform([[SX]] * n_carriers, [SX])
        full_generator(spec, GROUND, lossy_bosonic_channel(2, 0.5), 1.0, (2,) * n_carriers)
        assert len(calls) == applications

    def test_rates_are_those_of_each_rate_matrix_bit_for_bit(self, rng):
        # the same channel applications in the same order as `local_rates`
        # and `cross_rates`, which walk each orbit on their own
        d = 3
        b_ops = [random_hermitian(rng, (d,)) for _ in range(4)]
        spec = CouplingSpec(
            system_ops=((SX, SZ), (SY,), (SX,), (SZ, SY)),
            env_ops=((b_ops[0], b_ops[1]), (b_ops[2],), (b_ops[3],), (b_ops[1], b_ops[2])),
            env_shared=False,
        )
        eta, chan = random_state(rng, (d,)), random_cpt_channel(rng, d, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # nonzero means: the rates are still defined
            gen = full_generator(spec, eta, chan, 0.7, (2,) * 4)
            local = [local_rates(spec, eta, chan, m, 0.7) for m in range(1, 5)]
        for got, want in zip(gen.rates.local, local):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert list(gen.rates.cross) == [(m, mp) for m in range(1, 5) for mp in range(m + 1, 5)]
        for (m, mp), got in gen.rates.cross.items():
            want = cross_rates(spec, eta, chan, m, mp, 0.7)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestReducedDynamics:
    def test_two_carriers_reduced_equals_total(self):
        gen = full_generator(SPEC_2Q, GROUND, AD75, 1.0, (2, 2))
        assert np.allclose(reduced_two_carrier_generator(gen).matrix(), gen.total.matrix())

    def test_three_carrier_pair_trajectory(self, rng):
        spec = CouplingSpec.uniform([[SX]] * 3, [SX])
        gen = full_generator(spec, GROUND, AD75, 1.0, (2, 2, 2))
        red_gen = reduced_two_carrier_generator(gen)
        rho0 = random_state(rng, (2, 2, 2))
        full_traj = integrate(gen.total, rho0, t_end=1.0, dt=2e-3)
        red_traj = reduced_trajectory(full_traj, keep=[1, 2])
        rho12 = DensityMatrix(partial_trace(rho0.op, [0, 1]), atol=1e-8)
        pair_traj = integrate(red_gen, rho12, t_end=1.0, dt=2e-3)
        for a, b in zip(red_traj.states, pair_traj.states):
            assert trace_distance(a, b) <= 1e-9

    def test_product_reduction_to_first_carrier(self, rng):
        gen = full_generator(SPEC_2Q, GROUND, AD75, 1.0, (2, 2))
        red = reduced_two_carrier_generator(gen)
        rho1 = random_state(rng, (2,))
        rho2 = random_state(rng, (2,))
        joint = Operator((2, 2), np.kron(rho1.entries, rho2.entries))
        got = partial_trace(act(red, joint), keep=[0]).entries
        local1 = single_carrier_generator(gen, 1)
        want = act(local1, rho1.op).entries
        assert np.max(np.abs(got - want)) <= 1e-11

    @pytest.mark.parametrize("n_carr", [2, 3])
    def test_reduced_generators_follow_collision_index(self, rng, n_carr):
        # frame-rotated couplings differ per collision: the reduced pieces must
        # use the operators of the collision the set was built at
        dims = (2,) * n_carr
        gen = frame_rotated_generator(n_carr, 4)
        pieces = [((0,), single_carrier_generator(gen, 1))]
        if n_carr == 3:
            pieces.append(((0, 1), reduced_two_carrier_generator(gen)))
        for _ in range(3):
            rho = random_state(rng, dims).op
            out = act(gen.total, rho)
            for keep, piece in pieces:
                got = partial_trace(out, keep=keep).entries
                want = act(piece, partial_trace(rho, keep=keep)).entries
                assert np.max(np.abs(got - want)) <= 1e-12


def projected_choi(total):
    """Choi matrix of L projected off the maximally entangled vector, and the
    max |entry| of the Choi matrix.  A Hermiticity-preserving L generates a CP
    semigroup (is of GKSL form) exactly when the projection is PSD (Wolf,
    Eisert, Cubitt, Cirac, PRL 101, 150402 (2008)).  Reads only the
    column-stacked matrix."""
    side = total.side
    # entry (l*D + k, j*D + i) of the matrix is L(|i><j|)[k, l]; Choi[(k, i), (l, j)]
    choi = total.matrix().reshape((side,) * 4).transpose(1, 3, 0, 2).reshape(side**2, side**2)
    omega = np.eye(side).reshape(-1) / math.sqrt(side)
    proj = np.eye(side**2) - np.outer(omega, omega.conj())
    return proj @ choi @ proj, np.max(np.abs(choi))


CHAIN3 = {
    "scenario": "custom",
    "carrier_dims": [3, 3, 3],
    "env_dim": 3,
    "couplings": {"system": [["x", "p"]] * 3, "environment": ["x", "p"]},
    "eta": "ground",
    "channel": {"kind": "lossy", "dim": 3, "kappa": 0.25},
}


def random_generator(rng, shared):
    """M = 2-3 carriers, random CPT channel, random Hermitian couplings, a
    shared or per-carrier environment list; joint side <= 18."""
    n_carr = int(rng.integers(2, 4))
    dims = tuple(int(d) for d in rng.integers(2, 4, size=n_carr))
    if n_carr == 3:
        dims = (2,) + dims[1:]  # joint side <= 18 keeps the Choi matrix small
    d_env = int(rng.integers(2, 4))
    n_terms = int(rng.integers(1, 3))
    system = [[random_hermitian(rng, (d,)) for _ in range(n_terms)] for d in dims]

    def env_list():
        return [random_hermitian(rng, (d_env,)) for _ in range(n_terms)]

    env = [env_list()] * n_carr if shared else [env_list() for _ in range(n_carr)]
    spec = CouplingSpec(system_ops=system, env_ops=env, env_shared=shared)
    eta, chan = random_state(rng, (d_env,)), random_cpt_channel(rng, d_env)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # random B_l have a first moment
        return full_generator(spec, eta, chan, float(rng.uniform(0.2, 2.0)), dims)


def frame_rotated_generator(n_carr, n):
    """The set of collision n of frame-rotated couplings, which differ per collision."""
    dims = (2,) * n_carr
    chan = lossy_bosonic_channel(2, 0.5)
    sched = HamiltonianSchedule.constant(Operator((2,), 0.7 * SZ.entries))
    cfg = CollisionConfig(
        carrier_dims=dims, env_dim=2, g=1.0, dt=0.25, n_collisions=4, eta=GROUND,
        channel=chan, couplings=CouplingSpec.uniform([[SX]] * n_carr, [SX]),
        local_hamiltonians=(sched,) * n_carr,
    )
    spec = interaction_frame_couplings(cfg)
    return full_generator(spec.at(n), GROUND, chan, 1.0, dims)


class TestGKSLForm:
    """The correlated generator is of Lindblad form: its Kossakowski matrix is
    Hermitian PSD, and independently the projected Choi matrix of `total` is PSD."""

    @staticmethod
    def _check(gen):
        gamma = gen.kossakowski
        scale = np.max(np.abs(gamma))
        assert np.max(np.abs(gamma - gamma.conj().T)) <= 1e-12 * scale
        assert np.linalg.eigvalsh(gamma)[0] >= -1e-12 * scale
        proj, scale = projected_choi(gen.total)
        assert np.max(np.abs(proj - proj.conj().T)) <= 1e-12 * scale
        assert np.linalg.eigvalsh(proj)[0] >= -1e-12 * scale

    @pytest.mark.parametrize("source", BUILTIN_NAMES + ("chain3",))
    def test_builtins(self, source):
        self._check(scenario_generator(load_scenario(CHAIN3 if source == "chain3" else source)))

    def test_random_configs(self, rng):
        for trial in range(12):
            self._check(random_generator(rng, shared=trial % 2 == 0))

    def test_choi_oracle_sees_a_negative_rate(self):
        proj, scale = projected_choi(local_dissipator(spec_1q(), np.array([[-1.0]]), 1, (2,)))
        assert np.linalg.eigvalsh(proj)[0] < -0.5 * scale


class TestMatrixFreeAction:
    """`GeneratorSet.apply` and the local/cross split act as the assembled
    matrices do, on non-Hermitian inputs."""

    @staticmethod
    def _inputs(rng, side, count=2):
        for _ in range(count):
            x = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            yield x / np.max(np.abs(x))

    def _check(self, gen, rng):
        side = gen.total.side
        scale = np.max(np.abs(gen.total.matrix()))
        local, cross = gen._split
        for x in self._inputs(rng, side):
            want = unvec(gen.total.matrix() @ vec(x), side)
            assert np.max(np.abs(gen.apply(x) - want)) <= 1e-13 * scale
            local_sum = sum(unvec(t.matrix() @ vec(x), side) for t in gen.local_terms)
            cross_sum = sum(
                (unvec(t.matrix() @ vec(x), side) for t in gen.cross_terms.values()),
                np.zeros_like(x),
            )
            assert np.max(np.abs(local.apply(x) - local_sum)) <= 1e-13 * scale
            assert np.max(np.abs(cross.apply(x) - cross_sum)) <= 1e-13 * scale

    @pytest.mark.parametrize("source", BUILTIN_NAMES + ("chain3",))
    def test_builtins(self, source, rng):
        self._check(scenario_generator(load_scenario(CHAIN3 if source == "chain3" else source)), rng)

    def test_random_configs(self, rng):
        for trial in range(6):
            self._check(random_generator(rng, shared=trial % 2 == 0), rng)

    @pytest.mark.parametrize("n_carr", [2, 3])
    def test_collision_indexed(self, rng, n_carr):
        gen = frame_rotated_generator(n_carr, 3)
        self._check(gen, rng)
        # the action really follows the collision index
        x = next(self._inputs(rng, gen.total.side, 1))
        other = frame_rotated_generator(n_carr, 1)
        assert np.max(np.abs(gen.apply(x) - other.apply(x))) > 1e-3


class TestSignalingCorrection:
    def test_real_rates_vanish(self, rng):
        rates = cross_rates(SPEC_2Q, GROUND, AD75, 1, 2, 1.0)
        rho = random_state(rng, (2, 2))
        corr = signaling_correction(SPEC_2Q, rates, rho.op, (2, 2))
        assert np.max(np.abs(corr.entries)) <= 1e-14

    def test_closes_reduced_equation(self, rng):
        rot = unitary_channel(expm_hermitian(SZ, math.pi / 4))
        gen = full_generator(SPEC_2Q, GROUND, rot, 1.0, (2, 2))
        local2 = single_carrier_generator(gen, 2)
        for _ in range(5):
            rho = random_state(rng, (2, 2))
            lhs = partial_trace(act(gen.total, rho.op), keep=[1]).entries
            rho2 = partial_trace(rho.op, keep=[1])
            corr = signaling_correction(SPEC_2Q, gen.rates.cross[(1, 2)], rho.op, (2, 2))
            rhs = act(local2, rho2).entries + corr.entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_rate_table_rows(self):
        gen = full_generator(SPEC_2Q, GROUND, AD75, 1.0, (2, 2))
        rows = gen.rates.rate_table_rows()
        assert (1, 1, 0, 0, 1.0, 0.0) in rows
        assert (1, 2, 0, 0, 0.5, 0.0) in rows
