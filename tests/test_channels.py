import math

import numpy as np
import pytest

from conftest import random_cpt_channel, random_hermitian, random_state, random_unitary
from qcollide.channels import (
    STATE_TOL,
    DensityMatrix,
    KrausChannel,
    StateViolation,
    check_states,
    fixed_point_distance,
    identity_channel,
    lossy_bosonic_channel,
    orbit,
    replacer_channel,
    unitary_channel,
    validate_cpt,
)
from qcollide.jsonio import complex_matrix_to_json
from qcollide.ops import Operator, expm_hermitian, pauli, unvec, vec
from qcollide.scenarios import ConfigError, parse_channel
from qcollide.trajectory import SampleRecorder, _hermitian, _real_coordinates

SX, SZ = pauli("x"), pauli("z")


def kraus_apply_oracle(kraus_mats, x):
    return sum(k @ x @ k.conj().T for k in kraus_mats)


def amplitude_damping(p):
    k0 = Operator((2,), np.diag([1.0, math.sqrt(1.0 - p)]))
    k1 = Operator((2,), np.array([[0.0, math.sqrt(p)], [0.0, 0.0]]))
    return KrausChannel((k0, k1))


class TestDensityMatrix:
    def test_valid_state(self):
        DensityMatrix.from_matrix(np.diag([0.25, 0.75]), (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_matrix(np.diag([0.5, 0.75]), (2,))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix.from_matrix(np.diag([1.2, -0.2]), (2,))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix.from_matrix(np.array([[0.5, 0.4], [0.1, 0.5]]), (2,))

    def test_atol_loosens_checks(self):
        rho = np.diag([1.0 + 5e-9, -5e-9])
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(rho, (2,))
        DensityMatrix.from_matrix(rho, (2,), atol=1e-7)

    def test_from_ket_normalizes(self):
        dm = DensityMatrix.from_ket([3.0, 4.0], (2,))
        assert abs(dm.entries[0, 0] - 0.36) < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        for pos in ((0, 0), (0, 1)):
            rho = np.diag([0.5, 0.5]).astype(complex)
            rho[pos] = bad
            with pytest.raises(ValueError):
                DensityMatrix.from_matrix(rho, (2,))


class TestCheckStates:
    """The one state check over a stack: same results and messages as one
    state at a time, first violation by index."""

    def stack(self, rng, n=10, dims=(3, 3)):
        return np.array([random_state(rng, dims).entries for _ in range(n)])

    def test_min_eigenvalues_and_traces_match_one_state_bit_for_bit(self, rng):
        # the check returns the traces; the minimum eigenvalues of the checked
        # rows are the trajectory's, computed when read
        stack = self.stack(rng)
        traces = check_states(stack, 1e-8)
        assert np.array_equal(traces, [complex(np.trace(x)).real for x in stack])
        rows = np.array([_real_coordinates(x) for x in stack])
        recorder = SampleRecorder((3, 3), 1.0)
        recorder.record(range(len(stack)), rows)
        traj = recorder.trajectory([], [])
        checked = _hermitian(rows, 9)
        assert np.array_equal(traj.traces, [complex(np.trace(x)).real for x in checked])
        assert np.array_equal(traj.min_eigenvalues, [np.linalg.eigvalsh(x)[0] for x in checked])

    @pytest.mark.parametrize("atol", [1e-8, STATE_TOL])
    @pytest.mark.parametrize("side", [2, 5, 9])
    def test_cholesky_verdict_is_the_eigenvalue_verdict_at_the_border(self, rng, monkeypatch, atol, side):
        # minimum eigenvalue -atol (1 -+ 1e-3): the factorization alone passes
        # the stack just above the border; just below it, eigvalsh names the row
        eigvalsh, calls = np.linalg.eigvalsh, [0]

        def counted(x):
            calls[0] += 1
            return eigvalsh(x)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for scale, fails in ((1 - 1e-3, False), (1 + 1e-3, True)):
            stack = self.stack(rng, n=6, dims=(side,))
            low = -atol * scale
            spectrum = np.concatenate([[low], rng.uniform(0.1, 1.0, side - 1)])
            spectrum[1:] *= (1 - low) / spectrum[1:].sum()
            u = random_unitary(rng, side)
            stack[4] = (u * spectrum) @ u.conj().T
            assert bool((eigvalsh(stack)[:, 0] < -atol).any()) == fails
            calls[0] = 0
            if fails:
                with pytest.raises(StateViolation, match="minimum eigenvalue -") as info:
                    check_states(stack, atol)
                assert info.value.index == 4
            else:
                check_states(stack, atol)
            assert calls[0] == fails

    def test_no_eigenvalues_for_a_passing_stack(self, rng, monkeypatch):
        stack = self.stack(rng)
        stack[3] = np.diag([1.0] + [0.0] * 8)  # a pure state passes too

        def refused(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        check_states(stack, 1e-8)
        check_states(stack, STATE_TOL)

    @pytest.mark.parametrize(
        "bump, message",
        [
            ((0, 1, 1e-3), "not Hermitian"),
            ((0, 0, 1e-3), "trace"),
            ((0, 0, np.nan), "not Hermitian"),
            ((0, 0, np.inf), "not Hermitian"),
        ],
    )
    def test_first_violation_by_index(self, rng, bump, message):
        stack = self.stack(rng)
        i, j, delta = bump
        stack[4, i, j] += delta
        stack[7, i, j] += delta
        with pytest.raises(StateViolation, match=message) as info:
            check_states(stack, 1e-8)
        assert info.value.index == 4

    @pytest.mark.parametrize(
        "rows",
        [
            {},
            {4: (0, 0, 1e-3)},
            {4: (0, 0, np.nan), 7: (0, 0, 1e-3)},
            {4: (1, 2, np.inf)},
            {2: "negative", 6: (0, 0, 1e-3)},
        ],
    )
    def test_scratch_check_of_a_hermitian_stack_gives_the_full_verdict(self, rng, rows):
        # with a scratch buffer the defect is not computed: on exactly
        # Hermitian stacks, a non-finite entry fails in its place with the
        # same message, and every verdict, index and trace is the full check's
        stack = self.stack(rng)
        for i, bump in rows.items():
            if bump == "negative":
                stack[i] = np.diag([1.2, -0.2] + [0.0] * 7)
                continue
            j, k, delta = bump
            stack[i, j, k] += delta
            stack[i, k, j] = stack[i, j, k].conj()
        scratch = np.full((12, 9, 9), np.nan, dtype=complex)
        outcomes = []
        for args in ((stack, 1e-8), (stack, 1e-8, scratch)):
            try:
                outcomes.append(("pass", check_states(*args).tolist()))
            except StateViolation as exc:
                outcomes.append((str(exc), exc.index))
        assert outcomes[0] == outcomes[1]
        if not rows:
            assert np.array_equal(scratch[: len(stack)], stack + 1e-8 * np.eye(9))
            off = stack.copy()
            off[3, 0, 1] += 1e-3
            check_states(off, 1e-8, scratch)

    def test_negative_eigenvalue_before_a_trace_failure_comes_first(self, rng):
        stack = self.stack(rng, dims=(2,))
        stack[3] = np.diag([1.2, -0.2])
        stack[6, 0, 0] += 1e-3
        with pytest.raises(StateViolation, match="minimum eigenvalue -0.2") as info:
            check_states(stack, 1e-8)
        assert info.value.index == 3

    def test_messages_match_one_state(self, rng):
        for rho in (np.diag([0.5, 0.75]), np.diag([1.2, -0.2]), np.array([[0.5, 0.4], [0.1, 0.5]])):
            with pytest.raises(ValueError) as one:
                DensityMatrix.from_matrix(rho, (2,), atol=1e-8)
            with pytest.raises(StateViolation) as stacked:
                check_states(np.array([np.diag([0.5, 0.5]), rho], dtype=complex), 1e-8)
            assert stacked.value.index == 1
            assert str(stacked.value) == str(one.value)


class TestValidateCPT:
    def test_amplitude_damping_passes(self):
        report = validate_cpt(amplitude_damping(0.3))
        assert report.passed and report.residual < 1e-15

    def test_half_identity_fails(self):
        report = validate_cpt(KrausChannel((Operator((2,), 0.5 * np.eye(2)),)))
        assert not report.passed
        assert abs(report.residual - 0.75) < 1e-14  # 1/4 I vs I

    def test_replacer_to_ground_passes(self):
        # {|0><0|, |0><1|}: sum K^dag K = |0><0| + |1><1| = I
        k0 = Operator((2,), np.array([[1.0, 0.0], [0.0, 0.0]]))
        k1 = Operator((2,), np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert validate_cpt(KrausChannel((k0, k1))).passed

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            KrausChannel(())

    def test_rejects_mixed_sides(self):
        with pytest.raises(ValueError, match="same side"):
            KrausChannel((Operator((2,), np.eye(2)), Operator((3,), np.eye(3))))


class TestApply:
    def test_identity_channel(self, rng):
        x = random_hermitian(rng, (2,))
        assert np.allclose(identity_channel(2).apply(x).entries, x.entries)

    def test_amplitude_damping_coherence(self):
        x = Operator((2,), np.array([[0, 0], [1, 0]]))  # |1><0|
        chan = amplitude_damping(0.75)
        got = chan.apply(x).entries
        want = kraus_apply_oracle([k.entries for k in chan.kraus], x.entries)
        assert np.allclose(got, want)
        assert np.allclose(got, 0.5 * x.entries)

    def test_replacer_sends_to_eta(self, rng):
        eta = random_state(rng, (2,))
        chan = replacer_channel(eta)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = chan.apply(Operator((2,), x)).entries
        want = kraus_apply_oracle([k.entries for k in chan.kraus], x)
        assert np.allclose(got, want)
        assert np.allclose(got, np.trace(x) * eta.entries, atol=1e-12)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            identity_channel(2).apply(Operator((3,), np.eye(3)))

    def test_preserves_trace_arbitrary(self, rng):
        chan = random_cpt_channel(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = chan.apply(Operator((3,), x))
        assert abs(out.trace() - np.trace(x)) <= 1e-12

    def test_preserves_positivity(self, rng):
        chan = random_cpt_channel(rng, 3)
        rho = random_state(rng, (3,))
        out = chan.apply(rho.op)
        assert np.linalg.eigvalsh(out.entries)[0] >= -1e-10


class TestPower:
    """The relaxation orbit M^k(x), k applications of the channel, against
    powers of the superoperator matrix."""

    def test_zeroth_power_is_identity(self, rng):
        chan = random_cpt_channel(rng, 2)
        x = random_hermitian(rng, (2,))
        assert np.array_equal(orbit(chan, x, 0).entries, x.entries)

    def test_unitary_rotation_squares(self, rng):
        theta = 0.37
        u1 = unitary_channel(expm_hermitian(SZ, theta))
        u2 = unitary_channel(expm_hermitian(SZ, 2 * theta))
        p2 = np.linalg.matrix_power(u1.superoperator().matrix, 2)
        for _ in range(3):
            x = random_hermitian(rng, (2,))
            got = orbit(u1, x, 2).entries
            assert np.allclose(got, unvec(p2 @ vec(x.entries), 2), atol=1e-12)
            assert np.allclose(got, u2.apply(x).entries, atol=1e-12)

    def test_replacer_idempotent(self, rng):
        eta = random_state(rng, (2,))
        rep = replacer_channel(eta)
        x = random_state(rng, (2,)).op
        for m in (1, 2, 3, 5):
            assert np.allclose(orbit(rep, x, m).entries, eta.entries, atol=1e-12)
        # oracle: composition of superoperator matrices
        p1 = rep.superoperator().matrix
        assert np.allclose(p1 @ p1, p1, atol=1e-12)

    def test_power_additivity(self, rng):
        chan = random_cpt_channel(rng, 2)
        x = random_hermitian(rng, (2,))
        lhs = orbit(chan, x, 5).entries
        rhs = orbit(chan, orbit(chan, x, 2), 3).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-11
        p5 = np.linalg.matrix_power(chan.superoperator().matrix, 5)
        assert np.max(np.abs(lhs - unvec(p5 @ vec(x.entries), 2))) <= 1e-11

    def test_rejects_negative(self, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            orbit(random_cpt_channel(rng, 2), random_hermitian(rng, (2,)), -1)


class TestLossyBosonic:
    def test_d2_is_amplitude_damping(self):
        kappa = 0.25
        lossy = lossy_bosonic_channel(2, kappa)
        ad = amplitude_damping(1.0 - kappa)
        for got, want in zip(lossy.kraus, ad.kraus):
            assert np.allclose(got.entries, want.entries)

    def test_kappa_one_is_identity(self):
        lossy = lossy_bosonic_channel(4, 1.0)
        assert np.allclose(lossy.kraus[0].entries, np.eye(4))
        for k in lossy.kraus[1:]:
            assert np.allclose(k.entries, 0)

    def test_vacuum_fixed_point(self):
        for kappa in (0.0, 0.3, 0.8, 1.0):
            lossy = lossy_bosonic_channel(4, kappa)
            vac = DensityMatrix.ground(4)
            assert fixed_point_distance(lossy, vac) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("kappa", [0.0, 0.25, 0.5, 1.0])
    def test_cpt_on_truncated_space(self, d, kappa):
        assert validate_cpt(lossy_bosonic_channel(d, kappa)).passed

    def test_binomial_matrix_elements(self):
        d, kappa = 5, 0.37
        lossy = lossy_bosonic_channel(d, kappa)
        for k in range(d):
            for n in range(k, d):
                want = (
                    math.sqrt(math.comb(n, k))
                    * kappa ** ((n - k) / 2)
                    * (1 - kappa) ** (k / 2)
                )
                assert abs(lossy.kraus[k].entries[n - k, n] - want) < 1e-14

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="transmissivity"):
            lossy_bosonic_channel(3, 1.5)
        with pytest.raises(ValueError, match="Fock"):
            lossy_bosonic_channel(1, 0.5)


class TestFixedPointDistance:
    def test_identity_channel_zero(self, rng):
        eta = random_state(rng, (3,))
        assert fixed_point_distance(identity_channel(3), eta) <= 1e-14

    def test_damping_ground_zero(self):
        assert fixed_point_distance(amplitude_damping(0.6), DensityMatrix.ground(2)) <= 1e-14

    def test_damping_excited(self):
        # output diag(0.75, 0.25) vs diag(0, 1): eigenvalues of the difference are +-0.75
        excited = DensityMatrix.from_matrix(np.diag([0.0, 1.0]), (2,))
        got = fixed_point_distance(amplitude_damping(0.75), excited)
        delta = np.diag([0.75, 0.25]) - np.diag([0.0, 1.0])
        want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta)))
        assert abs(got - want) < 1e-14
        assert abs(got - 0.75) < 1e-14


class TestSerialization:
    """Channel dicts of the config format parse to what the factories build."""

    def test_lossy_roundtrip(self):
        back = parse_channel({"kind": "lossy", "dim": 3, "kappa": 0.4})
        for a, b in zip(lossy_bosonic_channel(3, 0.4).kraus, back.kraus, strict=True):
            assert np.array_equal(a.entries, b.entries)

    def test_replacer_roundtrip(self, rng):
        eta = random_state(rng, (2,))
        chan = replacer_channel(eta)
        back = parse_channel({"kind": "replacer", "eta": complex_matrix_to_json(eta.entries)})
        x = random_hermitian(rng, (2,))
        assert np.allclose(chan.apply(x).entries, back.apply(x).entries, atol=1e-12)

    def test_unitary_roundtrip(self, rng):
        u = Operator((2,), random_unitary(rng, 2))
        back = parse_channel({"kind": "unitary", "matrix": complex_matrix_to_json(u.entries)})
        assert np.array_equal(back.kraus[0].entries, unitary_channel(u).kraus[0].entries)

    def test_generic_kraus_roundtrip(self, rng):
        chan = random_cpt_channel(rng, 2)
        back = parse_channel({"kind": "kraus", "operators": [complex_matrix_to_json(k.entries) for k in chan.kraus]})
        x = random_hermitian(rng, (2,))
        assert np.allclose(chan.apply(x).entries, back.apply(x).entries, atol=1e-12)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_channel({"kind": "teleporter"})

    def test_non_cpt_kraus_warns(self):
        payload = {"kind": "kraus", "operators": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}
        with pytest.warns(RuntimeWarning, match="trace preserving"):
            parse_channel(payload)
