import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cpt_channel, random_hermitian
from qcollide.channels import DensityMatrix, KrausChannel
from qcollide.integrator import integrate
from qcollide.perturbation import unitary_expansion_terms
from qcollide.ops import (
    Operator,
    SandwichForm,
    embed,
    expm_hermitian,
    identity,
    kron,
    partial_trace,
    pauli,
    unvec,
    vec,
)

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index-by-index Kronecker product, independent of np.kron."""
    (n, _), (p, _) = a.shape, b.shape
    out = np.zeros((n * p, n * p), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(p):
                for l in range(p):
                    out[i * p + k, j * p + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(entries: np.ndarray, dims, keep) -> np.ndarray:
    """Explicit index-sum partial trace."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    side = math.prod(kept_dims) if kept_dims else 1
    out = np.zeros((side, side), dtype=complex)
    full = entries.reshape(tuple(dims) * 2)
    for idx in np.ndindex(*[dims[i] for i in keep]):
        for jdx in np.ndindex(*[dims[i] for i in keep]):
            total = 0.0 + 0j
            for tdx in np.ndindex(*[dims[i] for i in traced]):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, i in enumerate(keep):
                    row[i], col[i] = idx[pos], jdx[pos]
                for pos, i in enumerate(traced):
                    row[i] = col[i] = tdx[pos]
                total += full[tuple(row) + tuple(col)]
            ri = np.ravel_multi_index(idx, kept_dims) if kept_dims else 0
            ci = np.ravel_multi_index(jdx, kept_dims) if kept_dims else 0
            out[ri, ci] = total
    return out


class TestOperator:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Operator((2,), np.ones((2, 3)))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            Operator((2, 2), np.eye(5))

    def test_entries_readonly(self):
        op = identity((2,))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_hermiticity_query(self, rng):
        h = random_hermitian(rng, (3,))
        assert h.is_hermitian()
        bumped = Operator((3,), h.entries + 1e-8 * 1j * np.eye(3))
        assert not bumped.is_hermitian(tol=1e-10)
        assert bumped.is_hermitian(tol=1e-6)


class TestKron:
    def test_identity_case(self):
        assert np.allclose(kron(identity((2,)), identity((3,))).entries, np.eye(6))

    def test_sz_identity_diagonal(self):
        k = kron(SZ, identity((2,)))
        assert np.allclose(np.diag(k.entries), [1, 1, -1, -1])

    def test_sx_sx_flips_00(self):
        k = kron(SX, SX)
        assert np.allclose(k.entries, kron_oracle(SX.entries, SX.entries))
        ket00 = np.array([1, 0, 0, 0])
        assert np.allclose(k.entries @ ket00, [0, 0, 0, 1])  # |00> -> |11>

    def test_dims_concatenate(self):
        assert kron(identity((2,)), identity((3, 2))).dims == (2, 3, 2)

    def test_associativity(self, rng):
        a = random_hermitian(rng, (2,))
        b = random_hermitian(rng, (3,))
        c = random_hermitian(rng, (2,))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left.entries - right.entries)) <= 1e-13


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        a = random_hermitian(rng, (3,))
        b = random_hermitian(rng, (2,))
        pt = partial_trace(kron(a, b), keep=[0])
        assert np.max(np.abs(pt.entries - a.entries * np.trace(b.entries))) <= 1e-12

    def test_full_trace_of_state(self):
        rho = kron(identity((2,)) * 0.5, identity((2,)) * 0.5)
        pt = partial_trace(rho, keep=[])
        assert pt.entries.shape == (1, 1)
        assert abs(pt.entries[0, 0] - 1.0) < 1e-14

    def test_sx_sx_traces_to_zero(self):
        pt = partial_trace(kron(SX, SX), keep=[0])
        oracle = partial_trace_oracle(kron(SX, SX).entries, (2, 2), [0])
        assert np.allclose(pt.entries, 0)
        assert np.allclose(oracle, 0)

    def test_against_oracle_random(self, rng):
        dims = (2, 3, 2)
        op = random_hermitian(rng, dims)
        for keep in ([0], [1], [2], [0, 2], [0, 1], [1, 2]):
            got = partial_trace(op, keep).entries
            want = partial_trace_oracle(op.entries, dims, keep)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_trace_preserved(self, rng):
        op = random_hermitian(rng, (2, 2, 3))
        pt = partial_trace(op, keep=[1])
        assert abs(pt.trace() - op.trace()) < 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(identity((2, 2)), keep=[5])


def expm_series_oracle(h: np.ndarray, s: float, terms: int = 60) -> np.ndarray:
    out = np.zeros_like(h)
    acc = np.eye(h.shape[0], dtype=complex)
    for k in range(terms):
        out = out + acc
        acc = acc @ ((-1j * s) * h) / (k + 1)
    return out


class TestExpmHermitian:
    def test_zero_time_is_identity(self):
        assert np.allclose(expm_hermitian(SX, 0.0).entries, np.eye(2))

    def test_sx_half_pi(self):
        got = expm_hermitian(SX, np.pi / 2).entries
        assert np.allclose(got, -1j * SX.entries, atol=1e-14)
        assert np.allclose(got, expm_series_oracle(SX.entries, np.pi / 2), atol=1e-13)

    def test_unitarity_random(self, rng):
        h = random_hermitian(rng, (8,), norm=3.0)
        u = expm_hermitian(h, 0.3)
        assert np.max(np.abs(u.entries @ u.entries.conj().T - np.eye(8))) <= 1e-12

    def test_group_property(self, rng):
        h = random_hermitian(rng, (4,), norm=2.0)
        u1 = expm_hermitian(h, 0.4).entries @ expm_hermitian(h, 0.7).entries
        u2 = expm_hermitian(h, 1.1).entries
        assert np.max(np.abs(u1 - u2)) <= 1e-11

    def test_matches_series_random(self, rng):
        h = random_hermitian(rng, (5,), norm=1.5)
        got = expm_hermitian(h, 0.37).entries
        assert np.allclose(got, expm_series_oracle(h.entries, 0.37), atol=1e-12)

    def test_rejects_non_hermitian(self, rng):
        bad = Operator((2,), np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(bad, 1.0)


class TestEmbed:
    def test_single_factor_positions(self, rng):
        op = random_hermitian(rng, (2,))
        full = embed(op, (2, 2, 2), (1,))
        manual = np.kron(np.kron(np.eye(2), op.entries), np.eye(2))
        assert np.allclose(full.entries, manual)

    def test_nonadjacent_pair_action(self, rng):
        op = random_hermitian(rng, (2, 3))
        full = embed(op, (2, 2, 3), (0, 2))
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        t = v.reshape(2, 2, 3)
        a4 = op.entries.reshape(2, 3, 2, 3)
        want = np.einsum("ikIK,IjK->ijk", a4, t).reshape(-1)
        assert np.allclose(full.entries @ v, want)

    def test_identity_on_rest(self, rng):
        op = random_hermitian(rng, (3,))
        full = embed(op, (2, 3), (1,))
        assert np.allclose(
            partial_trace(full, keep=[1]).entries, 2.0 * op.entries
        )

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            embed(identity((3,)), (2, 2), (0,))


class TestApplyOnFactor:
    """A channel's Kraus form on one factor (`KrausChannel.form.on_factors`)
    against the Kraus-sum oracle sum_k embed(K_k) X embed(K_k)^dag; the
    column and row paths both relax the environment this way."""

    @pytest.mark.parametrize("dims", [(2, 3, 2), (4, 4)], ids=["2x3x2", "4x4"])
    @pytest.mark.parametrize("n_kraus", [1, 3])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["matrix", "stack"])
    def test_matches_kraus_sum(self, rng, dims, n_kraus, lead):
        side = math.prod(dims)
        x = rng.normal(size=lead + (side, side)) + 1j * rng.normal(size=lead + (side, side))
        for pos, d in enumerate(dims):
            chan = random_cpt_channel(rng, d, n_kraus)
            big = [embed(k, dims, (pos,)).entries for k in chan.kraus]
            want = sum(k @ x @ k.conj().T for k in big)
            got = chan.form.on_factors(x, dims, (pos,))
            assert got.shape == x.shape
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_rejects_mismatched_factor(self, rng):
        form = random_cpt_channel(rng, 2).form
        with pytest.raises(ValueError, match="factor 1 has dim 3"):
            form.on_factors(np.eye(6), (2, 3), (1,))
        with pytest.raises(ValueError, match="invalid positions"):
            form.on_factors(np.eye(6), (2, 3), (2,))
        with pytest.raises(ValueError, match="factor count"):
            form.on_factors(np.eye(6), (2, 3), (0, 1))
        pair = SandwichForm((2, 2), [np.eye(4)], [np.eye(4)])
        with pytest.raises(ValueError, match="invalid positions"):
            pair.on_factors(np.eye(8), (2, 2, 2), (1, 1))


class TestMultiplierMatrix:
    """The sandwich form's matrix against the kron formula and against
    applying the form directly.  `one_sided` adds a left multiplier X -> L X
    (the pair (L, I)), a right one X -> X R (the pair (I, R)), or the K
    terms X -> -K X - X K^dag ("both")."""

    @pytest.mark.parametrize("side", [1, 5, 6])
    @pytest.mark.parametrize(
        "n_pairs, one_sided",
        [(1, "none"), (3, "none"), (0, "left"), (0, "right"), (0, "both"), (1, "both"),
         (3, "left"), (3, "right")],
    )
    def test_matches_kron_and_direct(self, rng, side, n_pairs, one_sided):
        def rand():
            return rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))

        eye = np.eye(side)
        pairs = [(rand(), rand()) for _ in range(n_pairs)]
        k = rand() if one_sided == "both" else None
        if one_sided == "left":
            pairs.append((rand(), eye))
        if one_sided == "right":
            pairs.append((eye, rand()))
        form = SandwichForm((side,), [l for l, _ in pairs], [r for _, r in pairs], k)
        want = sum((np.kron(r.T, l) for l, r in pairs), np.zeros((side**2, side**2)))
        if k is not None:
            want = want - np.kron(eye, k) - np.kron(k.conj(), eye)
        got = form.matrix()
        assert got.shape == (side**2, side**2)
        assert np.max(np.abs(got - want)) <= 1e-12
        x = rand()
        direct = sum((l @ x @ r for l, r in pairs), np.zeros((side, side)))
        if k is not None:
            direct = direct - k @ x - x @ k.conj().T
        assert np.max(np.abs(unvec(got @ vec(x), side) - direct)) <= 1e-12
        assert np.max(np.abs(form.apply(x) - direct)) <= 1e-12

    @pytest.mark.parametrize("side", [1, 5, 27])
    def test_terms_are_the_ordered_kron_sum_bit_for_bit(self, rng, side):
        def rand():
            return rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))

        pairs = [(rand(), rand()) for _ in range(6)]
        want = np.zeros((side**2, side**2), dtype=complex)
        for l, r in pairs:
            want += np.kron(r.T, l)
        form = SandwichForm((side,), [l for l, _ in pairs], [r for _, r in pairs])
        assert np.array_equal(form.matrix(), want)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SandwichForm((2,), [], [])

    def test_rejects_mixed_sides(self):
        with pytest.raises(ValueError, match="share the side"):
            SandwichForm((2,), [np.eye(2)], [np.eye(2)], np.eye(3))
        with pytest.raises(ValueError, match="pair up"):
            SandwichForm((2,), [np.eye(2)] * 2, [np.eye(2)])


def random_form(rng, dims, kind) -> SandwichForm:
    """A Kraus form, a GKSL form (Hermitian F_a, S_a = sum_b Gamma_ab F_b with
    Gamma PSD, K = (1/2) sum_ab Gamma_ab F_a F_b + iH) or the U'/U'' of a
    random H."""
    side = math.prod(dims)

    def rand(*lead):
        m = rng.normal(size=lead + (side, side)) + 1j * rng.normal(size=lead + (side, side))
        return m / np.linalg.norm(m)

    n = int(rng.integers(1, 4))
    if kind == "kraus":
        ks = rand(n)
        return SandwichForm(dims, ks, ks.conj().swapaxes(-2, -1))
    h = random_hermitian(rng, dims).entries
    if kind == "gksl":
        root = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gamma = root @ root.conj().T / n
        f = rand(n)
        f = f + f.conj().swapaxes(-2, -1)  # Hermitian operators, as on the carriers
        k = 0.5 * np.einsum("ab,aij,bjk->ik", gamma, f, f) + 1j * h
        return SandwichForm(dims, np.tensordot(gamma, f, axes=1), f, k)
    return unitary_expansion_terms(Operator(dims, h))[kind == "u2"]


class TestSandwichForm:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 3)]),
        kind=st.sampled_from(["kraus", "gksl", "u1", "u2"]),
        lead=st.sampled_from([(1,), (4,), (2, 3)]),
    )
    def test_matrix_matches_apply(self, seed, dims, kind, lead):
        rng = np.random.default_rng(seed)
        form = random_form(rng, dims, kind)
        side = math.prod(dims)
        mat = form.matrix()
        stack = rng.normal(size=lead + (side, side)) + 1j * rng.normal(size=lead + (side, side))
        got = form.apply(stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(lead):
            x = stack[idx]
            want = unvec(mat @ vec(x), side)
            assert np.max(np.abs(form.apply(x) - want)) <= 1e-12
            assert np.max(np.abs(got[idx] - want)) <= 1e-12


    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 3), (3, 3)]),
        n_terms=st.integers(0, 4),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
        values=st.sampled_from(["gaussian", "grid"]),
        with_k=st.booleans(),
    )
    def test_matrix_is_the_ordered_kron_sum_bit_for_bit(self, seed, dims, n_terms, density, values, with_k):
        # sparse and dense multipliers, and "grid" values such as 1 - 0j and
        # -0 - 1j whose products carry signed zeros: the int64 view compares
        # every bit, so a dropped zero product must not change a sign
        rng = np.random.default_rng(seed)
        side = math.prod(dims)
        grid = np.array([1, -1, 1j, -1j, 1 + 1j, -1 - 1j, complex(-0.0, 1), complex(1, -0.0),
                         complex(-0.0, -1), complex(-1, -0.0), 0.5 - 0.25j])

        def mats(n):
            shape = (n, side, side)
            if values == "gaussian":
                m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            else:
                m = rng.choice(grid, size=shape)
            zero = rng.choice(np.array([0j, complex(-0.0, -0.0), complex(0.0, -0.0)]), size=shape)
            return np.where(rng.random(shape) < density, m, zero)

        if n_terms == 0 and not with_k:
            n_terms = 1
        sandwich, ops = mats(n_terms), mats(n_terms)
        k = mats(1)[0] + np.eye(side) if with_k else None
        form = SandwichForm(dims, sandwich, ops, k)
        want = np.zeros((side**2, side**2), dtype=complex)
        for s_a, f_a in zip(sandwich, ops):
            want += np.kron(f_a.T, s_a)
        if k is not None:
            eye = np.eye(side)
            want -= np.kron(eye, k)
            want -= np.kron(k.conj(), eye)
        assert np.array_equal(form.matrix().view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("where", ["sandwich", "ops", "k"])
    def test_non_finite_multiplier_gives_a_non_finite_matrix(self, bad, where):
        # the bad entry's partner is zero but for one entry in the first
        # term and wholly zero in the second, so a sum over the products of
        # nonzero entries alone would drop it; it meets every entry of its
        # partner instead, zeros too, as in np.kron
        multipliers = {name: np.zeros((2, 3, 3), dtype=complex) for name in ("sandwich", "ops")}
        for mats in multipliers.values():
            mats[0, 1, 2] = 0.5j
        k = np.eye(3, dtype=complex)
        if where == "k":
            k[0, 1] = bad
        else:
            multipliers[where][:, 2, 0] = bad
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(SandwichForm((3,), **multipliers, k=k).matrix()).all()
            if where == "k":
                return
            want = sum(np.kron(f.T, s) for s, f in zip(multipliers["sandwich"], multipliers["ops"]))
            got = SandwichForm((3,), **multipliers).matrix()
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


def random_factor_form(rng, dims, kind, n_terms=2) -> SandwichForm:
    """A form with random complex multipliers of unit norm: a sandwich and
    no K ("sandwich"), K only ("k"), or both."""
    side = math.prod(dims)

    def mats(n):
        m = rng.normal(size=(n, side, side)) + 1j * rng.normal(size=(n, side, side))
        return m / np.linalg.norm(m, axis=(-2, -1), keepdims=True)

    pairs = (mats(n_terms), mats(n_terms)) if kind != "k" else ([], [])
    return SandwichForm(dims, *pairs, None if kind == "sandwich" else mats(1)[0])


def embedded_form(form, full_dims, positions) -> SandwichForm:
    """The form with every multiplier embedded into `full_dims`."""
    def up(a):
        return embed(Operator(form.dims, a), full_dims, positions).entries

    k = None if form.k is None else up(form.k)
    return SandwichForm(full_dims, [up(a) for a in form.sandwich], [up(a) for a in form.ops], k)


class TestOnFactors:
    """`on_factors` against the same form with embedded multipliers applied
    on the whole space."""

    def check(self, rng, dims, positions, kind, lead):
        form = random_factor_form(rng, tuple(dims[p] for p in positions), kind)
        side = math.prod(dims)
        x = rng.normal(size=lead + (side, side)) + 1j * rng.normal(size=lead + (side, side))
        x /= np.linalg.norm(x)
        got = form.on_factors(x, dims, positions)
        want = embedded_form(form, dims, positions).apply(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
        data=st.data(),
        kind=st.sampled_from(["sandwich", "k", "both"]),
        lead=st.sampled_from([(), (3,)]),
    )
    def test_matches_embedded_form(self, seed, dims, data, kind, lead):
        order = data.draw(st.permutations(range(len(dims))))
        positions = tuple(order[: data.draw(st.integers(1, len(dims)))])
        self.check(np.random.default_rng(seed), dims, positions, kind, lead)

    @pytest.mark.parametrize(
        "positions", [(0, 1), (1, 2), (0, 2), (2, 0), (2, 1, 0), (1,)],
        ids=["adjacent", "trailing", "non-adjacent", "reversed", "all-reversed", "middle"],
    )
    @pytest.mark.parametrize("kind", ["sandwich", "k", "both"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    def test_position_patterns(self, rng, positions, kind, lead):
        self.check(rng, (2, 3, 4), positions, kind, lead)

    def test_all_factors_in_order_is_apply(self, rng):
        # a form on every factor, in order, moves no axis: the products are
        # those of `apply`, bit for bit
        form = random_factor_form(rng, (2, 3), "both")
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert np.array_equal(form.on_factors(x, (2, 3), (0, 1)), form.apply(x))


class TestFactorRoute:
    """`on_factors` takes its factor route, one product with the form's
    P^2 x P^2 matrix, exactly when P <= 2 (A + 1 if K) and P^4 <= D^2, and
    that route equals the product route, the same form with embedded
    multipliers applied on the whole space, within 1e-14 max|x|."""

    @staticmethod
    def forms(rng, dims, kind, n_kraus):
        if kind == "kraus":
            side = math.prod(dims)
            kraus = [k.entries for k in random_cpt_channel(rng, side, n_kraus).kraus]
            return [SandwichForm(dims, kraus, [k.conj().T for k in kraus])]
        return list(unitary_expansion_terms(random_hermitian(rng, dims)))  # U' and U''

    def check(self, rng, dims, positions, kind, lead, n_kraus=2):
        full = math.prod(dims)
        x = rng.normal(size=lead + (full, full)) + 1j * rng.normal(size=lead + (full, full))
        routes = []
        for form in self.forms(rng, tuple(dims[p] for p in positions), kind, n_kraus):
            terms = len(form.sandwich) + (form.k is not None)
            factor = form.side <= 2 * terms and form.side**4 <= full**2
            got = form.on_factors(x, dims, positions)
            want = embedded_form(form, dims, positions).apply(x)
            assert ("_factor_matrix" in vars(form)) == factor
            assert got.shape == x.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(x))
            routes.append(factor)
        return routes

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple).filter(lambda d: math.prod(d) <= 96),
        data=st.data(),
        kind=st.sampled_from(["kraus", "expansion"]),
        n_kraus=st.integers(1, 4),
        lead=st.sampled_from([(), (3,), (2, 2)]),
    )
    def test_equals_product_route(self, seed, dims, data, kind, n_kraus, lead):
        order = data.draw(st.permutations(range(len(dims))))
        positions = tuple(order[: data.draw(st.integers(1, 2))])
        self.check(np.random.default_rng(seed), dims, positions, kind, lead, n_kraus)

    @pytest.mark.parametrize(
        "dims, positions, kind, n_kraus, routes",
        [
            ((3, 3, 3, 3), (3,), "kraus", 3, [True]),  # the chain's relaxation
            ((2, 4, 2), (1,), "kraus", 2, [True]),
            ((2, 4, 2), (1,), "kraus", 1, [False]),  # P = 4 > 2 A
            ((2, 2, 2, 2), (3, 1), "expansion", 0, [False, True]),  # U'' on two qubits, reversed
            ((2, 3, 2, 2), (2, 0), "expansion", 0, [False, True]),
            ((2, 2, 3), (1,), "expansion", 0, [True, True]),  # U' on one qubit
            ((3, 3, 3), (2, 0), "expansion", 0, [False, False]),  # P = 9 > 2 (A + 1)
            ((2, 2, 8), (2,), "kraus", 8, [False]),  # d_e^4 > D^2
        ],
    )
    @pytest.mark.parametrize("lead", [(), (4,)], ids=["matrix", "stack"])
    def test_route_cases(self, rng, dims, positions, kind, n_kraus, routes, lead):
        assert self.check(rng, dims, positions, kind, lead, n_kraus) == routes


class TestSuperoperator:
    def test_vec_unvec_roundtrip(self, rng):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(unvec(vec(x), 3), x)

    def test_vec_is_column_stacking(self):
        x = np.array([[1, 2], [3, 4]])
        assert np.allclose(vec(x), [1, 3, 2, 4])

    def test_commutator_superop(self, rng):
        h = random_hermitian(rng, (4,))
        x = random_hermitian(rng, (4,))
        form = SandwichForm(h.dims, [], [], 1j * h.entries)  # X -> -i[h, X]
        want = h.entries @ x.entries - x.entries @ h.entries
        assert np.allclose(1j * unvec(form.matrix() @ vec(x.entries), 4), want)
        assert np.allclose(1j * form.apply(x.entries), want)

    def test_kraus_superop_matches_sandwich_sum(self, rng):
        ks = [random_hermitian(rng, (3,)) for _ in range(2)]
        x = random_hermitian(rng, (3,))
        got = KrausChannel(tuple(ks)).form.apply(x.entries)
        want = sum(k.entries @ x.entries @ k.entries.conj().T for k in ks)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_package_root_exports_the_form(self):
        import qcollide

        assert qcollide.SandwichForm is SandwichForm and not hasattr(qcollide, "Superoperator")

    def test_apply_preserves_side(self, rng):
        form = SandwichForm((2, 3), [np.eye(6)], [np.eye(6)])
        x = random_hermitian(rng, (2, 3))
        assert form.side == 6 and form.apply(x.entries).shape == (6, 6)

    def test_rejects_bad_matrix_shape(self):
        # a generator given as a matrix must be (D^2, D^2) for rho0's side D
        rho0 = DensityMatrix.ground(2)
        for bad in (np.eye(3), np.eye(8), np.zeros((4, 16))):
            with pytest.raises(ValueError, match=rf"the generator acts on shape \({bad.shape[0]}, "):
                integrate(bad, rho0, 1.0, 0.1)
        with pytest.raises(ValueError, match="the generator acts on side 3, rho0 on side 2"):
            integrate(np.eye(9), rho0, 1.0, 0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 3)]),
        kind=st.sampled_from(["kraus", "gksl", "u1", "u2"]),
    )
    def test_form_backed_superoperator_keeps_the_form(self, seed, dims, kind):
        # the form builds a fresh matrix on every call and keeps only its
        # multipliers; applied through that matrix it gives the same map
        rng = np.random.default_rng(seed)
        form = random_form(rng, dims, kind)
        first, second = form.matrix(), form.matrix()
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first.view(np.int64), second.view(np.int64))
        assert set(vars(form)) == {"dims", "sandwich", "ops", "k"}
        x = random_hermitian(rng, dims)
        via_matrix = unvec(first @ vec(x.entries), form.side)
        assert np.max(np.abs(form.apply(x.entries) - via_matrix)) <= 1e-12
        with pytest.raises(AttributeError):
            form.dims = (1,)
