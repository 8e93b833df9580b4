"""Correlated Markovian generator built from the collision model's data.

All rates are environment two-point functions evaluated on the relaxation
orbit of the environment input state eta:

    local:  gamma_m[l, l']    = gamma * tr(B_l B_l' M^(m-1)(eta))
    cross:  gamma_mm'[l, l']  = gamma * tr(B_l' M^(m'-m)(B_l M^(m-1)(eta)))

with gamma the continuum rate g^2 dt.  They form one Kossakowski matrix
Gamma over the embedded carrier operators F = (A^1_1 .. A^M_n): diagonal
block m is gamma_m; for m < m', block (m', m) is gamma_mm'^T and block
(m, m') is conj(gamma_mm').  The generator is the one GKSL form

    L(X) = sum_ab Gamma_ab F_b X F_a - K X - X K^dag,   K = sum_ab T_ab F_a F_b,

with T the time-ordered part of Gamma: later-carrier rows whole, diagonal
blocks halved, earlier-carrier rows zero.  Each local and cross term is the
same form on a block of Gamma.  The cross rates make the channel correlated;
their imaginary parts enter only through the anti-Hermitian part of K, the
two-body Hamiltonian sum Im gamma_mm'[l, l'] A^m_l A^m'_l', which lets
earlier carriers steer later ones (see `signaling_correction`).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .channels import DensityMatrix, KrausChannel, fixed_point_distance, orbit
from .collision import CouplingSpec
from .jsonio import write_csv
from .ops import (
    DEFAULT_TOL,
    Operator,
    SandwichForm,
    Superoperator,
    embed,
    max_abs,
    partial_trace,
)

PSD_TOL = 1e-10


def _expect(op: np.ndarray, state: np.ndarray) -> complex:
    return complex(np.einsum("ij,ji->", op, state))


def _warn_if_nonzero_mean(b_ops: Sequence[Operator], sigma: np.ndarray, tol: float = DEFAULT_TOL):
    worst = max(abs(_expect(b.entries, sigma)) for b in b_ops)
    if worst > tol:
        warnings.warn(
            f"environment operators have first moment {worst:.3e} on the relaxation orbit; "
            "the weak-coupling rates are not meaningful",
            RuntimeWarning,
        )


def _two_point_rates(b_ops: Sequence[Operator], sigma: np.ndarray, gamma: float) -> np.ndarray:
    """gamma * tr(B_l B_l' sigma) for every pair (l, l')."""
    n = len(b_ops)
    rates = np.empty((n, n), dtype=complex)
    for l, bl in enumerate(b_ops):
        for lp, blp in enumerate(b_ops):
            rates[l, lp] = gamma * _expect(bl.entries @ blp.entries, sigma)
    return rates


def _propagated_rates(
    b_from: Sequence[Operator],
    b_to: Sequence[Operator],
    sigma: np.ndarray,
    channel: KrausChannel,
    distance: int,
    gamma: float,
) -> np.ndarray:
    """gamma * tr(B'_l' M^distance(B_l sigma)) for every pair (l, l')."""
    rates = np.empty((len(b_from), len(b_to)), dtype=complex)
    for l, bl in enumerate(b_from):
        propagated = orbit(channel, Operator(bl.dims, bl.entries @ sigma), distance).entries
        for lp, blp in enumerate(b_to):
            rates[l, lp] = gamma * _expect(blp.entries, propagated)
    return rates


def local_rates(
    spec: CouplingSpec,
    eta: DensityMatrix,
    channel: KrausChannel,
    m: int,
    gamma: float,
) -> np.ndarray:
    """Hermitian PSD rate matrix of carrier m (verified; violation is a bug)."""
    if not 1 <= m <= spec.n_carriers:
        raise ValueError(f"carrier index {m} out of range")
    b_ops = spec.b_ops(m)
    if b_ops[0].side != eta.side:
        raise ValueError("environment operator side does not match eta")
    sigma = orbit(channel, eta.op, m - 1).entries
    _warn_if_nonzero_mean(b_ops, sigma)
    rates = _two_point_rates(b_ops, sigma, gamma)
    if not np.isfinite(rates).all():
        raise RuntimeError(f"local rate matrix of carrier {m} is not finite")
    if not max_abs(rates - rates.conj().T) <= PSD_TOL:
        raise RuntimeError("local rate matrix is not Hermitian; this indicates a bug")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rates + rates.conj().T))[0])
    if not min_eig >= -PSD_TOL:
        raise RuntimeError(
            f"local rate matrix has negative eigenvalue {min_eig}; this indicates a bug"
        )
    return rates


def cross_rates(
    spec: CouplingSpec,
    eta: DensityMatrix,
    channel: KrausChannel,
    m: int,
    m_prime: int,
    gamma: float,
) -> np.ndarray:
    """Complex cross-rate matrix between carriers m < m'.

    The channel is applied to B_l M^(m-1)(eta), which is generally not
    Hermitian; entry (l, l') is gamma * tr(B_l' M^(m'-m)(B_l M^(m-1)(eta))).
    """
    if m_prime <= m:
        raise ValueError("cross rates are directional: need m' > m")
    if not 1 <= m <= spec.n_carriers or not 1 <= m_prime <= spec.n_carriers:
        raise ValueError("carrier index out of range")
    sigma = orbit(channel, eta.op, m - 1).entries
    return _propagated_rates(spec.b_ops(m), spec.b_ops(m_prime), sigma, channel, m_prime - m, gamma)


def stationary_rates(
    spec: CouplingSpec,
    eta0: DensityMatrix,
    channel: KrausChannel,
    distance: int,
    gamma: float,
    fixed_point_tol: float = 1e-8,
) -> np.ndarray:
    """Cross rates in the stationary regime: they depend only on the carrier
    distance once eta0 is a fixed point of the channel (warned otherwise).

    Local rates in the same regime come from `stationary_local_rates`;
    distance 0 is therefore rejected here.
    """
    if distance < 1:
        raise ValueError("distance must be >= 1; local rates have their own entry point")
    gap = fixed_point_distance(channel, eta0)
    if gap > fixed_point_tol:
        warnings.warn(
            f"eta0 is not a fixed point of the channel (trace distance {gap:.3e}); "
            "stationary rates are only approximate",
            RuntimeWarning,
        )
    b_ops_far = spec.b_ops(min(1 + distance, spec.n_carriers))
    return _propagated_rates(spec.b_ops(1), b_ops_far, eta0.entries, channel, distance, gamma)


def stationary_local_rates(
    spec: CouplingSpec, eta0: DensityMatrix, gamma: float
) -> np.ndarray:
    """Carrier-independent local rate matrix evaluated on the stationary state."""
    return _two_point_rates(spec.b_ops(1), eta0.entries, gamma)


# --- the GKSL form -----------------------------------------------------------


def _kossakowski(
    local: Sequence[np.ndarray], cross: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """Gamma over the operators of the carriers 1..len(local), in carrier order:
    block (m, m) is local[m-1]; for m < m', block (m', m) is cross[m, m']^T and
    block (m, m') is conj(cross[m, m'])."""
    blocks = [[np.zeros((len(a), len(b)), dtype=complex) for b in local] for a in local]
    for m, rates in enumerate(local):
        blocks[m][m] = rates
    for (m, mp), rates in cross.items():
        blocks[mp - 1][m - 1] = rates.T
        blocks[m - 1][mp - 1] = rates.conj()
    return np.block(blocks)


def _gksl(
    spec: CouplingSpec,
    kossakowski: np.ndarray,
    carriers: Sequence[int],
    dims: tuple[int, ...],
    first: int = 1,
) -> SandwichForm:
    """The GKSL form of `kossakowski` (module docstring) on `dims`, over the
    operators of `carriers`, carrier m on factor m - first: the sandwich
    multipliers are S_a = sum_b Gamma_ab F_b."""
    ops, owner = [], []
    for m in carriers:
        for a in spec.a_ops(m):
            ops.append(embed(a, dims, (m - first,)).entries)
            owner.append(m)
    f = np.stack(ops)
    t = kossakowski * ((np.sign(np.subtract.outer(owner, owner)) + 1) / 2)
    sandwich = np.tensordot(kossakowski, f, axes=1)  # sum_b Gamma_ab F_b
    k = np.hstack(f) @ np.vstack(np.tensordot(t, f, axes=1))
    return SandwichForm(dims, sandwich, f, k)


def local_dissipator(
    spec: CouplingSpec,
    rates: np.ndarray,
    m: int,
    carrier_dims: Sequence[int],
) -> Superoperator:
    """Lindblad dissipator of carrier m, embedded on the joint carrier space."""
    rates = np.asarray(rates, dtype=complex)
    if not np.isfinite(rates).all():
        raise ValueError(f"local rate matrix of carrier {m} is not finite")
    if not max_abs(rates - rates.conj().T) <= PSD_TOL:
        raise ValueError("local rate matrix must be Hermitian")
    return _gksl(spec, rates, (m,), tuple(carrier_dims)).superoperator()


def cross_dissipator(
    spec: CouplingSpec,
    rates: np.ndarray,
    m: int,
    m_prime: int,
    carrier_dims: Sequence[int],
) -> Superoperator:
    """Directed cross term coupling carrier m to the later carrier m' > m."""
    if m_prime <= m:
        raise ValueError("cross dissipators are directional: need m' > m")
    rates = np.asarray(rates, dtype=complex)
    zeros = [np.zeros((spec.n_terms(k), spec.n_terms(k))) for k in (m, m_prime)]
    gamma = _kossakowski(zeros, {(1, 2): rates})
    return _gksl(spec, gamma, (m, m_prime), tuple(carrier_dims)).superoperator()


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """All rate matrices of one configuration (units 1/time)."""

    gamma: float
    local: tuple[np.ndarray, ...]
    cross: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "local": list(self.local),
            "cross": [
                {"m": m, "m_prime": mp, "rates": r} for (m, mp), r in sorted(self.cross.items())
            ],
        }

    def rate_table_rows(self) -> list[tuple[int, int, int, int, float, float]]:
        """Rows (m, m', l, l', re, im); local entries carry m' = m."""
        blocks = [((m, m), mat) for m, mat in enumerate(self.local, start=1)]
        return [
            (m, mp, l, lp, float(z.real), float(z.imag))
            for (m, mp), mat in blocks + sorted(self.cross.items())
            for (l, lp), z in np.ndenumerate(mat)
        ]

    def to_csv(self, path) -> None:
        write_csv(path, ["m", "m_prime", "l", "l_prime", "re", "im"], self.rate_table_rows())


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """The rates of one configuration and the generator they define.

    Every generator piece is the GKSL form of a block or a restriction of the
    Kossakowski matrix, built on first access and then kept as a form-backed
    Superoperator: only the form's O(A D^2) multipliers are kept, and its
    D^2 x D^2 matrix is built from them each time it is read.
    """

    carrier_dims: tuple[int, ...]
    spec: CouplingSpec
    rates: CorrelationTensor

    @property
    def n_carriers(self) -> int:
        return len(self.carrier_dims)

    @cached_property
    def kossakowski(self) -> np.ndarray:
        """Gamma over every carrier operator F = (A^1_1 .. A^M_n); Hermitian, and
        PSD by the paper's central claim, which makes `total` a GKSL generator."""
        gamma = _kossakowski(self.rates.local, self.rates.cross)
        gamma.setflags(write=False)
        return gamma

    @cached_property
    def local_terms(self) -> tuple[Superoperator, ...]:
        return tuple(
            local_dissipator(self.spec, rates, m, self.carrier_dims)
            for m, rates in enumerate(self.rates.local, start=1)
        )

    @cached_property
    def cross_terms(self) -> Mapping[tuple[int, int], Superoperator]:
        terms = {
            (m, mp): cross_dissipator(self.spec, rates, m, mp, self.carrier_dims)
            for (m, mp), rates in self.rates.cross.items()
        }
        return MappingProxyType(terms)

    def _form_of(self, kossakowski: np.ndarray) -> SandwichForm:
        carriers = range(1, self.n_carriers + 1)
        return _gksl(self.spec, kossakowski, carriers, self.carrier_dims)

    @cached_property
    def _form(self) -> SandwichForm:
        return self._form_of(self.kossakowski)

    @cached_property
    def _split(self) -> tuple[SandwichForm, SandwichForm]:
        """The forms of Gamma's block-diagonal part (the sum of `local_terms`)
        and of its off-diagonal part (the sum of `cross_terms`); the form is
        linear in Gamma, so the two add up to `total`."""
        owner = np.repeat(np.arange(self.n_carriers), [len(r) for r in self.rates.local])
        same = np.equal.outer(owner, owner)
        return (
            self._form_of(np.where(same, self.kossakowski, 0.0)),
            self._form_of(np.where(same, 0.0, self.kossakowski)),
        )

    @cached_property
    def total(self) -> Superoperator:
        """The whole generator, one form over every carrier operator."""
        return self._form.superoperator()

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The action of `total` on a D x D array, without its matrix:
        O(M n D^3) instead of the D^4 matrix-vector product."""
        return self._form.apply(np.asarray(x))

    def to_dict(self) -> dict:
        """The document of `generators.json`.  Each generator matrix in it is a
        callable that builds it from its form, so `jsonio.write_json` holds one at a time."""
        return {
            "carrier_dims": list(self.carrier_dims),
            "rates": self.rates.to_dict(),
            "local": [partial(getattr, t, "matrix") for t in self.local_terms],
            "cross": [
                {"m": m, "m_prime": mp, "matrix": partial(getattr, t, "matrix")}
                for (m, mp), t in sorted(self.cross_terms.items())
            ],
            "total": partial(getattr, self.total, "matrix"),
        }


def full_generator(
    spec: CouplingSpec,
    eta: DensityMatrix,
    channel: KrausChannel,
    gamma: float,
    carrier_dims: Sequence[int],
) -> GeneratorSet:
    """Every local and ordered cross rate matrix; the generator pieces are
    assembled from them on demand (see `GeneratorSet`).  Collision-indexed
    couplings are resolved first: `full_generator(spec.at(n), ...)`."""
    dims = tuple(carrier_dims)
    n_carr = spec.n_carriers
    if tuple(spec.a_ops(m)[0].side for m in range(1, n_carr + 1)) != dims:
        raise ValueError("carrier_dims must match the coupling spec")
    local = tuple(local_rates(spec, eta, channel, m, gamma) for m in range(1, n_carr + 1))
    cross = {
        (m, mp): cross_rates(spec, eta, channel, m, mp, gamma)
        for m in range(1, n_carr + 1)
        for mp in range(m + 1, n_carr + 1)
    }
    tensor = CorrelationTensor(gamma=gamma, local=local, cross=cross)
    return GeneratorSet(carrier_dims=dims, spec=spec, rates=tensor)


def reduced_two_carrier_generator(gen: GeneratorSet) -> Superoperator:
    """Generator of the reduced dynamics of carriers 1 and 2.

    Tracing the joint generator over carriers 3..M removes every term that
    touches them (local terms are traceless on their own carrier and cross
    terms vanish under the trace over the later carrier), so the pair
    evolves under the form of Gamma restricted to its two carriers.
    """
    if gen.n_carriers < 2:
        raise ValueError("need at least two carriers")
    k = gen.spec.n_terms(1) + gen.spec.n_terms(2)
    pair = _gksl(gen.spec, gen.kossakowski[:k, :k], (1, 2), gen.carrier_dims[:2])
    return pair.superoperator()


def single_carrier_generator(gen: GeneratorSet, m: int) -> Superoperator:
    """Local Lindblad generator of carrier m on its own space."""
    dims = (gen.carrier_dims[m - 1],)
    form = _gksl(gen.spec, gen.rates.local[m - 1], (m,), dims, first=m)
    return form.superoperator()


def signaling_correction(
    spec: CouplingSpec,
    cross_rate_matrix: np.ndarray,
    rho_pair: Operator,
    carrier_dims: Sequence[int],
) -> Operator:
    """Joint-state term in the reduced equation of the later carrier of a pair.

    For a two-carrier state rho the reduced state of carrier 2 obeys
    d rho_2/dt = L_2(rho_2) + 2i sum_{l,l'} Im(gamma_12[l,l'])
                 [ tr_1(A1_l rho), A2_l' ].
    Vanishes when every cross rate is real: the evolution is non-signaling.
    """
    dims = tuple(carrier_dims)
    if len(dims) != 2:
        raise ValueError("the correction is defined for a carrier pair")
    if rho_pair.dims != dims:
        raise ValueError("pair state dims mismatch")
    a1 = spec.a_ops(1)
    a2 = spec.a_ops(2)
    rates = np.asarray(cross_rate_matrix, dtype=complex)
    out = np.zeros((dims[1], dims[1]), dtype=complex)
    for l, al in enumerate(a1):
        im = np.imag(rates[l, :])
        if not np.any(im):
            continue
        a_full = embed(al, dims, (0,))
        phi = partial_trace(a_full @ rho_pair, keep=(1,)).entries
        for lp, alp in enumerate(a2):
            if im[lp] == 0:
                continue
            comm = phi @ alp.entries - alp.entries @ phi
            out += 2j * im[lp] * comm
    return Operator((dims[1],), out)
