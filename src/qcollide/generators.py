"""Correlated Markovian generator built from the collision model's data.

The generator on the joint carrier space is a sum of local Lindblad terms,
one per carrier, plus directed two-body cross terms for every ordered pair
m < m'.  All rates are environment two-point functions evaluated on the
relaxation orbit of the environment input state eta:

    local:  gamma_m[l, l']    = gamma * tr(B_l B_l' M^(m-1)(eta))
    cross:  gamma_mm'[l, l']  = gamma * tr(B_l' M^(m'-m)(B_l M^(m-1)(eta)))

with gamma the continuum rate g^2 dt.  The cross rates are what make the
channel correlated; their imaginary parts are what allows earlier carriers
to steer later ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import DensityMatrix, KrausChannel, fixed_point_distance, power
from .collision import CouplingSpec
from .ops import (
    DEFAULT_TOL,
    Operator,
    Superoperator,
    embed,
    max_abs,
    multiplier_matrix,
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
    orbit = power(channel, distance)
    rates = np.empty((len(b_from), len(b_to)), dtype=complex)
    for l, bl in enumerate(b_from):
        propagated = orbit.apply(Operator(bl.dims, bl.entries @ sigma)).entries
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
    sigma = power(channel, m - 1).apply(eta.op).entries
    _warn_if_nonzero_mean(b_ops, sigma)
    rates = _two_point_rates(b_ops, sigma, gamma)
    if max_abs(rates - rates.conj().T) > PSD_TOL:
        raise RuntimeError("local rate matrix is not Hermitian; this indicates a bug")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rates + rates.conj().T))[0])
    if min_eig < -PSD_TOL:
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
    sigma = power(channel, m - 1).apply(eta.op).entries
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


# --- dissipators ------------------------------------------------------------


def _contract(rates: np.ndarray, ops: Sequence[np.ndarray]) -> list[np.ndarray]:
    """sum_l' rates[l, l'] ops[l'] for every l."""
    return list(np.tensordot(rates, np.stack(ops), axes=1))


def _lindblad_matrix(a_ops: Sequence[np.ndarray], rates: np.ndarray) -> np.ndarray:
    """(1/2) sum_{l,l'} rates[l,l'] (2 A_l' X A_l - A_l A_l' X - X A_l A_l')
    = sum_l B_l X A_l - (K X + X K)/2, B_l = sum_l' rates[l,l'] A_l', K = sum_l A_l B_l."""
    b_ops = _contract(rates, a_ops)
    k = -0.5 * sum(al @ bl for al, bl in zip(a_ops, b_ops))
    return multiplier_matrix(list(zip(b_ops, a_ops)), k, k)


def _cross_matrix(
    a_m: Sequence[np.ndarray], a_mp: Sequence[np.ndarray], rates: np.ndarray
) -> np.ndarray:
    """sum_{l,l'} rates[l,l'] A^m_l [X, A^m'_l'] - conj(rates[l,l']) [X, A^m'_l'] A^m_l
    = sum_l (A_l X C_l + C~_l X A_l) - (sum_l A_l C_l) X - X (sum_l C~_l A_l),
    with C_l = sum_l' rates[l,l'] A^m'_l' and C~_l the same with conj(rates)."""
    c_ops = _contract(rates, a_mp)
    c_conj = _contract(rates.conj(), a_mp)
    pairs = list(zip(a_m, c_ops)) + list(zip(c_conj, a_m))
    left = -sum(al @ cl for al, cl in zip(a_m, c_ops))
    right = -sum(cl @ al for al, cl in zip(a_m, c_conj))
    return multiplier_matrix(pairs, left, right)


def _embedded_a_ops(
    spec: CouplingSpec, m: int, carrier_dims: Sequence[int], n: int | None = None
) -> list[np.ndarray]:
    dims = tuple(carrier_dims)
    return [embed(a, dims, (m - 1,)).entries for a in spec.a_ops(m, n)]


def local_dissipator(
    spec: CouplingSpec,
    rates: np.ndarray,
    m: int,
    carrier_dims: Sequence[int],
    collision_index: int | None = None,
) -> Superoperator:
    """Lindblad dissipator of carrier m, embedded on the joint carrier space."""
    rates = np.asarray(rates, dtype=complex)
    if max_abs(rates - rates.conj().T) > PSD_TOL:
        raise ValueError("local rate matrix must be Hermitian")
    dims = tuple(carrier_dims)
    a_ops = _embedded_a_ops(spec, m, dims, collision_index)
    return Superoperator(dims, dims, _lindblad_matrix(a_ops, rates))


def cross_dissipator(
    spec: CouplingSpec,
    rates: np.ndarray,
    m: int,
    m_prime: int,
    carrier_dims: Sequence[int],
    collision_index: int | None = None,
) -> Superoperator:
    """Directed cross term coupling carrier m to the later carrier m' > m."""
    if m_prime <= m:
        raise ValueError("cross dissipators are directional: need m' > m")
    rates = np.asarray(rates, dtype=complex)
    dims = tuple(carrier_dims)
    a_m = _embedded_a_ops(spec, m, dims, collision_index)
    a_mp = _embedded_a_ops(spec, m_prime, dims, collision_index)
    return Superoperator(dims, dims, _cross_matrix(a_m, a_mp, rates))


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
        rows = []
        for m, mat in enumerate(self.local, start=1):
            for l in range(mat.shape[0]):
                for lp in range(mat.shape[1]):
                    rows.append((m, m, l, lp, float(mat[l, lp].real), float(mat[l, lp].imag)))
        for (m, mp), mat in sorted(self.cross.items()):
            for l in range(mat.shape[0]):
                for lp in range(mat.shape[1]):
                    rows.append((m, mp, l, lp, float(mat[l, lp].real), float(mat[l, lp].imag)))
        return rows


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Local and cross generator pieces on the joint carrier space, plus their sum."""

    carrier_dims: tuple[int, ...]
    spec: CouplingSpec
    rates: CorrelationTensor
    local_terms: tuple[Superoperator, ...]
    cross_terms: dict[tuple[int, int], Superoperator]
    total: Superoperator

    @property
    def n_carriers(self) -> int:
        return len(self.carrier_dims)

    def to_dict(self) -> dict:
        return {
            "carrier_dims": list(self.carrier_dims),
            "rates": self.rates.to_dict(),
            "local": [t.matrix for t in self.local_terms],
            "cross": [
                {"m": m, "m_prime": mp, "matrix": t.matrix}
                for (m, mp), t in sorted(self.cross_terms.items())
            ],
            "total": self.total.matrix,
        }


def full_generator(
    spec: CouplingSpec,
    eta: DensityMatrix,
    channel: KrausChannel,
    gamma: float,
    carrier_dims: Sequence[int],
    collision_index: int | None = None,
) -> GeneratorSet:
    """Assemble every local term and every ordered cross term."""
    dims = tuple(carrier_dims)
    n_carr = spec.n_carriers
    if len(dims) != n_carr:
        raise ValueError("carrier_dims must match the coupling spec")
    locals_list = []
    local_rate_list = []
    for m in range(1, n_carr + 1):
        rates = local_rates(spec, eta, channel, m, gamma)
        local_rate_list.append(rates)
        locals_list.append(local_dissipator(spec, rates, m, dims, collision_index))
    cross_rate_map: dict[tuple[int, int], np.ndarray] = {}
    cross_map: dict[tuple[int, int], Superoperator] = {}
    for m in range(1, n_carr + 1):
        for mp in range(m + 1, n_carr + 1):
            rates = cross_rates(spec, eta, channel, m, mp, gamma)
            cross_rate_map[(m, mp)] = rates
            cross_map[(m, mp)] = cross_dissipator(spec, rates, m, mp, dims, collision_index)
    terms = locals_list + list(cross_map.values())
    total = terms[0].matrix.copy()
    for term in terms[1:]:
        total += term.matrix
    tensor = CorrelationTensor(gamma=gamma, local=tuple(local_rate_list), cross=cross_rate_map)
    return GeneratorSet(
        carrier_dims=dims,
        spec=spec,
        rates=tensor,
        local_terms=tuple(locals_list),
        cross_terms=cross_map,
        total=Superoperator(dims, dims, total),
    )


def reduced_two_carrier_generator(gen: GeneratorSet) -> Superoperator:
    """Generator of the reduced dynamics of carriers 1 and 2.

    Tracing the joint generator over carriers 3..M removes every term that
    touches them (local terms are traceless on their own carrier and cross
    terms vanish under the trace over the later carrier), so the pair
    evolves under L_1 + L_2 + D_12 rebuilt on the two-carrier space.
    """
    if gen.n_carriers < 2:
        raise ValueError("need at least two carriers")
    if gen.n_carriers == 2:
        return gen.total
    dims = gen.carrier_dims[:2]
    l1 = local_dissipator(gen.spec, gen.rates.local[0], 1, dims)
    l2 = local_dissipator(gen.spec, gen.rates.local[1], 2, dims)
    d12 = cross_dissipator(gen.spec, gen.rates.cross[(1, 2)], 1, 2, dims)
    return l1 + l2 + d12


def single_carrier_generator(gen: GeneratorSet, m: int) -> Superoperator:
    """Local Lindblad generator of carrier m on its own space."""
    dims = (gen.carrier_dims[m - 1],)
    a_ops = [a.entries for a in gen.spec.a_ops(m)]
    return Superoperator(dims, dims, _lindblad_matrix(a_ops, gen.rates.local[m - 1]))


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
