"""Order-by-order expansion of one collision column in the coupling g*dt.

Expanding each collision unitary conjugation as I + s U'_m + s^2 U''_m
(s = g dt) and composing through the column gives, besides the zeroth order
C0 = E^M (E the relaxation channel on the environment factor), three maps on
carriers (x) one environment site: C' (first order), C''a (squared single
collisions) and C''b (ordered pairs of collisions).  The weak-coupling
generator is recovered from their environment traces:

    <C'(rho (x) eta)>_E   = 0                       (zero-mean couplings)
    <C''a(rho (x) eta)>_E = sum_m L_m(rho) / gamma
    <C''b(rho (x) eta)>_E = sum_{m'>m} D_mm'(rho) / gamma

All four orders come from one forward pass over the carriers: the ordered
product prod_m E o (I + s U'_m + s^2 U''_m), kept through s^2, is the
recurrence

    (y0, y1, y2a, y2b) <- (E y0, E(y1 + U'_m y0), E(y2a + U''_m y0), E(y2b + U'_m y1))

started from (x, 0, 0, 0); the pairs m < m' of C''b enter through U'_m' y1.
The exact side of the remainder and step-defect checks is the simulator's
own column (`collision._column`), so those checks test the map `simulate`
runs.  This module verifies the identities numerically and measures the
order of the neglected remainders by halving g.  Every map acts on stacks of
matrices, so materializing a superoperator is just feeding the matrix unit
basis through; no dense superoperator products are ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import DensityMatrix
from .collision import (
    CollisionConfig,
    _column,
    _trace_env,
    _unitary_provider,
    collision_hamiltonian,
)
from .generators import GeneratorSet, full_generator
from .ops import Operator, Superoperator, embed, expm_hermitian


def _frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


# --- batched primitives (arrays shaped (..., D, D)) -------------------------


def _u_prime(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    return -1j * (h @ x - x @ h)


def _u_second(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    h2 = h @ h
    return h @ x @ h - 0.5 * (h2 @ x + x @ h2)


class _ColumnExpansion:
    """Embedded collision Hamiltonians of one column and its expansion orders."""

    def __init__(self, cfg: CollisionConfig, collision_index: int = 1):
        self.cfg = cfg
        self.h = [
            embed(
                collision_hamiltonian(cfg, m, collision_index),
                cfg.joint_dims,
                (m - 1, cfg.n_carriers),
            ).entries
            for m in range(1, cfg.n_carriers + 1)
        ]

    def orders(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(C0 x, C'x, C''a x, C''b x) for a matrix or a stack, in one pass."""
        cfg = self.cfg

        def relax(y):
            return cfg.channel.apply_on_factor(y, cfg.joint_dims, cfg.n_carriers)

        zero = np.zeros_like(x, dtype=complex)
        y0, y1, y2a, y2b = x, zero, zero, zero
        for h in self.h:
            y0, y1, y2a, y2b = (
                relax(y0),
                relax(y1 + _u_prime(h, y0)),
                relax(y2a + _u_second(h, y0)),
                relax(y2b + _u_prime(h, y1)),
            )
        return y0, y1, y2a, y2b


def _matrix_units(side: int) -> np.ndarray:
    """Stack of matrix units enumerated in column-stacking order."""
    units = np.zeros((side * side, side, side), dtype=complex)
    idx = np.arange(side * side)
    units[idx, idx % side, idx // side] = 1.0
    return units


def _materialize(dims: tuple[int, ...], images: np.ndarray) -> Superoperator:
    """Superoperator whose images of the matrix units are `images`."""
    side = math.prod(dims)
    matrix = images.transpose(0, 2, 1).reshape(side * side, side * side).T
    return Superoperator(dims, dims, matrix)


def unitary_expansion_terms(h: Operator) -> tuple[Superoperator, Superoperator]:
    """First and second expansion terms of X -> e^(-isH) X e^(isH) in s:
    U'(X) = -i[H, X] and U''(X) = H X H - (1/2){H^2, X}."""
    units = _matrix_units(h.side)
    return (
        _materialize(h.dims, _u_prime(h.entries, units)),
        _materialize(h.dims, _u_second(h.entries, units)),
    )


def column_expansion(
    cfg: CollisionConfig, collision_index: int = 1
) -> tuple[Superoperator, Superoperator, Superoperator]:
    """Materialize C', C''a and C''b on carriers (x) one environment site."""
    units = _matrix_units(math.prod(cfg.joint_dims))
    _, c1, c2a, c2b = _ColumnExpansion(cfg, collision_index).orders(units)
    return tuple(_materialize(cfg.joint_dims, c) for c in (c1, c2a, c2b))


@dataclass(frozen=True)
class FirstOrderReport:
    residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class SecondOrderReport:
    residual_a: float
    residual_b: float
    tol: float
    passed: bool


def verify_first_order(
    cfg: CollisionConfig, rho: DensityMatrix, tol: float = 1e-12, collision_index: int = 1
) -> FirstOrderReport:
    """Check that the first-order column term disappears under the
    environment trace (it is proportional to the coupling first moments)."""
    joint = np.kron(rho.entries, cfg.eta.entries)
    _, c1, _, _ = _ColumnExpansion(cfg, collision_index).orders(joint)
    residual = _frob(_trace_env(c1, cfg.env_dim))
    return FirstOrderReport(residual=residual, tol=tol, passed=residual <= tol)


def verify_second_order(
    cfg: CollisionConfig,
    rho: DensityMatrix,
    tol: float = 1e-10,
    gen: GeneratorSet | None = None,
    collision_index: int = 1,
) -> SecondOrderReport:
    """Check the identification of the environment-traced second-order terms
    with the local dissipators (a) and the directed cross terms (b).

    For collision-indexed couplings both sides are evaluated at the same
    collision, so the identity is tested per step of the non-uniform model.
    """
    if gen is None:
        gen = full_generator(
            cfg.couplings,
            cfg.eta,
            cfg.channel,
            1.0,
            cfg.carrier_dims,
            collision_index=collision_index,
        )
    scale = 1.0 / gen.rates.gamma
    joint = np.kron(rho.entries, cfg.eta.entries)
    _, _, c2a, c2b = _ColumnExpansion(cfg, collision_index).orders(joint)

    traced_a = _trace_env(c2a, cfg.env_dim)
    local_sum = sum(term.apply(rho.op).entries for term in gen.local_terms)
    residual_a = _frob(traced_a - scale * local_sum)

    traced_b = _trace_env(c2b, cfg.env_dim)
    cross_sum = sum(term.apply(rho.op).entries for term in gen.cross_terms.values())
    residual_b = _frob(traced_b - scale * cross_sum)

    passed = residual_a <= tol and residual_b <= tol
    return SecondOrderReport(residual_a=residual_a, residual_b=residual_b, tol=tol, passed=passed)


# --- remainder orders --------------------------------------------------------


def unitary_remainder(h: Operator, s: float, x: Operator) -> float:
    """Norm of e^(-isH) X e^(isH) minus (I + sU' + s^2 U'')(X); O(s^3)."""
    u = expm_hermitian(h, s).entries
    exact = u @ x.entries @ u.conj().T
    approx = x.entries + s * _u_prime(h.entries, x.entries) + s * s * _u_second(h.entries, x.entries)
    return _frob(exact - approx)


def column_remainder(cfg: CollisionConfig, x: Operator) -> float:
    """Norm of the simulator's column map minus its expansion through order
    (g*dt)^2.

    The zeroth-order term is the M-fold relaxation channel on the
    environment factor (it reduces to the identity only under the
    environment trace).
    """
    u = cfg.g * cfg.dt
    exact = _column(x.entries, cfg, 1, _unitary_provider(cfg))
    c0, c1, c2a, c2b = _ColumnExpansion(cfg).orders(x.entries)
    return _frob(exact - (c0 + u * c1 + u * u * (c2a + c2b)))


def collision_step_defect(
    cfg: CollisionConfig, rho: DensityMatrix, collision_index: int = 1
) -> float:
    """Norm of the one-step finite difference against the weak-coupling
    generator built at gamma = g^2 dt; O(g^3 dt^2)."""
    joint = np.kron(rho.entries, cfg.eta.entries)
    stepped = _trace_env(_column(joint, cfg, collision_index, _unitary_provider(cfg)), cfg.env_dim)
    diff = (stepped - rho.entries) / cfg.dt
    gen = full_generator(
        cfg.couplings,
        cfg.eta,
        cfg.channel,
        cfg.gamma,
        cfg.carrier_dims,
        collision_index=collision_index,
    )
    return _frob(diff - gen.total.apply(rho.op).entries)


@dataclass(frozen=True)
class HalvingReport:
    """Residuals at g and g/2 with their ratios (nominal 8 for O(u^3))."""

    unitary: tuple[float, float, float]
    column: tuple[float, float, float]
    step: tuple[float, float, float]

    def ratios(self) -> dict:
        return {
            "unitary": self.unitary[2],
            "column": self.column[2],
            "step": self.step[2],
        }


def _random_hermitian(rng: np.random.Generator, dims: tuple[int, ...]) -> Operator:
    side = math.prod(dims)
    raw = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    herm = 0.5 * (raw + raw.conj().T)
    return Operator(dims, herm / np.linalg.norm(herm))


def remainder_halving_ratios(cfg: CollisionConfig, seed: int = 0) -> HalvingReport:
    """Measure the remainder decay when g is halved at fixed dt.

    The unitary- and column-level remainders are cubic in g*dt for any
    nonzero coupling, so those ratios sit near 8.  The step-level defect is
    bounded by the same cubic order, but configurations whose odd
    environment moments vanish (e.g. strictly off-diagonal couplings on a
    diagonal relaxation orbit) converge one order faster and show a ratio
    near 16; a ratio of at least ~6 therefore confirms the bound.
    """
    rng = np.random.default_rng(seed)
    half = replace(cfg, g=0.5 * cfg.g)

    h = collision_hamiltonian(cfg, 1, 1)
    x_small = _random_hermitian(rng, h.dims)
    s = cfg.g * cfg.dt
    u_hi = unitary_remainder(h, s, x_small)
    u_lo = unitary_remainder(h, 0.5 * s, x_small)

    x_joint = _random_hermitian(rng, cfg.joint_dims)
    c_hi = column_remainder(cfg, x_joint)
    c_lo = column_remainder(half, x_joint)

    rho = DensityMatrix.maximally_mixed(cfg.carrier_dims)
    mix = 0.35
    bump = _random_hermitian(rng, cfg.carrier_dims)
    candidate = (1 - mix) * rho.entries + mix * (
        bump.entries @ bump.entries.conj().T
    ) / np.trace(bump.entries @ bump.entries.conj().T).real
    rho = DensityMatrix(Operator(cfg.carrier_dims, candidate))
    s_hi = collision_step_defect(cfg, rho)
    s_lo = collision_step_defect(half, rho)

    def _ratio(hi: float, lo: float) -> float:
        return hi / lo if lo > 0 else float("inf")

    return HalvingReport(
        unitary=(u_hi, u_lo, _ratio(u_hi, u_lo)),
        column=(c_hi, c_lo, _ratio(c_hi, c_lo)),
        step=(s_hi, s_lo, _ratio(s_hi, s_lo)),
    )
