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
runs.  Every function here takes one column's couplings: collision-indexed
configurations are resolved first (`cfg.at(n)`).  This module verifies the
identities numerically and measures the order of the neglected remainders
by halving g.  U'_m and U''_m are sandwich forms (`ops.SandwichForm`) on
(carrier m, E), built once per coupling spec (`CouplingSpec.expansion_terms`)
and applied on those factors like the column's collisions.  Every map acts
on stacks of matrices, so the column expansion maps are materialized by
feeding the matrix unit basis through; no dense superoperator products are
ever formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import DensityMatrix
from .collision import (
    CollisionConfig,
    _collision_forms,
    _column,
    collision_hamiltonian,
)
from .generators import GeneratorSet, full_generator
from .ops import Operator, expm_hermitian, trace_out, unitary_expansion_terms


def _frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def _orders(cfg: CollisionConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(C0 x, C'x, C''a x, C''b x) for a matrix or a stack, in one pass over
    the carriers with the expansion forms of their collision Hamiltonians.
    The first carrier meets y1 = y2a = y2b = 0, so only y0 takes its
    products there."""
    dims, env = cfg.joint_dims, cfg.n_carriers
    relax = functools.partial(cfg.channel.form.on_factors, dims=dims, positions=(env,))
    (u1, u2), *later = cfg.couplings.expansion_terms
    y0, y1, y2a = relax(x), relax(u1.on_factors(x, dims, (0, env))), relax(u2.on_factors(x, dims, (0, env)))
    y2b = np.zeros_like(x, dtype=complex)
    for m, (u1, u2) in enumerate(later, start=1):
        y0, y1, y2a, y2b = (
            relax(y0),
            relax(y1 + u1.on_factors(y0, dims, (m, env))),
            relax(y2a + u2.on_factors(y0, dims, (m, env))),
            relax(y2b + u1.on_factors(y1, dims, (m, env))),
        )
    return y0, y1, y2a, y2b


def column_expansion(cfg: CollisionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize C', C''a and C''b on carriers (x) one environment site as
    their column-stacked matrices: column j of each is the image of the j-th
    matrix unit in column-stacking order."""
    side = math.prod(cfg.joint_dims)
    units = np.zeros((side * side, side, side), dtype=complex)
    idx = np.arange(side * side)
    units[idx, idx % side, idx // side] = 1.0
    _, *images = _orders(cfg, units)
    return tuple(c.transpose(0, 2, 1).reshape(side * side, side * side).T for c in images)


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


def traced_orders(cfg: CollisionConfig, rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Environment traces of C', C''a and C''b applied to rho (x) eta, from one
    `_orders` pass; both verify reports can read the same triple."""
    joint = np.kron(rho.entries, cfg.eta.entries)
    _, c1, c2a, c2b = _orders(cfg, joint)
    return tuple(trace_out(c, cfg.joint_dims, range(cfg.n_carriers))[1] for c in (c1, c2a, c2b))


def verify_first_order(
    cfg: CollisionConfig,
    rho: DensityMatrix,
    tol: float = 1e-12,
    orders: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> FirstOrderReport:
    """Check that the first-order column term disappears under the
    environment trace (it is proportional to the coupling first moments).
    `orders` is `traced_orders(cfg, rho)`, computed here when not given."""
    if orders is None:
        orders = traced_orders(cfg, rho)
    residual = _frob(orders[0])
    return FirstOrderReport(residual=residual, tol=tol, passed=residual <= tol)


def verify_second_order(
    cfg: CollisionConfig,
    rho: DensityMatrix,
    tol: float = 1e-10,
    gen: GeneratorSet | None = None,
    orders: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SecondOrderReport:
    """Check the identification of the environment-traced second-order terms
    with the local dissipators (a) and the directed cross terms (b).

    Both generator sides are applied without their matrices: (a) is the
    form of Gamma's block-diagonal part, (b) of its off-diagonal part.  A
    given `gen` is built on `cfg.couplings`, so for collision-indexed
    couplings both sides belong to the same resolved collision `cfg.at(n)`.
    `orders` is as in `verify_first_order`.
    """
    if gen is None:
        gen = full_generator(cfg.couplings, cfg.eta, cfg.channel, 1.0, cfg.carrier_dims)
    if orders is None:
        orders = traced_orders(cfg, rho)
    scale = 1.0 / gen.rates.gamma
    _, traced_a, traced_b = orders
    local, cross = gen._split
    residual_a = _frob(traced_a - scale * local.apply(rho.entries))
    residual_b = _frob(traced_b - scale * cross.apply(rho.entries))
    passed = residual_a <= tol and residual_b <= tol
    return SecondOrderReport(residual_a=residual_a, residual_b=residual_b, tol=tol, passed=passed)


# --- remainder orders --------------------------------------------------------


def unitary_remainder(h: Operator, s: float, x: Operator) -> float:
    """Norm of e^(-isH) X e^(isH) minus (I + sU' + s^2 U'')(X); O(s^3)."""
    u = expm_hermitian(h, s).entries
    exact = u @ x.entries @ u.conj().T
    u1, u2 = unitary_expansion_terms(h)
    approx = x.entries + s * u1.apply(x.entries) + s * s * u2.apply(x.entries)
    return _frob(exact - approx)


def column_remainder(cfg: CollisionConfig, x: Operator, orders: tuple[np.ndarray, ...] | None = None) -> float:
    """Norm of the simulator's column map minus its expansion through order
    (g*dt)^2.

    The zeroth-order term is the M-fold relaxation channel on the
    environment factor (it reduces to the identity only under the
    environment trace).  `orders` is `_orders(cfg, x.entries)`, which does
    not depend on g, computed here when not given.
    """
    if orders is None:
        orders = _orders(cfg, x.entries)
    u = cfg.g * cfg.dt
    exact = _column(x.entries, cfg, _collision_forms(cfg))
    c0, c1, c2a, c2b = orders
    return _frob(exact - (c0 + u * c1 + u * u * (c2a + c2b)))


def collision_step_defect(cfg: CollisionConfig, rho: DensityMatrix) -> float:
    """Norm of the one-step finite difference against the weak-coupling
    generator built at gamma = g^2 dt; O(g^3 dt^2)."""
    joint = np.kron(rho.entries, cfg.eta.entries)
    stepped = trace_out(_column(joint, cfg, _collision_forms(cfg)), cfg.joint_dims, range(cfg.n_carriers))[1]
    diff = (stepped - rho.entries) / cfg.dt
    gen = full_generator(cfg.couplings, cfg.eta, cfg.channel, cfg.gamma, cfg.carrier_dims)
    return _frob(diff - gen.apply(rho.entries))


@dataclass(frozen=True)
class HalvingReport:
    """Residuals at g and g/2 with their ratios (nominal 8 for O(u^3))."""

    unitary: tuple[float, float, float]
    column: tuple[float, float, float]
    step: tuple[float, float, float]


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

    h = collision_hamiltonian(cfg, 1)
    x_small = _random_hermitian(rng, h.dims)
    s = cfg.g * cfg.dt
    u_hi = unitary_remainder(h, s, x_small)
    u_lo = unitary_remainder(h, 0.5 * s, x_small)

    x_joint = _random_hermitian(rng, cfg.joint_dims)
    orders = _orders(cfg, x_joint.entries)
    c_hi = column_remainder(cfg, x_joint, orders)
    c_lo = column_remainder(half, x_joint, orders)

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
