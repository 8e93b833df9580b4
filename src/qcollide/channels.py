"""CPT maps in Kraus form, density matrices, and the built-in environments.

The relaxation channel acting on a sub-environment between collisions is
always represented by a finite Kraus list and applied as its Kraus sandwich
form (`KrausChannel.form`), on its own or on one factor of a larger space;
its superoperator matrix is built only when asked for.  The relaxation
orbit M^k(x) is k applications (`orbit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ops import (
    DEFAULT_TOL,
    Operator,
    SandwichForm,
    Superoperator,
    hermitize,
    max_abs,
)

STATE_TOL = 1e-10


class StateViolation(ValueError):
    """Row `index` of a checked stack is not a state; the message says why."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def check_states(stack: np.ndarray, atol: float = STATE_TOL, scratch: np.ndarray | None = None) -> np.ndarray:
    """The one state check, over an (n, D, D) stack: Hermiticity within
    max(atol, DEFAULT_TOL), then |trace - 1| <= atol, then minimum
    eigenvalue >= -atol.  Returns the traces, or raises StateViolation for
    the first row that fails a check, with that check's message.
    Comparisons are written so that NaN fails them.  Positivity of the rows
    before the first Hermiticity or trace failure is certified by one
    batched Cholesky factorization of X + atol I, which exists exactly when
    the minimum eigenvalue is above -atol, up to a rounding of the order of
    D eps; only when it fails does one batched eigvalsh name the first row
    below -atol.

    `DensityMatrix` runs the full check on arbitrary input.  The one other
    caller, `trajectory.SampleRecorder`, checks recorded samples, exactly
    Hermitian by construction (`trajectory._hermitian` builds them from the
    same entry pairs), and passes `scratch`, a reused complex buffer of at
    least n (D, D) matrices: the Hermiticity defect is then not computed, a
    row with a non-finite entry fails in its place with the same message,
    and X + atol I is written into `scratch`.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and fails below
        if scratch is None:
            defect = np.abs(stack - stack.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
            not_hermitian = ~(defect <= max(atol, DEFAULT_TOL))
        else:
            not_hermitian = ~np.isfinite(stack).all(axis=(-2, -1))
        traces = np.trace(stack, axis1=-2, axis2=-1)
    bad = not_hermitian | ~(np.abs(traces - 1.0) <= atol)
    first = int(np.argmax(bad)) if bad.any() else len(stack)
    shift = atol * np.eye(stack.shape[-1])
    shifted = stack[:first] + shift if scratch is None else np.add(stack[:first], shift, out=scratch[:first])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        min_eigs = np.linalg.eigvalsh(stack[:first])[:, 0]
        negative = ~(min_eigs >= -atol)
        if negative.any():
            i = int(np.argmax(negative))
            raise StateViolation(i, f"minimum eigenvalue {float(min_eigs[i])} below -{atol}") from None
    if first < len(stack):
        if not_hermitian[first]:
            raise StateViolation(first, "density matrix is not Hermitian within tolerance")
        raise StateViolation(first, f"trace {complex(traces[first])} is not 1 within {atol}")
    return traces.real


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Operator constrained to be a valid quantum state.

    `atol` loosens the Hermiticity/trace/positivity checks, e.g. for states
    produced by numerical integration.  Construction runs the one state
    check (`check_states`) on a stack of one.
    """

    op: Operator
    atol: float = STATE_TOL

    def __post_init__(self):
        check_states(self.op.entries[None], self.atol)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def side(self) -> int:
        return self.op.side

    @classmethod
    def from_matrix(cls, entries, dims: Sequence[int], atol: float = STATE_TOL) -> "DensityMatrix":
        return cls(Operator(tuple(dims), entries), atol)

    @classmethod
    def from_ket(cls, ket, dims: Sequence[int]) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex)
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise ValueError("zero vector is not a state")
        ket = ket / norm
        return cls(Operator(tuple(dims), np.outer(ket, ket.conj())))

    @classmethod
    def ground(cls, dim: int) -> "DensityMatrix":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(Operator((dim,), rho))

    @classmethod
    def maximally_mixed(cls, dims: Sequence[int]) -> "DensityMatrix":
        dims = tuple(dims)
        side = math.prod(dims)
        return cls(Operator(dims, np.eye(side) / side))

    def __repr__(self):  # pragma: no cover
        return f"DensityMatrix(dims={self.dims})"


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPT map as a finite Kraus-operator list.

    Construction only checks shapes; completeness is reported by
    `validate_cpt` so that broken channels can still be inspected.
    Every application goes through the Kraus form X -> sum_k K_k X K_k^dag
    (`form`), built once per channel.
    """

    kraus: tuple[Operator, ...]

    def __post_init__(self):
        kraus = tuple(self.kraus)
        if not kraus:
            raise ValueError("Kraus list must be nonempty")
        side = kraus[0].side
        if any(k.side != side for k in kraus):
            raise ValueError("Kraus operators must all have the same side")
        object.__setattr__(self, "kraus", kraus)

    @property
    def side(self) -> int:
        return self.kraus[0].side

    @property
    def dims(self) -> tuple[int, ...]:
        return self.kraus[0].dims

    @cached_property
    def form(self) -> SandwichForm:
        """X -> sum_k K_k X K_k^dag as a sandwich form on the channel's space."""
        kraus = [k.entries for k in self.kraus]
        return SandwichForm(self.dims, kraus, [k.conj().T for k in kraus])

    @cached_property
    def completeness(self) -> np.ndarray:
        """Q = sum_k K_k^dag K_k, summed in Kraus order (read-only); the
        identity exactly when the channel is trace preserving."""
        q = np.zeros((self.side, self.side), dtype=complex)
        for k in self.kraus:
            q += k.entries.conj().T @ k.entries
        q.setflags(write=False)
        return q

    def apply(self, x: Operator) -> Operator:
        """sum_k K_k x K_k^dag; x need not be a state."""
        if x.side != self.side:
            raise ValueError(f"operator side {x.side} does not match channel side {self.side}")
        return Operator(x.dims, self.form.apply(x.entries))

    def superoperator(self) -> Superoperator:
        return self.form.superoperator()


@dataclass(frozen=True)
class CPTReport:
    residual: float
    tol: float
    passed: bool


def validate_cpt(c: KrausChannel, tol: float = STATE_TOL) -> CPTReport:
    """Report the max-norm of sum_k K_k^dag K_k - identity."""
    residual = max_abs(c.completeness - np.eye(c.side))
    return CPTReport(residual=residual, tol=tol, passed=residual <= tol)


def orbit(c: KrausChannel, x: Operator, k: int) -> Operator:
    """M^k(x): the channel applied k times; k = 0 returns x."""
    if k < 0:
        raise ValueError("the number of channel applications must be nonnegative")
    for _ in range(k):
        x = c.apply(x)
    return x


def lossy_bosonic_channel(d: int, kappa: float) -> KrausChannel:
    """Beam-splitter loss of transmissivity kappa, truncated to d Fock levels.

    <n-k|K_k|n> = sqrt(C(n,k)) * kappa^((n-k)/2) * (1-kappa)^(k/2).  On the
    truncated space completeness holds exactly because each level n only
    draws on k <= n.
    """
    if d < 2:
        raise ValueError("need at least two Fock levels")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {kappa}")
    kraus = []
    for k in range(d):
        mat = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            mat[n - k, n] = math.sqrt(math.comb(n, k)) * kappa ** ((n - k) / 2.0) * (
                1.0 - kappa
            ) ** (k / 2.0)
        kraus.append(Operator((d,), mat))
    return KrausChannel(tuple(kraus))


def replacer_channel(eta: DensityMatrix) -> KrausChannel:
    """Channel sending every input to eta: Kraus {sqrt(l_i) |e_i><j|}.

    Built from the eigendecomposition of eta so mixed targets are valid.
    """
    w, v = np.linalg.eigh(eta.entries)
    d = eta.side
    kraus = []
    for i in range(d):
        if w[i] <= 0.0:  # numerically zero weights contribute nothing
            continue
        root = math.sqrt(w[i])
        for j in range(d):
            mat = np.zeros((d, d), dtype=complex)
            mat[:, j] = root * v[:, i]
            kraus.append(Operator(eta.dims, mat))
    return KrausChannel(tuple(kraus))


def unitary_channel(u: Operator, tol: float = DEFAULT_TOL) -> KrausChannel:
    if not u.is_unitary(tol):
        raise ValueError("matrix is not unitary within tolerance")
    return KrausChannel((u,))


def identity_channel(dim: int) -> KrausChannel:
    return unitary_channel(Operator((dim,), np.eye(dim)))


def trace_distance(a: DensityMatrix | Operator, b: DensityMatrix | Operator) -> float:
    """(1/2) sum |eigenvalues(a - b)|; in [0, 1] for states."""
    ea, eb = (x.entries if hasattr(x, "entries") else np.asarray(x) for x in (a, b))
    if ea.shape != eb.shape:
        raise ValueError(f"shape mismatch: {ea.shape} vs {eb.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(hermitize(ea - eb)))))


def fixed_point_distance(c: KrausChannel, eta: DensityMatrix) -> float:
    """Trace distance between the channel output on eta and eta itself."""
    if c.side != eta.side:
        raise ValueError("channel and state sides differ")
    return trace_distance(c.apply(eta.op), eta)

