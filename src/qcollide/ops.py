"""Dense complex linear algebra on tensor-product spaces.

Operators carry their tensor-factor dimensions so that partial traces and
factor embeddings are unambiguous.  Superoperators act on column-stacked
vectorizations: vec(X)[i + d*j] = X[i, j], hence vec(A X B) = (B^T kron A) vec(X).
The column-stacking convention is fixed here and used everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-10


def _as_square_complex(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def max_abs(a: np.ndarray) -> float:
    """Max-norm of a matrix; 0.0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix with declared tensor-factor dimensions.

    Immutable: the entry array is copied on construction and marked read-only.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        entries = _as_square_complex(self.entries).copy()
        side = math.prod(dims)
        if entries.shape[0] != side:
            raise ValueError(
                f"matrix side {entries.shape[0]} does not match product of dims {dims} = {side}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    def dagger(self) -> "Operator":
        return Operator(self.dims, self.entries.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return max_abs(self.entries - self.entries.conj().T) <= tol

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        eye = np.eye(self.side)
        return max_abs(self.entries @ self.entries.conj().T - eye) <= tol

    def _binary_check(self, other: "Operator"):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if other.side != self.side:
            raise ValueError(f"side mismatch: {self.side} vs {other.side}")

    def __add__(self, other: "Operator") -> "Operator":
        self._binary_check(other)
        return Operator(self.dims, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self._binary_check(other)
        return Operator(self.dims, self.entries - other.entries)

    def __neg__(self) -> "Operator":
        return Operator(self.dims, -self.entries)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.dims, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._binary_check(other)
        return Operator(self.dims, self.entries @ other.entries)

    def __repr__(self):  # pragma: no cover
        return f"Operator(dims={self.dims}, side={self.side})"


def identity(dims: Iterable[int]) -> Operator:
    dims = tuple(dims)
    return Operator(dims, np.eye(math.prod(dims)))


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product; result dims are a.dims followed by b.dims."""
    return Operator(a.dims + b.dims, np.kron(a.entries, b.entries))


def kron_all(ops: Sequence[Operator]) -> Operator:
    if not ops:
        raise ValueError("need at least one operator")
    out = ops[0]
    for op in ops[1:]:
        out = kron(out, op)
    return out


def partial_trace(x: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every factor not listed in `keep` (kept factors stay in order)."""
    n = len(x.dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    tensor = x.entries.reshape(x.dims + x.dims)
    row = list(range(n))
    col = [n + i for i in range(n)]
    in_labels = row + [row[i] if i not in keep else col[i] for i in range(n)]
    out_labels = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum(tensor, in_labels, out_labels)
    kept_dims = tuple(x.dims[i] for i in keep) or (1,)
    side = math.prod(kept_dims)
    return Operator(kept_dims, reduced.reshape(side, side))


def expm_hermitian(h: Operator, s: float, tol: float = DEFAULT_TOL) -> Operator:
    """exp(-i*s*h) for Hermitian h, via eigendecomposition."""
    if not h.is_hermitian(tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h.entries)
    phases = np.exp(-1j * s * w)
    return Operator(h.dims, (v * phases) @ v.conj().T)


def bracket(a: Operator, b: Operator, kind: str = "commutator") -> Operator:
    """Commutator ab - ba or anticommutator ab + ba."""
    a._binary_check(b)
    if kind == "commutator":
        return Operator(a.dims, a.entries @ b.entries - b.entries @ a.entries)
    if kind == "anticommutator":
        return Operator(a.dims, a.entries @ b.entries + b.entries @ a.entries)
    raise ValueError(f"unknown bracket kind {kind!r}")


def embed(op: Operator, full_dims: Sequence[int], positions: Sequence[int]) -> Operator:
    """Embed `op` into a larger tensor space, acting as identity elsewhere.

    `positions[i]` is the factor of `full_dims` matched to factor i of `op`.
    """
    full_dims = tuple(int(d) for d in full_dims)
    positions = tuple(int(p) for p in positions)
    n = len(full_dims)
    if len(positions) != len(op.dims):
        raise ValueError("positions must match the operator's factor count")
    if len(set(positions)) != len(positions) or any(p < 0 or p >= n for p in positions):
        raise ValueError(f"invalid positions {positions} for {n} factors")
    for i, p in enumerate(positions):
        if full_dims[p] != op.dims[i]:
            raise ValueError(
                f"factor {p} has dim {full_dims[p]}, operator factor {i} has dim {op.dims[i]}"
            )
    others = [i for i in range(n) if i not in positions]
    order = list(positions) + others
    rest = math.prod(full_dims[i] for i in others) if others else 1
    big = np.kron(op.entries, np.eye(rest))
    cur_dims = tuple(full_dims[i] for i in order)
    perm = [order.index(k) for k in range(n)]
    tensor = big.reshape(cur_dims + cur_dims)
    tensor = tensor.transpose(perm + [n + p for p in perm])
    side = math.prod(full_dims)
    return Operator(full_dims, tensor.reshape(side, side))


# --- column-stacking vectorization ---------------------------------------


def vec(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, order="F")


def unvec(v: np.ndarray, side: int) -> np.ndarray:
    return v.reshape((side, side), order="F")


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on operators stored as a matrix on column-stacked vectors."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        in_dims = tuple(int(d) for d in self.in_dims)
        out_dims = tuple(int(d) for d in self.out_dims)
        matrix = np.asarray(self.matrix, dtype=complex).copy()
        want = (math.prod(out_dims) ** 2, math.prod(in_dims) ** 2)
        if matrix.shape != want:
            raise ValueError(f"superoperator matrix shape {matrix.shape}, expected {want}")
        matrix.setflags(write=False)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "Superoperator":
        dims = tuple(dims)
        side = math.prod(dims)
        return cls(dims, dims, np.eye(side * side))

    @property
    def in_side(self) -> int:
        return math.prod(self.in_dims)

    @property
    def out_side(self) -> int:
        return math.prod(self.out_dims)

    def apply(self, x: Operator) -> Operator:
        if x.side != self.in_side:
            raise ValueError(f"operator side {x.side} does not match superoperator input {self.in_side}")
        return Operator(self.out_dims, unvec(self.matrix @ vec(x.entries), self.out_side))

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other."""
        if other.out_side != self.in_side:
            raise ValueError("composition side mismatch")
        return Superoperator(other.in_dims, self.out_dims, self.matrix @ other.matrix)

    def is_trace_preserving(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff the adjoint maps the identity to the identity."""
        vid_out = vec(np.eye(self.out_side))
        vid_in = vec(np.eye(self.in_side))
        return max_abs(self.matrix.conj().T @ vid_out - vid_in) <= tol

    def __repr__(self):  # pragma: no cover
        return f"Superoperator(in_dims={self.in_dims}, out_dims={self.out_dims})"


def multiplier_matrix(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    left: np.ndarray | None = None,
    right: np.ndarray | None = None,
) -> np.ndarray:
    """Column-stacked matrix of X -> sum_k L_k X R_k + left X + X right.

    `pairs` lists the (L_k, R_k) sandwiches; all matrices share one side D.
    Since vec(L X R) = (R^T kron L) vec(X), the (D, D, D, D) view [j, i, l, k]
    of the result holds sum_k R_k[l, j] L_k[i, k]: each term is one outer
    product added into that view, in order, so a single term reproduces
    np.kron bit for bit.  The one-sided pieces only touch the block
    diagonals j = l (left) and i = k (right), at O(D^3) cost.
    """
    mats = [m for pair in pairs for m in pair] + [m for m in (left, right) if m is not None]
    if not mats:
        raise ValueError("need at least one multiplier")
    side = mats[0].shape[0]
    if any(m.shape != (side, side) for m in mats):
        raise ValueError("multipliers must be square and share one side")
    mat = np.zeros((side * side, side * side), dtype=complex)
    t = mat.reshape(side, side, side, side)
    if pairs:
        view, term = t.transpose(0, 2, 1, 3), np.empty((side,) * 4, dtype=complex)
        for l_k, r_k in pairs:
            view += np.multiply.outer(r_k.T, l_k, out=term)
    diag = np.arange(side)
    if left is not None:
        t[diag, :, diag, :] += left
    if right is not None:
        t[:, diag, :, diag] += right.T
    return mat


def commutator_superop(h: Operator) -> Superoperator:
    """Superoperator X -> [h, X]."""
    return Superoperator(h.dims, h.dims, multiplier_matrix([], h.entries, -h.entries))


def kraus_superop(kraus: Sequence[Operator]) -> Superoperator:
    """Superoperator X -> sum_k K_k X K_k^dag."""
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    pairs = [(k.entries, k.entries.conj().T) for k in kraus]
    return Superoperator(kraus[0].dims, kraus[0].dims, multiplier_matrix(pairs))


def apply_on_factor(p: np.ndarray, x: np.ndarray, dims: Sequence[int], pos: int) -> np.ndarray:
    """Apply the column-stacked superoperator matrix p (side d^2, d = dims[pos])
    to factor `pos` of x, a matrix or a stack shaped (..., D, D) on `dims`.

    The factor's (column, row) index pair is moved last so that the whole
    contraction is one matrix product with p^T.
    """
    dims = tuple(dims)
    d = dims[pos]
    if p.shape != (d * d, d * d):
        raise ValueError(f"superoperator shape {p.shape} does not match factor dimension {d}")
    left = math.prod(dims[:pos])
    right = math.prod(dims[pos + 1 :])
    lead = x.shape[:-2]
    k = len(lead)
    keep = tuple(range(k))
    # axes after the reshape: row (i, a, r), column (j, b, s); a, b on the factor
    t = x.reshape(lead + (left, d, right, left, d, right))
    t = t.transpose(keep + (k, k + 2, k + 3, k + 5, k + 4, k + 1))
    y = t.reshape(lead + (-1, d * d)) @ p.T
    y = y.reshape(lead + (left, right, left, right, d, d))
    return y.transpose(keep + (k, k + 5, k + 1, k + 2, k + 4, k + 3)).reshape(x.shape)


def hermitize(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


# --- common operators ------------------------------------------------------

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "i": np.eye(2, dtype=complex),
}


def pauli(axis: str) -> Operator:
    try:
        return Operator((2,), _PAULI[axis.lower()])
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def annihilation(d: int) -> Operator:
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    return Operator((d,), a)


def creation(d: int) -> Operator:
    return annihilation(d).dagger()


def number_op(d: int) -> Operator:
    return Operator((d,), np.diag(np.arange(d, dtype=complex)))


def position_op(d: int) -> Operator:
    """Quadrature (a + a^dag)/sqrt(2) on the first d Fock levels."""
    a = annihilation(d).entries
    return Operator((d,), (a + a.conj().T) / math.sqrt(2))


def momentum_op(d: int) -> Operator:
    """Quadrature -i(a - a^dag)/sqrt(2) on the first d Fock levels."""
    a = annihilation(d).entries
    return Operator((d,), -1j * (a - a.conj().T) / math.sqrt(2))


def basis_ket(d: int, i: int) -> np.ndarray:
    if not 0 <= i < d:
        raise ValueError(f"level {i} out of range for dimension {d}")
    ket = np.zeros(d, dtype=complex)
    ket[i] = 1.0
    return ket


def projector(d: int, i: int) -> Operator:
    ket = basis_ket(d, i)
    return Operator((d,), np.outer(ket, ket.conj()))
