"""Dense complex linear algebra on tensor-product spaces.

Operators carry their tensor-factor dimensions so that partial traces and
factor embeddings are unambiguous.  Every superoperator is a SandwichForm,
whose matrix acts on column-stacked vectorizations:
vec(X)[i + d*j] = X[i, j], hence vec(A X B) = (B^T kron A) vec(X).  The
column-stacking convention is fixed here and used everywhere else.
"""

from __future__ import annotations

import functools
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


def partial_trace(x: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every factor not listed in `keep` (kept factors stay in order)."""
    return Operator(*trace_out(x.entries, x.dims, keep))


def trace_out(
    x: np.ndarray, dims: tuple[int, ...], keep: Iterable[int]
) -> tuple[tuple[int, ...], np.ndarray]:
    """The factor dimensions and matrix of the partial trace of the matrix x
    on the tensor space `dims` over every factor not listed in `keep`, or
    the stack of those matrices for a stack x of shape (..., D, D)."""
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    tensor = x.reshape(x.shape[:-2] + dims + dims)
    row = list(range(n))
    col = [n + i for i in range(n)]
    in_labels = [..., *row] + [row[i] if i not in keep else col[i] for i in range(n)]
    out_labels = [..., *(row[i] for i in keep), *(col[i] for i in keep)]
    reduced = np.einsum(tensor, in_labels, out_labels)
    kept_dims = tuple(dims[i] for i in keep) or (1,)
    side = math.prod(kept_dims)
    return kept_dims, reduced.reshape(x.shape[:-2] + (side, side))


def expm_hermitian(h: Operator, s: float, tol: float = DEFAULT_TOL) -> Operator:
    """exp(-i*s*h) for Hermitian h, via eigendecomposition."""
    if not h.is_hermitian(tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h.entries)
    phases = np.exp(-1j * s * w)
    return Operator(h.dims, (v * phases) @ v.conj().T)


def _check_positions(sub_dims: tuple[int, ...], dims: tuple[int, ...], positions: tuple[int, ...]):
    """Factor i of a space `sub_dims` goes to factor positions[i] of `dims`:
    the positions must be distinct, in range and of matching dimension."""
    if len(positions) != len(sub_dims):
        raise ValueError("positions must match the operator's factor count")
    if len(set(positions)) != len(positions) or any(p < 0 or p >= len(dims) for p in positions):
        raise ValueError(f"invalid positions {positions} for {len(dims)} factors")
    for i, p in enumerate(positions):
        if dims[p] != sub_dims[i]:
            raise ValueError(f"factor {p} has dim {dims[p]}, operator factor {i} has dim {sub_dims[i]}")


def embed(op: Operator, full_dims: Sequence[int], positions: Sequence[int]) -> Operator:
    """Embed `op` into a larger tensor space, acting as identity elsewhere.

    `positions[i]` is the factor of `full_dims` matched to factor i of `op`.
    """
    full_dims = tuple(int(d) for d in full_dims)
    positions = tuple(int(p) for p in positions)
    n = len(full_dims)
    _check_positions(op.dims, full_dims, positions)
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


@functools.lru_cache(maxsize=256)
def _factor_layout(form_dims: tuple[int, ...], dims: tuple[int, ...], positions: tuple[int, ...], lead: int):
    """The axis order that moves the factors `positions` of (`lead` leading
    axes, row factors, column factors) to the front of the rows and the back
    of the columns, the order that undoes it, and the moved dimensions."""
    _check_positions(form_dims, dims, positions)
    rest = [i for i in range(len(dims)) if i not in positions]
    rows, cols = list(positions) + rest, rest + list(positions)
    perm = list(range(lead)) + [lead + i for i in rows] + [lead + len(dims) + i for i in cols]
    moved = tuple(dims[i] for i in rows + cols)
    return tuple(perm), tuple(int(i) for i in np.argsort(perm)), moved


@dataclass(frozen=True, eq=False)
class SandwichForm:
    """The map X -> sum_a S_a X F_a - K X - X K^dag on operators on `dims`,
    the one form of every superoperator here: a Kraus channel (S_a = K_a,
    F_a = K_a^dag, no K; a collision is the one-term channel of its
    unitary), a GKSL generator, and the collision expansion terms.
    `sandwich` stacks the S_a and `ops` the F_a; `k` is K, or None for
    none.  The form is applied directly, on its own space or on some factors
    of a larger one (`on_factors`), or materialized (`entries`, `matrix`),
    and every way reads the same arrays.
    """

    dims: tuple[int, ...]
    sandwich: np.ndarray
    ops: np.ndarray
    k: np.ndarray | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        side = math.prod(dims)

        def stack(mats):
            arr = np.asarray(mats, dtype=complex)
            return arr if arr.size else np.zeros((0, side, side), dtype=complex)

        sandwich, ops = stack(self.sandwich), stack(self.ops)
        k = None if self.k is None else np.asarray(self.k, dtype=complex)
        if not len(sandwich) and k is None:
            raise ValueError("need at least one multiplier")
        if sandwich.shape[1:] != (side, side) or ops.shape != sandwich.shape or (
            k is not None and k.shape != (side, side)
        ):
            raise ValueError(f"multipliers must pair up, be square and share the side {side}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sandwich", sandwich)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "k", k)

    @property
    def side(self) -> int:
        return self.sandwich.shape[-1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The form on a matrix or a stack shaped (..., D, D), one product
        per multiplier, each term added into the first.  x may also be
        shaped (..., D, N D), the columns pairing an outer index with the
        form's (`on_factors`): the F_a and K^dag act on the form's."""
        rows = x.shape[:-2] + (-1, x.shape[-2])

        def right(y, f):
            return (y.reshape(rows) @ f).reshape(x.shape)

        pairs = zip(self.sandwich, self.ops)
        if self.k is None:
            s, f = next(pairs)
            out = right(s @ x, f)
        else:
            out = self.k @ x
            out += right(x, self.k.conj().T)
            np.negative(out, out=out)
        for s, f in pairs:
            out += right(s @ x, f)
        return out

    def on_factors(self, x: np.ndarray, dims: Sequence[int], positions: Sequence[int]) -> np.ndarray:
        """The form on the factors `positions` of the tensor space `dims`
        (form factor i on positions[i], as in `embed`) of a matrix or a
        stack shaped (..., D, D).  The form's factors move to the front of
        the rows and the back of the columns, so that `apply` runs as one
        product per multiplier on x viewed as (..., P, R R P); a form on
        all factors, in order, moves nothing."""
        lead = x.shape[:-2]
        dims = tuple(dims)
        perm, back, moved = _factor_layout(self.dims, dims, tuple(positions), len(lead))
        z = x.reshape(lead + dims + dims).transpose(perm).reshape(lead + (self.side, -1))
        return self.apply(z).reshape(lead + moved).transpose(back).reshape(x.shape)

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The column-stacked D^2 x D^2 matrix of the form as its ascending
        flat keys and the entries there, +0 elsewhere: an entry whose sum is
        +0 (both bits zero; -0 stays) is left out.

        Since vec(S X F) = (F^T kron S) vec(X), entry [j, i, l, k] of the
        (D, D, D, D) view is sum_a F_a[l, j] S_a[i, k], less K[i, k] where
        j = l and conj K[l, j] where i = k.  Each entry starts at +0 and takes
        the products of the nonzero entries of each term in order, then the K
        entries.  The zeros left out leave a sum that starts at +0 unchanged,
        so each entry is the ordered sum of the np.kron terms bit for bit; a
        non-finite multiplier meets every entry of its partner, as in np.kron.
        """
        side = self.side

        def support(a, partner):
            return np.nonzero(a) if np.isfinite(partner).all() else np.indices(a.shape).reshape(2, -1)

        keys, steps = [], []
        for s_a, f_a in zip(self.sandwich, self.ops):
            (l, j), (i, k) = support(f_a, s_a), support(s_a, f_a)
            keys.append(np.add.outer(j * side**3 + l * side, i * side**2 + k).ravel())
            # numpy's complex multiply may round differently in its vector and
            # scalar loops; 1-d operands run the vector loop, as np.kron does
            # (a 1 x 1 np.multiply.outer runs the scalar one)
            steps.append((np.add, np.repeat(f_a[l, j], len(i)) * np.tile(s_a[i, k], len(l))))
        if self.k is not None:  # at [d, i, d, k] and [i, d, k, d]
            (i, k), d = np.nonzero(self.k), np.arange(side)[:, None]
            keys += [(d * (side**3 + side) + i * side**2 + k).ravel(), (i * side**3 + k * side + d * (side**2 + 1)).ravel()]
            steps += [(np.subtract, np.tile(self.k[i, k], side)), (np.subtract, np.tile(self.k[i, k].conj(), side))]
        flat, inverse = sorted_unique(np.concatenate(keys))
        values = np.zeros(len(flat), dtype=complex)
        for at, (op, terms) in zip(np.split(inverse, np.cumsum([len(key) for key in keys])[:-1]), steps):
            values[at] = op(values[at], terms)
        kept = values.view(np.int64).reshape(-1, 2).any(axis=1)
        return flat[kept], values[kept]

    def matrix(self) -> np.ndarray:
        """The column-stacked D^2 x D^2 matrix of the form, its `entries`
        scattered into zeros."""
        keys, values = self.entries()
        mat = np.zeros((self.side**2,) * 2, dtype=complex)
        mat.reshape(-1)[keys] = values
        return mat


def sorted_unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an integer array, ascending, and the index of
    each of its entries among them, by one argsort."""
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


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
