import math

import numpy as np
import pytest

from qcollide.channels import DensityMatrix, KrausChannel
from qcollide.ops import Operator


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dims, norm=1.0) -> Operator:
    side = math.prod(dims)
    r = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    h = 0.5 * (r + r.conj().T)
    return Operator(tuple(dims), norm * h / np.linalg.norm(h))


def act(form, x: Operator) -> Operator:
    """A superoperator, a SandwichForm, applied to an Operator, as an
    Operator on the factors of x."""
    return Operator(x.dims, form.apply(x.entries))


def random_state(rng, dims) -> DensityMatrix:
    side = math.prod(dims)
    r = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    rho = r @ r.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix.from_matrix(rho, tuple(dims))


def random_unitary(rng, d) -> np.ndarray:
    r = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, rr = np.linalg.qr(r)
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


def random_cpt_channel(rng, d, n_kraus=3) -> KrausChannel:
    """Random CPT map from a Haar-ish isometry d -> d*n_kraus."""
    r = rng.normal(size=(d * n_kraus, d)) + 1j * rng.normal(size=(d * n_kraus, d))
    q, _ = np.linalg.qr(r)  # q: (d*n_kraus, d), q^dag q = I_d
    kraus = tuple(
        Operator((d,), q[i * d : (i + 1) * d, :]) for i in range(n_kraus)
    )
    return KrausChannel(kraus)
