"""JSON encoding helpers: complex matrices as nested [re, im] pairs.

``write_json`` is the one JSON writer of the package.  It encodes with the
C encoder (``json.dumps`` without ``indent``), so every output is a compact
single-line document.  Payloads may hold complex ndarrays as values; the
``default`` hook expands each one to its [re, im] lists only when the encoder
reaches it, so one matrix's lists are alive at a time.  Any other value the
encoder cannot handle raises TypeError before the file is opened.
"""

from __future__ import annotations

import json

import numpy as np


def complex_matrix_to_json(a: np.ndarray) -> list:
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def _encode_array(obj):
    if isinstance(obj, np.ndarray):
        return complex_matrix_to_json(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, data) -> None:
    text = json.dumps(data, default=_encode_array)
    with open(path, "w") as fh:
        fh.write(text)


def _complex_entry(pair) -> complex:
    re, im = pair[0], pair[1]
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError(f"entry {pair!r} is not a pair of numbers")
    return complex(re, im)


def complex_matrix_from_json(rows) -> np.ndarray:
    try:
        return np.array([[_complex_entry(c) for c in row] for row in rows], dtype=complex)
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed complex matrix payload: {exc}") from exc
