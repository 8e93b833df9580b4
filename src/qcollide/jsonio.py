"""File writers, and complex matrices as nested [re, im] JSON pairs.

``write_json`` is the one JSON writer of the package.  Its output is byte for
byte the compact ``json.dumps`` of the payload with each complex ndarray as
its [re, im] lists, but no lists are built: ``json.dumps`` writes the rest of
the document around placeholders, each distinct float64 bit pattern of all of
its arrays is spelled once (0.0 and -0.0 stay apart), and each array is one
``%``-format of those tokens.  A value ``json`` cannot encode raises TypeError
before the file is opened.
"""

from __future__ import annotations

import json

import numpy as np


def complex_matrix_to_json(a: np.ndarray) -> list:
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def _nested_format(shape: tuple[int, ...]) -> str:
    """The JSON text of a nested list of this shape, one %s per leaf."""
    if not shape:
        return "%s"
    return "[" + ", ".join([_nested_format(shape[1:])] * shape[0]) + "]"


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of int64 bit patterns, as float64, and each one's
    index among them.  0.0, the bulk of a generator matrix, takes index 0 outside
    the argsort (np.unique's), which is slow on long runs of zeros."""
    nonzero = np.flatnonzero(bits)
    order = nonzero[np.argsort(bits[nonzero])]
    ordered = bits[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    index = np.zeros(bits.size, dtype=np.intp)
    index[order] = np.cumsum(first)
    return np.concatenate(([0], ordered[first])).view(np.float64), index


def write_json(path, data) -> None:
    arrays, mark = [], "\0"

    def defer(obj):
        if isinstance(obj, np.ndarray):
            arrays.append(np.ascontiguousarray(obj, dtype=complex))
            return mark
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    parts = json.dumps(data, default=defer).split(json.dumps(mark))
    while len(parts) != len(arrays) + 1:  # a string of the document spells the placeholder
        arrays, mark = [], mark + "\0"
        parts = json.dumps(data, default=defer).split(json.dumps(mark))
    values, index = _distinct(np.concatenate([np.empty(0, np.int64)] + [a.ravel().view(np.int64) for a in arrays]))
    tokens = np.array(list(map(repr, values.tolist())), dtype=object)
    tokens[np.isnan(values)] = "NaN"  # json's spelling of what repr calls nan, inf, -inf
    tokens[values == np.inf] = "Infinity"
    tokens[values == -np.inf] = "-Infinity"
    formats, start = {}, 0
    with open(path, "w") as fh:
        fh.write(parts[0])
        for a, part in zip(arrays, parts[1:]):
            if a.shape not in formats:
                formats[a.shape] = _nested_format(a.shape + (2,))
            stop = start + 2 * a.size
            fh.write(formats[a.shape] % tuple(tokens[index[start:stop]].tolist()))
            fh.write(part)
            start = stop


def write_csv(path, header, rows) -> None:
    """The one CSV writer: a header line, then one line per row.  Integers
    are written bare, every other number with 17 significant digits
    (``.17g``), which parse back to the same float64."""
    lines = [",".join(header)]
    lines += [
        ",".join([str(x) if isinstance(x, (int, np.integer)) else format(float(x), ".17g") for x in row])
        for row in rows
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _complex_entry(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2 or any(isinstance(x, bool) for x in pair):
        raise TypeError(f"entry {pair!r} is not a pair of numbers")
    return complex(*pair)


def complex_matrix_from_json(rows) -> np.ndarray:
    try:
        entries = [[_complex_entry(c) for c in row] for row in rows]
        if len({len(row) for row in entries}) > 1:
            raise ValueError(f"rows of unequal lengths {[len(row) for row in entries]}")
        return np.array(entries, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed complex matrix payload: {exc}") from exc
