"""File writers, and complex matrices as nested [re, im] JSON pairs.

``write_json`` is the one JSON writer of the package.  Its output is byte for
byte the compact ``json.dumps`` of the payload with each complex ndarray as
its [re, im] lists, but no lists are built: ``json.dumps`` writes the rest of
the document around placeholders (a zero-argument callable stands for an
array, called when reached), the arrays go to the file in groups of at most
GROUP_ENTRIES entries (a larger array alone, in slices of that many), and a
run of equal entries is one text repeated, each distinct float64 spelled
once (0.0 and -0.0 apart).  A value ``json`` cannot
encode raises TypeError before the file is opened.  Both writers fill a file
beside the target and rename it over the target; a failure removes it.
``write_csv`` takes its rows from any iterable, CSV_CHUNK_ROWS at a time.
``quote`` is the one way a message shows a config value.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
import reprlib

import numpy as np

from .ops import sorted_unique

GROUP_ENTRIES = 1 << 13
CSV_CHUNK_ROWS = 4096
QUOTE_MAX = 60

_quoter = reprlib.Repr()
_quoter.maxstring = _quoter.maxlong = _quoter.maxother = QUOTE_MAX


def quote(value) -> str:
    """The repr of a config value in a message, cut to QUOTE_MAX characters:
    lists and objects nested more than six deep show as [...] and {...}, and
    an integer too long for str() is not spelled out."""
    try:
        text = _quoter.repr(value)
    except ValueError:  # past the interpreter's integer string length limit
        text = f"<{type(value).__name__} too long to show>"
    return text if len(text) <= QUOTE_MAX else text[: QUOTE_MAX - 3] + "..."


def complex_matrix_to_json(a: np.ndarray) -> list:
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


@contextlib.contextmanager
def _replacing(path):
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of int64 bit patterns, as float64, and each one's
    index among them.  0.0, the bulk of a generator matrix, takes index 0 outside
    the sort, which is slow on long runs of zeros."""
    nonzero = np.flatnonzero(bits)
    values, inverse = sorted_unique(bits[nonzero])
    index = np.zeros(bits.size, dtype=np.intp)
    index[nonzero] = inverse + 1
    return np.concatenate(([0], values)).view(np.float64), index


def _write_group(fh, group: list[tuple[np.ndarray, str, int, int]]) -> None:
    """Write the entries lo .. hi - 1 of each (array, part, lo, hi) of a
    group (a slice of an array is a group of its own), a part being the
    document up to the next array.  An entry is written as "re, im" and its
    tail, the text up to the next entry's numbers: tails[c] if c axes of the
    whole array close after its pair, or at the array's end the way into
    the next; equal runs are written once."""
    depth = max((a.ndim for a, *_ in group), default=0)
    tails, pieces, codes, closes, gap = ["]" * c + ", " + "[" * c for c in range(1, depth + 1)], [], [], {}, ""
    for a, part, lo, hi in group:
        if a.size == 0:
            gap += json.dumps(a.tolist()) + part
            continue
        tails.append(gap + ("[" * (a.ndim + 1) if lo == 0 else ""))
        if (a.shape, lo, hi) not in closes:  # how many axes close after each entry
            closes[a.shape, lo, hi] = code = np.zeros(hi - lo, dtype=np.int32)
            for step in np.cumprod(a.shape[:0:-1]).tolist():
                code[(-lo - 1) % step :: step] += 1
        codes.append(closes[a.shape, lo, hi])
        pieces.append(a.reshape(-1)[lo:hi])
        gap = "]" * (a.ndim + 1) + part if hi == a.size else tails[codes[-1][-1]]
    if not pieces:
        fh.write(gap)
        return
    fh.write(tails[depth])
    tails.append(gap)
    bits = (np.concatenate(pieces) if len(pieces) > 1 else pieces[0]).view(np.int64)
    ends = np.cumsum([len(c) for c in codes]) - 1
    codes = np.concatenate(codes)
    codes[ends] = depth + 1 + np.arange(len(ends))  # tails[depth] leads to the first entry
    start = np.ones(len(codes), dtype=bool)
    np.logical_or(codes[1:] != codes[:-1], (bits[2:] != bits[:-2]).view(np.uint16), out=start[1:])  # re or im
    first = np.flatnonzero(start)
    values, index = _distinct(bits.reshape(-1, 2)[first].reshape(-1))
    tokens = np.array(list(map(repr, values.tolist())), dtype=object)
    tokens[~np.isfinite(values)] = [json.dumps(v) for v in values[~np.isfinite(values)].tolist()]  # NaN, Infinity
    text = np.empty((len(first), 4), dtype=object)  # per run: re, ", ", im, tail
    np.take(tokens, index.reshape(-1, 2), out=text[:, ::2], mode="clip")  # clip: unbuffered
    np.take(np.array(tails, dtype=object), codes[first], out=text[:, 3], mode="clip")
    text[:, 1] = ", "
    counts = np.diff(first, append=len(codes))
    multi = np.flatnonzero(counts > 1)
    text[multi, 0] = list(map(operator.mul, map("".join, text[multi].tolist()), counts[multi].tolist()))
    text[multi, 1:] = ""
    fh.write("".join(text.reshape(-1).tolist()))


def write_json(path, data) -> None:
    arrays, mark = [], "\0"

    def defer(obj):
        if isinstance(obj, np.ndarray) or callable(obj):
            arrays.append(obj)
            return mark
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    parts = json.dumps(data, default=defer).split(json.dumps(mark))
    while len(parts) != len(arrays) + 1:  # a string of the document spells the placeholder
        arrays, mark = [], mark + "\0"
        parts = json.dumps(data, default=defer).split(json.dumps(mark))
    with _replacing(path) as fh:
        fh.write(parts[0])
        group, size = [], 0
        for a, part in zip(arrays, parts[1:]):
            a = np.ascontiguousarray(a() if callable(a) else a, dtype=complex)
            if size + a.size > GROUP_ENTRIES:  # a large array goes alone, uncopied
                _write_group(fh, group)
                group, size = [], 0
            if a.size > GROUP_ENTRIES:  # and above GROUP_ENTRIES in slices
                for lo in range(0, a.size, GROUP_ENTRIES):
                    _write_group(fh, [(a, part, lo, min(lo + GROUP_ENTRIES, a.size))])
                continue
            group.append((a, part, 0, a.size))
            size += a.size
            if size >= GROUP_ENTRIES:
                _write_group(fh, group)
                group, size = [], 0
        _write_group(fh, group)


def write_csv(path, header, rows) -> None:
    """The one CSV writer: a header line, then one line per row of the
    iterable `rows`, formatted and written CSV_CHUNK_ROWS at a time.
    Integers are written bare, every other number with 17 significant
    digits (``.17g``), which parse back to the same float64."""
    rows = iter(rows)
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            fh.write("".join([
                ",".join([str(x) if isinstance(x, (int, np.integer)) else format(float(x), ".17g") for x in row]) + "\n"
                for row in chunk
            ]))


def _complex_entry(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2 or any(isinstance(x, bool) for x in pair):
        raise TypeError(f"entry {quote(pair)} is not a pair of numbers")
    return complex(*pair)


def complex_matrix_from_json(rows) -> np.ndarray:
    try:
        entries = [[_complex_entry(c) for c in row] for row in rows]
        if len({len(row) for row in entries}) > 1:
            raise ValueError(f"rows of unequal lengths {quote([len(row) for row in entries])}")
        return np.array(entries, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed complex matrix payload: {exc}") from exc
