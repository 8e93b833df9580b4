"""The one JSON writer: compact output that parses to the same document the
list-building, indented encoder produced, and the same bytes as the compact
list-building encoder, down to the spelling of every float token."""

import errno
import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcollide.jsonio
from qcollide.cli import main
from qcollide.jsonio import GROUP_ENTRIES, complex_matrix_from_json, complex_matrix_to_json, write_csv, write_json
from qcollide.scenarios import (
    BUILTIN_NAMES,
    load_scenario,
    run_converge,
    run_simulate,
    run_verify,
    scenario_generator,
)


def old_complex_matrix_to_json(a):
    """The element-by-element encoder the writer replaced: the oracle.  Any
    shape; a 0-d array counts as one entry, as in the writer."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    if a.ndim > 1:
        return [old_complex_matrix_to_json(sub) for sub in a]
    return [[float(z.real), float(z.imag)] for z in a]


def old_bytes(data):
    """The bytes the compact list-building writer put on disk; a callable in
    the document stands for the array it returns."""
    return json.dumps(data, default=lambda a: old_complex_matrix_to_json(a() if callable(a) else a)).encode()


def old_document(data):
    """What the replaced writer put on disk, parsed back."""
    return json.loads(json.dumps(data, indent=1))


def read(path):
    with open(path) as fh:
        return json.load(fh)


def old_rates_dict(rates):
    return {
        "gamma": rates.gamma,
        "local": [old_complex_matrix_to_json(r) for r in rates.local],
        "cross": [
            {"m": m, "m_prime": mp, "rates": old_complex_matrix_to_json(r)}
            for (m, mp), r in sorted(rates.cross.items())
        ],
    }


def old_trajectory_document(traj):
    return {
        "metadata": traj.metadata,
        "observable_names": list(traj.observable_names),
        "samples": [
            {
                "step": int(traj.steps[i]),
                "t": float(traj.times[i]),
                "observables": [[float(v.real), float(v.imag)] for v in traj.observable_values[i]],
                "trace": float(traj.traces[i]),
                "min_eigenvalue": float(traj.min_eigenvalues[i]),
                "state": old_complex_matrix_to_json(traj.states[i]),
            }
            for i in range(len(traj))
        ],
    }


class TestRoundTripAgainstOldEncoder:
    def test_generators_bosonic_fiber(self, tmp_path):
        out = tmp_path / "out"
        assert main(["generators", "--config", "bosonic-fiber", "--out", str(out), "--format", "json"]) == 0
        gen = scenario_generator(load_scenario("bosonic-fiber"))
        doc = read(out / "generators.json")
        rates_doc = read(out / "rates.json")

        pairs = [(doc["total"], gen.total.matrix())]
        pairs += [(m, t.matrix()) for m, t in zip(doc["local"], gen.local_terms, strict=True)]
        cross = sorted(gen.cross_terms.items())
        pairs += [(e["matrix"], t.matrix()) for e, (_, t) in zip(doc["cross"], cross, strict=True)]
        for rates in (doc["rates"], rates_doc):
            pairs += [(m, r) for m, r in zip(rates["local"], gen.rates.local, strict=True)]
            cross = sorted(gen.rates.cross.items())
            pairs += [(e["rates"], r) for e, (_, r) in zip(rates["cross"], cross, strict=True)]
        for payload, matrix in pairs:
            assert np.array_equal(complex_matrix_from_json(payload), matrix)

        old = {
            "carrier_dims": list(gen.carrier_dims),
            "rates": old_rates_dict(gen.rates),
            "local": [old_complex_matrix_to_json(t.matrix()) for t in gen.local_terms],
            "cross": [
                {"m": m, "m_prime": mp, "matrix": old_complex_matrix_to_json(t.matrix())}
                for (m, mp), t in sorted(gen.cross_terms.items())
            ],
            "total": old_complex_matrix_to_json(gen.total.matrix()),
        }
        assert doc == old_document(old)
        assert rates_doc == old_document(old_rates_dict(gen.rates))
        # compact: one line, well under the 8.4 MB of the indented writer
        text = (out / "generators.json").read_text()
        assert "\n" not in text
        assert len(text) <= 3_300_000

    def test_verify_report(self, tmp_path):
        assert main(["verify", "--config", "dephasing-1q", "--out", str(tmp_path)]) == 0
        report = run_verify(load_scenario("dephasing-1q"))
        assert read(tmp_path / "verify.json") == old_document(report.to_dict())

    def test_trajectory_with_states(self, tmp_path):
        argv = ["simulate", "--config", "ad-chain-2q", "--out", str(tmp_path), "--format", "json"]
        assert main(argv) == 0
        traj = run_simulate(load_scenario("ad-chain-2q"))
        doc = read(tmp_path / "trajectory.json")
        assert doc == old_document(old_trajectory_document(traj))
        for sample, state in zip(doc["samples"], traj.states, strict=True):
            assert np.array_equal(complex_matrix_from_json(sample["state"]), state)


def tokens(text):
    return [t for t in re.split(r"[\s\[\],:{}]+", text) if t]


class TestWriteJson:
    def test_edge_values_write_the_same_tokens(self, tmp_path):
        values = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
        arr = np.empty((2, 3), dtype=complex)
        arr.real = [values[:3], values[3:]]
        arr.imag = [values[3:], values[:3]]
        path = tmp_path / "edge.json"
        write_json(path, {"a": arr})
        text = path.read_text()
        assert tokens(text) == tokens(json.dumps({"a": old_complex_matrix_to_json(arr)}))
        for token in ("-0.0", "5e-324", "1.7976931348623157e+308", "NaN", "Infinity", "-Infinity"):
            assert token in tokens(text)

    @pytest.mark.parametrize("make", [lambda a: a.T, lambda a: a[:, ::2], lambda a: a.real])
    def test_strided_and_real_arrays(self, make, rng):
        a = make(rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)))
        assert complex_matrix_to_json(a) == old_complex_matrix_to_json(a)

    @pytest.mark.parametrize("bad", [object(), {1, 2}, np.complex128(1j)])
    def test_unsupported_object_raises(self, tmp_path, bad):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "bad.json", {"x": [bad]})
        assert not (tmp_path / "bad.json").exists()


class TestBytesAgainstOldWriter:
    """Parsing cannot see a -0.0 -> 0.0 flip or a respelled token; these
    compare the files byte for byte with the list-building writer's output."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_outputs(self, tmp_path, name):
        for command, fmt in [
            ("generators", "csv"), ("generators", "json"), ("simulate", "json"), ("converge", "json"), ("verify", None),
        ]:
            argv = [command, "--config", name, "--out", str(tmp_path / f"{command}-{fmt}")]
            assert main(argv + (["--format", fmt] if fmt else [])) == 0
        sc = load_scenario(name)
        gen = scenario_generator(sc)
        expected = {
            "generators-csv/generators.json": old_bytes(gen.to_dict()),
            "generators-json/generators.json": old_bytes(gen.to_dict()),
            "generators-json/rates.json": old_bytes(gen.rates.to_dict()),
            "simulate-json/trajectory.json": old_bytes(old_trajectory_document(run_simulate(sc))),
            "converge-json/convergence.json": old_bytes(run_converge(sc).to_dict()),
            "verify-None/verify.json": old_bytes(run_verify(sc).to_dict()),
        }
        for path, data in expected.items():
            assert (tmp_path / path).read_bytes() == data, path

    def test_edge_values(self, tmp_path):
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e22, 1e-5, 0.1 + 0.2]
        arr = np.array(values, dtype=complex)
        arr.imag = [-0.0, 0.0, 1e22, math.nan, -0.0, -math.inf, math.inf, 5e-324, 0.1 + 0.2, 1e-5]
        arr = np.stack([arr, arr[::-1]])
        path = tmp_path / "edge.json"
        write_json(path, {"a": arr, "b": [arr[0, 0, ...], arr[1, ::-3]]})
        assert path.read_bytes() == old_bytes({"a": arr, "b": [arr[0, 0, ...], arr[1, ::-3]]})
        assert path.read_text().startswith('{"a": [[[0.0, -0.0], [-0.0, 0.0], [NaN, 1e+22], [Infinity, NaN], ')
        for token in ("5e-324", "1e+16", "1e+22", "1e-05", "0.30000000000000004", "-Infinity"):
            assert token in tokens(path.read_text())

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: a.real,
            lambda a: a.T,
            lambda a: a[::2, 1::3],
            lambda a: a[1],
            lambda a: a[:, 0].real,
            lambda a: a[:0],
            lambda a: a[:0, :3],
            lambda a: a[:, :0],
            lambda a: a.reshape(2, 2, 6),
            lambda a: a[0, 0, ...],
        ],
        ids=["real", "transposed", "strided", "1d", "1d-real", "empty", "0x3", "4x0", "3d", "0d"],
    )
    def test_shapes(self, tmp_path, rng, make):
        a = make(rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)))
        write_json(tmp_path / "a.json", {"x": a, "y": [a, {"z": a}]})
        assert (tmp_path / "a.json").read_bytes() == old_bytes({"x": a, "y": [a, {"z": a}]})

    def test_same_array_twice_and_many_arrays(self, tmp_path, rng):
        shared = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        doc = {"first": shared, "again": shared, "many": [rng.normal(size=(2, 2)) for _ in range(50)], "last": shared}
        write_json(tmp_path / "a.json", doc)
        assert (tmp_path / "a.json").read_bytes() == old_bytes(doc)

    @pytest.mark.parametrize(
        "strings",
        [["\0"], ['"\0', "\0\0", "\0\0\0"], ["%s", "%%", "100%"], ["\\u0000", "ü", "a\nb"]],
        ids=["nul", "nul-runs", "percent", "escapes"],
    )
    def test_document_strings_next_to_arrays(self, tmp_path, strings):
        doc = {"strings": strings, "a": np.eye(2), **{s: np.ones(1) for s in strings}}
        write_json(tmp_path / "a.json", doc)
        assert (tmp_path / "a.json").read_bytes() == old_bytes(doc)

    def test_document_without_arrays(self, tmp_path):
        for doc in ({}, [], "x", 1.5, {"a": [1, 2.5, None, True]}):
            write_json(tmp_path / "a.json", doc)
            assert (tmp_path / "a.json").read_bytes() == old_bytes(doc)


POOL = [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1e22]


@st.composite
def pooled_arrays(draw):
    """A real or complex array of 0 to 3 dimensions, zero-length axes too,
    filled with runs of (re, im) pairs from POOL that cross its row ends."""
    shape = tuple(draw(st.lists(st.integers(0, 7), max_size=3)))
    run = st.tuples(st.sampled_from(POOL), st.sampled_from(POOL), st.integers(1, 40))
    runs = draw(st.lists(run, min_size=1, max_size=6))
    pairs = np.repeat([[re, im] for re, im, _ in runs], [n for _, _, n in runs], axis=0)
    a = np.resize(pairs, (math.prod(shape), 2)).view(complex).reshape(shape)
    return a.real.copy() if draw(st.booleans()) else a


class TestPooledDocuments:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        items=st.lists(st.one_of(pooled_arrays(), st.text("\0\"%\\u", max_size=3)), max_size=12),
        lazy=st.lists(st.booleans(), min_size=12, max_size=12),
        group=st.sampled_from([1, 7, 100, GROUP_ENTRIES]),
    )
    @example(items=[np.zeros((7, 7, 7)), "\0", np.zeros(3), np.zeros((7, 7))], lazy=[True] * 12, group=100)
    def test_bytes_match_the_list_building_writer(self, tmp_path_factory, items, lazy, group):
        # small arrays next to large ones (against the patched group size),
        # one array twice, callables, and strings that spell the placeholder,
        # as values and as keys
        arrays = [x for x in items if isinstance(x, np.ndarray)]
        strings = [x for x in items if isinstance(x, str)]
        doc = {
            "items": [(lambda x=x: x) if isinstance(x, np.ndarray) and wrap else x for x, wrap in zip(items, lazy)],
            "same": arrays[:1] * 2,
            **{s: a for s, a in zip(strings, arrays)},
        }
        path = tmp_path_factory.mktemp("pooled") / "a.json"
        with mock.patch.object(qcollide.jsonio, "GROUP_ENTRIES", group):
            write_json(path, doc)
        assert path.read_bytes() == old_bytes(doc)


    @settings(max_examples=100, deadline=None, database=None)
    @given(
        shapes=st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=3), min_size=1, max_size=3),
        runs=st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL), st.integers(1, 200)), min_size=1, max_size=8),
        group=st.sampled_from([1, 2, 5, 16, 100]),
    )
    @example(shapes=[[9, 9]], runs=[(-0.0, math.nan, 50), (math.inf, 0.0, 31)], group=16)
    def test_arrays_above_the_group_size_are_written_in_slices(self, tmp_path_factory, shapes, runs, group):
        # equal runs of -0.0, NaN and inf pairs cross the slice edges, the row
        # ends and the array ends; no write takes more than GROUP_ENTRIES entries
        pairs = np.repeat([[re, im] for re, im, _ in runs], [n for *_, n in runs], axis=0)
        arrays, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            arrays.append(np.resize(np.roll(pairs, -start, axis=0), (size, 2)).view(complex).reshape(shape))
            start += size
        doc = {"arrays": arrays, "after": [np.zeros((0, 3)), "tail"]}
        path = tmp_path_factory.mktemp("sliced") / "a.json"
        write_group, sizes = qcollide.jsonio._write_group, []

        def counted(fh, pieces):
            sizes.append(sum(hi - lo for _, _, lo, hi in pieces))
            write_group(fh, pieces)

        with mock.patch.object(qcollide.jsonio, "GROUP_ENTRIES", group), mock.patch.object(qcollide.jsonio, "_write_group", counted):
            write_json(path, doc)
        assert path.read_bytes() == old_bytes(doc)
        assert max(sizes) <= group and sum(sizes) == sum(a.size for a in arrays)

    def test_generators_out_peaks_below_2_5_mb(self, tmp_path):
        # bosonic-fiber's 65,536-entry matrices are built from their forms
        # one at a time and written GROUP_ENTRIES entries at a time
        tracemalloc.start()
        try:
            assert main(["generators", "--config", "bosonic-fiber", "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

class TestLazyArrays:
    def test_peak_does_not_grow_with_the_array_count(self, tmp_path):
        # each callable's array is built when the writer reaches it, written
        # and dropped before the next one is built
        def peak(count):
            doc = {"m": [lambda: np.full((200, 200), 0.5 + 0.25j) for _ in range(count)]}
            tracemalloc.start()
            try:
                write_json(tmp_path / "a.json", doc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two = peak(2)
        assert peak(8) <= 1.25 * two
        assert (tmp_path / "a.json").read_bytes() == old_bytes({"m": [np.full((200, 200), 0.5 + 0.25j)] * 8})


class FullDisk:
    """A text file that takes `room` characters, then fails as a full disk."""

    def __init__(self, path, mode, room):
        self.fh, self.room = open(path, mode), room

    def write(self, text):
        if len(text) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestNoPartialFiles:
    def test_raising_callable_leaves_no_file(self, tmp_path):
        def boom():
            raise RuntimeError("no matrix")

        path = tmp_path / "a.json"
        doc = {"first": np.zeros((300, 300)), "second": boom}
        with pytest.raises(RuntimeError, match="no matrix"):
            write_json(path, doc)
        assert os.listdir(tmp_path) == []
        path.write_text("old")
        with pytest.raises(RuntimeError, match="no matrix"):
            write_json(path, doc)
        assert os.listdir(tmp_path) == ["a.json"]
        assert path.read_text() == "old"

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_json(path, {"a": np.arange(5000.0), "b": [np.ones(3)] * 40}),
            lambda path: write_csv(path, ["x", "y"], [[i, i / 7] for i in range(5000)]),
        ],
        ids=["json", "csv"],
    )
    def test_full_disk_keeps_the_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "a.out"
        path.write_text("old")
        monkeypatch.setattr(qcollide.jsonio, "open", lambda p, mode: FullDisk(p, mode, 1000), raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            write(path)
        assert os.listdir(tmp_path) == ["a.out"]
        assert path.read_text() == "old"
        monkeypatch.undo()
        write(path)
        assert os.listdir(tmp_path) == ["a.out"]
        assert path.read_text() != "old"


cells = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
)


class TestWriteCsv:
    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=st.lists(st.lists(cells, min_size=1, max_size=5), max_size=6))
    @example(rows=[[-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-320, 0]])
    @example(rows=[[np.float64(-0.0), 1e300 * 1e10, -math.inf, 0.1 + 0.2, 1e22, 2**80, np.int64(-7)]])
    def test_float_cells_keep_their_bits_and_integers_are_bare(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "a.csv"
        write_csv(path, ["c"] * 7, rows)
        lines = path.read_text().split("\n")
        assert lines[0] == "c,c,c,c,c,c,c" and lines[-1] == ""
        for row, line in zip(rows, lines[1:-1], strict=True):
            for value, cell in zip(row, line.split(","), strict=True):
                if isinstance(value, (int, np.integer)):
                    assert cell == str(int(value))
                else:
                    assert np.float64(float(cell)).view(np.int64) == np.float64(value).view(np.int64)

    @pytest.mark.parametrize("n", [0, 1, 8, 9, 10])
    def test_rows_are_pulled_and_written_a_chunk_at_a_time(self, tmp_path, monkeypatch, n):
        # any iterable of rows gives the file a list of the same rows gives,
        # and each chunk is written before the next row is pulled
        want = tmp_path / "want.csv"
        write_csv(want, ["x", "y"], [[i, i / 7] for i in range(n)])
        pulled, writes = [], []

        def rows():
            for i in range(n):
                pulled.append(i)
                yield [i, i / 7]

        class Logged(FullDisk):
            def write(self, text):
                writes.append((len(pulled), text.count("\n")))
                return super().write(text)

        monkeypatch.setattr(qcollide.jsonio, "CSV_CHUNK_ROWS", 3)
        monkeypatch.setattr(qcollide.jsonio, "open", lambda p, mode: Logged(p, mode, math.inf), raising=False)
        write_csv(tmp_path / "got.csv", ["x", "y"], rows())
        monkeypatch.undo()
        assert (tmp_path / "got.csv").read_text() == want.read_text()
        assert writes == [(0, 1)] + [(min(n, k + 3), min(3, n - k)) for k in range(0, n, 3)]

    def test_trajectory_csv_is_the_per_row_spelling(self, tmp_path):
        # the writer the one CSV writer replaced: one .17g token per cell, row by row
        traj = run_simulate(load_scenario({"scenario": "rotating-env-2q", "n_collisions": 7}))
        old = ["step,t,pe_c1_re,pe_c1_im,pe_c2_re,pe_c2_im,trace,min_eigenvalue"]
        for i in range(len(traj)):
            values = [traj.times[i], *[p for v in traj.observable_values[i] for p in (v.real, v.imag)]]
            values += [traj.traces[i], traj.min_eigenvalues[i]]
            old.append(",".join([str(int(traj.steps[i]))] + [format(float(x), ".17g") for x in values]))
        traj.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == "\n".join(old) + "\n"


class TestComplexMatrixFromJson:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ([[[1, 0, 7], [0, 0]], [[0, 0], [1, 0]]], "entry [1, 0, 7] is not a pair of numbers"),
            ([[[1, 0]], [[0, 0], [1, 0]]], "rows of unequal lengths [1, 2]"),
            ([[[1]]], "entry [1] is not a pair of numbers"),
            ([[1, 0]], "entry 1 is not a pair of numbers"),
            ([[[True, 0]]], "is not a pair of numbers"),
            ([[["1", 0]]], "malformed complex matrix payload"),
            (5, "malformed complex matrix payload"),
        ],
        ids=["triple", "ragged", "single", "scalar-entry", "bool", "string", "not-a-list"],
    )
    def test_malformed_payload(self, payload, message):
        with pytest.raises(ValueError, match="^malformed complex matrix payload: ") as info:
            complex_matrix_from_json(payload)
        assert message in str(info.value)

    def test_round_trip(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(complex_matrix_from_json(complex_matrix_to_json(a)), a)
