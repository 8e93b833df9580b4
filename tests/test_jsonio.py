"""The one JSON writer: compact output that parses to the same document the
list-building, indented encoder produced, and the same tokens for edge
floats."""

import json
import math
import re

import numpy as np
import pytest

from qcollide.cli import main
from qcollide.jsonio import complex_matrix_from_json, complex_matrix_to_json, write_json
from qcollide.scenarios import load_scenario, run_simulate, run_verify, scenario_generator


def old_complex_matrix_to_json(a):
    """The element-by-element encoder the writer replaced: the oracle."""
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


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


class TestRoundTripAgainstOldEncoder:
    def test_generators_bosonic_fiber(self, tmp_path):
        out = tmp_path / "out"
        assert main(["generators", "--config", "bosonic-fiber", "--out", str(out), "--format", "json"]) == 0
        gen = scenario_generator(load_scenario("bosonic-fiber"))
        doc = read(out / "generators.json")
        rates_doc = read(out / "rates.json")

        pairs = [(doc["total"], gen.total.matrix)]
        pairs += [(m, t.matrix) for m, t in zip(doc["local"], gen.local_terms, strict=True)]
        cross = sorted(gen.cross_terms.items())
        pairs += [(e["matrix"], t.matrix) for e, (_, t) in zip(doc["cross"], cross, strict=True)]
        for rates in (doc["rates"], rates_doc):
            pairs += [(m, r) for m, r in zip(rates["local"], gen.rates.local, strict=True)]
            cross = sorted(gen.rates.cross.items())
            pairs += [(e["rates"], r) for e, (_, r) in zip(rates["cross"], cross, strict=True)]
        for payload, matrix in pairs:
            assert np.array_equal(complex_matrix_from_json(payload), matrix)

        old = {
            "carrier_dims": list(gen.carrier_dims),
            "rates": old_rates_dict(gen.rates),
            "local": [old_complex_matrix_to_json(t.matrix) for t in gen.local_terms],
            "cross": [
                {"m": m, "m_prime": mp, "matrix": old_complex_matrix_to_json(t.matrix)}
                for (m, mp), t in sorted(gen.cross_terms.items())
            ],
            "total": old_complex_matrix_to_json(gen.total.matrix),
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
        old = {
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
        doc = read(tmp_path / "trajectory.json")
        assert doc == old_document(old)
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
