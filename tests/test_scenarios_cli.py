import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qcollide.channels import (
    DensityMatrix,
    identity_channel,
    lossy_bosonic_channel,
    replacer_channel,
    unitary_channel,
)
import qcollide.cli
import qcollide.scenarios
from qcollide.cli import main
from qcollide.integrator import integrate
from qcollide.jsonio import quote, write_json
from qcollide.ops import embed, expm_hermitian, momentum_op, number_op, pauli, position_op, projector
from qcollide.scenarios import (
    BUILTIN_NAMES,
    ConfigError,
    _builtin_document,
    collision_config,
    load_scenario,
    parse_operator,
    parse_state,
    run_converge,
    run_simulate,
    run_verify,
    scenario_generator,
)


class TestParsing:
    def test_operator_shorthands(self):
        assert np.allclose(parse_operator("sx", 2).entries, [[0, 1], [1, 0]])
        a = parse_operator("annihilation", 3).entries
        assert np.allclose(a, [[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
        assert np.allclose(parse_operator("proj1", 2).entries, [[0, 0], [0, 1]])
        assert np.allclose(parse_operator("annihilation(3)", 3).entries, a)

    def test_operator_matrix_escape(self):
        op = parse_operator({"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}, 2)
        assert np.allclose(op.entries, [[0, 1], [1, 0]])

    def test_operator_errors(self):
        with pytest.raises(ConfigError, match="unknown operator"):
            parse_operator("sw", 2)
        with pytest.raises(ConfigError, match="qubit"):
            parse_operator("sx", 3)
        with pytest.raises(ConfigError, match="declares dimension"):
            parse_operator("annihilation(4)", 3)

    def test_state_shorthands(self):
        g = parse_state("ground", (2, 2))
        assert np.allclose(np.diag(g.entries), [1, 0, 0, 0])
        mm = parse_state("maximally-mixed", (2,))
        assert np.allclose(mm.entries, np.eye(2) / 2)

    def test_state_ket(self):
        s = parse_state({"kind": "ket", "amplitudes": [[1, 0], [0, 1]]}, (2,))
        assert abs(s.entries[0, 0] - 0.5) < 1e-14

    def test_state_errors(self):
        with pytest.raises(ConfigError, match="unknown state"):
            parse_state("vortex", (2,))
        with pytest.raises(ConfigError, match="density"):
            parse_state({"kind": "matrix", "matrix": [[[2, 0]]]}, (1,))


class TestScenarioLoading:
    def test_builtin_names(self):
        for name in ("dephasing-1q", "ad-chain-2q", "rotating-env-2q", "bosonic-fiber", "replacer"):
            sc = load_scenario(name)
            assert sc.name == name

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="builtin"):
            load_scenario("warp-drive")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_scenario({"scenario": "replacer", "tend": 1.0})

    def test_builtin_param_override(self):
        sc = load_scenario({"scenario": "ad-chain-2q", "params": {"kappa": 0.5}})
        for got, want in zip(sc.channel.kraus, lossy_bosonic_channel(2, 0.5).kraus, strict=True):
            assert np.array_equal(got.entries, want.entries)

    def test_builtin_rejects_unknown_params(self):
        with pytest.raises(ConfigError, match="parameters"):
            load_scenario({"scenario": "dephasing-1q", "params": {"kappa": 0.5}})

    def test_scaling_is_derived(self):
        sc = load_scenario({"scenario": "dephasing-1q", "gamma": 2.0, "t_end": 0.8})
        cfg = collision_config(sc, 160)
        assert cfg.dt == 0.8 / 160
        assert cfg.g == math.sqrt(2.0 / cfg.dt)
        assert cfg.n_collisions == 160

    def test_custom_scenario(self):
        data = {
            "scenario": "custom",
            "carrier_dims": [2, 2],
            "env_dim": 2,
            "couplings": {"system": [["sx"], ["sy"]], "environment": ["sx"]},
            "eta": "ground",
            "channel": {"kind": "lossy", "dim": 2, "kappa": 0.3},
            "observables": [{"name": "pe", "carrier": 1, "op": "proj1"}],
            "gamma": 0.5,
        }
        sc = load_scenario(data)
        assert sc.carrier_dims == (2, 2)
        assert sc.gamma == 0.5
        assert sc.observables[0][0] == "pe"

    def test_custom_missing_key(self):
        with pytest.raises(ConfigError, match="missing key"):
            load_scenario({"scenario": "custom", "carrier_dims": [2]})

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "replacer", "t_end": 0.25, "sweep": [10, 20]}))
        sc = load_scenario(path)
        assert sc.t_end == 0.25 and sc.sweep == (10, 20)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(path)


def constructed_pieces(name: str) -> dict:
    """The builtin pieces as the scenario constructors built them before the
    builtins became config documents: the oracle of the documents."""
    sx = pauli("x")
    qubits = {
        "system": [[sx], [sx]],
        "environment": [sx],
        "eta": DensityMatrix.ground(2),
        "observables": [(f"pe_c{m}", embed(projector(2, 1), (2, 2), (m - 1,))) for m in (1, 2)],
    }
    if name == "dephasing-1q":
        return {
            "system": [[sx]],
            "environment": [sx],
            "eta": DensityMatrix.ground(2),
            "channel": identity_channel(2),
            "rho0": DensityMatrix.ground(2),
            "observables": [("p0_c1", projector(2, 0))],
        }
    if name == "ad-chain-2q":
        ket = np.zeros(4, dtype=complex)
        ket[1] = math.cos(math.pi / 8)
        ket[2] = math.sin(math.pi / 8)
        return {**qubits, "channel": lossy_bosonic_channel(2, 0.25), "rho0": DensityMatrix.from_ket(ket, (2, 2))}
    if name == "rotating-env-2q":
        ket = np.array([1, 0, 0, 1j]) / math.sqrt(2)
        return {
            **qubits,
            "channel": unitary_channel(expm_hermitian(pauli("z"), math.pi / 4)),
            "rho0": DensityMatrix.from_ket(ket, (2, 2)),
        }
    if name == "bosonic-fiber":
        d = 4
        x, p = position_op(d), momentum_op(d)
        ket1 = np.zeros(d, dtype=complex)
        ket1[0] = ket1[1] = 1 / math.sqrt(2)
        return {
            "system": [[x, p], [x, p]],
            "environment": [x, p],
            "eta": DensityMatrix.ground(d),
            "channel": lossy_bosonic_channel(d, 0.25),
            "rho0": DensityMatrix.from_ket(np.kron(ket1, np.eye(d)[0].astype(complex)), (d, d)),
            "observables": [(f"n_c{m}", embed(number_op(d), (d, d), (m - 1,))) for m in (1, 2)],
        }
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    return {
        **qubits,
        "channel": replacer_channel(DensityMatrix.ground(2)),
        "rho0": DensityMatrix.from_matrix(np.kron(plus, np.diag([0.3, 0.7])), (2, 2)),
    }


def assert_same_pieces(sc, want: dict):
    def same(a, b):
        assert a.dims == b.dims and np.array_equal(a.entries, b.entries)

    assert len(sc.couplings.system_ops) == len(want["system"])
    for got_ops, want_ops, env_ops in zip(sc.couplings.system_ops, want["system"], sc.couplings.env_ops):
        assert len(got_ops) == len(want_ops) and len(env_ops) == len(want["environment"])
        for got, op in zip(got_ops + env_ops, want_ops + want["environment"]):
            same(got, op)
    same(sc.eta, want["eta"])
    assert len(sc.channel.kraus) == len(want["channel"].kraus)
    for got, k in zip(sc.channel.kraus, want["channel"].kraus):
        same(got, k)
    same(sc.rho0, want["rho0"])
    assert [name for name, _ in sc.observables] == [name for name, _ in want["observables"]]
    for (_, got), (_, op) in zip(sc.observables, want["observables"]):
        same(got, op)


class TestBuiltinDocuments:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_loads_the_constructed_pieces(self, name):
        sc = load_scenario(name)
        assert sc.name == name
        assert_same_pieces(sc, constructed_pieces(name))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_document_is_json_and_loads_as_custom(self, name):
        doc = json.loads(json.dumps(_builtin_document(name, {})))
        sc = load_scenario({"scenario": "custom", **doc})
        assert sc.name == "custom"
        assert_same_pieces(sc, constructed_pieces(name))

    def test_channel_next_to_builtin_replaces_its_channel(self):
        sc = load_scenario(
            {"scenario": "ad-chain-2q", "gamma": 2.0, "channel": {"kind": "lossy", "dim": 2, "kappa": 0.81}}
        )
        (cross,) = scenario_generator(sc).rates.cross.values()
        # the cross rate scales as sqrt(kappa) per unit distance
        assert abs(cross[0, 0] - 0.9 * sc.gamma) <= 1e-12

    def test_builtin_keys_replace_document_keys(self):
        sc = load_scenario({"scenario": "ad-chain-2q", "rho0": "ground", "observables": [], "eta": "maximally-mixed"})
        assert np.array_equal(sc.rho0.entries, np.diag([1.0, 0, 0, 0]))
        assert sc.observables == ()
        assert np.array_equal(sc.eta.entries, np.eye(2) / 2)


class TestRunConverge:
    def test_dephasing_builtin(self):
        report = run_converge(load_scenario("dephasing-1q"))
        errors = [e["error"] for e in report.entries]
        assert report.errors_strictly_decreasing
        assert errors[1] < 1e-2  # n=100
        assert 0.8 <= report.fitted_order <= 1.2

    def test_single_entry_sweep(self):
        sc = load_scenario({"scenario": "dephasing-1q", "sweep": [50]})
        report = run_converge(sc)
        assert len(report.entries) == 1
        assert report.fitted_order is None

    def test_assumption_failure_aborts(self):
        data = {
            "scenario": "custom",
            "carrier_dims": [2],
            "env_dim": 2,
            "couplings": {"system": [["sz"]], "environment": ["sz"]},
            "eta": "ground",
            "channel": {"kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
            "sweep": [10, 20],
        }
        report = run_converge(load_scenario(data))
        assert not report.passed
        assert not report.assumption["passed"]
        assert report.entries == []

    def test_csv_output(self, tmp_path):
        report = run_converge(load_scenario({"scenario": "dephasing-1q", "sweep": [25, 50]}))
        path = tmp_path / "conv.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,dt,g,error"
        assert len(lines) == 3


class TestRunSimulate:
    def test_zero_collisions_single_sample(self, tmp_path):
        sc = load_scenario({"scenario": "replacer", "n_collisions": 0})
        traj = run_simulate(sc)
        traj.to_csv(tmp_path / "trajectory.csv")
        assert len(traj) == 1
        assert (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "command, filename",
        [("simulate", "trajectory.csv"), ("converge", "convergence.csv"), ("generators", "rates.csv")],
    )
    def test_csv_reruns_byte_identical(self, tmp_path, command, filename):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "ad-chain-2q", "n_collisions": 20, "sweep": [25, 50]}))
        for run in ("a", "b"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        a = (tmp_path / "a" / filename).read_bytes()
        b = (tmp_path / "b" / filename).read_bytes()
        assert a == b

    def test_json_format(self, tmp_path):
        sc = load_scenario({"scenario": "dephasing-1q", "n_collisions": 5})
        run_simulate(sc).to_json(tmp_path / "trajectory.json")
        data = json.loads((tmp_path / "trajectory.json").read_text())
        assert len(data["samples"]) == 6


class TestRunGenerators:
    def test_replacer_zero_cross_table(self, tmp_path):
        gen = scenario_generator(load_scenario("replacer"))
        gen.rates.to_csv(tmp_path / "rates.csv")
        rows = [r.split(",") for r in (tmp_path / "rates.csv").read_text().strip().splitlines()[1:]]
        cross_rows = [r for r in rows if r[0] != r[1]]
        assert cross_rows, "cross entries must be listed"
        for r in cross_rows:
            assert abs(float(r[4])) <= 1e-14 and abs(float(r[5])) <= 1e-14

    def test_bosonic_sqrt_kappa_scaling(self):
        sc = load_scenario({"scenario": "bosonic-fiber", "params": {"d": 4, "kappa": 0.25}})
        gen = scenario_generator(sc)
        g12 = gen.rates.cross[(1, 2)]
        # magnitudes scale as 0.5 = sqrt(kappa) per unit distance
        from qcollide.generators import stationary_rates

        g_d2 = stationary_rates(sc.couplings, sc.eta, sc.channel, 2, sc.gamma)
        ratio = np.linalg.norm(g_d2) / np.linalg.norm(g12)
        assert abs(ratio - 0.5) <= 1e-10

    def test_generator_json(self, tmp_path):
        gen = scenario_generator(load_scenario("dephasing-1q"))
        write_json(tmp_path / "rates.json", gen.rates.to_dict())
        write_json(tmp_path / "generators.json", gen.to_dict())
        data = json.loads((tmp_path / "rates.json").read_text())
        assert data["gamma"] == 1.0
        gen_data = json.loads((tmp_path / "generators.json").read_text())
        assert gen_data["carrier_dims"] == [2]


class TestRunVerify:
    def test_builtin_passes(self):
        report = run_verify(load_scenario("ad-chain-2q"), n_states=2)
        assert report.passed
        assert all(e["residual"] < 1e-12 for e in report.first_order)

    def test_report_dict_shape(self):
        report = run_verify(load_scenario("replacer"), n_states=1)
        d = report.to_dict()
        assert set(d) >= {"scenario", "assumption", "first_order", "second_order", "halving", "passed"}

    def test_report_keys_in_file_order(self):
        # verify.json spells the keys in this order; reruns compare it byte for byte
        d = run_verify(load_scenario("replacer"), n_states=1).to_dict()
        assert list(d) == [
            "scenario", "seed", "assumption", "first_order", "second_order", "halving", "tolerances", "passed",
        ]
        assert d["tolerances"] == {"first_order": 1e-12, "second_order": 1e-10, "ratio_window": [6.0, 10.0]}


class TestCLI:
    def test_converge_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "dephasing-1q", "sweep": [25, 50]}))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "convergence.csv").exists()
        assert "fitted order" in capsys.readouterr().out

    def test_simulate_builtin_name(self, tmp_path):
        code = main(["simulate", "--config", "replacer", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_generators_json_format(self, tmp_path):
        code = main([
            "generators", "--config", "bosonic-fiber", "--out", str(tmp_path), "--format", "json",
        ])
        assert code == 0
        assert (tmp_path / "rates.json").exists()

    def test_verify_writes_report(self, tmp_path):
        code = main(["verify", "--config", "dephasing-1q", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"]

    def test_config_error_exit_one(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "missing.json")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def per_carrier_config(tmp_path, environment) -> str:
        """ad-chain-2q with its environment couplings given per carrier."""
        cfg = tmp_path / "per-carrier.json"
        system = _builtin_document("ad-chain-2q", {})["couplings"]["system"]
        cfg.write_text(json.dumps({"scenario": "ad-chain-2q", "couplings": {"system": system, "environment": environment}}))
        return str(cfg)

    def test_per_carrier_environment_lists_run_every_command(self, tmp_path):
        cfg = self.per_carrier_config(tmp_path, [["sx"], ["sx"]])
        assert not load_scenario(cfg).couplings.env_shared
        for command in ("simulate", "generators", "converge", "verify"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        report = json.loads((tmp_path / "verify" / "verify.json").read_text())
        assert not report["assumption"]["uniform"]
        assert [sorted(e) for e in report["assumption"]["entries"]] == [["carrier", "term", "value"]] * 2
        # the same environment operator on both carriers is the builtin's shared list
        assert main(["simulate", "--config", "ad-chain-2q", "--out", str(tmp_path / "builtin")]) == 0
        got = (tmp_path / "simulate" / "trajectory.csv").read_bytes()
        assert got == (tmp_path / "builtin" / "trajectory.csv").read_bytes()

    def test_per_carrier_assumption_failure_exit_two(self, tmp_path, capsys):
        cfg = self.per_carrier_config(tmp_path, [["sx"], ["sz"]])
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "csv")]) == 2
        assert "assumption check failed" in capsys.readouterr().err
        assert (tmp_path / "csv" / "convergence.csv").read_text() == "n,dt,g,error\n"
        assert main(["converge", "--config", cfg, "--format", "json", "--out", str(tmp_path / "json")]) == 2
        report = json.loads((tmp_path / "json" / "convergence.json").read_text())
        assert report["entries"] == [] and report["fitted_order"] is None and report["reference_dt"] == 0.0
        assert not report["passed"] and not report["errors_strictly_decreasing"]
        assert report["assumption"]["entries"][1] == {"carrier": 2, "term": 0, "value": 1.0}

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"scenario": "bosonic-fiber", "params": {"kappa": 2}}, "transmissivity"),
            ({"scenario": "dephasing-1q", "record_stride": 0}, "record_stride"),
            ({"scenario": "dephasing-1q", "t_end": "abc"}, "t_end must be a real number, got 'abc'"),
            ({"scenario": "dephasing-1q", "rho0": {"kind": "ket"}}, "rho0: missing key 'amplitudes'"),
            (
                {"scenario": "dephasing-1q", "rho0": {"kind": "ket", "amplitudes": [[1], [0]]}},
                "rho0.amplitudes: malformed complex matrix payload: entry [1] is not a pair of numbers",
            ),
            (
                {
                    "scenario": "custom",
                    "carrier_dims": [2],
                    "env_dim": 2,
                    "couplings": {"system": [["projx"]], "environment": ["sx"]},
                    "eta": "ground",
                    "channel": {"kind": "lossy", "dim": 2, "kappa": 0.5},
                },
                "couplings.system[0][0]: operator 'projx': projector index 'x' is not an integer",
            ),
            ([1, 2], "must be a JSON object"),
            ({"scenario": "dephasing-1q", "seed": math.inf}, "seed must be an integer, got inf"),
            (
                {
                    "scenario": "custom",
                    "carrier_dims": [2],
                    "env_dim": 2,
                    "couplings": [1],
                    "eta": "ground",
                    "channel": {"kind": "lossy", "dim": 2, "kappa": 0.5},
                },
                "couplings: expected an object, got [1]",
            ),
            ({"scenario": "dephasing-1q", "gamma": math.nan}, "gamma must be positive and finite"),
            ({"scenario": "dephasing-1q", "t_end": math.inf}, "t_end must be positive and finite"),
            ({"scenario": "dephasing-1q", "sweep": []}, "sweep needs at least one entry"),
            ({"scenario": "dephasing-1q", "sweep": [50, 100, 100]}, "sweep entries must be distinct"),
            ({"scenario": "dephasing-1q", "sweep": [1.5, 2.5]}, "sweep entry must be an integer, got 1.5"),
            ({"scenario": "dephasing-1q", "sweep": [50, 100.0]}, "sweep entry must be an integer, got 100.0"),
            ({"scenario": "dephasing-1q", "sweep": "50"}, "sweep entry must be an integer, got '5'"),
            ({"scenario": "dephasing-1q", "n_collisions": 10.5}, "n_collisions must be an integer, got 10.5"),
            ({"scenario": "dephasing-1q", "record_stride": True}, "record_stride must be an integer, got True"),
            ({"scenario": "dephasing-1q", "seed": True}, "seed must be an integer, got True"),
            ({"scenario": "dephasing-1q", "seed": "7"}, "seed must be an integer, got '7'"),
            (
                {
                    "scenario": "custom",
                    "carrier_dims": [2.0],
                    "env_dim": 2,
                    "couplings": {"system": [["sx"]], "environment": ["sx"]},
                    "eta": "ground",
                    "channel": {"kind": "lossy", "dim": 2, "kappa": 0.5},
                },
                "carrier_dims entry must be an integer, got 2.0",
            ),
            (
                {
                    "scenario": "custom",
                    "carrier_dims": [2],
                    "env_dim": 2.5,
                    "couplings": {"system": [["sx"]], "environment": ["sx"]},
                    "eta": "ground",
                    "channel": {"kind": "lossy", "dim": 2, "kappa": 0.5},
                },
                "env_dim must be an integer, got 2.5",
            ),
            ({"scenario": "bosonic-fiber", "params": {"d": 3.5}}, "params.d must be an integer, got 3.5"),
            ({"scenario": "bosonic-fiber", "params": {"d": -1}}, "params.d must be at least 2, got -1"),
            (
                {"scenario": "ad-chain-2q", "observables": [{"name": "p", "carrier": 1.5, "op": "sz"}]},
                "observable 'p': carrier must be an integer, got 1.5",
            ),
            (
                {
                    "scenario": "custom",
                    "carrier_dims": [2],
                    "env_dim": 2,
                    "couplings": {"system": [["sx"]], "environment": ["sx"]},
                    "eta": "ground",
                    "channel": {"kind": "lossy", "dim": 2.7, "kappa": 0.5},
                },
                "channel dim must be an integer, got 2.7",
            ),
            ({"scenario": "dephasing-1q", "gamma": True}, "gamma must be a real number, got True"),
            ({"scenario": "dephasing-1q", "t_end": True}, "t_end must be a real number, got True"),
            ({"scenario": "dephasing-1q", "t_end": "0.5"}, "t_end must be a real number, got '0.5'"),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "lossy", "dim": 2, "kappa": "0.5"}},
                "channel kappa must be a real number, got '0.5'",
            ),
            ({"scenario": "ad-chain-2q", "params": {"kappa": True}}, "params.kappa must be a real number, got True"),
            ({"scenario": "ad-chain-2q", "params": {"p": "0.1"}}, "params.p must be a real number, got '0.1'"),
            ({"scenario": "rotating-env-2q", "params": {"theta": "1"}}, "params.theta must be a real number, got '1'"),
            (
                {"scenario": "dephasing-1q", "rho0": {"kind": "matrix", "matrix": [[[True, False], [0, 0]], [[0, 0], [0, 0]]]}},
                "is not a pair of numbers",
            ),
            (
                {"scenario": "dephasing-1q", "rho0": {"kind": "ket", "amplitudes": [[True, False], [0, 0]]}},
                "is not a pair of numbers",
            ),
            (
                {
                    "scenario": "custom",
                    "params": {},
                    "carrier_dims": [2],
                    "env_dim": 2,
                    "couplings": {"system": [["sx"]], "environment": ["sx"]},
                    "eta": "ground",
                    "channel": {"kind": "lossy", "dim": 2, "kappa": 0.5},
                },
                "'params' is only for builtin scenarios",
            ),
            ({"scenario": "ad-chain-2q", "params": [1]}, "params must be an object, got list"),
            ({"scenario": "ad-chain-2q", "couplings": "junk"}, "couplings: expected an object, got 'junk'"),
            (
                {"scenario": "ad-chain-2q", "channel": {"kind": "lossy", "dim": 3, "kappa": 0.5}},
                "channel dimension does not match env_dim",
            ),
            ({"scenario": "dephasing-1q", "channel": {"kind": "lossy", "dim": 2}}, "channel: missing key 'kappa'"),
            ({"scenario": "dephasing-1q", "eta": {"kind": "matrix"}}, "eta: missing key 'matrix'"),
            ({"scenario": "dephasing-1q", "rho0": {"kind": "product"}}, "rho0: missing key 'factors'"),
            (
                {"scenario": "ad-chain-2q", "rho0": {"kind": "product", "factors": [[[[1, 0]]], [[[1, 0], [0]]]]}},
                "rho0.factors[1]: malformed complex matrix payload: entry [0] is not a pair of numbers",
            ),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "unitary", "matrix": [[[1, 0, 7], [0, 0]], [[0, 0], [1, 0]]]}},
                "channel.matrix: malformed complex matrix payload: entry [1, 0, 7] is not a pair of numbers",
            ),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[1, 0]]]}},
                "channel.matrix: malformed complex matrix payload: rows of unequal lengths [2, 1]",
            ),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "kraus", "operators": [[[[1, 0], [0, 0]], [[0, 0]]]]}},
                "channel.operators[0]: malformed complex matrix payload: rows of unequal lengths [2, 1]",
            ),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": "m", "matrix": [[[1, 0], [0]], [[0, 0], [1, 0]]]}]},
                "observables[0].matrix: malformed complex matrix payload: entry [0] is not a pair of numbers",
            ),
            ({"scenario": "ad-chain-2q", "env_dim": 0}, "env_dim must be at least 1, got 0"),
            ({"scenario": "ad-chain-2q", "env_dim": -1}, "env_dim must be at least 1, got -1"),
            ({"scenario": "ad-chain-2q", "carrier_dims": [2, 0]}, "carrier_dims[1] must be at least 1, got 0"),
            ({"scenario": "bosonic-fiber", "params": {"d": 1}}, "params.d must be at least 2, got 1"),
            (
                {
                    "scenario": "ad-chain-2q",
                    "n_collisions": 10,
                    "couplings": {
                        "system": [["sx"], ["sx"]],
                        "environment": ["sx"],
                        "collision_system": [[["sz"], ["sz"]]] * 6,
                    },
                },
                "couplings: unknown keys ['collision_system']",
            ),
            ({"scenario": "dephasing-1q", "seed": -3}, "seed must be nonnegative"),
            (None, "bad.json cannot be read"),
            (b'{"scenario": "dephasing-1q", "t_end": "\xff"}', "bad.json cannot be read"),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": "a,b", "carrier": 1, "op": "proj0"}]},
                "observables[0].name: expected a nonempty string without commas, double quotes or line breaks, "
                "got 'a,b'",
            ),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": 'a"b', "carrier": 1, "op": "proj0"}]},
                "observables[0].name: expected a nonempty string",
            ),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": "a\nb", "carrier": 1, "op": "proj0"}]},
                "observables[0].name: expected a nonempty string",
            ),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": "a\rb", "carrier": 1, "op": "proj0"}]},
                "observables[0].name: expected a nonempty string",
            ),
            (
                {
                    "scenario": "dephasing-1q",
                    "observables": [{"name": "x", "carrier": 1, "op": "proj0"}, {"name": "x", "carrier": 1, "op": "sz"}],
                },
                "observables[1].name: duplicate observable name 'x'",
            ),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": 5, "carrier": 1, "op": "proj0"}]},
                "observables[0].name: expected a nonempty string without commas, double quotes or line breaks, got 5",
            ),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": "", "carrier": 1, "op": "proj0"}]},
                "observables[0].name: expected a nonempty string without commas, double quotes or line breaks, got ''",
            ),
            ({"scenario": "dephasing-1q", "observables": [{"carrier": 1, "op": "proj0"}]}, "observables[0]: missing key 'name'"),
            ({"scenario": "dephasing-1q", "observables": [{"name": "p", "carrier": 1}]}, "observables[0]: missing key 'op'"),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "lossy", "dim": 2, "kappa": 2}},
                "config error: channel: transmissivity must lie in [0, 1], got 2.0",
            ),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "lossy", "dim": 1, "kappa": 0.5}},
                "config error: channel: need at least two Fock levels",
            ),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "replacer", "eta": [[[-1, 0], [0, 0]], [[0, 0], [2, 0]]]}},
                "config error: channel.eta: minimum eigenvalue -1.0 below -1e-10",
            ),
            (
                {"scenario": "dephasing-1q", "channel": {"kind": "unitary", "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}},
                "config error: channel.matrix: matrix is not unitary within tolerance",
            ),
            (
                {"scenario": "dephasing-1q", "rho0": {"kind": "ket", "amplitudes": [[0, 0], [0, 0]]}},
                "config error: rho0: zero vector is not a state",
            ),
            (
                {"scenario": "dephasing-1q", "observables": [{"name": "m", "matrix": [[[1, 0], [0, 0], [0, 0]]] * 2}]},
                "config error: observables[0].matrix: expected a square matrix, got shape (2, 3)",
            ),
            (
                {"scenario": "ad-chain-2q", "couplings": {"system": [["sx"], ["sx"]], "environment": [["sx"]]}},
                "config error: per-carrier environment couplings must cover every carrier",
            ),
            (
                {"scenario": "ad-chain-2q", "couplings": {"system": [["sx"], ["sx"]], "environment": [["sx"], "sx"]}},
                "config error: couplings.environment[1]: expected a list, got 'sx'",
            ),
        ],
        ids=["kappa", "record-stride", "t-end", "ket-no-amplitudes", "ket-short-amplitude",
             "projx", "top-level-list", "seed-infinity", "couplings-list", "gamma-nan", "t-end-infinity",
             "sweep-empty", "sweep-duplicate", "sweep-float", "sweep-integral-float", "sweep-string",
             "n-collisions-float", "record-stride-bool", "seed-bool", "seed-string", "carrier-dims-float",
             "env-dim-float", "params-d-float", "params-d-negative", "observable-carrier-float", "channel-dim-float",
             "gamma-bool", "t-end-bool", "t-end-numeric-string", "channel-kappa-string", "params-kappa-bool",
             "params-p-string", "params-theta-string", "matrix-bool-pair", "ket-bool-amplitude",
             "custom-params", "params-list", "builtin-couplings-junk", "builtin-channel-dim",
             "lossy-no-kappa", "eta-no-matrix", "product-no-factors", "product-short-entry", "unitary-triple-entry",
             "unitary-ragged", "kraus-ragged", "observable-matrix-entry", "env-dim-zero", "env-dim-negative",
             "carrier-dim-zero", "params-d-one", "couplings-collision-table", "seed-negative",
             "config-directory",
             "config-not-utf8", "observable-name-comma", "observable-name-quote", "observable-name-newline",
             "observable-name-return", "observable-name-duplicate", "observable-name-number", "observable-name-empty",
             "observable-no-name", "observable-no-op", "lossy-kappa-factory", "lossy-one-level", "replacer-eta-not-state",
             "unitary-not-unitary", "ket-zero", "observable-matrix-not-square",
             "per-carrier-environment-short", "per-carrier-environment-entry-not-list"],
    )
    def test_malformed_config_exit_one(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "bad.json"
        if config is None:  # a directory where the config file should be
            cfg.mkdir()
        elif isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "dephasing-1q", "--format", "xml"],
            ["simulate", "--config", "dephasing-1q", "--seed", "3"],
            ["generators", "--config", "dephasing-1q", "--seed", "3"],
            ["converge", "--config", "dephasing-1q", "--seed", "3"],
            ["verify", "--config", "dephasing-1q", "--format", "json"],
            ["verify", "--config", "dephasing-1q", "--seed", "1.5"],
            ["simulate"],
            ["transmogrify", "--config", "dephasing-1q"],
            [],
        ],
        ids=["bad-format", "simulate-seed", "generators-seed", "converge-seed", "verify-format",
             "float-seed", "no-config", "unknown-command", "no-command"],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        # exit 2 is reserved for failed property checks
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qcollide")
        assert "error:" in err

    @pytest.mark.parametrize("command", ["simulate", "generators", "converge", "verify"])
    def test_out_naming_a_file_exit_one(self, tmp_path, capsys, command, monkeypatch):
        # rejected before the command runs, with one error line
        out = tmp_path / "taken"
        out.write_text("keep")
        monkeypatch.setattr(qcollide.cli, "scenario_generator" if command == "generators" else f"run_{command}", None)
        code = main([command, "--config", "dephasing-1q", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"qcollide: error: --out {out}: File exists\n"
        assert out.read_text() == "keep"

    @pytest.mark.parametrize(
        "command, fmt, name",
        [(command, fmt, name) for (command, fmt), files in qcollide.cli.OUTPUTS.items() for name in files],
    )
    def test_output_write_error_exit_one(self, tmp_path, capsys, command, fmt, name):
        # a directory where an output file goes: one error line naming the
        # file, no traceback and no summary
        (tmp_path / name).mkdir()
        argv = [command, "--config", "dephasing-1q", "--out", str(tmp_path)]
        code = main(argv + ([] if command == "verify" else ["--format", fmt]))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"qcollide: error: {tmp_path / name}: Is a directory\n"
        assert captured.out == ""
        assert (tmp_path / name).is_dir()
        # the file is written beside the directory and renamed over it: the
        # rename fails, and the written file goes with it
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_help_exit_zero(self, capsys):
        for command in ("simulate", "generators", "converge", "verify"):
            with pytest.raises(SystemExit) as info:
                main([command, "--help"])
            assert info.value.code == 0
            text = capsys.readouterr().out
            assert ("--seed" in text) == (command == "verify")
            assert ("--format" in text) == (command != "verify")
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_module_entry_point(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qcollide", "verify", "--config", "dephasing-1q"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("verify dephasing-1q:")
        proc = subprocess.run(
            [sys.executable, "-m", "qcollide", "simulate", "--config", "dephasing-1q", "--format", "xml"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "invalid choice: 'xml'" in proc.stderr

    def test_property_failure_exit_two(self, tmp_path, capsys):
        bad = {
            "scenario": "custom",
            "carrier_dims": [2],
            "env_dim": 2,
            "couplings": {"system": [["sz"]], "environment": ["sz"]},
            "eta": "ground",
            "channel": {"kind": "lossy", "dim": 2, "kappa": 0.5},
            "sweep": [10, 20],
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = main(["converge", "--config", str(cfg)])
        assert code == 2
        assert "assumption" in capsys.readouterr().err

    @staticmethod
    def non_finite_channel_config(tmp_path, bad) -> str:
        """ad-chain-2q relaxed by a Kraus channel with one non-finite entry
        (`bad` is NaN or Infinity, as JSON writes them)."""
        cfg = tmp_path / f"{bad}.json"
        operators = f"[[[[{bad}, 0], [0, 0]], [[0, 0], [1, 0]]]]"
        cfg.write_text(f'{{"scenario": "ad-chain-2q", "channel": {{"kind": "kraus", "operators": {operators}}}}}')
        return str(cfg)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_channel_fails_the_zero_mean_check(self, tmp_path, capsys, bad):
        # the first moments after the first relaxation are NaN, and the
        # worst of them must be too
        cfg = self.non_finite_channel_config(tmp_path, bad)
        with pytest.warns(RuntimeWarning):  # the loader's trace-preservation warning, and matmul's on Infinity
            assert main(["converge", "--config", cfg, "--out", str(tmp_path / "csv")]) == 2
        assert "assumption check failed: max first moment nan" in capsys.readouterr().err
        assert (tmp_path / "csv" / "convergence.csv").read_text() == "n,dt,g,error\n"

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["generators", "verify"])
    def test_non_finite_rates_exit_two(self, tmp_path, capsys, command, bad):
        cfg = self.non_finite_channel_config(tmp_path, bad)
        with pytest.warns(RuntimeWarning):  # the loader's trace-preservation warning, and matmul's on Infinity
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "property check failed: local rate matrix of carrier 2 is not finite" in err
        assert os.listdir(tmp_path / "out") == []

    def test_deeply_nested_config_file_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100000 + "]" * 100000)
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfg} is not valid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "generators", "converge", "verify"])
    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"scenario": "bosonic-fiber", "params": {"d": 1000000, "kappa": 0.5}},
                "params.d: the carriers' joint dimension 1000000000000 gives superoperators of "
                "1000000000000000000000000000000000000000000000000 entries, over the limit 67108864",
            ),
            (
                {"scenario": "ad-chain-2q", "carrier_dims": [2] * 14},
                "carrier_dims: the carriers' joint dimension 16384 gives superoperators of "
                "72057594037927936 entries, over the limit 67108864",
            ),
            (
                {"scenario": "ad-chain-2q", "env_dim": 100},
                "env_dim: the environment dimension 100 gives superoperators of 100000000 entries, "
                "over the limit 67108864",
            ),
            (
                {"scenario": "ad-chain-2q", "carrier_dims": [8, 8], "env_dim": 32},
                "carrier_dims and env_dim: the joint side 2048 is over the limit 1024",
            ),
            (
                {"scenario": "ad-chain-2q", "channel": {"kind": "lossy", "dim": 1000000, "kappa": 0.5}},
                "channel dim: the environment dimension 1000000 gives superoperators of "
                "1000000000000000000000000 entries, over the limit 67108864",
            ),
        ],
        ids=["params-d", "carrier-dims", "env-dim", "joint-side", "channel-dim"],
    )
    def test_config_too_large_to_build_exit_one(self, tmp_path, capsys, command, config, message):
        # the size rule names the key and the size before any array is
        # built: the whole command allocates less than 1 MB
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps(config))
        tracemalloc.start()
        try:
            code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert peak < 1 << 20
        assert not (tmp_path / "out").exists()

    def test_verify_failure_names_each_failed_check(self, tmp_path, capsys):
        # a vanishing t_end leaves every halving ratio at 1 or NaN: one line
        # per failed ratio, and no numpy warning on the way
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"scenario": "ad-chain-2q", "t_end": 1e-300}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--config", str(cfg)]) == 2
        assert caught == []
        assert capsys.readouterr().err.splitlines() == [
            "halving check failed: unitary ratio 1.00 outside [6, 10]",
            "halving check failed: column ratio 1.00 outside [6, 10]",
            "halving check failed: step ratio nan outside [6, inf]",
        ]

    @pytest.mark.parametrize("command", ["simulate", "generators", "converge", "verify"])
    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"scenario": "ad-chain-2q", "sweep": [10**400]},
                f"sweep entry {quote(10**400)}: at t_end 0.5 and gamma 1.0",
            ),
            (
                {"scenario": "ad-chain-2q", "n_collisions": 10**400},
                f"n_collisions {quote(10**400)}: at t_end 0.5 and gamma 1.0",
            ),
            (
                {"scenario": "ad-chain-2q", "t_end": 1e-300, "sweep": [50, 10**30]},
                f"sweep entry {10**30}: at t_end 1e-300 and gamma 1.0",
            ),
            (
                {"scenario": "ad-chain-2q", "gamma": 1e300, "t_end": 1e-300},
                "sweep entry 50: at t_end 1e-300 and gamma 1e+300",
            ),
        ],
        ids=["sweep-past-float", "n-collisions-past-float", "dt-underflows", "g-overflows"],
    )
    def test_collision_scaling_out_of_range_exit_one(self, tmp_path, capsys, command, config, message):
        # dt = t_end/n and g = sqrt(gamma/dt) of every sweep entry and of
        # n_collisions are checked when the config loads, for every command:
        # an n too large for a float, a dt that underflows to 0 and a g that
        # overflows are config errors, not tracebacks
        cfg = tmp_path / "scaling.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        tail = ", dt = t_end/n must be positive and finite and g = sqrt(gamma/dt) finite"
        assert capsys.readouterr().err == f"config error: {message}{tail}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "generators", "converge", "verify"])
    @pytest.mark.parametrize(
        "config, key",
        [
            ({"scenario": "ad-chain-2q", "gamma": 10**400}, "gamma"),
            ({"scenario": "ad-chain-2q", "t_end": -(10**400)}, "t_end"),
            ({"scenario": "bosonic-fiber", "params": {"kappa": 10**400}}, "params.kappa"),
            ({"scenario": "ad-chain-2q", "params": {"p": 10**400}}, "params.p"),
            ({"scenario": "rotating-env-2q", "params": {"theta": 10**400}}, "params.theta"),
            ({"scenario": "ad-chain-2q", "channel": {"kind": "lossy", "dim": 2, "kappa": 10**400}}, "channel kappa"),
        ],
        ids=["gamma", "t_end", "kappa", "p", "theta", "channel-kappa"],
    )
    def test_real_past_float_range_names_its_key(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        value = quote(-(10**400) if key == "t_end" else 10**400)
        assert capsys.readouterr().err == f"config error: {key} must be a real number within float range, got {value}\n"
        assert not (tmp_path / "out").exists()

    def test_verify_failure_lines_cover_assumption_and_orders(self, tmp_path, capsys, monkeypatch):
        # per-carrier environment couplings fail the zero-mean assumption;
        # with the order tolerances below zero all five states fail both orders
        monkeypatch.setattr(qcollide.scenarios, "FIRST_ORDER_TOL", -1.0)
        monkeypatch.setattr(qcollide.scenarios, "SECOND_ORDER_TOL", -1.0)
        cfg = tmp_path / "per-carrier.json"
        couplings = {"system": [["sx"], ["sx"]], "environment": [["sx"], ["sz"]]}
        cfg.write_text(json.dumps({"scenario": "ad-chain-2q", "couplings": couplings}))
        with pytest.warns(RuntimeWarning, match="environment operators have first moment"):
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert not report["passed"]
        assert lines[0] == f"assumption check failed: max first moment {report['assumption']['max_violation']:.3e}"
        assert [line.split(": state ")[0] for line in lines[1:11]] == (
            ["first-order check failed"] * 5 + ["second-order check failed"] * 5
        )
        assert all(line.endswith(" above -1") for line in lines[1:11])
        # the non-zero first moments also spoil the step defect's decay
        assert lines[11:] == [f"halving check failed: step ratio {report['halving']['step']['ratio']:.2f} outside [6, inf]"]

    @pytest.mark.parametrize("command", ["generators", "converge", "verify"])
    def test_numpy_warnings_stay_off_stderr(self, tmp_path, command):
        # an Infinity Kraus entry: the loader's own warning, then the
        # command's diagnostic, and no floating-point warning of numpy
        cfg = self.non_finite_channel_config(tmp_path, "Infinity")
        proc = subprocess.run(
            [sys.executable, "-m", "qcollide", command, "--config", cfg],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        warned = [line for line in lines if "Warning" in line]
        assert len(warned) == 1
        assert warned[0].endswith("RuntimeWarning: Kraus channel is not trace preserving (residual nan)")
        assert "encountered" not in proc.stderr
        assert lines[-1].startswith(("property check failed:", "assumption check failed:"))

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"scenario": "ad-chain-2q", "carrier_dims": ' + "[" * 950 + "]" * 950 + "}",
                "carrier_dims entry must be an integer, got [[[[[[[...]]]]]]]",
            ),
            (
                '{"scenario": "ad-chain-2q", "rho0": {"kind": "ket", "amplitudes": ' + "[" * 950 + "]" * 950 + "}}",
                "rho0.amplitudes: malformed complex matrix payload: entry [[[[[[[...]]]]]]] is not a pair of numbers",
            ),
            (
                '{"scenario": "ad-chain-2q", "observables": [{"name": "' + "n" * 5000 + '", "carrier": 7}]}',
                "observable 'nnnnnnnnnnnnnnnnnnnnnnnnnnn...nnnnnnnnnnnnnnnnnnnnnnnnnnnn': carrier 7 out of range",
            ),
            (
                '{"scenario": "ad-chain-2q", "' + "k" * 5000 + '": 1}',
                "unknown config keys ['kkkkkkkkkkkkkkkkkkkkkkkkkkk...kkkkkkkkkkkkkkkkkkkkkkkkk...",
            ),
        ],
        ids=["deep-carrier-dims", "deep-amplitudes", "long-name", "long-key"],
    )
    def test_config_error_quotes_are_bounded(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "quoted.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_integer_too_long_for_str_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "long.json"
        cfg.write_text('{"scenario": "ad-chain-2q", "env_dim": ' + "1" * 5000 + "}")
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfg} is not valid JSON: Exceeds the limit")
        assert "Traceback" not in err
        # a config dict can hold one, and a message names it without spelling it out
        with pytest.raises(ConfigError, match=r"^carrier_dims: the carriers' joint dimension <int too long to show>"):
            load_scenario({"scenario": "ad-chain-2q", "carrier_dims": [10**5000]})

    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_invariant_violation_exit_two(self, tmp_path, capsys, command):
        # the loader only warns about a non-trace-preserving channel; the run
        # must then stop at the first invalid sample with exit code 2
        leaky = {
            "scenario": "custom",
            "carrier_dims": [2],
            "env_dim": 2,
            "couplings": {"system": [["sx"]], "environment": ["sx"]},
            "eta": "ground",
            "channel": {"kind": "kraus", "operators": [[[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]]},
            "sweep": [10, 20],
        }
        cfg = tmp_path / "leaky.json"
        cfg.write_text(json.dumps(leaky))
        with pytest.warns(RuntimeWarning, match="not trace preserving"):
            code = main([command, "--config", str(cfg)])
        assert code == 2
        assert "property check failed: state invariants violated" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "replacer", "seed": 3}))
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--seed", "9"])
        assert code == 0
        assert json.loads((tmp_path / "verify.json").read_text())["seed"] == 9

    def test_negative_seed_override_exit_one(self, tmp_path, capsys):
        code = main(["verify", "--config", "dephasing-1q", "--out", str(tmp_path), "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: seed must be nonnegative")
        assert "Traceback" not in err
        assert not (tmp_path / "verify.json").exists()

    def test_consecutive_calls_match_separate_runs(self, tmp_path, capsys):
        # main reuses one parser: calls in one process, with a usage error
        # between them, give the exit codes, output and files of one
        # process per call
        runs = [
            ["simulate", "--config", "dephasing-1q", "--out", "{out}"],
            ["simulate", "--out", "{out}"],
            ["verify", "--config", "replacer", "--seed", "3", "--out", "{out}"],
            ["converge", "--config", "dephasing-1q", "--format", "json", "--out", "{out}"],
            ["simulate", "--config", "rotating-env-2q", "--format", "json", "--out", "{out}"],
        ]
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for i, argv in enumerate(runs):
            results = []
            for how in ("in-process", "separate"):
                out = tmp_path / how / str(i)
                args = [a.format(out=out) for a in argv]
                if how == "separate":
                    proc = subprocess.run(
                        [sys.executable, "-m", "qcollide", *args], env=env, capture_output=True, text=True, timeout=120
                    )
                    code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
                else:
                    try:
                        code = main(args)
                    except SystemExit as exc:
                        code = exc.code
                    stdout, stderr = capsys.readouterr()
                files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
                results.append((code, stdout, stderr.replace(str(out), "OUT"), files))
            assert results[0] == results[1], argv
            assert results[0][0] == (1 if i == 1 else 0)
        assert qcollide.cli._parser() is qcollide.cli._parser()

    def test_simulate_summary_runs_one_eigvalsh_on_the_final_sample(self, capsys, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert main(["simulate", "--config", "bosonic-fiber"]) == 0
        assert len(calls) == 1 and len(calls[0]) == 2
        monkeypatch.undo()
        traj = run_simulate(load_scenario("bosonic-fiber"))
        assert f"min eigenvalue {traj.min_eigenvalues[-1]:.3e}\n" in capsys.readouterr().out


class TestOutputTable:
    """The files each command writes under --out, and that the library
    writers give the same bytes as the CLI."""

    FILES = {
        ("simulate", "csv"): ["trajectory.csv"],
        ("simulate", "json"): ["trajectory.json"],
        ("generators", "csv"): ["generators.json", "rates.csv"],
        ("generators", "json"): ["generators.json", "rates.json"],
        ("converge", "csv"): ["convergence.csv"],
        ("converge", "json"): ["convergence.json"],
        ("verify", None): ["verify.json"],
    }

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "ad-chain-2q", "n_collisions": 20, "sweep": [25, 50]}))
        return str(path)

    @pytest.mark.parametrize("command, fmt", list(FILES), ids=[f"{c}-{f}" for c, f in FILES])
    def test_out_holds_the_documented_files(self, tmp_path, config, command, fmt):
        out = tmp_path / "out"
        argv = [command, "--config", config, "--out", str(out)] + (["--format", fmt] if fmt else [])
        assert main(argv) == 0
        assert sorted(os.listdir(out)) == self.FILES[command, fmt]

    @pytest.mark.parametrize(
        "command, name, write",
        [
            ("simulate", "trajectory.csv", lambda sc, path: run_simulate(sc).to_csv(path)),
            ("generators", "rates.csv", lambda sc, path: scenario_generator(sc).rates.to_csv(path)),
            ("converge", "convergence.csv", lambda sc, path: run_converge(sc).to_csv(path)),
        ],
        ids=["simulate", "generators", "converge"],
    )
    def test_library_writer_gives_the_cli_bytes(self, tmp_path, config, command, name, write):
        assert main([command, "--config", config, "--out", str(tmp_path / "cli")]) == 0
        write(load_scenario(config), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


class TestScenarioPhysics:
    def test_generator_reproduces_me_reference(self):
        # the convergence driver's reference must solve the registered generator
        sc = load_scenario({"scenario": "dephasing-1q", "t_end": 0.5})
        gen = scenario_generator(sc)
        traj = integrate(gen.total, sc.rho0, sc.t_end, 1e-3)
        p0 = traj.final_state().entries[0, 0].real
        assert abs(p0 - (1 + math.exp(-1.0)) / 2) <= 1e-8
