"""Scenario configuration, built-in scenario library, and run drivers.

Configs are JSON with named operator shorthands plus an explicit-matrix
escape hatch, so parameter sweeps are scriptable without code changes.
A builtin name stands for a custom config document (`_builtin_document`);
keys given next to it replace that document's keys, and one parser builds
every scenario.  For every sweep entry n the scaling dt = t_end/n,
g = sqrt(gamma/dt) is derived here and never user-supplied: the
weak-coupling limit is walked along the line g^2 dt = gamma.  One size
rule (`_check_size`) bounds a scenario before any of its arrays is built.
The drivers return their results and write no file; `cli` writes the
outputs, and prints the `failures` of a report.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    DensityMatrix,
    KrausChannel,
    lossy_bosonic_channel,
    replacer_channel,
    trace_distance,
    unitary_channel,
    validate_cpt,
)
from .collision import (
    CollisionConfig,
    CouplingSpec,
    check_assumption,
    simulate,
)
from .generators import GeneratorSet, full_generator
from .integrator import integrate
from .jsonio import complex_matrix_from_json, complex_matrix_to_json, quote, write_csv
from .ops import (
    Operator,
    annihilation,
    creation,
    embed,
    expm_hermitian,
    momentum_op,
    number_op,
    pauli,
    position_op,
    projector,
)
from .perturbation import (
    remainder_halving_ratios,
    traced_orders,
    verify_first_order,
    verify_second_order,
)
from .trajectory import Trajectory, check_observable_name

class ConfigError(Exception):
    """Raised for malformed or inconsistent scenario configuration."""


# The size rule: the joint side D d_e of the carriers and one environment
# site is at most MAX_JOINT_SIDE, and a superoperator on the carriers (the
# generator, D^4 entries) or on the environment (d_e^4 entries, which bound
# the Kraus lists the loader builds: d_e^3 for lossy, at most d_e^4 for a
# replacer) has at most MAX_SUPEROPERATOR_ENTRIES entries (1 GiB complex).
MAX_JOINT_SIDE = 1024
MAX_SUPEROPERATOR_ENTRIES = 2**26


def _check_size(carrier_dims: Sequence[int], env_dim: int, carrier_key="carrier_dims", env_key="env_dim") -> None:
    """A ConfigError naming the key and the size when a scenario breaks the
    size rule; checked before any array is built."""
    side = math.prod(carrier_dims)
    for key, space, d in ((carrier_key, "carriers' joint", side), (env_key, "environment", env_dim)):
        if d > 0 and d**4 > MAX_SUPEROPERATOR_ENTRIES:
            raise ConfigError(
                f"{key}: the {space} dimension {quote(d)} gives superoperators of {quote(d**4)} entries, "
                f"over the limit {MAX_SUPEROPERATOR_ENTRIES}"
            )
    if side * env_dim > MAX_JOINT_SIDE:
        keys = carrier_key if carrier_key == env_key else f"{carrier_key} and {env_key}"
        raise ConfigError(f"{keys}: the joint side {side * env_dim} is over the limit {MAX_JOINT_SIDE}")


def _integer(value, what: str) -> int:
    """A config integer as given: floats (also 2.0), booleans and strings are
    rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {quote(value)}")
    return int(value)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what}: expected an object, got {quote(value)}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what}: expected a list, got {quote(value)}")
    return value


def _key(spec: dict, key: str, what: str):
    if key not in spec:
        raise ConfigError(f"{what}: missing key {key!r}")
    return spec[key]


def _keyed(what: str, build):
    """build(), with the config key path `what` in the message of a ValueError."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _matrix(payload, what: str) -> np.ndarray:
    return _keyed(what, lambda: complex_matrix_from_json(payload))


def _real(value, what: str) -> float:
    """A config real number: JSON numbers only, booleans and strings are
    rejected, never converted, and so is an integer past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{what} must be a real number, got {quote(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} must be a real number within float range, got {quote(value)}") from None


@dataclass(eq=False)
class ScenarioConfig:
    name: str
    carrier_dims: tuple[int, ...]
    env_dim: int
    couplings: CouplingSpec
    eta: DensityMatrix
    channel: KrausChannel
    rho0: DensityMatrix
    observables: tuple[tuple[str, Operator], ...]
    gamma: float = 1.0
    t_end: float = 0.5
    sweep: tuple[int, ...] = (50, 100, 200, 400)
    n_collisions: int = 100
    record_stride: int = 1
    seed: int = 0

    def __post_init__(self):
        for key in ("gamma", "t_end"):
            setattr(self, key, _real(getattr(self, key), key))
        if not 0 < self.gamma < math.inf:
            raise ConfigError("gamma must be positive and finite")
        if not 0 < self.t_end < math.inf:
            raise ConfigError("t_end must be positive and finite")
        self.sweep = tuple(_integer(n, "sweep entry") for n in self.sweep)
        for key in ("n_collisions", "record_stride", "seed"):
            setattr(self, key, _integer(getattr(self, key), key))
        if not self.sweep:
            raise ConfigError("sweep needs at least one entry")
        if min(self.sweep) < 1:
            raise ConfigError("sweep entries must be positive collision counts")
        if len(set(self.sweep)) != len(self.sweep):
            raise ConfigError("sweep entries must be distinct")
        if self.n_collisions < 0:
            raise ConfigError("n_collisions must be nonnegative")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for n in self.sweep:
            _scaling(self, n, "sweep entry")
        _scaling(self, max(self.n_collisions, 1), "n_collisions")


def _scaling(sc: ScenarioConfig, n: int, key: str) -> tuple[float, float]:
    """dt = t_end/n first, then g = sqrt(gamma/dt), the weak-coupling
    scaling: a ConfigError naming `key` unless dt is positive and finite and
    g is finite."""
    try:
        dt = sc.t_end / n
        g = math.sqrt(sc.gamma / dt)
    except (OverflowError, ZeroDivisionError):  # n past float range, or dt underflows to 0
        dt = g = math.nan
    if not (0 < dt < math.inf and g < math.inf):
        raise ConfigError(
            f"{key} {quote(n)}: at t_end {sc.t_end!r} and gamma {sc.gamma!r}, dt = t_end/n must be "
            "positive and finite and g = sqrt(gamma/dt) finite"
        )
    return dt, g


def collision_config(sc: ScenarioConfig, n: int) -> CollisionConfig:
    """Collision parameters for n collisions, at the weak-coupling scaling
    (`_scaling`)."""
    if n < 1:
        raise ConfigError("collision count must be >= 1")
    dt, g = _scaling(sc, n, "collision count")
    return CollisionConfig(
        carrier_dims=sc.carrier_dims,
        env_dim=sc.env_dim,
        g=g,
        dt=dt,
        n_collisions=n,
        eta=sc.eta,
        channel=sc.channel,
        couplings=sc.couplings,
    )


def scenario_generator(sc: ScenarioConfig) -> GeneratorSet:
    """Rate tables and generator matrices for the configured scenario."""
    return full_generator(sc.couplings, sc.eta, sc.channel, sc.gamma, sc.carrier_dims)


# --- operator / state parsing ------------------------------------------------

_OP_BUILDERS = {
    "sx": lambda d: _require_qubit(d, "sx") or pauli("x"),
    "sy": lambda d: _require_qubit(d, "sy") or pauli("y"),
    "sz": lambda d: _require_qubit(d, "sz") or pauli("z"),
    "id": lambda d: Operator((d,), np.eye(d)),
    "annihilation": annihilation,
    "a": annihilation,
    "creation": creation,
    "adag": creation,
    "number": number_op,
    "n": number_op,
    "x": position_op,
    "p": momentum_op,
}


def _require_qubit(d: int, name: str):
    if d != 2:
        raise ConfigError(f"operator {name!r} needs a qubit factor, got dimension {d}")
    return None


def parse_operator(spec, dim: int) -> Operator:
    """Named shorthand ('sx', 'annihilation', 'proj1', ...) or explicit
    {'matrix': [[ [re,im], ...], ...]}; dimension comes from context."""
    if isinstance(spec, dict):
        if "matrix" not in spec:
            raise ConfigError(f"operator dict needs a 'matrix' key, got {quote(sorted(spec))}")
        mat = complex_matrix_from_json(spec["matrix"])
        if mat.shape[0] != dim:
            raise ConfigError(f"operator matrix side {mat.shape[0]} does not match dimension {dim}")
        return Operator((dim,), mat)
    if not isinstance(spec, str):
        raise ConfigError(f"operator spec must be a name or a matrix dict, got {type(spec).__name__}")
    name = spec.strip().lower()
    if "(" in name:  # tolerate explicit dimension suffix like "annihilation(4)"
        base, arg = name.split("(", 1)
        arg = arg.rstrip(")")
        if int(arg) != dim:
            raise ConfigError(f"operator {quote(spec)} declares dimension {quote(arg)}, context expects {dim}")
        name = base
    if name.startswith("proj"):
        if not name[4:].isdigit():
            raise ConfigError(f"operator {quote(spec)}: projector index {quote(name[4:])} is not an integer")
        return projector(dim, int(name[4:]))
    try:
        return _OP_BUILDERS[name](dim)
    except KeyError:
        raise ConfigError(f"unknown operator shorthand {quote(spec)}") from None


def _operator(spec, dim: int, what: str) -> Operator:
    """parse_operator with the config key path in its error message."""
    try:
        return parse_operator(spec, dim)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def parse_state(spec, dims: Sequence[int], what: str = "state") -> DensityMatrix:
    dims = tuple(dims)
    side = math.prod(dims)
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "ground":
            ket = np.zeros(side)
            ket[0] = 1.0
            return DensityMatrix.from_ket(ket, dims)
        if name == "maximally-mixed":
            return DensityMatrix.maximally_mixed(dims)
        raise ConfigError(f"{what}: unknown state shorthand {quote(spec)}")
    if not isinstance(spec, dict):
        raise ConfigError(f"{what}: state spec must be a shorthand name or a dict")
    kind = spec.get("kind")
    if kind == "ket":
        amps = _matrix([_key(spec, "amplitudes", what)], f"{what}.amplitudes")[0]
        if amps.size != side:
            raise ConfigError(f"{what}: ket length {amps.size} does not match dimension {side}")
        return _keyed(what, lambda: DensityMatrix.from_ket(amps, dims))
    if kind == "matrix":
        mat = _matrix(_key(spec, "matrix", what), f"{what}.matrix")
        if mat.shape[0] != side:
            raise ConfigError(f"{what}: state matrix side {mat.shape[0]} does not match dimension {side}")
        return _keyed(f"{what}: invalid density matrix", lambda: DensityMatrix.from_matrix(mat, dims))
    if kind == "product":
        factors = _list(_key(spec, "factors", what), f"{what}.factors")
        if len(factors) != len(dims):
            raise ConfigError(f"{what}: product state needs one factor per carrier")
        mats = [_matrix(m, f"{what}.factors[{i}]") for i, m in enumerate(factors)]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        return _keyed(f"{what}: invalid product state", lambda: DensityMatrix.from_matrix(full, dims))
    raise ConfigError(f"{what}: unknown state kind {quote(kind)}")


def parse_channel(spec, what: str = "channel") -> KrausChannel:
    """Channel dict: {'kind': 'lossy', 'dim', 'kappa'}, {'kind': 'replacer',
    'eta'}, {'kind': 'unitary', 'matrix'} or {'kind': 'kraus', 'operators'};
    matrices are nested [re, im] pairs.  The two kinds whose Kraus list is
    built here, lossy and replacer, meet the size rule first.  A Kraus list
    that is not trace preserving only warns, so that broken channels can
    still be run."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "lossy":
        dim = _integer(_key(spec, "dim", what), f"{what} dim")
        _check_size((), dim, env_key=f"{what} dim")
        kappa = _real(_key(spec, "kappa", what), f"{what} kappa")
        return _keyed(what, lambda: lossy_bosonic_channel(dim, kappa))
    if kind == "replacer":
        eta = _matrix(_key(spec, "eta", what), f"{what}.eta")
        _check_size((), len(eta), env_key=f"{what}.eta")
        return replacer_channel(_keyed(f"{what}.eta", lambda: DensityMatrix.from_matrix(eta, (eta.shape[0],))))
    if kind == "unitary":
        mat = _matrix(_key(spec, "matrix", what), f"{what}.matrix")
        return _keyed(f"{what}.matrix", lambda: unitary_channel(Operator((mat.shape[0],), mat)))
    if kind == "kraus":
        operators = _list(_key(spec, "operators", what), f"{what}.operators")
        ops = [_matrix(m, f"{what}.operators[{i}]") for i, m in enumerate(operators)]
        chan = _keyed(f"{what}.operators", lambda: KrausChannel(tuple(Operator((m.shape[0],), m) for m in ops)))
        report = validate_cpt(chan)
        if not report.passed:
            warnings.warn(
                f"Kraus channel is not trace preserving (residual {report.residual:.3e})",
                RuntimeWarning,
            )
        return chan
    raise ConfigError(f"{what} needs a 'kind' of lossy, replacer, unitary or kraus, got {quote(kind)}")


def _parse_observables(entries, carrier_dims) -> tuple[tuple[str, Operator], ...]:
    parsed = []
    side = math.prod(carrier_dims)
    for i, entry in enumerate(_list(entries, "observables")):
        what = f"observables[{i}]"
        name = _key(_object(entry, what), "name", what)
        _keyed(f"{what}.name", lambda: check_observable_name(name, [n for n, _ in parsed]))
        if "carrier" in entry:
            m = _integer(entry["carrier"], f"observable {quote(name)}: carrier")
            if not 1 <= m <= len(carrier_dims):
                raise ConfigError(f"observable {quote(name)}: carrier {quote(m)} out of range")
            local = _operator(_key(entry, "op", what), carrier_dims[m - 1], f"{what}.op")
            parsed.append((name, embed(local, carrier_dims, (m - 1,))))
        elif "matrix" in entry:
            mat = _matrix(entry["matrix"], f"{what}.matrix")
            if mat.shape[0] != side:
                raise ConfigError(f"observable {quote(name)}: matrix side mismatch")
            parsed.append((name, _keyed(f"{what}.matrix", lambda: Operator(tuple(carrier_dims), mat))))
        else:
            raise ConfigError(f"observable {quote(name)} needs 'carrier'+'op' or 'matrix'")
    return tuple(parsed)


# --- built-in scenarios -------------------------------------------------------

_BUILTIN_PARAMS = {
    "dephasing-1q": set(),
    "ad-chain-2q": {"kappa", "p"},
    "rotating-env-2q": {"theta"},
    "bosonic-fiber": {"d", "kappa"},
    "replacer": set(),
}
BUILTIN_NAMES = tuple(_BUILTIN_PARAMS)


def _ket(amplitudes) -> dict:
    return {"kind": "ket", "amplitudes": complex_matrix_to_json(np.asarray(amplitudes, dtype=complex))}


def _builtin_document(name: str, params: dict) -> dict:
    """The custom config document that builtin `name` stands for, with its
    `params` applied.  It holds only JSON-shaped values."""
    unknown = set(params) - _BUILTIN_PARAMS[name]
    if unknown:
        raise ConfigError(f"scenario {name!r} does not accept parameters {quote(sorted(unknown))}")
    if name == "dephasing-1q":
        return {
            "carrier_dims": [2],
            "env_dim": 2,
            "couplings": {"system": [["sx"]], "environment": ["sx"]},
            "eta": "ground",
            "channel": {"kind": "unitary", "matrix": complex_matrix_to_json(np.eye(2))},
            "rho0": "ground",
            "observables": [{"name": "p0_c1", "carrier": 1, "op": "proj0"}],
        }
    if name == "bosonic-fiber":
        d = _integer(params.get("d", 4), "params.d")
        if d < 2:
            raise ConfigError(f"params.d must be at least 2, got {quote(d)}")
        _check_size((d, d), d, "params.d", "params.d")
        ket1 = np.zeros(d, dtype=complex)
        ket1[0] = ket1[1] = 1 / math.sqrt(2)
        return {
            "carrier_dims": [d, d],
            "env_dim": d,
            "couplings": {"system": [["x", "p"], ["x", "p"]], "environment": ["x", "p"]},
            "eta": "ground",
            "channel": {"kind": "lossy", "dim": d, "kappa": _real(params.get("kappa", 0.25), "params.kappa")},
            "rho0": _ket(np.kron(ket1, np.eye(d)[0].astype(complex))),
            "observables": [{"name": f"n_c{m}", "carrier": m, "op": "number"} for m in (1, 2)],
        }
    # the three two-qubit chains: sigma_x couplings and a ground-state environment
    if name == "ad-chain-2q":
        if "kappa" in params and "p" in params:
            raise ConfigError("give either the transmissivity 'kappa' or the damping 'p', not both")
        if "p" in params:
            kappa = 1.0 - _real(params["p"], "params.p")
        else:
            kappa = _real(params.get("kappa", 0.25), "params.kappa")
        channel = {"kind": "lossy", "dim": 2, "kappa": kappa}
        rho0 = _ket([0, math.cos(math.pi / 8), math.sin(math.pi / 8), 0])  # cos|01> + sin|10>
    elif name == "rotating-env-2q":
        u = expm_hermitian(pauli("z"), _real(params.get("theta", math.pi / 4), "params.theta"))
        channel = {"kind": "unitary", "matrix": complex_matrix_to_json(u.entries)}
        rho0 = _ket(np.array([1, 0, 0, 1j]) / math.sqrt(2))
    else:
        channel = {"kind": "replacer", "eta": complex_matrix_to_json(np.diag([1.0, 0.0]))}
        plus = np.full((2, 2), 0.5)
        rho0 = {"kind": "product", "factors": [complex_matrix_to_json(m) for m in (plus, np.diag([0.3, 0.7]))]}
    return {
        "carrier_dims": [2, 2],
        "env_dim": 2,
        "couplings": {"system": [["sx"], ["sx"]], "environment": ["sx"]},
        "eta": "ground",
        "channel": channel,
        "rho0": rho0,
        "observables": [{"name": f"pe_c{m}", "carrier": m, "op": "proj1"} for m in (1, 2)],
    }


_RUN_KEYS = ("gamma", "t_end", "sweep", "n_collisions", "record_stride", "seed")
_TOP_LEVEL_KEYS = {
    "scenario",
    "params",
    "carrier_dims",
    "env_dim",
    "couplings",
    "eta",
    "channel",
    "rho0",
    "observables",
    *_RUN_KEYS,
}


def load_scenario(source) -> ScenarioConfig:
    """Build a ScenarioConfig from a dict, a JSON file path, or a builtin name."""
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
            # ValueError: not JSON, or an integer too long for int(); RecursionError: nested too deep
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        elif path in BUILTIN_NAMES:
            data = {"scenario": path}
        else:
            raise ConfigError(f"config {path!r} is neither a file nor a builtin scenario name")
    elif isinstance(source, dict):
        data = source
    else:
        raise ConfigError("config source must be a path, builtin name, or dict")

    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {quote(sorted(unknown))}")
    kind = data.get("scenario")
    if kind is None:
        raise ConfigError("config needs a 'scenario' key")
    if kind == "custom":
        if "params" in data:
            raise ConfigError("'params' is only for builtin scenarios; a custom config gives every key")
    elif kind not in BUILTIN_NAMES:
        raise ConfigError(f"unknown scenario {quote(kind)}; built-ins: {', '.join(BUILTIN_NAMES)}")
    elif not isinstance(data.get("params", {}), dict):
        raise ConfigError(f"params must be an object, got {type(data['params']).__name__}")

    # outside input: whichever parser or factory trips over a value, it is a config error
    try:
        doc = data if kind == "custom" else {**_builtin_document(kind, data.get("params", {})), **data}
        return _parse_document(kind, doc)
    except KeyError as exc:
        raise ConfigError(f"config is missing key {exc}") from exc
    except (ValueError, TypeError, IndexError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_document(name: str, doc: dict) -> ScenarioConfig:
    carrier_dims = tuple(_integer(d, "carrier_dims entry") for d in _list(doc["carrier_dims"], "carrier_dims"))
    env_dim = _integer(doc["env_dim"], "env_dim")
    named = {f"carrier_dims[{i}]": d for i, d in enumerate(carrier_dims)} | {"env_dim": env_dim}
    for what, d in named.items():
        if d < 1:
            raise ConfigError(f"{what} must be at least 1, got {quote(d)}")
    _check_size(carrier_dims, env_dim)
    coupling_block = _object(doc["couplings"], "couplings")
    unknown = set(coupling_block) - {"system", "environment"}
    if unknown:
        # a document couples every collision alike: a collision-indexed
        # table cannot be given, and is not silently dropped
        raise ConfigError(f"couplings: unknown keys {sorted(unknown)}")
    eta = parse_state(doc["eta"], (env_dim,), "eta")
    channel = parse_channel(doc["channel"])
    system = coupling_block.get("system")
    environment = coupling_block.get("environment")
    if system is None or environment is None:
        raise ConfigError("couplings need 'system' and 'environment' lists")
    if len(_list(system, "couplings.system")) != len(carrier_dims):
        raise ConfigError("one system coupling list per carrier required")

    def operators(ops, dim: int, what: str) -> list[Operator]:
        return [_operator(op, dim, f"{what}[{l}]") for l, op in enumerate(_list(ops, what))]

    system_ops = [
        operators(ops, carrier_dims[m], f"couplings.system[{m}]") for m, ops in enumerate(system)
    ]
    if _list(environment, "couplings.environment") and isinstance(environment[0], list):
        if len(environment) != len(carrier_dims):
            raise ConfigError("per-carrier environment couplings must cover every carrier")
        env_ops = [operators(ops, env_dim, f"couplings.environment[{m}]") for m, ops in enumerate(environment)]
        spec = CouplingSpec(
            system_ops=tuple(tuple(ops) for ops in system_ops),
            env_ops=tuple(tuple(ops) for ops in env_ops),
            env_shared=False,
        )
    else:
        env_list = operators(environment, env_dim, "couplings.environment")
        spec = CouplingSpec.uniform(system_ops, env_list)
    if channel.side != env_dim:
        raise ConfigError("channel dimension does not match env_dim")
    return ScenarioConfig(
        name=name,
        carrier_dims=carrier_dims,
        env_dim=env_dim,
        couplings=spec,
        eta=eta,
        channel=channel,
        rho0=parse_state(doc.get("rho0", "ground"), carrier_dims, "rho0"),
        observables=_parse_observables(doc.get("observables", []), carrier_dims),
        **{key: doc[key] for key in _RUN_KEYS if key in doc},
    )


# --- run drivers ---------------------------------------------------------------


def _assumption_failures(assumption: dict) -> list[str]:
    if assumption["passed"]:
        return []
    return [f"assumption check failed: max first moment {assumption['max_violation']:.3e}"]


@dataclass(eq=False)
class ConvergeReport:
    scenario: str
    entries: list[dict]
    fitted_order: float | None
    errors_strictly_decreasing: bool
    assumption: dict
    reference_dt: float
    passed: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_csv(self, path) -> None:
        columns = ("n", "dt", "g", "error")
        write_csv(path, columns, [[e[key] for key in columns] for e in self.entries])

    def failures(self) -> list[str]:
        """One line per failed check, none when the report passed."""
        if not self.assumption["passed"]:
            return _assumption_failures(self.assumption)
        return [] if self.passed else ["convergence errors are not strictly decreasing"]


def run_converge(sc: ScenarioConfig) -> ConvergeReport:
    """Integrate the weak-coupling generator once as reference, then run the
    collision model along the sweep and report the trace-distance error at
    t_end per n, with the order fitted from the last two sweep points."""
    probe = collision_config(sc, max(sc.sweep))
    report = check_assumption(probe, m_max=len(sc.carrier_dims) + 2)
    entries, fitted, decreasing, reference_dt = [], None, False, 0.0
    if report.passed:
        gen = scenario_generator(sc)
        n_ref = max(2000, 2 * max(sc.sweep))
        reference_dt = sc.t_end / n_ref
        # only the final sample is read, so only it is recorded (and validated)
        reference = integrate(gen.total, sc.rho0, sc.t_end, reference_dt, record_stride=n_ref)
        ref_state = reference.final_state()
        for n in sorted(sc.sweep):
            cfg = collision_config(sc, n)
            traj = simulate(cfg, sc.rho0, record_stride=max(n, 1))
            err = trace_distance(traj.final_state(), ref_state)
            entries.append({"n": n, "dt": cfg.dt, "g": cfg.g, "error": err})
        errors = [e["error"] for e in entries]
        decreasing = all(b < a for a, b in zip(errors, errors[1:]))
        if len(entries) >= 2 and errors[-1] > 0 and errors[-2] > 0:
            fitted = math.log(errors[-2] / errors[-1]) / math.log(entries[-1]["n"] / entries[-2]["n"])
    return ConvergeReport(
        scenario=sc.name,
        entries=entries,
        fitted_order=fitted,
        errors_strictly_decreasing=decreasing,
        assumption=report.to_dict(),
        reference_dt=reference_dt,
        passed=decreasing,
    )


def run_simulate(sc: ScenarioConfig) -> Trajectory:
    """Collision-model trajectory at the configured n_collisions.

    n_collisions = 0 emits a single-sample trajectory holding rho0."""
    cfg = collision_config(sc, max(sc.n_collisions, 1))
    if sc.n_collisions == 0:
        cfg = dataclasses.replace(cfg, n_collisions=0)
    names = [name for name, _ in sc.observables]
    obs = [op for _, op in sc.observables]
    return simulate(cfg, sc.rho0, observables=obs, record_stride=sc.record_stride, observable_names=names)


RATIO_WINDOW = (6.0, 10.0)
FIRST_ORDER_TOL = 1e-12
SECOND_ORDER_TOL = 1e-10


@dataclass(eq=False)
class VerifyReport:
    scenario: str
    seed: int
    assumption: dict
    first_order: list[dict]
    second_order: list[dict]
    halving: dict

    def failures(self) -> list[str]:
        """One line per failed check, none when the report passed: the
        assumption, first and second order per state, and each halving
        ratio outside RATIO_WINDOW (the step ratio may also lie above it:
        faster-than-cubic decay satisfies the bound).  A NaN fails."""
        lines = _assumption_failures(self.assumption)
        lines += [
            f"first-order check failed: state {e['state']} residual {e['residual']:.3e} above {FIRST_ORDER_TOL:g}"
            for e in self.first_order
            if not e["passed"]
        ]
        lines += [
            f"second-order check failed: state {e['state']} residuals {e['residual_a']:.3e}, {e['residual_b']:.3e} "
            f"above {SECOND_ORDER_TOL:g}"
            for e in self.second_order
            if not e["passed"]
        ]
        lo, hi = RATIO_WINDOW
        for key, entry in self.halving.items():
            top = math.inf if key == "step" else hi
            if not lo <= entry["ratio"] <= top:
                lines.append(f"halving check failed: {key} ratio {entry['ratio']:.2f} outside [{lo:g}, {top:g}]")
        return lines

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["tolerances"] = {
            "first_order": FIRST_ORDER_TOL, "second_order": SECOND_ORDER_TOL, "ratio_window": list(RATIO_WINDOW)
        }
        d["passed"] = self.passed  # last, after the tolerances
        return d


def _random_state(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    side = math.prod(dims)
    r = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    rho = r @ r.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix.from_matrix(rho, dims)


def run_verify(sc: ScenarioConfig, n_states: int = 3) -> VerifyReport:
    """Expansion identity checks on the scenario: first-order cancellation,
    second-order identification with the generator pieces, and remainder
    halving ratios; the random states and probes are drawn from sc.seed."""
    rng = np.random.default_rng(sc.seed)
    cfg = collision_config(sc, max(sc.n_collisions, 1))
    assumption = check_assumption(cfg, m_max=len(sc.carrier_dims) + 2)

    gen = full_generator(sc.couplings, sc.eta, sc.channel, 1.0, sc.carrier_dims)
    states = [sc.rho0, DensityMatrix.maximally_mixed(sc.carrier_dims)]
    states += [_random_state(rng, sc.carrier_dims) for _ in range(n_states)]
    first, second = [], []
    for i, rho in enumerate(states):
        orders = traced_orders(cfg, rho)
        f = verify_first_order(cfg, rho, tol=FIRST_ORDER_TOL, orders=orders)
        s = verify_second_order(cfg, rho, tol=SECOND_ORDER_TOL, gen=gen, orders=orders)
        first.append({"state": i, "residual": f.residual, "passed": f.passed})
        second.append(
            {
                "state": i,
                "residual_a": s.residual_a,
                "residual_b": s.residual_b,
                "passed": s.passed,
            }
        )

    ratios = remainder_halving_ratios(cfg, seed=sc.seed)
    halving = {
        "unitary": {"residuals": list(ratios.unitary[:2]), "ratio": ratios.unitary[2]},
        "column": {"residuals": list(ratios.column[:2]), "ratio": ratios.column[2]},
        "step": {"residuals": list(ratios.step[:2]), "ratio": ratios.step[2]},
    }
    return VerifyReport(
        scenario=sc.name,
        seed=sc.seed,
        assumption=assumption.to_dict(),
        first_order=first,
        second_order=second,
        halving=halving,
    )
