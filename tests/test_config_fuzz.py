"""Property tests of the config boundary: any JSON-shaped input to
load_scenario gives a ScenarioConfig or a ConfigError, never another
exception; and every command run through the CLI on a small config ends
with exit code 0, 1 or 2 and the stderr line that says why."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcollide.cli import OUTPUTS, main
from qcollide.scenarios import BUILTIN_NAMES, ConfigError, ScenarioConfig, load_scenario

OPTIONAL_KEYS = (
    "params", "gamma", "t_end", "sweep", "n_collisions", "record_stride", "seed", "rho0",
    "observables", "carrier_dims", "env_dim", "couplings", "eta", "channel",
)

# words the parsers look for, so nested values reach past the first check
WORDS = (
    "x", "ket", "lossy", "kind", "matrix", "product", "factors", "amplitudes", "ground",
    "maximally-mixed", "sx", "a", "proj1", "replacer", "unitary", "kraus", "operators",
    "dim", "kappa", "d", "p", "theta", "eta", "system", "environment", "name", "carrier", "op",
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.sampled_from([0.5, -1.0, math.inf, math.nan])
    | st.sampled_from(WORDS),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS), children, max_size=3),
    max_leaves=12,
)

configs = st.fixed_dictionaries(
    {"scenario": st.sampled_from(BUILTIN_NAMES + ("custom",))},
    optional={key: json_values for key in OPTIONAL_KEYS},
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(configs)
def test_load_scenario_returns_config_or_config_error(config):
    try:
        sc = load_scenario(config)
    except ConfigError:
        return
    assert isinstance(sc, ScenarioConfig)


# --- every command on a loadable config ends with a defined outcome ------------

# the four commands, each through cli.main with --out
COMMANDS = ("simulate", "generators", "converge", "verify")
# the one line an exit code of 1 or 2 comes with, by its start
EXIT_LINES = {
    1: ("config error:", "qcollide: error:"),
    2: (
        "property check failed:",
        "assumption check failed:",
        "convergence errors are not strictly decreasing",
        "first-order check failed:",
        "second-order check failed:",
        "halving check failed:",
    ),
}
# the warnings a run may raise: the loader's and the generator builder's own
DOCUMENTED_WARNINGS = (
    "Kraus channel is not trace preserving",
    "environment operators have first moment",
    "eta0 is not a fixed point",
)
# a message quotes each config value in at most jsonio.QUOTE_MAX = 60
# characters, so with its key path no stderr line is longer than this
MESSAGE_MAX = 300
EXAMPLES = 60

# finite, huge, tiny and non-finite reals
reals = st.sampled_from([0.25, 1.0, 1e-300, 1e300, -1.0, 0.0, math.inf, -math.inf, math.nan]) | st.floats(-3, 3)
kraus_entries = st.lists(st.tuples(reals, reals), min_size=4, max_size=4).map(
    lambda e: [[list(e[0]), list(e[1])], [list(e[2]), list(e[3])]]
)
channels = (
    st.fixed_dictionaries({"kind": st.just("kraus"), "operators": st.lists(kraus_entries, min_size=1, max_size=2)})
    | st.fixed_dictionaries({"kind": st.just("lossy"), "dim": st.sampled_from([2, 3, 10**6]), "kappa": reals})
)
# each builtin's own parameters
params = {
    "dephasing-1q": st.just({}),
    "ad-chain-2q": st.fixed_dictionaries({}, optional={"kappa": reals}),
    "rotating-env-2q": st.fixed_dictionaries({}, optional={"theta": reals}),
    "bosonic-fiber": st.fixed_dictionaries({}, optional={"d": st.sampled_from([2, 3, 10**6]), "kappa": reals}),
    "replacer": st.just({}),
}
small_configs = st.sampled_from(BUILTIN_NAMES).flatmap(
    lambda name: st.fixed_dictionaries(
        # short runs: a few collisions and a two-point sweep
        {"scenario": st.just(name), "params": params[name], "n_collisions": st.just(6), "sweep": st.just([4, 8])},
        optional={"gamma": reals, "t_end": reals, "channel": channels},
    )
)


def _complete(path: str) -> bool:
    """A whole output file: JSON that parses, or CSV rows as wide as the header."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        json.loads(text)
        return True
    rows = text.split("\n")
    return rows[-1] == "" and len({row.count(",") for row in rows[:-1]}) == 1


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None)
@given(small_configs)
# g = sqrt(gamma/dt) overflows at every sweep entry: a config error
@example({"scenario": "ad-chain-2q", "params": {}, "n_collisions": 6, "sweep": [4, 8], "gamma": 1e300, "t_end": 1e-300})
def test_commands_end_with_a_defined_outcome(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)  # NaN and Infinity as json writes them
        for command in COMMANDS:
            out = os.path.join(tmp, command)
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main([command, "--config", path, "--out", out])
            lines = stderr.getvalue().splitlines()
            assert code in (0, 1, 2), (command, code)
            if code:
                assert any(line.startswith(EXIT_LINES[code]) for line in lines), (command, code, lines)
            assert not any("Traceback" in line or "Warning" in line for line in lines), lines
            assert all(len(line) <= MESSAGE_MAX for line in lines), lines
            for w in caught:
                assert str(w.message).startswith(DOCUMENTED_WARNINGS), (command, str(w.message))
            written = sorted(os.listdir(out)) if os.path.isdir(out) else []
            fmt = "json" if command == "verify" else "csv"
            assert set(written) <= set(OUTPUTS[command, fmt]), written
            assert all(_complete(os.path.join(out, name)) for name in written), written
