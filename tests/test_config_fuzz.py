"""Property test of the config boundary: any JSON-shaped input to
load_scenario gives a ScenarioConfig or a ConfigError, never another
exception."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
