"""Collision-model simulation of multipartite open quantum systems and the
correlated Markovian master equation it converges to in the weak-coupling
limit."""

from .channels import (
    DensityMatrix,
    KrausChannel,
    fixed_point_distance,
    identity_channel,
    lossy_bosonic_channel,
    orbit,
    replacer_channel,
    unitary_channel,
    validate_cpt,
)
from .collision import (
    CollisionConfig,
    CouplingSpec,
    HamiltonianSchedule,
    check_assumption,
    collision_unitary,
    evolve_column_step,
    evolve_row,
    interaction_frame_couplings,
    simulate,
)
from .generators import (
    CorrelationTensor,
    GeneratorSet,
    cross_dissipator,
    cross_rates,
    full_generator,
    local_dissipator,
    local_rates,
    reduced_two_carrier_generator,
    signaling_correction,
    stationary_local_rates,
    stationary_rates,
)
from .integrator import integrate, reduced_trajectory, trace_distance
from .ops import (
    Operator,
    SandwichForm,
    embed,
    expm_hermitian,
    kron,
    partial_trace,
)
from .perturbation import (
    collision_step_defect,
    column_expansion,
    column_remainder,
    remainder_halving_ratios,
    traced_orders,
    unitary_expansion_terms,
    unitary_remainder,
    verify_first_order,
    verify_second_order,
)
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    collision_config,
    load_scenario,
    run_converge,
    run_simulate,
    run_verify,
)
from .trajectory import Trajectory

__version__ = "0.1.0"
