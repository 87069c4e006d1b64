"""Key-generation rates for decoy-intensity QKD with any number of intensities.

Layers, bottom up: generalized divided differences (``divided_diff``), the
convex Fock-mixture expansion of phase-randomized pulses (``expansion``),
closed-form single-photon bounds with an LP oracle (``bounds``), the fiber
noise model (``channel``), key-rate formulas and optimizers (``keyrate``),
and named comparison scenarios with distance sweeps (``scenarios``,
``cli``).  Independent verification routes live in ``decoy_akg.reference``,
which the package itself never imports.
"""

from .bounds import (
    BoundResult,
    InfeasibleStatsError,
    ObservedStats,
    aggregate,
    lp_oracle_b1_max,
    lp_oracle_b_j_max,
    lp_oracle_q1_min,
    lp_oracle_q_j_min,
)
from .channel import (
    STANDARD_FIBER,
    ChannelParams,
    alpha_of_distance,
    counting_rate,
    error_rate,
    model_stats,
)
from .divided_diff import (
    DegeneratePointsError,
    EvaluationError,
    PointSet,
    divided_difference_recurrence,
)
from .expansion import (
    ConstraintMatrix,
    DecoyMatrices,
    ExpansionTable,
    IntensityGrid,
    build_matrices,
    gamma_coefficient,
    omega,
)
from .keyrate import (
    RateInputs,
    akg_rate,
    binary_entropy_bar,
    find_zero_distance,
    optimize_signal_intensity,
    single_photon_credit,
    universal_upper,
)
from .scenarios import (
    ConfigurationError,
    ScenarioSpec,
    SweepResult,
    SweepRow,
    run_scenario,
)

__all__ = [
    "BoundResult",
    "ChannelParams",
    "ConfigurationError",
    "ConstraintMatrix",
    "DecoyMatrices",
    "DegeneratePointsError",
    "EvaluationError",
    "ExpansionTable",
    "InfeasibleStatsError",
    "IntensityGrid",
    "ObservedStats",
    "PointSet",
    "RateInputs",
    "STANDARD_FIBER",
    "ScenarioSpec",
    "SweepResult",
    "SweepRow",
    "aggregate",
    "akg_rate",
    "alpha_of_distance",
    "binary_entropy_bar",
    "build_matrices",
    "counting_rate",
    "divided_difference_recurrence",
    "error_rate",
    "find_zero_distance",
    "gamma_coefficient",
    "lp_oracle_b1_max",
    "lp_oracle_b_j_max",
    "lp_oracle_q1_min",
    "lp_oracle_q_j_min",
    "model_stats",
    "omega",
    "optimize_signal_intensity",
    "run_scenario",
    "single_photon_credit",
    "universal_upper",
]
