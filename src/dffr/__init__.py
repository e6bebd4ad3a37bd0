"""Distributed online convex optimization over gossip networks.

Two multi-agent update rules (a bandit-feedback gradient-free method and a
projection-free vertex-stepping method), a projected-gradient baseline, the
forgetting-factor regret metric that scores late-round tracking, and the
matching theoretical bound evaluators, wrapped in a deterministic experiment
harness.
"""

from .algorithms import (
    AlgorithmConfig,
    StepSchedule,
    gradient_estimate,
    gradient_free_step,
    projected_gradient_step,
    projection_free_step,
    run,
    smoothed_value,
)
from .geometry import (
    BoxSet,
    ShrunkSet,
    lmo,
    minkowski_containment_check,
    projection_inequality_gap,
    sample_unit_ball,
    sample_unit_sphere,
)
from .linesearch import golden_section
from .metrics import (
    BoundInputs,
    consensus_time,
    dffr,
    dffr_series,
    final_round_gap,
    gradient_free_regret_bound,
    projection_free_regret_bound,
    tracking_time,
)
from .network import (
    MixingConstants,
    WeightMatrix,
    gossip_average,
    mixing_bound_check,
    mixing_constants,
    validate_weight_matrix,
)
from .objectives import (
    ObjectiveStream,
    QuadraticTrackingFamily,
    RoundOptimum,
    round_optimum,
    verify_assumptions,
)
from .trace import Trace

__version__ = "0.1.0"
