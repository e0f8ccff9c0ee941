"""Strongly reinforced random walks on finite weighted graphs.

Simulation of the walk, analysis of its mean-field occupation flow
(equilibria, stability, energy functional), the exponential-clock
construction, and reproducible Monte Carlo localization campaigns.
"""

from ._version import __version__
from .campaign import (
    CampaignResult,
    DetectionConfig,
    ExperimentConfig,
    ReplicaResult,
    equilibrium_anchors,
    export,
    load_campaign,
    replica_seed,
    run_campaign,
)
from .dynamics import (
    FlowTrajectory,
    ModelParameters,
    fundamental_matrix,
    integrate_flow,
    invariant_measure,
    jacobian,
    lyapunov,
    lyapunov_derivative,
    tangent_eigenvalues,
    transition_kernel,
    vector_field,
)
from .equilibria import (
    Equilibrium,
    ThresholdRow,
    ThresholdTable,
    TwoLevelData,
    center_eigenvalue,
    classify,
    critical_alpha,
    critical_alpha_loop,
    enumerate_all,
    face_center,
    level_ratio_polynomial,
    solve_two_level,
    summarize,
    threshold_table,
)
from .errors import (
    BoundaryJacobianError,
    BuildError,
    DegenerateSupportError,
    DomainError,
    NumericError,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    VrrwError,
)
from .graph import (
    FaceIndex,
    InteractionMatrix,
    complete_graph,
    project_to_simplex,
    validate,
    with_diagonal,
)
from .rubin import (
    ClockConfig,
    RubinRecord,
    TrapSample,
    power_weight,
    rubin_simulate,
    sample_trap_event,
    trap_probability_bound,
)
from .walk import (
    RNG_CONTRACT_VERSION,
    TrajectoryRecord,
    WalkState,
    checkpoint_schedule,
    init_walk,
    simulate,
    splitmix64,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
