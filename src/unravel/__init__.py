"""Jump-unraveling toolkit for time-local master equations with signed rates.

The library simulates open-system dynamics three ways: a deterministic RK4
oracle, standard jump trajectories where rates permit, and a family of
extended unravelings (rate-operator jumps, effective-ensemble reversals,
vector pairs, auxiliary-level embeddings, weighted and variable-population
trajectories) for the regimes where they do not.
"""

from .errors import (
    BadAmplitudes,
    ConfigError,
    DegenerateBlock,
    DimensionMismatch,
    GridMismatch,
    InvalidRatePolicy,
    MissingTargetState,
    NegativeRate,
    NegativeROEigenvalue,
    NegativeWEigenvalue,
    NoJumpPossible,
    NotHermitian,
    NotPSD,
    ParseError,
    SingularMap,
    StepTooLarge,
    UnknownMethod,
    UnknownModel,
    UnravelError,
    ZeroVector,
)
from .linalg import (
    hermitize,
    normalize,
    orthonormal_complement,
    psd_sqrt,
    trace_distance,
)
from .master_equation import (
    Channel,
    GeneratorSnapshot,
    GeneratorTrack,
    MasterEquation,
    channel,
    decay_operator,
    drift_decay_operator,
    effective_hamiltonian,
    jump_superoperator_apply,
    lindblad_apply,
    master_equation,
)
from .propagate import (
    OracleSolution,
    TimeGrid,
    choi_matrix,
    intermediate_propagator,
    propagate,
    propagator_map,
    propagator_maps,
    rk4_step,
)
from .divisibility import (
    DivisibilityReport,
    divisibility_scan,
    is_cp_divisible_at,
    is_p_divisible_at,
    min_rate_at,
    p_divisibility_min_eigenvalue,
    phase_covariant_p_divisible_at,
)
from .models import (
    OBSERVABLES,
    MODEL_NAMES,
    PhaseCovariantRates,
    build_model,
    delayed_negative_phase_covariant,
    eternally_nm,
    non_p_divisible,
    phase_covariant,
    phase_covariant_rates,
    spontaneous_emission,
)
from .outcomes import Branch, Clone, Destroy, Deterministic, Jump, ReverseJump, StepOutcome
from .mcwf import mcwf_branches, mcwf_step
from .wtd import wtd_next_jump, wtd_select_channel
from .rate_operators import (
    GaugeTransform,
    gauge_none,
    rate_operator,
    state_dependent_gauge,
    time_dependent_gauge,
    w_matching_gauge,
    w_rate_operator,
)
from .roqj import roqj_branches, roqj_step, wroqj_branches, wroqj_step
from .nmqj import NmqjEnsemble, nmqj_ensemble, nmqj_step, reverse_jump_probability
from .doubled import DoubledState, doubled_branches, doubled_step
from .tripled import (
    JumpPair,
    TripledEmbedding,
    embedded_master_equation,
    tripled_embed,
    tripled_extract,
)
from .weighted import (
    PlqtTrajectory,
    WeightedTrajectory,
    default_rate_policy,
    im_step,
    plqt_step,
)
from .cloning import clone_branches, cloning_step
from .opd import opd_decompose
from .engine import (
    EnsembleResult,
    MethodId,
    error_vs_oracle,
    method_id,
    observable_series,
    run_ensemble,
)

__version__ = "0.1.0"
