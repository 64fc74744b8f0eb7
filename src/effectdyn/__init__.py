"""Quantum effect calculus under unitary time evolution.

Effects (0 <= a <= I), states, the sequential product a∘b = a^{1/2}ba^{1/2},
the a-evolution b(t|a) = e^{-ita}be^{ita}, the time-dependent sequential
product a[t]b with its constancy classification, the matching observable
calculus, closed-form worked examples used as oracles, and a randomized
search over the symmetry gap ||a[t]b - b[t]a|| that certifies a lower bound
for each minimum on its time window.
"""

from . import closed_forms, linalg, serialization
from .effects import (
    DECISION_TOL,
    CoexistenceWitness,
    Effect,
    State,
    clamp_unit,
    commutes,
    commuting_witness,
    identity_effect,
    maximally_mixed_state,
    probability,
    sequential_product,
    validate_effect,
    validate_state,
    verify_coexistence_witness,
    zero_effect,
)
from .errors import (
    CommutingPairError,
    ConsistencyError,
    DimensionMismatchError,
    EffectdynError,
    EmptyGridError,
    InvalidOrderError,
    MemberNotEffectError,
    NonHermitianError,
    NotAProjectionError,
    NotCommutingError,
    OutcomeSetMismatchError,
    SchemaError,
    SpectrumOutOfRangeError,
    SumNotIdentityError,
    TraceNotOneError,
    WeightsNotNormalizedError,
)
from .evolution import (
    BRUTEFORCE_TOL,
    ConstancyReport,
    ScaledProjectionDecomposition,
    classify_scaled_projection,
    constancy_bruteforce,
    constancy_classifier,
    deviation_norm,
    effect_evolution,
    evolution_derivative,
    evolve_state,
    max_seq_deviation,
    projection_evolution_closed_form,
    seq_deviation_profile,
    seq_product_derivative,
    time_seq_product,
)
from .explorer import (
    ScanConfig,
    ScanRecord,
    ScanResult,
    commutator_norm,
    conjecture_scan,
    minimize_gap,
    random_effect,
    symmetry_gap,
    symmetry_gap_profile,
)
from .observables import (
    Observable,
    OutcomeDistribution,
    conditioned_observable,
    convex_combination,
    distribution,
    obs_evolution,
    obs_seq_product,
    obs_time_seq_product,
    time_conditional_observable,
    validate_observable,
)

__version__ = "0.1.0"
