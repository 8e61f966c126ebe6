"""Joint measurement of two incompatible polarisation observables.

Simulates an entangled two-qubit experiment in which X on qubit 1 is
estimated from a strong measurement on qubit 2 while Y on qubit 1 is
measured semiweakly through a polarisation-dependent beam slide,
reconstructs the estimate inaccuracies from the outcome statistics, and
evaluates four inaccuracy trade-off relations against the commutator bound.
"""

from .qcore import (
    DEFAULT_TOLERANCES,
    PROFILES,
    BlochObservable,
    DataQualityWarning,
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    NumericalCorruptionError,
    ToleranceProfile,
    commutator_bound,
    expectation,
    fidelity,
    pauli,
    projector_pair,
    spread,
    tensor,
)
from .scenario import (
    OUTCOMES,
    REFLECTED,
    TRANSMITTED,
    DegenerateMeasurementError,
    JointDistribution,
    SemiweakSlide,
    disturbed_observable,
    effective_povm,
    epr_state,
    joint_distribution,
    slide_model,
)
from .estimate import (
    DispersionCheck,
    Estimator,
    UndefinedEstimateError,
    dispersion_check,
    estimator_spread,
    inaccuracy_x,
    inaccuracy_y,
    mh_from_counts,
    optimal_estimator,
    y_estimator_spread,
)
from .relations import (
    MDReport,
    RelationChain,
    RelationReport,
    RelationViolationError,
    StrengthOrdering,
    evaluate_md_relation,
    evaluate_relations,
    optimal_gap_weight,
    strength_comparison,
    verify_relation_chain,
)
from .oracle import (
    direct_margenau_hill,
    embed,
    naimark_unitary,
)
from .dataio import (
    DataValidationError,
    bundled_distribution,
    bundled_state,
    emit_density_matrix,
    emit_distribution,
    emit_report,
    load_density_matrix,
    load_distribution,
    parse_density_matrix,
    parse_distribution,
    save_distribution,
)
from .workflow import (
    ESTIMATOR_KINDS,
    REFERENCE_GAMMA_DEG,
    REFERENCE_R_H,
    REFERENCE_R_V,
    SimulationResult,
    VerificationResult,
    analyze_measured,
    build_estimator,
    dilated_chain,
    random_observable,
    random_slide,
    random_state,
    reference_scenario,
    run_verification,
    simulate_scenario,
    sweep_phi,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
