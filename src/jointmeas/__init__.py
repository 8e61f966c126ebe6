"""Joint measurement of two incompatible polarisation observables.

Simulates an entangled two-qubit experiment in which X on qubit 1 is
estimated from a strong measurement on qubit 2 while Y on qubit 1 is
measured semiweakly through a polarisation-dependent beam slide,
reconstructs the estimate inaccuracies from the outcome statistics, and
evaluates four inaccuracy trade-off relations against the commutator bound.
"""

from importlib import import_module as _import_module

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
)
from .relations import (
    MDReport,
    RelationChain,
    RelationReport,
    RelationViolationError,
    StrengthOrdering,
    evaluate_md_relation,
    evaluate_relations,
    strength_comparison,
    verify_relation_chain,
)
from .oracle import (
    direct_margenau_hill,
    embed,
    naimark_unitary,
)
from .workflow import (
    ESTIMATOR_KINDS,
    REFERENCE_GAMMA_DEG,
    REFERENCE_R_H,
    REFERENCE_R_V,
    VerificationResult,
    analyze_measured,
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

# The file-format layer, and with it csv and json, loads on first use:
# `verify` and the sweeps never read or write a file.  Each access goes to
# dataio afresh, so a name follows whatever dataio binds it to.
_DEFERRED = frozenset({
    "dataio", "DataValidationError", "bundled_distribution", "bundled_state",
    "emit_density_matrix", "emit_distribution", "emit_report", "load_density_matrix",
    "load_distribution", "parse_density_matrix", "parse_distribution", "save_distribution"})

__all__ = sorted({name for name in dir() if not name.startswith("_")} | _DEFERRED)


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import dataio`: the latter asks this
    # module for the attribute first and would land here again
    dataio = _import_module(f"{__name__}.dataio")
    return dataio if name == "dataio" else getattr(dataio, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _DEFERRED)
