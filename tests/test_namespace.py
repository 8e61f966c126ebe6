"""The package namespace: `import jointmeas` leaves the file-format layer
(`dataio`, and with it `csv` and `json`) unloaded until a caller reaches for
one of its names, and the public names stay the same.

The loading checks run in a fresh interpreter, because other test modules
import `dataio` names when they are collected."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import jointmeas
from jointmeas import dataio

# `jointmeas.__all__` before the file-format layer was deferred
PUBLIC_NAMES = [
    "BlochObservable", "DEFAULT_TOLERANCES", "DataQualityWarning", "DataValidationError",
    "DegenerateMeasurementError", "DensityMatrix", "DimensionMismatchError",
    "DispersionCheck", "ESTIMATOR_KINDS", "Estimator", "HermitianOperator",
    "JointDistribution", "MDReport", "NumericalCorruptionError", "OUTCOMES", "PROFILES",
    "REFERENCE_GAMMA_DEG", "REFERENCE_R_H", "REFERENCE_R_V", "REFLECTED", "RelationChain",
    "RelationReport", "RelationViolationError", "SemiweakSlide", "SimulationResult",
    "StrengthOrdering", "TRANSMITTED", "ToleranceProfile", "UndefinedEstimateError",
    "VerificationResult", "analyze_measured", "bundled_distribution", "bundled_state",
    "dataio", "dilated_chain", "direct_margenau_hill", "dispersion_check",
    "disturbed_observable", "embed", "emit_density_matrix", "emit_distribution",
    "emit_report", "epr_state", "estimate", "estimator_spread", "evaluate_md_relation",
    "evaluate_relations", "expectation", "fidelity", "inaccuracy_x", "inaccuracy_y",
    "joint_distribution", "load_density_matrix", "load_distribution", "mh_from_counts",
    "naimark_unitary", "optimal_estimator", "oracle", "parse_density_matrix",
    "parse_distribution", "pauli", "projector_pair", "qcore", "random_observable",
    "random_slide", "random_state", "reference_scenario", "relations", "run_verification",
    "save_distribution", "scenario", "simulate_scenario", "slide_model", "spread",
    "strength_comparison", "sweep_phi", "tensor", "verify_relation_chain", "workflow",
]
DEFERRED = [
    "DataValidationError", "bundled_distribution", "bundled_state", "emit_density_matrix",
    "emit_distribution", "emit_report", "load_density_matrix", "load_distribution",
    "parse_density_matrix", "parse_distribution", "save_distribution",
]
FILE_LAYER = ["jointmeas.dataio", "csv", "json"]


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports this test run's
    `jointmeas`; return the value it passes to ``report``, which imports
    json only once its argument is evaluated."""
    src = str(Path(jointmeas.__file__).resolve().parents[1])
    prelude = (f"import sys; sys.path.insert(0, {src!r}); "
               f"FILE_LAYER = {FILE_LAYER!r}; DEFERRED = {DEFERRED!r}\n"
               "def loaded(): return [m for m in FILE_LAYER if m in sys.modules]\n"
               "def report(value): import json; print(json.dumps(value))\n")
    proc = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_verify_and_sweep_leave_the_file_layer_unloaded():
    got = _fresh(
        "import jointmeas\n"
        "before = loaded()\n"
        "assert jointmeas.run_verification(10, 1).passed\n"
        "rho, slide, w = jointmeas.reference_scenario()\n"
        "rows = jointmeas.sweep_phi(rho, slide, [0.0, 90.0, 180.0])\n"
        "report([before, loaded(), 'dataio' in vars(jointmeas)])")
    assert got == [[], [], False]


def test_the_cli_import_leaves_importlib_resources_unloaded():
    """`dataio` imports `importlib.resources`, and its pathlib/zipfile
    chain, only inside the two functions that read the bundled data.  The
    interpreter runs with `-S`, numpy's directory appended to its path,
    because `.pth` files that `site` runs may import that module
    themselves."""
    src = str(Path(jointmeas.__file__).resolve().parents[1])
    numpy_dir = str(Path(np.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); sys.path.append({numpy_dir!r})\n"
            "def loaded(): return 'importlib.resources' in sys.modules\n"
            "import numpy\n"
            "after_numpy = loaded()\n"
            "import jointmeas.cli\n"
            "after_cli = loaded()\n"
            "dim = jointmeas.bundled_state().dim\n"
            "print(after_numpy, after_cli, loaded(), dim)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == ["False", "False", "True", "4"]


def test_public_names_are_unchanged():
    assert jointmeas.__all__ == PUBLIC_NAMES
    # nothing caches a deferred name in the package, even once dataio is loaded
    assert not vars(jointmeas).keys() & set(DEFERRED)


def test_deferred_names_resolve_to_the_dataio_objects():
    got = _fresh(
        "import jointmeas\n"
        "listed = set(DEFERRED) | {'dataio'} <= set(dir(jointmeas))\n"
        "unloaded_after_dir = loaded()\n"
        "from jointmeas import emit_report\n"
        "from jointmeas import dataio\n"
        "same = [getattr(jointmeas, name) is getattr(dataio, name) for name in DEFERRED]\n"
        "star = {}\n"
        "exec('from jointmeas import *', star)\n"
        "bound = [star[name] is getattr(dataio, name) for name in DEFERRED]\n"
        "report([listed, unloaded_after_dir, loaded(),\n"
        "        emit_report is dataio.emit_report, star['dataio'] is dataio,\n"
        "        same, bound, sorted(set(star) - {'__builtins__'}) == jointmeas.__all__])")
    listed, unloaded_after_dir, after, emit_same, module_same, same, bound, star_all = got
    assert listed and unloaded_after_dir == []
    assert after == FILE_LAYER
    assert emit_same and module_same and star_all
    assert same == [True] * len(DEFERRED)
    assert bound == [True] * len(DEFERRED)


def test_an_unknown_name_raises_the_standard_attribute_error():
    got = _fresh(
        "import jointmeas\n"
        "try:\n"
        "    jointmeas.emit_reports\n"
        "except AttributeError as exc:\n"
        "    message = str(exc)\n"
        "report([message, hasattr(jointmeas, 'load'), loaded()])")
    assert got == ["module 'jointmeas' has no attribute 'emit_reports'", False, []]


def test_a_deferred_name_follows_the_current_dataio_binding(monkeypatch):
    """Nothing is cached in the package: a name rebound in `dataio` (as the
    benchmark's span tracer does) reads through the package, and so does
    the restored original."""
    original = dataio.emit_report

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(dataio, "emit_report", wrapped)
    assert jointmeas.emit_report is wrapped
    monkeypatch.undo()
    assert jointmeas.emit_report is original
    assert "emit_report" not in vars(jointmeas)
