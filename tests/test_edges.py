"""Edge inputs end to end through the command line.

Rank-1 states, analysers with a zero-probability outcome, reflectivities
at 0 and 1, slides just either side of the 1e-6 guard and measured tables
with zero, -5e-10 or NaN entries each give a data error (exit 3) from one
of the documented gates, or reports whose seven relation inputs are finite
and non-negative; never a NaN and never an unexpected exception.  The
examples are drawn from a fixed seed, so the run does not depend on machine
load or on an example database.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from jointmeas import (
    BlochObservable,
    DensityMatrix,
    SemiweakSlide,
    emit_density_matrix,
    joint_distribution,
)
from jointmeas.cli import main
from jointmeas.scenario import MIN_REFLECTIVITY_GAP, TRIPLES

# a data-quality warning (a clamped eps^2, a slightly negative eigenvalue)
# is a documented outcome of an edge table, not a failure
pytestmark = pytest.mark.filterwarnings("ignore::jointmeas.qcore.DataQualityWarning")

INPUTS = ("eps_a", "eps_b", "delta_a", "delta_b", "delta_a_est", "delta_b_est", "c")

# the gates an edge input may stop at, by the message each one prints
GATE_MESSAGES = re.compile("|".join([
    r"contextual values are unbounded",           # r_h == r_v
    r"is below 1e-06: contextual values",         # |r_h - r_v| < MIN_REFLECTIVITY_GAP
    r"W outcome [+-]1 has probability",           # optimal estimate of a never-seen w
    r"line \d+: probability is not finite",       # a NaN entry in a table file
    r"negative probability",
    r"probabilities sum to .* for measured data",
    r"quasi-probabilities sum to",
    r"reconstructed eps\^2 = .*: input data is inconsistent",
    r"source angle gamma must be finite",         # --gamma nan, inf or -inf
]))

EDGE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.filter_too_much])

# pure states from amplitudes that are often exactly zero, so product states
# (and with them zero-probability W outcomes) come up
amplitude = st.one_of(st.just(0.0), st.just(1.0), st.floats(-1.0, 1.0))
pure_states = st.tuples(*[amplitude] * 8)
reflectivities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
gaps = st.one_of(
    st.sampled_from([0.0, 1e-12, 5e-7, MIN_REFLECTIVITY_GAP * (1 - 1e-6), MIN_REFLECTIVITY_GAP,
                     MIN_REFLECTIVITY_GAP * (1 + 1e-6), 2e-6, 0.01, 1.0]),
    st.floats(2e-6, 1.0))
thetas = st.one_of(st.sampled_from([0.0, 90.0, 180.0]), st.floats(0.0, 180.0))
phis = st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0.0, 360.0))
estimators = st.sampled_from(["simple", "optimal", "both"])


def state_text(amplitudes) -> str:
    vec = np.array(amplitudes[0::2]) + 1j * np.array(amplitudes[1::2])
    assume(np.linalg.norm(vec) > 1e-3)
    return emit_density_matrix(DensityMatrix.from_pure(vec))


def slide_pair(r_h: float, gap: float) -> tuple[float, float]:
    r_v = r_h + gap if r_h + gap <= 1.0 else r_h - gap
    assume(0.0 <= r_v <= 1.0)
    return r_h, r_v


def run(argv: list[str], files: dict[str, str]):
    """``main(argv)`` with each ``{flag: text}`` of ``files`` written to a
    file passed after its flag; returns the exit code, stderr and the
    parsed reports (None unless the run succeeded)."""
    with tempfile.TemporaryDirectory() as tmp:
        for flag, text in files.items():
            path = Path(tmp) / f"{flag.strip('-')}.csv"
            path.write_text(text)
            argv = argv + [flag, str(path)]
        out = Path(tmp) / "report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        reports = json.loads(out.read_text()) if code == 0 else None
    return code, err.getvalue(), reports


def assert_gate_or_finite(code: int, err: str, reports) -> None:
    if code == 3:
        assert err.startswith("data error: ") and GATE_MESSAGES.search(err), err
        return
    assert code == 0, (code, err)
    for report in reports if isinstance(reports, list) else [reports]:
        for name in INPUTS:
            value = report["inputs"][name]
            assert math.isfinite(value) and value >= 0.0, (name, value, report["scenario"])


HH = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@given(state=pure_states, r_h=reflectivities, gap=gaps, theta=thetas, phi=phis,
       estimator=estimators)
@example(state=HH, r_h=0.1244, gap=0.34, theta=0.0, phi=0.0, estimator="optimal")
@example(state=HH, r_h=0.1244, gap=0.34, theta=0.0, phi=0.0, estimator="simple")
@example(state=HH, r_h=0.0, gap=1.0, theta=90.0, phi=0.0, estimator="both")
@example(state=HH, r_h=1.0, gap=1.0, theta=45.0, phi=30.0, estimator="both")
@example(state=HH, r_h=0.5, gap=MIN_REFLECTIVITY_GAP * (1 - 1e-6), theta=90.0, phi=0.0,
         estimator="both")
@example(state=HH, r_h=0.5, gap=MIN_REFLECTIVITY_GAP * (1 + 1e-6), theta=90.0, phi=0.0,
         estimator="both")
@EDGE_SETTINGS
def test_simulate_edge_inputs(state, r_h, gap, theta, phi, estimator):
    r_h, r_v = slide_pair(r_h, gap)
    argv = ["simulate", "--rh", repr(r_h), "--rv", repr(r_v), "--theta", repr(theta),
            "--phi", repr(phi), "--estimator", estimator]
    assert_gate_or_finite(*run(argv, {"--state-file": state_text(state)}))


def table_text(p: np.ndarray, r_h: float, r_v: float, theta: float, phi: float) -> str:
    meta = {"r_h": r_h, "r_v": r_v, "theta_deg": theta, "phi_deg": phi}
    return "".join([*(f"# {key}={value!r}\n" for key, value in meta.items()), "m,y,w,p\n",
                    *(f"{m},{y},{w},{value:.12g}\n" for (m, y, w), value in zip(TRIPLES, p))])


@given(state=pure_states, r_h=reflectivities, gap=gaps, theta=thetas, phi=phis,
       estimator=estimators, edit=st.sampled_from(["none", "zero", "-5e-10", "nan"]),
       index=st.integers(0, 7), shift=st.integers(1, 7))
@example(state=HH, r_h=0.1244, gap=0.34, theta=0.0, phi=0.0, estimator="both",
         edit="none", index=0, shift=1)
@example(state=HH, r_h=0.1244, gap=0.34, theta=90.0, phi=0.0, estimator="both",
         edit="zero", index=0, shift=1)
@example(state=HH, r_h=0.1244, gap=0.34, theta=90.0, phi=0.0, estimator="both",
         edit="-5e-10", index=0, shift=1)
@example(state=HH, r_h=0.1244, gap=0.34, theta=90.0, phi=0.0, estimator="both",
         edit="nan", index=0, shift=1)
@EDGE_SETTINGS
def test_analyze_edge_tables(state, r_h, gap, theta, phi, estimator, edit, index, shift):
    """A simulated table, edited as a measured one might be: entry ``index``
    set to 0 or -5e-10 with its mass moved ``shift`` entries on, or set to
    NaN."""
    rho_text = state_text(state)
    r_h, r_v = slide_pair(r_h, gap)
    amplitudes = np.array(state[0::2]) + 1j * np.array(state[1::2])
    p = joint_distribution(DensityMatrix.from_pure(amplitudes), SemiweakSlide(r_h, r_v),
                           BlochObservable.from_degrees(theta, phi)).table.ravel().copy()
    if edit != "none":
        new = {"zero": 0.0, "-5e-10": -5e-10, "nan": math.nan}[edit]
        if edit != "nan":
            p[(index + shift) % 8] += p[index] - new
        p[index] = new
    argv = ["analyze", "--estimator", estimator]
    assert_gate_or_finite(*run(argv, {"--dist-file": table_text(p, r_h, r_v, theta, phi),
                                      "--state-file": rho_text}))


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("mode", ["simulate", "sweep"])
def test_non_finite_source_angle(mode, gamma):
    """A non-finite --gamma stops at the source-angle gate, with no numpy
    warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, reports = run([mode, f"--gamma={gamma}"], {})
    assert (code, err) == (3, f"data error: source angle gamma must be finite, got {gamma}\n")
    assert_gate_or_finite(code, err, reports)


@pytest.mark.parametrize("phis, message", [
    ("0,nan", "W outcome +1 has probability 0.000e+00"),
    ("inf,0", "analyser angle phi must be finite, got inf"),
])
def test_a_sweep_stops_at_its_first_offending_angle(phis, message):
    """At gamma = 0 and theta = 0 the analyser angle 0 gives a W outcome of
    probability 0: the error is the first offending angle's, whether that
    is a zero-probability outcome or a non-finite angle, with no numpy
    warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, reports = run(["sweep", "--gamma", "0", "--theta", "0", "--phi", phis], {})
    assert (code, err, reports) == (3, f"data error: {message}\n", None)
