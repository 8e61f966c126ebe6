"""Source state, slide model and the simulated joint outcome table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    OUTCOMES,
    REFLECTED,
    TRANSMITTED,
    BlochObservable,
    DegenerateMeasurementError,
    DensityMatrix,
    JointDistribution,
    SemiweakSlide,
    disturbed_observable,
    epr_state,
    expectation,
    inaccuracy_y,
    joint_distribution,
    pauli,
    projector_pair,
    simulate_scenario,
    slide_model,
    tensor,
)
from jointmeas.oracle import direct_moments, w_projectors
from jointmeas.scenario import MIN_REFLECTIVITY_GAP, povm_elements

R_H, R_V = 0.1244, 0.4645
KAPPA = 0.07486648470218149
XI_R = -4.1490738018229925
XI_T = 1.7315495442516906

# p(m, y, w) at gamma = 22.5 deg, the reflectivities above and W(90, 180)
JOINT_TABLE = {
    (+1, +1, +1): 0.2064483770351931,
    (+1, +1, -1): 0.1463266229648069,
    (+1, -1, +1): 0.20644837703519311,
    (+1, -1, -1): 0.1463266229648069,
    (-1, +1, +1): 0.043551622964806885,
    (-1, +1, -1): 0.10367337703519312,
    (-1, -1, +1): 0.0435516229648069,
    (-1, -1, -1): 0.10367337703519312,
}

reflectivity = st.floats(min_value=0.02, max_value=0.98, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)


def qubit_state(theta, phi):
    vec = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
    return DensityMatrix.from_pure(vec)


def test_outcome_labels():
    assert TRANSMITTED == +1
    assert REFLECTED == -1
    assert OUTCOMES == (+1, -1)
    slide = slide_model(R_H, R_V)
    # m = +1 is the transmitted branch, so its Kraus weights are 1 - r
    k = slide.kraus(TRANSMITTED).matrix
    x_plus = (np.eye(2) + pauli("X").matrix) / 2
    assert np.trace(k @ k @ x_plus).real == pytest.approx(1 - R_H)


def test_slide_goldens():
    slide = slide_model(R_H, R_V)
    assert slide.kappa == pytest.approx(KAPPA, abs=1e-12)
    assert slide.xi(REFLECTED) == pytest.approx(XI_R, abs=1e-12)
    assert slide.xi(TRANSMITTED) == pytest.approx(XI_T, abs=1e-12)
    assert slide.has_contextual_values
    with pytest.raises(ValueError):
        slide.xi(0)
    with pytest.raises(ValueError):
        slide.kraus(2)


@given(r_h=reflectivity, r_v=reflectivity)
@settings(max_examples=200, deadline=None)
def test_kraus_completeness(r_h, r_v):
    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    slide = slide_model(r_h, r_v)
    m_r, m_t = slide.kraus(REFLECTED).matrix, slide.kraus(TRANSMITTED).matrix
    assert np.allclose(m_r @ m_r + m_t @ m_t, np.eye(2), atol=1e-12)


@given(r_h=reflectivity, r_v=reflectivity, theta=angle, phi=angle)
@settings(max_examples=200, deadline=None)
def test_contextual_values_recover_x(r_h, r_v, theta, phi):
    """xi_t <M_t^2> + xi_r <M_r^2> reproduces <X> on every state."""
    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    slide = slide_model(r_h, r_v)
    rho = qubit_state(theta, phi)
    acc = 0.0
    for m in OUTCOMES:
        k = slide.kraus(m).matrix
        acc += slide.xi(m) * np.trace(rho.matrix @ k @ k).real
    assert acc == pytest.approx(expectation(pauli("X"), rho), abs=1e-9)


@given(r_h=reflectivity, r_v=reflectivity)
@settings(max_examples=200, deadline=None)
def test_closed_forms_follow_from_kraus_operators(r_h, r_v):
    """The slide's closed forms -- the Y POVM (1 +- (1 - kappa) Y)/2 and
    eps(Y) = sqrt(2 kappa) -- agree with what its Kraus operators give."""
    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    slide = slide_model(r_h, r_v)
    m_r, m_t = slide.kraus(REFLECTED).matrix, slide.kraus(TRANSMITTED).matrix
    x_plus, x_minus = (op.matrix for op in projector_pair(pauli("X")))
    assert np.abs(m_r @ m_r - (r_h * x_plus + r_v * x_minus)).max() <= 1e-12
    assert np.abs(m_t @ m_t - ((1 - r_h) * x_plus + (1 - r_v) * x_minus)).max() <= 1e-12

    y_projs = [op.matrix for op in projector_pair(pauli("Y"))]
    upsilon = [m_t @ y @ m_t + m_r @ y @ m_r for y in y_projs]
    for kraus_sum, element in zip(upsilon, povm_elements(slide)[0]):
        assert np.abs(kraus_sum - element).max() <= 1e-12

    # MH mean square against the reference state 1/2:
    # sum (y - y')^2 Tr({Y_y, Upsilon_y'}) / 4
    mean_square = sum((y - y2) ** 2 * np.trace(yp @ up + up @ yp).real / 4
                      for y, yp in zip(OUTCOMES, y_projs)
                      for y2, up in zip(OUTCOMES, upsilon))
    assert abs(mean_square - inaccuracy_y(slide) ** 2) <= 1e-12
    assert abs(mean_square - 2 * slide.kappa) <= 1e-12


def test_degenerate_reflectivities_rejected():
    with pytest.raises(DegenerateMeasurementError):
        slide_model(0.3, 0.3)
    with pytest.raises(ValueError):
        slide_model(-0.1, 0.5)
    with pytest.raises(ValueError):
        slide_model(0.1, 1.5)


@pytest.mark.parametrize("r", [*np.round(np.linspace(0.02, 0.98, 9), 2).tolist(), 0.0, 1.0])
def test_reflectivity_gap_threshold(r):
    """Slides closer than MIN_REFLECTIVITY_GAP are rejected; just above it
    the reconstructed eps(X) still matches the direct operator value."""
    inward = 1.0 if r < 0.5 else -1.0
    for gap in (1e-7, 0.99 * MIN_REFLECTIVITY_GAP):
        with pytest.raises(DegenerateMeasurementError, match="below 1e-06"):
            slide_model(r, r + inward * gap)
    slide = slide_model(r, r + inward * 1.01 * MIN_REFLECTIVITY_GAP)
    rho, w = epr_state(math.radians(22.5)), BlochObservable.from_degrees(37.0, 123.0)
    for kind in ("simple", "optimal"):
        result = simulate_scenario(rho, slide, w, estimator=kind)
        _, direct = direct_moments(rho.matrix[None], w_projectors(w.vector[None]),
                                   result.estimator.array[None, None])
        assert abs(result.report.eps_a - direct[0, 0]) <= 1e-9


def test_polarisation_independent_slide():
    slide = SemiweakSlide.polarisation_independent(0.3)
    assert slide.kappa == 0.0
    assert not slide.has_contextual_values
    with pytest.raises(DegenerateMeasurementError):
        slide.xi(TRANSMITTED)
    # no disturbance at all: the effective measurement is projective Y
    up, down = povm_elements(slide)[0]
    y_op = pauli("Y").matrix
    assert np.allclose(up, (np.eye(2) + y_op) / 2, atol=1e-12)
    assert np.allclose(down, (np.eye(2) - y_op) / 2, atol=1e-12)


@given(gamma=st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_source_state_moments(gamma):
    rho = epr_state(gamma)
    eye = pauli("I")
    assert expectation(tensor(pauli("Z"), eye), rho) == pytest.approx(
        math.cos(2 * gamma), abs=1e-12)
    assert expectation(tensor(pauli("X"), pauli("X")), rho) == pytest.approx(
        -math.sin(2 * gamma), abs=1e-12)
    assert expectation(tensor(pauli("Y"), pauli("Y")), rho) == pytest.approx(
        -math.sin(2 * gamma), abs=1e-12)
    assert expectation(tensor(pauli("Z"), pauli("Z")), rho) == pytest.approx(
        -1.0, abs=1e-12)


def test_joint_table_golden(reference):
    rho, slide, w = reference
    dist = joint_distribution(rho, slide, w)
    assert dist.provenance == "simulated"
    for key, want in JOINT_TABLE.items():
        assert dist.prob(*key) == pytest.approx(want, abs=1e-12), key
    assert dist.total() == pytest.approx(1.0, abs=1e-14)
    assert dist.metadata["theta_deg"] == pytest.approx(90.0)
    assert dist.metadata["phi_deg"] == pytest.approx(180.0)
    assert dist.metadata["r_h"] == R_H


def test_joint_table_marginals(reference):
    rho, slide, w = reference
    dist = joint_distribution(rho, slide, w)
    # W = -X on qubit 2 has zero mean on the source state
    w_marg = dist.marginal("w")
    assert w_marg[+1] == pytest.approx(0.5, abs=1e-12)
    assert w_marg[-1] == pytest.approx(0.5, abs=1e-12)
    # transmission probability (t_h + t_v)/2 since <X (x) 1> = 0
    m_marg = dist.marginal("m")
    assert m_marg[TRANSMITTED] == pytest.approx((2 - R_H - R_V) / 2, abs=1e-12)
    assert sum(m_marg.values()) == pytest.approx(1.0)
    with pytest.raises(KeyError):
        dist.marginal("q")


def test_joint_distribution_needs_two_qubits(reference):
    _, slide, w = reference
    with pytest.raises(Exception):
        joint_distribution(DensityMatrix.maximally_mixed(2), slide, w)


def uniform_entries(value=0.125):
    return {(m, y, w): value for m in OUTCOMES for y in OUTCOMES for w in OUTCOMES}


def test_distribution_validation_messages():
    with pytest.raises(ValueError, match="provenance"):
        JointDistribution(entries=uniform_entries(), provenance="guessed")
    short = uniform_entries()
    short.pop((1, 1, 1))
    with pytest.raises(ValueError, match="8 outcome triples"):
        JointDistribution(entries=short)
    bad = uniform_entries()
    bad[(1, 1, 1)] = -0.01
    bad[(1, 1, -1)] = 0.26
    with pytest.raises(ValueError, match="negative probability"):
        JointDistribution(entries=bad)
    with pytest.raises(ValueError, match=r"sum to 1.1200, outside 1 \+- 0.01 for measured"):
        JointDistribution(entries=uniform_entries(0.14), provenance="measured")
    # simulated data is held to a far tighter mass budget
    with pytest.raises(ValueError, match="simulated"):
        JointDistribution(entries=uniform_entries(0.125 + 1e-8))
    JointDistribution(entries=uniform_entries(0.1251), provenance="measured")


@pytest.mark.parametrize("provenance", ["simulated", "measured"])
@pytest.mark.parametrize("values, shown", [
    ({(1, 1, 1): math.nan}, "nan"),
    ({(1, -1, 1): math.inf}, "inf"),
    ({(1, 1, 1): -math.inf}, "-inf"),
    ({(1, 1, 1): math.inf, (-1, 1, 1): -math.inf}, "inf"),
])
def test_distribution_rejects_non_finite_entries(provenance, values, shown):
    """A non-finite entry fails when the table is built, before any kernel
    reads it; +inf and -inf together sum to NaN without a RuntimeWarning."""
    entries = uniform_entries() | values
    with pytest.raises(ValueError, match=f"^non-finite probability {shown} in distribution$"):
        JointDistribution(entries=entries, provenance=provenance)


def test_povm_elements_golden(reference):
    _, slide, _ = reference
    up, down = povm_elements(slide)[0]
    y_op = pauli("Y").matrix
    want = 0.5 * np.eye(2) + 0.5 * (1 - KAPPA) * y_op
    assert np.allclose(up, want, atol=1e-12)
    assert np.allclose(up + down, np.eye(2), atol=1e-12)


@given(r_h=reflectivity, r_v=reflectivity)
@settings(max_examples=100, deadline=None)
def test_disturbance_contracts_y_and_keeps_x(r_h, r_v):
    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    slide = slide_model(r_h, r_v)
    y_after = disturbed_observable(slide, pauli("Y"))
    assert np.allclose(y_after.matrix, (1 - slide.kappa) * pauli("Y").matrix,
                       atol=1e-12)
    x_after = disturbed_observable(slide, pauli("X"))
    assert np.allclose(x_after.matrix, pauli("X").matrix, atol=1e-12)
