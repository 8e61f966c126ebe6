"""Operator and state primitives: algebra, validation, Bloch parametrisation."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    PROFILES,
    BlochObservable,
    DensityMatrix,
    HermitianOperator,
    JointDistribution,
    ToleranceProfile,
    expectation,
    fidelity,
    pauli,
    projector_pair,
    spread,
    tensor,
)
from jointmeas.qcore import (
    PSD_TOL,
    SIMULATED_NORM,
    DimensionMismatchError,
    as_complex_matrix,
    bloch_vectors,
    commutator_bounds,
    spreads,
    xy_statistics,
)
from jointmeas.scenario import TRIPLES, epr_state

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_pauli_algebra():
    eye = np.eye(2)
    for name in "XYZ":
        op = pauli(name).matrix
        assert np.allclose(op @ op, eye)
        assert np.isclose(np.trace(op), 0.0)
    x, y, z = (pauli(n).matrix for n in "XYZ")
    assert np.allclose(x @ y - y @ x, 2j * z)
    # convention: X flips H<->V, Y|H> = i|V>, Z = diag(1, -1)
    h = np.array([1.0, 0.0])
    assert np.allclose(x @ h, [0.0, 1.0])
    assert np.allclose(y @ h, [0.0, 1.0j])
    assert np.allclose(z @ h, h)


def test_pauli_unknown_label():
    with pytest.raises(ValueError):
        pauli("Q")


def test_hermitian_operator_rejects_asymmetry():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_operator_negation():
    x = pauli("X")
    assert isinstance(-x, HermitianOperator)
    assert np.array_equal((-x).matrix, -x.matrix)


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        as_complex_matrix(np.eye(3))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))


def test_tensor_puts_first_factor_on_qubit_one():
    # <Z (x) 1> on |HV> must read qubit 1's Z, i.e. +1
    hv = np.zeros(4)
    hv[1] = 1.0
    rho = DensityMatrix.from_pure(hv)
    assert expectation(tensor(pauli("Z"), pauli("I")), rho) == pytest.approx(1.0)
    assert expectation(tensor(pauli("I"), pauli("Z")), rho) == pytest.approx(-1.0)


def test_projector_pair_properties():
    plus, minus = projector_pair(pauli("X"))
    eye = np.eye(2)
    assert np.allclose(plus.matrix + minus.matrix, eye)
    assert np.allclose(plus.matrix @ plus.matrix, plus.matrix)
    assert np.allclose(plus.matrix @ minus.matrix, np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(plus.matrix - minus.matrix, pauli("X").matrix)


def test_projector_pair_needs_involution():
    with pytest.raises(ValueError):
        projector_pair(HermitianOperator(np.diag([1.0, 2.0])))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2.0)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    mixed = DensityMatrix.maximally_mixed(4)
    assert mixed.min_eigenvalue == pytest.approx(0.25)
    assert not mixed.psd_warning


def test_density_matrix_relaxed_floor_flags_warning():
    mat = np.diag([0.50055, 0.5, -5e-5, -5e-4])
    rho = DensityMatrix(mat, psd_floor=1e-3)
    assert rho.psd_warning
    assert rho.min_eigenvalue == pytest.approx(-5e-4)


FROZEN = [
    pytest.param(DensityMatrix(np.diag([0.50055, 0.5, -5e-5, -5e-4]), psd_floor=1e-3),
                 ["_matrix", "min_eigenvalue", "psd_floor", "psd_warning"], id="DensityMatrix"),
    pytest.param(tensor(pauli("X"), pauli("Z")), ["_matrix"], id="HermitianOperator"),
]


@pytest.mark.parametrize("obj, slots", FROZEN)
def test_states_and_operators_are_frozen(obj, slots):
    """Assignment and deletion raise as on a frozen dataclass, for a slot or
    any other name, and leave the value as it was."""
    before = {name: getattr(obj, name) for name in slots}
    for name in [*slots, "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field '{name}'"):
            setattr(obj, name, np.eye(2))
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert {name: getattr(obj, name) for name in slots} == before
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("obj, slots", FROZEN)
def test_states_and_operators_survive_pickle_and_copy(obj, slots):
    for restored in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(restored) is type(obj) and repr(restored) == repr(obj)
        for name in slots:
            want, got = getattr(obj, name), getattr(restored, name)
            assert type(got) is type(want)
            assert np.array_equal(got, want), name
        assert not restored.matrix.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            restored._matrix = np.eye(2)


@given(theta=angles, phi=angles)
@settings(max_examples=200, deadline=None)
def test_bloch_observable_is_binary(theta, phi):
    op = BlochObservable(theta, phi).as_operator()
    assert np.allclose(op.matrix @ op.matrix, np.eye(2), atol=1e-12)
    assert abs(np.trace(op.matrix)) < 1e-12


def test_bloch_observable_axes():
    assert np.allclose(BlochObservable(0.0, 0.0).as_operator().matrix,
                       pauli("Z").matrix)
    assert np.allclose(BlochObservable.from_degrees(90, 0).as_operator().matrix,
                       pauli("X").matrix)
    assert np.allclose(BlochObservable.from_degrees(90, 90).as_operator().matrix,
                       pauli("Y").matrix)
    w = BlochObservable.from_degrees(90, 180)
    assert np.allclose(w.as_operator().matrix, -pauli("X").matrix)
    assert w.theta_deg == pytest.approx(90.0)
    assert w.phi_deg == pytest.approx(180.0)


@pytest.mark.parametrize("theta, phi, message", [
    (math.nan, 0.0, "theta must be finite, got nan"),
    (0.0, math.inf, "phi must be finite, got inf"),
])
def test_bloch_observable_rejects_non_finite_angle_when_built(theta, phi, message):
    with pytest.raises(ValueError, match=f"analyser angle {message}"):
        BlochObservable(theta, phi)


def test_bloch_observable_vector_is_computed_once():
    w = BlochObservable.from_degrees(60.0, 30.0)
    assert w.vector is w.vector
    assert not w.vector.flags.writeable
    assert np.array_equal(w.vector, bloch_vectors(w.theta, w.phi, [])[0])
    # the derived vector stays out of equality and the field list
    assert w == BlochObservable(w.theta, w.phi)
    assert [f.name for f in dataclasses.fields(w)] == ["theta", "phi"]


def test_spread_limits():
    plus, _ = projector_pair(pauli("X"))
    x_up = DensityMatrix(plus.matrix)
    assert spread(pauli("X"), x_up) == pytest.approx(0.0, abs=1e-7)
    assert spread(pauli("Z"), x_up) == pytest.approx(1.0)


@given(theta=angles, phi=angles)
@settings(max_examples=100, deadline=None)
def test_spread_of_binary_observable_at_most_one(theta, phi):
    rho = DensityMatrix.maximally_mixed(2)
    op = BlochObservable(theta, phi).as_operator()
    assert spread(op, rho) == pytest.approx(1.0)


def test_commutator_bound_reads_off_z():
    # |<[X, Y]>| = 2 |<Z>|
    states = np.stack([np.diag([1.0, 0.0]), np.eye(2) / 2, np.diag([0.25, 0.75])])
    assert commutator_bounds(pauli("X"), pauli("Y"), states) == pytest.approx(
        [2.0, 0.0, 1.0], abs=1e-12)


def fired(check, i):
    """The message check ``(bad, fire)`` raises at index ``i``."""
    with pytest.raises(ArithmeticError) as err:
        check[1](i)
    return str(err.value)


def test_xy_statistics_equal_the_operator_products_bit_for_bit():
    """Delta X, Delta Y and c read off the state's entries equal the
    spreads of X (x) 1 and Y (x) 1 and |<[X (x) 1, Y (x) 1]>| that the
    GEMM and trace path forms, bit for bit, and queue the same checks.
    The states: G G^dag / tr as verify draws them, rank-1 ones, ones with
    imaginary parts of 1e-13 on the diagonal (a DensityMatrix allows 1e-12),
    the source states, and perturbations that push <X (x) 1> or <Y (x) 1>
    off the real axis or their variances below zero."""
    x1, y1 = tensor(pauli("X"), pauli("I")), tensor(pauli("Y"), pauli("I"))
    rng = np.random.default_rng(41)
    g = rng.normal(size=(3000, 4, 4)) + 1j * rng.normal(size=(3000, 4, 4))
    g[1000:2000, :, 1:] = 0.0  # rank 1
    mats = g @ g.conj().swapaxes(-1, -2)
    mats /= np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    diagonal = np.einsum("nii->ni", mats[2000:])
    diagonal += 1e-13j * rng.uniform(-1.0, 1.0, diagonal.shape)
    sources = [epr_state(gamma).matrix for gamma in np.linspace(0.0, np.pi, 13)]
    skew = np.zeros((4, 4, 4), dtype=complex)
    skew[0, 0, 2] = skew[0, 2, 0] = 1e-9j  # <X (x) 1> gains 2e-9 i
    skew[1, 0, 2], skew[1, 2, 0] = 1e-9, -1e-9  # <Y (x) 1> gains 2e-9 i
    skew[2, 0, 2] = skew[2, 2, 0] = 0.6  # <X (x) 1> beyond 1
    skew[3, 0, 2], skew[3, 2, 0] = -0.6j, 0.6j  # <Y (x) 1> beyond 1
    mats = np.concatenate([mats, sources, np.eye(4) / 4 + skew])
    checks, want_checks = [], []
    got = xy_statistics(mats, checks)
    want = (spreads(x1, mats, want_checks), spreads(y1, mats, want_checks),
            commutator_bounds(x1, y1, mats))
    for got_values, want_values in zip(got, want):
        assert np.array_equal(got_values, want_values)
    assert len(checks) == len(want_checks) == 4
    for check, want_check in zip(checks, want_checks):
        assert np.array_equal(check[0], want_check[0])
        assert [fired(check, i) for i in np.flatnonzero(check[0])] == \
            [fired(want_check, i) for i in np.flatnonzero(want_check[0])]
    assert [np.flatnonzero(bad).tolist() for bad, _ in checks] == [
        [3013], [3015], [3014], [3016]]


def test_fidelity():
    a = DensityMatrix.from_pure(np.array([1.0, 0.0]))
    b = DensityMatrix.from_pure(np.array([0.0, 1.0]))
    c = DensityMatrix.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(a, c) == pytest.approx(0.5)


def test_fidelity_with_pure_state_is_its_overlap():
    """For sigma = |psi><psi| the fidelity is <psi|rho|psi>: the rounding-level
    eigenvalues of sqrt(rho) sigma sqrt(rho) must not enter through a square
    root."""
    rng = np.random.default_rng(2)
    for _ in range(200):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = DensityMatrix(rho / np.trace(rho).real)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        want = float(np.real(psi.conj() @ rho.matrix @ psi))
        assert fidelity(rho, DensityMatrix.from_pure(psi)) == pytest.approx(want, abs=1e-12)


def test_tolerance_profiles():
    assert set(PROFILES) == {"default", "strict", "relaxed"}
    assert PROFILES["strict"].measured_norm < PROFILES["default"].measured_norm
    assert PROFILES["relaxed"].measured_norm > PROFILES["default"].measured_norm
    # every field is a data-quality gate that the profiles set apart; the
    # gates no profile varies are module constants
    names = [f.name for f in dataclasses.fields(PROFILES["default"])]
    assert names == ["tomographic_psd", "measured_norm"]
    for name in names:
        assert len({getattr(profile, name) for profile in PROFILES.values()}) > 1, name
    assert PSD_TOL == SIMULATED_NORM == 1e-10
    with pytest.raises(dataclasses.FrozenInstanceError):
        PROFILES["default"].tomographic_psd = 1.0


@pytest.mark.parametrize("field", ["tomographic_psd", "measured_norm"])
@pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf, -math.inf])
def test_tolerance_profile_rejects_negative_or_non_finite(field, value):
    with pytest.raises(ValueError, match=f"tolerance {field} must be finite and non-negative"):
        ToleranceProfile(**{field: value})


def test_nan_mass_tolerance_cannot_pass_a_heavy_table():
    """A NaN measured_norm made the mass gate compare false, letting a table
    of mass 1.5 through; the profile itself now refuses it."""
    entries = {key: 0.1875 for key in TRIPLES}
    with pytest.raises(ValueError, match="measured_norm"):
        JointDistribution(entries=entries, provenance="measured",
                          tolerances=ToleranceProfile(measured_norm=math.nan))
    # zero is a tolerance: an exact gate
    assert ToleranceProfile(0.0, 0.0).measured_norm == 0.0
