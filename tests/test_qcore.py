"""Operator and state primitives: algebra, validation, Bloch parametrisation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    PROFILES,
    BlochObservable,
    DensityMatrix,
    HermitianOperator,
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
    commutator_bounds,
)

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
    with pytest.raises(Exception):
        PROFILES["default"].tomographic_psd = 1.0  # frozen
