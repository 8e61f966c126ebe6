"""Operator-algebra cross-checks: embedding, dilation and direct moments."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointmeas import (
    DensityMatrix,
    DilatedSystem,
    Estimator,
    QuasiDistribution,
    direct_inaccuracy,
    direct_margenau_hill,
    effective_povm,
    embed,
    epr_state,
    inaccuracy_x,
    joint_distribution,
    mh_from_counts,
    mh_mean_square,
    naimark_unitary,
    optimal_estimator,
    pauli,
    projector_pair,
)
from jointmeas.oracle import direct_moments
from jointmeas.qcore import _psd_sqrt, bloch_vectors

X = pauli("X").matrix
Y = pauli("Y").matrix
Z = pauli("Z").matrix
EYE = np.eye(2)


def test_embed_single_slot_matches_kron():
    assert np.allclose(embed(X, (0,), (2, 2)), np.kron(X, EYE))
    assert np.allclose(embed(X, (1,), (2, 2)), np.kron(EYE, X))
    assert np.allclose(embed(Y, (2,), (2, 2, 2)), np.kron(np.eye(4), Y))
    assert np.allclose(embed(Z, (1,), (2, 2, 2)),
                       np.kron(np.kron(EYE, Z), EYE))


def test_embed_two_slots_ordered():
    op = np.kron(X, Z)
    assert np.allclose(embed(op, (0, 1), (2, 2)), op)
    # slots listed in reversed order put the first factor on the second qubit
    assert np.allclose(embed(op, (1, 0), (2, 2)), np.kron(Z, X))
    assert np.allclose(embed(op, (0, 2), (2, 2, 2)),
                       np.kron(np.kron(X, EYE), Z))


def test_embed_rejects_bad_slots():
    with pytest.raises(ValueError, match="distinct"):
        embed(np.eye(4), (0, 0), (2, 2))
    with pytest.raises(ValueError, match="out of range"):
        embed(X, (2,), (2, 2))
    with pytest.raises(ValueError, match="shape"):
        embed(np.eye(4), (0,), (2, 2))


def test_naimark_unitary_realises_povm(reference):
    _, slide, _ = reference
    povm = tuple(e.matrix for e in effective_povm(slide))
    unitary = naimark_unitary(povm)
    assert np.allclose(unitary.conj().T @ unitary, np.eye(4), atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        dilated = unitary @ np.kron(vec, [1.0, 0.0])
        for idx, element in enumerate(povm):
            anc = np.zeros((2, 2))
            anc[idx, idx] = 1.0
            got = dilated.conj() @ np.kron(EYE, anc) @ dilated
            want = vec.conj() @ element @ vec
            assert got.real == pytest.approx(want.real, abs=1e-12)


def test_naimark_unitary_rejects_incomplete_povm():
    with pytest.raises(ValueError, match="sum to the identity"):
        naimark_unitary((0.5 * EYE, 0.3 * EYE))


@pytest.mark.parametrize("excess", [1e-9, 5e-6])
def test_naimark_completeness_gate_is_absolute(excess):
    """Elements summing to (1 + d) 1 are rejected for any d above 1e-10,
    not only beyond a relative tolerance."""
    with pytest.raises(ValueError, match="must sum to the identity"):
        naimark_unitary(((0.5 + excess) * EYE, 0.5 * EYE))


def unitary_2x2(theta, phi, alpha):
    half_c, half_s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[half_c, -np.exp(1j * phi) * half_s],
                     [np.exp(1j * alpha) * half_s, np.exp(1j * (alpha + phi)) * half_c]])


eigenvalue = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
angle = st.floats(0.0, 2 * math.pi)


@given(low=eigenvalue, high=eigenvalue, theta=st.one_of(st.just(0.0), angle),
       phi=angle, alpha=angle)
@example(low=0.0, high=0.0, theta=0.0, phi=0.0, alpha=0.0)
@example(low=0.0, high=1.0, theta=1.1, phi=0.3, alpha=2.0)
@example(low=1.0, high=1.0, theta=0.7, phi=0.0, alpha=0.0)
@settings(max_examples=150, deadline=None)
def test_naimark_dilates_any_binary_povm(low, high, theta, phi, alpha):
    """E0 = V diag(low, high) V^dag with spectrum in [0, 1], E1 = 1 - E0: the
    closed-form Kraus root is the PSD square root, U is unitary and it
    realises the POVM with the ancilla in |0>."""
    rot = unitary_2x2(theta, phi, alpha)
    e0 = rot @ np.diag([low, high]) @ rot.conj().T
    povm = np.stack([e0, EYE - e0])
    unitary = naimark_unitary(tuple(povm))
    assert np.abs(unitary.conj().T @ unitary - np.eye(4)).max() <= 1e-12
    # U |s>|0> = M0 |s>|0> + M1 |s>|1>: the Kraus roots are U's blocks
    roots = unitary.reshape(2, 2, 2, 2)[:, :, :, 0].transpose(1, 0, 2)
    for root, element in zip(roots, povm):
        assert np.abs(root @ root - element).max() <= 1e-12
        assert np.abs(root - root.conj().T).max() <= 1e-12
        # a zero eigenvalue in a rotated basis is known only to rounding, so
        # any square root of it carries sqrt(1e-16) ~ 1e-8 there
        rounded_zero = min(np.linalg.eigvalsh(element)) < 1e-6 and theta != 0.0
        tol = 1e-7 if rounded_zero else 1e-12
        assert np.abs(root - _psd_sqrt(element)).max() <= tol
    rng = np.random.default_rng(0)
    for _ in range(5):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        out = (unitary @ np.kron(vec, [1.0, 0.0])).reshape(2, 2)
        for idx, element in enumerate(povm):
            prob = np.vdot(out[:, idx], out[:, idx]).real
            assert prob == pytest.approx((vec.conj() @ element @ vec).real, abs=1e-12)


def test_dilated_system_layout():
    rho = epr_state(0.5)
    plain = DilatedSystem.two_qubit(rho)
    assert plain.dims == (2, 2) and plain.dim == 4
    extended = DilatedSystem.two_qubit_with_ancilla(rho)
    assert extended.dims == (2, 2, 2) and extended.dim == 8
    anc = np.zeros((2, 2))
    anc[0, 0] = 1.0
    assert np.allclose(extended.state, np.kron(rho.matrix, anc))
    with pytest.raises(ValueError):
        DilatedSystem.two_qubit(DensityMatrix.maximally_mixed(2))


def test_register_and_expectation():
    gamma = 0.37
    system = DilatedSystem.two_qubit(epr_state(gamma))
    system.register("z1", pauli("Z"), (0,))
    assert system.expectation("z1") == pytest.approx(math.cos(2 * gamma), abs=1e-12)
    with pytest.raises(KeyError, match="no operator registered under 'x1'"):
        system.operator("x1")


def test_register_family_requires_completeness():
    system = DilatedSystem.two_qubit(epr_state(0.2))
    x_plus, x_minus = projector_pair(pauli("X"))
    with pytest.raises(ValueError, match="not complete"):
        system.register_family("x", [(+1.0, x_plus)], slots=(0,))
    # the gate is absolute: a sum 5e-6 off the identity is not complete
    with pytest.raises(ValueError, match="family 'z' is not complete"):
        system.register_family("z", [(+1.0, np.diag([1.0 + 5e-6, 0.0])),
                                     (-1.0, np.diag([0.0, 1.0]))], slots=(0,))
    system.register_family("x", [(+1.0, x_plus), (-1.0, x_minus)], slots=(0,))
    assert np.allclose(system.operator("x"), embed(X, (0,), (2, 2)))


def test_naimark_estimator_reproduces_weak_y(reference):
    """The dilated estimate has mean (1 - kappa)<Y> and inaccuracy
    sqrt(2 kappa) on any input state."""
    _, slide, _ = reference
    povm = tuple(e.matrix for e in effective_povm(slide))
    y_plus, y_minus = projector_pair(pauli("Y"))

    y_up = np.array([1.0, 1.0j]) / math.sqrt(2)
    h = np.array([1.0, 0.0])
    states = [epr_state(math.radians(22.5)),
              DensityMatrix.from_pure(np.kron(y_up, h))]
    for rho in states:
        system = DilatedSystem.two_qubit_with_ancilla(rho)
        system.register("y", pauli("Y"), (0,))
        system.register_family("y_proj", [(+1.0, y_plus), (-1.0, y_minus)],
                               slots=(0,))
        system.register_naimark_estimator("y_est", povm, (+1.0, -1.0),
                                          system_slot=0)
        mean_y = system.expectation("y")
        assert system.expectation("y_est") == pytest.approx(
            (1 - slide.kappa) * mean_y, abs=1e-12)
        eps = direct_inaccuracy(system, "y", "y_est")
        assert eps == pytest.approx(math.sqrt(2 * slide.kappa), abs=1e-12)
        quasi = direct_margenau_hill(system, "y_proj", "y_est")
        assert mh_mean_square(quasi) == pytest.approx(2 * slide.kappa, abs=1e-12)


def test_direct_margenau_hill_unknown_family():
    system = DilatedSystem.two_qubit(epr_state(0.3))
    with pytest.raises(KeyError, match="no projective family"):
        direct_margenau_hill(system, "x", "w")


def test_mh_mean_square():
    quasi = QuasiDistribution({(1.0, 1.0): 0.6, (1.0, -1.0): -0.1,
                               (-1.0, 1.0): 0.2, (-1.0, -1.0): 0.3})
    # only mixed-sign cells contribute, with weight (k - l)^2 = 4
    assert mh_mean_square(quasi) == pytest.approx(4 * (-0.1 + 0.2))


@given(gamma=st.floats(0.05, 1.5), r_h=st.floats(0.05, 0.95),
       r_v=st.floats(0.05, 0.95), f_plus=st.floats(-1.5, 1.5),
       f_minus=st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_counts_path_agrees_with_operator_path(gamma, r_h, r_v, f_plus, f_minus):
    """The statistics reconstruction equals direct operator moments."""
    from jointmeas import BlochObservable, slide_model

    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    slide = slide_model(r_h, r_v)
    rho = epr_state(gamma)
    w = BlochObservable.from_degrees(90, 180)
    est = Estimator.custom(f_plus, f_minus)

    dist = joint_distribution(rho, slide, w)
    counts_mh = mh_from_counts(dist, slide)

    system = DilatedSystem.two_qubit(rho)
    x_projs = projector_pair(pauli("X"))
    w_projs = projector_pair(w.as_operator())
    system.register_family("x", list(zip((+1.0, -1.0), x_projs)), slots=(0,))
    system.register_family("w", list(zip((+1.0, -1.0), w_projs)), slots=(1,))
    direct = direct_margenau_hill(system, "x", "w")
    for key, val in direct.entries.items():
        assert counts_mh.entries[key] == pytest.approx(val, abs=1e-12), key

    system.register("x_op", pauli("X"), (0,))
    system.register("x_est", est.as_operator(w), (1,))
    assert inaccuracy_x(dist, slide, est) == pytest.approx(
        direct_inaccuracy(system, "x_op", "x_est"), abs=1e-12)


def test_optimal_estimate_agreement(reference):
    rho, slide, w = reference
    est = optimal_estimator(rho, w)
    dist = joint_distribution(rho, slide, w)
    system = DilatedSystem.two_qubit(rho)
    system.register("x_op", pauli("X"), (0,))
    system.register("x_est", est.as_operator(w), (1,))
    assert inaccuracy_x(dist, slide, est) == pytest.approx(
        direct_inaccuracy(system, "x_op", "x_est"), abs=1e-14)


def test_direct_moments_match_explicit_traces():
    """The MH table equals <{K, L}>/2 of the explicit 4x4 projectors and the
    inaccuracies the three-operand trace Tr(rho D D) of
    D = X (x) 1 - 1 (x) f_k(W), for random full-rank states and directions
    and K = 3 estimates."""
    rng = np.random.default_rng(23)
    size, k_count = 16, 3
    g = rng.normal(size=(size, 4, 4)) + 1j * rng.normal(size=(size, 4, 4))
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    n = bloch_vectors(np.arccos(rng.uniform(-1.0, 1.0, size)),
                      rng.uniform(0.0, 2.0 * math.pi, size))
    f = rng.uniform(-2.0, 2.0, (size, k_count, 2))
    mh, eps = direct_moments(rho, n, f)
    assert mh.shape == (size, 2, 2) and eps.shape == (size, k_count)

    x_projs = [(EYE + s * X) / 2 for s in (1.0, -1.0)]
    for i in range(size):
        w_op = n[i, 0] * X + n[i, 1] * Y + n[i, 2] * Z
        w_projs = [(EYE + s * w_op) / 2 for s in (1.0, -1.0)]
        for x, x_proj in enumerate(x_projs):
            for w, w_proj in enumerate(w_projs):
                k_op, l_op = np.kron(x_proj, EYE), np.kron(EYE, w_proj)
                want = 0.5 * np.trace(rho[i] @ (k_op @ l_op + l_op @ k_op)).real
                assert abs(mh[i, x, w] - want) <= 1e-13, (i, x, w)
        for k in range(k_count):
            diff = np.kron(X, EYE) - np.kron(EYE, f[i, k, 0] * w_projs[0]
                                             + f[i, k, 1] * w_projs[1])
            want = math.sqrt(np.einsum("ab,bc,ca->", rho[i], diff, diff).real)
            assert abs(eps[i, k] - want) <= 1e-13, (i, k)
