"""Operator-algebra cross-checks: embedding, dilation and direct moments."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointmeas import (
    BlochObservable,
    DensityMatrix,
    Estimator,
    direct_margenau_hill,
    embed,
    epr_state,
    inaccuracy_x,
    joint_distribution,
    mh_from_counts,
    naimark_unitary,
    optimal_estimator,
    pauli,
    projector_pair,
    slide_model,
)
from jointmeas.oracle import dilated_operators, direct_moments, naimark_unitaries
from jointmeas.qcore import _psd_sqrt, bloch_vectors
from jointmeas.scenario import povm_elements

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
    povm = tuple(povm_elements(slide)[0])
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


def test_unitarity_gate_rejects_every_family_the_dilated_family_gate_rejected():
    """`dilated_operators` once gated its dilated family
    ``U^dag (1 (x) |i><i|) U``, embedded on (q1, q2, ancilla), at a sum
    within 1e-12 of the identity.  That sum is ``U^dag U`` with the
    identity on q2, so the unitarity gate of `naimark_unitaries`, at the
    same 1e-12, flags every POVM the old gate flagged: here 2000 random
    binary POVMs whose completeness is perturbed by 1e-14 to 1e-10."""
    rng = np.random.default_rng(2024)
    povms = np.empty((2000, 2, 2, 2), dtype=complex)
    for povm in povms:
        rot = unitary_2x2(*rng.uniform(0.0, 2 * math.pi, 3))
        e0 = rot @ np.diag(rng.uniform(0.0, 1.0, 2)) @ rot.conj().T
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        povm[:] = e0, EYE - e0 + 10.0 ** rng.uniform(-14, -10) * (g + g.conj().T) / 2
    checks = []
    unitaries = naimark_unitaries(povms, checks)
    _, (unitarity_flags, fire) = checks
    with pytest.raises(ValueError, match="dilation completion is not unitary"):
        fire(0)
    ancilla = [np.kron(EYE, np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0])]
    family_flags = np.array([
        np.abs(sum(embed(u.conj().T @ proj @ u, (0, 2), (2, 2, 2)) for proj in ancilla)
               - np.eye(8)).max() > 1e-12
        for u in unitaries])
    assert 0 < family_flags.sum() < len(povms)
    assert not (family_flags & ~unitarity_flags).any()


def test_naimark_estimator_reproduces_weak_y(reference):
    """The dilated estimate has mean (1 - kappa)<Y> and inaccuracy
    sqrt(2 kappa) on any input state; its Margenau-Hill mean square
    sum (k - l)^2 <{Y_k, Y_est,l}>/2 against Y is that same 2 kappa."""
    _, slide, w = reference
    povms = povm_elements(slide)
    y_projs = [np.kron(p.matrix, np.eye(4)) for p in projector_pair(pauli("Y"))]

    y_up = np.array([1.0, 1.0j]) / math.sqrt(2)
    h = np.array([1.0, 0.0])
    states = [epr_state(math.radians(22.5)),
              DensityMatrix.from_pure(np.kron(y_up, h))]
    for rho in states:
        _, y_est, _, y1, state = dilated_operators(
            rho.matrix[None], povms, w.vector[None], np.zeros((1, 2)))
        y_est, state = y_est[0], state[0]
        mean_y = np.trace(state @ y1).real
        assert np.trace(state @ y_est).real == pytest.approx(
            (1 - slide.kappa) * mean_y, abs=1e-12)
        diff = y1 - y_est
        eps = math.sqrt(np.trace(state @ diff @ diff).real)
        assert eps == pytest.approx(math.sqrt(2 * slide.kappa), abs=1e-12)
        # y_est takes the values +-1, so its projectors are (1 +- y_est)/2
        est_projs = [(np.eye(8) + s * y_est) / 2 for s in (1.0, -1.0)]
        mean_square = sum(
            (y - v) ** 2 * 0.5 * np.trace(state @ (y_proj @ v_proj + v_proj @ y_proj)).real
            for y, y_proj in zip((1.0, -1.0), y_projs)
            for v, v_proj in zip((1.0, -1.0), est_projs))
        assert mean_square == pytest.approx(2 * slide.kappa, abs=1e-12)


@given(gamma=st.floats(0.05, 1.5), r_h=st.floats(0.05, 0.95),
       r_v=st.floats(0.05, 0.95), f_plus=st.floats(-1.5, 1.5),
       f_minus=st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_counts_path_agrees_with_operator_path(gamma, r_h, r_v, f_plus, f_minus):
    """The statistics reconstruction equals direct operator moments."""
    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    slide = slide_model(r_h, r_v)
    rho = epr_state(gamma)
    w = BlochObservable.from_degrees(90, 180)
    est = Estimator.custom(f_plus, f_minus)

    dist = joint_distribution(rho, slide, w)
    mh, eps = direct_moments(rho.matrix[None], w.vector[None], est.array[None, None])
    np.testing.assert_allclose(mh_from_counts(dist, slide), mh[0], rtol=0, atol=1e-12)
    assert inaccuracy_x(dist, slide, est) == pytest.approx(eps[0, 0], abs=1e-12)
    # the one-scenario view returns the batched table itself
    assert np.array_equal(direct_margenau_hill(rho, w), mh[0])


def test_optimal_estimate_agreement(reference):
    rho, slide, w = reference
    est = optimal_estimator(rho, w)
    dist = joint_distribution(rho, slide, w)
    _, eps = direct_moments(rho.matrix[None], w.vector[None], est.array[None, None])
    assert inaccuracy_x(dist, slide, est) == pytest.approx(eps[0, 0], abs=1e-14)


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
