"""Operator-algebra cross-checks: embedding, dilation and direct moments."""

import dataclasses
import itertools
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
from jointmeas.estimate import optimal_values
from jointmeas.oracle import (
    dilated_moments,
    direct_moments,
    naimark_unitaries,
    w_moments,
    w_projectors,
)
from jointmeas.qcore import SIGMAS, _psd_sqrt, bloch_vectors, correlations
from jointmeas.relations import relation_chains
from jointmeas.scenario import povm_elements, slide_arrays
from jointmeas.workflow import _draw_block, _state_matrices, dilated_chains

from dilation import (
    ANCILLA_Z,
    dilated_operators,
    reference_estimate_spreads,
    reference_moments,
)

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


def reference_embed(op, slots, dims):
    """``op (x) 1`` on the factors ordered (slots, the rest), taken back to
    the natural factor order by the permutation matrix of the basis states."""
    order = [*slots, *(i for i in range(len(dims)) if i not in slots)]
    rest = int(np.prod([dims[i] for i in order[len(slots):]]))
    perm = np.zeros((int(np.prod(dims)),) * 2)
    for digits in itertools.product(*(range(d) for d in dims)):
        perm[np.ravel_multi_index([digits[i] for i in order], [dims[i] for i in order]),
             np.ravel_multi_index(digits, dims)] = 1.0
    return perm.T @ np.kron(op, np.eye(rest)) @ perm


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 4)])
def test_embed_every_slot_order_matches_permuted_kron(dims):
    rng = np.random.default_rng(len(dims))
    for count in range(1, len(dims) + 1):
        for slots in itertools.permutations(range(len(dims)), count):
            size = int(np.prod([dims[s] for s in slots]))
            op = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            np.testing.assert_array_equal(embed(op, slots, dims),
                                          reference_embed(op, slots, dims), err_msg=str(slots))


def test_embed_rejects_bad_slots():
    with pytest.raises(ValueError, match="distinct"):
        embed(np.eye(4), (0, 0), (2, 2))
    with pytest.raises(ValueError, match="out of range"):
        embed(X, (2,), (2, 2))
    with pytest.raises(ValueError, match="shape"):
        embed(np.eye(4), (0,), (2, 2))


def test_naimark_unitary_realises_povm(reference):
    _, slide, _ = reference
    povm = tuple(povm_elements(slide.arrays)[0])
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


@pytest.mark.parametrize("povm", [
    np.stack([0.5 * EYE, 0.5 * EYE, 0.0 * EYE]), EYE, EYE[None],
    np.stack([0.5 * EYE, 0.5 * EYE])[..., None]])
def test_naimark_view_rejects_a_povm_of_another_shape(povm):
    """The one-POVM view takes a pair of 2x2 elements and nothing else: a
    third element is not dropped, and one matrix is not read as two rows."""
    with pytest.raises(ValueError) as err:
        naimark_unitary(povm)
    assert str(err.value) == (f"a binary POVM on one qubit has shape (2, 2, 2), "
                              f"got {povm.shape}")


def test_unitarity_gate_rejects_every_family_the_dilated_family_gate_rejected():
    """The oracle once gated its dilated family
    ``U^dag (1 (x) |i><i|) U``, embedded on (q1, q2, ancilla), at a sum
    within 1e-12 of the identity.  That sum is ``U^dag U`` with the
    identity on q2, so the gates of `naimark_unitary`, the unitarity gate
    at the same 1e-12, reject every POVM the old gate flagged: here 2000
    random binary POVMs whose completeness is perturbed by 1e-14 to 1e-10,
    each passed to the view on its own.  A POVM whose elements miss the
    identity by more than 1e-10 is rejected by the completeness gate
    first."""
    rng = np.random.default_rng(2024)
    povms = np.empty((2000, 2, 2, 2), dtype=complex)
    for povm in povms:
        rot = unitary_2x2(*rng.uniform(0.0, 2 * math.pi, 3))
        e0 = rot @ np.diag(rng.uniform(0.0, 1.0, 2)) @ rot.conj().T
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        povm[:] = e0, EYE - e0 + 10.0 ** rng.uniform(-14, -10) * (g + g.conj().T) / 2
    errors = []
    for povm in povms:
        try:
            naimark_unitary(tuple(povm))
        except ValueError as err:
            errors.append(str(err))
        else:
            errors.append(None)
    assert set(errors) == {None, "dilation completion is not unitary",
                           "POVM elements must sum to the identity"}
    rejected = np.array([error is not None for error in errors])
    ancilla = [np.kron(EYE, np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0])]
    family_flags = np.array([
        np.abs(sum(embed(u.conj().T @ proj @ u, (0, 2), (2, 2, 2)) for proj in ancilla)
               - np.eye(8)).max() > 1e-12
        for u in naimark_unitaries(povms)])
    assert 0 < family_flags.sum() < len(povms)
    assert not (family_flags & ~rejected).any()


def test_naimark_estimator_reproduces_weak_y(reference):
    """The dilated estimate has mean (1 - kappa)<Y> and inaccuracy
    sqrt(2 kappa) on any input state; its Margenau-Hill mean square
    sum (k - l)^2 <{Y_k, Y_est,l}>/2 against Y is that same 2 kappa."""
    _, slide, w = reference
    povms = povm_elements(slide.arrays)
    y_projs = [np.kron(p.matrix, np.eye(4)) for p in projector_pair(pauli("Y"))]

    y_up = np.array([1.0, 1.0j]) / math.sqrt(2)
    h = np.array([1.0, 0.0])
    states = [epr_state(math.radians(22.5)),
              DensityMatrix.from_pure(np.kron(y_up, h))]
    for rho in states:
        _, y_est, _, y1, state = dilated_operators(
            rho.matrix[None], povms, w_projectors(w.vector[None]), np.zeros((1, 2)))
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
    mh, eps = direct_moments(w_moments(rho.matrix[None], w.vector[None]),
                             est.array[None, None])
    np.testing.assert_allclose(mh_from_counts(dist, slide), mh[0], rtol=0, atol=1e-12)
    assert inaccuracy_x(dist, slide, est) == pytest.approx(eps[0, 0], abs=1e-12)
    # the one-scenario view returns the batched table itself
    assert np.array_equal(direct_margenau_hill(rho, w), mh[0])


def test_optimal_estimate_agreement(reference):
    rho, slide, w = reference
    est = optimal_estimator(rho, w)
    dist = joint_distribution(rho, slide, w)
    _, eps = direct_moments(w_moments(rho.matrix[None], w.vector[None]),
                            est.array[None, None])
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
                      rng.uniform(0.0, 2.0 * math.pi, size), [])
    f = rng.uniform(-2.0, 2.0, (size, k_count, 2))
    mh, eps = direct_moments(w_moments(rho, n), f)
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


def test_analyser_projectors_are_orthogonal_projectors():
    """The invariant behind the factored eps(X) and A_est spread, which take
    ``f(W)^2 = sum_w f_w^2 W_w``: on drawn directions ``W+ W- = 0`` and
    ``W_w^2 = W_w`` within 1e-15."""
    _, _, angles, _ = _draw_block(np.random.default_rng(31), 0, 4096)
    w_projs = w_projectors(bloch_vectors(angles[:, 0], angles[:, 1], []))
    assert np.abs(w_projs[:, 0] @ w_projs[:, 1]).max() <= 1e-15
    assert np.abs(w_projs @ w_projs - w_projs).max() <= 1e-15


@pytest.mark.parametrize("case", ["drawn", "r in {0, 1}"])
def test_dilated_y_estimate_squares_to_the_identity(case):
    """The invariant behind the factored B_est spread ``(1 - m)(1 + m)``: on
    drawn slides, and on slides with r_h or r_v in {0, 1}, the dilated Y
    estimate ``U^dag (1 (x) Z) U`` squares to the identity within 1e-14."""
    _, refl, _, _ = _draw_block(np.random.default_rng(32), 0, 4096)
    if case == "r in {0, 1}":
        rng = np.random.default_rng(33)
        refl[np.arange(4096), rng.integers(0, 2, 4096)] = rng.choice([0.0, 1.0], 4096)
    unitary = naimark_unitaries(povm_elements(slide_arrays(refl[:, 0], refl[:, 1])))
    b_est = unitary.conj().swapaxes(-1, -2) @ ANCILLA_Z @ unitary
    assert np.abs(b_est @ b_est - np.eye(4)).max() <= 1e-14


ORACLE_CASES = ("drawn", "f+ = f-", "|f| = 2", "r in {0, 1}", "split 1e-6", "near-pure")


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_factored_moments_match_the_whole_space_products(case):
    """On seeded `verify` blocks (custom X estimates on odd trials, optimal
    ones on even trials) and edge cases of them, the oracle's factored MH
    table and eps(X) equal the 4x4 products of `reference_moments`, its
    estimate spreads the centred 4x4 products, and every field of the
    factored chain the chain `relation_chains` takes from full 8x8
    matrices, all within 1e-13.  The edge cases: equal estimates f+ = f-,
    estimates +-2, slides with r_h or r_v in {0, 1}, a split r_v - r_h of
    1e-6, and states within 1e-9 of pure."""
    size = 512
    seed = ORACLE_CASES.index(case)
    g, refl, angles, custom = _draw_block(np.random.default_rng(300 + seed), 0, size)
    rng = np.random.default_rng(seed)
    rho = _state_matrices(g)
    if case == "near-pure":
        psi = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        rho = 1e-9 * rho + (1.0 - 1e-9) * psi[:, :, None] * psi[:, None, :].conj()
    n = bloch_vectors(angles[:, 0], angles[:, 1], [])
    optimal = optimal_values(correlations(rho), n, [])
    f = np.where(np.isnan(custom), optimal, custom)
    if case == "f+ = f-":
        f[:, 1] = f[:, 0]
    elif case == "|f| = 2":
        f = rng.choice([-2.0, 2.0], (size, 2))
    elif case == "r in {0, 1}":
        refl[np.arange(size), rng.integers(0, 2, size)] = rng.choice([0.0, 1.0], size)
    elif case == "split 1e-6":
        refl[:, 1] = refl[:, 0] + 1e-6
    slides, w_projs = slide_arrays(refl[:, 0], refl[:, 1]), w_projectors(n)
    povms, moments = povm_elements(slides), w_moments(rho, n)

    both = np.stack([optimal, f], axis=1)
    for got, want in zip(direct_moments(moments, both),
                         reference_moments(rho, w_projs, both)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    chains = dilated_chains(rho, slides, moments, f,
                            direct_moments(moments, f[:, None])[1][:, 0])
    spreads = reference_estimate_spreads(rho, povms, w_projs, f)
    np.testing.assert_allclose(chains.delta_a_est, spreads[0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(chains.delta_b_est, spreads[1], rtol=0, atol=1e-13)
    want = relation_chains(*dilated_operators(rho, povms, w_projs, f))
    for field in dataclasses.fields(chains):
        np.testing.assert_allclose(getattr(chains, field.name), getattr(want, field.name),
                                   rtol=0, atol=1e-13, err_msg=field.name)


def test_dilated_moments_match_the_whole_space_products_for_any_binary_povm():
    """The slides' Y POVMs are diagonal in Y's eigenbasis, where every chain
    moment is even in <Y> and so blind to a transposed ``Tr_2 rho``.  On
    binary POVMs ``E_0 = w 1 + r n.s`` with X, Y and Z parts, each moment
    of `dilated_moments` equals its 8x8 whole-space product within 1e-13."""
    size = 256
    rng = np.random.default_rng(41)
    g, _, angles, custom = _draw_block(rng, 0, size)
    rho = _state_matrices(g)
    n = bloch_vectors(angles[:, 0], angles[:, 1], [])
    f = np.where(np.isnan(custom), optimal_values(correlations(rho), n, []), custom)
    axes = rng.normal(size=(size, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    weight = rng.uniform(0.0, 1.0, size)
    reach = rng.uniform(0.0, 1.0, size) * np.minimum(weight, 1.0 - weight)
    first = weight[:, None, None] * EYE + reach[:, None, None] * (
        axes @ SIGMAS[1:].reshape(3, 4)).reshape(size, 2, 2)
    povms = np.stack([first, EYE - first], axis=1)
    w_projs = w_projectors(n)
    a_est, b_est, a, b, state = dilated_operators(rho, povms, w_projs, f)
    want = relation_chains(a_est, b_est, a, b, state)
    ev_ab, ev_a_be, *rest = dilated_moments(rho, povms, w_moments(rho, n), f)
    for got, op in ((ev_ab, a @ b - b @ a), (ev_a_be, a @ b_est - b_est @ a)):
        np.testing.assert_allclose(got, np.trace(state @ op, axis1=-2, axis2=-1),
                                   rtol=0, atol=1e-13)
    for got, name in zip(rest, ("eps_b", "delta_a", "delta_b", "delta_a_est", "delta_b_est")):
        np.testing.assert_allclose(got, getattr(want, name), rtol=0, atol=1e-13, err_msg=name)
