"""Direct operator-algebra engine used to cross-check reconstructions.

Everything the estimation layer reconstructs from outcome statistics can be
computed directly as operator expectations on the full Hilbert space, once
POVM estimates are promoted to projective observables on a dilated space
(system tensor ancilla, Naimark construction).  This module does exactly
that, sharing nothing with the statistics path beyond the basic primitives,
so agreement between the two is a real check.

The functions take stacks of N scenarios (``naimark_unitary`` and
``direct_margenau_hill`` are one-scenario views) and work in the factor
order (q1, q2) or, dilated, (q1, q2, ancilla), with the ancilla in its first
basis state.  Each expectation is taken on the factors its operator acts
on, against the state reduced to them: the analyser projectors ``W_w`` and
the X estimates ``f(W)`` on qubit 2 against the 2x2 states ``Tr_1 rho`` and
``Tr_1((X (x) 1) rho)``, and the targets and the dilated Y estimate, on
qubit 1 and on (q1, ancilla), against ``Tr_2 rho``: the (q1, ancilla)
state ``Tr_2 rho (x) |0><0|`` reads only the ancilla-(0, 0) block of an
operator.  ``embed`` places one operator on any slots of a factor layout,
for references built by hand.
"""

from __future__ import annotations

import numpy as np

from .estimate import quasi_mass_checks
from .qcore import SIGMAS, run_checks, state_stack


def embed(op: np.ndarray, slots: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Embed an operator acting on the given factor slots into the full space:
    ``op (x) 1`` on the factors ordered (slots, the rest), with each factor's
    row and column axes then moved back to its own slot."""
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct")
    if any(s < 0 or s >= len(dims) for s in slots):
        raise ValueError(f"slot out of range for {len(dims)} factors")
    order = [*slots, *(i for i in range(len(dims)) if i not in slots)]
    sizes = [dims[i] for i in order]
    op_dim = int(np.prod(sizes[:len(slots)]))
    if op.shape != (op_dim, op_dim):
        raise ValueError(f"operator shape {op.shape} does not match slots {slots}")
    full = np.kron(op, np.eye(int(np.prod(sizes[len(slots):])), dtype=complex))
    back = np.argsort(order)
    return full.reshape(sizes * 2).transpose([*back, *(back + len(dims))]).reshape(full.shape)


_EYE2 = np.eye(2, dtype=complex)
_VALUES = np.array([1.0, -1.0])  # +-1 outcome values, +1 first
# Y on the first of two qubits
_Y1 = np.kron(SIGMAS[2], _EYE2)
# the diagonal of 1 (x) Z on (system, ancilla): a row sign flip
_ANC_SIGNS = np.tile(_VALUES, 2)
# the targets X and Y on qubit 1, their squares and [X, Y], flattened
_Q1_OPS = np.stack([*SIGMAS[1:3], *(op @ op for op in SIGMAS[1:3]),
                    SIGMAS[1] @ SIGMAS[2] - SIGMAS[2] @ SIGMAS[1]]).reshape(5, 4)
for _op in (_Y1, _Q1_OPS):
    _op.setflags(write=False)


def _roots(elements: np.ndarray) -> np.ndarray:
    """PSD square roots of a stack of Hermitian PSD 2x2 matrices, read from
    their lower triangles, in closed form: ``sqrt(A) = (A + s 1)/sqrt(tr A +
    2 s)`` with ``s = sqrt(det A)`` (zero where ``A`` is)."""
    top, bottom = elements[..., 0, 0].real, elements[..., 1, 1].real
    lower = elements[..., 1, 0]
    s = np.sqrt(np.maximum(top * bottom - np.abs(lower) ** 2, 0.0))
    norm = np.sqrt(np.maximum(top + bottom + 2.0 * s, 0.0))
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    roots = np.empty(elements.shape, dtype=complex)
    roots[..., 0, 0] = (top + s) * scale
    roots[..., 1, 1] = (bottom + s) * scale
    roots[..., 1, 0] = lower * scale
    roots[..., 0, 1] = roots[..., 1, 0].conj()
    return roots


def naimark_unitaries(povms: np.ndarray) -> np.ndarray:
    """Dilation unitaries ``[N, 4, 4]`` for N binary POVMs ``povms[N, i]`` on
    one qubit.

    With the Kraus operators ``M_i = sqrt(E_i)`` in closed form, the unitary
    on (system tensor ancilla) is ``U = M_0 (x) 1 + M_1 (x) (|1><0| - |0><1|)``,
    i.e. ``[[M_0, -M_1], [M_1, M_0]]`` in ancilla blocks.  It maps
    ``|s>|0>`` to ``sum_i (M_i |s>) |i>``, so measuring the ancilla in its
    basis realises the POVM when the ancilla starts in ``|0>``, and it is
    unitary because ``M_0`` and ``M_1 = sqrt(1 - E_0)`` commute.
    Precondition, unchecked: the elements sum to the identity with spectra
    in [0, 1], as the closed forms of ``scenario.povm_elements`` do.
    """
    roots = _roots(povms)
    # ancilla blocks (row a, column a') of the (system, ancilla) axes
    unitary = np.empty((len(roots), 2, 2, 2, 2), dtype=complex)
    unitary[:, :, 0, :, 0] = unitary[:, :, 1, :, 1] = roots[:, 0]
    unitary[:, :, 1, :, 0] = roots[:, 1]
    unitary[:, :, 0, :, 1] = -roots[:, 1]
    return unitary.reshape(-1, 4, 4)


def naimark_unitary(povm: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Dilation unitary for a binary POVM on one qubit
    (:func:`naimark_unitaries` for one POVM).  The POVM must have shape
    ``(2, 2, 2)``, its elements sum to the identity within 1e-10, and
    ``U^dag U`` be the identity within 1e-12."""
    elements = np.asarray(povm, dtype=complex)
    if elements.shape != (2, 2, 2):
        raise ValueError(f"a binary POVM on one qubit has shape (2, 2, 2), got {elements.shape}")
    unitary = naimark_unitaries(elements[None])[0]
    if (np.abs(elements[0] + elements[1] - _EYE2) > 1e-10).any():
        raise ValueError("POVM elements must sum to the identity")
    if (np.abs(unitary.conj().T @ unitary - np.eye(4)) > 1e-12).any():
        raise ValueError("dilation completion is not unitary")
    return unitary


def w_projectors(n: np.ndarray) -> np.ndarray:
    """Eigenprojectors ``W_w[N, w]`` (w = +1, -1) of the analyser observables
    ``W = n.s`` for directions ``n[N, 3]`` from :func:`qcore.bloch_vectors`:
    unit to rounding, so W squares to the identity without a check."""
    w_ops = (n @ SIGMAS[1:].reshape(3, 4)).reshape(-1, 2, 2)
    return (_EYE2 + _VALUES[:, None, None] * w_ops[:, None]) / 2


def w_moments(rho: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``<1 (x) W_w>`` and ``<X (x) W_w>`` ``[N, 2, w]`` of states
    ``rho[N, 4, 4]`` and analyser directions ``n[N, 3]``: each projector
    W_w (:func:`w_projectors`) against the 2x2 states ``Tr_1 rho`` and
    ``Tr_1((X (x) 1) rho)``, where ``X (x) 1`` swaps the q1 row index.
    ``vecdot`` of a Hermitian W_w with a flattened matrix is ``Tr(W_w mat)``.
    One pass serves :func:`direct_moments` and :func:`dilated_moments`."""
    parts = rho.reshape(-1, 2, 2, 2, 2)
    reduced = np.stack([parts[:, 0, :, 0] + parts[:, 1, :, 1],
                        parts[:, 1, :, 0] + parts[:, 0, :, 1]], 1)
    return np.vecdot(w_projectors(n).reshape(-1, 1, 2, 4), reduced.reshape(-1, 2, 1, 4)).real


def direct_moments(moments: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct operator moments of N two-qubit scenarios.

    For the W moments ``moments[N, 2, w]`` of the states (:func:`w_moments`)
    and K estimates ``f[N, K, w]`` of X read off the W outcome, returns the
    Margenau-Hill quasi-tables ``<{X_x (x) 1, 1 (x) W_w}>/2 = (<1 (x) W_w>
    + x <X (x) W_w>)/2`` ``[N, x, w]`` and the RMS inaccuracies
    ``sqrt(<(X (x) 1 - 1 (x) f_k(W))^2>)`` ``[N, K]``.  As ``X (x) 1`` and
    ``1 (x) W_w`` commute, ``X^2 = 1`` and the W_w are orthogonal
    projectors, the square is ``sum_w (X - f_w)^2 (x) W_w``, whose
    expectation is ``sum_w (1 + f_w^2) <1 (x) W_w> - 2 f_w <X (x) W_w>``:
    every moment comes from those 2x2 expectations.  Precondition,
    unchecked: each state has unit trace, the quasi-table's mass.
    """
    ones, xs = moments[:, None, 0], moments[:, None, 1]
    mh = (ones + _VALUES[:, None] * xs) / 2
    second = ((1.0 + f * f) * ones - 2.0 * f * xs).sum(axis=-1)
    return mh, np.sqrt(np.maximum(second, 0.0))


def direct_margenau_hill(rho, w) -> np.ndarray:
    """Margenau-Hill quasi-table ``<{X_x (x) 1, 1 (x) W_w}>/2`` ``[x, w]`` of
    one two-qubit state and analyser direction (:func:`direct_moments` for
    one scenario and no estimates), which must sum to 1 within 1e-9."""
    mh, _ = direct_moments(w_moments(state_stack(rho), w.vector[None]), np.zeros((1, 0, 2)))
    run_checks(quasi_mass_checks(mh.sum(axis=(1, 2)), 1e-9))
    return mh[0]


def dilated_moments(rho: np.ndarray, povms: np.ndarray, moments: np.ndarray,
                    f: np.ndarray) -> tuple[np.ndarray, ...]:
    """The moments of the averaged-spread derivation on qubit 1 and on
    (q1, ancilla), for commuting projective estimators on (q1, q2, ancilla).

    For states ``rho[N, 4, 4]``, the Y POVMs ``povms[N, y]`` behind the
    slides, the W moments ``moments[N, 2, w]`` (:func:`w_moments`; it reads
    ``<1 (x) W_w>``) and X estimates ``f[N, w]``: A = X and B = Y act on
    qubit 1, ``A_est = f(W)`` on qubit 2, and the Naimark-dilated Y estimate
    ``B_est = U^dag (1 (x) Z) U``, with values +-1, on (q1, ancilla), whose
    state ``Tr_2 rho (x) |0><0|`` reads only an operator's ancilla-(0, 0)
    block, against ``Tr_2 rho``.  Returns arrays ``[N]`` in the order the
    chain's links take them: ``<[A, B]>``, ``<[A, B_est]>``, eps_b and the
    spreads of A, B, A_est and B_est.  Only eps_b is a direct product,
    ``(B - B_est)^2``, as in :func:`relations.relation_chains`, where it
    keeps its precision in the weak limit.  The target spreads come from the
    squares of X and Y on qubit 1; the spread of A_est is
    ``sum_w (f_w - m)^2 <W_w>``, with ``m = sum_w f_w <W_w>``, as the W_w
    are orthogonal projectors; and that of B_est is ``(1 - m)(1 + m)`` with
    ``m = <B_est>``, as ``B_est^2 = 1``.  ``X (x) 1`` swaps the q1 index of
    a block, so that of ``[A, B_est]`` is two index swaps of B_est's.
    Preconditions, unchecked: each state has unit trace, and the POVMs meet
    that of :func:`naimark_unitaries`.
    """
    size = len(rho)
    unitary = naimark_unitaries(povms)
    b_est = unitary.conj().swapaxes(-1, -2) @ (_ANC_SIGNS[:, None] * unitary)
    diff = _Y1 - b_est
    parts = rho.reshape(size, 2, 2, 2, 2)
    rho_1 = parts[:, :, 0, :, 0] + parts[:, :, 1, :, 1]
    # vecdot(rho_1^dag, op) of a flattened 2x2 op is Tr(rho_1 op)
    rho1_dag = rho_1.conj().swapaxes(-1, -2).reshape(size, 1, 4)
    targets, squares, (ev_ab,) = np.split(np.vecdot(rho1_dag, _Q1_OPS).T, [2, 4])
    # the ancilla-(0, 0) blocks of B_est, [A, B_est] and (B - B_est)^2
    b_block, sq_block = (op.reshape(size, 2, 2, 2, 2)[:, :, 0, :, 0]
                         for op in (b_est, diff @ diff))
    blocks = np.stack([b_block, b_block[:, ::-1] - b_block[:, :, ::-1], sq_block], 1)
    ev_b_est, ev_a_be, sq_b = np.vecdot(rho1_dag, blocks.reshape(size, 3, 4)).T
    m = targets.real
    # Tr(rho (op - m)^2) = Tr(rho op^2) - 2 m Tr(rho op) + m^2 Tr rho
    target_seconds = squares - 2.0 * m * targets + m * m * np.trace(rho, axis1=-2, axis2=-1)
    m_a = (f * moments[:, 0]).sum(axis=-1)
    m_b = ev_b_est.real
    spreads = np.sqrt(np.maximum([
        sq_b.real, *target_seconds.real,
        ((f - m_a[:, None]) ** 2 * moments[:, 0]).sum(axis=-1), (1.0 - m_b) * (1.0 + m_b)], 0.0))
    return (ev_ab, ev_a_be, *spreads)
