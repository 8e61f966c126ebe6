"""Direct operator-algebra engine used to cross-check reconstructions.

Everything the estimation layer reconstructs from outcome statistics can be
computed directly as operator expectations on the full Hilbert space, once
POVM estimates are promoted to projective observables on a dilated space
(system tensor ancilla, Naimark construction).  This module does exactly
that, sharing nothing with the statistics path beyond the basic primitives,
so agreement between the two is a real check.

The functions take stacks of N scenarios (``naimark_unitary`` and
``direct_margenau_hill`` are one-scenario views) and build their operators
in the factor order (q1, q2) or, dilated, (q1, q2, ancilla), with the
ancilla in its first basis state: as Kronecker products entry by entry, or
by writing each factor's block into the full matrix.  Traces
``Tr(rho op)`` are dot products of the flattened ``op`` with the flattened
``rho^dag``.  ``embed`` places one operator on any slots of a factor layout,
for references built by hand.
"""

from __future__ import annotations

import numpy as np

from .estimate import quasi_mass_checks
from .qcore import (
    SIGMAS,
    Check,
    as_operator_array,
    failing,
    submit_checks,
)


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


def _kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of operators ``[d, d]`` or stacks ``[N, d, d]``,
    stacks taken entry by entry."""
    out = ops[0]
    for op in ops[1:]:
        prod = out[..., :, None, :, None] * op[..., None, :, None, :]
        size = prod.shape[-4] * prod.shape[-3]
        out = prod.reshape(*prod.shape[:-4], size, size)
    return out


_EYE2 = np.eye(2, dtype=complex)
_VALUES = np.array([1.0, -1.0])  # +-1 outcome values, +1 first
# the eigenprojectors X_x of X, +1 first
_X_PROJS = (SIGMAS[0] + _VALUES[:, None, None] * SIGMAS[1]) / 2
_X1 = _kron(SIGMAS[1], _EYE2)
# the diagonal of 1 (x) Z on (system, ancilla): a row sign flip
_ANC_SIGNS = np.tile(_VALUES, 2)
# the targets X and Y on qubit 1 of (q1, q2, ancilla)
_X_DILATED, _Y_DILATED = (_kron(op, _EYE2, _EYE2) for op in SIGMAS[1:3])
for _op in (_X_PROJS, _X1, _X_DILATED, _Y_DILATED):
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


def _far(a: np.ndarray, b: np.ndarray, atol: float) -> np.ndarray:
    """Per matrix of a stack: does any entry of ``a`` differ from ``b`` by
    more than ``atol``?"""
    return (np.abs(a - b) > atol).any(axis=(-2, -1))


def naimark_unitaries(povms, checks: list[Check] | None = None) -> np.ndarray:
    """Dilation unitaries ``[N, 4, 4]`` for N binary POVMs ``povms[N, i]`` on
    one qubit.

    With the Kraus operators ``M_i = sqrt(E_i)`` in closed form, the unitary
    on (system tensor ancilla) is ``U = M_0 (x) 1 + M_1 (x) (|1><0| - |0><1|)``,
    i.e. ``[[M_0, -M_1], [M_1, M_0]]`` in ancilla blocks.  It maps
    ``|s>|0>`` to ``sum_i (M_i |s>) |i>``, so measuring the ancilla in its
    basis realises the POVM when the ancilla starts in ``|0>``, and it is
    unitary because ``M_0`` and ``M_1 = sqrt(1 - E_0)`` commute.  The
    elements must sum to the identity within 1e-10 and ``U^dag U`` must be
    the identity within 1e-12, entry by entry; the checks go to ``checks``
    when given, else they run here.
    """
    elements = as_operator_array(povms)
    roots = _roots(elements)
    # ancilla blocks (row a, column a') of the (system, ancilla) axes
    unitary = np.empty((len(roots), 2, 2, 2, 2), dtype=complex)
    unitary[:, :, 0, :, 0] = unitary[:, :, 1, :, 1] = roots[:, 0]
    unitary[:, :, 1, :, 0] = roots[:, 1]
    unitary[:, :, 0, :, 1] = -roots[:, 1]
    unitary = unitary.reshape(-1, 4, 4)
    gram = unitary.conj().swapaxes(-1, -2) @ unitary
    submit_checks(checks, [
        (_far(elements[:, 0] + elements[:, 1], _EYE2, 1e-10),
         failing(ValueError, lambda i: "POVM elements must sum to the identity")),
        (_far(gram, np.eye(4), 1e-12),
         failing(ValueError, lambda i: "dilation completion is not unitary")),
    ])
    return unitary


def naimark_unitary(povm: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Dilation unitary for a binary POVM on one qubit
    (:func:`naimark_unitaries` for one POVM)."""
    return naimark_unitaries(np.asarray(povm, dtype=complex)[None])[0]


def w_projectors(n: np.ndarray) -> np.ndarray:
    """Eigenprojectors ``W_w[N, w]`` (w = +1, -1) of the analyser observables
    ``W = n.s`` for directions ``n[N, 3]`` from :func:`qcore.bloch_vectors`:
    unit to rounding, so W squares to the identity without a check."""
    w_ops = (n @ SIGMAS[1:].reshape(3, 4)).reshape(-1, 2, 2)
    return (_EYE2 + _VALUES[:, None, None] * w_ops[:, None]) / 2


def _estimates(f: np.ndarray, w_projs: np.ndarray) -> np.ndarray:
    """The estimates ``f(W) = sum_w f[..., w] W_w`` ``[..., 2, 2]`` of X values
    ``f[..., w]`` on projectors ``w_projs[..., w, 2, 2]`` broadcast to them."""
    return (f[..., 0, None, None] * w_projs[..., 0, :, :]
            + f[..., 1, None, None] * w_projs[..., 1, :, :])


def direct_moments(rho: np.ndarray, w_projs: np.ndarray, f: np.ndarray,
                   checks: list[Check] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Direct operator moments of N two-qubit scenarios.

    For states ``rho[N, 4, 4]``, analyser projectors ``w_projs[N, w]``
    (:func:`w_projectors`) and K estimates ``f[N, K, w]`` of X read off the
    W outcome, returns the Margenau-Hill quasi-tables
    ``<{X_x (x) 1, 1 (x) W_w}>/2`` ``[N, x, w]`` and the RMS inaccuracies
    ``sqrt(<(X (x) 1 - 1 (x) f_k(W))^2>)`` ``[N, K]``, all from traces.
    Each quasi-table must sum to 1 within 1e-9; the checks go to ``checks``
    when given, else they run here.
    """
    w_projs = w_projs[:, None]
    # Tr(rho op) = sum_ab conj(rho^dag[b, a]) op[b, a], a dot product
    rho_dag = rho.conj().swapaxes(-1, -2).reshape(len(rho), 1, 16)
    # <{K, L}>/2 = Re Tr(rho K L) for Hermitian rho, K, L, and
    # (X_x (x) 1)(1 (x) W_w) = X_x (x) W_w
    products = _kron(_X_PROJS[:, None], w_projs).reshape(len(rho), 2, 2, 16)
    mh = np.vecdot(rho_dag[:, None], products).real
    submit_checks(checks, quasi_mass_checks(mh.sum(axis=(1, 2)), 1e-9))
    diff = _X1 - _kron(_EYE2, _estimates(f, w_projs))
    second = np.vecdot(rho_dag, (diff @ diff).reshape(*diff.shape[:-2], 16)).real
    return mh, np.sqrt(np.maximum(second, 0.0))


def direct_margenau_hill(rho, w) -> np.ndarray:
    """Margenau-Hill quasi-table ``<{X_x (x) 1, 1 (x) W_w}>/2`` ``[x, w]`` of
    one two-qubit state and analyser direction (:func:`direct_moments` for
    one scenario and no estimates)."""
    mh, _ = direct_moments(as_operator_array(rho)[None], w_projectors(w.vector[None]),
                           np.zeros((1, 0, 2)))
    return mh[0]


def dilated_operators(rho: np.ndarray, povms: np.ndarray, w_projs: np.ndarray,
                      f: np.ndarray, checks: list[Check] | None = None):
    """Commuting projective estimators on (q1, q2, ancilla) for N scenarios.

    For states ``rho[N, 4, 4]``, the Y POVMs ``povms[N, y]`` behind the
    slides, analyser projectors ``w_projs[N, w]`` (:func:`w_projectors`)
    and X estimates ``f[N, w]``, returns ``(x_est, y_est, x1, y1, state)``:
    the X estimate ``f(W)`` on qubit 2, the Naimark-dilated Y estimate on
    (q1, ancilla) with values +-1, the targets X and Y on qubit 1, and the
    state with the ancilla in ``|0>``; each ``[N, 8, 8]`` or, for x1 and
    y1, ``[8, 8]``.

    The Y estimate is the ancilla's Z read back through the dilation
    unitary, ``U^dag (1 (x) Z) U``, one product per scenario.  The dilated
    family it comes from, ``U^dag (1 (x) |i><i|) U``, sums to ``U^dag U``,
    which :func:`naimark_unitaries` gates at the identity.  The checks go to
    ``checks`` when given, else they run here.
    """
    size = len(rho)
    unitary = naimark_unitaries(povms, checks)
    y_local = unitary.conj().swapaxes(-1, -2) @ (_ANC_SIGNS[:, None] * unitary)
    # (q1, q2, ancilla) axes of rows and columns: the state is rho (x) |0><0|,
    # x_est is 1 (x) f(W) (x) 1 and y_est is y_local with the identity on q2
    state, x_est, y_est = np.zeros((3, size, 2, 2, 2, 2, 2, 2), dtype=complex)
    state[:, :, :, 0, :, :, 0] = rho.reshape(size, 2, 2, 2, 2)
    estimate = _estimates(f, w_projs)
    y_local = y_local.reshape(size, 2, 2, 2, 2)
    for i in range(2):
        y_est[:, :, i, :, :, i, :] = y_local
        for j in range(2):
            x_est[:, i, :, j, i, :, j] = estimate
    return (x_est.reshape(size, 8, 8), y_est.reshape(size, 8, 8), _X_DILATED, _Y_DILATED,
            state.reshape(size, 8, 8))
