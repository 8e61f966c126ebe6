"""References for the operator oracle, built from whole-space operator products.

`oracle.direct_moments` and `oracle.dilated_moments` take each expectation on
the factors its operator acts on, against the state reduced to them, and in
closed forms that rest on operator identities.  The references here build the
operators on the whole space instead: `reference_moments` and
`reference_estimate_spreads` as stacked 4x4 products on (q1, q2) and
(q1, ancilla), and `dilated_operators` as full 8x8 matrices on
(q1, q2, ancilla), with the ancilla in |0>, so that
`relations.relation_chains` can take them as it takes hand-built operators.
"""

import numpy as np

from jointmeas.oracle import naimark_unitaries
from jointmeas.qcore import SIGMAS

EYE2 = np.eye(2)
# the targets X and Y on qubit 1 of (q1, q2, ancilla)
X_DILATED, Y_DILATED = (np.kron(np.kron(op, EYE2), EYE2) for op in SIGMAS[1:3])
# 1 (x) Z on (system, ancilla)
ANCILLA_Z = np.kron(EYE2, SIGMAS[3])
# the eigenprojectors X_x of X, +1 first
X_PROJS = np.stack([(EYE2 + s * SIGMAS[1]) / 2 for s in (1.0, -1.0)])


def kron(p, q):
    """Kronecker product of two operators ``[d, d]`` or stacks ``[..., d, d]``,
    stacks taken entry by entry."""
    prod = p[..., :, None, :, None] * q[..., None, :, None, :]
    size = prod.shape[-4] * prod.shape[-3]
    return prod.reshape(*prod.shape[:-4], size, size)


def estimates(f, w_projs):
    """The estimates ``f(W) = sum_w f[..., w] W_w`` ``[..., 2, 2]`` of X values
    ``f[..., w]`` on projectors ``w_projs[..., w, 2, 2]`` broadcast to them."""
    return (f[..., 0, None, None] * w_projs[..., 0, :, :]
            + f[..., 1, None, None] * w_projs[..., 1, :, :])


def reference_moments(rho, w_projs, f):
    """:func:`oracle.direct_moments` from 4x4 products on (q1, q2): the MH
    table ``Re Tr(rho X_x (x) W_w)`` ``[N, x, w]`` and the inaccuracies
    ``sqrt(Tr(rho D^2))`` ``[N, K]`` of ``D = X (x) 1 - 1 (x) f_k(W)``, for
    states ``rho[N, 4, 4]``, projectors ``w_projs[N, w]`` and estimates
    ``f[N, K, w]``."""
    w_projs = w_projs[:, None]
    products = kron(X_PROJS[:, None], w_projs)
    mh = np.trace(rho[:, None, None] @ products, axis1=-2, axis2=-1).real
    diff = np.kron(SIGMAS[1], EYE2) - kron(EYE2, estimates(f, w_projs))
    second = np.trace(rho[:, None] @ diff @ diff, axis1=-2, axis2=-1).real
    return mh, np.sqrt(np.maximum(second, 0.0))


def reference_estimate_spreads(rho, povms, w_projs, f):
    """The spreads ``[N]`` of the chain's estimates, each from the centred
    direct product ``(op - m)^2`` with ``m = Re Tr(state op)``: ``A_est =
    f(W)`` against ``Tr_1 rho``, and the Naimark-dilated Y estimate
    ``U^dag (1 (x) Z) U`` on (q1, ancilla) against ``Tr_2 rho (x) |0><0|``."""
    size = len(rho)
    parts = rho.reshape(size, 2, 2, 2, 2)
    rho_1_anc = np.zeros((size, 2, 2, 2, 2), dtype=complex)
    rho_1_anc[:, :, 0, :, 0] = parts[:, :, 0, :, 0] + parts[:, :, 1, :, 1]
    unitary = naimark_unitaries(povms)
    b_est = unitary.conj().swapaxes(-1, -2) @ ANCILLA_Z @ unitary

    def spread(state, op):
        mean = np.trace(state @ op, axis1=-2, axis2=-1).real
        centred = op - mean[:, None, None] * np.eye(op.shape[-1])
        return np.sqrt(np.maximum(
            np.trace(state @ centred @ centred, axis1=-2, axis2=-1).real, 0.0))

    return (spread(parts[:, 0, :, 0] + parts[:, 1, :, 1], estimates(f, w_projs)),
            spread(rho_1_anc.reshape(size, 4, 4), b_est))


def dilated_operators(rho, povms, w_projs, f):
    """``(a_est, b_est, a, b, state)`` of N scenarios on (q1, q2, ancilla).

    For states ``rho[N, 4, 4]``, the Y POVMs ``povms[N, y]``, analyser
    projectors ``w_projs[N, w]`` and X estimates ``f[N, w]``: the X
    estimate ``f(W)`` on qubit 2, the Naimark-dilated Y estimate
    ``U^dag (1 (x) Z) U`` on (q1, ancilla), the targets X and Y on qubit 1
    (``[8, 8]``, shared) and the state ``rho (x) |0><0|``, each written
    block by block into the full ``[N, 8, 8]`` matrix.
    """
    size = len(rho)
    unitary = naimark_unitaries(povms)
    y_local = (unitary.conj().swapaxes(-1, -2) @ ANCILLA_Z @ unitary).reshape(size, 2, 2, 2, 2)
    estimate = estimates(f, w_projs)
    # (q1, q2, ancilla) axes of rows and columns
    state, x_est, y_est = np.zeros((3, size, 2, 2, 2, 2, 2, 2), dtype=complex)
    state[:, :, :, 0, :, :, 0] = rho.reshape(size, 2, 2, 2, 2)
    for i in range(2):
        y_est[:, :, i, :, :, i, :] = y_local
        for j in range(2):
            x_est[:, i, :, j, i, :, j] = estimate
    return (x_est.reshape(size, 8, 8), y_est.reshape(size, 8, 8), X_DILATED, Y_DILATED,
            state.reshape(size, 8, 8))
