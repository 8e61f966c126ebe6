"""The dilated estimators of the derivation chain as full 8x8 matrices.

`oracle.dilated_moments` computes the chain's moments on the factors each
operator acts on.  The reference here builds every operator on the whole
space (q1, q2, ancilla), with the ancilla in |0>, so that
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
    estimate = f[:, 0, None, None] * w_projs[:, 0] + f[:, 1, None, None] * w_projs[:, 1]
    # (q1, q2, ancilla) axes of rows and columns
    state, x_est, y_est = np.zeros((3, size, 2, 2, 2, 2, 2, 2), dtype=complex)
    state[:, :, :, 0, :, :, 0] = rho.reshape(size, 2, 2, 2, 2)
    for i in range(2):
        y_est[:, :, i, :, :, i, :] = y_local
        for j in range(2):
            x_est[:, i, :, j, i, :, j] = estimate
    return (x_est.reshape(size, 8, 8), y_est.reshape(size, 8, 8), X_DILATED, Y_DILATED,
            state.reshape(size, 8, 8))
