"""Direct operator-algebra engine used to cross-check reconstructions.

Everything the estimation layer reconstructs from outcome statistics can be
computed directly as operator expectations on the full Hilbert space, once
POVM estimates are promoted to projective observables on a dilated space
(system tensor ancilla, Naimark construction).  This module does exactly
that, sharing nothing with the statistics path beyond the basic primitives,
so agreement between the two is a real check.

Tensor-factor layout: factors are listed in order, operators are registered
on slots (factor indices) and embedded by Kronecker products with identities
elsewhere; an ancilla is always appended as the last factor and the state is
extended with the ancilla in its first basis state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimate import QuasiDistribution, quasi_mass_checks
from .qcore import (
    SIGMAS,
    Check,
    DensityMatrix,
    as_operator_array,
    failing,
    submit_checks,
)


def embed(op: np.ndarray, slots: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Embed an operator acting on the given factor slots into the full space."""
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct")
    if any(s < 0 or s >= len(dims) for s in slots):
        raise ValueError(f"slot out of range for {len(dims)} factors")
    op_dim = int(np.prod([dims[s] for s in slots]))
    if op.shape != (op_dim, op_dim):
        raise ValueError(f"operator shape {op.shape} does not match slots {slots}")
    n = len(dims)
    # reshape to one tensor index pair per slot factor, then kron in identities
    op_t = op.reshape([dims[s] for s in slots] * 2)
    # move into full tensor with identity on the remaining factors
    rest = [i for i in range(n) if i not in slots]
    if rest:
        eye = np.eye(int(np.prod([dims[i] for i in rest])), dtype=complex)
        eye_t = eye.reshape([dims[i] for i in rest] * 2)
        full = np.tensordot(op_t, eye_t, axes=0)
    else:
        full = op_t
    # axes: slots-row, slots-col, rest-row, rest-col -> interleave to row/col per factor
    k, r = len(slots), len(rest)
    row_axes = {s: i for i, s in enumerate(slots)}
    row_axes.update({s: 2 * k + i for i, s in enumerate(rest)})
    col_axes = {s: k + i for i, s in enumerate(slots)}
    col_axes.update({s: 2 * k + r + i for i, s in enumerate(rest)})
    perm = [row_axes[i] for i in range(n)] + [col_axes[i] for i in range(n)]
    full = np.transpose(full, perm)
    dim = int(np.prod(dims))
    return full.reshape(dim, dim)


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
# X_x (x) 1 on (q1, q2): the eigenprojectors of X on qubit 1, +1 first
_X1_PROJS = _kron((SIGMAS[0] + _VALUES[:, None, None] * SIGMAS[1]) / 2, _EYE2)
_ANC0 = np.diag([1.0, 0.0]).astype(complex)
# 1 (x) |i><i| on (system, ancilla) for ancilla states i = 0, 1
_ANC_PROJS = _kron(_EYE2, np.stack([_ANC0, np.diag([0.0, 1.0]).astype(complex)]))
# |1><0| - |0><1| on the ancilla: the factor of M_1 in the dilation unitary
_ANC_FLIP = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


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
    unitary = _kron(roots[:, 0], _EYE2) + _kron(roots[:, 1], _ANC_FLIP)
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


def naimark_projectors(povms, checks: list[Check] | None = None) -> np.ndarray:
    """Projective families ``[N, i, 4, 4]`` on (system, ancilla) realising N
    binary POVMs ``povms[N, i]``: the ancilla projectors ``1 (x) |i><i|``
    back-rotated by the dilation unitaries of :func:`naimark_unitaries`."""
    unitary = naimark_unitaries(povms, checks)[:, None]
    return unitary.conj().swapaxes(-1, -2) @ _ANC_PROJS @ unitary


def _w_projectors(n: np.ndarray, checks: list[Check] | None) -> np.ndarray:
    """Eigenprojectors ``W_w[N, w]`` (w = +1, -1) of the analyser observables
    ``W = n.s`` for directions ``n[N, 3]``, each W checked to square to the
    identity as in :func:`projector_pair`."""
    w_ops = np.einsum("nk,kab->nab", n, SIGMAS[1:])
    submit_checks(checks, [(np.abs(w_ops @ w_ops - _EYE2).max(axis=(-2, -1)) > 1e-10, failing(
        ValueError, lambda i: "projector_pair needs an operator squaring to the identity"))])
    return (_EYE2 + _VALUES[:, None, None] * w_ops[:, None]) / 2


def direct_moments(rho: np.ndarray, n: np.ndarray, f: np.ndarray,
                   checks: list[Check] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Direct operator moments of N two-qubit scenarios.

    For states ``rho[N, 4, 4]``, analyser directions ``n[N, 3]`` and K
    estimates ``f[N, K, w]`` of X read off the W outcome, returns the
    Margenau-Hill quasi-tables ``<{X_x (x) 1, 1 (x) W_w}>/2`` ``[N, x, w]``
    and the RMS inaccuracies ``sqrt(<(X (x) 1 - 1 (x) f_k(W))^2>)``
    ``[N, K]``, all straight from traces.  Each quasi-table must sum to 1
    within 1e-9; the checks go to ``checks`` when given, else they run here.
    """
    w_projs = _w_projectors(n, checks)
    # <{K, L}>/2 = Re Tr(rho K L) for Hermitian rho, K, L
    rho_k = np.stack([(rho.reshape(-1, 4) @ k).reshape(rho.shape) for k in _X1_PROJS], axis=1)
    mh = np.einsum("nxab,nwba->nxw", rho_k, _kron(_EYE2, w_projs)).real
    submit_checks(checks, quasi_mass_checks(mh.sum(axis=(1, 2)), 1e-9))
    estimates = np.einsum("nkw,nwab->nkab", f, w_projs)
    diff = _kron(SIGMAS[1], _EYE2) - _kron(_EYE2, estimates)
    second = np.einsum("nkab,nkba->nk", rho[:, None] @ diff, diff).real
    return mh, np.sqrt(np.maximum(second, 0.0))


def dilated_operators(rho: np.ndarray, povms: np.ndarray, n: np.ndarray, f: np.ndarray,
                      checks: list[Check] | None = None):
    """Commuting projective estimators on (q1, q2, ancilla) for N scenarios.

    For states ``rho[N, 4, 4]``, the Y POVMs ``povms[N, y]`` behind the
    slides, analyser directions ``n[N, 3]`` and X estimates ``f[N, w]``,
    returns ``(x_est, y_est, x1, y1, state)``: the X estimate ``f(W)`` on
    qubit 2, the Naimark-dilated Y estimate on (q1, ancilla) with values
    +-1, the targets X and Y on qubit 1, and the state with the ancilla in
    ``|0>``; each ``[N, 8, 8]`` or, for x1 and y1, ``[8, 8]``.  The dilated
    family must be complete; the checks go to ``checks`` when given, else
    they run here.
    """
    state = _kron(rho, _ANC0)
    x_est = _kron(_EYE2, np.einsum("nw,nwab->nab", f, _w_projectors(n, checks)), _EYE2)
    local = naimark_projectors(povms, checks)
    # embed on slots (q1, anc) of (q1, q2, anc): identity on q2
    family = np.einsum("nipqrs,bc->nipbqrcs",
                       local.reshape(-1, 2, 2, 2, 2, 2), _EYE2).reshape(-1, 2, 8, 8)
    submit_checks(checks, [(_far(family.sum(axis=1), np.eye(8), 1e-12), failing(
        ValueError, lambda i: "dilated family is not complete"))])
    y_est = family[:, 0] - family[:, 1]
    return (x_est, y_est, _kron(SIGMAS[1], _EYE2, _EYE2), _kron(SIGMAS[2], _EYE2, _EYE2),
            state)


@dataclass
class DilatedSystem:
    """A full (possibly ancilla-extended) space with named operators.

    ``operators`` maps names to full-space matrices; ``families`` maps names
    to lists of (value, full-space projector) pairs for projective
    observables.
    """

    dims: tuple[int, ...]
    state: np.ndarray
    operators: dict[str, np.ndarray] = field(default_factory=dict)
    families: dict[str, list[tuple[float, np.ndarray]]] = field(default_factory=dict)

    @classmethod
    def two_qubit(cls, rho: DensityMatrix) -> "DilatedSystem":
        if rho.dim != 4:
            raise ValueError("two_qubit expects a 4-dimensional state")
        return cls(dims=(2, 2), state=np.array(rho.matrix))

    @classmethod
    def two_qubit_with_ancilla(cls, rho: DensityMatrix) -> "DilatedSystem":
        """Append a qubit ancilla in |0>, giving factor layout (q1, q2, anc)."""
        if rho.dim != 4:
            raise ValueError("two_qubit_with_ancilla expects a 4-dimensional state")
        anc = np.zeros((2, 2), dtype=complex)
        anc[0, 0] = 1.0
        return cls(dims=(2, 2, 2), state=np.kron(rho.matrix, anc))

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def register(self, name: str, op, slots: tuple[int, ...]) -> np.ndarray:
        mat = embed(as_operator_array(op), slots, self.dims)
        self.operators[name] = mat
        return mat

    def register_family(self, name: str, members: list[tuple[float, object]],
                        slots: tuple[int, ...]) -> None:
        """Register a projective family [(value, local projector), ...]."""
        embedded = [(float(v), embed(as_operator_array(p), slots, self.dims)) for v, p in members]
        total = sum(p for _, p in embedded)
        if _far(total, np.eye(self.dim), 1e-12):
            raise ValueError(f"family {name!r} is not complete")
        self.families[name] = embedded
        # the value-weighted sum is the observable itself
        self.operators[name] = sum(v * p for v, p in embedded)

    def register_naimark_estimator(self, name: str,
                                   povm: tuple[np.ndarray, np.ndarray],
                                   values: tuple[float, float],
                                   system_slot: int) -> None:
        """Promote a binary POVM on one factor to a projective family.

        The ancilla must be the last factor (see ``two_qubit_with_ancilla``).
        Measurement of the ancilla basis after the dilation unitary realises
        the POVM; the registered projectors are the back-rotated ancilla
        projectors on (system_slot, ancilla).
        """
        anc_slot = len(self.dims) - 1
        local = naimark_projectors(np.asarray(povm, dtype=complex)[None])[0]
        # members live on (system_slot, anc_slot)
        embedded = [(value, embed(proj, (system_slot, anc_slot), self.dims))
                    for value, proj in zip(values, local)]
        total = sum(p for _, p in embedded)
        if _far(total, np.eye(self.dim), 1e-12):
            raise ValueError("dilated family is not complete")
        self.families[name] = embedded
        self.operators[name] = sum(v * p for v, p in embedded)

    def operator(self, name: str) -> np.ndarray:
        if name not in self.operators:
            raise KeyError(f"no operator registered under {name!r}")
        return self.operators[name]

    def expectation(self, name: str) -> float:
        val = complex(np.trace(self.state @ self.operator(name)))
        if abs(val.imag) > 1e-10:
            raise ValueError(f"expectation of {name!r} has imaginary part {val.imag:.3e}")
        return val.real


def direct_inaccuracy(system: DilatedSystem, target: str, estimator: str) -> float:
    """``sqrt(<(T - E)^2>)`` straight from the registered operators."""
    diff = system.operator(target) - system.operator(estimator)
    val = float(np.real(np.trace(system.state @ diff @ diff)))
    return math.sqrt(max(val, 0.0))


def direct_margenau_hill(system: DilatedSystem, k_family: str,
                         l_family: str) -> QuasiDistribution:
    """MH quasi-probabilities ``<{K_k, L_l}>/2`` of two projective families."""
    if k_family not in system.families:
        raise KeyError(f"no projective family registered under {k_family!r}")
    if l_family not in system.families:
        raise KeyError(f"no projective family registered under {l_family!r}")
    entries: dict[tuple[float, float], float] = {}
    for kv, kp in system.families[k_family]:
        for lv, lp in system.families[l_family]:
            anti = kp @ lp + lp @ kp
            val = 0.5 * float(np.real(np.trace(system.state @ anti)))
            entries[(kv, lv)] = entries.get((kv, lv), 0.0) + val
    return QuasiDistribution(entries, atol=1e-9)


def mh_mean_square(quasi: QuasiDistribution) -> float:
    """``sum (k - l)^2 p_MH(k, l)`` -- equals ``<(K - L)^2>`` exactly."""
    return float(sum((k - l) ** 2 * p for (k, l), p in quasi.entries.items()))
