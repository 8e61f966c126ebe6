"""Quantum primitives on two- and four-dimensional Hilbert spaces.

Conventions used throughout the package:

* Single-qubit basis: ``|H>`` (horizontal) and ``|V>`` (vertical), the +1
  and -1 eigenstates of the Z polarisation operator.
* ``X |H> = |V>`` (diagonal / anti-diagonal basis) and ``Y |H> = i |V>``
  (right / left circular basis), so ``[X, Y] = 2i Z``.
* Two-qubit operators are Kronecker products with qubit 1 (the qubit whose
  observables get estimated) as the *left* factor; the product basis is
  ordered ``HH, HV, VH, VV``.
* Angles are radians everywhere inside the library.  Degrees appear only at
  the command-line boundary.

All container types are immutable values; operations are pure functions.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (2, 4)


class DimensionMismatchError(ValueError):
    """Operands live on different or unsupported Hilbert spaces."""


class NumericalCorruptionError(ArithmeticError):
    """A quantity that must be real/non-negative came out otherwise."""


class DataQualityWarning(UserWarning):
    """Measured data forced a clamp or floor; carries the raw value."""


# A per-index check of the array kernels: ``bad`` flags the offending indices
# of a length-N batch and ``fire(i)`` raises (or warns) for index ``i`` with
# the exception a single-item call would give.
Check = tuple[np.ndarray, Callable[[int], None]]


def failing(exc_type: type[Exception], message: Callable[[int], str]) -> Callable[[int], None]:
    """A check action raising ``exc_type(message(i))`` for index ``i``."""
    def fire(i: int) -> None:
        raise exc_type(message(i))
    return fire


def run_checks(checks: Sequence[Check]) -> None:
    """Run batch checks in the order a loop over the indices would.

    Index by index, from the lowest flagged one, every check flagging that
    index fires in sequence order: the first raising check stops the run,
    and warnings before it are emitted as a loop would emit them.
    """
    if not checks:
        return
    flagged = np.logical_or.reduce([bad for bad, _ in checks])
    for i in np.flatnonzero(flagged).tolist():
        for bad, fire in checks:
            if bad[i]:
                fire(i)


def submit_checks(checks: list[Check] | None, new: Sequence[Check]) -> None:
    """Queue ``new`` on ``checks`` for the caller to run in its own order, or
    run them now when no queue is given."""
    if checks is None:
        run_checks(new)
    else:
        checks.extend(new)


# The exact-arithmetic gates: how far an operator or state may sit from
# Hermitian, and matrices, traces or real expectations from their targets.
_HERMITICITY_TOL = 1e-12
_EQUALITY_TOL = 1e-10
# The data-quality gates no profile varies: the negative eigenvalue below
# which a density matrix is flagged, and a simulated table's mass slack.
PSD_TOL = 1e-10
SIMULATED_NORM = 1e-10


@dataclass(frozen=True)
class ToleranceProfile:
    """Data-quality tolerances of measured data, selectable as named profiles.

    ``tomographic_psd`` is the magnitude of negative eigenvalue accepted in
    a state reconstructed from measured data; ``measured_norm`` bounds how
    far a measured table's total mass may sit from 1.
    """

    tomographic_psd: float = 1e-3
    measured_norm: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {name} must be finite and non-negative, got {value}")


DEFAULT_TOLERANCES = ToleranceProfile()

# Named profiles selectable from the CLI.  "strict" treats measured data as
# simulation-quality; "relaxed" admits sloppier measured tables.
PROFILES: dict[str, ToleranceProfile] = {
    "default": DEFAULT_TOLERANCES,
    "strict": ToleranceProfile(measured_norm=1e-3, tomographic_psd=1e-10),
    "relaxed": ToleranceProfile(measured_norm=0.05),
}


def as_complex_matrix(values) -> np.ndarray:
    """Validate and copy a square complex matrix of supported dimension."""
    mat = np.array(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] not in SUPPORTED_DIMS:
        raise DimensionMismatchError(
            f"dimension {mat.shape[0]} unsupported (expected one of {SUPPORTED_DIMS})")
    if not np.all(np.isfinite(mat.view(float))):
        raise ValueError("matrix contains non-finite entries")
    mat.setflags(write=False)
    return mat


def as_operator_array(op) -> np.ndarray:
    """``op`` (or its ``.matrix``) as a complex array, square in its last two
    axes: one operator ``[d, d]`` or a stack ``[N, d, d]``."""
    mat = np.asarray(getattr(op, "matrix", op), dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square operator, got shape {mat.shape}")
    return mat


class HermitianOperator:
    """An observable: square, Hermitian within tolerance, dim 2 or 4."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        mat = as_complex_matrix(matrix)
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > _HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        object.__setattr__(self, "_matrix", mat)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(-self._matrix)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# s_0..s_3 = 1, X, Y, Z and the two-qubit products s_j (x) s_k
SIGMAS = np.stack([_PAULI[k] for k in "IXYZ"])
SIGMAS.setflags(write=False)
# the two-qubit products s_j (x) s_k as columns: row ba, column jk, so a
# flattened transposed state times it gives every Tr(rho s_j (x) s_k)
_SIGMA_PAIRS = np.einsum("jab,kcd->jkacbd", SIGMAS, SIGMAS).reshape(16, 16).T.copy()


def pauli(which: str) -> HermitianOperator:
    """Pauli operator in the H/V basis: ``pauli("X")`` etc., plus ``"I"``."""
    key = which.upper()
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli label {which!r} (use I, X, Y or Z)")
    return HermitianOperator(_PAULI[key])


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product ``a (x) b`` of two single-qubit operators."""
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatchError("tensor expects two single-qubit operators")
    return HermitianOperator(np.kron(a.matrix, b.matrix))


def projector_pair(op: HermitianOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Eigenprojectors ``(P_plus, P_minus)`` of a +-1-valued observable."""
    sq = op.matrix @ op.matrix
    if np.abs(sq - np.eye(op.dim)).max() > _EQUALITY_TOL:
        raise ValueError("projector_pair needs an operator squaring to the identity")
    eye = np.eye(op.dim)
    return (HermitianOperator((eye + op.matrix) / 2),
            HermitianOperator((eye - op.matrix) / 2))


class DensityMatrix:
    """A quantum state: Hermitian, unit trace, eigenvalues above a floor.

    ``psd_floor`` is the magnitude of negative eigenvalue accepted.  States
    reconstructed from tomography may carry small negative eigenvalues; those
    are accepted up to the relaxed floor, flagged via ``psd_warning`` below
    ``-PSD_TOL`` and kept in ``min_eigenvalue``.  The matrix is never altered.
    """

    __slots__ = ("_matrix", "min_eigenvalue", "psd_floor", "psd_warning")

    def __init__(self, matrix, *, psd_floor: float = PSD_TOL):
        mat = as_complex_matrix(matrix)
        checks, min_eigs = density_checks(mat[None], psd_floor)
        run_checks(checks)
        min_eig = float(min_eigs[0])
        object.__setattr__(self, "_matrix", mat)
        object.__setattr__(self, "min_eigenvalue", min_eig)
        object.__setattr__(self, "psd_floor", psd_floor)
        object.__setattr__(self, "psd_warning", min_eig < -PSD_TOL)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def from_pure(cls, statevector) -> "DensityMatrix":
        vec = np.asarray(statevector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise ValueError("state vector has zero norm")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, min_eig={self.min_eigenvalue:.2e})"


def density_checks(mats: np.ndarray, psd_floor: float = PSD_TOL
                   ) -> tuple[list[Check], np.ndarray]:
    """Checks of N density matrices ``mats[N, d, d]`` -- Hermitian, unit
    trace, no eigenvalue below ``-psd_floor`` -- and their smallest
    eigenvalues ``[N]``."""
    dev = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.trace(mats, axis1=-2, axis2=-1)
    min_eig = np.linalg.eigvalsh(mats)[:, 0]
    return [
        (dev > _HERMITICITY_TOL, failing(
            ValueError, lambda i: f"density matrix not Hermitian (max deviation {dev[i]:.3e})")),
        (np.abs(tr - 1.0) > _EQUALITY_TOL, failing(
            ValueError, lambda i: f"density matrix trace {complex(tr[i]):.12g} differs from 1")),
        (min_eig < -psd_floor, failing(
            ValueError, lambda i: f"density matrix has eigenvalue {min_eig[i]:.3e} below "
                                  f"floor -{psd_floor:g}")),
    ], min_eig


@dataclass(frozen=True)
class BlochObservable:
    """A +-1-valued qubit observable from Bloch angles (radians).

    ``W = sin(theta) cos(phi) X + sin(theta) sin(phi) Y + cos(theta) Z``.
    ``vector`` is the unit Bloch vector ``(sin t cos p, sin t sin p, cos t)``,
    computed once by :func:`bloch_vectors` when the observable is built (a
    non-finite angle raises there); being unit, it makes W square to 1.
    """

    theta: float
    phi: float

    def __post_init__(self):
        vector = bloch_vectors(self.theta, self.phi)[0]
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "BlochObservable":
        return cls(math.radians(theta_deg), math.radians(phi_deg))

    @property
    def theta_deg(self) -> float:
        return math.degrees(self.theta)

    @property
    def phi_deg(self) -> float:
        return math.degrees(self.phi)

    def as_operator(self) -> HermitianOperator:
        return HermitianOperator(np.tensordot(self.vector, SIGMAS[1:], axes=1))


def bloch_vectors(theta, phi) -> np.ndarray:
    """Unit Bloch vectors, shape (N, 3), for radian angles broadcast to N; the
    first non-finite angle (theta before phi) raises ``ValueError``."""
    theta, phi = np.broadcast_arrays(np.atleast_1d(np.asarray(theta, dtype=float)),
                                     np.atleast_1d(np.asarray(phi, dtype=float)))
    finite = np.isfinite(theta) & np.isfinite(phi)
    if not finite.all():
        i = int(np.argmin(finite))
        name, value = ("phi", phi[i]) if np.isfinite(theta[i]) else ("theta", theta[i])
        raise ValueError(f"analyser angle {name} must be finite, got {value}")
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def correlations(rho) -> np.ndarray:
    """Correlation tensor ``T[j, k] = Tr(rho s_j (x) s_k)`` of a two-qubit
    state, ``s = (1, X, Y, Z)``; real because rho is Hermitian.  ``rho`` is
    a DensityMatrix, giving ``T[4, 4]``, or a stack of validated matrices
    ``[N, 4, 4]``, giving ``T[N, 4, 4]``."""
    mat = getattr(rho, "matrix", rho)
    if mat.shape[-2:] != (4, 4):
        raise DimensionMismatchError(
            f"correlations need a two-qubit state, got dim {mat.shape[-1]}")
    flat = mat.swapaxes(-1, -2).reshape(-1, 16)
    return (flat @ _SIGMA_PAIRS).real.reshape(mat.shape)


def _traces(mats: np.ndarray) -> np.ndarray:
    """Traces of a stack of 2x2 or 4x4 matrices, with the diagonal added in
    pairs, ``(m00 + m11) + (m22 + m33)``.  That is the order in which
    numpy's pairwise summation adds four complex entries, so the sums equal
    ``np.trace``'s bit for bit, without its reduction over a 4-entry axis
    per matrix, which costs more than the arithmetic on a stack."""
    diag = [mats[..., k, k] for k in range(mats.shape[-1])]
    while len(diag) > 1:
        diag = [left + right for left, right in zip(diag[::2], diag[1::2])]
    return diag[0]


def expectation(op: HermitianOperator, rho: DensityMatrix) -> float:
    """``Tr(rho op)`` as a real number.

    A large imaginary residue means an argument was not actually Hermitian,
    which is reported as corruption rather than silently discarded.
    """
    if op.dim != rho.dim:
        raise DimensionMismatchError(f"operator dim {op.dim} vs state dim {rho.dim}")
    val = complex(np.trace(rho.matrix @ op.matrix))
    if abs(val.imag) > _EQUALITY_TOL:
        raise NumericalCorruptionError(f"expectation has imaginary part {val.imag:.3e}")
    return val.real


def spreads(op: HermitianOperator, mats: np.ndarray,
            checks: list[Check] | None = None) -> np.ndarray:
    """Standard deviations ``sqrt(<G^2> - <G>^2)`` ``[N]`` of one observable
    in N states ``mats[N, d, d]``.  The mean must be real and the variance
    not below -1e-12 (checks go to ``checks`` when given, else run here)."""
    if op.dim != mats.shape[-1]:
        raise DimensionMismatchError(f"operator dim {op.dim} vs state dim {mats.shape[-1]}")
    g = op.matrix
    # the shared operator acts as one GEMM on the flattened stack
    mats_g = mats.reshape(-1, op.dim) @ g
    val = _traces(mats_g.reshape(mats.shape))
    mean = val.real
    second = _traces((mats_g @ g).reshape(mats.shape)).real
    var = second - mean * mean
    submit_checks(checks, [
        (np.abs(val.imag) > _EQUALITY_TOL, failing(
            NumericalCorruptionError,
            lambda i: f"expectation has imaginary part {val.imag[i]:.3e}")),
        (var < -1e-12, failing(
            NumericalCorruptionError, lambda i: f"variance {var[i]:.3e} below -1e-12")),
    ])
    return np.sqrt(np.maximum(var, 0.0))


def spread(op: HermitianOperator, rho: DensityMatrix) -> float:
    """Standard deviation ``sqrt(<G^2> - <G>^2)`` of an observable
    (:func:`spreads` for one state)."""
    return float(spreads(op, rho.matrix[None])[0])


def commutator_bounds(a: HermitianOperator, b: HermitianOperator,
                      mats: np.ndarray) -> np.ndarray:
    """``c = |<[A, B]>|`` ``[N]`` in N states ``mats[N, d, d]``."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return np.abs(_traces((mats.reshape(-1, a.dim) @ comm).reshape(mats.shape)))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """PSD square root of a Hermitian matrix, or of each in a stack."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

    For a pure ``sigma = |psi><psi|`` this reduces to ``<psi|rho|psi>``.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError("fidelity needs states of equal dimension")
    root = _psd_sqrt(rho.matrix)
    vals = np.linalg.eigh(root @ sigma.matrix @ root)[0]
    # a rank-deficient sigma leaves rounding-level eigenvalues, whose square
    # roots (~1e-8) would swamp the result: they count as zero
    vals[vals < 16 * np.finfo(float).eps * max(vals.max(), 0.0)] = 0.0
    val = float(np.sqrt(vals).sum()) ** 2
    return min(max(val, 0.0), 1.0 + 1e-9)
