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
import sys
from collections.abc import Callable, Sequence
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from operator import attrgetter
from reprlib import recursive_repr
from types import FunctionType

import numpy as np

SUPPORTED_DIMS = (2, 4)


# the default __init__ shows for a default_factory field, as the stdlib shows it
_FACTORY = type("_Factory", (), {"__repr__": lambda self: "<factory>"})()
_setattr = object.__setattr__
_VALUE_METHODS = ("_init_fields", "__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
                  "__delattr__", "__setstate__")


def _set_frozen(self, state) -> None:
    """Set a frozen value's attributes, arrays read-only in place, also those
    inside a tuple: those a constructor derives, and as ``__setstate__``
    those pickle and copy restore (numpy restores arrays writeable) from a
    ``__dict__`` or ``(None, slots)``."""
    for name, value in (state[1] if isinstance(state, tuple) else state).items():
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        _setattr(self, name, value)


def _freeze_fields(self) -> None:
    """The ``__post_init__`` of a frozen value whose fields hold arrays: they
    are read-only as built, as after pickle or copy."""
    _set_frozen(self, {f.name: getattr(self, f.name) for f in fields(self)})


def _init_template(self):
    # the code of every frozen_dataclass __init__: its class's field setter,
    # a method, sets the fields from the bound arguments
    return self._init_fields(locals())


def frozen_dataclass(cls: type) -> type:
    """``@dataclass(frozen=True)`` without generated code.

    ``dataclass(init=False, repr=False, eq=False)`` records the fields and
    compiles nothing.  The six methods a frozen dataclass would compile from
    source are built without source instead, with the same signature,
    argument errors, repr, equality, hash and ``FrozenInstanceError``.
    ``__init__`` is ``_init_template``'s code re-signed by ``CodeType.replace``
    to take ``self`` and the fields, with their defaults as ``__defaults__``
    (``<factory>`` for a default factory), so CPython binds each call and
    words each argument error itself.  Re-signing leaves the bytecode valid
    because the template's body reads only ``self`` (local slot 0) and
    globals.  Its globals are the class's module namespace, as a generated
    ``__init__``'s are, so ``typing.get_type_hints`` resolves its string
    annotations.  It hands ``locals()`` to the class's field setter, the
    method ``_init_fields``, which sets the fields in field order with
    ``object.__setattr__``, as the generated ``__init__`` does (on CPython
    3.11, an instance whose ``__dict__`` was read reads every attribute
    about twice as slow), calls each default factory and then
    ``__post_init__``.  Pickle and copy restore an instance through
    ``_set_frozen``, arrays read-only.  Field options, dataclass bases and
    own methods of the names it sets, none of which the package uses, raise
    TypeError.
    """
    if any(name in cls.__dict__ for name in _VALUE_METHODS) or any(
            is_dataclass(base) for base in cls.__mro__[1:]):
        raise TypeError(f"{cls.__name__}: a frozen_dataclass defines none of "
                        f"{', '.join(_VALUE_METHODS)} and has no dataclass base")
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    flds = fields(cls)
    if len(flds) != len(cls.__dataclass_fields__) or not all(
            f.init and f.repr and f.compare and f.hash is None and not f.kw_only
            for f in flds):
        raise TypeError(f"{cls.__name__}: a frozen_dataclass field takes only "
                        f"default or default_factory, and no pseudo-fields")
    names = tuple(f.name for f in flds)
    has_default = [f.default is not MISSING or f.default_factory is not MISSING for f in flds]
    required = has_default.index(True) if any(has_default) else len(names)
    if not all(has_default[required:]):
        raise TypeError(f"non-default argument {names[has_default.index(False, required)]!r} "
                        f"follows default argument")
    factories = [(f.name, f.default_factory) for f in flds if f.default_factory is not MISSING]
    has_post_init = hasattr(cls, "__post_init__")
    values = attrgetter(*names) if len(names) > 1 else (
        lambda obj: tuple(getattr(obj, name) for name in names))

    def _init_fields(self, bound):
        for name in names:
            _setattr(self, name, bound[name])
        for name, factory in factories:
            if bound[name] is _FACTORY:
                _setattr(self, name, factory())
        if has_post_init:
            self.__post_init__()

    __init__ = FunctionType(
        _init_template.__code__.replace(co_argcount=len(names) + 1, co_nlocals=len(names) + 1,
                                        co_varnames=("self", *names), co_name="__init__"),
        getattr(sys.modules.get(cls.__module__), "__dict__", {}), None,
        tuple(_FACTORY if f.default is MISSING else f.default for f in flds[required:]) or None)
    __init__.__annotations__ = {**{f.name: f.type for f in flds}, "return": None}

    @recursive_repr()
    def __repr__(self):
        fields_text = ", ".join([f"{name}={value!r}" for name, value in zip(names, values(self))])
        return f"{self.__class__.__qualname__}({fields_text})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (_init_fields, __init__, __repr__, __eq__, __hash__, __setattr__,
                   __delattr__):
        method.__module__ = cls.__module__
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setstate__ = _set_frozen
    params = cls.__dataclass_params__
    params.init = params.repr = params.eq = params.frozen = True
    return cls


class DimensionMismatchError(ValueError):
    """Operands live on different or unsupported Hilbert spaces."""


class NumericalCorruptionError(ArithmeticError):
    """A quantity that must be real/non-negative came out otherwise."""


class DataQualityWarning(UserWarning):
    """Measured data forced a clamp or floor; carries the raw value."""


# A per-index check of the array kernels: ``bad`` flags the offending indices
# of a length-N batch and ``fire(i)`` raises (or warns) for index ``i`` with
# the exception a single-item call would give.  A kernel queues its checks
# on a list its caller passes; only callers run a queue, with run_checks, or
# through run_kernel.
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


def run_kernel(kernel: Callable, *args, **kwargs):
    """``kernel(*args, checks, **kwargs)`` on a new queue, whose checks are
    then run: how a view runs the one kernel it wraps."""
    checks: list[Check] = []
    value = kernel(*args, checks=checks, **kwargs)
    run_checks(checks)
    return value


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=1)`` of ``rows[N, k]`` for ``k < 8``, bit for bit.

    numpy adds fewer than 8 entries of a row left to right,
    ``((r0 + r1) + r2) + ...``.  It adds the rows of the C-ordered
    transpose in that same order, one whole ``[N]`` column at a time,
    where ``rows.sum(axis=1)`` runs its inner loop once per row.  From 8
    entries on, numpy adds a row pairwise instead, so there this would
    move bits.
    """
    return np.add.reduce(np.ascontiguousarray(rows.T))


# The exact-arithmetic gates: how far an operator or state may sit from
# Hermitian, and matrices, traces or real expectations from their targets.
_HERMITICITY_TOL = 1e-12
_EQUALITY_TOL = 1e-10
# The data-quality gates no profile varies: the negative eigenvalue below
# which a density matrix is flagged, and a simulated table's mass slack.
PSD_TOL = 1e-10
SIMULATED_NORM = 1e-10


@frozen_dataclass
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


class _FrozenSlots:
    """Slots set once, by ``__init__`` and by pickle and copy, through
    ``_set_frozen``, arrays read-only: assigning or deleting an attribute
    raises ``FrozenInstanceError``, as on a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    __setstate__ = _set_frozen


class HermitianOperator(_FrozenSlots):
    """An observable: square, Hermitian within tolerance, dim 2 or 4."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        mat = as_complex_matrix(matrix)
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > _HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        _set_frozen(self, {"_matrix": mat})

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


class DensityMatrix(_FrozenSlots):
    """A quantum state: Hermitian, unit trace, eigenvalues above a floor.

    ``psd_floor`` is the magnitude of negative eigenvalue accepted, finite
    and non-negative.  States reconstructed from tomography may carry small
    negative eigenvalues; those are accepted up to the relaxed floor,
    flagged via ``psd_warning`` below ``-PSD_TOL`` and kept in
    ``min_eigenvalue``.  The matrix is never altered.
    """

    __slots__ = ("_matrix", "min_eigenvalue", "psd_floor", "psd_warning")

    def __init__(self, matrix, *, psd_floor: float = PSD_TOL):
        if not (math.isfinite(psd_floor) and psd_floor >= 0.0):
            raise ValueError(f"psd_floor must be finite and non-negative, got {psd_floor}")
        mat = as_complex_matrix(matrix)
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > _HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (max deviation {dev:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _EQUALITY_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} differs from 1")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -psd_floor:
            raise ValueError(f"density matrix has eigenvalue {min_eig:.3e} below "
                             f"floor -{psd_floor:g}")
        _set_frozen(self, {"_matrix": mat, "min_eigenvalue": min_eig, "psd_floor": psd_floor,
                           "psd_warning": min_eig < -PSD_TOL})

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def from_pure(cls, statevector) -> "DensityMatrix":
        vec = np.asarray(statevector, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(vec)):
            raise ValueError("state vector contains non-finite entries")
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


@frozen_dataclass
class BlochObservable:
    """A +-1-valued qubit observable from Bloch angles (radians).

    ``W = sin(theta) cos(phi) X + sin(theta) sin(phi) Y + cos(theta) Z``.
    ``vector`` is the unit Bloch vector ``(sin t cos p, sin t sin p, cos t)``,
    computed once by :func:`bloch_vectors` when the observable is built (it
    runs the angle check there); being unit, it makes W square to 1.
    """

    theta: float
    phi: float

    def __post_init__(self):
        _set_frozen(self, {"vector": run_kernel(bloch_vectors, self.theta, self.phi)[0]})

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


def bloch_vectors(theta, phi, checks: list[Check]) -> np.ndarray:
    """Unit Bloch vectors, shape (N, 3), for radian angles broadcast to N.  A
    non-finite angle queues a ``ValueError`` on ``checks`` naming it, theta
    before phi, and gets the vector of angle 0, whose sine does not warn."""
    theta, phi = np.broadcast_arrays(np.atleast_1d(np.asarray(theta, dtype=float)),
                                     np.atleast_1d(np.asarray(phi, dtype=float)))
    finite = np.isfinite(theta) & np.isfinite(phi)
    if not finite.all():
        bad_theta = ~np.isfinite(theta)
        name, value = np.where(bad_theta, "theta", "phi"), np.where(bad_theta, theta, phi)
        checks.append((~finite, failing(
            ValueError, lambda i: f"analyser angle {name[i]} must be finite, got {value[i]}")))
        theta, phi = np.where(finite, theta, 0.0), np.where(finite, phi, 0.0)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def state_stack(rho) -> np.ndarray:
    """A two-qubit state (a DensityMatrix, or a matrix) as the ``[1, 4, 4]``
    stack the array kernels read: the one gate that a state is two-qubit."""
    mat = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    if mat.shape != (4, 4):
        raise DimensionMismatchError(f"expected a two-qubit state, got shape {mat.shape}")
    return mat[None]


def correlations(rho: np.ndarray) -> np.ndarray:
    """Correlation tensors ``T[N, j, k] = Tr(rho s_j (x) s_k)`` of two-qubit
    states ``rho[N, 4, 4]``, ``s = (1, X, Y, Z)``; real because each state
    is Hermitian."""
    flat = rho.swapaxes(-1, -2).reshape(-1, 16)
    return (flat @ _SIGMA_PAIRS).real.reshape(rho.shape)


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


def spreads(op: HermitianOperator, mats: np.ndarray, checks: list[Check]) -> np.ndarray:
    """Standard deviations ``sqrt(<G^2> - <G>^2)`` ``[N]`` of one observable
    in N states ``mats[N, d, d]``.  The mean must be real and the variance
    not below -1e-12; those checks are queued on ``checks``."""
    if op.dim != mats.shape[-1]:
        raise DimensionMismatchError(f"operator dim {op.dim} vs state dim {mats.shape[-1]}")
    mats_g = mats @ op.matrix
    val = np.trace(mats_g, axis1=-2, axis2=-1)
    second = np.trace(mats_g @ op.matrix, axis1=-2, axis2=-1).real
    return _spreads_of_moments(val.real, val.imag, second, checks)


def _spreads_of_moments(mean: np.ndarray, mean_imag: np.ndarray, second: np.ndarray,
                        checks: list[Check]) -> np.ndarray:
    """Standard deviations ``sqrt(second - mean^2)`` ``[N]`` from the real
    and imaginary parts of the first moments and the second moments, with
    the imaginary-part and variance checks of :func:`spreads`."""
    var = second - mean * mean
    checks.extend([
        (np.abs(mean_imag) > _EQUALITY_TOL, failing(
            NumericalCorruptionError,
            lambda i: f"expectation has imaginary part {mean_imag[i]:.3e}")),
        (var < -1e-12, failing(
            NumericalCorruptionError, lambda i: f"variance {var[i]:.3e} below -1e-12")),
    ])
    return np.sqrt(np.maximum(var, 0.0))


def xy_statistics(mats: np.ndarray, checks: list[Check]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Delta X, Delta Y, c)`` ``[N]`` in N two-qubit states ``mats[N, 4, 4]``:
    the spreads of ``X (x) 1`` and ``Y (x) 1`` and ``c = |<[X (x) 1, Y (x) 1]>|``,
    with the checks of :func:`spreads` for X, then Y.

    The products :func:`spreads` and :func:`commutator_bounds` form with
    these operators only move entries of rho and scale them by 1, +-i or
    +-2i, and ``np.trace`` adds a 4x4 diagonal in pairs, so their traces are
    these pairwise sums of entries, bit for bit: ``<X (x) 1> = (r02 + r13)
    + (r20 + r31)``, ``<Y (x) 1> = (i r02 + i r13) + (-i r20 - i r31)``,
    both second moments are ``(r00 + r11) + (r22 + r33)`` and
    ``<[X, Y] (x) 1> = (2i r00 + 2i r11) + (-2i r22 - 2i r33)``.
    """
    flat = mats.reshape(-1, 16)  # entry (row, col) at 4 row + col
    off_top, off_bottom = flat[:, 2] + flat[:, 7], flat[:, 8] + flat[:, 13]
    diag_top, diag_bottom = flat[:, 0] + flat[:, 5], flat[:, 10] + flat[:, 15]
    second = (diag_top + diag_bottom).real
    x_mean = off_top + off_bottom
    y_mean_over_i = off_top - off_bottom
    return (_spreads_of_moments(x_mean.real, x_mean.imag, second, checks),
            _spreads_of_moments(-y_mean_over_i.imag, y_mean_over_i.real, second, checks),
            np.abs(2.0 * (diag_top - diag_bottom)))


def spread(op: HermitianOperator, rho: DensityMatrix) -> float:
    """Standard deviation ``sqrt(<G^2> - <G>^2)`` of an observable
    (:func:`spreads` for one state, running its checks)."""
    return float(run_kernel(spreads, op, rho.matrix[None])[0])


def commutator_bounds(a: HermitianOperator, b: HermitianOperator,
                      mats: np.ndarray) -> np.ndarray:
    """``c = |<[A, B]>|`` ``[N]`` in N states ``mats[N, d, d]``."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return np.abs(np.trace(mats @ comm, axis1=-2, axis2=-1))


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
