"""Experiment construction: entangled source, glass-slide measurement, statistics.

The modelled experiment prepares two polarisation qubits in the entangled
state ``|psi(gamma)> = cos(gamma)|HV> - sin(gamma)|VH>`` and performs, per
run:

1. a *semiweak* measurement of X on qubit 1, realised by a glass slide that
   reflects the two X eigenstates with probabilities ``r_h`` and ``r_v``
   (outcome ``m``),
2. a projective measurement of Y on qubit 1 after the slide (outcome ``y``),
3. a projective measurement of a Bloch observable W on qubit 2 (outcome
   ``w``), whose result is used to *estimate* X of qubit 1.

Outcome labelling: every outcome is +-1.  For the slide, ``m = +1`` is the
TRANSMITTED branch and ``m = -1`` the REFLECTED one; transmission is the
high-probability branch for the reflectivities of interest, which is also how
published count tables for this experiment are oriented.

The slide admits *contextual values* ``xi_m``: state-independent weights with
``sum_m xi_m p(m) = <X>`` for every input state.  They exist whenever
``r_h != r_v`` and blow up as the two reflectivities approach each other
(the weak-measurement limit).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import field

import numpy as np

from .qcore import (
    DEFAULT_TOLERANCES,
    SIGMAS,
    SIMULATED_NORM,
    BlochObservable,
    Check,
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    ToleranceProfile,
    _freeze_fields,
    _set_frozen,
    correlations,
    failing,
    frozen_dataclass,
    run_kernel,
    state_stack,
)

TRANSMITTED = +1
REFLECTED = -1

OUTCOMES = (+1, -1)
# Array kernels index every +-1 outcome axis in OUTCOMES order: SIGNS holds
# the outcome values, TRIPLES the (m, y, w) keys of a flattened p[m, y, w].
SIGNS = np.array(OUTCOMES, dtype=float)
TRIPLES = tuple(itertools.product(OUTCOMES, repeat=3))
_TRIPLE_INDEX = {key: i for i, key in enumerate(TRIPLES)}


class DegenerateMeasurementError(ValueError):
    """The slide carries no X information (r_h == r_v); xi undefined."""


# X eigenprojectors X+ and X-, the two terms of a Kraus operator
_X_PLUS = (SIGMAS[0] + SIGMAS[1]) / 2
_X_MINUS = (SIGMAS[0] - SIGMAS[1]) / 2


@frozen_dataclass
class SlideArrays:
    """N slides in the layout the array kernels read.

    ``probes[N, m, y, 3]`` holds the Pauli coefficients ``(c_0, c_1, c_2)``
    of each probe ``M_m Y_y M_m = c_0 s_0 + c_1 s_1 + c_2 s_2`` and
    ``xi[N, m]`` the contextual values, both in OUTCOMES order (transmitted
    first); ``xi`` is None when a slide is polarisation independent
    (``r_h == r_v``) and so has none.
    """

    probes: np.ndarray
    kappa: np.ndarray
    xi: np.ndarray | None

    __post_init__ = _freeze_fields


def _amplitudes(r_h, r_v) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes ``a[m]``, ``b[m]`` of ``M_m = a X+ + b X-``, in OUTCOMES order."""
    return np.sqrt([1 - r_h, r_h]), np.sqrt([1 - r_v, r_v])


def slide_arrays(r_h: np.ndarray, r_v: np.ndarray) -> SlideArrays:
    """N slides from reflectivities ``r_h[N]``, ``r_v[N]`` in [0, 1]: the one
    place their arrays are computed, each by its closed form.

    From the Kraus amplitudes ``(a, b)`` (:func:`_amplitudes`, ``t = 1 - r``)
    the probes are ``M_m Y_y M_m = ((a^2 + b^2) s_0 + (a^2 - b^2) s_1 +
    2 y a b s_2)/4``, the decoherence strength is
    ``kappa = 1 - sqrt(r_h r_v) - sqrt(t_h t_v)`` and the contextual values
    are ``xi_r = (2 - r_h - r_v)/(r_h - r_v)`` and
    ``xi_t = -(r_h + r_v)/(r_h - r_v)`` (Dressel & Jordan, PRA 85, 022123
    (2012)).  Their identities are checked in the test suite.  kappa is
    evaluated as the equal sum of squares
    ``((sqrt(r_h) - sqrt(r_v))^2 + (sqrt(t_h) - sqrt(t_v))^2)/2``, which
    keeps its relative precision as ``r_h`` approaches ``r_v``.
    """
    a, b = _amplitudes(r_h, r_v)
    aa, bb, ab = a * a, b * b, a * b / 2
    # filled as [k, y, m, N] columns, read as [N, m, y, k]
    probes = np.empty((3, 2, *a.shape))
    probes[0], probes[1] = (aa + bb) / 4, (aa - bb) / 4
    probes[2, 0], probes[2, 1] = ab, -ab
    xi = None if np.any(r_h == r_v) else (
        np.array([-(r_h + r_v), 2.0 - r_h - r_v]) / (r_h - r_v)).T
    return SlideArrays(probes.T, ((a[1] - b[1]) ** 2 + (a[0] - b[0]) ** 2) / 2, xi)


def _outcome_index(m: int) -> int:
    if m not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {m}")
    return OUTCOMES.index(m)


@frozen_dataclass
class SemiweakSlide:
    """A two-outcome semiweak X measurement on one qubit, fixed by its two
    reflectivities.

    The Hermitian PSD Kraus operators ``kraus(m)`` are built from the
    reflectivities on demand.  Everything else is read from the N = 1
    :class:`SlideArrays` in ``arrays``: the decoherence strength ``kappa``
    and the contextual values ``xi(m)``, which a polarisation-independent
    slide (``r_h == r_v``) lacks: it has no X information to invert.
    """

    r_h: float
    r_v: float

    def __post_init__(self):
        if not (0.0 <= self.r_h <= 1.0 and 0.0 <= self.r_v <= 1.0):
            raise ValueError("reflectivities must lie in [0, 1]")
        _set_frozen(self, {"arrays": slide_arrays(
            np.array([self.r_h], dtype=float), np.array([self.r_v], dtype=float))})

    @property
    def kappa(self) -> float:
        return float(self.arrays.kappa[0])

    @property
    def has_contextual_values(self) -> bool:
        return self.arrays.xi is not None

    def xi(self, m: int) -> float:
        """Contextual value for outcome ``m`` (+1 transmitted, -1 reflected)."""
        if self.arrays.xi is None:
            raise DegenerateMeasurementError(
                "slide has r_h == r_v; contextual values are undefined")
        return float(self.arrays.xi[0, _outcome_index(m)])

    def kraus(self, m: int) -> HermitianOperator:
        a, b = _amplitudes(self.r_h, self.r_v)
        k = _outcome_index(m)
        return HermitianOperator(a[k] * _X_PLUS + b[k] * _X_MINUS)

    @classmethod
    def polarisation_independent(cls, r: float) -> "SemiweakSlide":
        """A slide with equal reflectivities: kappa = 0, no X information."""
        return cls(r_h=r, r_v=r)


# The smallest |r_h - r_v| slide_model accepts.  The contextual values grow
# as 2/|r_h - r_v| and amplify the rounding of the joint table into the
# reconstructed eps(X) by about 1e-16/|r_h - r_v|: on reflectivities across
# [0, 1] that is up to 1.6e-10 at this gap.
MIN_REFLECTIVITY_GAP = 1e-6


def slide_model(r_h: float, r_v: float) -> SemiweakSlide:
    """Build the slide from its two reflectivities (see :func:`slide_arrays`
    for the closed forms of its Kraus operators, kappa and contextual
    values).

    Raises ``DegenerateMeasurementError`` when ``r_h == r_v`` within 1e-12
    -- such a slide reveals nothing about X and the inversion does not
    exist (use :meth:`SemiweakSlide.polarisation_independent` to model it)
    -- and when ``|r_h - r_v|`` is below ``MIN_REFLECTIVITY_GAP`` (1e-6),
    where the contextual values are so large that rounding, not the data,
    decides the reconstructed X statistics.
    """
    slide = SemiweakSlide(r_h=r_h, r_v=r_v)
    gap = abs(r_h - r_v)
    if gap < 1e-12:
        raise DegenerateMeasurementError(
            f"r_h = r_v = {r_h:g}: contextual values are unbounded")
    if gap < MIN_REFLECTIVITY_GAP:
        raise reflectivity_gap_error(gap)
    return slide


def reflectivity_gap_error(gap: float) -> DegenerateMeasurementError:
    """The error for a slide whose ``|r_h - r_v| = gap`` is below
    ``MIN_REFLECTIVITY_GAP``."""
    return DegenerateMeasurementError(
        f"|r_h - r_v| = {gap:.3g} is below {MIN_REFLECTIVITY_GAP:g}: contextual "
        f"values of order {2 / gap:.1e} would amplify rounding into the "
        f"reconstructed X statistics")


def epr_state(gamma: float) -> DensityMatrix:
    """The entangled source ``cos(gamma)|HV> - sin(gamma)|VH>``.

    ``gamma = pi/4`` gives the singlet-weight balance (maximal entanglement,
    ``<Z (x) I> = 0``); ``gamma = 0`` the product state ``|HV>``.  A
    non-finite ``gamma`` raises ``ValueError``.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"source angle gamma must be finite, got {gamma}")
    vec = np.zeros(4, dtype=complex)
    vec[1] = math.cos(gamma)
    vec[2] = -math.sin(gamma)
    return DensityMatrix.from_pure(vec)


@frozen_dataclass
class JointDistribution:
    """Joint probabilities ``p(m, y, w)`` over the eight +-1 outcome triples.

    ``provenance`` is ``"simulated"`` (mass 1 within 1e-10) or ``"measured"``
    (mass within the measured tolerance, entries kept verbatim).  ``sigmas``
    optionally carries one-standard-deviation uncertainties per entry; they
    are stored and re-emitted but never propagated.  ``table`` holds the
    entries as a read-only array ``p[m, y, w]`` in OUTCOMES order.
    """

    entries: dict[tuple[int, int, int], float]
    provenance: str = "simulated"
    metadata: dict = field(default_factory=dict)
    sigmas: dict[tuple[int, int, int], float] | None = None
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES

    def __post_init__(self):
        if self.provenance not in ("simulated", "measured"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if set(self.entries) != set(TRIPLES):
            raise ValueError("distribution must cover exactly the 8 outcome triples")
        table = np.array([self.entries[key] for key in TRIPLES], dtype=float).reshape(2, 2, 2)
        flat = table.ravel()
        finite = np.isfinite(flat)
        if not finite.all():
            raise ValueError(f"non-finite probability {flat[~finite][0]} in distribution")
        low = flat.min()
        if low < -1e-9:
            raise ValueError(f"negative probability {low:.3e} in distribution")
        total = flat.sum()
        if abs(total - 1.0) > self.mass_tolerance:
            raise ValueError(f"probabilities sum to {total:.4f}, outside 1 +- "
                             f"{self.mass_tolerance:g} for {self.provenance} data")
        for key, sigma in (self.sigmas or {}).items():
            if key not in TRIPLES:
                raise ValueError(f"sigma given for unknown outcome triple {key}")
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise ValueError(f"sigma must be finite and non-negative, got {sigma!r} "
                                 f"for outcome triple {key}")
        _set_frozen(self, {"table": table})

    @property
    def mass_tolerance(self) -> float:
        """How far the total mass may sit from 1 for this provenance."""
        return (SIMULATED_NORM if self.provenance == "simulated"
                else self.tolerances.measured_norm)

    def prob(self, m: int, y: int, w: int) -> float:
        return float(self.table.flat[_TRIPLE_INDEX[(m, y, w)]])

    def total(self) -> float:
        return float(self.table.sum())

    def marginal(self, axis: str) -> dict[int, float]:
        """Marginal over one outcome label, ``axis`` in {"m", "y", "w"}."""
        idx = {"m": 0, "y": 1, "w": 2}[axis]
        sums = self.table.sum(axis=tuple(a for a in range(3) if a != idx))
        return dict(zip(OUTCOMES, sums.tolist()))


def negative_entry_checks(flat: np.ndarray) -> list[Check]:
    """The check that no entry of tables ``flat[N, 8]`` is below -1e-9."""
    # the minimum down the C-ordered transpose runs along whole [N] columns,
    # where flat.min(axis=1) runs numpy's inner loop once per 8-entry row
    low = np.minimum.reduce(np.ascontiguousarray(flat.T))
    return [(low < -1e-9, failing(
        ValueError, lambda i: f"negative probability {low[i]:.3e} in distribution"))]


def joint_tables(t: np.ndarray, slides: SlideArrays, n: np.ndarray,
                 checks: list[Check]) -> np.ndarray:
    """Joint tables ``p[N, m, y, w]`` for N analyser directions ``n[N, 3]``.

    ``p(m, y, w) = Tr(rho (M_m Y_y M_m (x) W_w))`` with
    ``W_w = (s_0 + w n.s)/2``, so every table is linear in
    ``A[m, y, k] = Tr(rho (M_m Y_y M_m (x) s_k))``.  The slide's probe
    coefficients give ``A[m, y] = c_0 T[0] + c_1 T[1] + c_2 T[2]`` over
    rows of the states' correlation tensors ``t[1, 4, 4]``
    (:func:`qcore.correlations`), shared with ``slides`` (N = 1) by all N
    directions, or N of each, one per direction, and
    ``n.A[m, y, 1:] = n_0 A_1 + n_1 A_2 + n_2 A_3``: elementwise sums in
    that order, whose bits depend on neither N nor the BLAS kernel.  Each
    table is normalised exactly by its mass ``Tr rho``, so, from inputs
    checked finite, only its negative-entry check can fail; it is queued
    on ``checks``.
    """
    # A broadcast to [N, m, y, k], then laid out as [k, (m, y), N] columns
    c = slides.probes[..., None]
    a = (c[..., 0, :] * t[:, None, None, 0] + c[..., 1, :] * t[:, None, None, 1]
         + c[..., 2, :] * t[:, None, None, 2]).reshape(-1, 4, 4).T
    # p(m, y, w) = (A[m, y, 0] + w n.A[m, y, 1:]) / 2, written as two [N, 4]
    # blocks of columns, w = +1 then w = -1
    n_0, n_1, n_2 = n.T
    along = (n_0 * a[1] + n_1 * a[2] + n_2 * a[3]).T
    p = np.empty((len(n), 8))
    np.add(a[0].T, along, out=p[:, 0::2])
    np.subtract(a[0].T, along, out=p[:, 1::2])
    p /= 2
    p /= p.sum(axis=1, keepdims=True)
    checks.extend(negative_entry_checks(p))
    return p.reshape(-1, 2, 2, 2)


def joint_distribution(rho: DensityMatrix, slide: SemiweakSlide,
                       w: BlochObservable) -> JointDistribution:
    """Simulate ``p(m, y, w) = <M_m Y_y M_m (x) W_w>`` and normalise exactly.

    The slide acts on qubit 1, then Y is measured on the disturbed qubit 1
    while W is measured on qubit 2.  This is :func:`joint_tables` for one
    direction, running its check.
    """
    p = run_kernel(joint_tables, correlations(state_stack(rho)), slide.arrays, w.vector[None])[0]
    meta = {"theta_deg": w.theta_deg, "phi_deg": w.phi_deg,
            "r_h": slide.r_h, "r_v": slide.r_v}
    return JointDistribution(entries=dict(zip(TRIPLES, p.ravel().tolist())),
                             provenance="simulated", metadata=meta)


def povm_elements(slides: SlideArrays) -> np.ndarray:
    """POVMs ``Upsilon[N, y]`` of the Y measurement behind N slides, by their
    closed form ``(1 +- (1 - kappa) Y)/2``; that it equals the Kraus sum
    ``sum_m M_m Y_y M_m`` is checked in the test suite."""
    contrast = (1 - slides.kappa)[:, None, None, None]
    return 0.5 * (SIGMAS[0] + contrast * SIGNS[:, None, None] * SIGMAS[2])


def disturbed_observable(slide: SemiweakSlide, b: HermitianOperator) -> HermitianOperator:
    """Heisenberg picture of the slide channel: ``B' = M_r B M_r + M_t B M_t``.

    For B = Y this contracts to ``(1 - kappa) Y``; X and Z components are
    preserved or mixed according to the slide's Kraus operators.
    """
    if b.dim != 2:
        raise DimensionMismatchError("disturbed_observable acts on single-qubit operators")
    acc = np.zeros((2, 2), dtype=complex)
    for m in OUTCOMES:
        km = slide.kraus(m).matrix
        acc += km @ b.matrix @ km
    return HermitianOperator(acc)
