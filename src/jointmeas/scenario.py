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
    correlations,
    failing,
    frozen_dataclass,
    submit_checks,
)

TRANSMITTED = +1
REFLECTED = -1

OUTCOMES = (+1, -1)
# Array kernels index every +-1 outcome axis in OUTCOMES order: SIGNS holds
# the outcome values, TRIPLES the (m, y, w) keys of a flattened p[m, y, w].
SIGNS = np.array(OUTCOMES, dtype=float)
TRIPLES = tuple(itertools.product(OUTCOMES, repeat=3))


class DegenerateMeasurementError(ValueError):
    """The slide carries no X information (r_h == r_v); xi undefined."""


# X eigenprojectors X+ and X-, and the Y projectors Y_y in OUTCOMES order
_X_PLUS = (SIGMAS[0] + SIGMAS[1]) / 2
_X_MINUS = (SIGMAS[0] - SIGMAS[1]) / 2
Y_PROJECTORS = (SIGMAS[0] + SIGNS[:, None, None] * SIGMAS[2]) / 2
# [Y_+ | Y_-] side by side, and Tr(op s_j) = sum_ab op[a, b] s_j[b, a] as
# the product of a flattened op with row ab, column j
_Y_ROW = np.concatenate(tuple(Y_PROJECTORS), axis=1)
_PAULI_TRACES = SIGMAS.swapaxes(1, 2).reshape(4, 4).T.copy()


@frozen_dataclass
class SlideArrays:
    """N slides in the layout the array kernels read.

    ``kraus[N, m]`` and ``xi[N, m]`` hold the Kraus operators and the
    contextual values in OUTCOMES order (transmitted first); ``xi`` is None
    when a slide is polarisation independent (``r_h == r_v``) and so has
    none.
    """

    kraus: np.ndarray
    kappa: np.ndarray
    xi: np.ndarray | None


def slide_arrays(r_h: np.ndarray, r_v: np.ndarray) -> SlideArrays:
    """N slides from reflectivities ``r_h[N]``, ``r_v[N]`` in [0, 1]: the one
    place their quantities are computed, each by its closed form.

    The Kraus operators are the PSD square roots
    ``m_r = sqrt(r_h) X+ + sqrt(r_v) X-`` and
    ``m_t = sqrt(t_h) X+ + sqrt(t_v) X-`` (``t = 1 - r``), the decoherence
    strength is ``kappa = 1 - sqrt(r_h r_v) - sqrt(t_h t_v)`` and the
    contextual values are ``xi_r = (2 - r_h - r_v)/(r_h - r_v)`` and
    ``xi_t = -(r_h + r_v)/(r_h - r_v)`` (Dressel & Jordan, PRA 85, 022123
    (2012)).  Their identities are checked in the test suite.  kappa is
    evaluated as the equal sum of squares
    ``((sqrt(r_h) - sqrt(r_v))^2 + (sqrt(t_h) - sqrt(t_v))^2)/2``, which
    keeps its relative precision as ``r_h`` approaches ``r_v``.
    """
    root_h, root_v = np.sqrt(r_h), np.sqrt(r_v)
    root_th, root_tv = np.sqrt(1 - r_h), np.sqrt(1 - r_v)

    def kraus(a, b):
        return a[:, None, None] * _X_PLUS + b[:, None, None] * _X_MINUS

    return SlideArrays(
        kraus=np.stack([kraus(root_th, root_tv), kraus(root_h, root_v)], axis=1),
        kappa=((root_h - root_v) ** 2 + (root_th - root_tv) ** 2) / 2,
        xi=None if np.any(r_h == r_v) else np.stack(
            [-(r_h + r_v) / (r_h - r_v), (2.0 - r_h - r_v) / (r_h - r_v)], axis=1))


def _outcome_index(m: int) -> int:
    if m not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {m}")
    return OUTCOMES.index(m)


@frozen_dataclass
class SemiweakSlide:
    """A two-outcome semiweak X measurement on one qubit, fixed by its two
    reflectivities.

    Everything else is read from the N = 1 :class:`SlideArrays` in
    ``arrays``: the Hermitian PSD Kraus operators ``kraus(m)``, the
    decoherence strength ``kappa = 1 - sqrt(r_h r_v) - sqrt(t_h t_v)`` and
    the contextual values ``xi(m)``, which a polarisation-independent slide
    (``r_h == r_v``) lacks: it has no X information to invert.
    """

    r_h: float
    r_v: float

    def __post_init__(self):
        if not (0.0 <= self.r_h <= 1.0 and 0.0 <= self.r_v <= 1.0):
            raise ValueError("reflectivities must lie in [0, 1]")
        object.__setattr__(self, "arrays", slide_arrays(
            np.array([self.r_h], dtype=float), np.array([self.r_v], dtype=float)))

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
        return HermitianOperator(self.arrays.kraus[0, _outcome_index(m)])

    @classmethod
    def polarisation_independent(cls, r: float) -> "SemiweakSlide":
        """A slide with equal reflectivities: kappa = 0, no X information."""
        return cls(r_h=r, r_v=r)


# The smallest |r_h - r_v| slide_model accepts.  The contextual values grow
# as 2/|r_h - r_v| and amplify the rounding of the joint table into the
# reconstructed eps(X) by about 1e-16/|r_h - r_v|: on reflectivities across
# [0, 1] that is up to 1.6e-10 at this gap, and below 5e-7 the
# reconstructed quasi-table's mass starts to miss its 1e-10 gate.
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
    ``<Z (x) I> = 0``); ``gamma = 0`` the product state ``|HV>``.
    """
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
        table.setflags(write=False)
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
        object.__setattr__(self, "table", table)

    @property
    def mass_tolerance(self) -> float:
        """How far the total mass may sit from 1 for this provenance."""
        return (SIMULATED_NORM if self.provenance == "simulated"
                else self.tolerances.measured_norm)

    def prob(self, m: int, y: int, w: int) -> float:
        return self.entries[(m, y, w)]

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


def joint_tables(rho, slide, n: np.ndarray,
                 checks: list[Check] | None = None) -> np.ndarray:
    """Joint tables ``p[N, m, y, w]`` for N analyser directions ``n[N, 3]``.

    ``p(m, y, w) = Tr(rho (M_m Y_y M_m (x) W_w))`` with
    ``W_w = (s_0 + w n.s)/2``, so every table is linear in
    ``A[m, y, k] = Tr(rho (M_m Y_y M_m (x) s_k))``, built from the slide's
    Kraus operators.  ``rho`` and ``slide`` are one DensityMatrix and one
    SemiweakSlide shared by all N directions, or N states ``[N, 4, 4]`` and
    N slides (:class:`SlideArrays`), one per direction.  Each table is
    normalised exactly by its mass ``Tr rho``, so, from inputs checked
    finite, only its negative-entry check can fail; the checks go to
    ``checks`` when given, else they run here.
    """
    kraus = as_slide_arrays(slide).kraus
    # M_m Y_y for every y as one GEMM against the shared [Y_+ | Y_-], then
    # the probes M_m Y_y M_m as one product per slide and outcome pair
    kraus_y = (kraus.reshape(-1, 2) @ _Y_ROW).reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
    probes = kraus_y @ kraus[:, :, None]
    # Pauli components Tr(probe s_j)/2 of each probe, then A = c T
    coef = (probes.reshape(-1, 4) @ _PAULI_TRACES).real.reshape(*probes.shape[:-2], 4) / 2
    a = coef @ correlations(rho)[..., None, :, :]
    # p(m, y, w) = (A[m, y, 0] + w n.A[m, y, 1:]) / 2, with (m, y) flattened;
    # the directions are grouped by their A: all N under one shared A, or
    # one under each of N
    a_n = a[..., 1:].reshape(-1, 4, 3)
    along = (n.reshape(len(a_n), -1, 3) @ a_n.swapaxes(-1, -2)).reshape(-1, 4)
    # the w = +1 and w = -1 entries, written as two [N, 4] blocks of columns
    a_0 = a[..., 0].reshape(-1, 4)
    p = np.empty((len(along), 8))
    np.add(a_0, along, out=p[:, 0::2])
    np.subtract(a_0, along, out=p[:, 1::2])
    p /= 2
    p /= p.sum(axis=1, keepdims=True)
    submit_checks(checks, negative_entry_checks(p))
    return p.reshape(-1, 2, 2, 2)


def joint_distribution(rho: DensityMatrix, slide: SemiweakSlide,
                       w: BlochObservable) -> JointDistribution:
    """Simulate ``p(m, y, w) = <M_m Y_y M_m (x) W_w>`` and normalise exactly.

    The slide acts on qubit 1, then Y is measured on the disturbed qubit 1
    while W is measured on qubit 2.  This is :func:`joint_tables` for one
    direction.
    """
    p = joint_tables(rho, slide, w.vector[None])[0]
    meta = {"theta_deg": w.theta_deg, "phi_deg": w.phi_deg,
            "r_h": slide.r_h, "r_v": slide.r_v}
    return JointDistribution(entries=dict(zip(TRIPLES, p.ravel().tolist())),
                             provenance="simulated", metadata=meta)


def as_slide_arrays(slide) -> SlideArrays:
    """The :class:`SlideArrays` of a SemiweakSlide (N = 1), or ``slide``
    itself when it already is one."""
    return getattr(slide, "arrays", slide)


def povm_elements(slide) -> np.ndarray:
    """POVMs ``Upsilon[N, y]`` of the Y measurement behind N slides (a
    SemiweakSlide or :class:`SlideArrays`), by their closed form
    ``(1 +- (1 - kappa) Y)/2``; that it equals the Kraus sum
    ``sum_m M_m Y_y M_m`` is checked in the test suite."""
    contrast = (1 - as_slide_arrays(slide).kappa)[:, None, None, None]
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
