"""Estimation layer: reconstruct inaccuracies and spreads from statistics.

The X value of qubit 1 is estimated from the W outcome on qubit 2 through a
function ``f(w)``; the Y value of qubit 1 is estimated by the semiweak-slide
Y measurement itself (values +-1).  Everything here consumes outcome
statistics -- the same code path serves simulated tables and measured count
tables.

Root-mean-square inaccuracies are defined against Margenau-Hill (MH)
quasi-probabilities, ``p_MH(k, l) = <{K_k, L_l}> / 2``, reconstructed from
the observed joint table via the slide's contextual values:

    eps(X_est)^2 = sum_{x,w} (x - f(w))^2 p_MH(x, w),
    p_MH(x, w)   = sum_{m,y} (1 + x xi_m)/2 p(m, y, w).

Measured tables are used verbatim (their normalisation slack is kept, see the
distribution tolerances); spread computations normalise marginals by the
table's total mass since they are moments of a random variable.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .qcore import (
    BlochObservable,
    Check,
    DataQualityWarning,
    DensityMatrix,
    HermitianOperator,
    NumericalCorruptionError,
    _row_sums,
    correlations,
    failing,
    frozen_dataclass,
    pauli,
    projector_pair,
    run_checks,
    spread,
    tensor,
)
from .scenario import (
    MIN_REFLECTIVITY_GAP,
    OUTCOMES,
    REFLECTED,
    SIGNS,
    TRIPLES,
    DegenerateMeasurementError,
    JointDistribution,
    SemiweakSlide,
    as_slide_arrays,
    joint_distribution,
    reflectivity_gap_error,
)


# The (m, y, w) outcomes of the entries of a flattened table p[N, 8], and the
# 0/1 matrices whose products with p sum it onto the y or the w axis
_KEYS = np.array(TRIPLES)
_ONTO_Y = (_KEYS[:, 1:2] == SIGNS).astype(float)
_ONTO_W = (_KEYS[:, 2:3] == SIGNS).astype(float)
# the index of each entry's m outcome in OUTCOMES order
_M_INDEX = (_KEYS[:, 0] == REFLECTED).astype(int)


class UndefinedEstimateError(ValueError):
    """An estimator branch conditions on a zero-probability outcome."""


@frozen_dataclass
class Estimator:
    """An estimate of X from the W outcome: ``w -> f(w)``, with a kind tag.

    ``kind`` is ``"simple"`` (f(w) = w), ``"optimal"`` (state-dependent least
    squares) or ``"custom"``.
    """

    values: dict[int, float]
    kind: str = "custom"

    def __post_init__(self):
        if set(self.values) != {+1, -1}:
            raise ValueError("estimator needs values for w = +1 and w = -1")
        if not all(math.isfinite(v) for v in self.values.values()):
            raise ValueError("estimator values must be finite")
        if self.kind not in ("simple", "optimal", "custom"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "simple" and (self.values[+1] != 1.0 or self.values[-1] != -1.0):
            raise ValueError("simple estimator must map w -> w")

    def value(self, w: int) -> float:
        return self.values[w]

    @property
    def array(self) -> np.ndarray:
        """The values ``f[w]`` in OUTCOMES order."""
        return np.array([self.values[w] for w in OUTCOMES], dtype=float)

    @classmethod
    def simple(cls) -> "Estimator":
        return cls({+1: 1.0, -1: -1.0}, kind="simple")

    @classmethod
    def custom(cls, f_plus: float, f_minus: float) -> "Estimator":
        return cls({+1: float(f_plus), -1: float(f_minus)}, kind="custom")

    def as_operator(self, w: BlochObservable) -> HermitianOperator:
        """The estimate as a qubit-2 observable, ``f(W) = f(+1)W+ + f(-1)W-``."""
        w_plus, w_minus = projector_pair(w.as_operator())
        return HermitianOperator(self.values[+1] * w_plus.matrix
                                 + self.values[-1] * w_minus.matrix)


def quasi_mass_checks(total: np.ndarray, atol: float) -> list[Check]:
    """Checks that quasi-tables of total masses ``total[N]`` sum to 1 within
    ``atol``."""
    return [(np.abs(total - 1.0) > atol, failing(
        ValueError, lambda i: f"quasi-probabilities sum to {total[i]:.6f}, not 1"))]


def optimal_values(rho, n: np.ndarray, checks: list[Check]) -> np.ndarray:
    """Least-squares X estimates ``f[N, w]`` for N directions ``n[N, 3]``.

    ``f(w) = <X (x) W_w> / <1 (x) W_w>``, read off the correlation tensor of
    ``rho``: one DensityMatrix shared by all directions, or N states
    ``[N, 4, 4]``, one per direction.  An outcome with probability
    <= 1e-12 is an ``UndefinedEstimateError`` queued on ``checks``; its
    estimate is NaN.
    """
    t = correlations(rho).reshape(-1, 4, 4)
    # directions grouped by their state: all N under one, or one under each
    groups = n.reshape(len(t), -1, 3)

    def half_moments(j: int) -> np.ndarray:
        # <s_j (x) W_w> = (T[j, 0] + w n.T[j, 1:]) / 2
        return (0.5 * (t[:, j, :1, None] + (groups @ t[:, j, 1:, None]) * SIGNS)).reshape(-1, 2)

    den, num = half_moments(0), half_moments(1)
    undefined = den <= 1e-12
    checks.extend([
        (undefined[:, k], failing(
            UndefinedEstimateError,
            lambda i, k=k, s=s: f"W outcome {s:+d} has probability {den[i, k]:.3e}"))
        for k, s in enumerate(OUTCOMES)])
    return np.divide(num, den, out=np.full_like(num, np.nan), where=~undefined)


def optimal_estimator(rho: DensityMatrix, w: BlochObservable) -> Estimator:
    """Least-squares optimal estimate of X (qubit 1) from the W outcome.

    ``f_opt(w) = <X (x) W_w> / <1 (x) W_w>`` -- the conditional mean of X
    given the W outcome, computed from the state (:func:`optimal_values`
    for one direction).  Raises ``UndefinedEstimateError`` if an outcome has
    no probability mass.
    """
    checks: list[Check] = []
    f = optimal_values(rho, w.vector[None], checks)[0]
    run_checks(checks)
    return Estimator(dict(zip(OUTCOMES, f.tolist())), kind="optimal")


def mh_tables(p: np.ndarray, slide) -> np.ndarray:
    """Margenau-Hill quasi-tables ``p_MH[N, x, w]`` of tables ``p[N, m, y, w]``:
    ``p_MH(x, w) = sum_{m,y} (1 + x xi_m)/2 p(m, y, w)``, for one
    SemiweakSlide shared by all tables or N slides (:class:`SlideArrays`).

    Raises ``DegenerateMeasurementError`` at once for a slide without
    contextual values (``r_h == r_v``), or with :func:`slide_model`'s
    message for one whose ``|r_h - r_v| = 2/|xi_r - xi_t|`` is below
    ``MIN_REFLECTIVITY_GAP``, where rounding decides the quasi-tables.
    """
    xi = as_slide_arrays(slide).xi
    if xi is None:
        raise DegenerateMeasurementError(
            "slide has r_h == r_v; contextual values are undefined")
    # only a hand-built SemiweakSlide can be this close; on 2.4 million slides
    # at the smallest gap slide_model accepts, this reading never fell below it
    gaps = 2.0 / np.abs(xi[:, 1] - xi[:, 0])
    too_close = gaps < MIN_REFLECTIVITY_GAP
    if too_close.any():
        raise reflectivity_gap_error(float(gaps[np.argmax(too_close)]))
    weights = 0.5 * (1.0 + xi[:, _M_INDEX, None] * SIGNS)  # [N, entry, x]
    to_mh = (weights[..., None] * _ONTO_W[:, None, :]).reshape(-1, 8, 4)
    return (p.reshape(len(to_mh), -1, 8) @ to_mh).reshape(-1, 2, 2)


def x_inaccuracies(mh: np.ndarray, f: np.ndarray, checks: list[Check]) -> np.ndarray:
    """RMS inaccuracies ``eps[N]`` of X estimates ``f[N, w]`` of N scenarios,
    reconstructed from Margenau-Hill quasi-tables ``mh[N, x, w]``
    (:func:`mh_tables`), whose mass the caller gates.

    ``eps^2 = sum_{x,w} (x - f(w))^2 p_MH(x, w)``.  A square in [-1e-9, 0)
    is clamped to zero with a data-quality warning carrying the raw value;
    anything more negative marks the input data as inconsistent.
    """
    eps_sq = _row_sums(((SIGNS[:, None] - f[:, None, :]) ** 2 * mh).reshape(-1, 4))
    checks += [(eps_sq < -1e-9, failing(
                   NumericalCorruptionError, lambda i: f"reconstructed eps^2 = {eps_sq[i]:.3e}: "
                                                       f"input data is inconsistent")),
               ((eps_sq < 0.0) & (eps_sq >= -1e-9), lambda i: warnings.warn(DataQualityWarning(
                   f"clamping reconstructed eps^2 = {eps_sq[i]:.3e} to 0")))]
    return np.sqrt(np.maximum(eps_sq, 0.0))


def _variances(marginals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Variances of two-outcome ``values[..., k]`` under the marginals
    ``marginals[..., k]``, normalised by their mass; the two broadcast."""
    p0, p1, v0, v1 = marginals[..., 0], marginals[..., 1], values[..., 0], values[..., 1]
    total = p0 + p1
    mean = (v0 * p0 + v1 * p1) / total
    return (v0 ** 2 * p0 + v1 ** 2 * p1) / total - mean * mean


def _variance_check(var: np.ndarray, what: str) -> Check:
    return (var < -1e-12, failing(
        NumericalCorruptionError, lambda i: f"{what} variance {var[i]:.3e} negative"))


def estimate_spreads(p: np.ndarray, f: np.ndarray, checks: list[Check]) -> np.ndarray:
    """Standard deviations ``[N]`` of estimates ``f[N, w]`` under the w
    marginals of tables ``p[N, m, y, w]``, normalised by each table's mass."""
    var = _variances(p.reshape(-1, 8) @ _ONTO_W, f)
    checks.append(_variance_check(var, "estimator"))
    return np.sqrt(np.maximum(var, 0.0))


def y_spreads(p: np.ndarray, checks: list[Check]) -> np.ndarray:
    """Standard deviations ``[N]`` of the +-1-valued y outcome under tables
    ``p[N, m, y, w]``, normalised by each table's mass."""
    var = _variances(p.reshape(-1, 8) @ _ONTO_Y, SIGNS)
    checks.append(_variance_check(var, "y-outcome"))
    return np.sqrt(np.maximum(var, 0.0))


def mh_from_counts(dist: JointDistribution, slide: SemiweakSlide) -> np.ndarray:
    """Margenau-Hill quasi-table ``p_MH[x, w]`` of (X, W) from the joint
    outcome table (:func:`mh_tables` for one table), in OUTCOMES order.

    Uses the contextual-value inversion; for simulated data the result equals
    the operator table ``<X_x (x) W_w>`` exactly.  The quasi-table inherits
    the source table's total mass, so the sum check follows the source
    provenance.
    """
    mh = mh_tables(dist.table[None], slide)[0]
    run_checks(quasi_mass_checks(mh.sum()[None], dist.mass_tolerance + 1e-12))
    return mh


def inaccuracy_x(dist: JointDistribution, slide: SemiweakSlide,
                 est: Estimator) -> float:
    """RMS inaccuracy of the X estimate, reconstructed from the joint table
    (:func:`x_inaccuracies` on :func:`mh_from_counts`, with their checks)."""
    checks: list[Check] = []
    eps = x_inaccuracies(mh_from_counts(dist, slide)[None], est.array[None], checks)
    run_checks(checks)
    return float(eps[0])


def y_inaccuracies(slide) -> np.ndarray:
    """RMS inaccuracies ``[N]`` of the semiweak Y measurement behind N slides
    (a SemiweakSlide or :class:`SlideArrays`), by their closed form
    ``sqrt(2 kappa)``.

    This is the MH mean-square difference ``sum (y - y')^2 p_MH(y, y')``
    between the target Y and the effective POVM behind the slide; the test
    suite checks that identity, and ``verify`` compares the value with the
    one its dilated projective estimate gives.
    """
    return np.sqrt(2.0 * as_slide_arrays(slide).kappa)


def inaccuracy_y(slide: SemiweakSlide) -> float:
    """RMS inaccuracy of the semiweak Y measurement: sqrt(2 kappa)
    (:func:`y_inaccuracies` for one slide)."""
    return float(y_inaccuracies(slide)[0])


def estimator_spread(dist: JointDistribution, est: Estimator) -> float:
    """Standard deviation of the estimate f(W) under the table's w marginal."""
    checks: list[Check] = []
    value = estimate_spreads(dist.table[None], est.array[None], checks)
    run_checks(checks)
    return float(value[0])


@frozen_dataclass
class DispersionCheck:
    """The three terms of eps^2 + (Delta X_est)^2 = (Delta X)^2."""

    eps_sq: float
    est_spread_sq: float
    x_spread_sq: float

    @property
    def residual(self) -> float:
        return self.eps_sq + self.est_spread_sq - self.x_spread_sq


def dispersion_check(rho: DensityMatrix, slide: SemiweakSlide,
                     w: BlochObservable, est: Estimator) -> DispersionCheck:
    """Evaluate the inaccuracy-dispersion identity on a simulated scenario.

    For the optimal estimator of the same state the identity
    ``eps^2 + (Delta X_est)^2 = (Delta X)^2`` is exact and is enforced to
    1e-9; for other estimators the three terms are returned unasserted.
    """
    dist = joint_distribution(rho, slide, w)
    eps = inaccuracy_x(dist, slide, est)
    d_est = estimator_spread(dist, est)
    d_x = spread(tensor(pauli("X"), pauli("I")), rho)
    check = DispersionCheck(eps * eps, d_est * d_est, d_x * d_x)
    if est.kind == "optimal" and abs(check.residual) > 1e-9:
        raise NumericalCorruptionError(
            f"dispersion identity broken for optimal estimator: "
            f"residual {check.residual:.3e}")
    return check
