"""Complementarity relations between joint-measurement inaccuracies.

Four lower bounds on combinations of the RMS inaccuracies ``eps_A``,
``eps_B`` and the spreads ``Delta`` (intrinsic) / ``Delta_est`` (of the
estimates), all against the same bound ``c/2 = |<[A, B]>| / 2``:

* Arthurs-Kelly:   ``eps_A eps_B``                      (holds only for
  jointly unbiased estimates; violated by the scenarios here),
* Hall:            ``eps_A eps_B + eps_A dB_est + dA_est eps_B``,
* Ozawa:           ``eps_A eps_B + eps_A dB + dA eps_B``,
* averaged-spread ("new"):
  ``eps_A (dB_est + dB)/2 + eps_B (dA_est + dA)/2``,

plus a measurement-disturbance variant where the second inaccuracy is
replaced by the RMS change ``eta(B)`` the measurement channel inflicts on B.

Relation evaluation takes summary statistics (floats, or arrays over N
scenarios), so measured-count and simulated paths share one code path; the
measurement-disturbance variant reads its inputs off a
:class:`RelationReport`.  The step-by-step derivation check
(`relation_chains`, and `verify_relation_chain` for one set) instead takes
operators on a common, possibly dilated, Hilbert space.  Nothing here
builds a state, a slide or a table, so the module depends on ``qcore``
alone.
"""

from __future__ import annotations

import math
from dataclasses import field, fields

import numpy as np

from .qcore import _freeze_fields, as_operator_array, failing, frozen_dataclass, run_checks


class RelationViolationError(ValueError):
    """A relation that must hold was violated beyond tolerance."""


MARGIN_TOL = 1e-9
# The largest entry of [A_est, B_est] that relation_chains accepts: the first
# identity of a chain, 2[A,B] = [A - A_est, B + B_est] + [A + A_est, B - B_est],
# is off by exactly 2[A_est, B_est], so it then holds within 1e-12
COMMUTATION_TOL = 5e-13

RELATION_NAMES = ("arthurs_kelly", "hall", "ozawa", "new")
# the relations that hold for every estimate: Arthurs-Kelly holds only for
# jointly unbiased ones
UNIVERSAL_RELATIONS = tuple(name for name in RELATION_NAMES if name != "arthurs_kelly")


@frozen_dataclass
class RelationReport:
    """The seven statistics of one scenario, whose four relation left-hand
    sides it reads against the shared bound c/2."""

    eps_a: float
    eps_b: float
    delta_a: float
    delta_b: float
    delta_a_est: float
    delta_b_est: float
    c: float
    scenario: dict = field(default_factory=dict)

    @property
    def bound(self) -> float:
        return self.c / 2.0

    @property
    def lhs(self) -> dict[str, float]:
        """The four left-hand sides by relation name, in RELATION_NAMES order."""
        return dict(zip(RELATION_NAMES, relation_lhs(
            self.eps_a, self.eps_b, self.delta_a, self.delta_b,
            self.delta_a_est, self.delta_b_est)))

    @property
    def lhs_ak(self) -> float:
        return self.lhs["arthurs_kelly"]

    @property
    def lhs_hall(self) -> float:
        return self.lhs["hall"]

    @property
    def lhs_ozawa(self) -> float:
        return self.lhs["ozawa"]

    @property
    def lhs_new(self) -> float:
        return self.lhs["new"]

    @property
    def satisfied(self) -> dict[str, bool]:
        return {name: lhs >= self.bound - MARGIN_TOL for name, lhs in self.lhs.items()}

    def margins(self) -> dict[str, float]:
        return {name: lhs - self.bound for name, lhs in self.lhs.items()}

    def to_dict(self) -> dict:
        return {
            "scenario": dict(self.scenario),
            "inputs": {"eps_a": self.eps_a, "eps_b": self.eps_b,
                       "delta_a": self.delta_a, "delta_b": self.delta_b,
                       "delta_a_est": self.delta_a_est,
                       "delta_b_est": self.delta_b_est, "c": self.c},
            "bound": self.bound,
            "lhs": self.lhs,
            "satisfied": self.satisfied,
        }


def relation_lhs(eps_a, eps_b, delta_a, delta_b, delta_a_est, delta_b_est):
    """The four left-hand sides ``(arthurs_kelly, hall, ozawa, new)``, for
    floats or arrays alike."""
    lhs_ak = eps_a * eps_b
    return (lhs_ak,
            lhs_ak + eps_a * delta_b_est + delta_a_est * eps_b,
            lhs_ak + eps_a * delta_b + delta_a * eps_b,
            eps_a * (delta_b_est + delta_b) / 2.0 + eps_b * (delta_a_est + delta_a) / 2.0)


def evaluate_relations(eps_a: float, eps_b: float, delta_a: float, delta_b: float,
                       delta_a_est: float, delta_b_est: float, c: float,
                       scenario: dict | None = None) -> RelationReport:
    """Evaluate the four relations from scalar summary statistics, each of
    which must be finite and non-negative."""
    inputs = dict(eps_a=eps_a, eps_b=eps_b, delta_a=delta_a, delta_b=delta_b,
                  delta_a_est=delta_a_est, delta_b_est=delta_b_est, c=c)
    for name, val in inputs.items():
        if not (math.isfinite(val) and val >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {val}")
    return RelationReport(*inputs.values(), scenario=dict(scenario or {}))


def _gap_weight(x: np.ndarray) -> np.ndarray:
    """``h(x) = (sqrt(1 - x^2) - (1 - x)) / 2`` for an array of ``x`` in [0, 1]."""
    return 0.5 * (np.sqrt(1.0 - x * x) - (1.0 - x))


def gap_weights(x: np.ndarray) -> np.ndarray:
    """``h(x) = (sqrt(1 - x^2) - (1 - x)) / 2`` on [0, 1] for an array of
    ``x``; h(0) = h(1) = 0.

    This is the weight by which the Hall left-hand side exceeds the
    averaged-spread one when both estimates are dispersion-optimal
    (``Delta_est^2 = Delta^2 - eps^2``).  The first ``x`` outside
    [0, 1 + 1e-12] raises ValueError.
    """
    run_checks([(~((0.0 <= x) & (x <= 1.0 + 1e-12)), failing(
        ValueError, lambda i: f"gap weight defined on [0, 1], got {float(x[i])}"))])
    return _gap_weight(np.minimum(x, 1.0))


def _gap_ratios(eps_a, eps_b, delta_a, delta_b):
    """``in_domain`` and the ratios ``eps_b / delta_b``, ``eps_a / delta_a`` the
    gap weights read: 0 outside the domain, clamped to 1 inside it."""
    in_domain = (eps_a <= delta_a + 1e-12) & (eps_b <= delta_b + 1e-12)

    def ratio(num, den):
        # num / den where num < den, else exactly 1, without overflowing
        return np.divide(num, np.maximum(den, num), out=np.zeros_like(num),
                         where=in_domain & (den > 0.0))

    return in_domain, ratio(eps_b, delta_b), ratio(eps_a, delta_a)


def strength_orderings(eps_a, eps_b, delta_a, delta_b, lhs_hall, lhs_ozawa, lhs_new):
    """The strength ordering of N scenarios from arrays of their relation
    inputs and left-hand sides.

    Returns ``new_le_hall``, ``new_le_ozawa``, ``in_domain`` (both
    inaccuracies within their intrinsic spreads, the closed form's domain)
    and ``gap_residual``: the Hall-minus-new gap under dispersion-optimal
    spreads against its closed form, meaningful where ``in_domain``.
    Precondition, unchecked: the inputs are non-negative, as statistics are.
    """
    new_le_hall = lhs_new <= lhs_hall + MARGIN_TOL
    new_le_ozawa = lhs_new <= lhs_ozawa + MARGIN_TOL
    in_domain, x_beta, x_alpha = _gap_ratios(eps_a, eps_b, delta_a, delta_b)
    da_opt = np.sqrt(np.maximum(delta_a ** 2 - eps_a ** 2, 0.0))
    db_opt = np.sqrt(np.maximum(delta_b ** 2 - eps_b ** 2, 0.0))
    _, hall_opt, _, new_opt = relation_lhs(eps_a, eps_b, delta_a, delta_b, da_opt, db_opt)
    closed_form = eps_a * delta_b * _gap_weight(x_beta) + delta_a * eps_b * _gap_weight(x_alpha)
    gap_residual = np.abs((hall_opt - new_opt) - closed_form)
    return new_le_hall, new_le_ozawa, in_domain, gap_residual


@frozen_dataclass
class StrengthOrdering:
    """Ordering of the averaged-spread relation against Hall and Ozawa.

    ``applicable`` is False for non-optimal estimates, where the ordering is
    observed in practice but not claimed.  ``gap_residual`` compares the
    Hall-minus-new gap with its closed form under dispersion-optimal spreads;
    it is None when an inaccuracy exceeds its intrinsic spread (outside the
    closed form's domain).
    """

    applicable: bool
    new_le_hall: bool
    new_le_ozawa: bool
    hall_gap: float
    ozawa_gap: float
    gap_residual: float | None


def strength_comparison(report: RelationReport,
                        estimator_kind: str | None = None) -> StrengthOrdering:
    """Compare the averaged-spread relation's strength with Hall and Ozawa
    (:func:`strength_orderings` for one report).

    For optimal estimates the orderings ``lhs_new <= lhs_hall`` and
    ``lhs_new <= lhs_ozawa`` are asserted (violation raises
    ``RelationViolationError``); otherwise a not-applicable result carrying
    the observed gaps is returned.  A non-finite field it reads raises
    ValueError.
    """
    kind = estimator_kind or report.scenario.get("estimator", "custom")
    applicable = kind == "optimal"
    inputs = []
    for name in ("eps_a", "eps_b", "delta_a", "delta_b", "lhs_hall", "lhs_ozawa", "lhs_new"):
        value = getattr(report, name)
        if not math.isfinite(value):
            raise ValueError(f"report field {name} must be finite, got {value}")
        inputs.append(np.array([value], dtype=float))
    # a report built by hand may give ratios outside the weights' domain
    for x in _gap_ratios(*inputs[:4])[1:]:
        gap_weights(x)
    new_le_hall, new_le_ozawa, in_domain, gap_residual = strength_orderings(*inputs)
    ordering = StrengthOrdering(
        applicable=applicable, new_le_hall=bool(new_le_hall[0]),
        new_le_ozawa=bool(new_le_ozawa[0]),
        hall_gap=report.lhs_hall - report.lhs_new,
        ozawa_gap=report.lhs_ozawa - report.lhs_new,
        gap_residual=float(gap_residual[0]) if in_domain[0] else None)
    if applicable and not (ordering.new_le_hall and ordering.new_le_ozawa):
        raise RelationViolationError(
            f"averaged-spread relation not weakest for optimal estimates: "
            f"hall_gap={ordering.hall_gap:.3e}, ozawa_gap={ordering.ozawa_gap:.3e}")
    return ordering


@frozen_dataclass
class RelationChain:
    """Every intermediate step of the averaged-spread relation's derivation.

    The derivation: with commuting estimators,
    ``2[A,B] = [A - A_est, B + B_est] + [A + A_est, B - B_est]``;
    splitting each bracket and applying the triangle inequality gives four
    commutator expectations, each bounded by a Schwarz term
    ``2 sqrt(<R'^2><S'^2>)`` with suitable centring.  Their sum is four times
    the averaged-spread left-hand side.

    The first identity is off by exactly ``2[A_est, B_est]``, which the
    commutation gate bounds, so ``holds`` reads the six slacks alone.  On
    ``verify``'s dilation (:func:`oracle.dilated_moments`) it is 0 by construction.

    Fields are floats for one chain, or arrays ``[N]`` for the N chains of
    :func:`relation_chains` (the four-term fields then hold four arrays).
    """

    c: float
    commutator_residual: float
    eps_a: float
    eps_b: float
    delta_a: float
    delta_b: float
    delta_a_est: float
    delta_b_est: float
    triangle_terms: tuple[float, float, float, float]
    schwarz_terms: tuple[float, float, float, float]

    __post_init__ = _freeze_fields

    @property
    def bound(self) -> float:
        return self.c / 2.0

    @property
    def triangle_sum(self) -> float:
        return sum(self.triangle_terms)

    @property
    def schwarz_sum(self) -> float:
        return sum(self.schwarz_terms)

    @property
    def lhs_new(self) -> float:
        return self.schwarz_sum / 4.0

    @property
    def slacks(self) -> tuple[float, ...]:
        link0 = self.triangle_sum - 2.0 * self.c
        links = tuple(s - t for s, t in zip(self.schwarz_terms, self.triangle_terms))
        return (link0, *links, self.lhs_new - self.bound)

    @property
    def min_slack(self) -> float:
        return np.min(self.slacks, axis=0)

    @property
    def holds(self) -> bool:
        return self.min_slack >= -MARGIN_TOL


def _chain_links(ev_ab, ev_a_be, ev_ae_b, ev_ae_be, commutator_residual,
                 eps_a, eps_b, da, db, da_est, db_est) -> RelationChain:
    """The chain from the expectations of ``[A, B]``, ``[A, B_est]``,
    ``[A_est, B]`` and ``[A_est, B_est]``, the residual and the spreads."""
    # <[A - A_est, B]>, <[A - A_est, B_est]>, <[A, B - B_est]>, <[A_est, B - B_est]>
    triangle = (np.abs(ev_ab - ev_ae_b), np.abs(ev_a_be - ev_ae_be),
                np.abs(ev_ab - ev_a_be), np.abs(ev_ae_b - ev_ae_be))
    schwarz = (2.0 * eps_a * db, 2.0 * eps_a * db_est,
               2.0 * da * eps_b, 2.0 * da_est * eps_b)
    return RelationChain(
        c=np.abs(ev_ab), commutator_residual=commutator_residual,
        eps_a=eps_a, eps_b=eps_b, delta_a=da, delta_b=db,
        delta_a_est=da_est, delta_b_est=db_est,
        triangle_terms=triangle, schwarz_terms=schwarz)


def relation_chains(a_est, b_est, a, b, rho) -> RelationChain:
    """Check the averaged-spread relation's derivation link by link for N
    operator sets at once: the hand-built-operator reference for the
    factored chain of :func:`oracle.dilated_moments`.

    Each argument is a stack ``[N, d, d]`` of matrices on one common
    Hilbert space, which may be a dilation of the physical one, or one
    matrix ``[d, d]`` shared by all N; the fields of the result are arrays
    ``[N]``, or 0-d where every operand they read is shared (as
    :func:`chain_item` reads them).  The estimators must commute (checked to ``COMMUTATION_TOL`` =
    5e-13 for hand-built sets; ``verify``'s commute by construction).  Every
    commutator link comes by bilinearity from the four commutators
    ``[A, B]``, ``[A, B_est]``, ``[A_est, B]`` and ``[A_est, B_est]``.

    The inaccuracies and all four spreads are direct products,
    ``(A - A_est)^2`` and the centred ``(A - m)^2`` with ``m = Re Tr(rho A)``,
    which hold their precision in the weak limit; each expectation is
    ``Tr(rho op)``, and none assumes that any operator is Hermitian.
    """
    a_est_m, b_est_m, a_m, b_m, rho_m = map(as_operator_array, (a_est, b_est, a, b, rho))
    dims = {m.shape[-1] for m in (a_est_m, b_est_m, a_m, b_m, rho_m)}
    if len(dims) != 1:
        raise ValueError(f"operators live on different spaces: dims {sorted(dims)}")

    def comm(p, q):
        return p @ q - q @ p

    def ev(op):
        return np.trace(rho_m @ op, axis1=-2, axis2=-1)

    c_ab, c_a_be, c_ae_b, c_ae_be = (comm(a_m, b_m), comm(a_m, b_est_m),
                                     comm(a_est_m, b_m), comm(a_est_m, b_est_m))
    commutator_residual = np.abs(c_ae_be).max(axis=(-2, -1))
    # one residual for all N sets when both estimators are shared
    noncommuting = np.flatnonzero(commutator_residual > COMMUTATION_TOL)
    if noncommuting.size:
        raise ValueError(f"estimators do not commute (max |[A_est, B_est]| = "
                         f"{commutator_residual.flat[noncommuting[0]]:.3e})")

    def rms(op):
        return np.sqrt(np.maximum(ev(op @ op).real, 0.0))

    def spread(op):
        return rms(op - ev(op).real[..., None, None] * np.eye(op.shape[-1]))

    return _chain_links(
        *map(ev, (c_ab, c_a_be, c_ae_b, c_ae_be)), commutator_residual,
        rms(a_m - a_est_m), rms(b_m - b_est_m), spread(a_m), spread(b_m),
        spread(a_est_m), spread(b_est_m))


def chain_item(chains: RelationChain, i: int) -> RelationChain:
    """Chain ``i`` of the N chains of :func:`relation_chains`, with floats; a
    0-d field, whose operands were all shared, holds for every chain."""
    def item(value):
        if isinstance(value, tuple):
            return tuple(map(item, value))
        return float(value[i] if np.ndim(value) else value)

    return RelationChain(**{f.name: item(getattr(chains, f.name))
                            for f in fields(RelationChain)})


def verify_relation_chain(a_est, b_est, a, b, rho) -> RelationChain:
    """Check the averaged-spread relation's derivation link by link
    (:func:`relation_chains` for one operator set).

    All five arguments are matrices (or objects exposing ``.matrix``) on one
    common Hilbert space, which may be a dilation of the physical one; the
    estimators must commute (precondition, checked to 5e-13).
    """
    ops = [as_operator_array(op)[None] for op in (a_est, b_est, a, b, rho)]
    return chain_item(relation_chains(*ops), 0)


@frozen_dataclass
class MDReport:
    """Measurement-disturbance relation report.

    ``eta_b`` is the RMS change the slide channel inflicts on B = Y (in the
    Heisenberg picture), replacing the estimate inaccuracy eps_B.
    """

    eps_a: float
    eta_b: float
    delta_a: float
    delta_a_est: float
    delta_b: float
    delta_b_disturbed: float
    c: float

    @property
    def bound(self) -> float:
        return self.c / 2.0

    @property
    def lhs(self) -> float:
        """The averaged-spread form, eta(B) for eps_B and Delta(B') for Delta_est(B)."""
        return relation_lhs(self.eps_a, self.eta_b, self.delta_a, self.delta_b,
                            self.delta_a_est, self.delta_b_disturbed)[3]

    @property
    def satisfied(self) -> bool:
        return self.lhs >= self.bound - MARGIN_TOL

    def to_dict(self) -> dict:
        return {"inputs": {"eps_a": self.eps_a, "eta_b": self.eta_b,
                           "delta_a": self.delta_a, "delta_a_est": self.delta_a_est,
                           "delta_b": self.delta_b,
                           "delta_b_disturbed": self.delta_b_disturbed,
                           "c": self.c},
                "bound": self.bound, "lhs": self.lhs, "satisfied": self.satisfied}


def evaluate_md_relation(report: RelationReport, kappa: float) -> MDReport:
    """Evaluate the measurement-disturbance relation on a scenario's relation
    report, with ``kappa`` the strength of its slide.

    The slide channel contracts Y to ``Y' = (1 - kappa) Y``, so its RMS
    disturbance is ``eta(Y) = sqrt(<(Y' - Y)^2>) = kappa`` and the disturbed
    spread is ``Delta(Y') = (1 - kappa) Delta Y``, both in closed form; every
    other input is read off the report.  A ``kappa`` outside [0, 1] raises
    ValueError.  The relation is universal for estimates read off qubit 2,
    so a violation marks numerical corruption and raises.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"slide strength kappa must lie in [0, 1], got {kappa}")
    md = MDReport(
        eps_a=report.eps_a, eta_b=kappa, delta_a=report.delta_a,
        delta_a_est=report.delta_a_est, delta_b=report.delta_b,
        delta_b_disturbed=(1.0 - kappa) * report.delta_b, c=report.c)
    if not md.satisfied:
        raise RelationViolationError(
            f"measurement-disturbance relation violated: lhs {md.lhs:.12f} "
            f"< bound {md.bound:.12f}")
    return md
