"""High-level pipelines: simulate a scenario, analyze a measured table,
sweep the analyser angle, and run the randomized verification suite.

Observable A is always X on qubit 1, estimated from the W outcome on
qubit 2; observable B is Y on qubit 1, estimated by the semiweak slide's
own outcome.  Everything downstream (inaccuracies, spreads, the four
relations) is expressed through those two estimates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .estimate import (
    DispersionCheck,
    Estimator,
    estimate_spreads,
    estimator_spread,
    inaccuracy_x,
    inaccuracy_y,
    mh_from_counts,
    optimal_estimator,
    optimal_values,
    x_inaccuracies,
    y_estimator_spread,
    y_spreads,
)
from .oracle import DilatedSystem, direct_inaccuracy, direct_margenau_hill
from .qcore import (
    DEFAULT_TOLERANCES,
    BlochObservable,
    Check,
    DensityMatrix,
    bloch_vectors,
    commutator_bound,
    pauli,
    projector_pair,
    run_checks,
    spread,
    tensor,
)
from .relations import (
    MARGIN_TOL,
    RELATION_NAMES,
    RelationReport,
    RelationViolationError,
    evaluate_relations,
    relation_input_checks,
    relation_lhs,
    strength_comparison,
    verify_relation_chain,
)
from .scenario import (
    SIGNS,
    JointDistribution,
    SemiweakSlide,
    effective_povm,
    epr_state,
    joint_distribution,
    joint_tables,
    slide_model,
)

# the hardware operating point the bundled measured tables come from
REFERENCE_GAMMA_DEG = 22.5
REFERENCE_R_H = 0.1244
REFERENCE_R_V = 0.4645
ESTIMATOR_KINDS = ("simple", "optimal")

_X1 = tensor(pauli("X"), pauli("I"))
_Y1 = tensor(pauli("Y"), pauli("I"))


def reference_scenario() -> tuple[DensityMatrix, SemiweakSlide, BlochObservable]:
    """Source at gamma = 22.5 deg, slide at (0.1244, 0.4645), W = X on qubit 2."""
    return (epr_state(math.radians(REFERENCE_GAMMA_DEG)),
            slide_model(REFERENCE_R_H, REFERENCE_R_V),
            BlochObservable.from_degrees(90.0, 180.0))


def _check_kind(kind: str) -> None:
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r} (use 'simple' or 'optimal')")


def build_estimator(kind: str, rho: DensityMatrix | None = None,
                    w: BlochObservable | None = None) -> Estimator:
    _check_kind(kind)
    if kind == "simple":
        return Estimator.simple()
    if rho is None or w is None:
        raise ValueError("the optimal estimator needs a state and a W observable")
    return optimal_estimator(rho, w)


@dataclass(frozen=True)
class SimulationResult:
    """One simulated scenario: outcome table, estimator, relations."""

    report: RelationReport
    distribution: JointDistribution
    estimator: Estimator
    dispersion: DispersionCheck


def simulate_scenario(rho: DensityMatrix, slide: SemiweakSlide, w: BlochObservable,
                      estimator: str = "optimal",
                      scenario_info: dict | None = None) -> SimulationResult:
    """Simulate the joint measurement and evaluate all four relations."""
    dist = joint_distribution(rho, slide, w)
    est = build_estimator(estimator, rho, w)
    eps_a = inaccuracy_x(dist, slide, est)
    eps_b = inaccuracy_y(slide)
    delta_a = spread(_X1, rho)
    delta_a_est = estimator_spread(dist, est)
    dispersion = DispersionCheck(eps_a ** 2, delta_a_est ** 2, delta_a ** 2)
    info = {"source": "simulated", "estimator": est.kind,
            "theta_deg": w.theta_deg, "phi_deg": w.phi_deg,
            "r_h": slide.r_h, "r_v": slide.r_v}
    info.update(scenario_info or {})
    report = evaluate_relations(
        eps_a=eps_a, eps_b=eps_b,
        delta_a=delta_a, delta_b=spread(_Y1, rho),
        delta_a_est=delta_a_est, delta_b_est=y_estimator_spread(dist),
        c=commutator_bound(_X1, _Y1, rho), scenario=info)
    return SimulationResult(report=report, distribution=dist, estimator=est,
                            dispersion=dispersion)


def _meta_float(dist: JointDistribution, key: str) -> float:
    if key not in dist.metadata:
        raise ValueError(
            f"outcome table lacks {key!r} metadata; pass the value explicitly")
    return float(dist.metadata[key])


def analyze_measured(dist: JointDistribution, rho: DensityMatrix,
                     estimator: str = "optimal",
                     slide: SemiweakSlide | None = None,
                     w: BlochObservable | None = None) -> RelationReport:
    """Relation report for a measured outcome table plus a tomographic state.

    Inaccuracy and estimator spreads come from the counts; the intrinsic
    spreads and the commutator bound come from the tomographic state.  The
    slide reflectivities and the W angles default to the table's metadata.
    """
    if slide is None:
        slide = slide_model(_meta_float(dist, "r_h"), _meta_float(dist, "r_v"))
    if w is None:
        w = BlochObservable.from_degrees(_meta_float(dist, "theta_deg"),
                                         _meta_float(dist, "phi_deg"))
    est = build_estimator(estimator, rho, w)
    info = {"source": dist.provenance, "estimator": est.kind,
            "theta_deg": w.theta_deg, "phi_deg": w.phi_deg,
            "r_h": slide.r_h, "r_v": slide.r_v}
    return evaluate_relations(
        eps_a=inaccuracy_x(dist, slide, est),
        eps_b=inaccuracy_y(slide),
        delta_a=spread(_X1, rho), delta_b=spread(_Y1, rho),
        delta_a_est=estimator_spread(dist, est),
        delta_b_est=y_estimator_spread(dist),
        c=commutator_bound(_X1, _Y1, rho), scenario=info)


def sweep_phi(rho: DensityMatrix, slide: SemiweakSlide, phi_degs,
              theta_deg: float = 90.0,
              estimators: tuple[str, ...] = ESTIMATOR_KINDS) -> list[dict]:
    """One row per analyser angle with relation curves for each estimator.

    Common columns: phi_deg, theta_deg, c, bound, delta_x, delta_y, eps_y,
    delta_y_est.  Per estimator kind: eps_x_<kind>, delta_x_est_<kind>,
    dispersion_rss_<kind> (= sqrt(eps^2 + spread^2), which matches delta_x
    for the optimal estimator), and the four lhs_*_<kind> columns.

    All angles go through the array kernels in one pass, so a dense grid
    (thousands of angles) costs milliseconds.  The checks of the
    single-scenario path still apply to every angle, and the error raised
    is the one the first offending angle gives, with the same type and
    message.
    """
    phis = np.array([float(phi) for phi in phi_degs])
    if phis.size == 0:
        return []
    n = bloch_vectors(math.radians(theta_deg), np.radians(phis))
    checks: list[Check] = []
    p = joint_tables(rho, slide, n, checks)
    eps_b = inaccuracy_y(slide)
    delta_x = spread(_X1, rho)
    delta_y = spread(_Y1, rho)
    c = commutator_bound(_X1, _Y1, rho)
    delta_y_est = y_spreads(p, checks)
    columns = {"phi_deg": phis, "theta_deg": float(theta_deg), "c": c, "bound": c / 2.0,
               "delta_x": delta_x, "delta_y": delta_y, "eps_y": eps_b,
               "delta_y_est": delta_y_est}
    for kind in estimators:
        _check_kind(kind)
        f = (np.tile(SIGNS, (phis.size, 1)) if kind == "simple"
             else optimal_values(rho, n, checks))
        eps_a = x_inaccuracies(p, slide, f, DEFAULT_TOLERANCES.simulated_norm + 1e-12,
                               checks)
        d_est = estimate_spreads(p, f, checks)
        checks += relation_input_checks(
            eps_a=eps_a, eps_b=eps_b, delta_a=delta_x, delta_b=delta_y,
            delta_a_est=d_est, delta_b_est=delta_y_est, c=c)
        lhs = relation_lhs(eps_a, eps_b, delta_x, delta_y, d_est, delta_y_est)
        columns.update({
            f"eps_x_{kind}": eps_a, f"delta_x_est_{kind}": d_est,
            f"dispersion_rss_{kind}": np.sqrt(eps_a ** 2 + d_est ** 2),
            **{f"lhs_{name}_{kind}": val for name, val in zip(RELATION_NAMES, lhs)}})
    run_checks(checks)
    values = [np.broadcast_to(col, phis.shape).tolist() for col in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


# ---------------------------------------------------------------------------
# randomized verification suite
# ---------------------------------------------------------------------------

def random_state(rng: np.random.Generator, dim: int = 4) -> DensityMatrix:
    """Full-rank random state rho = G G^dag / tr(G G^dag), G complex Gaussian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / float(np.real(np.trace(mat))))


def random_slide(rng: np.random.Generator) -> SemiweakSlide:
    """Reflectivities in [0.02, 0.98], kept at least 0.01 apart."""
    while True:
        r_h, r_v = rng.uniform(0.02, 0.98, size=2)
        if abs(r_h - r_v) >= 0.01:
            return slide_model(float(r_h), float(r_v))


def random_observable(rng: np.random.Generator) -> BlochObservable:
    """Direction uniform on the sphere."""
    theta = math.acos(float(rng.uniform(-1.0, 1.0)))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    return BlochObservable(theta, phi)


def dilated_chain(rho: DensityMatrix, slide: SemiweakSlide, w: BlochObservable,
                  est: Estimator):
    """Build commuting projective estimators on (q1, q2, ancilla) and check
    every link of the averaged-spread derivation on them."""
    system = DilatedSystem.two_qubit_with_ancilla(rho)
    a = system.register("x1", pauli("X"), (0,))
    b = system.register("y1", pauli("Y"), (0,))
    a_est = system.register("x_est", est.as_operator(w), (1,))
    povm = tuple(p.matrix for p in effective_povm(slide))
    system.register_naimark_estimator("y_est", povm, (+1.0, -1.0), system_slot=0)
    return verify_relation_chain(a_est, system.operator("y_est"), a, b, system.state)


@dataclass(frozen=True)
class VerificationResult:
    """Aggregate outcome of the randomized suite; `passed` gates exit status."""

    trials: int
    seed: int
    elapsed_s: float
    oracle_max_diff: float
    y_inaccuracy_max_diff: float
    dispersion_max_residual: float
    min_margins: dict[str, float]
    violations: dict[str, int]
    ak_violations: int
    reference_satisfied: dict[str, bool]
    chain_min_slack: float
    chain_violations: int
    ordering_violations: int
    gap_checked: int
    gap_max_residual: float

    @property
    def reference_ok(self) -> bool:
        """The reference scenario must break AK and satisfy the other three."""
        sat = self.reference_satisfied
        return (not sat.get("arthurs_kelly", True)
                and sat.get("hall", False) and sat.get("ozawa", False)
                and sat.get("new", False))

    @property
    def passed(self) -> bool:
        return (self.oracle_max_diff <= 1e-9
                and self.y_inaccuracy_max_diff <= 1e-9
                and self.dispersion_max_residual <= 1e-9
                and all(self.violations[k] == 0 for k in ("hall", "ozawa", "new"))
                and self.ak_violations > 0
                and self.reference_ok
                and self.chain_violations == 0
                and self.chain_min_slack >= -MARGIN_TOL
                and self.ordering_violations == 0
                and self.gap_checked > 0
                and self.gap_max_residual <= 1e-9)

    def to_dict(self) -> dict:
        # elapsed time is deliberately left out: identical config + seed must
        # serialise byte-identically
        return {
            "trials": self.trials, "seed": self.seed,
            "oracle_max_diff": self.oracle_max_diff,
            "y_inaccuracy_max_diff": self.y_inaccuracy_max_diff,
            "dispersion_max_residual": self.dispersion_max_residual,
            "min_margins": dict(self.min_margins),
            "violations": dict(self.violations),
            "ak_violations": self.ak_violations,
            "reference_satisfied": dict(self.reference_satisfied),
            "chain_min_slack": self.chain_min_slack,
            "chain_violations": self.chain_violations,
            "ordering_violations": self.ordering_violations,
            "gap_checked": self.gap_checked,
            "gap_max_residual": self.gap_max_residual,
            "passed": self.passed,
        }

    def summary_lines(self) -> list[str]:
        def ok(flag):
            return "OK" if flag else "FAIL"

        lines = [
            f"trials: {self.trials}  seed: {self.seed}  ({self.elapsed_s:.1f} s)",
            f"statistics vs direct operator values: max |diff| = "
            f"{self.oracle_max_diff:.3e} (limit 1e-9) "
            f"{ok(self.oracle_max_diff <= 1e-9)}",
            f"y inaccuracy vs dilated projective estimate: max |diff| = "
            f"{self.y_inaccuracy_max_diff:.3e} (limit 1e-9) "
            f"{ok(self.y_inaccuracy_max_diff <= 1e-9)}",
            f"dispersion identity, optimal estimate: max |residual| = "
            f"{self.dispersion_max_residual:.3e} (limit 1e-9) "
            f"{ok(self.dispersion_max_residual <= 1e-9)}",
        ]
        for name in ("hall", "ozawa", "new"):
            lines.append(
                f"{name}: {self.violations[name]} violations "
                f"(worst margin {self.min_margins[name]:+.6f}) "
                f"{ok(self.violations[name] == 0)}")
        lines.append(
            f"arthurs_kelly: {self.ak_violations} scenarios below the bound "
            f"(violations expected) {ok(self.ak_violations > 0)}")
        lines.append(
            f"reference scenario: arthurs_kelly "
            f"{'violated' if not self.reference_satisfied.get('arthurs_kelly', True) else 'NOT violated'}, "
            f"others {'hold' if all(self.reference_satisfied.get(k, False) for k in ('hall', 'ozawa', 'new')) else 'BROKEN'} "
            f"{ok(self.reference_ok)}")
        lines.append(
            f"derivation chain: {self.chain_violations} broken links "
            f"(min slack {self.chain_min_slack:+.3e}) "
            f"{ok(self.chain_violations == 0 and self.chain_min_slack >= -MARGIN_TOL)}")
        lines.append(
            f"strength ordering, optimal estimates: {self.ordering_violations} "
            f"violations; gap closed form checked {self.gap_checked}x, max "
            f"residual {self.gap_max_residual:.3e} "
            f"{ok(self.ordering_violations == 0 and self.gap_max_residual <= 1e-9)}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _oracle_diff(rho: DensityMatrix, slide: SemiweakSlide, w: BlochObservable,
                 dist: JointDistribution, estimators: dict[str, Estimator],
                 eps_stats: dict[str, float]) -> float:
    """Worst disagreement between the statistics path and direct traces."""
    system = DilatedSystem.two_qubit(rho)
    x_members = list(zip((+1.0, -1.0), projector_pair(pauli("X"))))
    w_members = list(zip((+1.0, -1.0), projector_pair(w.as_operator())))
    system.register_family("x", x_members, (0,))
    system.register_family("w", w_members, (1,))
    system.register("x1", pauli("X"), (0,))

    worst = 0.0
    mh_stat = mh_from_counts(dist, slide)
    mh_direct = direct_margenau_hill(system, "x", "w")
    for key, val in mh_stat.entries.items():
        worst = max(worst, abs(val - mh_direct.entries[key]))
    for kind, est in estimators.items():
        name = f"est_{kind}"
        system.register(name, est.as_operator(w), (1,))
        worst = max(worst, abs(eps_stats[kind] - direct_inaccuracy(system, "x1", name)))
    return worst


def run_verification(trials: int = 10_000, seed: int = 42) -> VerificationResult:
    """Randomized suite behind the `verify` mode and the acceptance tests.

    Per trial (random full-rank state, slide, W direction): compare the
    statistics pipeline against direct operator traces; check the dispersion
    identity for the optimal estimate; evaluate all four relations for both
    estimator kinds; check the averaged-spread derivation chain on a dilated
    commuting construction (random custom estimators on odd trials); and
    compare the strength ordering plus its closed-form gap for the optimal
    estimate.
    """
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()

    oracle_max = 0.0
    y_inacc_max = 0.0
    dispersion_max = 0.0
    min_margins = {name: math.inf for name in ("arthurs_kelly", "hall", "ozawa", "new")}
    violations = {name: 0 for name in ("hall", "ozawa", "new")}
    ak_violations = 0
    chain_min_slack = math.inf
    chain_violations = 0
    ordering_violations = 0
    gap_checked = 0
    gap_max = 0.0

    for trial in range(trials):
        rho = random_state(rng)
        slide = random_slide(rng)
        w = random_observable(rng)
        dist = joint_distribution(rho, slide, w)

        eps_b = inaccuracy_y(slide)
        delta_a = spread(_X1, rho)
        delta_b = spread(_Y1, rho)
        delta_b_est = y_estimator_spread(dist)
        c = commutator_bound(_X1, _Y1, rho)

        estimators = {"simple": Estimator.simple(),
                      "optimal": optimal_estimator(rho, w)}
        eps_stats = {}
        for kind, est in estimators.items():
            eps_a = inaccuracy_x(dist, slide, est)
            eps_stats[kind] = eps_a
            d_est = estimator_spread(dist, est)
            report = evaluate_relations(
                eps_a=eps_a, eps_b=eps_b, delta_a=delta_a, delta_b=delta_b,
                delta_a_est=d_est, delta_b_est=delta_b_est, c=c,
                scenario={"estimator": kind})
            margins = report.margins()
            for name, margin in margins.items():
                min_margins[name] = min(min_margins[name], margin)
            for name in ("hall", "ozawa", "new"):
                if margins[name] < -MARGIN_TOL:
                    violations[name] += 1
            if margins["arthurs_kelly"] < -MARGIN_TOL:
                ak_violations += 1

            if kind == "optimal":
                dispersion_max = max(
                    dispersion_max,
                    abs(eps_a ** 2 + d_est ** 2 - delta_a ** 2))
                try:
                    ordering = strength_comparison(report)
                except RelationViolationError:
                    ordering_violations += 1
                else:
                    if ordering.gap_residual is not None:
                        gap_checked += 1
                        gap_max = max(gap_max, ordering.gap_residual)

        oracle_max = max(oracle_max,
                         _oracle_diff(rho, slide, w, dist, estimators, eps_stats))

        if trial % 2 == 0:
            chain_est = estimators["optimal"]
        else:
            f_plus, f_minus = rng.uniform(-2.0, 2.0, size=2)
            chain_est = Estimator.custom(float(f_plus), float(f_minus))
        chain = dilated_chain(rho, slide, w, chain_est)
        chain_min_slack = min(chain_min_slack, chain.min_slack)
        if not chain.holds:
            chain_violations += 1
        y_inacc_max = max(y_inacc_max, abs(chain.eps_b - eps_b))

    ref = simulate_scenario(*reference_scenario(), estimator="optimal")

    return VerificationResult(
        trials=trials, seed=seed, elapsed_s=time.perf_counter() - t0,
        oracle_max_diff=oracle_max,
        y_inaccuracy_max_diff=y_inacc_max,
        dispersion_max_residual=dispersion_max,
        min_margins=min_margins, violations=violations,
        ak_violations=ak_violations,
        reference_satisfied=ref.report.satisfied,
        chain_min_slack=chain_min_slack, chain_violations=chain_violations,
        ordering_violations=ordering_violations,
        gap_checked=gap_checked, gap_max_residual=gap_max)
