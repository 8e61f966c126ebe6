"""High-level pipelines: simulate a scenario, analyze a measured table,
sweep the analyser angle, and run the randomized verification suite.

Observable A is always X on qubit 1, estimated from the W outcome on
qubit 2; observable B is Y on qubit 1, estimated by the semiweak slide's
own outcome.  Everything downstream (inaccuracies, spreads, the four
relations) is expressed through those two estimates.
"""

from __future__ import annotations

import functools
import math
import time
from collections import deque
from dataclasses import asdict
from itertools import repeat
from operator import setitem

import numpy as np

from .estimate import (
    Estimator,
    estimate_spreads,
    mh_tables,
    optimal_values,
    quasi_mass_checks,
    w_marginals,
    x_inaccuracies,
    y_inaccuracies,
    y_spreads,
)
from .oracle import dilated_moments, direct_moments, w_moments
from .qcore import (
    SIMULATED_NORM,
    BlochObservable,
    Check,
    DensityMatrix,
    _row_sums,
    bloch_vectors,
    correlations,
    frozen_dataclass,
    run_checks,
    run_kernel,
    state_stack,
    xy_statistics,
)
from .relations import (
    MARGIN_TOL,
    RELATION_NAMES,
    UNIVERSAL_RELATIONS,
    RelationChain,
    RelationReport,
    _chain_links,
    chain_item,
    relation_lhs,
    strength_orderings,
)
from .scenario import (
    SIGNS,
    JointDistribution,
    SemiweakSlide,
    SlideArrays,
    epr_state,
    joint_distribution,
    joint_tables,
    povm_elements,
    slide_arrays,
    slide_model,
)

# the hardware operating point the bundled measured tables come from
REFERENCE_GAMMA_DEG = 22.5
REFERENCE_R_H = 0.1244
REFERENCE_R_V = 0.4645
ESTIMATOR_KINDS = ("simple", "optimal")


def reference_scenario() -> tuple[DensityMatrix, SemiweakSlide, BlochObservable]:
    """Source at gamma = 22.5 deg, slide at (0.1244, 0.4645), W = X on qubit 2."""
    return (epr_state(math.radians(REFERENCE_GAMMA_DEG)),
            slide_model(REFERENCE_R_H, REFERENCE_R_V),
            BlochObservable.from_degrees(90.0, 180.0))


def simulate_scenario(rho: DensityMatrix, slide: SemiweakSlide, w: BlochObservable,
                      estimator: str = "optimal",
                      scenario_info: dict | None = None) -> RelationReport:
    """Simulate the joint measurement and evaluate all four relations."""
    return _scenario_results(rho, (estimator,), joint_distribution(rho, slide, w),
                             slide=slide, w=w, scenario_info=scenario_info)[0]


def _meta_float(dist: JointDistribution, key: str) -> float:
    if key not in dist.metadata:
        raise ValueError(
            f"outcome table lacks {key!r} metadata; add a '# {key}=<value>' line to "
            f"the table, or give analyze_measured its slide and w")
    try:
        return float(dist.metadata[key])
    except ValueError as exc:
        raise ValueError(f"outcome table metadata {key!r} must be a number, "
                         f"got {dist.metadata[key]!r}") from exc


def analyze_measured(dist: JointDistribution, rho: DensityMatrix,
                     estimator: str = "optimal",
                     slide: SemiweakSlide | None = None,
                     w: BlochObservable | None = None) -> RelationReport:
    """Relation report for a measured outcome table plus a tomographic state.

    Inaccuracy and estimator spreads come from the counts; the intrinsic
    spreads and the commutator bound come from the tomographic state.  The
    slide reflectivities and the W angles default to the table's metadata.
    """
    return _scenario_results(rho, (estimator,), dist, slide=slide, w=w)[0]


def _statistics(rho: np.ndarray, t: np.ndarray, slides: SlideArrays, n: np.ndarray,
                p: np.ndarray, kinds, checks: list[Check],
                atol: float = SIMULATED_NORM + 1e-12) -> dict:
    """The statistics group of N scenarios in one array pass: states
    ``rho[N, 4, 4]`` and their correlation tensors ``t``, ``slides``,
    directions ``n[N, 3]`` and the outcome tables ``p[N, m, y, w]``,
    simulated or measured, whose quasi-tables must sum to 1 within ``atol``;
    a ``[1]`` state or slide is shared by all N.  Returns their
    Margenau-Hill tables mh ``[N, x, w]``, arrays ``[N]``: eps_y, delta_x,
    delta_y, delta_y_est and c, and, along an axis of the K estimator
    ``kinds``, f ``[N, K, w]``, eps_x and delta_x_est ``[N, K]``.

    The checks are queued on ``checks`` in one order per scenario, after
    the table checks its caller queued: for each kind f, the mh mass,
    eps(X), Delta X, Delta Y, Delta_est(X) and Delta_est(Y).  The relation inputs need no gate of
    their own: once the tables are finite, each is ``sqrt(max(., 0))`` or
    ``abs(.)`` of gated finite values, or ``sqrt(2 kappa)``.  A shared state
    is reduced once, at N = 1, and its values and check flags are broadcast.
    """
    for kind in kinds:
        if kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {kind!r} (use 'simple' or 'optimal')")
    size = len(n)

    def per_scenario(values: np.ndarray) -> np.ndarray:
        # the [1] values of a shared state or slide, at each of the N indices
        return values if len(values) == size else np.broadcast_to(values, (size,))

    spread_checks: list[Check] = []
    y_est_checks: list[Check] = []
    delta_a, delta_b, c = map(per_scenario, xy_statistics(rho, spread_checks))
    eps_b = per_scenario(y_inaccuracies(slides))
    delta_b_est = y_spreads(p, y_est_checks)
    # a shared state's flags are set at every index or at none, so run_checks
    # fires them at index 0, the one index their [1] values have
    spread_checks = [(per_scenario(bad), fire) for bad, fire in spread_checks]
    mh, marginals = mh_tables(p, slides), w_marginals(p)
    mass_checks = quasi_mass_checks(_row_sums(mh.reshape(-1, 4)), atol)
    f = np.empty((size, len(kinds), 2))
    eps_a, delta_a_est = np.empty((2, size, len(kinds)))
    # each kind's checks, queued in the order of a pass over that kind alone
    for k, kind in enumerate(kinds):
        f[:, k] = SIGNS if kind == "simple" else optimal_values(t, n, checks)
        checks += mass_checks
        eps_a[:, k] = x_inaccuracies(mh, f[:, k], checks)
        checks += spread_checks
        delta_a_est[:, k] = estimate_spreads(marginals, f[:, k], checks)
        checks += y_est_checks
    return {"mh": mh, "eps_y": eps_b, "delta_x": delta_a, "delta_y": delta_b, "c": c,
            "delta_y_est": delta_b_est, "f": f, "eps_x": eps_a, "delta_x_est": delta_a_est}


def _statistics_lhs(stats: dict) -> tuple:
    """The four left-hand sides ``[N, K]``, in RELATION_NAMES order, of the
    columns of a :func:`_statistics` pass."""
    return relation_lhs(stats["eps_x"], *(stats[key][:, None] for key in (
        "eps_y", "delta_x", "delta_y")), stats["delta_x_est"], stats["delta_y_est"][:, None])


def _scenario_results(rho: DensityMatrix, kinds, dist: JointDistribution, *,
                      slide: SemiweakSlide | None = None,
                      w: BlochObservable | None = None,
                      scenario_info: dict | None = None) -> list[RelationReport]:
    """One scenario's report for each estimator kind in ``kinds``, from one
    :func:`_statistics` pass over the outcome table ``dist``, simulated or
    measured; ``slide`` and ``w`` default to the table's metadata."""
    if slide is None:
        slide = slide_model(_meta_float(dist, "r_h"), _meta_float(dist, "r_v"))
    if w is None:
        w = BlochObservable.from_degrees(_meta_float(dist, "theta_deg"),
                                         _meta_float(dist, "phi_deg"))
    mats = state_stack(rho)
    stats = run_kernel(_statistics, mats, correlations(mats), slide.arrays, w.vector[None],
                       dist.table[None], kinds, atol=dist.mass_tolerance + 1e-12)
    eps_b, delta_a, delta_b, delta_b_est, c = (
        float(stats[key][0]) for key in ("eps_y", "delta_x", "delta_y", "delta_y_est", "c"))
    return [RelationReport(
                eps_a, eps_b, delta_a, delta_b, delta_a_est, delta_b_est, c,
                scenario={"source": dist.provenance, "estimator": kind,
                          "theta_deg": w.theta_deg, "phi_deg": w.phi_deg,
                          "r_h": slide.r_h, "r_v": slide.r_v, **(scenario_info or {})})
            for kind, eps_a, delta_a_est in zip(
                kinds, *(stats[key][0].tolist() for key in ("eps_x", "delta_x_est")))]


def sweep_phi(rho: DensityMatrix, slide: SemiweakSlide, phi_degs,
              theta_deg: float = 90.0,
              estimators: tuple[str, ...] = ESTIMATOR_KINDS) -> list[dict]:
    """One row per analyser angle with relation curves for each estimator.

    Common columns: phi_deg, theta_deg, c, bound, delta_x, delta_y, eps_y,
    delta_y_est.  Per estimator kind: eps_x_<kind>, delta_x_est_<kind>,
    dispersion_rss_<kind> (= sqrt(eps^2 + spread^2), which matches delta_x
    for the optimal estimator), and the four lhs_*_<kind> columns.

    All angles go through the array kernels in one pass, whose short
    reductions run down whole ``[N]`` columns in numpy's own order.  With
    one state and one slide, theta_deg, c, bound, delta_x, delta_y and
    eps_y hold one value at every angle; they are taken once into a
    template row, and each row is one copy of it.  The angle columns are
    then set one column at a time, from one ``tolist()`` each.  A row
    matches :func:`simulate_scenario` at its angle to about 1e-13, not bit
    for bit: the matrix products behind the tables take another path for
    one direction than for many.  A 3600-angle sweep costs milliseconds
    here; emitting its rows costs over ten times as much (ROADMAP item 3).
    Every angle gets the checks of the single-scenario path, its finiteness
    first, and the error raised is the one the first offending angle gives,
    with the same type and message.
    """
    mats = state_stack(rho)
    phis = np.array([float(phi) for phi in phi_degs])
    if phis.size == 0:
        return []
    checks: list[Check] = []
    n, t = bloch_vectors(math.radians(theta_deg), np.radians(phis), checks), correlations(mats)
    p = joint_tables(t, slide.arrays, n, checks)
    stats = _statistics(mats, t, slide.arrays, n, p, estimators, checks)
    run_checks(checks)
    # one state and one slide: these columns hold one value at every angle
    c = float(stats["c"][0])
    template = {"phi_deg": None, "theta_deg": float(theta_deg), "c": c, "bound": c / 2.0,
                **{key: float(stats[key][0]) for key in ("delta_x", "delta_y", "eps_y")}}
    columns = {"phi_deg": phis, "delta_y_est": stats["delta_y_est"]}
    eps_a, d_est = stats["eps_x"], stats["delta_x_est"]
    rss, lhs = np.sqrt(eps_a ** 2 + d_est ** 2), _statistics_lhs(stats)
    for k, kind in enumerate(estimators):
        columns.update({
            f"eps_x_{kind}": eps_a[:, k], f"delta_x_est_{kind}": d_est[:, k],
            f"dispersion_rss_{kind}": rss[:, k],
            **{f"lhs_{name}_{kind}": val[:, k]
               for name, val in zip(RELATION_NAMES, lhs)}})
    template.update(dict.fromkeys(columns))
    rows = [template.copy() for _ in range(phis.size)]
    for key, values in columns.items():
        # set one column in every row, the loop running in C
        deque(map(setitem, rows, repeat(key), values.tolist()), maxlen=0)
    return rows


# ---------------------------------------------------------------------------
# randomized verification suite
# ---------------------------------------------------------------------------

# Trials per array block of run_verification: large enough to spread numpy's
# per-call cost thin, small enough to keep peak memory flat at any count.
_BLOCK = 1024


# Ranges of the random scenarios: reflectivities (kept at least
# _MIN_REFLECTIVITY_SPLIT apart), cos(theta) and phi of the W direction, and
# the custom X estimates of the derivation chains on odd trials.
_REFLECTIVITIES = (0.02, 0.98)
_MIN_REFLECTIVITY_SPLIT = 0.01
_COS_THETA = (-1.0, 1.0)
_PHI = (0.0, 2.0 * math.pi)
_CUSTOM_ESTIMATES = (-2.0, 2.0)


def _scaled(u, bounds: tuple[float, float]):
    """Map uniforms ``u`` in [0, 1) onto ``bounds`` as ``Generator.uniform``
    does, so the values equal its draws from the same stream."""
    low, high = bounds
    return low + (high - low) * u


def _state_matrices(g: np.ndarray) -> np.ndarray:
    """``rho = G G^dag / tr(G G^dag)`` for a matrix or stack ``G``."""
    mat = g @ g.conj().swapaxes(-1, -2)
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def random_state(rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state rho = G G^dag / tr(G G^dag), G complex Gaussian."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return DensityMatrix(_state_matrices(g))


def random_slide(rng: np.random.Generator) -> SemiweakSlide:
    """Reflectivities in [0.02, 0.98], kept at least 0.01 apart."""
    while True:
        r_h, r_v = rng.uniform(*_REFLECTIVITIES, size=2)
        if abs(r_h - r_v) >= _MIN_REFLECTIVITY_SPLIT:
            return slide_model(float(r_h), float(r_v))


def random_observable(rng: np.random.Generator) -> BlochObservable:
    """Direction uniform on the sphere."""
    theta = math.acos(float(rng.uniform(*_COS_THETA)))
    return BlochObservable(theta, float(rng.uniform(*_PHI)))


def dilated_chains(rho: np.ndarray, slides: SlideArrays, moments: np.ndarray, f: np.ndarray,
                   eps_a: np.ndarray) -> RelationChain:
    """Check every link of the averaged-spread derivation on commuting
    projective estimators on (q1, q2, ancilla) for N scenarios -- states
    ``rho[N, 4, 4]``, N ``slides`` (one per state: a slide is not shared),
    the W moments ``moments[N, 2, w]`` (:func:`oracle.w_moments`), X
    estimates ``f[N, w]`` and their inaccuracies ``eps_a[N]``, as
    :func:`oracle.direct_moments` gives them; the chain's fields are arrays
    ``[N]``, with the moments on q1 and (q1, ancilla) from :func:`oracle.dilated_moments`."""
    ev_ab, ev_a_be, eps_b, *spreads = dilated_moments(rho, povm_elements(slides), moments, f)
    # A_est acts on q2, B and B_est on (q1, ancilla): [A_est, B] and [A_est, B_est] are 0
    zero = np.zeros(len(rho))
    return _chain_links(ev_ab, ev_a_be, zero, zero, zero, eps_a, eps_b, *spreads)


def dilated_chain(rho: DensityMatrix, slide: SemiweakSlide, w: BlochObservable,
                  est: Estimator) -> RelationChain:
    """Build commuting projective estimators on (q1, q2, ancilla) and check
    every link of the averaged-spread derivation on them
    (:func:`dilated_chains` for one scenario)."""
    mats, f = state_stack(rho), est.array[None]
    moments = w_moments(mats, w.vector[None])
    eps_a = direct_moments(moments, f[:, None])[1][:, 0]
    return chain_item(dilated_chains(mats, slide.arrays, moments, f, eps_a), 0)


@frozen_dataclass
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
        """The reference scenario must break AK and satisfy the universal relations."""
        sat = self.reference_satisfied
        return (not sat.get("arthurs_kelly", True)
                and all(sat.get(name, False) for name in UNIVERSAL_RELATIONS))

    def _gates(self) -> list[tuple[str, bool]]:
        """Each gate of the battery as its summary line and whether it
        holds, in summary order."""
        sat = self.reference_satisfied
        others = all(sat.get(name, False) for name in UNIVERSAL_RELATIONS)
        return [
            (f"statistics vs direct operator values: max |diff| = "
             f"{self.oracle_max_diff:.3e} (limit 1e-9)", self.oracle_max_diff <= 1e-9),
            (f"y inaccuracy vs dilated projective estimate: max |diff| = "
             f"{self.y_inaccuracy_max_diff:.3e} (limit 1e-9)",
             self.y_inaccuracy_max_diff <= 1e-9),
            (f"dispersion identity, optimal estimate: max |residual| = "
             f"{self.dispersion_max_residual:.3e} (limit 1e-9)",
             self.dispersion_max_residual <= 1e-9),
            *((f"{name}: {self.violations[name]} violations "
               f"(worst margin {self.min_margins[name]:+.6f})", self.violations[name] == 0)
              for name in UNIVERSAL_RELATIONS),
            (f"arthurs_kelly: {self.ak_violations} scenarios below the bound "
             f"(violations expected)", self.ak_violations > 0),
            (f"reference scenario: arthurs_kelly "
             f"{'NOT violated' if sat.get('arthurs_kelly', True) else 'violated'}, "
             f"others {'hold' if others else 'BROKEN'}", self.reference_ok),
            # a chain is broken when its smallest slack is below -MARGIN_TOL
            (f"derivation chain: {self.chain_violations} broken links "
             f"(min slack {self.chain_min_slack:+.3e})", self.chain_violations == 0),
            (f"strength ordering, optimal estimates: {self.ordering_violations} "
             f"violations; gap closed form checked {self.gap_checked}x, max "
             f"residual {self.gap_max_residual:.3e}",
             self.ordering_violations == 0 and self.gap_checked > 0
             and self.gap_max_residual <= 1e-9),
        ]

    @property
    def passed(self) -> bool:
        return all(holds for _, holds in self._gates())

    def to_dict(self) -> dict:
        # elapsed time is deliberately left out: identical config + seed must
        # serialise byte-identically
        out = asdict(self)
        del out["elapsed_s"]
        out["passed"] = self.passed
        return out

    def summary_lines(self) -> list[str]:
        return [f"trials: {self.trials}  seed: {self.seed}  ({self.elapsed_s:.1f} s)",
                *(f"{text} {'OK' if holds else 'FAIL'}" for text, holds in self._gates()),
                f"overall: {'PASS' if self.passed else 'FAIL'}"]


def _draw_block(rng: np.random.Generator, first: int, count: int):
    """The raw draws of trials ``first .. first + count - 1`` in the RNG
    order of one trial after another: the state's G, the reflectivities,
    the W angles and, on odd trials, the custom estimate (NaN elsewhere).

    Each trial takes two generator calls: the normals of G, written in place
    by ``standard_normal`` (the draws of ``normal(size=...)``), then the
    uniforms of the rest in one ``random`` call, mapped onto their ranges as
    ``Generator.uniform`` maps them.  A rejected reflectivity pair shifts
    the uniforms by two and draws two more.  The values equal those of
    :func:`random_state`, :func:`random_slide`, :func:`random_observable`
    and ``uniform(-2, 2, size=2)`` called in turn on the same stream.
    """
    normals = np.empty((count, 2, 4, 4))
    standard_normal, random = rng.standard_normal, rng.random
    low, span = _REFLECTIVITIES[0], _REFLECTIVITIES[1] - _REFLECTIVITIES[0]
    rows = []
    for k in range(count):
        standard_normal(out=normals[k])
        u = random(6 if (first + k) & 1 else 4).tolist()
        while abs((low + span * u[0]) - (low + span * u[1])) < _MIN_REFLECTIVITY_SPLIT:
            u = u[2:] + random(2).tolist()
        rows.append(u if len(u) == 6 else u + [math.nan, math.nan])
    uniforms = np.array(rows).reshape(count, 6)
    theta = [math.acos(c) for c in _scaled(uniforms[:, 2], _COS_THETA).tolist()]
    return (normals[:, 0] + 1j * normals[:, 1],
            _scaled(uniforms[:, :2], _REFLECTIVITIES),
            np.stack([np.array(theta), _scaled(uniforms[:, 3], _PHI)], axis=1),
            _scaled(uniforms[:, 4:], _CUSTOM_ESTIMATES))


def _verify_block(g: np.ndarray, refl: np.ndarray, angles: np.ndarray,
                  custom: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of the randomized suite in array passes: the maxima, minima
    and counts :func:`run_verification` folds over blocks.  Raises what the
    first offending trial raises alone."""
    # G G^dag / tr is Hermitian, unit-trace and PSD by construction, so the
    # states need no density check of their own
    rho = _state_matrices(g)
    checks: list[Check] = []
    t, slides = correlations(rho), slide_arrays(refl[:, 0], refl[:, 1])
    n = bloch_vectors(angles[:, 0], angles[:, 1], checks)
    p = joint_tables(t, slides, n, checks)
    stats = _statistics(rho, t, slides, n, p, ESTIMATOR_KINDS, checks)
    opt = ESTIMATOR_KINDS.index("optimal")
    eps_opt, delta_a, lhs = stats["eps_x"][:, opt], stats["delta_x"], _statistics_lhs(stats)

    # [N x kind, relation]
    margins = (np.stack(lhs, axis=-1)
               - (stats["c"] / 2.0)[:, None, None]).reshape(-1, len(RELATION_NAMES))
    dispersion = np.abs(eps_opt ** 2 + stats["delta_x_est"][:, opt] ** 2 - delta_a ** 2)
    new_le_hall, new_le_ozawa, in_domain, gap = strength_orderings(
        eps_opt, stats["eps_y"], delta_a, stats["delta_y"],
        *(val[:, opt] for val in lhs[1:]))
    ordered = new_le_hall & new_le_ozawa
    gap = gap[ordered & in_domain]

    # one W-moment pass serves the oracle and the chain, whose X estimate is
    # one more column of the oracle's, so its inaccuracy is formed once
    moments = w_moments(rho, n)
    chain_f = np.where(np.isnan(custom), stats["f"][:, opt], custom)
    mh_direct, eps_direct = direct_moments(
        moments, np.concatenate([stats["f"], chain_f[:, None]], axis=1))
    oracle = np.maximum(np.abs(stats["mh"] - mh_direct).max(axis=(1, 2)),
                        np.abs(stats["eps_x"] - eps_direct[:, :-1]).max(axis=1))

    run_checks(checks)
    chains = dilated_chains(rho, slides, moments, chain_f, eps_direct[:, -1])
    y_inaccuracy, slack = np.abs(chains.eps_b - stats["eps_y"]), chains.min_slack
    return (np.array([np.max(values, initial=0.0)
                      for values in (oracle, y_inaccuracy, dispersion, gap)]),
            np.append(margins.min(axis=0, initial=math.inf), np.min(slack, initial=math.inf)),
            np.array([*(margins < -MARGIN_TOL).sum(axis=0),
                      np.sum(~(slack >= -MARGIN_TOL)), np.sum(~ordered), gap.size]))


@functools.cache
def _reference_flags() -> tuple[tuple[str, bool], ...]:
    """The reference scenario's relation flags with the optimal estimate,
    simulated once per process; :func:`run_verification` gives each result
    its own dict of them."""
    return tuple(simulate_scenario(*reference_scenario(), estimator="optimal").satisfied.items())


def run_verification(trials: int = 10_000, seed: int = 42) -> VerificationResult:
    """Randomized suite behind the `verify` mode and the acceptance tests.

    Per trial (random full-rank state, slide, W direction): compare the
    statistics pipeline against direct operator traces; check the dispersion
    identity for the optimal estimate; evaluate all four relations for both
    estimator kinds; check the averaged-spread derivation chain on a dilated
    commuting construction (random custom estimators on odd trials); and
    compare the strength ordering plus its closed-form gap for the optimal
    estimate.

    Trials run in array blocks, drawn trial by trial in the RNG order of a
    one-trial-at-a-time loop, so a seed gives the same scenarios.  Every
    trial gets the statistics checks, raising what the first offending
    trial raises alone; the gates that cannot fire on drawn scenarios, the
    chain's commutation gate among them, live in the one-scenario views.  A
    negative trial count or seed raises ``ValueError``; zero trials give an
    empty run, which does not pass.
    """
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    # each block's maxima, minima and counts (unpacked below), folded as the
    # blocks run: max, min and sum give the same result in any order
    most, least = np.zeros(4), np.full(len(RELATION_NAMES) + 1, math.inf)
    counts = np.zeros(len(RELATION_NAMES) + 3, dtype=np.int64)
    for first in range(0, trials, _BLOCK):
        block_most, block_least, block_counts = _verify_block(
            *_draw_block(rng, first, min(_BLOCK, trials - first)))
        most, least = np.maximum(most, block_most), np.minimum(least, block_least)
        counts += block_counts
    oracle, y_inaccuracy, dispersion, gap_residual = most.tolist()
    *min_margins, chain_min_slack = least.tolist()
    *negative, broken, disordered, gaps = counts.tolist()

    return VerificationResult(
        trials=trials, seed=seed, elapsed_s=time.perf_counter() - t0,
        oracle_max_diff=oracle, y_inaccuracy_max_diff=y_inaccuracy,
        dispersion_max_residual=dispersion,
        min_margins=dict(zip(RELATION_NAMES, min_margins)),
        violations={name: count for name, count in zip(RELATION_NAMES, negative)
                    if name in UNIVERSAL_RELATIONS},
        ak_violations=negative[RELATION_NAMES.index("arthurs_kelly")],
        reference_satisfied=dict(_reference_flags()),
        chain_min_slack=chain_min_slack, chain_violations=broken,
        ordering_violations=disordered, gap_checked=gaps, gap_max_residual=gap_residual)
