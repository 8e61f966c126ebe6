"""End-to-end flows: simulate, analyze measured tables, sweeps, verification."""

import dataclasses
import json
import math

import numpy as np
import pytest

from jointmeas import (
    BlochObservable,
    DataValidationError,
    DensityMatrix,
    Estimator,
    JointDistribution,
    NumericalCorruptionError,
    UndefinedEstimateError,
    analyze_measured,
    bundled_distribution,
    bundled_state,
    dilated_chain,
    dispersion_check,
    epr_state,
    estimator_spread,
    evaluate_relations,
    inaccuracy_x,
    inaccuracy_y,
    joint_distribution,
    optimal_estimator,
    pauli,
    random_observable,
    random_slide,
    random_state,
    reference_scenario,
    run_verification,
    simulate_scenario,
    slide_model,
    spread,
    sweep_phi,
    tensor,
)
from jointmeas.cli import main
from jointmeas.estimate import y_spreads
from jointmeas.qcore import commutator_bounds
from jointmeas.scenario import TRIPLES
from jointmeas.workflow import _scenario_results

EPS_OPT = 0.7071067811865474
EPS_B = 0.3869534460427547
BOUND = math.sqrt(2) / 2


def test_reference_scenario_components():
    rho, slide, w = reference_scenario()
    assert rho.dim == 4
    assert (slide.r_h, slide.r_v) == (0.1244, 0.4645)
    assert (w.theta_deg, w.phi_deg) == (90.0, 180.0)


def test_estimator_kinds():
    rho, slide, w = reference_scenario()
    assert Estimator.simple().kind == "simple"
    assert optimal_estimator(rho, w).kind == "optimal"
    for kind in ("simple", "optimal"):
        assert simulate_scenario(rho, slide, w, estimator=kind).scenario["estimator"] == kind
    with pytest.raises(ValueError, match="unknown estimator kind 'fancy'"):
        simulate_scenario(rho, slide, w, estimator="fancy")


def test_simulate_reference_optimal_goldens():
    rho, slide, w = reference_scenario()
    rep = simulate_scenario(rho, slide, w, estimator="optimal")
    assert rep.eps_a == pytest.approx(EPS_OPT, abs=1e-12)
    assert rep.eps_b == pytest.approx(EPS_B, abs=1e-12)
    assert rep.c == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep.lhs_ak == pytest.approx(0.2736174057003346, abs=1e-12)
    assert rep.lhs_hall == pytest.approx(1.2543415925872166, abs=1e-12)
    assert rep.lhs_ozawa == pytest.approx(1.3676776329296367, abs=1e-12)
    assert rep.lhs_new == pytest.approx(1.037392207058092, abs=1e-12)
    assert rep.satisfied == {"arthurs_kelly": False, "hall": True,
                             "ozawa": True, "new": True}
    assert abs(dispersion_check(rho, slide, w, optimal_estimator(rho, w)).residual) < 1e-12
    assert rep.scenario["estimator"] == "optimal"
    assert joint_distribution(rho, slide, w).provenance == "simulated"


def test_simulate_reference_simple_golden():
    rho, slide, w = reference_scenario()
    result = simulate_scenario(rho, slide, w, estimator="simple")
    assert result.eps_a == pytest.approx(0.7653668647301793, abs=1e-12)
    assert result.delta_a_est == pytest.approx(1.0, abs=1e-12)
    # the plain w -> w readout is not dispersion-optimal here
    assert dispersion_check(rho, slide, w, Estimator.simple()).residual > 0.5


def test_analyze_measured_goldens():
    dist = bundled_distribution(180.0)
    rho = bundled_state()
    opt = analyze_measured(dist, rho, estimator="optimal")
    assert opt.eps_a == pytest.approx(0.7453168224141986, abs=1e-12)
    assert opt.delta_a_est == pytest.approx(0.6455660547141046, abs=1e-12)
    simple = analyze_measured(dist, rho, estimator="simple")
    assert simple.eps_a == pytest.approx(0.8160631537212739, abs=1e-12)
    assert simple.delta_a_est == pytest.approx(0.9973340767483299, abs=1e-12)
    for rep in (opt, simple):
        assert rep.bound == pytest.approx(0.7104099649056512, abs=1e-12)
        assert rep.delta_a == pytest.approx(0.9992854478821844, abs=1e-12)
        assert rep.delta_b == pytest.approx(0.9985413731108188, abs=1e-12)
        assert rep.satisfied == {"arthurs_kelly": False, "hall": True,
                                 "ozawa": True, "new": True}
        assert rep.scenario["source"] == "measured"


def test_analyze_measured_requires_metadata():
    dist = bundled_distribution(180.0)
    stripped = dataclasses.replace(dist, metadata={})
    with pytest.raises(ValueError, match="lacks 'r_h'"):
        analyze_measured(stripped, bundled_state())
    # explicit slide and W sidestep the metadata entirely
    _, slide, w = reference_scenario()
    rep = analyze_measured(stripped, bundled_state(), slide=slide, w=w)
    assert rep.eps_a == pytest.approx(0.7453168224141986, abs=1e-12)


@pytest.mark.parametrize("metadata, message", [
    ({}, "outcome table lacks 'r_h' metadata; add a '# r_h=<value>' line to the table, "
         "or give analyze_measured its slide and w"),
    ({"r_h": "0.1244", "r_v": "abc"}, "outcome table metadata 'r_v' must be a number, "
                                      "got 'abc'"),
])
def test_unusable_metadata_is_a_data_validation_error(metadata, message):
    """A table whose metadata lacks a value, or holds one that is not a
    number, fails its validation as a parse error does: with the typed
    error of the file-format layer."""
    dist = dataclasses.replace(bundled_distribution(180.0), metadata=metadata)
    with pytest.raises(DataValidationError) as excinfo:
        analyze_measured(dist, bundled_state())
    assert str(excinfo.value) == message


def test_sweep_rows_and_ordering():
    rho, slide, _ = reference_scenario()
    phis = [135.0, 157.5, 180.0, 202.5, 225.0]
    rows = sweep_phi(rho, slide, phis)
    assert [row["phi_deg"] for row in rows] == phis
    for row in rows:
        assert row["theta_deg"] == 90.0
        assert row["bound"] == pytest.approx(BOUND, abs=1e-12)
        for kind in ("simple", "optimal"):
            assert row[f"lhs_new_{kind}"] <= row[f"lhs_hall_{kind}"] + 1e-9
            assert row[f"lhs_new_{kind}"] <= row[f"lhs_ozawa_{kind}"] + 1e-9
        # optimal estimates satisfy the dispersion identity at every angle
        assert row["dispersion_rss_optimal"] == pytest.approx(
            row["delta_x"], abs=1e-9)
    mid = rows[2]
    assert mid["eps_x_optimal"] == pytest.approx(EPS_OPT, abs=1e-12)
    assert mid["lhs_arthurs_kelly_optimal"] == pytest.approx(
        0.2736174057003346, abs=1e-12)


def test_sweep_single_estimator_columns():
    rho, slide, _ = reference_scenario()
    rows = sweep_phi(rho, slide, [180.0], estimators=("simple",))
    assert "eps_x_simple" in rows[0]
    assert "eps_x_optimal" not in rows[0]


def test_random_generators_are_deterministic():
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    assert np.allclose(random_state(a).matrix, random_state(b).matrix)
    sa, sb = random_slide(a), random_slide(b)
    assert (sa.r_h, sa.r_v) == (sb.r_h, sb.r_v)
    assert abs(sa.r_h - sa.r_v) >= 0.01
    wa, wb = random_observable(a), random_observable(b)
    assert (wa.theta_deg, wa.phi_deg) == (wb.theta_deg, wb.phi_deg)


def test_random_state_is_full_rank():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rho = random_state(rng)
        assert rho.min_eigenvalue > 1e-6
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_dilated_chain_reproduces_statistics():
    rho, slide, w = reference_scenario()
    chain = dilated_chain(rho, slide, w, optimal_estimator(rho, w))
    assert chain.holds
    assert chain.eps_a == pytest.approx(EPS_OPT, abs=1e-12)
    assert chain.eps_b == pytest.approx(math.sqrt(2 * slide.kappa), abs=1e-12)
    assert chain.c == pytest.approx(math.sqrt(2), abs=1e-12)
    assert chain.lhs_new >= chain.bound - 1e-9


def test_run_verification_small():
    result = run_verification(trials=60, seed=3)
    assert result.passed
    assert result.oracle_max_diff <= 1e-9
    assert result.y_inaccuracy_max_diff <= 1e-9
    assert result.dispersion_max_residual <= 1e-9
    assert result.violations == {"hall": 0, "ozawa": 0, "new": 0}
    assert result.ak_violations > 0
    assert result.chain_violations == 0
    assert result.gap_checked > 0
    lines = result.summary_lines()
    assert lines[-1] == "overall: PASS"
    assert any("arthurs_kelly" in line for line in lines)


def test_reference_flags_are_a_fresh_dict_per_result():
    """The reference flags are simulated once per process, but each result
    owns its dict: mutating one does not reach the next call."""
    want = simulate_scenario(*reference_scenario(), estimator="optimal").satisfied
    first = run_verification(trials=2, seed=4)
    second = run_verification(trials=0, seed=4)
    assert first.reference_satisfied == second.reference_satisfied == want
    assert first.reference_satisfied is not second.reference_satisfied
    first.reference_satisfied["arthurs_kelly"] = True
    del first.reference_satisfied["hall"]
    third = run_verification(trials=2, seed=4)
    assert third.reference_satisfied == second.reference_satisfied == want
    assert third.reference_ok


@pytest.mark.parametrize("trials", [-1, -5])
def test_run_verification_rejects_negative_trials(trials):
    with pytest.raises(ValueError, match="trials must not be negative"):
        run_verification(trials=trials, seed=3)


def test_run_verification_rejects_a_negative_seed():
    """Refused with the library's message, not that of numpy's generator."""
    with pytest.raises(ValueError, match=r"^seed must not be negative, got -1$"):
        run_verification(trials=10, seed=-1)


def test_verification_serialisation_is_deterministic():
    one = run_verification(trials=12, seed=9)
    two = run_verification(trials=12, seed=9)
    assert one.elapsed_s != two.elapsed_s or one.elapsed_s >= 0.0
    assert "elapsed" not in json.dumps(one.to_dict())
    assert json.dumps(one.to_dict(), sort_keys=True) == \
        json.dumps(two.to_dict(), sort_keys=True)


def test_verification_pass_logic():
    good = run_verification(trials=12, seed=9)
    assert good.passed and good.reference_ok
    bad = dataclasses.replace(good, ak_violations=0)
    assert not bad.passed
    worse = dataclasses.replace(good, violations={"hall": 1, "ozawa": 0, "new": 0})
    assert not worse.passed
    flipped = dataclasses.replace(
        good, reference_satisfied={"arthurs_kelly": True, "hall": True,
                                   "ozawa": True, "new": True})
    assert not flipped.reference_ok and not flipped.passed
    assert "FAIL" in flipped.summary_lines()[-1]


@pytest.fixture(scope="module")
def good_run():
    return run_verification(trials=12, seed=9)


@pytest.mark.parametrize("prefix, fields", [
    ("statistics vs direct operator values", {"oracle_max_diff": 2e-9}),
    ("y inaccuracy vs dilated", {"y_inaccuracy_max_diff": 2e-9}),
    ("dispersion identity", {"dispersion_max_residual": 2e-9}),
    ("hall:", {"violations": {"hall": 1, "ozawa": 0, "new": 0}}),
    ("ozawa:", {"violations": {"hall": 0, "ozawa": 1, "new": 0}}),
    ("new:", {"violations": {"hall": 0, "ozawa": 0, "new": 1}}),
    ("arthurs_kelly:", {"ak_violations": 0}),
    ("reference scenario", {"reference_satisfied": {
        "arthurs_kelly": True, "hall": True, "ozawa": True, "new": True}}),
    ("reference scenario", {"reference_satisfied": {
        "arthurs_kelly": False, "hall": True, "ozawa": False, "new": True}}),
    ("derivation chain", {"chain_violations": 1}),
    # a chain is broken exactly when its smallest slack is below -MARGIN_TOL,
    # so a negative min slack comes with a broken-chain count
    ("derivation chain", {"chain_violations": 2, "chain_min_slack": -2e-9}),
    ("strength ordering", {"ordering_violations": 1}),
    ("strength ordering", {"gap_checked": 0}),
    ("strength ordering", {"gap_max_residual": 2e-9}),
])
def test_each_gate_fails_its_own_summary_line(good_run, prefix, fields):
    """Breaking one gate turns exactly its summary line to FAIL and fails the
    run: the run passes only when every gate line reads OK."""
    good_lines = good_run.summary_lines()
    assert good_run.passed and good_lines[-1] == "overall: PASS"
    assert all(line.endswith(" OK") for line in good_lines[1:-1])
    bad = dataclasses.replace(good_run, **fields)
    lines = bad.summary_lines()
    failing = [line for line in lines[1:-1] if line.endswith(" FAIL")]
    assert len(failing) == 1 and failing[0].startswith(prefix)
    assert [line for line in lines[1:-1] if line.endswith(" OK")] == \
        [line for line in good_lines[1:-1] if not line.startswith(prefix)]
    assert not bad.passed and not bad.to_dict()["passed"]
    assert lines[-1] == "overall: FAIL"


X1 = tensor(pauli("X"), pauli("I"))
Y1 = tensor(pauli("Y"), pauli("I"))
KIND_ORDERS = [("simple", "optimal"), ("optimal", "simple"), ("simple",), ("optimal",)]
MEASURED_PHIS = (157.5, 180.0, 202.5, 225.0)  # phi = 135 fails its mass gate


def loop_report(rho, slide, w, dist, kind, info=None):
    """The per-kind pipeline that the shared pass replaced, from the public
    scalar functions and the y spread and c kernels at N = 1: every
    statistic recomputed for one kind."""
    est = Estimator.simple() if kind == "simple" else optimal_estimator(rho, w)
    return evaluate_relations(
        eps_a=inaccuracy_x(dist, slide, est), eps_b=inaccuracy_y(slide),
        delta_a=spread(X1, rho), delta_b=spread(Y1, rho),
        delta_a_est=estimator_spread(dist, est),
        delta_b_est=float(y_spreads(dist.table[None], [])[0]),
        c=float(commutator_bounds(X1, Y1, rho.matrix[None])[0]),
        scenario={"source": dist.provenance, "estimator": kind,
                  "theta_deg": w.theta_deg, "phi_deg": w.phi_deg,
                  "r_h": slide.r_h, "r_v": slide.r_v, **(info or {})})


def test_shared_pass_equals_per_kind_simulation():
    rng = np.random.default_rng(23)
    info = {"gamma_deg": 12.5}
    for trial in range(24):
        rho, slide, w = random_state(rng), random_slide(rng), random_observable(rng)
        kinds = KIND_ORDERS[trial % len(KIND_ORDERS)]
        dist = joint_distribution(rho, slide, w)
        shared = _scenario_results(rho, kinds, dist, slide=slide, w=w, scenario_info=info)
        assert [r.to_dict() for r in shared] == \
            [simulate_scenario(rho, slide, w, estimator=k, scenario_info=info).to_dict()
             for k in kinds] == \
            [loop_report(rho, slide, w, dist, k, info).to_dict() for k in kinds]
        assert [r.scenario["estimator"] for r in shared] == list(kinds)


def test_shared_pass_equals_per_kind_analysis():
    rho = bundled_state()
    _, slide, _ = reference_scenario()  # the bundled tables' reflectivities
    for phi in MEASURED_PHIS:
        dist = bundled_distribution(phi)
        w = BlochObservable.from_degrees(90.0, phi)
        for kinds in KIND_ORDERS:
            shared = [r.to_dict() for r in _scenario_results(rho, kinds, dist)]
            assert shared == [analyze_measured(dist, rho, estimator=k).to_dict()
                              for k in kinds]
            assert shared == [loop_report(rho, slide, w, dist, k).to_dict() for k in kinds]


def raised(error, *runs):
    """The messages of the ``error`` that each of ``runs`` raises."""
    messages = set()
    for run in runs:
        with pytest.raises(error) as info:
            run()
        messages.add(str(info.value))
    return messages


def test_shared_pass_raises_what_the_first_kind_raised():
    # |HV> with W = Z: the W outcome +1 never occurs, so the optimal
    # estimate is undefined; the simple kind is evaluated first and passes
    rho, slide = epr_state(0.0), slide_model(0.1244, 0.4645)
    w = BlochObservable.from_degrees(0.0, 0.0)
    dist = joint_distribution(rho, slide, w)
    kinds = ("simple", "optimal")
    assert raised(
        UndefinedEstimateError,
        lambda: [loop_report(rho, slide, w, dist, k) for k in kinds],
        lambda: [simulate_scenario(rho, slide, w, estimator=k) for k in kinds],
        lambda: _scenario_results(rho, kinds, dist, slide=slide, w=w),
    ) == {"W outcome +1 has probability 0.000e+00"}
    assert main(["simulate", "--gamma", "0", "--theta", "0", "--phi", "0"]) == 3

    # a measured table whose y = -1 entries sit just below zero breaks both
    # its y-outcome variance (kind-independent) and, for the simple kind,
    # its reconstructed eps^2; the per-kind loop met eps^2 first
    p = [0.1, 0.25, -2.5e-10, -2.5e-10, 0.1, 0.55, -2.5e-10, -2.5e-10]
    dist = JointDistribution(dict(zip(TRIPLES, p)), provenance="measured",
                             metadata={"r_h": 0.1244, "r_v": 0.4645,
                                       "theta_deg": 90.0, "phi_deg": 180.0})
    rho, (_, slide, w) = bundled_state(), reference_scenario()
    messages = raised(
        NumericalCorruptionError,
        lambda: [loop_report(rho, slide, w, dist, k) for k in kinds],
        lambda: [analyze_measured(dist, rho, estimator=k) for k in kinds],
        lambda: _scenario_results(rho, kinds, dist),
    )
    assert len(messages) == 1 and messages.pop().startswith("reconstructed eps^2")


def bloch_state(vector):
    """The 2x2 matrix (1 + v.s)/2; |v| > 1 gives a slightly negative
    eigenvalue, which a DensityMatrix accepts above its psd_floor."""
    return (np.eye(2) + np.tensordot(vector, [pauli(k).matrix for k in "XYZ"], axes=1)) / 2


def test_checks_run_in_one_order():
    """simulate, analyze and sweep check each scenario in one order: the
    table checks, then per kind f, eps(X), Delta X, Delta Y, Delta_est(X),
    Delta_est(Y) and the relation inputs.  Each input below breaks two of
    them, and the first in that order is the one raised."""
    slide = slide_model(0.1244, 0.4645)

    # simulate: <Y (x) 1> > 1 breaks Delta Y, and W = Z with p(w = -1) < 0
    # breaks the simple estimate's Delta_est(X)
    rho = DensityMatrix(np.kron(bloch_state([0.0, 1.0 + 1e-8, 0.0]),
                                bloch_state([0.0, 0.0, 1.0 + 2e-10])), psd_floor=1e-6)
    w = BlochObservable.from_degrees(0.0, 0.0)
    assert raised(
        NumericalCorruptionError,
        lambda: simulate_scenario(rho, slide, w, estimator="simple"),
    ) == {"variance -2.000e-08 below -1e-12"}

    # analyze: y = -1 entries just below zero break Delta_est(Y); the table
    # claims <X (x) 1> = 1.1, which the optimal estimate f = (1, 1) of qubit 1
    # in |+x> turns into a negative eps(X)^2, while the simple one's is 1
    xi_t, xi_r = slide.xi(+1), slide.xi(-1)
    p = {}
    for w_out, x_mean in ((+1, 0.8), (-1, 0.3)):
        # p(w) = 1/2 with sum_m xi_m p(m, +1, w) = x_mean
        p[(+1, +1, w_out)] = (x_mean - 0.5 * xi_r) / (xi_t - xi_r)
        p[(-1, +1, w_out)] = 0.5 - p[(+1, +1, w_out)]
        p[(+1, -1, w_out)] = p[(-1, -1, w_out)] = -1e-10
    dist = JointDistribution(p, provenance="measured",
                             metadata={"r_h": 0.1244, "r_v": 0.4645,
                                       "theta_deg": 90.0, "phi_deg": 0.0})
    rho = DensityMatrix(np.kron(bloch_state([1.0, 0.0, 0.0]), np.eye(2) / 2))
    assert raised(
        NumericalCorruptionError,
        lambda: _scenario_results(rho, ("simple", "optimal"), dist),
    ) == {"y-outcome variance -1.600e-09 negative"}
    assert raised(
        NumericalCorruptionError,
        lambda: analyze_measured(dist, rho, estimator="optimal"),
    ) == {"reconstructed eps^2 = -2.000e-01: input data is inconsistent"}

    # sweep: <X (x) 1> > 1 breaks Delta X of the shared state at every
    # angle, and W = Z with p(w = -1) < -1e-9 breaks the first angle's table
    rho = DensityMatrix(np.kron(bloch_state([1.0 + 1e-8, 0.0, 0.0]),
                                bloch_state([0.0, 0.0, 1.0 + 1e-6])), psd_floor=1e-5)
    assert raised(
        ValueError, lambda: sweep_phi(rho, slide, [0.0, 90.0], theta_deg=0.0),
    ) == {"negative probability -2.189e-07 in distribution"}
