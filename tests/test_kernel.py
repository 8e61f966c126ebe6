"""The batched statistics kernel against a per-angle loop reference.

The reference below evaluates every quantity one angle at a time from
operator traces ``Tr(rho (M_m Y_y M_m (x) W_w))``, with Kraus operators
built from the slide's reflectivities, the way the single-scenario path did
before the kernel, which reads the probes ``M_m Y_y M_m`` in closed form.
Summation order differs from the kernel's, so values agree to 1e-12, not
bit for bit.
"""

import math

import numpy as np
import pytest

from jointmeas import (
    ESTIMATOR_KINDS,
    OUTCOMES,
    BlochObservable,
    DensityMatrix,
    RelationReport,
    UndefinedEstimateError,
    epr_state,
    optimal_estimator,
    pauli,
    projector_pair,
    random_observable,
    random_slide,
    random_state,
    reference_scenario,
    simulate_scenario,
    sweep_phi,
)
from jointmeas.estimate import optimal_values
from jointmeas.qcore import (
    bloch_vectors,
    correlations,
    failing,
    run_checks,
    run_kernel,
    state_stack,
)
from jointmeas.relations import RELATION_NAMES
from jointmeas.scenario import (
    SemiweakSlide,
    joint_distribution,
    joint_tables,
    slide_arrays,
    slide_model,
)
from jointmeas.workflow import _draw_block, _scenario_results, _state_matrices, _statistics

TOL = 1e-12
PHIS = np.arange(90.0, 271.0, 15.0)


def loop_tables(rho, slide, w):
    """p[m, y, w] by explicit traces, normalised, and the optimal f[w]."""
    y_projs = projector_pair(pauli("Y"))
    w_projs = projector_pair(w.as_operator())
    x1 = np.kron(pauli("X").matrix, np.eye(2))
    x_plus, x_minus = (op.matrix for op in projector_pair(pauli("X")))
    # the (h, v) weights of M_m^2, transmitted first as in OUTCOMES
    weights = np.array([1.0 - slide.r_h, 1.0 - slide.r_v, slide.r_h, slide.r_v])
    p = np.zeros((2, 2, 2))
    f = np.zeros(2)
    for i, (a, b) in enumerate(np.sqrt(weights).reshape(2, 2).tolist()):
        km = a * x_plus + b * x_minus
        for j in range(2):
            probe = km @ y_projs[j].matrix @ km
            for k in range(2):
                p[i, j, k] = np.trace(rho.matrix @ np.kron(probe, w_projs[k].matrix)).real
    for k in range(2):
        proj = np.kron(np.eye(2), w_projs[k].matrix)
        f[k] = (np.trace(rho.matrix @ x1 @ proj) / np.trace(rho.matrix @ proj)).real
    return p / p.sum(), f


def loop_row(rho, slide, theta_deg, phi_deg, row):
    """The estimator columns of one sweep row, angle by angle."""
    w = BlochObservable.from_degrees(theta_deg, phi_deg)
    p, f_opt = loop_tables(rho, slide, w)
    d_y = math.sqrt(1.0 - (p[:, 0].sum() - p[:, 1].sum()) ** 2)
    want = {"delta_y_est": d_y}
    for kind, f in (("simple", np.array([1.0, -1.0])), ("optimal", f_opt)):
        eps_sq = 0.0
        for x in OUTCOMES:
            for k in range(2):
                mh = sum((1.0 + x * slide.xi(m)) / 2.0 * p[i, :, k].sum()
                         for i, m in enumerate(OUTCOMES))
                eps_sq += (x - f[k]) ** 2 * mh
        eps = math.sqrt(max(eps_sq, 0.0))
        pw = p.sum(axis=(0, 1))
        d_est = math.sqrt(max(pw @ f ** 2 - (pw @ f) ** 2, 0.0))
        eps_b, d_x, d_y0 = row["eps_y"], row["delta_x"], row["delta_y"]
        want.update({
            f"eps_x_{kind}": eps, f"delta_x_est_{kind}": d_est,
            f"dispersion_rss_{kind}": math.sqrt(eps ** 2 + d_est ** 2),
            f"lhs_arthurs_kelly_{kind}": eps * eps_b,
            f"lhs_hall_{kind}": eps * eps_b + eps * d_y + d_est * eps_b,
            f"lhs_ozawa_{kind}": eps * eps_b + eps * d_y0 + d_x * eps_b,
            f"lhs_new_{kind}": eps * (d_y + d_y0) / 2 + eps_b * (d_est + d_x) / 2})
    return p, f_opt, want


@pytest.mark.parametrize("theta_deg", [90.0, 37.0])
@pytest.mark.parametrize("seed", [3, 8])
def test_kernel_matches_loop_reference(seed, theta_deg):
    rng = np.random.default_rng(seed)
    rho, slide = random_state(rng), random_slide(rng)
    n = bloch_vectors(math.radians(theta_deg), np.radians(PHIS), [])
    tables = joint_tables(correlations(rho.matrix[None]), slide.arrays, n, [])
    values = optimal_values(correlations(rho.matrix[None]), n, [])
    rows = sweep_phi(rho, slide, PHIS, theta_deg=theta_deg)
    assert [row["phi_deg"] for row in rows] == PHIS.tolist()
    for idx, (phi, row) in enumerate(zip(PHIS, rows)):
        p, f_opt, want = loop_row(rho, slide, theta_deg, phi, row)
        np.testing.assert_allclose(tables[idx], p, rtol=0, atol=TOL)
        np.testing.assert_allclose(values[idx], f_opt, rtol=0, atol=TOL)
        for name, val in want.items():
            assert row[name] == pytest.approx(val, abs=TOL), (phi, name)


# slides with a reflectivity at 0 or 1, equal ones among them
EDGE_SLIDES = [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.37), (0.37, 1.0)]


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("seed", [3, 8])
def test_tables_match_loop_reference_at_edge_and_per_direction_slides(seed, shared):
    """The tables of slides with reflectivities at 0 and 1, and of random
    ones, match the Kraus-operator loop: with one state and slide shared by
    every direction, as in a sweep, and with one state and slide per
    direction, as in a verify block."""
    rng = np.random.default_rng(seed)
    refl = np.concatenate([EDGE_SLIDES, rng.uniform(0.0, 1.0, (6, 2))])
    size = len(refl) * (len(PHIS) if shared else 1)
    rhos = [random_state(rng) for _ in range(1 if shared else size)]
    ws = [random_observable(rng) for _ in range(size)]
    n = np.stack([w.vector for w in ws])
    t = correlations(np.stack([rho.matrix for rho in rhos]))
    if shared:
        per_slide = len(PHIS)
        tables = np.concatenate([
            joint_tables(t, SemiweakSlide(*pair).arrays, n[i * per_slide:(i + 1) * per_slide], [])
            for i, pair in enumerate(refl.tolist())])
    else:
        per_slide = 1
        tables = joint_tables(t, slide_arrays(refl[:, 0], refl[:, 1]), n, [])
    assert tables.shape == (size, 2, 2, 2)
    for idx in range(size):
        slide = SemiweakSlide(*refl[idx // per_slide].tolist())
        p, _ = loop_tables(rhos[0 if shared else idx], slide, ws[idx])
        np.testing.assert_allclose(tables[idx], p, rtol=0, atol=TOL)


# the documented column order of a sweep row
COMMON_COLUMNS = ("phi_deg", "theta_deg", "c", "bound", "delta_x", "delta_y", "eps_y",
                  "delta_y_est")


def kind_columns(kind):
    return (f"eps_x_{kind}", f"delta_x_est_{kind}", f"dispersion_rss_{kind}",
            *(f"lhs_{name}_{kind}" for name in ("arthurs_kelly", "hall", "ozawa", "new")))


@pytest.mark.parametrize("size", [1, 7, 720])
@pytest.mark.parametrize("kinds", [("simple",), ("optimal",), ("simple", "optimal"),
                                   ("optimal", "simple")])
def test_sweep_row_layout(kinds, size):
    """Every row holds the documented columns in order; the scenario
    columns are the single-scenario report's values, bit for bit; and each
    row is a dict of its own."""
    rng = np.random.default_rng(size)
    rho, slide = random_state(rng), random_slide(rng)
    theta_deg = 37.0
    phis = np.linspace(0.0, 360.0, size, endpoint=False)
    rows = sweep_phi(rho, slide, phis, theta_deg=theta_deg, estimators=kinds)
    order = [*COMMON_COLUMNS, *(col for kind in kinds for col in kind_columns(kind))]
    assert all(list(row) == order for row in rows)
    assert all(row["theta_deg"] == theta_deg for row in rows)
    for idx in range(0, size, max(1, size // 12)):
        report = simulate_scenario(rho, slide, BlochObservable.from_degrees(theta_deg, phis[idx]),
                                   estimator=kinds[0])
        want = (report.c, report.bound, report.delta_a, report.delta_b, report.eps_b)
        assert tuple(rows[idx][key] for key in ("c", "bound", "delta_x", "delta_y", "eps_y")) \
            == want, idx
    others = [dict(row) for row in rows[1:]]
    rows[0]["c"] = rows[0]["phi_deg"] = -1.0
    assert rows[1:] == others
    assert len({id(row) for row in rows}) == size


# the simulate report field behind each per-kind angle column of a sweep row
REPORT_FIELDS = {"eps_x": "eps_a", "delta_x_est": "delta_a_est",
                 "lhs_arthurs_kelly": "lhs_ak", "lhs_hall": "lhs_hall",
                 "lhs_ozawa": "lhs_ozawa", "lhs_new": "lhs_new"}


@pytest.mark.parametrize("seed", range(10))
def test_sweep_rows_equal_simulate_bit_for_bit(seed):
    """A sweep row's angle columns equal ``simulate_scenario``'s at the same
    angle bit for bit, on slides at least 0.01 apart: every sum behind the
    tables and the statistics runs elementwise in one fixed order, so one
    direction and a stack of 50 give the same floats."""
    rng = np.random.default_rng(seed)
    rho, slide = random_state(rng), random_slide(rng)
    theta_deg = math.degrees(random_observable(rng).theta)
    phis = np.linspace(0.0, 360.0, 50, endpoint=False)
    rows = sweep_phi(rho, slide, phis, theta_deg=theta_deg)
    for phi, row in zip(phis.tolist(), rows):
        w = BlochObservable.from_degrees(theta_deg, phi)
        for kind in ("simple", "optimal"):
            report = simulate_scenario(rho, slide, w, estimator=kind)
            got = [row["delta_y_est"], *(row[f"{col}_{kind}"] for col in REPORT_FIELDS)]
            want = [report.delta_b_est, *(getattr(report, name) for name in REPORT_FIELDS.values())]
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (phi, kind)


STATISTICS = ("eps_a", "eps_b", "delta_a", "delta_b", "delta_a_est", "delta_b_est", "c")


def test_verify_block_items_equal_simulate_bit_for_bit():
    """With a state, a slide and a direction of its own for each scenario,
    as a verify block lays them out, report (k, i) of the statistics pass
    equals ``simulate_scenario`` of trial i, given the same state matrix,
    slide and W, bit for bit in all seven statistics and both kinds."""
    g, refl, angles, _ = _draw_block(np.random.default_rng(7), 0, 500)
    rho, checks = _state_matrices(g), []
    t, slides = correlations(rho), slide_arrays(refl[:, 0], refl[:, 1])
    n = bloch_vectors(angles[:, 0], angles[:, 1], checks)
    report = _statistics(rho, t, slides, n, joint_tables(t, slides, n, checks),
                         ESTIMATOR_KINDS, checks)[0]
    run_checks(checks)
    # each statistic [K, N], an [N] column at every kind
    columns = [np.broadcast_to(getattr(report, name), (len(ESTIMATOR_KINDS), len(rho)))
               for name in STATISTICS]
    for i in range(len(rho)):
        scenario = (DensityMatrix(rho[i]), slide_model(*refl[i].tolist()),
                    BlochObservable(*angles[i].tolist()))
        for k, kind in enumerate(ESTIMATOR_KINDS):
            want = simulate_scenario(*scenario, estimator=kind)
            assert [float.hex(float(column[k, i])) for column in columns] == \
                [float.hex(getattr(want, name)) for name in STATISTICS], (i, kind)


def test_sweep_empty_grid():
    rho, slide, _ = reference_scenario()
    assert sweep_phi(rho, slide, []) == []
    assert sweep_phi(rho, slide, np.array([])) == []


def test_sweep_undefined_estimate_raises():
    _, slide, _ = reference_scenario()
    with pytest.raises(UndefinedEstimateError, match=r"W outcome \+1"):
        sweep_phi(epr_state(0.0), slide, [0, 90], theta_deg=0)


@pytest.mark.parametrize("grid, bad_phi", [([90.0, 180.0, 0.0], 180.0),
                                           ([90.0, 0.0, 180.0], 0.0)])
def test_sweep_raises_for_first_offending_angle(grid, bad_phi):
    """Qubit 2 in |+>: W = +-X leaves one outcome without probability."""
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = DensityMatrix.from_pure(np.kron(np.array([1.0, 0.0]), plus))
    _, slide, _ = reference_scenario()
    with pytest.raises(UndefinedEstimateError) as scalar:
        optimal_estimator(rho, BlochObservable.from_degrees(90.0, bad_phi))
    with pytest.raises(UndefinedEstimateError) as swept:
        sweep_phi(rho, slide, grid)
    assert str(swept.value) == str(scalar.value)
    # the simple estimator alone is defined everywhere
    assert len(sweep_phi(rho, slide, grid, estimators=("simple",))) == 3


def test_sweep_unknown_estimator_kind():
    rho, slide, _ = reference_scenario()
    with pytest.raises(ValueError, match="unknown estimator kind 'best'"):
        sweep_phi(rho, slide, [180.0], estimators=("simple", "best"))


def hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("seed", range(4))
def test_report_lhs_equals_the_statistics_pass_bit_for_bit(seed):
    """A report reads its four left-hand sides from its seven statistics
    with the same operations on floats as on columns, so each kind's
    simulated report holds, to the bit, the left-hand sides ``[K, N]`` of
    the statistics pass's report of columns, as a sweep and a verify block
    read them."""
    rng = np.random.default_rng(seed)
    rho, slide, w = random_state(rng), random_slide(rng), random_observable(rng)
    mats = state_stack(rho)
    columns = run_kernel(_statistics, mats, correlations(mats), slide.arrays, w.vector[None],
                         joint_distribution(rho, slide, w).table[None], ESTIMATOR_KINDS)[0]
    for k, kind in enumerate(ESTIMATOR_KINDS):
        report = simulate_scenario(rho, slide, w, estimator=kind)
        assert hexes(report.lhs.values()) == \
            hexes(val[k, 0] for val in columns.lhs.values()), kind


@pytest.mark.parametrize("seed", range(4))
def test_report_from_a_sweep_row_reproduces_its_lhs_columns(seed):
    """The seven statistics of a sweep row give a report whose left-hand
    sides are the row's four lhs columns, bit for bit."""
    rng = np.random.default_rng(seed)
    rho, slide = random_state(rng), random_slide(rng)
    theta_deg = math.degrees(random_observable(rng).theta)
    for row in sweep_phi(rho, slide, np.linspace(0.0, 360.0, 13), theta_deg=theta_deg):
        for kind in ESTIMATOR_KINDS:
            report = RelationReport(
                row[f"eps_x_{kind}"], row["eps_y"], row["delta_x"], row["delta_y"],
                row[f"delta_x_est_{kind}"], row["delta_y_est"], row["c"])
            assert hexes(report.lhs.values()) == \
                hexes(row[f"lhs_{name}_{kind}"] for name in RELATION_NAMES), (row["phi_deg"], kind)


def test_any_tuple_of_kinds_gets_one_kinds_axis():
    """The statistics pass stacks the kinds asked for on one axis: none give
    the common sweep columns alone and no report, and a repeated kind
    repeats its values."""
    rho, slide, w = reference_scenario()
    rows = sweep_phi(rho, slide, [0.0, 90.0], estimators=())
    assert [list(row) for row in rows] == [list(COMMON_COLUMNS)] * 2
    dist = joint_distribution(rho, slide, w)
    assert _scenario_results(rho, (), dist, slide=slide, w=w) == []
    first, second = _scenario_results(rho, ("optimal", "optimal"), dist, slide=slide, w=w)
    assert first == second


def test_run_checks_fires_in_loop_order():
    """Lowest flagged index first; within it, checks in list order until one
    raises."""
    fired = []
    checks = [(np.array([False, True, True]), lambda i: fired.append(("a", i))),
              (np.array([False, False, True]), failing(ValueError, lambda i: f"bad {i}")),
              (np.array([True, False, True]), lambda i: fired.append(("c", i)))]
    with pytest.raises(ValueError, match="bad 2"):
        run_checks(checks)
    assert fired == [("c", 0), ("a", 1), ("a", 2)]
