"""Every gate of the kernels can fire; the deleted ones could not.

A census of the suite, the edge battery and `run_verification(50_000)` at
seeds 1-3 counted how often each queued check and each ``raise`` in
`qcore`, `scenario`, `estimate`, `relations`, `oracle` and `workflow`
fired.  The first part of this file fires, from public inputs, every gate
that no other test reached, with the type and message a caller sees, and
so do the `dataio` gates that a line trace of the suite found unreached.  The
second part states the invariants that made the deleted gates redundant:
analyser directions are unit, simulated tables are finite with unit mass,
and a chain is broken exactly when one of its slacks is.  It also states
the invariants that keep the gates moved to the one-scenario views from
firing on `verify`: the slides' POVMs are complete and their dilations
unitary, the dilated estimators commute exactly, drawn states give
quasi-tables of unit mass, and the ratios the strength ordering weighs lie
in [0, 1].  The reconstructed quasi-table of a table, simulated or
measured, sums to the table's mass to a few ulps, even in the weak limit,
so the table's own mass gate covers it.  That the first identity of
the derivation chain is off by exactly twice the commutator of the
estimates is stated in `test_relations.py`.
"""

import ast
import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointmeas import (
    DataValidationError,
    DegenerateMeasurementError,
    DensityMatrix,
    DimensionMismatchError,
    Estimator,
    HermitianOperator,
    JointDistribution,
    NumericalCorruptionError,
    RelationReport,
    SemiweakSlide,
    analyze_measured,
    bundled_distribution,
    dilated_chain,
    direct_margenau_hill,
    dispersion_check,
    disturbed_observable,
    emit_report,
    epr_state,
    evaluate_md_relation,
    expectation,
    fidelity,
    joint_distribution,
    mh_from_counts,
    naimark_unitary,
    optimal_estimator,
    parse_density_matrix,
    parse_distribution,
    pauli,
    projector_pair,
    reference_scenario,
    run_verification,
    simulate_scenario,
    slide_model,
    spread,
    strength_comparison,
    sweep_phi,
    tensor,
    verify_relation_chain,
)
from jointmeas import UndefinedEstimateError, workflow
from jointmeas.estimate import mh_tables
from jointmeas.oracle import direct_moments, naimark_unitaries, w_moments, w_projectors
from jointmeas.qcore import bloch_vectors, correlations, xy_statistics
from jointmeas.relations import MARGIN_TOL, _gap_ratios, gap_weights
from jointmeas.scenario import (
    MIN_REFLECTIVITY_GAP,
    TRIPLES,
    joint_tables,
    povm_elements,
    slide_arrays,
)
from jointmeas.workflow import _draw_block, _state_matrices

from dilation import dilated_operators

RHO, SLIDE, W = reference_scenario()
X, Y = pauli("X"), pauli("Y")


def skewed_mixed_state() -> DensityMatrix:
    """1/4 with +4e-13j at (0, 1) and (1, 0): Hermitian within the 1e-12
    the constructor allows, anti-Hermitian by 8e-13 at those entries."""
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] += 4e-13j
    mat[1, 0] += 4e-13j
    return DensityMatrix(mat)


# a hand-built slide 1e-9 from degenerate, below slide_model's 1e-6 guard:
# mh_tables refuses its contextual values, which would carry the table's
# rounding into the quasi-table
NEAR_DEGENERATE = SemiweakSlide(0.3, 0.3 + 1e-9)
NEAR_DEGENERATE_ERROR = ("|r_h - r_v| = 1e-09 is below 1e-06: contextual values of order "
                         "2.0e+09 would amplify rounding into the reconstructed X statistics")
LARGE_X2 = HermitianOperator(1e3 * np.kron(np.eye(2), X.matrix))

# A measured table of the reference state at the edge of its 0.01 mass
# tolerance (its entries sum to 1.0099999999999998), under a slide at the
# smallest gap slide_model accepts, where the contextual values are of
# order 2e6.
EDGE_SLIDE = slide_model(0.5, 0.500001)
EDGE_TABLE = JointDistribution(
    dict(zip(TRIPLES, (0.0946873506446306, 0.15781239685536932, 0.03156241376966212,
                       0.2209373337303378, 0.09468764935533786, 0.15781260314466214,
                       0.031562586230369366, 0.2209376662696306))),
    provenance="measured",
    metadata={"r_h": 0.5, "r_v": 0.500001, "theta_deg": 45.0, "phi_deg": 330.0})


def relaxed_floor_state() -> DensityMatrix:
    """1/4 on the diagonal, i a at (0, 2) and i b at (1, 3), a = 1.3e6 and
    b = 1.2e3, Hermitian but for 5e-13 i at (3, 1); a psd floor of 1e7
    admits its eigenvalues near -a.  <X (x) 1> adds these entries in pairs,
    and their rounding leaves it an imaginary part of one ulp of 1.3e6."""
    a, b = 1319681.636282665, 1187.507715727785
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 2], mat[2, 0] = 1j * a, -1j * a
    mat[1, 3], mat[3, 1] = 1j * b, -1j * b + 5e-13j
    return DensityMatrix(mat, psd_floor=1e7)


# each entry point that needs a two-qubit state, called with a one-qubit one:
# the state gate, not a reshape inside a kernel, refuses it
ONE_QUBIT = DensityMatrix(np.eye(2) / 2)
TWO_QUBIT_ENTRY_POINTS = {
    "simulate_scenario": lambda: simulate_scenario(ONE_QUBIT, SLIDE, W),
    "analyze_measured": lambda: analyze_measured(bundled_distribution(180.0), ONE_QUBIT),
    "sweep_phi": lambda: sweep_phi(ONE_QUBIT, SLIDE, [180.0]),
    "joint_distribution": lambda: joint_distribution(ONE_QUBIT, SLIDE, W),
    "optimal_estimator": lambda: optimal_estimator(ONE_QUBIT, W),
    "dispersion_check": lambda: dispersion_check(ONE_QUBIT, SLIDE, W, Estimator.simple()),
    "dilated_chain": lambda: dilated_chain(ONE_QUBIT, SLIDE, W, Estimator.simple()),
    "direct_margenau_hill": lambda: direct_margenau_hill(ONE_QUBIT, W),
}

# reports json cannot write, with json.dumps' own messages
UNWRITABLE_REPORTS = {
    "report with a tuple key": (
        {(1, 2): 1.0}, "keys must be str, int, float, bool or None, not tuple"),
    "report with an object value": (
        {"a": object()}, "Object of type object is not JSON serializable"),
}

EDGE_GATES = {
    "density matrix not Hermitian": (
        lambda: DensityMatrix([[0.5, 0.1], [0.2, 0.5]]),
        ValueError, "density matrix not Hermitian (max deviation 1.000e-01)"),
    "spread of an imaginary expectation": (
        lambda: spread(LARGE_X2, skewed_mixed_state()),
        NumericalCorruptionError, "expectation has imaginary part 8.000e-10"),
    "imaginary expectation": (
        lambda: expectation(LARGE_X2, skewed_mixed_state()),
        NumericalCorruptionError, "expectation has imaginary part 8.000e-10"),
    "projector pair of 2X": (
        lambda: projector_pair(HermitianOperator(2 * X.matrix)),
        ValueError, "projector_pair needs an operator squaring to the identity"),
    "direct quasi-table of a trace-2 state": (
        lambda: direct_margenau_hill(np.eye(4) / 2, W),
        ValueError, "quasi-probabilities sum to 2.000000, not 1"),
    "dilation of a POVM that is not positive": (
        lambda: naimark_unitary((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5]))),
        ValueError, "dilation completion is not unitary"),
    # a hand-built report with eps(Y) < 0, whose ratio eps(Y)/Delta Y is -0.5
    "strength ordering of a report with a negative inaccuracy": (
        lambda: strength_comparison(RelationReport(0.5, -0.25, 1.0, 0.5, 0.8, 0.4, 1.0)),
        ValueError, "gap weight defined on [0, 1], got -0.5"),
    # a hand-built report's non-finite field: a NaN eps(X) was read as a gap
    # ratio of 0 and the ordering passed; an infinite spread warned
    "strength ordering of a report with a NaN inaccuracy": (
        lambda: strength_comparison(RelationReport(math.nan, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0),
                                    "optimal"),
        ValueError, "report field eps_a must be finite, got nan"),
    "strength ordering of a report with an infinite spread": (
        lambda: strength_comparison(RelationReport(0.5, 0.1, math.inf, 1.0, 1.0, 1.0, 1.0),
                                    "optimal"),
        ValueError, "report field delta_a must be finite, got inf"),
    # a NaN kappa raised the relation-violation error, and 1.5 passed
    **{f"measurement-disturbance relation at kappa {kappa}": (
        lambda kappa=kappa: evaluate_md_relation(simulate_scenario(RHO, SLIDE, W), kappa),
        ValueError, f"slide strength kappa must lie in [0, 1], got {kappa}")
       for kappa in (math.nan, 1.5, -0.25)},
    **{f"{name} of a one-qubit state": (
        call, DimensionMismatchError, "expected a two-qubit state, got shape (2, 2)")
       for name, call in TWO_QUBIT_ENTRY_POINTS.items()},
    "imaginary expectation of a state with a relaxed psd floor": (
        lambda: analyze_measured(bundled_distribution(180.0), relaxed_floor_state()),
        NumericalCorruptionError, "expectation has imaginary part 2.328e-10"),
    "counts quasi-table of a near-degenerate slide": (
        lambda: mh_from_counts(joint_distribution(RHO, NEAR_DEGENERATE, W), NEAR_DEGENERATE),
        DegenerateMeasurementError, NEAR_DEGENERATE_ERROR),
    "simulated quasi-table of a near-degenerate slide": (
        lambda: simulate_scenario(RHO, NEAR_DEGENERATE, W),
        DegenerateMeasurementError, NEAR_DEGENERATE_ERROR),
    "swept quasi-table of a near-degenerate slide": (
        lambda: sweep_phi(RHO, NEAR_DEGENERATE, [180.0]),
        DegenerateMeasurementError, NEAR_DEGENERATE_ERROR),
    # 1e-12 from degenerate, the statistics were rounding: eps(X) came out
    # as 0.70721282, where it is 1/sqrt(2)
    "simulated quasi-table of a slide 1e-12 from degenerate": (
        lambda: simulate_scenario(RHO, SemiweakSlide(0.3, 0.3 + 1e-12), W),
        DegenerateMeasurementError,
        "|r_h - r_v| = 1e-12 is below 1e-06: contextual values of order 2.0e+12 would "
        "amplify rounding into the reconstructed X statistics"),
    "contextual values of an equal-reflectivity slide": (
        lambda: mh_from_counts(joint_distribution(RHO, SLIDE, W),
                               SemiweakSlide.polarisation_independent(0.3)),
        DegenerateMeasurementError, "slide has r_h == r_v; contextual values are undefined"),
    "dispersion of an estimate tagged optimal": (
        lambda: dispersion_check(RHO, SLIDE, W, Estimator({+1: 1.0, -1: 1.0}, kind="optimal")),
        NumericalCorruptionError,
        "dispersion identity broken for optimal estimator: residual 1.000e+00"),
    "non-square matrix": (
        lambda: HermitianOperator(np.zeros((2, 3))),
        DimensionMismatchError, "expected a square matrix, got shape (2, 3)"),
    "non-square operator array": (
        lambda: verify_relation_chain(np.zeros(3), np.eye(4), np.eye(4), np.eye(4),
                                      np.eye(4) / 4),
        ValueError, "expected a square operator, got shape (3,)"),
    "tensor of a two-qubit factor": (
        lambda: tensor(X, tensor(X, X)),
        DimensionMismatchError, "tensor expects two single-qubit operators"),
    "zero state vector": (
        lambda: DensityMatrix.from_pure([0.0, 0.0]),
        ValueError, "state vector has zero norm"),
    # a NaN norm passed the zero-norm gate, and the vector was divided by it
    "state vector with a NaN amplitude": (
        lambda: DensityMatrix.from_pure([math.nan, 1.0]),
        ValueError, "state vector contains non-finite entries"),
    # the source angle of `simulate --gamma` and `sweep --gamma`: a NaN one
    # warned in from_pure, an infinite one failed in math.cos with "math
    # domain error"
    **{f"EPR state of source angle {gamma}": (
        lambda gamma=gamma: epr_state(math.radians(gamma)),
        ValueError, f"source angle gamma must be finite, got {gamma}")
       for gamma in (math.nan, math.inf, -math.inf)},
    "expectation across dimensions": (
        lambda: expectation(X, DensityMatrix.maximally_mixed(4)),
        DimensionMismatchError, "operator dim 2 vs state dim 4"),
    "spread across dimensions": (
        lambda: spread(X, DensityMatrix.maximally_mixed(4)),
        DimensionMismatchError, "operator dim 2 vs state dim 4"),
    "fidelity across dimensions": (
        lambda: fidelity(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(4)),
        DimensionMismatchError, "fidelity needs states of equal dimension"),
    "disturbance of a two-qubit observable": (
        lambda: disturbed_observable(SLIDE, tensor(X, Y)),
        DimensionMismatchError, "disturbed_observable acts on single-qubit operators"),
    "density matrix of trace 1.2": (
        lambda: DensityMatrix(0.6 * np.eye(2)),
        ValueError, "density matrix trace 1.2+0j differs from 1"),
    "density matrix with a negative eigenvalue": (
        lambda: DensityMatrix(np.diag([1.1, -0.1])),
        ValueError, "density matrix has eigenvalue -1.000e-01 below floor -1e-10"),
    # a NaN floor admitted diag(1.5, -0.5); a negative one refused every
    # state, with the message "below floor --1"
    "density matrix with a NaN psd floor": (
        lambda: DensityMatrix(np.diag([1.5, -0.5]), psd_floor=math.nan),
        ValueError, "psd_floor must be finite and non-negative, got nan"),
    "density matrix with a negative psd floor": (
        lambda: DensityMatrix(np.eye(2) / 2, psd_floor=-1),
        ValueError, "psd_floor must be finite and non-negative, got -1"),
    "distribution with a NaN entry": (
        lambda: JointDistribution(dict(zip(TRIPLES, (math.nan, *[1 / 7] * 7)))),
        ValueError, "non-finite probability nan in distribution"),
    "distribution with a negative entry": (
        lambda: JointDistribution(dict(zip(TRIPLES, (-0.01, 0.01, *[1 / 6] * 6)))),
        ValueError, "negative probability -1.000e-02 in distribution"),
    "simulated distribution of mass 1.075": (
        lambda: JointDistribution(dict(zip(TRIPLES, (0.2, *[0.125] * 7)))),
        ValueError, "probabilities sum to 1.0750, outside 1 +- 1e-10 for simulated data"),
    "chain on mixed dimensions": (
        lambda: verify_relation_chain(np.eye(2), np.eye(4), np.eye(4), np.eye(4),
                                      np.eye(4) / 4),
        ValueError, "operators live on different spaces: dims [2, 4]"),
    "outcome table with a sigma that is not a float": (
        lambda: parse_distribution("m,y,w,p,sigma\n1,1,1,0.125, x \n"),
        DataValidationError, "line 2: column 'sigma' must be a float or empty, got 'x'"),
    # the message quotes the field stripped
    "density matrix with a field that is not a float": (
        lambda: parse_density_matrix("row,col,re,im\n0,0, abc ,0\n"),
        DataValidationError, "line 2: could not convert string to float: 'abc'"),
    **{name: (lambda report=report: emit_report(report), TypeError, message)
       for name, (report, message) in UNWRITABLE_REPORTS.items()},
    # the finiteness gate of an angle is queued with the statistics checks,
    # so the first offending angle decides the error, whichever gate it fails
    # (a NaN second angle used to jump ahead of the first angle's estimate)
    "sweep whose first angle has a zero-probability outcome": (
        lambda: sweep_phi(epr_state(0.0), slide_model(0.1244, 0.4645), [0.0, math.nan],
                          theta_deg=0.0),
        UndefinedEstimateError, "W outcome +1 has probability 0.000e+00"),
    "sweep whose first angle is infinite": (
        lambda: sweep_phi(epr_state(0.0), slide_model(0.1244, 0.4645), [math.inf, 0.0],
                          theta_deg=0.0),
        ValueError, "analyser angle phi must be finite, got inf"),
}


@pytest.mark.parametrize("name", list(EDGE_GATES))
def test_edge_gate_fires(name):
    call, exc_type, message = EDGE_GATES[name]
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is exc_type


@pytest.mark.parametrize("name", list(UNWRITABLE_REPORTS))
def test_unwritable_report_raises_what_json_raises(name):
    report, message = UNWRITABLE_REPORTS[name]
    with pytest.raises(TypeError) as err:
        json.dumps(report)
    assert str(err.value) == message


def test_bloch_directions_square_to_the_identity():
    """``w_projectors`` has no W^2 = 1 gate: every direction comes from
    `bloch_vectors`, and over 2^20 seeded angle pairs, with magnitudes up
    to 1e300, ``W = n.s`` squares to the identity within 1e-13 (the deleted
    gate allowed 1e-10)."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(8):
        # half of each angle batch in [-2 pi, 2 pi], half log-uniform up to 1e300
        size = 1 << 17
        small = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (2, size // 2))
        large = rng.choice([-1.0, 1.0], (2, size // 2)) * 10.0 ** rng.uniform(0.0, 300.0,
                                                                             (2, size // 2))
        theta, phi = np.concatenate([small, large], axis=1)
        projs = w_projectors(bloch_vectors(theta, phi, []))
        w_ops = projs[:, 0] - projs[:, 1]
        worst = max(worst, float(np.abs(w_ops @ w_ops - np.eye(2)).max()))
    assert worst <= 1e-13


def test_the_gap_read_from_contextual_values_passes_every_slide_slide_model_accepts():
    """mh_tables reads |r_h - r_v| back as 2/|xi_r - xi_t|.  At the
    smallest gap slide_model accepts, in either order and down to
    reflectivities of 1e-12 or up to 1 - 1e-12, that reading never falls
    below MIN_REFLECTIVITY_GAP, so the gate refuses no slide slide_model
    builds; a hand-built slide a relative 1e-9 inside the gap is refused."""
    rng = np.random.default_rng(31)
    base = np.concatenate([rng.uniform(0.0, 1.0 - 2e-6, 20_000),
                           10.0 ** rng.uniform(-12.0, -5.0, 10_000), [0.0]])
    for r_h, upward in ((base, 1.0), (1.0 - base, -1.0)):
        r_v = r_h + upward * MIN_REFLECTIVITY_GAP
        while (short := np.abs(r_v - r_h) < MIN_REFLECTIVITY_GAP).any():
            r_v = np.where(short, np.nextafter(r_v, 2.0 * upward), r_v)
        slides = slide_arrays(r_h, r_v)
        mh_tables(np.full((len(r_h), 2, 2, 2), 0.125), slides)
        for i in rng.choice(len(r_h), 20, replace=False).tolist():
            slide_model(float(r_h[i]), float(r_v[i]))
    with pytest.raises(DegenerateMeasurementError, match="is below 1e-06"):
        mh_tables(np.full((1, 2, 2, 2), 0.125),
                  SemiweakSlide(0.3, 0.3 + MIN_REFLECTIVITY_GAP * (1.0 - 1e-9)).arrays)


def test_a_table_at_the_edge_of_its_mass_tolerance_is_analysed():
    """A table inside its mass tolerance has a quasi-table of its own mass:
    EDGE_TABLE's quasi-table sums to the table's 1.0099999999999998 within
    4 ulps under contextual values of order 2e6, so the table is analysed,
    with no second mass gate to trip on rounding."""
    mh = mh_from_counts(EDGE_TABLE, EDGE_SLIDE)
    total = EDGE_TABLE.total()
    assert abs(math.fsum(mh.ravel().tolist()) - total) <= 4 * math.ulp(total)
    report = analyze_measured(EDGE_TABLE, RHO)
    assert math.isfinite(report.eps_a)


def test_quasi_tables_sum_to_their_tables_mass_in_the_weak_limit():
    """`mh_tables` has no mass gate: its closed form gives each quasi-table
    its table's mass.  Over 8000 drawn `verify` states and directions, with
    slides 1.05e-6 apart in either order (contextual values of order 2e6)
    and tables scaled within the measured 0.01 of unit mass, the exact sums
    of a quasi-table and of its table differ by at most 4 ulps."""
    rng = np.random.default_rng(43)
    size = 8000
    g, _, angles, _ = _draw_block(rng, 0, size)
    low = rng.uniform(0.0, 1.0 - 2e-6, size)
    high = low + 1.05e-6
    r_h, r_v = np.where(np.arange(size) % 2, low, high), np.where(np.arange(size) % 2, high, low)
    slides = slide_arrays(r_h, r_v)
    n = bloch_vectors(angles[:, 0], angles[:, 1], [])
    p = joint_tables(correlations(_state_matrices(g)), slides, n, [])
    p = p * rng.uniform(0.99, 1.01, (size, 1, 1, 1))
    got = np.array([math.fsum(row) for row in mh_tables(p, slides).reshape(-1, 4).tolist()])
    want = np.array([math.fsum(row) for row in p.reshape(-1, 8).tolist()])
    assert (np.abs(got - want) <= 4 * np.spacing(want)).all()


def test_simulated_tables_are_finite_with_unit_mass():
    """`joint_tables` keeps only the negative-entry check of a table: its
    inputs are finite and its unnormalised mass is Tr rho, so over drawn
    verify blocks, rank-1 states and slides at r = 0, 1 and the 1e-6 gap
    every table is finite with a mass within 1e-14 of 1."""
    rng = np.random.default_rng(23)
    g, refl, angles, _ = _draw_block(rng, 0, 4000)
    rho = _state_matrices(g)
    # rank-1 states: one column of G each
    rho[::2] = _state_matrices(g[::2, :, :1])
    refl[:1000] = rng.choice([0.0, 1.0], (1000, 2))
    refl[1000:2000, 1] = np.clip(refl[1000:2000, 0] + 1e-6, 0.0, 1.0)
    n = bloch_vectors(angles[:, 0], angles[:, 1], [])
    p = joint_tables(correlations(rho), slide_arrays(refl[:, 0], refl[:, 1]), n, [])
    assert np.isfinite(p).all()
    assert np.abs(p.reshape(-1, 8).sum(axis=1) - 1.0).max() <= 1e-14


def test_a_negative_chain_slack_always_counts_as_a_broken_chain(monkeypatch):
    """`RelationChain.holds` reads the six slacks alone, so a trial whose
    smallest slack is below -MARGIN_TOL, or NaN, counts as a broken chain.
    `verify`'s count of broken chains therefore also gates the smallest
    slack it prints, which the chain gate no longer tests on its own."""
    real = workflow.dilated_chains

    def raised_c(*args, **kwargs):
        chains = real(*args, **kwargs)
        # raising c lowers the first slack by 2 dc and the last by dc / 2
        c = chains.c.copy()
        c[3] += 1.0
        c[7] = np.nan
        return dataclasses.replace(chains, c=c)

    assert run_verification(trials=12, seed=9).passed
    monkeypatch.setattr(workflow, "dilated_chains", raised_c)
    result = run_verification(trials=12, seed=9)
    assert result.chain_violations == 2
    assert not result.chain_min_slack >= -MARGIN_TOL
    assert not result.passed
    assert [line for line in result.summary_lines()[1:-1] if line.endswith(" FAIL")] == [
        "derivation chain: 2 broken links (min slack +nan) FAIL"]


def invariant_slides():
    """120 000 seeded slides: uniform reflectivities, r_h or r_v in {0, 1},
    r_h = r_v, and the smallest gap slide_model accepts."""
    rng = np.random.default_rng(37)
    r_h, r_v = rng.uniform(0.0, 1.0, (2, 120_000))
    r_h[:10_000] = rng.choice([0.0, 1.0], 10_000)
    r_v[10_000:20_000] = rng.choice([0.0, 1.0], 10_000)
    r_v[20_000:30_000] = r_h[20_000:30_000]
    low = rng.uniform(0.0, 1.0 - 2.0 * MIN_REFLECTIVITY_GAP, 10_000)
    high = low + MIN_REFLECTIVITY_GAP
    while (short := high - low < MIN_REFLECTIVITY_GAP).any():
        high = np.where(short, np.nextafter(high, 2.0), high)
    r_h[30_000:40_000], r_v[30_000:40_000] = low, high
    for i in range(30_000, 30_020):
        slide_model(float(r_h[i]), float(r_v[i]))
    return slide_arrays(r_h, r_v)


def test_slide_povms_are_complete_and_dilate_to_unitaries():
    """`naimark_unitaries` has no gate: on `verify` and in `dilated_chain`
    its POVMs are the closed forms of `povm_elements`.  Over 120 000
    seeded slides their elements sum to the identity within 1e-15 (the
    gate of `naimark_unitary` allows 1e-10), and ``U^dag U`` is the
    identity within 1e-14 (the gate allows 1e-12)."""
    povms = povm_elements(invariant_slides())
    assert np.abs(povms[:, 0] + povms[:, 1] - np.eye(2)).max() <= 1e-15
    unitaries = naimark_unitaries(povms)
    gram = unitaries.conj().swapaxes(-1, -2) @ unitaries
    assert np.abs(gram - np.eye(4)).max() <= 1e-14


def test_drawn_states_give_direct_quasi_tables_of_unit_mass():
    """`direct_moments` has no mass gate: a quasi-table sums to Tr rho, and
    over 20 000 drawn `verify` states it sums to 1 within 1e-13 (the gate
    of `direct_margenau_hill` allows 1e-9)."""
    for seed in range(20):
        g, _, angles, _ = _draw_block(np.random.default_rng(seed), 0, 1000)
        n = bloch_vectors(angles[:, 0], angles[:, 1], [])
        mh, _ = direct_moments(w_moments(_state_matrices(g), n), np.zeros((1000, 0, 2)))
        assert np.abs(mh.sum(axis=(1, 2)) - 1.0).max() <= 1e-13, seed


statistic = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)


@given(eps_a=statistic, eps_b=statistic, delta_a=statistic, delta_b=statistic)
@example(eps_a=0.0, eps_b=0.0, delta_a=0.0, delta_b=0.0)
@example(eps_a=1.0 + 1e-12, eps_b=5e-13, delta_a=1.0, delta_b=0.0)
@example(eps_a=1e-12, eps_b=0.0, delta_a=5e-324, delta_b=1.0)
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
def test_the_strength_ordering_weighs_ratios_in_the_gap_weights_domain(
        eps_a, eps_b, delta_a, delta_b):
    """`strength_orderings` calls no gated `gap_weights`: for any finite
    non-negative statistics, 0/0 and subnormal spreads included, the ratios
    it weighs lie in [0, 1], where the gate passes them, and no division
    overflows (a numpy warning fails the suite)."""
    _, *ratios = _gap_ratios(*(np.array([v]) for v in (eps_a, eps_b, delta_a, delta_b)))
    for x in ratios:
        assert 0.0 <= x[0] <= 1.0
        gap_weights(x)


def test_a_subnormal_spread_gives_a_ratio_of_one_without_a_warning():
    """An inaccuracy of 1e-12 over a subnormal spread is inside the closed
    form's domain (1e-12 above the spread), so its ratio is clamped to 1;
    dividing first would overflow to inf.  Run with every warning an error."""
    report = RelationReport(1e-12, 0.0, 5e-324, 1.0, 0.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ordering = strength_comparison(report)
        _, x_beta, x_alpha = _gap_ratios(*(np.array([v]) for v in (1e-12, 0.0, 5e-324, 1.0)))
    assert (x_beta[0], x_alpha[0]) == (0.0, 1.0)
    assert ordering.gap_residual == 0.0


def test_dilated_estimators_commute_exactly():
    """`relation_chains` gates the commutation of its estimators, but
    `verify` takes its chain factor by factor, where A_est acts on qubit 2
    and B and B_est on (q1, ancilla), so no gate runs there.  Built as full
    8x8 matrices for 120 000 seeded slides (r_h or r_v in {0, 1} among
    them), directions and custom X estimates, ``[A_est, B_est]`` and
    ``[A_est, B]`` are exactly the zero matrix: each entry of the two
    products is the same single product."""
    slides = invariant_slides()
    povms = povm_elements(slides)
    size = len(povms)
    rng = np.random.default_rng(41)
    n = bloch_vectors(np.arccos(rng.uniform(-1.0, 1.0, size)),
                      rng.uniform(0.0, 2.0 * math.pi, size), [])
    f = rng.uniform(-2.0, 2.0, (size, 2))
    rho = np.broadcast_to(np.eye(4, dtype=complex) / 4, (10_000, 4, 4))
    for start in range(0, size, 10_000):
        block = slice(start, start + 10_000)
        a_est, b_est, _, b, _ = dilated_operators(rho, povms[block], w_projectors(n[block]),
                                                  f[block])
        assert not (a_est @ b_est - b_est @ a_est).any()
        assert not (a_est @ b - b @ a_est).any()


def test_hermitian_states_give_real_means_of_x_and_y():
    """`xy_statistics` reads <X (x) 1> and <Y (x) 1> as pairwise sums of
    rho's entries.  On drawn `verify` states, which are exactly Hermitian,
    their imaginary parts are 0; on unit-trace states Hermitian only to
    1e-12 (random, rank-1 and with imaginary diagonals, as a DensityMatrix
    allows) they stay within 4e-12, so the imaginary-part gate (1e-10)
    does not fire.  It stays in `xy_statistics` for states with entries
    of 1e6 and more, which a relaxed psd floor admits (see EDGE_GATES)."""
    rng = np.random.default_rng(43)
    drawn = _state_matrices(_draw_block(rng, 0, 3000)[0])
    g = rng.normal(size=(3000, 4, 4)) + 1j * rng.normal(size=(3000, 4, 4))
    g[1000:2000, :, 1:] = 0.0  # rank 1
    skewed = _state_matrices(g)
    # each entry moves by up to 5e-13, so rho - rho^dag stays within 1e-12
    skewed += 5e-13 * rng.uniform(0.0, 1.0, skewed.shape) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, skewed.shape))
    assert np.abs(skewed - skewed.conj().swapaxes(-1, -2)).max() <= 1e-12
    for mats, bound in ((drawn, 0.0), (skewed, 4e-12)):
        flat = mats.reshape(-1, 16)
        off_top, off_bottom = flat[:, 2] + flat[:, 7], flat[:, 8] + flat[:, 13]
        # the imaginary parts of <X (x) 1> and <Y (x) 1>
        assert np.abs((off_top + off_bottom).imag).max() <= bound
        assert np.abs((off_top - off_bottom).real).max() <= bound
        checks = []
        xy_statistics(mats, checks)
        x_imag, _, y_imag, _ = checks
        assert not x_imag[0].any() and not y_imag[0].any()


def test_kernels_queue_their_checks_and_only_callers_run_them():
    """One route for the per-index gates: a kernel queues its checks on the
    one list its caller passes, and only callers run a queue.  So the queue
    parameter is named ``checks`` and has no default (a None default used to
    select running at once, and ``queues`` took one list per estimator
    kind), no function taking one calls `run_checks`, and the queue-or-run
    helpers `submit_checks` and `submit_column_checks` are gone."""
    defined = set()
    for path in sorted(Path(workflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            where = f"{path.name}:{node.lineno} {getattr(node, 'name', '<lambda>')}"
            defined.add(getattr(node, "name", None))
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = {a.arg for a in positional[len(positional) - len(args.defaults):]}
            with_default |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None}
            names = {a.arg for a in positional + args.kwonlyargs}
            assert "queues" not in names, where
            for a in positional + args.kwonlyargs:
                if a.annotation is not None and "Check" in ast.unparse(a.annotation):
                    assert a.arg == "checks", where
            if "checks" in names:
                assert "checks" not in with_default, where
                called = {call.func.id if isinstance(call.func, ast.Name)
                          else getattr(call.func, "attr", None)
                          for call in ast.walk(node) if isinstance(call, ast.Call)}
                assert "run_checks" not in called, where
    assert "run_checks" in defined
    assert not defined & {"submit_checks", "submit_column_checks"}
