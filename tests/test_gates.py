"""Every gate of the kernels can fire; the deleted ones could not.

A census of the suite, the edge battery and `run_verification(50_000)` at
seeds 1-3 counted how often each queued check and each ``raise`` in
`qcore`, `scenario`, `estimate`, `relations`, `oracle` and `workflow`
fired.  The first part of this file fires, from public inputs, every gate
that no other test reached, with the type and message a caller sees.  The
second part states the invariants that made the deleted gates redundant:
analyser directions are unit, simulated tables are finite with unit mass,
and a chain is broken exactly when one of its slacks is.  That the first identity of
the derivation chain is off by exactly twice the commutator of the
estimates is stated in `test_relations.py`.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from jointmeas import (
    DegenerateMeasurementError,
    DensityMatrix,
    DimensionMismatchError,
    Estimator,
    HermitianOperator,
    NumericalCorruptionError,
    SemiweakSlide,
    direct_margenau_hill,
    dispersion_check,
    disturbed_observable,
    expectation,
    fidelity,
    joint_distribution,
    mh_from_counts,
    naimark_unitary,
    pauli,
    projector_pair,
    reference_scenario,
    run_verification,
    simulate_scenario,
    spread,
    sweep_phi,
    tensor,
    verify_relation_chain,
)
from jointmeas import workflow
from jointmeas.oracle import w_projectors
from jointmeas.qcore import bloch_vectors
from jointmeas.relations import MARGIN_TOL
from jointmeas.scenario import joint_tables, slide_arrays
from jointmeas.workflow import _draw_block, _state_matrices

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
# its contextual values carry the table's rounding into the quasi-table mass
NEAR_DEGENERATE = SemiweakSlide(0.3, 0.3 + 1e-9)
LARGE_X2 = HermitianOperator(1e3 * np.kron(np.eye(2), X.matrix))

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
    "counts quasi-table of a near-degenerate slide": (
        lambda: mh_from_counts(joint_distribution(RHO, NEAR_DEGENERATE, W), NEAR_DEGENERATE),
        ValueError, "quasi-probabilities sum to 1.000000, not 1"),
    "simulated quasi-table of a near-degenerate slide": (
        lambda: simulate_scenario(RHO, NEAR_DEGENERATE, W),
        ValueError, "quasi-probabilities sum to 1.000000, not 1"),
    "swept quasi-table of a near-degenerate slide": (
        lambda: sweep_phi(RHO, NEAR_DEGENERATE, [180.0]),
        ValueError, "quasi-probabilities sum to 1.000000, not 1"),
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
}


@pytest.mark.parametrize("name", list(EDGE_GATES))
def test_edge_gate_fires(name):
    call, exc_type, message = EDGE_GATES[name]
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is exc_type


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
        projs = w_projectors(bloch_vectors(theta, phi))
        w_ops = projs[:, 0] - projs[:, 1]
        worst = max(worst, float(np.abs(w_ops @ w_ops - np.eye(2)).max()))
    assert worst <= 1e-13


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
    n = bloch_vectors(angles[:, 0], angles[:, 1])
    p = joint_tables(rho, slide_arrays(refl[:, 0], refl[:, 1]), n, [])
    assert np.isfinite(p).all()
    assert np.abs(p.reshape(-1, 8).sum(axis=1) - 1.0).max() <= 1e-14


def test_a_negative_chain_slack_always_counts_as_a_broken_chain(monkeypatch):
    """`RelationChain.holds` reads the six slacks alone, so a trial whose
    smallest slack is below -MARGIN_TOL, or NaN, counts as a broken chain.
    `verify`'s count of broken chains therefore also gates the smallest
    slack it prints, which the chain gate no longer tests on its own."""
    real = workflow.relation_chains

    def raised_c(*args, **kwargs):
        chains = real(*args, **kwargs)
        # raising c lowers the first slack by 2 dc and the last by dc / 2
        c = chains.c.copy()
        c[3] += 1.0
        c[7] = np.nan
        return dataclasses.replace(chains, c=c)

    assert run_verification(trials=12, seed=9).passed
    monkeypatch.setattr(workflow, "relation_chains", raised_c)
    result = run_verification(trials=12, seed=9)
    assert result.chain_violations == 2
    assert not result.chain_min_slack >= -MARGIN_TOL
    assert not result.passed
    assert [line for line in result.summary_lines()[1:-1] if line.endswith(" FAIL")] == [
        "derivation chain: 2 broken links (min slack +nan) FAIL"]
