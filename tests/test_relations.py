"""The four inaccuracy relations, their ordering and the derivation chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    BlochObservable,
    Estimator,
    RelationViolationError,
    disturbed_observable,
    epr_state,
    evaluate_md_relation,
    evaluate_relations,
    optimal_estimator,
    optimal_gap_weight,
    pauli,
    projector_pair,
    slide_model,
    strength_comparison,
    verify_relation_chain,
)

positive = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_relation_lhs_arithmetic():
    rep = evaluate_relations(eps_a=0.5, eps_b=0.25, delta_a=1.0, delta_b=2.0,
                             delta_a_est=0.75, delta_b_est=1.5, c=1.0)
    assert rep.lhs_ak == pytest.approx(0.125)
    assert rep.lhs_hall == pytest.approx(0.125 + 0.5 * 1.5 + 0.75 * 0.25)
    assert rep.lhs_ozawa == pytest.approx(0.125 + 0.5 * 2.0 + 1.0 * 0.25)
    assert rep.lhs_new == pytest.approx(0.5 * 1.75 + 0.25 * 0.875)
    assert rep.bound == 0.5
    assert rep.satisfied == {"arthurs_kelly": False, "hall": True,
                             "ozawa": True, "new": True}
    margins = rep.margins()
    assert margins["arthurs_kelly"] == pytest.approx(0.125 - 0.5)
    assert margins["new"] == pytest.approx(rep.lhs_new - 0.5)


def test_relation_report_to_dict():
    rep = evaluate_relations(0.5, 0.25, 1.0, 2.0, 0.75, 1.5, 1.0,
                             scenario={"phi_deg": 180.0})
    payload = rep.to_dict()
    assert set(payload) == {"scenario", "inputs", "bound", "lhs", "satisfied"}
    assert payload["scenario"]["phi_deg"] == 180.0
    assert set(payload["lhs"]) == {"arthurs_kelly", "hall", "ozawa", "new"}
    assert payload["inputs"]["c"] == 1.0


def test_relation_inputs_must_be_nonnegative():
    with pytest.raises(ValueError, match="eps_b"):
        evaluate_relations(0.5, -0.1, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="delta_b"):
        evaluate_relations(0.5, 0.1, 1.0, math.inf, 1.0, 1.0, 1.0)


@given(eps_a=positive, eps_b=positive, delta_a=positive, delta_b=positive,
       delta_a_est=positive, delta_b_est=positive)
@settings(max_examples=300, deadline=None)
def test_new_lhs_averages_hall_and_ozawa(eps_a, eps_b, delta_a, delta_b,
                                         delta_a_est, delta_b_est):
    """lhs_new = (lhs_hall + lhs_ozawa)/2 - eps_a eps_b, by construction."""
    rep = evaluate_relations(eps_a, eps_b, delta_a, delta_b,
                             delta_a_est, delta_b_est, c=1.0)
    want = (rep.lhs_hall + rep.lhs_ozawa) / 2.0 - eps_a * eps_b
    assert rep.lhs_new == pytest.approx(want, abs=1e-12)


def test_gap_weight_shape():
    assert optimal_gap_weight(0.0) == 0.0
    assert optimal_gap_weight(1.0) == pytest.approx(0.0, abs=1e-15)
    peak = optimal_gap_weight(1 / math.sqrt(2))
    assert peak == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-15)
    assert optimal_gap_weight(1.0 + 5e-13) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        optimal_gap_weight(-0.2)
    with pytest.raises(ValueError):
        optimal_gap_weight(1.1)


@given(x=unit)
@settings(max_examples=200, deadline=None)
def test_gap_weight_nonnegative(x):
    assert 0.0 <= optimal_gap_weight(x) <= (math.sqrt(2) - 1) / 2 + 1e-12


def dispersion_optimal_report(eps_a, delta_a, eps_b, delta_b, c=1.0):
    return evaluate_relations(
        eps_a, eps_b, delta_a, delta_b,
        math.sqrt(delta_a ** 2 - eps_a ** 2),
        math.sqrt(delta_b ** 2 - eps_b ** 2), c)


def test_strength_comparison_optimal_gap_residual():
    rep = dispersion_optimal_report(0.3, 0.8, 0.5, 1.1)
    ordering = strength_comparison(rep, "optimal")
    assert ordering.applicable
    assert ordering.new_le_hall and ordering.new_le_ozawa
    assert ordering.hall_gap >= 0.0 and ordering.ozawa_gap >= 0.0
    assert ordering.gap_residual is not None
    assert ordering.gap_residual < 1e-12


@given(eps_a=st.floats(0.01, 0.99), delta_a=st.floats(1.0, 2.0),
       eps_b=st.floats(0.01, 0.99), delta_b=st.floats(1.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_gap_closed_form(eps_a, delta_a, eps_b, delta_b):
    """hall - new = eps_a db h(eps_b/db) + da eps_b h(eps_a/da) when the
    spreads are dispersion-optimal."""
    rep = dispersion_optimal_report(eps_a, delta_a, eps_b, delta_b)
    ordering = strength_comparison(rep, "optimal")
    want = (eps_a * delta_b * optimal_gap_weight(eps_b / delta_b)
            + delta_a * eps_b * optimal_gap_weight(eps_a / delta_a))
    assert ordering.hall_gap == pytest.approx(want, abs=1e-12)
    assert ordering.gap_residual < 1e-12


def test_strength_comparison_not_applicable_for_simple():
    # delta_a_est far below delta_a makes the averaged-spread lhs the largest
    rep = evaluate_relations(eps_a=0.0, eps_b=1.0, delta_a=2.0, delta_b=1.0,
                             delta_a_est=0.1, delta_b_est=1.0, c=1.0)
    ordering = strength_comparison(rep, "simple")
    assert not ordering.applicable
    assert not ordering.new_le_hall
    assert ordering.hall_gap < 0.0


def test_strength_comparison_raises_for_optimal_violation():
    rep = evaluate_relations(eps_a=0.0, eps_b=1.0, delta_a=2.0, delta_b=1.0,
                             delta_a_est=0.1, delta_b_est=1.0, c=1.0)
    with pytest.raises(RelationViolationError, match="hall_gap"):
        strength_comparison(rep, "optimal")


def test_strength_comparison_reads_kind_from_scenario():
    rep = evaluate_relations(0.3, 0.4, 1.0, 1.0, 0.9, 0.9, 1.0,
                             scenario={"estimator": "optimal"})
    assert strength_comparison(rep).applicable
    rep = evaluate_relations(0.3, 0.4, 1.0, 1.0, 0.9, 0.9, 1.0)
    assert not strength_comparison(rep).applicable


def test_gap_residual_none_when_inaccuracy_exceeds_spread():
    rep = evaluate_relations(eps_a=1.5, eps_b=0.2, delta_a=1.0, delta_b=1.0,
                             delta_a_est=0.5, delta_b_est=0.5, c=0.1)
    ordering = strength_comparison(rep, "simple")
    assert ordering.gap_residual is None


def chain_operators(gamma, f_plus, f_minus, g_plus, g_minus):
    """A = X1, B = Y1; both estimates read qubit 2 in the -X basis."""
    eye = np.eye(2)
    a = np.kron(pauli("X").matrix, eye)
    b = np.kron(pauli("Y").matrix, eye)
    w_plus, w_minus = (p.matrix for p in projector_pair(-pauli("X")))
    a_est = np.kron(eye, f_plus * w_plus + f_minus * w_minus)
    b_est = np.kron(eye, g_plus * w_plus + g_minus * w_minus)
    return a_est, b_est, a, b, epr_state(gamma).matrix


@given(gamma=st.floats(0.1, 1.4), f_plus=st.floats(-2, 2),
       f_minus=st.floats(-2, 2), g_plus=st.floats(-2, 2),
       g_minus=st.floats(-2, 2))
@settings(max_examples=200, deadline=None)
def test_relation_chain_holds_for_commuting_estimates(gamma, f_plus, f_minus,
                                                      g_plus, g_minus):
    chain = verify_relation_chain(*chain_operators(gamma, f_plus, f_minus,
                                                   g_plus, g_minus))
    assert chain.commutator_residual <= 1e-12
    assert chain.identity_residual <= 1e-12
    assert len(chain.slacks) == 6
    assert chain.min_slack >= -1e-9
    assert chain.holds
    assert chain.lhs_new == pytest.approx(chain.schwarz_sum / 4.0)
    assert chain.triangle_sum <= chain.schwarz_sum + 1e-9
    assert 2.0 * chain.c <= chain.triangle_sum + 1e-9


def test_relation_chain_matches_scalar_lhs():
    """The chain's Schwarz sum / 4 is the averaged-spread lhs of its stats."""
    chain = verify_relation_chain(*chain_operators(0.6, 0.7, -0.7, 0.2, -0.4))
    rep = evaluate_relations(chain.eps_a, chain.eps_b, chain.delta_a,
                             chain.delta_b, chain.delta_a_est,
                             chain.delta_b_est, chain.c)
    assert chain.lhs_new == pytest.approx(rep.lhs_new, abs=1e-12)
    assert chain.bound == pytest.approx(rep.bound, abs=1e-12)


def test_relation_chain_rejects_noncommuting_estimates():
    eye = np.eye(2)
    a = np.kron(pauli("X").matrix, eye)
    b = np.kron(pauli("Y").matrix, eye)
    a_est = np.kron(eye, pauli("X").matrix)
    b_est = np.kron(eye, pauli("Y").matrix)
    with pytest.raises(ValueError, match="do not commute"):
        verify_relation_chain(a_est, b_est, a, b, epr_state(0.4).matrix)


def test_relation_chain_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="different spaces"):
        verify_relation_chain(np.eye(2), np.eye(4), np.eye(4), np.eye(4),
                              np.eye(4) / 4)


def test_md_relation_golden(reference):
    rho, slide, w = reference
    report = evaluate_md_relation(rho, slide, w, optimal_estimator(rho, w))
    assert report.eta_b == pytest.approx(slide.kappa, abs=1e-12)
    assert report.lhs == pytest.approx(0.7445400235376382, abs=1e-12)
    assert report.delta_b_disturbed == pytest.approx(1 - slide.kappa, abs=1e-12)
    assert report.satisfied
    payload = report.to_dict()
    assert payload["lhs"] == report.lhs
    assert set(payload["inputs"]) == {"eps_a", "eta_b", "delta_a",
                                      "delta_a_est", "delta_b",
                                      "delta_b_disturbed", "c"}


@given(gamma=st.floats(0.05, 1.5), r_h=st.floats(0.05, 0.95),
       r_v=st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_md_disturbance_equals_kappa(gamma, r_h, r_v):
    """The closed form eta(Y) = kappa is the RMS change <(Y' - Y)^2>^(1/2)
    of the Kraus channel's Heisenberg-picture Y', for any state."""
    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    slide = slide_model(r_h, r_v)
    rho = epr_state(gamma)
    w = BlochObservable.from_degrees(90, 180)
    report = evaluate_md_relation(rho, slide, w, Estimator.simple())
    diff = np.kron(disturbed_observable(slide, pauli("Y")).matrix - pauli("Y").matrix,
                   np.eye(2))
    eta = math.sqrt(np.trace(rho.matrix @ diff @ diff).real)
    assert report.eta_b == pytest.approx(eta, abs=1e-12)
    assert report.satisfied
