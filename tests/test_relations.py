"""The four inaccuracy relations, their ordering and the derivation chain."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    BlochObservable,
    HermitianOperator,
    RelationViolationError,
    disturbed_observable,
    epr_state,
    evaluate_md_relation,
    evaluate_relations,
    pauli,
    projector_pair,
    simulate_scenario,
    slide_model,
    strength_comparison,
    verify_relation_chain,
)
from jointmeas.estimate import optimal_values
from jointmeas.oracle import direct_moments, w_moments, w_projectors
from jointmeas.qcore import (
    bloch_vectors,
    commutator_bounds,
    correlations,
    spreads,
)
from jointmeas.relations import (
    COMMUTATION_TOL,
    MDReport,
    chain_item,
    gap_weights,
    relation_chains,
)
from jointmeas.scenario import povm_elements, slide_arrays
from jointmeas.workflow import _draw_block, _state_matrices, dilated_chains

from dilation import dilated_operators

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


def gap_weight(x):
    return float(gap_weights(np.array([x], dtype=float))[0])


def test_gap_weight_shape():
    h = gap_weights(np.array([0.0, 1.0, 1 / math.sqrt(2), 1.0 + 5e-13]))
    assert h[0] == 0.0
    assert h[1] == pytest.approx(0.0, abs=1e-15)
    assert h[2] == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-15)
    assert h[3] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="gap weight defined on \\[0, 1\\], got -0.2"):
        gap_weights(np.array([0.5, -0.2]))
    with pytest.raises(ValueError, match="got 1.1"):
        gap_weights(np.array([1.1, 0.5]))
    with pytest.raises(ValueError, match="got 1.000000000002"):
        gap_weights(np.array([1.0 + 2e-12]))
    # the first offending x raises
    with pytest.raises(ValueError, match="got 1.5"):
        gap_weights(np.array([0.5, 1.5, -1.0]))


@given(x=unit)
@settings(max_examples=200, deadline=None)
def test_gap_weight_nonnegative(x):
    assert 0.0 <= gap_weight(x) <= (math.sqrt(2) - 1) / 2 + 1e-12


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
    want = (eps_a * delta_b * gap_weight(eps_b / delta_b)
            + delta_a * eps_b * gap_weight(eps_a / delta_a))
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


@pytest.mark.parametrize("kind", ["optimal", None])
def test_strength_comparison_at_the_domain_edge(kind):
    """eps_b = delta_b + 5e-13 lies in the closed form's domain, which
    admits inaccuracies up to 1e-12 above their spreads; its weight is taken
    at x = 1, not rejected as x = 1.0000000005 outside [0, 1]."""
    eps_b = 1e-3 + 5e-13
    rep = evaluate_relations(0.1, eps_b, 0.5, 1e-3, math.sqrt(0.5 ** 2 - 0.1 ** 2), 0.0, 1e-4)
    ordering = strength_comparison(rep, kind)
    assert ordering.applicable == (kind == "optimal")
    assert ordering.new_le_hall and ordering.new_le_ozawa
    assert ordering.gap_residual is not None and ordering.gap_residual <= 1e-12
    # spreads that are not dispersion-optimal: the ordering itself fails
    rep = evaluate_relations(0.1, eps_b, 0.5, 1e-3, 0.3, 0.0, 1e-4)
    if kind == "optimal":
        with pytest.raises(RelationViolationError, match="not weakest"):
            strength_comparison(rep, kind)
    else:
        assert not strength_comparison(rep, kind).new_le_hall


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


def identity_residual(a_est, b_est, a, b):
    """max|2[A,B] - [A - A_est, B + B_est] - [A + A_est, B - B_est]|, the
    first identity of the derivation, from direct products, per set."""
    def comm(p, q):
        return p @ q - q @ p

    return np.abs(2.0 * comm(a, b) - comm(a - a_est, b + b_est)
                  - comm(a + a_est, b - b_est)).max(axis=(-2, -1))


@given(gamma=st.floats(0.1, 1.4), f_plus=st.floats(-2, 2),
       f_minus=st.floats(-2, 2), g_plus=st.floats(-2, 2),
       g_minus=st.floats(-2, 2))
@settings(max_examples=200, deadline=None)
def test_relation_chain_holds_for_commuting_estimates(gamma, f_plus, f_minus,
                                                      g_plus, g_minus):
    ops = chain_operators(gamma, f_plus, f_minus, g_plus, g_minus)
    chain = verify_relation_chain(*ops)
    assert chain.commutator_residual <= 1e-12
    assert identity_residual(*ops[:4]) <= 1e-12
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


@pytest.mark.parametrize("skew", [1e-14, 1e-13, 2.4e-13, 1e-12, 1e-11, 1e-10])
def test_chain_gate_never_accepts_a_set_it_counts_broken(skew):
    """A = X1, B = Y1, A_est = 1 (x) Z, B_est = 1 (x) (Z + skew X) and
    rho = 1/4 give max|[A_est, B_est]| = 2 skew and an identity residual of
    twice that: the set either fails the commutation gate or its identity
    holds within 1e-12 and its chain holds, never both passes the gate and
    counts as broken."""
    eye = np.eye(2)
    x, y, z = (pauli(k).matrix for k in "XYZ")
    ops = (np.kron(eye, z), np.kron(eye, z + skew * x), np.kron(x, eye),
           np.kron(y, eye), np.eye(4) / 4)
    try:
        chain = verify_relation_chain(*ops)
    except ValueError as err:
        assert "do not commute" in str(err)
        assert skew > 2.5e-13
    else:
        assert chain.commutator_residual == pytest.approx(2.0 * skew, rel=1e-3)
        assert identity_residual(*ops[:4]) == pytest.approx(4.0 * skew, rel=1e-3)
        assert identity_residual(*ops[:4]) <= 1e-12
        assert chain.holds


@pytest.mark.parametrize("d", [4, 8])
def test_identity_link_is_twice_the_commutation_residual(d):
    """The first identity of the derivation is off by exactly 2[A_est, B_est],
    so a chain carries no identity residual of its own: across commutators
    from 1e-16 to 1, the direct residual equals twice the chain's
    ``commutator_residual`` to rounding, and it stays within 1e-12 wherever
    the commutation gate (5e-13) accepts the set."""
    rng = np.random.default_rng(d)
    size = 400

    def hermitian(scale):
        g = rng.normal(size=(size, d, d)) + 1j * rng.normal(size=(size, d, d))
        return scale[:, None, None] * (g + g.conj().swapaxes(-1, -2)) / 2

    ones = np.ones(size)
    a_est, a, b = hermitian(ones), hermitian(ones), hermitian(2.0 * ones)
    # B_est = f(A_est) + skew H: commutes with A_est up to the skew
    vals, vecs = np.linalg.eigh(a_est)
    func = (vecs * np.cos(3.0 * vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    b_est = func + hermitian(10.0 ** rng.uniform(-16.0, 0.0, size))
    rho = np.eye(d) / d
    commutator = np.abs(a_est @ b_est - b_est @ a_est).max(axis=(1, 2))
    residual = identity_residual(a_est, b_est, a, b)
    np.testing.assert_allclose(residual, 2.0 * commutator, rtol=1e-6, atol=1e-13)
    accepted = commutator <= COMMUTATION_TOL
    assert 0 < accepted.sum() < size
    chains = relation_chains(a_est[accepted], b_est[accepted], a[accepted], b[accepted], rho)
    np.testing.assert_array_equal(chains.commutator_residual, commutator[accepted])
    assert residual[accepted].max() <= 1e-12
    with pytest.raises(ValueError, match="do not commute"):
        relation_chains(a_est, b_est, a, b, rho)


def test_relation_chain_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="different spaces"):
        verify_relation_chain(np.eye(2), np.eye(4), np.eye(4), np.eye(4),
                              np.eye(4) / 4)


def reference_chain(a_est, b_est, a, b, rho):
    """Every link of the derivation for each operator set, one set at a
    time, each commutator from its own two operator products; operands are
    one matrix ``[d, d]`` shared by all sets or a stack ``[N, d, d]``."""
    ops = [np.asarray(op, dtype=complex) for op in (a_est, b_est, a, b, rho)]
    size = max(len(op) for op in ops if op.ndim == 3)
    out = {name: [] for name in (
        "c", "commutator_residual", "eps_a", "eps_b", "delta_a",
        "delta_b", "delta_a_est", "delta_b_est", "triangle_terms", "schwarz_terms")}

    def comm(p, q):
        return p @ q - q @ p

    for i in range(size):
        ae, be, a_, b_, r = (op[i] if op.ndim == 3 else op for op in ops)

        def ev(op):
            return np.trace(r @ op)

        def rms(op):
            return math.sqrt(max(ev(op @ op).real, 0.0))

        def centred_rms(op):
            return rms(op - ev(op).real * np.eye(len(op)))

        residual = np.abs(comm(ae, be)).max()
        if residual > 5e-13:
            raise ValueError(f"estimators do not commute (max |[A_est, B_est]| = "
                             f"{residual:.3e})")
        eps_a, eps_b = rms(a_ - ae), rms(b_ - be)
        da, db, da_est, db_est = map(centred_rms, (a_, b_, ae, be))
        values = {
            "c": abs(ev(comm(a_, b_))), "commutator_residual": residual,
            "eps_a": eps_a, "eps_b": eps_b, "delta_a": da, "delta_b": db,
            "delta_a_est": da_est, "delta_b_est": db_est,
            "triangle_terms": [abs(ev(comm(a_ - ae, b_))), abs(ev(comm(a_ - ae, be))),
                               abs(ev(comm(a_, b_ - be))), abs(ev(comm(ae, b_ - be)))],
            "schwarz_terms": [2.0 * eps_a * db, 2.0 * eps_a * db_est,
                              2.0 * da * eps_b, 2.0 * da_est * eps_b]}
        for name, value in values.items():
            out[name].append(value)
    return {name: np.array(values, dtype=float) for name, values in out.items()}


def assert_chain_matches_reference(chains, want):
    assert {f.name for f in dataclasses.fields(chains)} == want.keys()
    for name, value in want.items():
        got = getattr(chains, name)
        if name.endswith("_terms"):
            assert len(got) == 4
            got = np.stack(got, axis=1)
        np.testing.assert_allclose(got, value, rtol=0, atol=1e-12, err_msg=name)
    # the six link slacks: triangle sum against 2c, each Schwarz term against
    # its triangle term, and the averaged-spread lhs against c/2
    triangle, schwarz, c = want["triangle_terms"], want["schwarz_terms"], want["c"]
    want_slacks = (triangle.sum(axis=1) - 2.0 * c, *(schwarz - triangle).T,
                   schwarz.sum(axis=1) / 4.0 - c / 2.0)
    assert len(chains.slacks) == 6
    for k, (got, value) in enumerate(zip(chains.slacks, want_slacks)):
        np.testing.assert_allclose(got, value, rtol=0, atol=1e-12, err_msg=f"slack {k}")


def random_hermitian(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + g.conj().T) / 2


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def commuting_pair(rng, d):
    """Two Hermitian operators diagonal in one random basis."""
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return tuple(basis @ np.diag(rng.uniform(-2.0, 2.0, d)) @ basis.conj().T
                 for _ in range(2))


def chain_operands(rng, d, size, shared):
    """Operands ``(a_est, b_est, a, b, rho)``: those named in ``shared`` one
    matrix ``[d, d]``, the others stacks ``[size, d, d]``."""
    def draw():
        a_est, b_est = commuting_pair(rng, d)
        return a_est, b_est, random_hermitian(rng, d), random_hermitian(rng, d, 2.0), \
            random_density(rng, d)

    one = draw()
    stacks = [np.stack(ops) for ops in zip(*(draw() for _ in range(size)))]
    names = ("a_est", "b_est", "a", "b", "rho")
    return tuple(one[k] if name in shared else stacks[k] for k, name in enumerate(names))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("shared", [(), ("a", "b"), ("a_est", "b_est"), ("rho",),
                                    ("a", "b", "rho")])
def test_relation_chains_equal_link_by_link_reference(d, shared):
    """The chain taken from four commutators by bilinearity equals one whose
    every link has its own operator products, to 1e-12."""
    operands = chain_operands(np.random.default_rng(d + 10 * len(shared)), d, 6, shared)
    assert_chain_matches_reference(relation_chains(*operands), reference_chain(*operands))


def test_relation_chains_centre_on_the_real_part_of_the_mean():
    """No operand is assumed Hermitian: each spread centres its operator on
    ``m = Re Tr(rho A)``, as the reference does, also where ``Tr(rho A)`` has
    an imaginary part, here of 1e-3 or more."""
    rng = np.random.default_rng(12)
    a_est, b_est, a, b, rho = chain_operands(rng, 4, 6, ())
    skew = [np.stack([random_hermitian(rng, 4) for _ in range(6)]) for _ in range(2)]
    a, b = a + 0.5j * skew[0], b + 0.5j * skew[1]
    # polynomials in one commuting pair still commute
    a_est, b_est = a_est + 0.5j * b_est, b_est - 0.3j * a_est
    for op in (a, b, a_est, b_est):
        assert np.abs(np.trace(rho @ op, axis1=-2, axis2=-1).imag).min() >= 1e-3
    operands = (a_est, b_est, a, b, rho)
    assert_chain_matches_reference(relation_chains(*operands), reference_chain(*operands))


def test_relation_chains_equal_reference_on_dilated_operators():
    """The dilated sets of `run_verification` as full matrices: shared X1
    and Y1, stacked estimators and states on (q1, q2, ancilla)."""
    rng = np.random.default_rng(11)
    size = 20
    rho = np.stack([random_density(rng, 4) for _ in range(size)])
    r_h = rng.uniform(0.02, 0.49, size)
    slides = slide_arrays(r_h, r_h + rng.uniform(0.01, 0.49, size))
    n = bloch_vectors(np.arccos(rng.uniform(-1.0, 1.0, size)),
                      rng.uniform(0.0, 2.0 * math.pi, size), [])
    ops = dilated_operators(rho, povm_elements(slides), w_projectors(n),
                            rng.uniform(-2.0, 2.0, (size, 2)))
    assert [op.shape for op in ops] == [(size, 8, 8), (size, 8, 8), (8, 8), (8, 8),
                                        (size, 8, 8)]
    assert_chain_matches_reference(relation_chains(*ops), reference_chain(*ops))


@pytest.mark.parametrize("split", [1e-4, 1e-5, 1e-6])
def test_dilated_chain_keeps_eps_b_precise_in_the_weak_limit(split):
    """With r_v - r_h down to 1e-6, the dilated Y estimate's inaccuracy stays
    within 1e-10 of its closed form sqrt(2 kappa), as the direct product
    ``(B - B_est)^2`` keeps it; verify gates the two at 1e-9."""
    rng = np.random.default_rng(int(round(-math.log10(split))))
    size = 200
    rho = np.stack([random_density(rng, 4) for _ in range(size)])
    r_h = rng.uniform(0.02, 0.97, size)
    slides = slide_arrays(r_h, r_h + split)
    n = bloch_vectors(np.arccos(rng.uniform(-1.0, 1.0, size)),
                      rng.uniform(0.0, 2.0 * math.pi, size), [])
    moments, f = w_moments(rho, n), optimal_values(correlations(rho), n, [])
    chains = dilated_chains(rho, slides, moments, f,
                            direct_moments(moments, f[:, None])[1][:, 0])
    assert np.abs(chains.eps_b - np.sqrt(2.0 * slides.kappa)).max() <= 1e-10


FACTORED_CASES = ("drawn", "r in {0, 1}", "split 1e-4", "split 1e-6")


@pytest.mark.parametrize("case", FACTORED_CASES)
def test_factored_chain_equals_the_full_dilated_chain(case):
    """On seeded `verify` blocks (custom X estimates on odd trials, optimal
    ones on even trials), every field and slack of the chain that
    `dilated_chains` computes on each operator's own factors equals the
    chain `relation_chains` takes from full 8x8 matrices within 1e-13:
    drawn slides, slides with r_h or r_v in {0, 1}, and splits r_v - r_h
    down to 1e-6.  The commutation residual of both is exactly 0."""
    seed = FACTORED_CASES.index(case)
    g, refl, angles, custom = _draw_block(np.random.default_rng(100 + seed), 0, 512)
    rho = _state_matrices(g)
    n = bloch_vectors(angles[:, 0], angles[:, 1], [])
    f = np.where(np.isnan(custom), optimal_values(correlations(rho), n, []), custom)
    rng = np.random.default_rng(seed)
    if case == "r in {0, 1}":
        refl[np.arange(512), rng.integers(0, 2, 512)] = rng.choice([0.0, 1.0], 512)
    elif case != "drawn":
        refl[:, 1] = refl[:, 0] + float(case.split()[1])
    slides, w_projs = slide_arrays(refl[:, 0], refl[:, 1]), w_projectors(n)
    moments = w_moments(rho, n)
    got = dilated_chains(rho, slides, moments, f,
                         direct_moments(moments, f[:, None])[1][:, 0])
    want = relation_chains(*dilated_operators(rho, povm_elements(slides), w_projs, f))
    for field in dataclasses.fields(got):
        np.testing.assert_allclose(getattr(got, field.name), getattr(want, field.name),
                                   rtol=0, atol=1e-13, err_msg=field.name)
    np.testing.assert_allclose(got.slacks, want.slacks, rtol=0, atol=1e-13)
    assert not got.commutator_residual.any() and not want.commutator_residual.any()


@pytest.mark.parametrize("d", [4, 8])
def test_relation_chains_raise_reference_error_for_first_noncommuting_set(d):
    rng = np.random.default_rng(5)
    a_est, b_est, a, b, rho = chain_operands(rng, d, 7, ("a", "b"))
    # sets 3 and 5 get estimators that do not commute, with different residuals
    for k, scale in ((3, 1.0), (5, 4.0)):
        b_est[k] = random_hermitian(rng, d, scale)
    with pytest.raises(ValueError) as want:
        reference_chain(a_est, b_est, a, b, rho)
    with pytest.raises(ValueError) as first:
        reference_chain(a_est[3:4], b_est[3:4], a, b, rho[3:4])
    assert str(want.value) == str(first.value)
    with pytest.raises(ValueError) as got:
        relation_chains(a_est, b_est, a, b, rho)
    assert type(got.value) is ValueError
    assert str(got.value) == str(want.value)
    assert "do not commute" in str(got.value)


@pytest.mark.parametrize("stacked", [("rho",), ()])
def test_relation_chains_gate_shared_estimators_that_do_not_commute(stacked):
    """Shared ``[d, d]`` estimators give one commutator for every set: the
    gate raises its own error for them, with the stack axis on rho alone or
    on no operand, and an accepted set keeps its field shapes (the residual
    one value, the expectations one per state)."""
    x, z = pauli("X").matrix, pauli("Z").matrix
    rho = np.eye(2) / 2
    rho = rho[None] if stacked else rho
    with pytest.raises(ValueError) as err:
        relation_chains(x, z, x, z, rho)
    assert type(err.value) is ValueError
    assert str(err.value) == "estimators do not commute (max |[A_est, B_est]| = 2.000e+00)"
    chains = relation_chains(z, z, x, z, rho)
    assert np.shape(chains.c) == ((1,) if stacked else ())
    assert np.shape(chains.commutator_residual) == ()
    assert chains.commutator_residual == 0.0


def test_md_relation_golden(reference):
    rho, slide, w = reference
    report = evaluate_md_relation(
        simulate_scenario(rho, slide, w, estimator="optimal"), slide.kappa)
    assert report.eta_b == pytest.approx(slide.kappa, abs=1e-12)
    assert report.lhs == pytest.approx(0.7445400235376382, abs=1e-12)
    assert report.delta_b_disturbed == pytest.approx(1 - slide.kappa, abs=1e-12)
    assert report.satisfied
    payload = report.to_dict()
    assert payload["lhs"] == report.lhs
    assert set(payload["inputs"]) == {"eps_a", "eta_b", "delta_a",
                                      "delta_a_est", "delta_b",
                                      "delta_b_disturbed", "c"}


def test_md_relation_reads_the_relation_report(reference):
    """Every MD input but eta(Y) and Delta(Y') is the report's own value;
    a report that breaks the relation raises."""
    rho, slide, w = reference
    rep = simulate_scenario(rho, slide, w, estimator="simple")
    kappa = slide.kappa
    assert evaluate_md_relation(rep, kappa) == MDReport(
        eps_a=rep.eps_a, eta_b=kappa, delta_a=rep.delta_a, delta_a_est=rep.delta_a_est,
        delta_b=rep.delta_b, delta_b_disturbed=(1.0 - kappa) * rep.delta_b, c=rep.c)
    with pytest.raises(RelationViolationError, match="measurement-disturbance"):
        evaluate_md_relation(dataclasses.replace(rep, c=10.0), kappa)


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
    report = evaluate_md_relation(
        simulate_scenario(rho, slide, w, estimator="simple"), slide.kappa)
    diff = np.kron(disturbed_observable(slide, pauli("Y")).matrix - pauli("Y").matrix,
                   np.eye(2))
    eta = math.sqrt(np.trace(rho.matrix @ diff @ diff).real)
    assert report.eta_b == pytest.approx(eta, abs=1e-12)
    assert report.satisfied


SHARED_SETS = (("a", "b"), ("a_est", "b_est"), ("rho",), ("a", "b", "rho"),
               ("a_est", "b_est", "rho"), ("a", "b", "a_est", "b_est"))


def test_shared_operand_gemm_forms_match_per_matrix_forms():
    """On 200 seeded random stacks, the statistics kernels that apply one
    shared operator as a GEMM over the flattened stack equal the per-matrix
    forms ``np.trace(m @ g)`` and the Pauli einsum to 1e-15, and a chain
    with shared ``[d, d]`` operands equals one with them tiled to
    ``[N, d, d]`` to 1e-15, absolute or relative (its Schwarz terms reach
    20, where one rounding step is 3.6e-15)."""
    sigmas = np.stack([pauli(k).matrix for k in "IXYZ"])
    pairs = np.einsum("jab,kcd->jkacbd", sigmas, sigmas).reshape(4, 4, 4, 4)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 9))
        d = 4 if seed % 4 else 2
        mats = np.stack([random_density(rng, d) for _ in range(size)])
        a, b = (HermitianOperator(random_hermitian(rng, d)) for _ in range(2))
        if d == 4:
            want = np.einsum("jkab,nba->njk", pairs, mats).real
            np.testing.assert_allclose(correlations(mats), want, rtol=0, atol=1e-15)
        for op in (a, b):
            g = op.matrix
            want = [math.sqrt(max(np.trace(m @ g @ g).real - np.trace(m @ g).real ** 2, 0.0))
                    for m in mats]
            np.testing.assert_allclose(spreads(op, mats, []), want, rtol=0, atol=1e-15)
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        want = [abs(np.trace(m @ comm)) for m in mats]
        np.testing.assert_allclose(commutator_bounds(a, b, mats), want, rtol=0, atol=1e-15)

        # the estimators are shared together or not at all, so they commute
        shared = SHARED_SETS[seed % len(SHARED_SETS)]
        operands = chain_operands(rng, 2 * d, size, shared)
        tiled = [np.array(np.broadcast_to(op, (size, 2 * d, 2 * d))) for op in operands]
        got, want = relation_chains(*operands), relation_chains(*tiled)
        for field in dataclasses.fields(got):
            np.testing.assert_allclose(getattr(got, field.name), getattr(want, field.name),
                                       rtol=1e-15, atol=1e-15, err_msg=f"{seed} {field.name}")


def test_chain_item_reads_a_shared_field_for_every_chain():
    """With both estimators and both targets one shared matrix, the
    commutation residual is one value for all N chains: item 1 of three
    stacked states equals, field for field, the chain of state 1 alone."""
    x, z = pauli("X").matrix, pauli("Z").matrix
    rho = np.stack([random_density(np.random.default_rng(seed), 2) for seed in range(3)])
    chains = relation_chains(z, z, x, z, rho)
    assert np.shape(chains.commutator_residual) == () and np.shape(chains.c) == (3,)
    assert chain_item(chains, 1) == verify_relation_chain(z, z, x, z, rho[1])
