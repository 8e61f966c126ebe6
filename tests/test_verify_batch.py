"""The array-block `run_verification` against a one-trial-at-a-time loop.

The reference below is the per-trial loop body the suite ran before it was
batched, built from the public scalar functions: it draws each trial's
state, slide and W direction straight from the generator in the documented
order, cross-checks the statistics against Margenau-Hill tables and
inaccuracies traced from explicit Kronecker products, and builds the
derivation chain on a Naimark dilation embedded slot by slot.
Summation order differs from the array passes, so values agree to 1e-12,
not bit for bit.
"""

import math

import numpy as np
import pytest

from jointmeas import (
    BlochObservable,
    DensityMatrix,
    Estimator,
    RelationViolationError,
    UndefinedEstimateError,
    embed,
    epr_state,
    evaluate_relations,
    inaccuracy_x,
    inaccuracy_y,
    joint_distribution,
    mh_from_counts,
    naimark_unitary,
    optimal_estimator,
    pauli,
    projector_pair,
    random_observable,
    random_slide,
    random_state,
    run_verification,
    slide_model,
    spread,
    strength_comparison,
    tensor,
    verify_relation_chain,
)
from jointmeas import estimate, oracle, qcore, scenario, workflow
from jointmeas.estimate import estimator_spread, y_spreads
from jointmeas.oracle import naimark_unitaries
from jointmeas.qcore import SIGMAS, bloch_vectors, commutator_bounds
from jointmeas.relations import relation_chains
from jointmeas.scenario import povm_elements

X1 = tensor(pauli("X"), pauli("I"))
Y1 = tensor(pauli("Y"), pauli("I"))


def oracle_diff(rho, slide, w, dist, estimators, eps_stats):
    eye = np.eye(2)
    x_projs = [p.matrix for p in projector_pair(pauli("X"))]
    w_projs = [p.matrix for p in projector_pair(w.as_operator())]
    mh_counts = mh_from_counts(dist, slide)
    worst = 0.0
    for x, x_proj in enumerate(x_projs):
        for ww, w_proj in enumerate(w_projs):
            k_op, l_op = np.kron(x_proj, eye), np.kron(eye, w_proj)
            want = 0.5 * np.trace(rho.matrix @ (k_op @ l_op + l_op @ k_op)).real
            worst = max(worst, abs(mh_counts[x, ww] - want))
    for kind, est in estimators.items():
        diff = np.kron(pauli("X").matrix, eye) - np.kron(eye, est.as_operator(w).matrix)
        eps = math.sqrt(max(np.trace(rho.matrix @ diff @ diff).real, 0.0))
        worst = max(worst, abs(eps_stats[kind] - eps))
    return worst


def embedded_chain(rho, slide, w, est):
    """The chain on (q1, q2, ancilla) with the ancilla in |0>."""
    dims = (2, 2, 2)
    a = embed(pauli("X").matrix, (0,), dims)
    b = embed(pauli("Y").matrix, (0,), dims)
    a_est = embed(est.as_operator(w).matrix, (1,), dims)
    unitary = naimark_unitary(tuple(povm_elements(slide.arrays)[0]))
    # ancilla projectors on (q1, ancilla), back-rotated by the dilation
    y_plus, y_minus = (unitary.conj().T @ np.kron(np.eye(2), np.diag(d)) @ unitary
                       for d in ([1.0, 0.0], [0.0, 1.0]))
    b_est = embed(y_plus - y_minus, (0, 2), dims)
    state = np.kron(rho.matrix, np.diag([1.0, 0.0]))
    return verify_relation_chain(a_est, b_est, a, b, state)


def loop_verification(trials, seed):
    """The randomized suite, one trial at a time, and the X estimates
    ``f[trial, w]`` its derivation chains used."""
    rng = np.random.default_rng(seed)
    out = {"oracle_max_diff": 0.0, "y_inaccuracy_max_diff": 0.0,
           "dispersion_max_residual": 0.0,
           "min_margins": dict.fromkeys(("arthurs_kelly", "hall", "ozawa", "new"), math.inf),
           "violations": dict.fromkeys(("hall", "ozawa", "new"), 0), "ak_violations": 0,
           "chain_min_slack": math.inf, "chain_violations": 0, "ordering_violations": 0,
           "gap_checked": 0, "gap_max_residual": 0.0}
    chain_estimates = np.zeros((trials, 2))
    for trial in range(trials):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        while True:
            r_h, r_v = rng.uniform(0.02, 0.98, size=2)
            if abs(r_h - r_v) >= 0.01:
                break
        slide = slide_model(float(r_h), float(r_v))
        w = BlochObservable(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
        dist = joint_distribution(rho, slide, w)
        eps_b = inaccuracy_y(slide)
        delta_a, delta_b = spread(X1, rho), spread(Y1, rho)
        estimators = {"simple": Estimator.simple(), "optimal": optimal_estimator(rho, w)}
        eps_stats = {}
        for kind, est in estimators.items():
            eps_a = eps_stats[kind] = inaccuracy_x(dist, slide, est)
            d_est = estimator_spread(dist, est)
            report = evaluate_relations(
                eps_a, eps_b, delta_a, delta_b, d_est, float(y_spreads(dist.table[None], [])[0]),
                float(commutator_bounds(X1, Y1, rho.matrix[None])[0]),
                scenario={"estimator": kind})
            for name, margin in report.margins().items():
                out["min_margins"][name] = min(out["min_margins"][name], margin)
                if margin < -1e-9:
                    if name == "arthurs_kelly":
                        out["ak_violations"] += 1
                    else:
                        out["violations"][name] += 1
            if kind == "optimal":
                out["dispersion_max_residual"] = max(
                    out["dispersion_max_residual"], abs(eps_a ** 2 + d_est ** 2 - delta_a ** 2))
                try:
                    ordering = strength_comparison(report)
                except RelationViolationError:
                    out["ordering_violations"] += 1
                else:
                    if ordering.gap_residual is not None:
                        out["gap_checked"] += 1
                        out["gap_max_residual"] = max(out["gap_max_residual"],
                                                      ordering.gap_residual)
        out["oracle_max_diff"] = max(out["oracle_max_diff"], oracle_diff(
            rho, slide, w, dist, estimators, eps_stats))
        if trial % 2 == 0:
            chain_est = estimators["optimal"]
        else:
            chain_est = Estimator.custom(*rng.uniform(-2.0, 2.0, size=2))
        chain_estimates[trial] = chain_est.array
        chain = embedded_chain(rho, slide, w, chain_est)
        assert workflow.dilated_chain(rho, slide, w, chain_est).min_slack == pytest.approx(
            chain.min_slack, abs=1e-12)
        out["chain_min_slack"] = min(out["chain_min_slack"], chain.min_slack)
        out["chain_violations"] += not chain.holds
        out["y_inaccuracy_max_diff"] = max(out["y_inaccuracy_max_diff"],
                                           abs(chain.eps_b - eps_b))
    return out, chain_estimates


RESIDUALS = ("oracle_max_diff", "y_inaccuracy_max_diff", "dispersion_max_residual",
             "gap_max_residual")
COUNTS = ("violations", "ak_violations", "chain_violations", "ordering_violations",
          "gap_checked")


def test_block_forms_w_projectors_and_mh_tables_once(monkeypatch):
    """One block forms each quantity that several of its passes read once:
    its analyser projectors and W moments, for the oracle and the chain;
    its Margenau-Hill tables, for eps(X) of both kinds and the oracle
    comparison; its correlation tensors, for the tables and the optimal
    estimate; and its w marginals, for the estimate spreads of both kinds.
    Each counts the calls through every module that holds the name."""
    workflow._reference_flags()  # cached per process: keep its pass out of the count
    names = ("w_projectors", "mh_tables", "correlations", "w_moments", "w_marginals")
    calls = dict.fromkeys(names, 0)

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in names:
        holders = [module for module in (qcore, scenario, estimate, oracle, workflow)
                   if name in vars(module)]
        wrapper = counting(name, getattr(holders[0], name)) if holders else None
        for module in holders:
            monkeypatch.setattr(module, name, wrapper)
    run_verification(trials=7, seed=3)
    assert calls == dict.fromkeys(names, 1)


def test_block_takes_the_chains_inaccuracy_from_the_oracle_pass(monkeypatch):
    """One block calls `direct_moments` once, with the chain's estimate
    (custom on odd trials) as an extra column, and hands the chain exactly
    the eps(X) that `dilated_chains` forms for that estimate on its own."""
    workflow._reference_flags()  # cached per process: keep its pass out of the record
    oracle_calls, chain_args = [], []
    direct, chains = workflow.direct_moments, workflow.dilated_chains

    def counted(*args):
        oracle_calls.append(args)
        return direct(*args)

    def recording(rho, slide, moments, f, *eps_a):
        chain_args.append((rho, moments, f, eps_a))
        return chains(rho, slide, moments, f, *eps_a)

    monkeypatch.setattr(workflow, "direct_moments", counted)
    monkeypatch.setattr(workflow, "dilated_chains", recording)
    run_verification(trials=64, seed=11)
    [(rho, moments, f, (eps_a,))] = chain_args
    assert len(oracle_calls) == 1
    np.testing.assert_array_equal(eps_a, direct(moments, f[:, None])[1][:, 0])


@pytest.mark.parametrize("trials, seed, block", [
    (101, 3, None), (101, 17, None), (101, 42, 33), (1, 5, None), (0, 5, None)])
def test_blocks_match_trial_loop(trials, seed, block, monkeypatch):
    if block is not None:
        # several blocks of odd size, the last one partial: trial parity
        # (custom estimates on odd trials) must follow the global index
        monkeypatch.setattr(workflow, "_BLOCK", block)
    chain_estimates = []
    chains = workflow.dilated_chains

    def recording_chains(rho, slide, moments, f, *eps_a):
        chain_estimates.append(f)
        return chains(rho, slide, moments, f, *eps_a)

    monkeypatch.setattr(workflow, "dilated_chains", recording_chains)
    got = run_verification(trials=trials, seed=seed).to_dict()
    got_estimates = np.concatenate(chain_estimates) if chain_estimates else np.zeros((0, 2))
    want, want_estimates = loop_verification(trials, seed)
    # the aggregates hardly move with the chain's estimates, so compare those
    np.testing.assert_allclose(got_estimates, want_estimates, rtol=0, atol=1e-12)
    assert (got["trials"], got["seed"]) == (trials, seed)
    for key in COUNTS:
        assert got[key] == want[key], key
    for name, margin in want["min_margins"].items():
        assert got["min_margins"][name] == pytest.approx(margin, abs=1e-12), name
    assert got["chain_min_slack"] == pytest.approx(want["chain_min_slack"], abs=1e-12)
    for key in RESIDUALS:
        assert got[key] <= 1e-9 and want[key] <= 1e-9, key
        assert got[key] == pytest.approx(want[key], abs=1e-9), key
    assert got["passed"] == (trials > 0)


def commuting_stack(count):
    """Chain operators of `count` scenarios; estimates read qubit 2 only."""
    eye = np.eye(2)
    w_plus, w_minus = (p.matrix for p in projector_pair(-pauli("X")))
    a_est = np.stack([np.kron(eye, 0.3 * k * w_plus - 0.7 * w_minus) for k in range(count)])
    b_est = np.stack([np.kron(eye, 0.2 * w_plus + 0.1 * k * w_minus) for k in range(count)])
    rho = np.stack([epr_state(0.1 + 0.1 * k).matrix for k in range(count)])
    return a_est, b_est, X1.matrix, Y1.matrix, rho


def test_batched_chain_raises_for_first_noncommuting_index():
    a_est, b_est, a, b, rho = commuting_stack(7)
    relation_chains(a_est, b_est, a, b, rho)
    # indices 2 and 5 get estimators that do not commute, with different residuals
    for k, scale in ((2, 1.0), (5, 3.0)):
        b_est[k] = scale * np.kron(np.eye(2), pauli("Z").matrix)
    with pytest.raises(ValueError) as scalar:
        verify_relation_chain(a_est[2], b_est[2], a, b, rho[2])
    with pytest.raises(ValueError) as later:
        verify_relation_chain(a_est[5], b_est[5], a, b, rho[5])
    assert str(scalar.value) != str(later.value)
    with pytest.raises(ValueError) as batched:
        relation_chains(a_est, b_est, a, b, rho)
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)


def test_batched_chain_items_match_scalar_chain():
    stack = commuting_stack(4)
    chains = relation_chains(*stack)
    for k in range(4):
        one = verify_relation_chain(*(op[k] if op.ndim == 3 else op for op in stack))
        assert chains.min_slack[k] == pytest.approx(one.min_slack, abs=1e-12)
        assert chains.schwarz_sum[k] == pytest.approx(one.schwarz_sum, abs=1e-12)


def test_naimark_view_raises_where_the_batched_kernel_does_not_gate(reference):
    """`naimark_unitaries` runs no gate: `verify` passes it the closed-form
    POVMs of its slides.  The one-POVM view gates what a caller passes, and
    for a good POVM it returns the kernel's unitary, bit for bit."""
    _, slide, _ = reference
    good = povm_elements(slide.arrays)[0]
    bad = np.stack([0.5 * np.eye(2), 0.3 * np.eye(2)]).astype(complex)
    with pytest.raises(ValueError, match="^POVM elements must sum to the identity$"):
        naimark_unitary(tuple(bad))
    unitaries = naimark_unitaries(np.stack([good, good, bad, good]))
    assert np.array_equal(unitaries[1], naimark_unitary(tuple(good)))
    assert np.array_equal(unitaries[3], unitaries[1])


def test_block_raises_first_offending_trials_error(monkeypatch):
    """A block raises the error its first offending trial raises alone:
    trials 5 and 9 get qubit 2 in an eigenstate of their own W, so that one
    W outcome has no probability and its optimal estimate is undefined."""
    build = workflow._state_matrices
    _, _, angles, _ = workflow._draw_block(np.random.default_rng(1), 0, 12)
    n = bloch_vectors(angles[:, 0], angles[:, 1], [])

    def zero_outcome(g):
        mats = build(g).copy()
        for k, sign in ((5, -1.0), (9, 1.0)):
            # the W eigenprojector of value `sign`: outcome -sign has probability 0
            proj = (SIGMAS[0] + sign * np.tensordot(n[k], SIGMAS[1:], axes=1)) / 2
            mats[k] = np.kron(np.trace(mats[k].reshape(2, 2, 2, 2), axis1=1, axis2=3), proj)
        return mats

    monkeypatch.setattr(workflow, "_state_matrices", zero_outcome)
    with pytest.raises(UndefinedEstimateError) as batched:
        run_verification(trials=12, seed=1)
    rng = np.random.default_rng(1)
    states = zero_outcome(workflow._draw_block(rng, 0, 12)[0])
    alone = {}
    for k in (5, 9):
        with pytest.raises(UndefinedEstimateError) as err:
            optimal_estimator(DensityMatrix(states[k]), BlochObservable(*angles[k]))
        # the message ends in the rounding-level probability
        alone[k] = str(err.value).rsplit(" ", 1)[0]
    assert alone == {5: "W outcome +1 has probability", 9: "W outcome -1 has probability"}
    assert str(batched.value).rsplit(" ", 1)[0] == alone[5]
    assert abs(float(str(batched.value).rsplit(" ", 1)[1])) <= 1e-12


def test_drawn_states_are_density_matrices_by_construction():
    """``G G^dag / tr`` is exactly Hermitian, of unit trace to rounding and
    positive definite on drawn blocks, so the suite runs no density check
    on its states."""
    for seed in range(20):
        g = workflow._draw_block(np.random.default_rng(seed), 0, 1000)[0]
        rho = workflow._state_matrices(g)
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2)), seed
        assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max() <= 1e-14, seed
        assert np.linalg.eigvalsh(rho)[:, 0].min() > 0.0, seed


def loop_draws(rng, first, count):
    """The draws of ``count`` trials with one generator call per quantity,
    trial after trial: the order ``_draw_block`` must reproduce.  Also
    returns the number of rejected reflectivity pairs of each trial."""
    g = np.empty((count, 4, 4), dtype=complex)
    refl, angles = np.empty((count, 2)), np.empty((count, 2))
    custom = np.full((count, 2), np.nan)
    rejected = np.zeros(count, dtype=int)
    for k in range(count):
        g[k] = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        while True:
            refl[k] = rng.uniform(0.02, 0.98, size=2)
            if abs(refl[k, 0] - refl[k, 1]) >= 0.01:
                break
            rejected[k] += 1
        angles[k] = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        if (first + k) % 2:
            custom[k] = rng.uniform(-2.0, 2.0, size=2)
    return (g, refl, angles, custom), rejected


def test_draw_block_keeps_the_trial_loop_stream():
    """Two generator calls per trial draw the very numbers of the trial loop,
    bit for bit, rejected reflectivity pairs included, and leave the
    generator where the loop left it.  The seeds include trials with two
    rejected pairs on an even trial (4 uniforms drawn) and on an odd one
    (6 uniforms), the loop's longest path."""
    twice_rejected = {0: 0, 1: 0}
    for seed in range(200):
        for first in (0, 1):
            loop_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want, rejected = loop_draws(loop_rng, first, 101)
            for k in np.flatnonzero(rejected >= 2).tolist():
                twice_rejected[(first + k) % 2] += 1
            got = workflow._draw_block(rng, first, 101)
            for got_part, want_part in zip(got, want):
                assert got_part.dtype == want_part.dtype
                assert np.array_equal(got_part, want_part, equal_nan=True), (seed, first)
            assert rng.random() == loop_rng.random()
    assert twice_rejected[0] > 0 and twice_rejected[1] > 0, twice_rejected


def test_random_scenario_helpers_keep_their_streams():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho, slide, w = random_state(rng), random_slide(rng), random_observable(rng)
        (g, refl, angles, _), _ = loop_draws(np.random.default_rng(seed), 0, 1)
        gram = g[0] @ g[0].conj().T
        assert np.array_equal(rho.matrix, gram / np.trace(gram).real)
        assert (slide.r_h, slide.r_v) == tuple(refl[0])
        assert (w.theta, w.phi) == tuple(angles[0])
