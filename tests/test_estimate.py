"""Estimator construction, quasi-probability reconstruction and inaccuracies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    OUTCOMES,
    BlochObservable,
    DataQualityWarning,
    DensityMatrix,
    Estimator,
    JointDistribution,
    NumericalCorruptionError,
    UndefinedEstimateError,
    bundled_distribution,
    dispersion_check,
    epr_state,
    estimator_spread,
    inaccuracy_x,
    inaccuracy_y,
    joint_distribution,
    mh_from_counts,
    optimal_estimator,
    pauli,
    projector_pair,
    slide_model,
    tensor,
)
from jointmeas.estimate import quasi_mass_checks, y_spreads
from jointmeas.qcore import run_checks

SIN45 = math.sin(math.pi / 4)
EPS_OPT = 0.7071067811865474
EPS_SIMPLE = 0.7653668647301793
SQRT_2KAPPA = 0.38695344604275456

reflectivity = st.floats(min_value=0.02, max_value=0.98, allow_nan=False)
gammas = st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05, allow_nan=False)


def nondegenerate(r_h, r_v):
    if abs(r_h - r_v) < 0.01:
        r_v = r_h + 0.01 if r_h < 0.5 else r_h - 0.01
    return slide_model(r_h, r_v)


def test_estimator_validation():
    with pytest.raises(ValueError, match="w = \\+1 and w = -1"):
        Estimator({+1: 0.3})
    with pytest.raises(ValueError, match="finite"):
        Estimator({+1: math.nan, -1: 0.0})
    with pytest.raises(ValueError, match="kind"):
        Estimator({+1: 1.0, -1: -1.0}, kind="best")
    with pytest.raises(ValueError, match="simple"):
        Estimator({+1: 0.9, -1: -0.9}, kind="simple")
    simple = Estimator.simple()
    assert simple.value(+1) == 1.0 and simple.value(-1) == -1.0
    custom = Estimator.custom(0.25, -0.5)
    assert custom.kind == "custom"
    assert custom.value(-1) == -0.5


def test_estimator_as_operator():
    w = BlochObservable.from_degrees(90, 180)  # -X
    op = Estimator.custom(0.4, -0.8).as_operator(w)
    # f(+1) (1 - X)/2 + f(-1) (1 + X)/2
    want = 0.4 * (np.eye(2) - pauli("X").matrix) / 2 \
        - 0.8 * (np.eye(2) + pauli("X").matrix) / 2
    assert np.allclose(op.matrix, want, atol=1e-15)


def test_optimal_estimator_ideal_golden(reference):
    _, _, w = reference
    est = optimal_estimator(epr_state(math.radians(22.5)), w)
    assert est.kind == "optimal"
    assert est.value(+1) == pytest.approx(SIN45, abs=1e-12)
    assert est.value(-1) == pytest.approx(-SIN45, abs=1e-12)


def test_optimal_estimator_product_state_is_zero(reference):
    _, _, w = reference
    est = optimal_estimator(epr_state(0.0), w)
    assert est.value(+1) == pytest.approx(0.0, abs=1e-12)
    assert est.value(-1) == pytest.approx(0.0, abs=1e-12)


def test_optimal_estimator_undefined_on_deterministic_w():
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = DensityMatrix.from_pure(np.kron(plus, plus))
    with pytest.raises(UndefinedEstimateError, match="-1"):
        optimal_estimator(rho, BlochObservable.from_degrees(90, 0))


def test_quasi_distribution_validation():
    with pytest.raises(ValueError, match="sum to 0.900000"):
        run_checks(quasi_mass_checks(np.array([0.9]), 1e-9))
    run_checks(quasi_mass_checks(np.array([1.0 + 5e-10]), 1e-9))


def test_mh_matches_operator_table(reference):
    """On simulated data the MH table equals <X_x (x) W_w> exactly."""
    rho, slide, w = reference
    quasi = mh_from_counts(joint_distribution(rho, slide, w), slide)
    assert quasi.shape == (2, 2)
    x_projs = projector_pair(pauli("X"))
    w_projs = projector_pair(w.as_operator())
    for x, x_proj in enumerate(x_projs):
        for ww, w_proj in enumerate(w_projs):
            op = tensor(x_proj, w_proj)
            want = float(np.real(np.trace(rho.matrix @ op.matrix)))
            assert quasi[x, ww] == pytest.approx(want, abs=1e-12), (x, ww)
    assert quasi.sum() == pytest.approx(1.0, abs=1e-12)


def test_mh_measured_golden():
    slide = slide_model(0.1244, 0.4645)
    quasi = mh_from_counts(bundled_distribution(180.0), slide)
    # rows x = +1, -1 and columns w = +1, -1 (OUTCOMES order)
    want = [[0.4457428697441928, 0.07553263745957078],
            [0.09095713025580711, 0.3881673625404293]]
    np.testing.assert_allclose(quasi, want, rtol=0, atol=1e-12)


def test_inaccuracy_x_goldens(reference):
    rho, slide, w = reference
    dist = joint_distribution(rho, slide, w)
    assert inaccuracy_x(dist, slide, optimal_estimator(rho, w)) == pytest.approx(
        EPS_OPT, abs=1e-12)
    assert inaccuracy_x(dist, slide, Estimator.simple()) == pytest.approx(
        EPS_SIMPLE, abs=1e-12)


def test_inaccuracy_y_golden(reference):
    _, slide, _ = reference
    assert inaccuracy_y(slide) == pytest.approx(SQRT_2KAPPA, abs=1e-15)


@given(r_h=reflectivity, r_v=reflectivity)
@settings(max_examples=200, deadline=None)
def test_inaccuracy_y_is_sqrt_two_kappa(r_h, r_v):
    slide = nondegenerate(r_h, r_v)
    assert inaccuracy_y(slide) == pytest.approx(
        math.sqrt(2 * slide.kappa), abs=1e-12)


def test_spreads_at_reference(reference):
    rho, slide, w = reference
    dist = joint_distribution(rho, slide, w)
    # <W> = 0 and <Y'> = 0 here, so both +-1 spreads are exactly 1
    assert estimator_spread(dist, Estimator.simple()) == pytest.approx(1.0, abs=1e-12)
    assert y_spreads(dist.table[None], []) == pytest.approx([1.0], abs=1e-12)
    opt = optimal_estimator(rho, w)
    assert estimator_spread(dist, opt) == pytest.approx(SIN45, abs=1e-9)


@given(gamma=gammas, r_h=reflectivity, r_v=reflectivity)
@settings(max_examples=150, deadline=None)
def test_dispersion_identity_optimal(gamma, r_h, r_v):
    """eps^2 + (Delta X_est)^2 = (Delta X)^2 for the least-squares estimate."""
    rho = epr_state(gamma)
    slide = nondegenerate(r_h, r_v)
    w = BlochObservable.from_degrees(90, 180)
    check = dispersion_check(rho, slide, w, optimal_estimator(rho, w))
    assert abs(check.residual) < 1e-9
    assert check.x_spread_sq == pytest.approx(1.0, abs=1e-9)


def test_dispersion_check_reports_simple_terms(reference):
    rho, slide, w = reference
    check = dispersion_check(rho, slide, w, Estimator.simple())
    assert check.eps_sq == pytest.approx(EPS_SIMPLE ** 2, abs=1e-12)
    assert check.est_spread_sq == pytest.approx(1.0, abs=1e-12)
    assert check.x_spread_sq == pytest.approx(1.0, abs=1e-12)
    assert check.residual == pytest.approx(EPS_SIMPLE ** 2, abs=1e-12)


def concentrated(entries):
    base = {(m, y, w): 0.0 for m in OUTCOMES for y in OUTCOMES for w in OUTCOMES}
    base.update(entries)
    return JointDistribution(entries=base)


def test_inconsistent_counts_raise(reference):
    """All mass on one transmitted outcome gives eps^2 = 2 - 2 xi_t < 0."""
    _, slide, _ = reference
    dist = concentrated({(+1, +1, +1): 1.0})
    with pytest.raises(NumericalCorruptionError, match="inconsistent"):
        inaccuracy_x(dist, slide, Estimator.simple())


def test_slightly_negative_eps_clamps_with_warning(reference):
    _, slide, _ = reference
    xi_t, xi_r = slide.xi(+1), slide.xi(-1)
    # two-point table whose reconstructed eps^2 crosses zero at alpha*
    alpha = (1 - xi_r) / (xi_t - xi_r) + 4e-11
    dist = concentrated({(+1, +1, +1): alpha, (-1, +1, +1): 1.0 - alpha})
    with pytest.warns(DataQualityWarning, match="clamping"):
        eps = inaccuracy_x(dist, slide, Estimator.simple())
    assert eps == 0.0
