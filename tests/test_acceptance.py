"""Acceptance battery: every quantitative requirement, one line per criterion.

Each test evaluates one numbered criterion end to end at its stated tolerance
and reports ``[criterion N] PASS/FAIL - detail`` (echoed in the terminal
summary).  The randomized suite behind criteria 3-5 and 7 runs once at
10,000 trials and is shared module-wide.
"""

import math

import numpy as np
import pytest

from jointmeas import (
    BlochObservable,
    DataValidationError,
    analyze_measured,
    bundled_distribution,
    bundled_state,
    epr_state,
    inaccuracy_y,
    optimal_estimator,
    reference_scenario,
    run_verification,
    simulate_scenario,
    slide_model,
    sweep_phi,
)

W_REFERENCE = BlochObservable.from_degrees(90.0, 180.0)


@pytest.fixture(scope="module")
def verification():
    return run_verification(trials=10_000, seed=20260814)


def test_criterion_1_kappa(criterion):
    """The slide's measurement strength at the hardware reflectivities."""
    kappa = slide_model(0.1244, 0.4645).kappa
    criterion(1, abs(kappa - 0.0749) <= 5e-4,
              f"kappa = {kappa:.6f} (target 0.0749 +- 5e-4)")


def test_criterion_2_y_inaccuracy(criterion):
    """eps(Y_est)^2 = 2 kappa across slides; ~0.15 at the reference point."""
    worst = 0.0
    points = 0
    for r_h in np.linspace(0.02, 0.98, 8):
        for r_v in np.linspace(0.02, 0.98, 8):
            if abs(r_h - r_v) < 1e-12:
                continue
            slide = slide_model(float(r_h), float(r_v))
            worst = max(worst, abs(inaccuracy_y(slide) ** 2 - 2 * slide.kappa))
            points += 1
    ref = inaccuracy_y(slide_model(0.1244, 0.4645)) ** 2
    ok = points >= 50 and worst <= 1e-12 and abs(ref - 0.15) <= 0.02
    criterion(2, ok,
              f"eps_y^2 vs 2 kappa: max |diff| = {worst:.2e} over {points} "
              f"slides (tol 1e-12); reference 2 kappa = {ref:.4f} "
              f"(target 0.15 +- 0.02)")


def test_criterion_3_reconstruction_oracle(criterion, verification):
    """Counts-based inaccuracies equal direct operator traces."""
    v = verification
    ok = v.trials >= 10_000 and v.oracle_max_diff <= 1e-9
    criterion(3, ok,
              f"reconstruction vs operator oracle: max |diff| = "
              f"{v.oracle_max_diff:.2e} over {v.trials} scenarios (tol 1e-9)")


def test_criterion_4_dispersion_identity(criterion, verification):
    """eps^2 + (Delta X_est)^2 = (Delta X)^2 for optimal estimates."""
    v = verification
    ok = v.trials >= 1_000 and v.dispersion_max_residual <= 1e-9
    criterion(4, ok,
              f"dispersion identity: max |residual| = "
              f"{v.dispersion_max_residual:.2e} over {v.trials} scenarios "
              f"(tol 1e-9)")


def test_criterion_5_no_violations_and_chain(criterion, verification):
    """Hall/Ozawa/averaged-spread never violated; derivation chain sound."""
    v = verification
    margin_floor = min(v.min_margins[k] for k in ("hall", "ozawa", "new"))
    ok = (all(v.violations[k] == 0 for k in ("hall", "ozawa", "new"))
          and margin_floor >= -1e-9
          and v.chain_violations == 0
          and v.chain_min_slack >= -1e-9
          and v.y_inaccuracy_max_diff <= 1e-9
          and v.elapsed_s < 60.0)
    criterion(5, ok,
              f"0 violations over {v.trials} scenarios (worst margin "
              f"{margin_floor:+.4f}); {v.chain_violations} broken chain links "
              f"(min slack {v.chain_min_slack:+.2e}); {v.elapsed_s:.1f} s")


def test_criterion_6_reference_and_measured(criterion):
    """The reference scenario and the packaged measured table reproduce the
    recorded relation values."""
    rho_i, slide, w = reference_scenario()
    ideal = simulate_scenario(rho_i, slide, w, estimator="optimal")
    ideal_ok = (abs(ideal.lhs_ak - 0.2737) < 5e-4
                and ideal.lhs_ak < ideal.bound
                and not ideal.satisfied["arthurs_kelly"])

    dist = bundled_distribution(180.0)
    rho_t = bundled_state()
    summary_ok = None
    flags_ok = True
    theory_diffs = {}
    for kind in ("optimal", "simple"):
        meas = analyze_measured(dist, rho_t, estimator=kind)
        theory = simulate_scenario(rho_t, slide, w, estimator=kind)
        theory_diffs[kind] = max(
            abs(meas.lhs_ak - theory.lhs_ak),
            abs(meas.lhs_hall - theory.lhs_hall),
            abs(meas.lhs_ozawa - theory.lhs_ozawa),
            abs(meas.lhs_new - theory.lhs_new))
        flags_ok = flags_ok and meas.satisfied == {
            "arthurs_kelly": False, "hall": True, "ozawa": True, "new": True}
        if kind == "optimal":
            # strict strength ordering and the dispersion sum, counts side
            flags_ok = flags_ok and (meas.lhs_ak < meas.lhs_new
                                     < meas.lhs_hall < meas.lhs_ozawa)
            rss = math.sqrt(meas.eps_a ** 2 + meas.delta_a_est ** 2)
            flags_ok = flags_ok and abs(rss - meas.delta_a) < 0.02
            summary_ok = (abs(meas.bound - 0.711) < 0.01
                          and abs(meas.delta_a - 0.998) < 0.01
                          and abs(meas.delta_b - 0.9998) < 0.01)
    ok = (ideal_ok and flags_ok and summary_ok
          and max(theory_diffs.values()) < 0.05)
    criterion(6, ok,
              f"ideal AK lhs = {ideal.lhs_ak:.4f} < bound {ideal.bound:.5f}; "
              f"measured table: AK violated, others hold, lhs within "
              f"{max(theory_diffs.values()):.4f} of recomputed curves "
              f"(tol 0.05)")


def test_criterion_7_ordering(criterion, verification):
    """The averaged-spread bound is never above Hall or Ozawa."""
    rho_i, slide, _ = reference_scenario()
    rows = sweep_phi(rho_i, slide, (135.0, 157.5, 180.0, 202.5, 225.0))
    sweep_ok = all(
        row[f"lhs_new_{kind}"] <= row[f"lhs_{other}_{kind}"] + 1e-9
        for row in rows
        for kind in ("simple", "optimal")
        for other in ("hall", "ozawa"))
    v = verification
    ok = (sweep_ok and v.ordering_violations == 0
          and v.gap_checked >= 1_000 and v.gap_max_residual <= 1e-9)
    criterion(7, ok,
              f"new <= hall, ozawa on {len(rows)}-angle sweep and "
              f"{v.trials} random scenarios; gap closed form checked "
              f"{v.gap_checked}x, max residual {v.gap_max_residual:.2e} "
              f"(tol 1e-9)")


def test_criterion_8_optimal_estimates(criterion):
    """Least-squares estimate values: measured state and ideal source."""
    measured = optimal_estimator(bundled_state(), W_REFERENCE)
    d_plus = abs(measured.value(+1) - 0.630)
    d_minus = abs(measured.value(-1) - (-0.643))
    ideal = optimal_estimator(epr_state(math.radians(22.5)), W_REFERENCE)
    sin45 = math.sin(math.pi / 4)
    ideal_err = max(abs(ideal.value(+1) - sin45), abs(ideal.value(-1) + sin45))
    ok = d_plus <= 0.02 and d_minus <= 0.02 and ideal_err <= 1e-12
    criterion(8, ok,
              f"measured f = ({measured.value(+1):+.4f}, "
              f"{measured.value(-1):+.4f}) within 0.02 of (+0.630, -0.643); "
              f"ideal |f -+ sin45| = {ideal_err:.1e} (tol 1e-12)")


def test_criterion_9_measured_tables(criterion):
    """Four packaged tables parse with near-unit mass; the fifth must fail."""
    sums = {}
    for phi, expected in ((157.5, 1.0007), (180.0, 1.0004),
                          (202.5, 1.0006), (225.0, 1.0001)):
        dist = bundled_distribution(phi)
        sums[phi] = dist.total()
        assert abs(sums[phi] - expected) < 1e-12
    parse_ok = all(abs(total - 1.0) <= 0.01 for total in sums.values())
    with pytest.raises(DataValidationError) as excinfo:
        bundled_distribution(135.0)
    reject_ok = "1.4381" in str(excinfo.value)
    criterion(9, parse_ok and reject_ok,
              f"tables at phi = 157.5-225 deg parse with mass "
              f"{min(sums.values()):.4f}-{max(sums.values()):.4f} "
              f"(within 0.01 of 1); phi = 135 deg rejected, mass 1.4381")
