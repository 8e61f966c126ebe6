"""Reconstruct measurement inaccuracies from the outcome statistics.

The slide + analyser arrangement estimates two incompatible qubit-1
observables at once: X from the W outcome on the entangled partner, Y from
the semiweak pointer.  Both estimates are imperfect, and both RMS
inaccuracies are recoverable from the joint outcome table alone -- eps(X)
through a Margenau-Hill quasi-probability built with the slide's contextual
values, eps(Y) = sqrt(2 kappa) from the slide strength.  The script also
checks the dispersion identity eps^2 + Delta_est^2 = Delta^2 that
characterises the least-squares estimator.
"""

import math

from jointmeas import (
    OUTCOMES,
    Estimator,
    dispersion_check,
    epr_state,
    estimator_spread,
    inaccuracy_x,
    inaccuracy_y,
    joint_distribution,
    mh_from_counts,
    optimal_estimator,
    reference_scenario,
)

rho, slide, w = reference_scenario()
dist = joint_distribution(rho, slide, w)

print("estimating X (qubit 1) from the W outcome (qubit 2)")
simple = Estimator.simple()
optimal = optimal_estimator(rho, w)
print(f"  simple estimate:  f(+1) = {simple.value(+1):+.4f}, "
      f"f(-1) = {simple.value(-1):+.4f}")
print(f"  optimal estimate: f(+1) = {optimal.value(+1):+.4f}, "
      f"f(-1) = {optimal.value(-1):+.4f}   (+-sin 45 deg for this source)")

quasi = mh_from_counts(dist, slide)  # rows x, columns w, +1 first
print("\nMargenau-Hill quasi-table p(x, w) from the counts:")
for x, row in zip(OUTCOMES, quasi):
    for ww, p in zip(OUTCOMES, row):
        print(f"  x = {x:+d}, w = {ww:+d}:  {p:+.6f}")
print("  (negative cells are allowed -- this is a quasi-distribution)")

print("\nRMS inaccuracies reconstructed from the table:")
for est in (simple, optimal):
    eps = inaccuracy_x(dist, slide, est)
    print(f"  eps(X_est), {est.kind:>7}: {eps:.6f}")
eps_y = inaccuracy_y(slide)
print(f"  eps(Y_est)          : {eps_y:.6f}  "
      f"(= sqrt(2 kappa) = {math.sqrt(2 * slide.kappa):.6f})")

print("\ndispersion identity eps^2 + Delta_est^2 = Delta^2:")
for est in (simple, optimal):
    check = dispersion_check(rho, slide, w, est)
    print(f"  {est.kind:>7}: eps^2 = {check.eps_sq:.6f}, "
          f"Delta_est^2 = {check.est_spread_sq:.6f}, "
          f"Delta^2 = {check.x_spread_sq:.6f}, "
          f"residual = {check.residual:+.2e}")
print("  (exactly zero only for the least-squares estimate)")

d_simple = estimator_spread(dist, simple)
print(f"\nestimate spreads: simple {d_simple:.6f}, "
      f"optimal {estimator_spread(dist, optimal):.6f}")
