"""Analyze the packaged measured outcome tables.

The package ships five measured outcome tables (analyser angles 135-225 deg)
and a tomographically reconstructed source state.  For each parseable table
the relations are evaluated with counts-based inaccuracies and state-based
spreads, then compared against fully simulated values for the same state.
One table (phi = 135 deg) is internally inconsistent -- its probabilities sum
to 1.44 -- and the loader rejects it; it is kept as a validation fixture.
"""

import math

from jointmeas import (
    DataValidationError,
    analyze_measured,
    bundled_distribution,
    bundled_state,
    epr_state,
    fidelity,
    reference_scenario,
    simulate_scenario,
)

rho = bundled_state()
ideal = epr_state(math.radians(22.5))
print(f"tomographic source state: fidelity {fidelity(rho, ideal):.4f} "
      f"with the ideal preparation, min eigenvalue {rho.min_eigenvalue:.2e}")

_, slide, w = reference_scenario()
print("\nper-angle analysis (optimal estimate), measured vs simulated:")
print("  phi     eps_x    AK lhs   hall     ozawa    new      bound   AK")
for phi in (157.5, 180.0, 202.5, 225.0):
    dist = bundled_distribution(phi)
    rep = analyze_measured(dist, rho, estimator="optimal")
    verdict = "violated" if not rep.satisfied["arthurs_kelly"] else "holds"
    print(f"  {phi:5.1f}  {rep.eps_a:.4f}   {rep.lhs_ak:.4f}   "
          f"{rep.lhs_hall:.4f}   {rep.lhs_ozawa:.4f}   {rep.lhs_new:.4f}   "
          f"{rep.bound:.4f}  {verdict}")

print("\nmeasured vs simulated at phi = 180 deg:")
dist = bundled_distribution(180.0)
for kind in ("simple", "optimal"):
    meas = analyze_measured(dist, rho, estimator=kind)
    sim = simulate_scenario(rho, slide, w, estimator=kind)
    worst = max(abs(meas.lhs_ak - sim.lhs_ak),
                abs(meas.lhs_hall - sim.lhs_hall),
                abs(meas.lhs_ozawa - sim.lhs_ozawa),
                abs(meas.lhs_new - sim.lhs_new))
    print(f"  {kind:>7}: eps_x measured {meas.eps_a:.4f} vs simulated "
          f"{sim.eps_a:.4f}; worst relation-lhs difference {worst:.4f}")

print("\nthe inconsistent table is rejected at load time:")
try:
    bundled_distribution(135.0)
except DataValidationError as exc:
    print(f"  phi = 135 deg -> {exc}")
