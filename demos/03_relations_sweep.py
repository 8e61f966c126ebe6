"""Four complementarity relations across the analyser angle.

All four relations bound a combination of inaccuracies and spreads by the
same commutator term c/2.  Sweeping the W azimuth phi shows their character:
the product form (Arthurs-Kelly) dips below the bound -- it only holds for
jointly unbiased estimates -- while the Hall, Ozawa and averaged-spread forms
stay above it everywhere, with the averaged-spread one sitting lowest, i.e.
tightest, wherever the estimates are least-squares optimal.
"""

import numpy as np

from jointmeas import reference_scenario, strength_comparison, sweep_phi
from jointmeas.relations import RelationReport

rho, slide, _ = reference_scenario()
phis = np.arange(90.0, 271.0, 15.0)
rows = sweep_phi(rho, slide, phis, estimators=("optimal",))

bound = rows[0]["bound"]
print(f"bound c/2 = {bound:.6f} (same for every angle)\n")
print("  phi    eps_x   arthurs-kelly   hall     ozawa    new      tightest")
for row in rows:
    values = {"arthurs_kelly": row["lhs_arthurs_kelly_optimal"],
              "hall": row["lhs_hall_optimal"],
              "ozawa": row["lhs_ozawa_optimal"],
              "new": row["lhs_new_optimal"]}
    holding = {k: v for k, v in values.items() if v >= bound - 1e-9}
    tightest = min(holding, key=holding.get)
    ak_mark = " " if values["arthurs_kelly"] >= bound - 1e-9 else "*"
    print(f"  {row['phi_deg']:5.1f}  {row['eps_x_optimal']:.4f}"
          f"  {values['arthurs_kelly']:.4f}{ak_mark}"
          f"        {values['hall']:.4f}   {values['ozawa']:.4f}"
          f"   {values['new']:.4f}   {tightest}")
print("\n  * marks Arthurs-Kelly falling below the bound")

# at the operating angle, quantify how much weaker Hall and Ozawa are
mid = [row for row in rows if row["phi_deg"] == 180.0][0]
report = RelationReport(
    eps_a=mid["eps_x_optimal"], eps_b=mid["eps_y"],
    delta_a=mid["delta_x"], delta_b=mid["delta_y"],
    delta_a_est=mid["delta_x_est_optimal"], delta_b_est=mid["delta_y_est"],
    c=mid["c"], scenario={"estimator": "optimal"})
ordering = strength_comparison(report, "optimal")
print(f"\nat phi = 180 deg: hall - new = {ordering.hall_gap:.6f}, "
      f"ozawa - new = {ordering.ozawa_gap:.6f}")
print(f"closed-form gap residual (dispersion-optimal spreads): "
      f"{ordering.gap_residual:.2e}")
