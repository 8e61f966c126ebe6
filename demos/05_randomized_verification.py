"""Run the randomized self-verification battery.

Every trial draws a random source state and a random calibration, then checks
the whole pipeline end to end: counts-based reconstruction against operator
expectations, the dispersion identity of the optimal estimate, and all four
relation inequalities plus their operator-chain derivation.  A small trial
count keeps the demo quick; the test suite runs the same battery at 10_000
trials.

Trials run in array blocks.  Each block draws its trials' random numbers one
trial after another, so the same seed still draws the same scenarios, and a
failing check raises the error the first offending trial gives on its own.
"""

from jointmeas import run_verification

result = run_verification(trials=400, seed=11)
for line in result.summary_lines():
    print(line)

print()
print(f"largest counts-vs-operator discrepancy : {result.oracle_max_diff:.3e}")
print(f"largest dispersion-identity residual   : {result.dispersion_max_residual:.3e}")
print(f"relation checks with negative margin   : {sum(result.violations.values())}")
print(f"worst chain slack                      : {result.chain_min_slack:.3e}")
