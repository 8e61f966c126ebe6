"""Seeded input generator for the benchmark workloads.

Every input is a pure function of the workload seed and an index, drawn
with numpy's ``default_rng([seed, index])``; the package under test only
ever sees the generated arrays and files.

The draws follow the package's own generators (``workflow.random_state``,
``random_slide`` and ``random_observable``) and its bundled measured tables
in ``src/jointmeas/data``.  This module imports only what ``numpy`` already
loads, so the set-up child can build inputs before it times ``import
jointmeas``.
"""

import math
from typing import NamedTuple

import numpy as np

import reference

# The bundled tables' sigma columns imply 2e4-8e4 shots per table; median 5e4.
SHOTS = 50_000
MASS_SLACK = (1.0001, 1.0007)  # column sums of the four bundled tables in tolerance
BAD_MASS = (1.3, 1.5)  # beyond the measured tolerance, like the phi = 135 table (1.4381)
BAD_EVERY = 5  # one bundled table in five is out of tolerance
# The bundled tables' operating point: reflectivities and the W polar angle.
MEASURED_R_H, MEASURED_R_V, MEASURED_THETA_DEG = 0.1244, 0.4645, 90.0


class Scenario(NamedTuple):
    rho: np.ndarray
    r_h: float
    r_v: float
    theta_deg: float
    phi_deg: float


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank two-qubit state, exactly Hermitian with unit trace."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


def random_scenario(rng: np.random.Generator) -> Scenario:
    """State; reflectivities in [0.02, 0.98] at least 0.01 apart, as in
    ``random_slide``; W direction uniform on the sphere, as in
    ``random_observable``."""
    rho = random_state(rng)
    while True:
        r_h, r_v = rng.uniform(0.02, 0.98, size=2)
        if abs(r_h - r_v) >= 0.01:
            break
    theta_deg = math.degrees(math.acos(float(rng.uniform(-1.0, 1.0))))
    return Scenario(rho, float(r_h), float(r_v), theta_deg, float(rng.uniform(0.0, 360.0)))


def scenario(seed: int, index: int) -> Scenario:
    return random_scenario(np.random.default_rng([seed, index]))


def measured_scenario(seed: int, index: int) -> Scenario:
    """A random state and W azimuth at the bundled tables' operating point."""
    rng = np.random.default_rng([seed, index])
    return Scenario(random_state(rng), MEASURED_R_H, MEASURED_R_V, MEASURED_THETA_DEG,
                    float(rng.uniform(0.0, 360.0)))


def state_csv(rho: np.ndarray) -> str:
    lines = ["row,col,re,im"]
    for row in range(4):
        for col in range(4):
            val = rho[row, col]
            lines.append(f"{row},{col},{float(val.real)!r},{float(val.imag)!r}")
    return "\n".join(lines) + "\n"


def measured_table(sc: Scenario, rng: np.random.Generator,
                   out_of_tolerance: bool) -> tuple[str, np.ndarray]:
    """A noisy measured table in the bundled 5-column format.

    Returns the CSV text and the ``p[m, y, w]`` values exactly as written.
    """
    t = reference.correlations(sc.rho)
    exact = reference.joint_table(t, sc.r_h, sc.r_v,
                                  reference.directions(sc.theta_deg, sc.phi_deg))[0]
    counts = rng.multinomial(SHOTS, exact.reshape(-1)).reshape(2, 2, 2)
    mass = rng.uniform(*(BAD_MASS if out_of_tolerance else MASS_SLACK))
    p = np.vectorize(lambda v: float(f"{v:.6g}"))(counts / SHOTS * mass)
    sigma = np.sqrt(counts) / SHOTS * mass
    lines = [f"# phi_deg={sc.phi_deg!r}", f"# r_h={sc.r_h!r}", f"# r_v={sc.r_v!r}",
             f"# theta_deg={sc.theta_deg!r}", "m,y,w,p,sigma"]
    for mi, m in enumerate((1, -1)):
        for yi, y in enumerate((1, -1)):
            for wi, w in enumerate((1, -1)):
                lines.append(f"{m},{y},{w},{float(p[mi, yi, wi])!r},{sigma[mi, yi, wi]:.2g}")
    return "\n".join(lines) + "\n", p
