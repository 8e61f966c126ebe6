"""Independent numpy reference for the benchmark's correctness checks.

Nothing here imports ``jointmeas``.  Every quantity is computed from closed
forms in the two-qubit correlation tensor ``T[a, b] = Tr(rho s_a (x) s_b)``
(``s_0 = 1``, ``s_1..3 = X, Y, Z``):

* slide: ``kappa = 1 - sqrt(r_h r_v) - sqrt(t_h t_v)``, contextual values
  ``xi_t = -(r_h + r_v)/(r_h - r_v)`` and ``xi_r = (2 - r_h - r_v)/(r_h - r_v)``;
* joint table: ``M_m Y_y M_m = ((a^2 + b^2) 1 + (a^2 - b^2) X + 2 y a b Y)/4``
  for Kraus amplitudes ``(a, b)`` on the X eigenstates, so
  ``p(m, y, w)`` is one einsum of those coefficients against ``T``;
* Margenau-Hill (MH) reconstruction
  ``p_MH(x, w) = sum_{m,y} (1 + x xi_m)/2 p(m, y, w)`` and
  ``eps_x^2 = sum (x - f(w))^2 p_MH(x, w)``;
* ``eps_y = sqrt(2 kappa)``, ``c = 2 |<Z (x) 1>|``, the spreads, and the four
  relation left-hand sides.

Outcome axes are indexed 0 for +1 and 1 for -1 throughout.
"""

import math

import numpy as np

SIGNS = np.array([1.0, -1.0])
MARGIN_TOL = 1e-9
MEASURED_NORM = 0.01
EPS_SQ_FLOOR = -1e-9

_PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def correlations(rho: np.ndarray) -> np.ndarray:
    """``T[a, b] = Re Tr(rho s_a (x) s_b)`` for a 4x4 density matrix."""
    basis = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)
    return np.real(np.einsum("abij,ji->ab", basis, rho))


def directions(theta_deg: float, phi_deg) -> np.ndarray:
    """Unit Bloch vectors of W, shape (N, 3), for one theta and N phis."""
    theta = math.radians(theta_deg)
    phi = np.radians(np.atleast_1d(np.asarray(phi_deg, dtype=float)))
    return np.stack([math.sin(theta) * np.cos(phi), math.sin(theta) * np.sin(phi),
                     np.full_like(phi, math.cos(theta))], axis=1)


def slide_constants(r_h: float, r_v: float) -> tuple[float, np.ndarray]:
    """``(kappa, xi)`` with ``xi[0]`` for m = +1 (transmitted), ``xi[1]`` reflected."""
    kappa = 1.0 - math.sqrt(r_h * r_v) - math.sqrt((1 - r_h) * (1 - r_v))
    xi = np.array([-(r_h + r_v), 2.0 - r_h - r_v]) / (r_h - r_v)
    return kappa, xi


def joint_table(t: np.ndarray, r_h: float, r_v: float, n: np.ndarray) -> np.ndarray:
    """Normalised ``p[N, m, y, w]`` for correlations ``t`` and W directions ``n``."""
    amp = np.sqrt(np.array([[1 - r_h, 1 - r_v], [r_h, r_v]]))  # rows m = +1, -1
    a2, b2, ab = amp[:, 0] ** 2, amp[:, 1] ** 2, amp[:, 0] * amp[:, 1]
    coef = np.zeros((2, 2, 4))
    coef[:, :, 0] = ((a2 + b2) / 4)[:, None]
    coef[:, :, 1] = ((a2 - b2) / 4)[:, None]
    coef[:, :, 2] = ab[:, None] * SIGNS[None, :] / 2
    # V[N, w, a] = Tr(rho s_a (x) (1 + w n.s)) = T[a, 0] + w n.T[a, 1:]
    v = t[None, None, :, 0] + SIGNS[None, :, None] * (n @ t[:, 1:].T)[:, None, :]
    p = 0.5 * np.einsum("mya,nwa->nmyw", coef, v)
    return p / p.sum(axis=(1, 2, 3), keepdims=True)


def optimal_values(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``f[N, w] = <X (x) W_w> / <1 (x) W_w>``, the least-squares X estimate."""
    num = t[1, 0] + SIGNS[None, :] * (n @ t[1, 1:])[:, None]
    den = 1.0 + SIGNS[None, :] * (n @ t[0, 1:])[:, None]
    return num / den


def statistics(p: np.ndarray, t: np.ndarray, r_h: float, r_v: float,
               f: np.ndarray) -> dict[str, np.ndarray]:
    """Every relation input for tables ``p[N, m, y, w]`` and estimates ``f[N, w]``.

    ``eps_x_sq`` is the raw reconstructed square; ``eps_x`` clamps values in
    [-1e-9, 0) to zero and is NaN below that, where the data is inconsistent.
    """
    kappa, xi = slide_constants(r_h, r_v)
    weights = (1.0 + SIGNS[:, None] * xi[None, :]) / 2.0  # [x, m]
    pmh = np.einsum("xm,nmyw->nxw", weights, p)
    eps_sq = np.einsum("nxw,nxw->n", (SIGNS[None, :, None] - f[:, None, :]) ** 2, pmh)
    total = p.sum(axis=(1, 2, 3))
    pw = p.sum(axis=(1, 2)) / total[:, None]
    py = p.sum(axis=(1, 3)) / total[:, None]
    mean_f = (f * pw).sum(axis=1)
    var_f = (f ** 2 * pw).sum(axis=1) - mean_f ** 2
    mean_y = py @ SIGNS
    eps_x = np.where(eps_sq < EPS_SQ_FLOOR, np.nan, np.sqrt(np.maximum(eps_sq, 0.0)))
    return {
        "eps_x_sq": eps_sq,
        "eps_x": eps_x,
        "eps_y": np.full_like(eps_sq, math.sqrt(2.0 * kappa)),
        "delta_x": np.full_like(eps_sq, math.sqrt(max(1.0 - t[1, 0] ** 2, 0.0))),
        "delta_y": np.full_like(eps_sq, math.sqrt(max(1.0 - t[2, 0] ** 2, 0.0))),
        "delta_x_est": np.sqrt(np.maximum(var_f, 0.0)),
        "delta_y_est": np.sqrt(np.maximum(1.0 - mean_y ** 2, 0.0)),
        "c": np.full_like(eps_sq, 2.0 * abs(t[3, 0])),
    }


def relation_lhs(s: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The four relation left-hand sides, A = X and B = Y."""
    ea, eb = s["eps_x"], s["eps_y"]
    da, db = s["delta_x"], s["delta_y"]
    da_est, db_est = s["delta_x_est"], s["delta_y_est"]
    ak = ea * eb
    return {"arthurs_kelly": ak,
            "hall": ak + ea * db_est + da_est * eb,
            "ozawa": ak + ea * db + da * eb,
            "new": ea * (db_est + db) / 2.0 + eb * (da_est + da) / 2.0}


def close(got, want, tol: float = 1e-9) -> bool:
    return abs(float(got) - float(want)) <= tol * (1.0 + abs(float(want)))


# ---------------------------------------------------------------------------
# sweep_phi rows
# ---------------------------------------------------------------------------

def sweep_rows(rho: np.ndarray, r_h: float, r_v: float, theta_deg: float,
               phi_degs) -> dict[str, np.ndarray]:
    """Reference columns of ``sweep_phi`` with both estimators."""
    t = correlations(rho)
    n = directions(theta_deg, phi_degs)
    p = joint_table(t, r_h, r_v, n)
    estimates = {"simple": np.tile(SIGNS, (len(n), 1)), "optimal": optimal_values(t, n)}
    cols: dict[str, np.ndarray] = {
        "phi_deg": np.asarray(phi_degs, dtype=float),
        "theta_deg": np.full(len(n), float(theta_deg))}
    for kind, f in estimates.items():
        s = statistics(p, t, r_h, r_v, f)
        cols[f"eps_x_{kind}"] = s["eps_x"]
        cols[f"delta_x_est_{kind}"] = s["delta_x_est"]
        cols[f"dispersion_rss_{kind}"] = np.sqrt(s["eps_x"] ** 2 + s["delta_x_est"] ** 2)
        for name, lhs in relation_lhs(s).items():
            cols[f"lhs_{name}_{kind}"] = lhs
    # columns that do not depend on the estimator
    for key in ("c", "delta_x", "delta_y", "eps_y", "delta_y_est"):
        cols[key] = s[key]
    cols["bound"] = s["c"] / 2.0
    return cols


def check_sweep(rows: list[dict], expected: dict[str, np.ndarray]) -> str | None:
    """None when every row matches the reference within 1e-9, else a reason."""
    n = len(expected["phi_deg"])
    if len(rows) != n:
        return f"expected {n} rows, got {len(rows)}"
    keys = sorted(expected)
    if any(sorted(row) != keys for row in rows):
        return "row columns differ from the reference"
    got = np.array([[row[k] for k in keys] for row in rows], dtype=float)
    want = np.stack([expected[k] for k in keys], axis=1)
    bad = np.abs(got - want) > 1e-9 * (1.0 + np.abs(want))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return f"row {i} column {keys[j]}: {got[i, j]!r} != {want[i, j]!r}"
    rss = got[:, keys.index("dispersion_rss_optimal")]
    if np.any(np.abs(rss - got[:, keys.index("delta_x")]) > 1e-9):
        return "dispersion_rss_optimal differs from delta_x"
    return None


# ---------------------------------------------------------------------------
# simulate / analyze reports
# ---------------------------------------------------------------------------

def scenario_reports(rho: np.ndarray, r_h: float, r_v: float, theta_deg: float,
                     phi_deg: float, table: np.ndarray | None = None) -> list[dict] | None:
    """Expected ``simulate`` (``table`` None) or ``analyze`` reports, both kinds.

    ``table`` is a measured ``p[m, y, w]`` used verbatim.  Returns None when
    the tool must reject the input with a data error: mass outside the
    measured tolerance, or a reconstructed eps^2 below -1e-9.
    """
    t = correlations(rho)
    n = directions(theta_deg, phi_deg)
    if table is None:
        p, source = joint_table(t, r_h, r_v, n), "simulated"
    else:
        p, source = table[None], "measured"
        if abs(p.sum() - 1.0) > MEASURED_NORM:
            return None
    reports = []
    for kind, f in (("simple", SIGNS[None, :]), ("optimal", optimal_values(t, n))):
        s = {k: float(v[0]) for k, v in statistics(p, t, r_h, r_v, f).items()}
        if s["eps_x_sq"] < EPS_SQ_FLOOR:
            return None
        lhs = {k: float(v) for k, v in relation_lhs(s).items()}
        bound = s["c"] / 2.0
        reports.append({
            "scenario": {"source": source, "estimator": kind, "theta_deg": theta_deg,
                         "phi_deg": phi_deg, "r_h": r_h, "r_v": r_v},
            "inputs": {"eps_a": s["eps_x"], "eps_b": s["eps_y"],
                       "delta_a": s["delta_x"], "delta_b": s["delta_y"],
                       "delta_a_est": s["delta_x_est"],
                       "delta_b_est": s["delta_y_est"], "c": s["c"]},
            "bound": bound, "lhs": lhs,
            "margins": {k: v - bound for k, v in lhs.items()},
        })
    return reports


def check_reports(got, expected: list[dict]) -> str | None:
    """Compare a parsed JSON report list with ``scenario_reports`` output."""
    if not isinstance(got, list) or len(got) != len(expected):
        return "report is not a list of one report per estimator"
    for rep, ref in zip(got, expected):
        kind = ref["scenario"]["estimator"]
        for key, want in ref["scenario"].items():
            have = rep.get("scenario", {}).get(key)
            ok = have == want if isinstance(want, str) else (
                have is not None and close(have, want))
            if not ok:
                return f"{kind}: scenario.{key} = {have!r}, expected {want!r}"
        for group in ("inputs", "lhs"):
            for key, want in ref[group].items():
                have = rep.get(group, {}).get(key)
                if have is None or not close(have, want):
                    return f"{kind}: {group}.{key} = {have!r}, expected {want!r}"
        if not close(rep.get("bound", math.nan), ref["bound"]):
            return f"{kind}: bound = {rep.get('bound')!r}, expected {ref['bound']!r}"
        for key, margin in ref["margins"].items():
            # a margin within rounding of the tolerance may fall either way
            if abs(margin + MARGIN_TOL) < 1e-8:
                continue
            if rep.get("satisfied", {}).get(key) != (margin >= -MARGIN_TOL):
                return f"{kind}: satisfied.{key} disagrees with margin {margin:.3e}"
    return None


def check_table(got: dict, expected: np.ndarray) -> str | None:
    """Compare parsed outcome-table entries ``{(m, y, w): p}`` with ``p[m, y, w]``."""
    for mi, m in enumerate((1, -1)):
        for yi, y in enumerate((1, -1)):
            for wi, w in enumerate((1, -1)):
                have = got.get((m, y, w))
                if have is None or not close(have, expected[mi, yi, wi]):
                    return f"p({m},{y},{w}) = {have!r}, expected {expected[mi, yi, wi]!r}"
    return None


# ---------------------------------------------------------------------------
# run_verification
# ---------------------------------------------------------------------------

REFERENCE_GAMMA_DEG = 22.5
REFERENCE_R_H = 0.1244
REFERENCE_R_V = 0.4645


def reference_satisfied() -> dict[str, bool]:
    """Relation flags of the optimal estimate at the hardware operating point."""
    gamma = math.radians(REFERENCE_GAMMA_DEG)
    psi = np.array([0.0, math.cos(gamma), -math.sin(gamma), 0.0])
    rho = np.outer(psi, psi).astype(complex)
    t = correlations(rho)
    n = directions(90.0, 180.0)
    p = joint_table(t, REFERENCE_R_H, REFERENCE_R_V, n)
    s = statistics(p, t, REFERENCE_R_H, REFERENCE_R_V, optimal_values(t, n))
    bound = s["c"][0] / 2.0
    return {k: bool(v[0] - bound >= -MARGIN_TOL) for k, v in relation_lhs(s).items()}


def check_verification(got: dict, seed: int, trials: int,
                       reference: dict[str, bool]) -> str | None:
    """``run_verification(...).to_dict()`` must pass with the requested shape."""
    if got.get("trials") != trials or got.get("seed") != seed:
        return f"ran trials={got.get('trials')} seed={got.get('seed')}, asked {trials}/{seed}"
    if got.get("reference_satisfied") != reference:
        return f"reference flags {got.get('reference_satisfied')} != {reference}"
    if got.get("passed") is not True:
        return "verification did not pass"
    return None
