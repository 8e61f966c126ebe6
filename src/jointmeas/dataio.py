"""File formats: outcome tables, density matrices, and result reports.

Outcome tables are CSV with header ``m,y,w,p,sigma`` (or ``m,y,w,p`` with
no uncertainties) and optional ``# key=value`` metadata lines before the
header.  Outcomes are the integers +1/-1; ``sigma`` may be empty.  Density
matrices are CSV rows ``row,col,re,im`` (16 lines for two qubits).  All floats are written with
``%.12g`` so that parse(emit(x)) == x at 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from importlib import resources

import numpy as np

from .qcore import DEFAULT_TOLERANCES, DataQualityWarning, DensityMatrix, ToleranceProfile
from .scenario import JointDistribution


class DataValidationError(ValueError):
    """A file parsed cleanly but its contents fail a physical sanity gate."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(value):
    """Round floats (recursively through dict/list) to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _parse_outcome(text: str, column: str, line_no: int) -> int:
    try:
        val = int(text)
    except ValueError as exc:
        raise DataValidationError(
            f"line {line_no}: column {column!r} must be an integer, got {text!r}"
        ) from exc
    if val not in (+1, -1):
        raise DataValidationError(
            f"line {line_no}: column {column!r} must be +1 or -1, got {val}"
        )
    return val


def parse_distribution(text: str, provenance: str = "measured",
                       tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
                       ) -> JointDistribution:
    """Parse an outcome-table CSV into a JointDistribution."""
    metadata: dict[str, str] = {}
    lines = text.splitlines()
    data_lines: list[tuple[int, str]] = []
    for idx, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        data_lines.append((idx, stripped))
    if not data_lines:
        raise DataValidationError("no header row found")
    header_no, header = data_lines[0]
    cols = [c.strip() for c in header.split(",")]
    if cols not in (["m", "y", "w", "p"], ["m", "y", "w", "p", "sigma"]):
        raise DataValidationError(
            f"line {header_no}: header must be 'm,y,w,p' or 'm,y,w,p,sigma', got {header!r}"
        )
    entries: dict[tuple[int, int, int], float] = {}
    sigmas: dict[tuple[int, int, int], float] = {}
    for line_no, row in data_lines[1:]:
        parts = [c.strip() for c in row.split(",")]
        if len(parts) != len(cols):
            raise DataValidationError(
                f"line {line_no}: expected {len(cols)} columns, got {len(parts)}"
            )
        m = _parse_outcome(parts[0], "m", line_no)
        y = _parse_outcome(parts[1], "y", line_no)
        w = _parse_outcome(parts[2], "w", line_no)
        try:
            p = float(parts[3])
        except ValueError as exc:
            raise DataValidationError(
                f"line {line_no}: column 'p' must be a float, got {parts[3]!r}"
            ) from exc
        if not math.isfinite(p):
            raise DataValidationError(f"line {line_no}: probability is not finite")
        key = (m, y, w)
        if key in entries:
            raise DataValidationError(f"line {line_no}: duplicate outcome triple {key}")
        entries[key] = p
        if len(parts) == 5 and parts[4]:
            try:
                sigma = float(parts[4])
            except ValueError as exc:
                raise DataValidationError(
                    f"line {line_no}: column 'sigma' must be a float or empty"
                ) from exc
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise DataValidationError(
                    f"line {line_no}: sigma must be finite and non-negative, got {parts[4]!r}")
            sigmas[key] = sigma
    if len(entries) != 8:
        raise DataValidationError(
            f"expected 8 outcome triples, found {len(entries)}"
        )
    try:
        return JointDistribution(
            entries=entries,
            provenance=provenance,
            metadata=metadata,
            sigmas=sigmas or None,
            tolerances=tolerances,
        )
    except ValueError as exc:
        raise DataValidationError(str(exc)) from exc


def load_distribution(path: str | os.PathLike, provenance: str = "measured",
                      tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
                      ) -> JointDistribution:
    with open(path, encoding="utf-8") as fh:
        return parse_distribution(fh.read(), provenance=provenance,
                                  tolerances=tolerances)


def emit_distribution(dist: JointDistribution) -> str:
    """Serialise an outcome table; inverse of parse_distribution at 12 digits."""
    out = io.StringIO()
    for key in sorted(dist.metadata):
        out.write(f"# {key}={dist.metadata[key]}\n")
    out.write("m,y,w,p,sigma\n")
    for key in sorted(dist.entries, reverse=True):
        m, y, w = key
        sigma = ""
        if dist.sigmas and key in dist.sigmas:
            sigma = _fmt(dist.sigmas[key])
        out.write(f"{m},{y},{w},{_fmt(dist.entries[key])},{sigma}\n")
    return out.getvalue()


def save_distribution(dist: JointDistribution, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_distribution(dist))


def parse_density_matrix(text: str, dim: int = 4,
                         tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Parse ``row,col,re,im`` CSV into a validated DensityMatrix.

    Tomographic reconstructions are noisy, so the gates here are looser than
    the exact-arithmetic ones: Hermiticity within 1e-6 (then symmetrised),
    trace within 1e-3 of one (then renormalised).  The eigenvalue floor
    ``-tolerances.tomographic_psd`` and the flag of eigenvalues below
    ``-qcore.PSD_TOL`` are the DensityMatrix's own; a flagged state is kept and
    warned about.
    """
    mat = np.zeros((dim, dim), dtype=complex)
    seen: set[tuple[int, int]] = set()
    line_no = 0
    for raw in text.splitlines():
        line_no += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [c.strip() for c in stripped.split(",")]
        if parts == ["row", "col", "re", "im"]:
            continue
        if len(parts) != 4:
            raise DataValidationError(
                f"line {line_no}: expected row,col,re,im, got {stripped!r}"
            )
        try:
            row, col = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise DataValidationError(f"line {line_no}: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DataValidationError(
                f"line {line_no}: entry ({row},{col}) is not finite: re={parts[2]!r}, "
                f"im={parts[3]!r}")
        if not (0 <= row < dim and 0 <= col < dim):
            raise DataValidationError(
                f"line {line_no}: index ({row},{col}) outside a {dim}x{dim} matrix"
            )
        if (row, col) in seen:
            raise DataValidationError(f"line {line_no}: duplicate entry ({row},{col})")
        seen.add((row, col))
        mat[row, col] = complex(re, im)
    if len(seen) != dim * dim:
        raise DataValidationError(
            f"expected {dim * dim} matrix entries, found {len(seen)}"
        )
    herm_err = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_err > 1e-6:
        raise DataValidationError(
            f"matrix is not Hermitian (max asymmetry {herm_err:.3e})"
        )
    mat = 0.5 * (mat + mat.conj().T)
    trace = float(np.real(np.trace(mat)))
    if abs(trace - 1.0) > 1e-3:
        raise DataValidationError(f"trace is {trace:.6f}, expected 1")
    try:
        rho = DensityMatrix(mat / trace, psd_floor=tolerances.tomographic_psd)
    except ValueError as exc:
        raise DataValidationError(f"{exc}; not a state") from exc
    if rho.psd_warning:
        warnings.warn(
            f"state has a slightly negative eigenvalue ({rho.min_eigenvalue:.3e}); "
            "keeping it as-is",
            DataQualityWarning,
        )
    return rho


def load_density_matrix(path: str | os.PathLike, dim: int = 4,
                        tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> DensityMatrix:
    with open(path, encoding="utf-8") as fh:
        return parse_density_matrix(fh.read(), dim=dim, tolerances=tolerances)


def emit_density_matrix(rho: DensityMatrix) -> str:
    out = io.StringIO()
    out.write("row,col,re,im\n")
    for row in range(rho.dim):
        for col in range(rho.dim):
            val = rho.matrix[row, col]
            out.write(f"{row},{col},{_fmt(val.real)},{_fmt(val.imag)}\n")
    return out.getvalue()


def _report_rows(report) -> list[dict]:
    if hasattr(report, "to_dict"):
        report = report.to_dict()
    if isinstance(report, dict):
        return [report]
    return [r.to_dict() if hasattr(r, "to_dict") else dict(r) for r in report]


def _flatten(row: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, val in row.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(_flatten(val, prefix=f"{name}."))
        else:
            flat[name] = val
    return flat


def emit_report(report, fmt: str = "json") -> str:
    """Serialise one report dict (or a list of them) as json or csv."""
    rows = [_round12(r) for r in _report_rows(report)]
    if fmt == "json":
        payload = rows[0] if len(rows) == 1 else rows
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        flat_rows = [_flatten(r) for r in rows]
        fields: list[str] = []
        for row in flat_rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in flat_rows:
            writer.writerow({k: row.get(k, "") for k in fields})
        return out.getvalue()
    raise ValueError(f"unknown output format {fmt!r}")


def bundled_distribution(phi_deg: float) -> JointDistribution:
    """Load one of the packaged measured outcome tables by analyser angle."""
    name = f"measured_phi{phi_deg:g}.csv"
    ref = resources.files("jointmeas.data").joinpath(name)
    if not ref.is_file():
        available = sorted(
            p.name for p in resources.files("jointmeas.data").iterdir()
            if p.name.startswith("measured_")
        )
        raise FileNotFoundError(
            f"no bundled table {name!r}; available: {', '.join(available)}"
        )
    return parse_distribution(ref.read_text(encoding="utf-8"), provenance="measured")


def bundled_state() -> DensityMatrix:
    """Load the packaged tomographic two-qubit state."""
    ref = resources.files("jointmeas.data").joinpath("tomographic_state.csv")
    return parse_density_matrix(ref.read_text(encoding="utf-8"))
