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
from json.encoder import encode_basestring_ascii

import numpy as np

from .qcore import (
    DEFAULT_TOLERANCES,
    DataQualityWarning,
    DataValidationError,
    DensityMatrix,
    ToleranceProfile,
)
from .scenario import TRIPLES, JointDistribution


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
            f"line {line_no}: column {column!r} must be an integer, got {text.strip()!r}"
        ) from exc
    if val not in (+1, -1):
        raise DataValidationError(
            f"line {line_no}: column {column!r} must be +1 or -1, got {val}"
        )
    return val


def parse_distribution(text: str, provenance: str = "measured",
                       tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
                       ) -> JointDistribution:
    """Parse an outcome-table CSV into a JointDistribution, in one pass
    over the lines; ``int`` and ``float`` skip the whitespace around a
    field, and a message quotes it stripped."""
    metadata: dict[str, str] = {}
    cols: list[str] | None = None
    entries: dict[tuple[int, int, int], float] = {}
    sigmas: dict[tuple[int, int, int], float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if cols is None:
            cols = [c.strip() for c in stripped.split(",")]
            if cols not in (["m", "y", "w", "p"], ["m", "y", "w", "p", "sigma"]):
                raise DataValidationError(
                    f"line {line_no}: header must be 'm,y,w,p' or 'm,y,w,p,sigma', "
                    f"got {stripped!r}")
            continue
        parts = stripped.split(",")
        if len(parts) != len(cols):
            raise DataValidationError(
                f"line {line_no}: expected {len(cols)} columns, got {len(parts)}"
            )
        key = (_parse_outcome(parts[0], "m", line_no), _parse_outcome(parts[1], "y", line_no),
               _parse_outcome(parts[2], "w", line_no))
        try:
            p = float(parts[3])
        except ValueError as exc:
            raise DataValidationError(
                f"line {line_no}: column 'p' must be a float, got {parts[3].strip()!r}"
            ) from exc
        if not math.isfinite(p):
            raise DataValidationError(f"line {line_no}: probability is not finite")
        if key in entries:
            raise DataValidationError(f"line {line_no}: duplicate outcome triple {key}")
        entries[key] = p
        if len(parts) == 5 and parts[4] and not parts[4].isspace():
            try:
                sigma = float(parts[4])
            except ValueError as exc:
                raise DataValidationError(
                    f"line {line_no}: column 'sigma' must be a float or empty, "
                    f"got {parts[4].strip()!r}") from exc
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise DataValidationError(
                    f"line {line_no}: sigma must be finite and non-negative, "
                    f"got {parts[4].strip()!r}")
            sigmas[key] = sigma
    if cols is None:
        raise DataValidationError("no header row found")
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
    """Read an outcome-table CSV; a leading UTF-8 byte-order mark, as
    spreadsheet programs write one, is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_distribution(fh.read(), provenance=provenance,
                                  tolerances=tolerances)


def emit_distribution(dist: JointDistribution) -> str:
    """Serialise an outcome table; inverse of parse_distribution at 12 digits."""
    out = io.StringIO()
    for key in sorted(dist.metadata):
        out.write(f"# {key}={dist.metadata[key]}\n")
    out.write("m,y,w,p,sigma\n")
    for key, p in zip(TRIPLES, dist.table.ravel().tolist()):
        m, y, w = key
        sigma = ""
        if dist.sigmas and key in dist.sigmas:
            sigma = _fmt(dist.sigmas[key])
        out.write(f"{m},{y},{w},{_fmt(p)},{sigma}\n")
    return out.getvalue()


def save_distribution(dist: JointDistribution, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_distribution(dist))


def _matrix_entry(parts: list[str]) -> tuple[int, int, float, float]:
    """The fields ``row, col, re, im`` of one density-matrix line."""
    return int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])


def parse_density_matrix(text: str,
                         tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Parse ``row,col,re,im`` CSV into a validated two-qubit DensityMatrix.

    Tomographic reconstructions are noisy, so the gates here are looser than
    the exact-arithmetic ones: Hermiticity within 1e-6 (then symmetrised),
    trace within 1e-3 of one (then renormalised).  The eigenvalue floor
    ``-tolerances.tomographic_psd`` and the flag of eigenvalues below
    ``-qcore.PSD_TOL`` are the DensityMatrix's own; a flagged state is kept and
    warned about.
    """
    # entry (row, col) at 4 * row + col, None until its line is read
    values: list[complex | None] = [None] * 16
    found = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if len(parts) != 4:
            raise DataValidationError(
                f"line {line_no}: expected row,col,re,im, got {stripped!r}"
            )
        try:
            row, col, re, im = _matrix_entry(parts)
        except ValueError:
            # the header, or a bad field, whose message quotes it stripped
            parts = [c.strip() for c in parts]
            if parts == ["row", "col", "re", "im"]:
                continue
            try:
                row, col, re, im = _matrix_entry(parts)
            except ValueError as exc:
                raise DataValidationError(f"line {line_no}: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DataValidationError(
                f"line {line_no}: entry ({row},{col}) is not finite: re={parts[2].strip()!r}, "
                f"im={parts[3].strip()!r}")
        if not (0 <= row < 4 and 0 <= col < 4):
            raise DataValidationError(
                f"line {line_no}: index ({row},{col}) outside a 4x4 matrix"
            )
        if values[4 * row + col] is not None:
            raise DataValidationError(f"line {line_no}: duplicate entry ({row},{col})")
        values[4 * row + col] = complex(re, im)
        found += 1
    if found != 16:
        raise DataValidationError(f"expected 16 matrix entries, found {found}")
    mat = np.array(values, dtype=complex).reshape(4, 4)
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


def load_density_matrix(path: str | os.PathLike,
                        tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Read a density-matrix CSV; a leading UTF-8 byte-order mark is
    skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_density_matrix(fh.read(), tolerances=tolerances)


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


def _csv_leaves(row: dict, prefix: str = ""):
    """Each leaf of a report row as its dotted name and its value rounded
    to 12 significant digits, nested dicts first to last."""
    for key, val in row.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _csv_leaves(val, f"{name}.")
        else:
            yield name, _round12(val)


# json's spellings of the floats that have no JSON literal
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """``repr(float(f"{value:.12g}"))``, NaN and +-Infinity spelled as json
    spells them.  A positional 12-digit text with a point is already that
    repr (no other decimal of at most 12 digits lies within 1e-12 of it),
    and an integral one lacks only ``.0``; exponent forms, which ``%g``
    uses from 1e12 and repr from 1e16, go through repr."""
    text = f"{value:.12g}"
    if "e" in text or "n" in text:
        text = repr(float(text))
        return _NON_FINITE.get(text, text)
    return text if "." in text else text + ".0"


def _json_key(key) -> str:
    """A dict key, quoted, as json writes it: a string, or a number, bool or
    None spelled as json spells them."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(_round12(value), indent=2, sort_keys=True)``
    writes it, nested at ``indent``, in one pass that rounds each float to
    12 significant digits as it writes it (:func:`_json_float`)."""
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [f"{_json_key(key)}: {_json(item, inner)}" for key, item in sorted(value.items())]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    separator = ",\n" + inner
    return brackets[0] + "\n" + inner + separator.join(items) + "\n" + indent + brackets[1]


def emit_report(report, fmt: str = "json") -> str:
    """Serialise one report dict (or a list of them) as json or csv.

    Floats are written at 12 significant digits, each as the shortest
    repr of its rounded value; json output has sorted keys and an indent
    of 2."""
    rows = _report_rows(report)
    if fmt == "json":
        return _json(rows[0] if len(rows) == 1 else rows, "") + "\n"
    if fmt == "csv":
        flat_rows = [dict(_csv_leaves(row)) for row in rows]
        fields = list(dict.fromkeys(key for row in flat_rows for key in row))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([row.get(key, "") for key in fields] for row in flat_rows)
        return out.getvalue()
    raise ValueError(f"unknown output format {fmt!r}")


def bundled_distribution(phi_deg: float) -> JointDistribution:
    """Load one of the packaged measured outcome tables by analyser angle."""
    from importlib import resources  # here: its pathlib/zipfile chain is slow to import

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
    from importlib import resources  # see bundled_distribution

    ref = resources.files("jointmeas.data").joinpath("tomographic_state.csv")
    return parse_density_matrix(ref.read_text(encoding="utf-8"))
