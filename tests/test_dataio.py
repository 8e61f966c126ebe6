"""CSV parsing/serialisation for outcome tables, states and reports."""

import csv
import io
import json
import math
import random
from importlib import resources

import numpy as np
import pytest

from jointmeas import (
    DataQualityWarning,
    DataValidationError,
    bundled_distribution,
    bundled_state,
    emit_density_matrix,
    emit_distribution,
    emit_report,
    epr_state,
    evaluate_relations,
    fidelity,
    joint_distribution,
    load_distribution,
    parse_density_matrix,
    parse_distribution,
    save_distribution,
)
from jointmeas.qcore import PROFILES

GOOD_TABLE = """\
# theta_deg=90
# phi_deg=180
# r_h=0.1244
# r_v=0.4645
m,y,w,p,sigma
1,1,1,0.282,0.002
1,1,-1,0.112,0.002
1,-1,1,0.157,0.002
1,-1,-1,0.162,0.002
-1,1,1,0.0363,0.0007
-1,1,-1,0.0607,0.0009
-1,-1,1,0.0614,0.0009
-1,-1,-1,0.129,0.002
"""


def test_parse_distribution_golden():
    dist = parse_distribution(GOOD_TABLE)
    assert dist.provenance == "measured"
    assert dist.prob(1, 1, 1) == 0.282
    assert dist.prob(-1, 1, -1) == 0.0607
    assert dist.sigmas[(-1, 1, 1)] == 0.0007
    assert dist.metadata == {"theta_deg": "90", "phi_deg": "180",
                             "r_h": "0.1244", "r_v": "0.4645"}
    assert dist.total() == pytest.approx(1.0004, abs=1e-12)


def test_parse_distribution_errors():
    with pytest.raises(DataValidationError, match="no header row"):
        parse_distribution("# only=metadata\n")
    with pytest.raises(DataValidationError, match="header must be"):
        parse_distribution("m,y,w,prob\n")
    bad_outcome = GOOD_TABLE.replace("1,1,1,0.282", "2,1,1,0.282")
    with pytest.raises(DataValidationError, match=r"column 'm' must be \+1 or -1, got 2"):
        parse_distribution(bad_outcome)
    not_int = GOOD_TABLE.replace("-1,-1,-1,0.129", "-1,-1,x,0.129")
    with pytest.raises(DataValidationError, match="column 'w' must be an integer"):
        parse_distribution(not_int)
    bad_p = GOOD_TABLE.replace("0.282", "n/a")
    with pytest.raises(DataValidationError, match="column 'p' must be a float"):
        parse_distribution(bad_p)
    dup = GOOD_TABLE.replace("1,1,-1,0.112", "1,1,1,0.112")
    with pytest.raises(DataValidationError, match=r"line 7: duplicate outcome triple \(1, 1, 1\)"):
        parse_distribution(dup)
    short = "\n".join(GOOD_TABLE.splitlines()[:-1]) + "\n"
    with pytest.raises(DataValidationError, match="expected 8 outcome triples, found 7"):
        parse_distribution(short)
    wide = GOOD_TABLE.replace("1,1,1,0.282,0.002", "1,1,1,0.282,0.002,9")
    with pytest.raises(DataValidationError, match="expected 5 columns, got 6"):
        parse_distribution(wide)



@pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf", "-inf", "-1e-300"])
def test_parse_distribution_rejects_bad_sigma(sigma):
    """A negative or non-finite sigma is refused on its line, so that no
    emitted table carries one."""
    bad = GOOD_TABLE.replace("1,1,-1,0.112,0.002", f"1,1,-1,0.112,{sigma}")
    with pytest.raises(DataValidationError,
                       match=f"line 7: sigma must be finite and non-negative, got '{sigma}'"):
        parse_distribution(bad)


def test_parse_distribution_keeps_zero_and_empty_sigma():
    text = (GOOD_TABLE.replace("1,1,-1,0.112,0.002", "1,1,-1,0.112,0")
            .replace("1,-1,1,0.157,0.002", "1,-1,1,0.157,"))
    dist = parse_distribution(text)
    assert dist.sigmas[(1, 1, -1)] == 0.0
    assert (1, -1, 1) not in dist.sigmas
    assert parse_distribution(emit_distribution(dist)).sigmas == dist.sigmas

def test_parse_distribution_skips_blank_lines():
    lines = GOOD_TABLE.splitlines()
    spaced = "\n".join([lines[0], "", *lines[1:5], "   ", *lines[5:], ""]) + "\n"
    dist = parse_distribution(spaced)
    assert dist.entries == parse_distribution(GOOD_TABLE).entries
    assert dist.metadata == parse_distribution(GOOD_TABLE).metadata


def test_parse_distribution_mass_gate():
    scaled = GOOD_TABLE.replace("0.282", "0.582")
    with pytest.raises(DataValidationError, match=r"sum to 1.3004, outside 1 \+- 0.01"):
        parse_distribution(scaled)
    # the relaxed profile is wider but still rejects this table
    with pytest.raises(DataValidationError, match=r"\+- 0.05"):
        parse_distribution(scaled, tolerances=PROFILES["relaxed"])


def test_distribution_roundtrip_bytes():
    """emit . parse is the identity on the packaged tables."""
    for name in ("measured_phi157.5.csv", "measured_phi180.csv",
                 "measured_phi225.csv"):
        text = resources.files("jointmeas.data").joinpath(name).read_text()
        assert emit_distribution(parse_distribution(text)) == text


def test_distribution_roundtrip_simulated(reference):
    rho, slide, w = reference
    dist = joint_distribution(rho, slide, w)
    back = parse_distribution(emit_distribution(dist), provenance="simulated")
    for key, val in dist.entries.items():
        assert back.entries[key] == pytest.approx(val, abs=1e-12)
    assert back.metadata["phi_deg"] == "180.0"
    assert back.sigmas is None


def test_save_and_load_distribution(tmp_path):
    dist = parse_distribution(GOOD_TABLE)
    path = tmp_path / "table.csv"
    save_distribution(dist, path)
    again = load_distribution(path)
    assert again.entries == dist.entries
    assert again.sigmas == dist.sigmas


def test_prob_and_written_table_read_the_table_every_analysis_reads(tmp_path):
    """Editing ``entries`` in place (a dict field stays editable) moves
    neither ``prob()`` nor the written file away from ``table``."""
    dist = parse_distribution(GOOD_TABLE)
    text = emit_distribution(dist)
    dist.entries[(1, 1, 1)] = 0.5
    assert dist.prob(1, 1, 1) == float(dist.table[0, 0, 0]) == 0.282
    path = tmp_path / "table.csv"
    save_distribution(dist, path)
    assert path.read_text(encoding="utf-8") == text
    assert "\n1,1,1,0.282,0.002\n" in text
    with pytest.raises(KeyError, match=r"\(0, 1, 1\)"):
        dist.prob(0, 1, 1)


def test_parse_density_matrix_roundtrip():
    text = resources.files("jointmeas.data").joinpath(
        "tomographic_state.csv").read_text()
    rho = parse_density_matrix(text)
    assert emit_density_matrix(rho) == text
    assert rho.min_eigenvalue > 0.0


def test_parse_density_matrix_skips_blank_and_comment_lines():
    text = resources.files("jointmeas.data").joinpath("tomographic_state.csv").read_text()
    lines = text.splitlines()
    commented = "\n".join(["# a comment", "", *lines[:3], "  ", "  # indented", *lines[3:]])
    assert np.array_equal(parse_density_matrix(commented).matrix,
                          parse_density_matrix(text).matrix)


def test_bundled_state_against_ideal():
    rho = bundled_state()
    ideal = epr_state(math.radians(22.5))
    # the ideal state is pure, so the fidelity is Tr(rho ideal)
    overlap = float(np.trace(rho.matrix @ ideal.matrix).real)
    assert overlap == pytest.approx(0.9739453814973298, abs=1e-15)
    assert fidelity(rho, ideal) == pytest.approx(overlap, abs=1e-12)
    assert rho.min_eigenvalue == pytest.approx(0.0014996094439817531, abs=1e-15)


def density_text(mat):
    lines = ["row,col,re,im"]
    for r in range(mat.shape[0]):
        for c in range(mat.shape[1]):
            lines.append(f"{r},{c},{mat[r, c].real:.12g},{mat[r, c].imag:.12g}")
    return "\n".join(lines) + "\n"


def test_parse_density_matrix_gates():
    bad_trace = density_text(np.diag([0.4, 0.3, 0.1, 0.1]).astype(complex))
    with pytest.raises(DataValidationError, match="trace is 0.900000"):
        parse_density_matrix(bad_trace)

    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 0.2
    with pytest.raises(DataValidationError, match="not Hermitian"):
        parse_density_matrix(density_text(skew))

    negative = density_text(np.diag([0.6, 0.404, 0.0, -0.004]).astype(complex))
    with pytest.raises(DataValidationError, match="not a state"):
        parse_density_matrix(negative)

    slightly = density_text(np.diag([0.6, 0.4005, 0.0, -0.0005]).astype(complex))
    with pytest.warns(DataQualityWarning, match="slightly negative"):
        rho = parse_density_matrix(slightly)
    assert rho.min_eigenvalue == pytest.approx(-0.0005, abs=1e-12)
    assert rho.psd_warning


def test_parse_density_matrix_diagonalises_once(monkeypatch):
    """The eigenvalue floor and flag are the DensityMatrix's own: one
    eigvalsh call per state file, accepted, flagged or rejected."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mat):
        calls.append(mat.shape)
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    texts = [density_text(np.diag(diag).astype(complex)) for diag in
             ([0.6, 0.4, 0.0, 0.0], [0.6, 0.4005, 0.0, -0.0005], [0.6, 0.404, 0.0, -0.004])]
    parse_density_matrix(texts[0])
    with pytest.warns(DataQualityWarning, match="slightly negative"):
        parse_density_matrix(texts[1])
    with pytest.raises(DataValidationError, match="eigenvalue -4.000e-03.*not a state"):
        parse_density_matrix(texts[2])
    assert len(calls) == 3


def test_parse_distribution_four_columns():
    four = "\n".join(line.rsplit(",", 1)[0] for line in GOOD_TABLE.splitlines()
                     if not line.startswith("#")) + "\n"
    assert four.splitlines()[0] == "m,y,w,p"
    dist = parse_distribution(four)
    assert dist.entries == parse_distribution(GOOD_TABLE).entries
    assert dist.sigmas is None
    with pytest.raises(DataValidationError, match="expected 4 columns, got 5"):
        parse_distribution(four.replace("1,1,1,0.282", "1,1,1,0.282,0.002"))


def test_parse_density_matrix_structure_errors():
    with pytest.raises(DataValidationError, match="expected 16 matrix entries, found 1"):
        parse_density_matrix("0,0,1,0\n")
    with pytest.raises(DataValidationError, match=r"outside a 4x4 matrix"):
        parse_density_matrix("0,4,1,0\n")
    with pytest.raises(DataValidationError, match="duplicate entry"):
        parse_density_matrix("0,0,0.5,0\n0,0,0.5,0\n")
    with pytest.raises(DataValidationError, match="expected row,col,re,im"):
        parse_density_matrix("0,0,1\n")



@pytest.mark.parametrize("re, im", [("nan", "0"), ("inf", "0"), ("0.25", "-inf"),
                                    ("0.25", "nan")])
def test_parse_density_matrix_rejects_non_finite_entries(re, im):
    """A non-finite entry is refused on its line, before the Hermiticity,
    trace and eigenvalue gates see it (and without numpy warnings)."""
    lines = density_text(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)).splitlines()
    lines[6] = f"1,1,{re},{im}"
    with pytest.raises(DataValidationError, match=r"line 7: entry \(1,1\) is not finite"):
        parse_density_matrix("\n".join(lines) + "\n")

def test_bundled_distribution_lookup():
    dist = bundled_distribution(157.5)
    assert dist.metadata["phi_deg"] == "157.5"
    assert dist.total() == pytest.approx(1.0007, abs=1e-12)
    with pytest.raises(FileNotFoundError, match="measured_phi135.csv"):
        bundled_distribution(60)


def test_bundled_distribution_rejects_inconsistent_mass():
    with pytest.raises(DataValidationError, match="sum to 1.4381"):
        bundled_distribution(135)


def test_emit_report_json():
    report = evaluate_relations(0.5, 0.25, 1.0, 2.0, 0.75, 1.5, 1.0,
                                scenario={"phi_deg": 180.0})
    text = emit_report(report, "json")
    assert text.endswith("\n")
    assert '"arthurs_kelly": 0.125' in text
    assert '"bound": 0.5' in text


def test_emit_report_rounds_to_twelve_digits():
    text = emit_report({"value": 1.0 / 3.0}, "json")
    assert "0.333333333333" in text
    assert "3333333333333" not in text


def test_emit_report_csv_union_of_columns():
    rows = [{"a": 1.0, "nested": {"x": 2.0}}, {"a": 3.0, "b": 4.0}]
    text = emit_report(rows, "csv")
    lines = text.splitlines()
    assert lines[0] == "a,nested.x,b"
    assert lines[1] == "1.0,2.0,"
    assert lines[2] == "3.0,,4.0"


def test_emit_report_unknown_format():
    with pytest.raises(ValueError, match="unknown output format"):
        emit_report({"a": 1.0}, "yaml")


def _round12(value):
    """The tree copy the json and csv reports went through before they were
    written in one pass: floats rounded to 12 significant digits, tuples as
    lists."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def old_json_report(report) -> str:
    """emit_report(report, "json") as json.dumps wrote it from that copy."""
    rows = [report] if isinstance(report, dict) else [dict(row) for row in report]
    payload = rows[0] if len(rows) == 1 else rows
    return json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"


# floats where %g, repr and json spell numbers differently: non-finite and
# signed zeros, integral values, the 1e12 and 1e16 switches to exponent form,
# the 1e-4 switch, subnormals, and values whose 12th digit rounds up a decade
SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -3.0, 2.0 ** 53,
                  1e12, -1e12, 999999999999.4, 999999999999.5, 1e12 - 2.0 ** -27,
                  1e16, 9999999999999998.0, 1e16 + 2.0, 1.5e15, 123456789012.0,
                  1e-4, 1e-5, 0.000099999999999995, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 1 / 3, 0.9999999999995, 9.9999999999995)
STRINGS = ("", "a", "eps_x_optimal", 'quote " and \\ backslash', "tab\tnew\nline\r",
           "\x00\x1f\x7f", "é", "∞ ≥ c/2", "😀", "\ud800", "x" * 40)


def random_float(rng: random.Random) -> float:
    pick = rng.randrange(6)
    if pick == 0:
        return rng.choice(SPECIAL_FLOATS)
    if pick == 1:  # integral
        return float(rng.randrange(-10 ** 17, 10 ** 17) // 10 ** rng.randrange(17))
    if pick == 2:  # within a few ulps of 1e12, 1e16 or 1e-4
        value = rng.choice((1e12, 1e16, 1e-4))
        for _ in range(rng.randrange(-4, 5)):
            value = math.nextafter(value, math.inf)
        return rng.choice((value, -value))
    if pick == 3:  # subnormal
        return rng.uniform(-1.0, 1.0) * 2.0 ** -1022 * 2.0 ** -rng.randrange(52)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)


def random_value(rng: random.Random, depth: int):
    pick = rng.randrange(12 if depth < 3 else 8)
    if pick <= 2:
        return random_float(rng)
    if pick == 3:
        return np.float64(random_float(rng))
    if pick == 4:
        return rng.randrange(-10 ** 18, 10 ** 18) * 10 ** rng.randrange(3)
    if pick == 5:
        return rng.choice((True, False, None))
    if pick in (6, 7):
        return rng.choice(STRINGS)
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if pick == 8:
        return items
    if pick == 9:
        return tuple(items)
    return random_report(rng, depth + 1)


def random_key(rng: random.Random, numeric: bool):
    """A string key, or one of the numbers and bools json also takes as keys
    (sortable among each other, unlike strings and None)."""
    if not numeric:
        return rng.choice(STRINGS) + str(rng.randrange(100))
    return rng.choice((rng.randrange(-10 ** 20, 10 ** 20), random_float(rng), True, False))


def random_report(rng: random.Random, depth: int = 0) -> dict:
    if depth and rng.random() < 0.05:
        return {None: random_value(rng, depth)}
    numeric = depth > 0 and rng.random() < 0.1
    return {random_key(rng, numeric): random_value(rng, depth) for _ in range(rng.randrange(6))}


def test_json_reports_match_the_rounded_tree_copy():
    """emit_report writes json in one pass, rounding each float as it goes;
    on 20 000 seeded random report dicts and lists it writes what json.dumps
    wrote from the rounded tree copy, byte for byte."""
    rng = random.Random(2024)
    for case in range(20_000):
        report = (random_report(rng) if case % 3 else
                  [random_report(rng) for _ in range(rng.randrange(4))])
        assert emit_report(report, "json") == old_json_report(report), report


def _flatten(row: dict, prefix: str = "") -> dict:
    """A row of the rounded tree copy with its nested dicts as dotted names."""
    flat: dict = {}
    for key, val in row.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(_flatten(val, prefix=f"{name}."))
        else:
            flat[name] = val
    return flat


def old_csv_report(report) -> str:
    """emit_report(report, "csv") as csv.DictWriter wrote it from the
    flattened rows of the rounded tree copy."""
    rows = [report] if isinstance(report, dict) else [dict(row) for row in report]
    flat_rows = [_flatten(_round12(row)) for row in rows]
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


# dotted names that collide once nested dicts are flattened, in both orders
COLLIDING = ({"a.b": 1.0, "a": {"b": 2.0}}, {"a": {"b": 2.0}, "a.b": 1.0},
             {"a": {"b.c": 1.0, "b": {"c": 2.0}}, "a.b.c": (3.0,)})


def test_csv_reports_match_the_flattened_tree_copy():
    """emit_report writes csv from each leaf's dotted name and rounded value;
    on 20 000 seeded random report dicts and lists (list and tuple leaves,
    numeric, bool and None keys, strings that need quoting, np.float64 and
    non-finite floats, rows with disjoint keys, names that collide after
    flattening) it writes what csv.DictWriter wrote from the flattened rows
    of the rounded tree copy, byte for byte."""
    rng = random.Random(2025)
    for case in range(20_000):
        report = (random_report(rng) if case % 3 else
                  [random_report(rng) for _ in range(rng.randrange(4))])
        if case % 10 == 0:
            report = [*([report] if isinstance(report, dict) else report),
                      rng.choice(COLLIDING)]
        assert emit_report(report, "csv") == old_csv_report(report), report
    for report in COLLIDING:
        assert emit_report(report, "csv") == old_csv_report(report)
