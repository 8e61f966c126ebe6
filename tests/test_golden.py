"""Byte-for-byte goldens of the CLI reports.

The reports are part of the package's contract: for fixed inputs they must
match these files exactly, at the 12 significant digits they print.  The
files were written by the same ``cli.main`` invocations; each mode's report
is pinned in both formats; the 3600-angle sweep is stored gzip-compressed.  The ``verify``
reports (300 trials at seed 7, 3000 trials at seeds 1, 2, 3 and 42, and the
default 10 000 trials at seed 42) are pinned field by field: their counts,
flags and margins exactly, their rounding-noise residuals to 1e-12; the
300-trial report is read back from both formats.
"""

import csv
import gzip
import json
import math
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from jointmeas import BlochObservable, epr_state
from jointmeas.cli import main

DATA = Path(__file__).parent / "data"
MEASURED = resources.files("jointmeas.data").joinpath("measured_phi180.csv")


@pytest.mark.parametrize("golden, args", [
    ("golden_simulate.json", ["simulate", "--gamma", "22.5", "--phi", "180",
                              "--format", "json"]),
    ("golden_analyze.json", ["analyze", "--dist-file", "{measured}", "--format", "json"]),
    ("golden_sweep.csv", ["sweep", "--gamma", "22.5", "--format", "csv"]),
    ("golden_simulate.csv", ["simulate", "--gamma", "22.5", "--phi", "180",
                             "--format", "csv"]),
    ("golden_analyze.csv", ["analyze", "--dist-file", "{measured}", "--format", "csv"]),
    ("golden_sweep.json", ["sweep", "--gamma", "22.5", "--format", "json"]),
])
def test_cli_report_matches_golden(tmp_path, golden, args):
    out = tmp_path / golden
    with resources.as_file(MEASURED) as measured:
        argv = [arg.format(measured=measured) for arg in args]
        assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (DATA / golden).read_text(encoding="utf-8")


def test_dense_sweep_matches_golden(tmp_path):
    """A 3600-angle sweep (0, 0.1, ..., 359.9 degrees): a change that moves
    one cell of a dense grid in the 12th digit fails here, where the
    37-angle golden can miss it."""
    out = tmp_path / "sweep.csv"
    phis = ",".join(f"{k / 10:g}" for k in range(3600))
    assert main(["sweep", "--gamma", "22.5", "--phi", phis, "--format", "csv",
                 "--out", str(out)]) == 0
    want = gzip.decompress((DATA / "golden_sweep_3600.csv.gz").read_bytes())
    assert out.read_bytes() == want


def test_dense_golden_cell_at_271_8_is_eps_rounded_below_its_tie():
    """The dense golden's ``eps_x_simple`` at phi = 271.8 deg is the exact
    eps(X) of the package's own float inputs, rounded to 12 digits.

    For an exact table, eps(X)^2 of the estimate f(w) = w is
    ``<(X (x) 1 - 1 (x) W)^2> = (1 + |n|^2) Tr rho - 2 Re Tr[rho X (x) W]``,
    whatever the slide.  Taken in exact rationals from the floats of
    ``epr_state`` and ``BlochObservable``, it lies just below the square of
    the 12-digit tie ``1.429832690035``, so the cell rounds down; a table
    whose rounding carries eps past the tie would print ...004."""
    rho = [[(Fraction(z.real), Fraction(z.imag)) for z in row]
           for row in epr_state(math.radians(22.5)).matrix.tolist()]
    n_x, n_y, n_z = map(Fraction, BlochObservable.from_degrees(90.0, 271.8).vector.tolist())
    # W = n.s as (real, imaginary) entries, and X (x) W, whose entry (j, i)
    # is W's entry of the other qubit-1 index
    w = [[(n_z, 0), (n_x, -n_y)], [(n_x, n_y), (-n_z, 0)]]
    x_w = [[w[j % 2][i % 2] if j // 2 != i // 2 else (0, 0) for i in range(4)]
           for j in range(4)]
    trace = sum(rho[i][i][0] for i in range(4))
    # Re sum_ij rho[i][j] (X (x) W)[j][i]
    re_tr = sum(rho[i][j][0] * x_w[j][i][0] - rho[i][j][1] * x_w[j][i][1]
                for i in range(4) for j in range(4))
    eps_sq = (1 + n_x * n_x + n_y * n_y + n_z * n_z) * trace - 2 * re_tr
    tie = Fraction("1.429832690035")
    assert Fraction("1.42983269003") ** 2 < eps_sq < tie * tie
    rows = gzip.decompress((DATA / "golden_sweep_3600.csv.gz").read_bytes()).decode().splitlines()
    row = dict(zip(rows[0].split(","), rows[2719].split(",")))
    assert (row["phi_deg"], row["eps_x_simple"]) == ("271.8", "1.42983269003")


# verify report fields that are rounding noise of near-zero residuals: they
# move with any change of summation order, so they are pinned to 1e-12
VERIFY_NOISE = ("oracle_max_diff", "y_inaccuracy_max_diff", "dispersion_max_residual",
                "gap_max_residual", "chain_min_slack")


def assert_verify_report_matches(tmp_path, golden, trials, seed, key=None):
    """The report of ``verify --trials trials --seed seed`` against a golden,
    or against the golden's entry ``key`` when it holds several."""
    out = tmp_path / golden
    assert main(["verify", "--trials", str(trials), "--seed", str(seed),
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((DATA / golden).read_text(encoding="utf-8"))
    want = want if key is None else want[key]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in VERIFY_NOISE:
            assert abs(got[key] - value) <= 1e-12, key
        else:
            assert got[key] == value, key


def test_verify_report_matches_golden(tmp_path):
    assert_verify_report_matches(tmp_path, "golden_verify.json", 300, 7)


def test_verify_10k_report_matches_golden(tmp_path):
    """The full-size default run: 10 blocks of trials, pinned the same way."""
    assert_verify_report_matches(tmp_path, "golden_verify_10k.json", 10_000, 42)


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_verify_3000_reports_match_golden(tmp_path, seed):
    """Three blocks of trials at four seeds, one golden entry per seed."""
    assert_verify_report_matches(tmp_path, "golden_verify_3000.json", 3000, seed, str(seed))


def golden_leaves(tree: dict, prefix: str = ""):
    """Each leaf of a golden report as the dotted name a csv report gives it."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from golden_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def test_verify_csv_report_matches_golden(tmp_path):
    """The verify report as csv, read back with csv.DictReader: one row
    whose columns are the golden's leaves, with its counts, flags and
    margins exactly and its rounding-noise residuals to 1e-12."""
    out = tmp_path / "verify.csv"
    assert main(["verify", "--trials", "300", "--seed", "7", "--format", "csv",
                 "--out", str(out)]) == 0
    with out.open(newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    want = dict(golden_leaves(json.loads((DATA / "golden_verify.json").read_text(
        encoding="utf-8"))))
    assert row.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, bool):
            assert row[key] == str(value), key
        elif isinstance(value, int):
            assert int(row[key]) == value, key
        elif key in VERIFY_NOISE:
            assert abs(float(row[key]) - value) <= 1e-12, key
        else:
            assert float(row[key]) == value, key
