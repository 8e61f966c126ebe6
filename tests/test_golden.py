"""Byte-for-byte goldens of the CLI reports.

The reports are part of the package's contract: for fixed inputs they must
match these files exactly, at the 12 significant digits they print.  The
files were written by the same ``cli.main`` invocations; the 3600-angle
sweep is stored gzip-compressed.  The ``verify``
reports (300 trials at seed 7, and the default 10 000 trials at seed 42)
are pinned field by field: their counts, flags and margins exactly, their
rounding-noise residuals to 1e-12.
"""

import gzip
import json
from importlib import resources
from pathlib import Path

import pytest

from jointmeas.cli import main

DATA = Path(__file__).parent / "data"
MEASURED = resources.files("jointmeas.data").joinpath("measured_phi180.csv")


@pytest.mark.parametrize("golden, args", [
    ("golden_simulate.json", ["simulate", "--gamma", "22.5", "--phi", "180",
                              "--format", "json"]),
    ("golden_analyze.json", ["analyze", "--dist-file", "{measured}", "--format", "json"]),
    ("golden_sweep.csv", ["sweep", "--gamma", "22.5", "--format", "csv"]),
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

# verify report fields that are rounding noise of near-zero residuals: they
# move with any change of summation order, so they are pinned to 1e-12
VERIFY_NOISE = ("oracle_max_diff", "y_inaccuracy_max_diff", "dispersion_max_residual",
                "gap_max_residual", "chain_min_slack")


def assert_verify_report_matches(tmp_path, golden, trials, seed):
    out = tmp_path / golden
    assert main(["verify", "--trials", str(trials), "--seed", str(seed),
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((DATA / golden).read_text(encoding="utf-8"))
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
