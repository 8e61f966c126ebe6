"""Byte-for-byte goldens of the CLI reports.

The reports are part of the package's contract: for fixed inputs they must
match these files exactly, at the 12 significant digits they print.  The
files were written by the same ``cli.main`` invocations.  The ``verify``
report is pinned field by field: its counts, flags and margins exactly, its
rounding-noise residuals to 1e-12.
"""

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


# verify report fields that are rounding noise of near-zero residuals: they
# move with any change of summation order, so they are pinned to 1e-12
VERIFY_NOISE = ("oracle_max_diff", "y_inaccuracy_max_diff", "dispersion_max_residual",
                "gap_max_residual", "chain_min_slack")


def test_verify_report_matches_golden(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--trials", "300", "--seed", "7", "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((DATA / "golden_verify.json").read_text(encoding="utf-8"))
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in VERIFY_NOISE:
            assert abs(got[key] - value) <= 1e-12, key
        else:
            assert got[key] == value, key
