"""Byte-for-byte goldens of the CLI reports.

The reports are part of the package's contract: for fixed inputs they must
match these files exactly, at the 12 significant digits they print.  The
files were written by the same ``cli.main`` invocations.
"""

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
