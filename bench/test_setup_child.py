"""The set-up child loads nothing that ``jointmeas`` needs before it starts
its clock, and its first call matches the reference.  Run from the checkout
root:

    python3 -m pytest -q bench/test_setup_child.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _modules(code: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(proc.stdout.split())


@pytest.mark.parametrize("workload", ["verify", "sweep_dense", "cli_tables"])
def test_nothing_jointmeas_imports_is_loaded_before_the_clock(tmp_path, workload):
    needed = _modules(
        "import sys; import numpy; before = set(sys.modules); "
        "sys.path.insert(0, 'src'); import jointmeas, jointmeas.cli; "
        "print(' '.join(set(sys.modules) - before))")
    assert "argparse" in needed
    loaded = _modules(
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import setup_child; "
        f"setup_child.prepare({workload!r}, 1, __import__('pathlib').Path({str(tmp_path)!r})); "
        "print(' '.join(sys.modules))")
    assert needed & loaded == set()


def test_setup_child_reports_a_checked_first_call(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), "cli_tables", "1", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["reason"] is None
    assert 0 < result["raw_setup_s"] < 60
