"""Each script in `demos/` runs to the end in process.

pyproject's `filterwarnings` turns a RuntimeWarning or a UserWarning (a
stray DataQualityWarning among them) into an error, so a demo that warns
fails here.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    """The demos are found from this file's path, also when the tests run
    against an installed package from another directory."""
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
