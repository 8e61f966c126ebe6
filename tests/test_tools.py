"""The bit-level digest script in `tools/` runs against this tree.

`tools/blas_digest.py` is loaded from its file and not modified.  Its
one-scenario views run here on one seeded scenario, and its list of golden
invocations is held to the goldens in `tests/data` and to the arguments
`tests/test_golden.py` runs them with: both lists are kept by hand.
"""

import importlib.util
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from jointmeas import RelationReport

import test_golden

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tools" / "blas_digest.py"


def load_digest():
    spec = importlib.util.spec_from_file_location("blas_digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_views_run_and_digest_the_same_twice():
    tool = load_digest()
    views = tool.scenario_views(tool.VIEWS_SEED, 1)
    assert isinstance(views[0], np.ndarray) and views[0].shape == (2, 2, 2)
    assert [type(view) for view in views[-2:]] == [RelationReport] * 2
    assert [view.scenario["estimator"] for view in views[-2:]] == ["simple", "optimal"]
    assert tool.digest(views) == tool.digest(tool.scenario_views(tool.VIEWS_SEED, 1))


def parametrized(test) -> list:
    """The argument sets of a test's one parametrize mark."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


# each golden run of the digest script and the golden test, with its arguments
GOLDEN_TESTS = {
    **{golden: (test_golden.test_cli_report_matches_golden, golden, args)
       for golden, args in parametrized(test_golden.test_cli_report_matches_golden)},
    "golden_sweep_3600.csv.gz": (test_golden.test_dense_sweep_matches_golden,),
    "golden_verify.json": (test_golden.test_verify_report_matches_golden,),
    "golden_verify.json (csv)": (test_golden.test_verify_csv_report_matches_golden,),
    "golden_verify_10k.json": (test_golden.test_verify_10k_report_matches_golden,),
    **{f"golden_verify_3000.json [{seed}]": (test_golden.test_verify_3000_reports_match_golden,
                                             seed)
       for seed in parametrized(test_golden.test_verify_3000_reports_match_golden)},
}


class Recorded(Exception):
    """Stops a golden test once it has called ``main``."""


def recorded_argv(monkeypatch, tmp_path, test, *args) -> list[str]:
    """The arguments a golden test hands to ``cli.main``, less its ``--out``."""
    calls = []

    def record(argv):
        calls.append(argv)
        raise Recorded

    monkeypatch.setattr(test_golden, "main", record)
    with pytest.raises(Recorded):
        test(tmp_path, *args)
    (argv,) = calls
    out = argv.index("--out")
    return argv[:out] + argv[out + 2:]


def options(argv: list[str]) -> tuple[str, dict[str, str]]:
    """A command line's mode and its options' values, in any order."""
    return argv[0], dict(zip(argv[1::2], argv[2::2]))


def test_golden_invocations_cover_every_golden_file(monkeypatch, tmp_path):
    invocations = load_digest().GOLDEN_INVOCATIONS
    files = {path.name for path in (ROOT / "tests" / "data").glob("golden_*")}
    # a key is its golden file's name, with a suffix where one file has several runs
    assert {name.split(" ")[0] for name in invocations} == files
    assert invocations.keys() == GOLDEN_TESTS.keys()
    with resources.as_file(test_golden.MEASURED) as measured:
        for name, (test, *args) in GOLDEN_TESTS.items():
            want = [arg.format(measured=measured) for arg in invocations[name]]
            assert options(recorded_argv(monkeypatch, tmp_path, test, *args)) == \
                options(want), name
