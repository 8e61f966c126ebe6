"""The benchmark's reference checks accept the package's outputs and catch
corrupted ones.  Run from the checkout root:

    python3 -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import jointmeas  # noqa: E402
import jointmeas.cli  # noqa: E402,F401
import pytest  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PHIS = tuple(22.5 * k for k in range(16))


@pytest.fixture(scope="module")
def sweep():
    sc = inputs.scenario(7, 0)
    rows = jointmeas.sweep_phi(jointmeas.DensityMatrix(sc.rho),
                               jointmeas.slide_model(sc.r_h, sc.r_v), PHIS,
                               theta_deg=sc.theta_deg)
    return rows, reference.sweep_rows(sc.rho, sc.r_h, sc.r_v, sc.theta_deg, PHIS)


def test_sweep_rows_match_reference(sweep):
    rows, expected = sweep
    assert reference.check_sweep(rows, expected) is None


@pytest.mark.parametrize("column", ["eps_x_optimal", "lhs_new_simple", "delta_y_est"])
def test_corrupted_sweep_value_is_caught(sweep, column):
    rows, expected = sweep
    bad = [dict(row) for row in rows]
    bad[3][column] *= 1.0 + 1e-6
    assert column in reference.check_sweep(bad, expected)


def test_missing_sweep_row_is_caught(sweep):
    rows, expected = sweep
    assert reference.check_sweep(rows[:-1], expected) is not None


def test_verification_checks():
    flags = reference.reference_satisfied()
    got = jointmeas.run_verification(trials=20, seed=5).to_dict()
    assert reference.check_verification(got, 5, 20, flags) is None
    assert reference.check_verification(got, 6, 20, flags) is not None
    assert reference.check_verification(got, 5, 21, flags) is not None
    assert reference.check_verification({**got, "passed": False}, 5, 20, flags) is not None
    flipped = {**flags, "arthurs_kelly": not flags["arthurs_kelly"]}
    assert reference.check_verification(got, 5, 20, flipped) is not None


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    wl = workloads.CliTables(11, tmp_path_factory.mktemp("cli"))
    wl.bind(jointmeas)
    return wl


def test_cli_calls_match_reference(cli):
    for i in range(2 * cli.pool):
        args = cli.inputs(i)
        assert cli.check(args, cli.call(args)) is None, i


def test_out_of_tolerance_tables_are_rejected(cli):
    bad = [k for k in range(cli.pool) if cli.cases[k]["read"][1] is None]
    assert len(bad) >= cli.pool // inputs.BAD_EVERY
    args = cli.inputs(2 * bad[0] + 1)
    assert cli.call(args) == 3
    assert cli.check(args, 3) is None
    assert "exit 0" in cli.check(args, 0)


@pytest.mark.parametrize("kind", [0, 1])
def test_corrupted_report_is_caught(cli, kind):
    args = cli.inputs(kind)
    assert cli.call(args) == 0
    report = json.loads(cli.report.read_text())
    report[1]["lhs"]["hall"] += 1e-6
    cli.report.write_text(json.dumps(report))
    assert "lhs.hall" in cli.check(args, 0)
    assert "exit 3" in cli.check(args, 3)


def test_corrupted_simulated_table_is_caught(cli):
    args = cli.inputs(0)
    assert cli.call(args) == 0
    lines = cli.dist.read_text().splitlines()
    row = next(j for j, line in enumerate(lines) if line.startswith("1,1,1,"))
    parts = lines[row].split(",")
    parts[3] = repr(float(parts[3]) * 1.001)
    lines[row] = ",".join(parts)
    cli.dist.write_text("\n".join(lines) + "\n")
    assert "p(1,1,1)" in cli.check(args, 0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    assert all(m["unit"] == spans.unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
