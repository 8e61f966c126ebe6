"""Command-line behaviour: flags, exit codes, output formats, determinism."""

import dataclasses
import json
from importlib import resources

import pytest

from jointmeas import DataQualityWarning, RelationViolationError, parse_distribution
from jointmeas.cli import main


def measured_table(name):
    return resources.files("jointmeas.data").joinpath(name).read_text()


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
    # state source must be exactly one of --gamma / --state-file
    assert main(["simulate"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert main(["simulate", "--gamma", "22.5", "--state-file", "x.csv"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["simulate", "--gamma", "22.5", "--phi", "135,180"]) == 2
    assert "single --phi" in capsys.readouterr().err
    assert main(["simulate", "--gamma", "22.5", "--phi", "abc"]) == 2
    assert main(["analyze"]) == 2
    assert main(["verify", "--trials", "0"]) == 2
    assert main(["simulate", "--gamma", "22.5",
                 "--tolerance-profile", "sloppy"]) == 2
    capsys.readouterr()
    assert main(["sweep"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["sweep", "--gamma", "22.5", "--state-file", "x.csv"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["verify", "--trials", "-3"]) == 2
    assert "must be positive" in capsys.readouterr().err
    # verify reads no file, so it takes no tolerance profile
    assert main(["verify", "--tolerance-profile", "strict"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_json_both_estimators(capsys):
    assert main(["simulate", "--gamma", "22.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 2
    kinds = [rep["scenario"]["estimator"] for rep in payload]
    assert kinds == ["simple", "optimal"]
    optimal = payload[1]
    assert optimal["lhs"]["arthurs_kelly"] == pytest.approx(0.273617405700, abs=1e-12)
    assert optimal["satisfied"] == {"arthurs_kelly": False, "hall": True,
                                    "ozawa": True, "new": True}
    assert optimal["scenario"]["gamma_deg"] == 22.5


def test_simulate_single_estimator_csv(capsys):
    assert main(["simulate", "--gamma", "22.5", "--estimator", "optimal",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, row = out.splitlines()[:2]
    assert "lhs.arthurs_kelly" in header
    assert "scenario.estimator" in header
    assert "optimal" in row


def test_simulate_writes_distribution_and_report(tmp_path, capsys):
    dist_file = tmp_path / "table.csv"
    out_file = tmp_path / "report.json"
    assert main(["simulate", "--gamma", "22.5", "--dist-file", str(dist_file),
                 "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    dist = parse_distribution(dist_file.read_text(), provenance="simulated")
    assert dist.prob(1, 1, 1) == pytest.approx(0.206448377035, abs=1e-12)
    payload = json.loads(out_file.read_text())
    assert len(payload) == 2


def test_simulate_output_is_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["simulate", "--gamma", "22.5", "--theta", "90",
                     "--phi", "202.5", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_degenerate_slide_is_data_error(capsys):
    assert main(["simulate", "--gamma", "22.5", "--rh", "0.3",
                 "--rv", "0.3"]) == 3
    assert "data error" in capsys.readouterr().err


def test_simulate_near_degenerate_slide_is_data_error(capsys):
    assert main(["simulate", "--gamma", "22.5", "--rh", "0.3",
                 "--rv", "0.3000001"]) == 3
    assert "below 1e-06" in capsys.readouterr().err


def test_main_reuses_one_parser_without_carrying_state(monkeypatch, capsys):
    from jointmeas import cli

    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)

    assert main(["simulate", "--gamma", "22.5", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("scenario.source,")
    assert main(["simulate", "--gamma", "22.5"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2

    assert main(["sweep", "--gamma", "22.5", "--phi", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["sweep", "--gamma", "22.5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["phi_deg"] for row in rows] == [135.0, 157.5, 180.0, 202.5, 225.0]

    assert main(["simulate", "--gamma", "22.5", "--phi", "abc"]) == 2
    assert main(["simulate"]) == 2
    assert main(["simulate", "--gamma", "22.5"]) == 0
    assert main(["--help"]) == 0
    assert main(["--help"]) == 0
    assert len(built) == 1


def test_simulate_from_state_file(tmp_path, capsys):
    state_file = tmp_path / "state.csv"
    state_file.write_text(measured_table("tomographic_state.csv"))
    assert main(["simulate", "--state-file", str(state_file),
                 "--estimator", "optimal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "gamma_deg" not in payload["scenario"]
    assert payload["inputs"]["c"] == pytest.approx(1.42081992981, abs=1e-12)


def test_analyze_bundled_measured_table(tmp_path, capsys):
    dist_file = tmp_path / "phi180.csv"
    dist_file.write_text(measured_table("measured_phi180.csv"))
    assert main(["analyze", "--dist-file", str(dist_file),
                 "--estimator", "optimal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inputs"]["eps_a"] == pytest.approx(0.745316822414, abs=1e-12)
    assert payload["satisfied"]["arthurs_kelly"] is False
    assert payload["satisfied"]["hall"] is True


def test_analyze_four_column_table(tmp_path, capsys):
    """The documented ``m,y,w,p`` header works like the 5-column one."""
    text = measured_table("measured_phi180.csv")
    five, four = tmp_path / "five.csv", tmp_path / "four.csv"
    five.write_text(text)
    four.write_text("\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                              for line in text.splitlines()) + "\n")
    assert "m,y,w,p\n" in four.read_text()
    reports = []
    for path in (five, four):
        assert main(["analyze", "--dist-file", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_tolerance_profile_sets_state_floor(tmp_path, capsys):
    """An eigenvalue of -1e-5 is within the default tomographic floor (1e-3)
    but not within the strict one (1e-10)."""
    diag = [0.6, 0.40001, 0.0, -0.00001]
    rows = [f"{i},{j},{diag[i] if i == j else 0.0},0.0" for i in range(4) for j in range(4)]
    state_file = tmp_path / "state.csv"
    state_file.write_text("\n".join(["row,col,re,im", *rows]) + "\n")
    argv = ["simulate", "--state-file", str(state_file), "--phi", "0"]
    with pytest.warns(DataQualityWarning, match="slightly negative"):
        assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--tolerance-profile", "strict"]) == 3
    assert "not a state" in capsys.readouterr().err


def test_analyze_rejects_inconsistent_table(tmp_path, capsys):
    dist_file = tmp_path / "phi135.csv"
    dist_file.write_text(measured_table("measured_phi135.csv"))
    assert main(["analyze", "--dist-file", str(dist_file)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "1.4381" in err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "--dist-file", "/nonexistent/t.csv"]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["simulate", "analyze"])
def test_empty_state_file_is_data_error(tmp_path, capsys, mode):
    """An empty --state-file names a file that cannot be read, in both modes;
    analyze does not fall back to the bundled state."""
    dist_file = tmp_path / "phi180.csv"
    dist_file.write_text(measured_table("measured_phi180.csv"))
    args = {"simulate": ["simulate"], "analyze": ["analyze", "--dist-file", str(dist_file)]}
    assert main(args[mode] + ["--state-file", ""]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "data error" in captured.err and "''" in captured.err



@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_state_file_is_data_error(tmp_path, capsys, value):
    """A state file with a non-finite entry exits 3 with the entry's line."""
    lines = measured_table("tomographic_state.csv").splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + f",{value}"
    state_file = tmp_path / "state.csv"
    state_file.write_text("\n".join(lines) + "\n")
    dist_file = tmp_path / "phi180.csv"
    dist_file.write_text(measured_table("measured_phi180.csv"))
    assert main(["analyze", "--dist-file", str(dist_file),
                 "--state-file", str(state_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "data error" in captured.err and "line 4:" in captured.err
    assert "not finite" in captured.err

@pytest.mark.parametrize("argv, angle", [
    (["simulate", "--gamma", "22.5", "--phi", "nan"], "phi"),
    (["simulate", "--gamma", "22.5", "--theta", "nan"], "theta"),
    (["sweep", "--gamma", "22.5", "--phi", "0,inf"], "phi"),
])
def test_non_finite_angle_is_data_error(capsys, argv, angle):
    """A non-finite analyser angle exits 3 naming the angle, before numpy
    takes its sine (which warns on inf)."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"data error: analyser angle {angle} must be finite" in captured.err


def test_analyze_non_finite_metadata_angle_is_data_error(tmp_path, capsys):
    dist_file = tmp_path / "phi_inf.csv"
    dist_file.write_text(measured_table("measured_phi180.csv").replace(
        "# phi_deg=180", "# phi_deg=inf"))
    assert main(["analyze", "--dist-file", str(dist_file)]) == 3
    assert "data error: analyser angle phi must be finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["r_h", "r_v", "theta_deg", "phi_deg"])
def test_analyze_non_numeric_metadata_names_the_key(tmp_path, capsys, key):
    text = measured_table("measured_phi180.csv")
    line = next(line for line in text.splitlines() if line.startswith(f"# {key}="))
    dist_file = tmp_path / "bad_meta.csv"
    dist_file.write_text(text.replace(line, f"# {key}=abc"))
    assert main(["analyze", "--dist-file", str(dist_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"data error: outcome table metadata '{key}' must be a number, got 'abc'"
            in captured.err)


def test_tolerance_profile_changes_mass_gate(tmp_path, capsys):
    text = measured_table("measured_phi180.csv")
    # scale one entry so the total lands at 1.0304: beyond the default 1%
    # budget, inside the relaxed 5% one
    bumped = text.replace("1,1,1,0.282,0.002", "1,1,1,0.312,0.002")
    dist_file = tmp_path / "bumped.csv"
    dist_file.write_text(bumped)
    assert main(["analyze", "--dist-file", str(dist_file)]) == 3
    assert "outside 1 +- 0.01" in capsys.readouterr().err
    assert main(["analyze", "--dist-file", str(dist_file),
                 "--tolerance-profile", "relaxed"]) == 0
    capsys.readouterr()


def test_sweep_csv_default_angles(capsys):
    assert main(["sweep", "--gamma", "22.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("phi_deg,theta_deg,c,bound,delta_x,delta_y")
    assert "lhs_new_optimal" in header
    assert len(rows) == 5
    assert rows[0].startswith("135.0,") and rows[4].startswith("225.0,")


def test_sweep_custom_angles_json(capsys):
    assert main(["sweep", "--gamma", "30", "--phi", "170,190",
                 "--format", "json", "--estimator", "simple"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["phi_deg"] for row in payload] == [170.0, 190.0]
    assert "eps_x_simple" in payload[0]
    assert "eps_x_optimal" not in payload[0]


def test_verify_small_run(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    assert main(["verify", "--trials", "25", "--seed", "7",
                 "--out", str(out_file)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert payload["passed"] is True
    assert payload["trials"] == 25
    assert "elapsed" not in out_file.read_text()


def test_verify_output_is_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["verify", "--trials", "15", "--seed", "11",
                     "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_failure_exit_codes(monkeypatch, capsys):
    from jointmeas import cli, workflow

    good = workflow.run_verification(trials=8, seed=2)
    failing = dataclasses.replace(good, ak_violations=0)
    monkeypatch.setattr(cli, "run_verification", lambda **kw: failing)
    assert main(["verify", "--trials", "8"]) == 4
    capsys.readouterr()

    def broken(**kwargs):
        raise RelationViolationError("lhs below bound")

    monkeypatch.setattr(cli, "run_verification", broken)
    assert main(["verify", "--trials", "8"]) == 4
    assert "verification failure" in capsys.readouterr().err
