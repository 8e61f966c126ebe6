"""The benchmark workloads: inputs, the timed call, and the correctness check.

Each workload splits one benchmark call into ``inputs(i)`` (untimed, seeded
by the workload seed and the call index), ``call(args)`` (the timed call into
the package's public API) and ``check(args, out)`` (untimed; None when the
output matches the independent reference, else the reason it does not).
Each call looks its entry point up on the package when it runs, so a traced
run calls the wrappers that ``spans.Tracer`` installs.

Like ``inputs``, this module imports only what ``numpy`` already loads.
"""

import importlib
import os
import sys
from pathlib import Path

import numpy as np

import inputs
from inputs import Scenario
import reference

SRC = Path.cwd() / "src"


def import_package(names: tuple[str, ...]):
    """Import ``jointmeas`` (and submodules) from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    modules = [importlib.import_module(name) for name in names]
    where = Path(modules[0].__file__).resolve().parent
    if where != (SRC / "jointmeas").resolve():
        raise RuntimeError(f"imported jointmeas from {where}, not from {SRC}")
    return modules[0]


class Verify:
    """Repeated ``run_verification`` batches; an item is one trial."""

    imports = ("jointmeas",)
    trials = 100
    items_per_call = trials
    window = 1  # calls per throughput and calibration window
    warm_calls = 1  # untimed calls before timing starts

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.expected_flags = reference.reference_satisfied()

    def bind(self, jm) -> None:
        self.jm = jm

    def inputs(self, i: int) -> int:
        return self.seed + i

    def call(self, seed: int):
        return self.jm.run_verification(trials=self.trials, seed=seed)

    def check(self, seed: int, out) -> str | None:
        return reference.check_verification(out.to_dict(), seed, self.trials,
                                            self.expected_flags)


class SweepDense:
    """``sweep_phi`` over a 720-angle grid, both estimators; an item is one angle."""

    imports = ("jointmeas",)
    phis = tuple(0.5 * k for k in range(720))
    items_per_call = len(phis)
    window = 1
    warm_calls = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def bind(self, jm) -> None:
        self.jm = jm

    def inputs(self, i: int) -> Scenario:
        return inputs.scenario(self.seed, i)

    def call(self, sc: Scenario):
        jm = self.jm
        return jm.sweep_phi(jm.DensityMatrix(sc.rho), jm.slide_model(sc.r_h, sc.r_v),
                            self.phis, theta_deg=sc.theta_deg)

    def check(self, sc: Scenario, rows) -> str | None:
        return reference.check_sweep(
            rows, reference.sweep_rows(sc.rho, sc.r_h, sc.r_v, sc.theta_deg, self.phis))


def _read_table(path: Path) -> dict:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split(",")
        if line.startswith("#") or parts[0] == "m":
            continue
        entries[tuple(int(v) for v in parts[:3])] = float(parts[3])
    return entries


class CliTables:
    """In-process ``cli.main`` calls alternating ``simulate`` writes and
    ``analyze`` reads of noisy measured tables; an item is one call."""

    imports = ("jointmeas", "jointmeas.cli")
    items_per_call = 1
    pool = 6 * inputs.BAD_EVERY  # scenarios, cycled
    window = 2 * pool  # one write and one read of every scenario
    warm_calls = 2

    def __init__(self, seed: int, workdir: Path):
        self.report = workdir / "report.json"
        self.dist = workdir / "simulated.csv"
        self.cases = []
        for k in range(self.pool):
            sc = inputs.measured_scenario(seed, k)
            state = workdir / f"state{k}.csv"
            state.write_text(inputs.state_csv(sc.rho), encoding="utf-8")
            table_text, table = inputs.measured_table(
                sc, np.random.default_rng([seed, k, 1]),
                out_of_tolerance=k % inputs.BAD_EVERY == inputs.BAD_EVERY - 1)
            table_path = workdir / f"measured{k}.csv"
            table_path.write_text(table_text, encoding="utf-8")
            angles = (sc.r_h, sc.r_v, sc.theta_deg, sc.phi_deg)
            write_argv = ["simulate", "--state-file", str(state),
                          "--theta", repr(sc.theta_deg), "--phi", repr(sc.phi_deg),
                          "--rh", repr(sc.r_h), "--rv", repr(sc.r_v),
                          "--dist-file", str(self.dist), "--out", str(self.report)]
            read_argv = ["analyze", "--dist-file", str(table_path),
                         "--state-file", str(state), "--out", str(self.report)]
            self.cases.append({
                "write": (write_argv, reference.scenario_reports(sc.rho, *angles)),
                "read": (read_argv, reference.scenario_reports(sc.rho, *angles, table)),
                "table": reference.joint_table(
                    reference.correlations(sc.rho), sc.r_h, sc.r_v,
                    reference.directions(sc.theta_deg, sc.phi_deg))[0],
            })

    def bind(self, jm) -> None:
        self.jm = jm

    def inputs(self, i: int) -> tuple[int, str]:
        for path in (self.report, self.dist):
            if path.exists():
                os.remove(path)
        return (i // 2) % self.pool, ("write", "read")[i % 2]

    def call(self, args: tuple[int, str]) -> int:
        k, kind = args
        return self.jm.cli.main(self.cases[k][kind][0])

    def check(self, args: tuple[int, str], code: int) -> str | None:
        import json  # here, so that the set-up child loads it only after timing

        k, kind = args
        expected = self.cases[k][kind][1]
        if expected is None:
            if code != 3:
                return f"{kind} {k}: exit {code}, expected the data-error exit 3"
            return f"{kind} {k}: rejected input left a report" if self.report.exists() else None
        if code != 0:
            return f"{kind} {k}: exit {code}, expected 0"
        if not self.report.exists():
            return f"{kind} {k}: no report written"
        reason = reference.check_reports(
            json.loads(self.report.read_text(encoding="utf-8")), expected)
        if reason is None and kind == "write":
            reason = reference.check_table(_read_table(self.dist), self.cases[k]["table"])
        return None if reason is None else f"{kind} {k}: {reason}"


WORKLOADS = {"verify": Verify, "sweep_dense": SweepDense, "cli_tables": CliTables}
