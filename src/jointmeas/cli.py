"""Command-line driver.

Four modes: ``simulate`` builds a scenario and reports the relations;
``analyze`` evaluates a measured outcome table against a tomographic state;
``sweep`` scans the analyser angle and emits plot-ready columns; ``verify``
runs the randomized verification suite.

Angles are taken in degrees here and converted once at this boundary.
Exit codes: 0 success, 2 usage error, 3 data/validation error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .dataio import (
    DataValidationError,
    bundled_state,
    emit_report,
    load_density_matrix,
    load_distribution,
    save_distribution,
)
from .estimate import UndefinedEstimateError
from .qcore import PROFILES, BlochObservable, DensityMatrix, NumericalCorruptionError
from .relations import RelationViolationError
from .scenario import DegenerateMeasurementError, slide_model
from .workflow import (
    ESTIMATOR_KINDS,
    REFERENCE_R_H,
    REFERENCE_R_V,
    _scenario_results,
    run_verification,
    sweep_phi,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

DEFAULT_SWEEP_PHI = "135,157.5,180,202.5,225"


class UsageError(Exception):
    """Configuration is structurally invalid (wrong flag combination)."""


def _phi_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated angles in degrees, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("at least one angle is required")
    return values


@dataclass
class RunConfig:
    """Validated flag set for one invocation."""

    mode: str
    gamma_deg: float | None = None
    theta_deg: float = 90.0
    phi_degs: tuple[float, ...] = (180.0,)
    r_h: float = REFERENCE_R_H
    r_v: float = REFERENCE_R_V
    estimator: str = "both"
    state_file: str | None = None
    dist_file: str | None = None
    out: str | None = None
    format: str = "json"
    trials: int = 10_000
    seed: int = 42
    tolerance_profile: str = "default"

    def __post_init__(self):
        if self.mode in ("simulate", "sweep"):
            if (self.gamma_deg is None) == (self.state_file is None):
                raise UsageError(
                    f"{self.mode} needs either --gamma or --state-file (not both)")
        if self.mode == "simulate" and len(self.phi_degs) != 1:
            raise UsageError("simulate takes a single --phi angle")
        if self.mode == "analyze" and self.dist_file is None:
            raise UsageError("analyze needs --dist-file")
        if self.trials <= 0:
            raise UsageError("--trials must be positive")
        if self.tolerance_profile not in PROFILES:
            raise UsageError(f"unknown tolerance profile {self.tolerance_profile!r}")

    @property
    def estimator_kinds(self) -> tuple[str, ...]:
        return ESTIMATOR_KINDS if self.estimator == "both" else (self.estimator,)

    @property
    def tolerances(self):
        return PROFILES[self.tolerance_profile]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointmeas",
        description="Joint-measurement inaccuracy relations for two "
                    "polarisation qubits: simulate, analyze, sweep, verify.")
    sub = parser.add_subparsers(dest="mode", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--tolerance-profile", choices=sorted(PROFILES),
                        default="default", dest="tolerance_profile",
                        help="validation tolerance preset")

    def add_format(p: argparse.ArgumentParser, default: str) -> None:
        # per-subparser: a shared parent action's default would leak between
        # subcommands when overridden
        p.add_argument("--format", choices=("json", "csv"), default=default,
                       help=f"report format (default: {default})")

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--gamma", type=float, dest="gamma_deg", metavar="DEG",
                          help="source angle in degrees (exclusive with --state-file)")
    scenario.add_argument("--state-file", dest="state_file",
                          help="density-matrix CSV (exclusive with --gamma)")
    scenario.add_argument("--theta", type=float, dest="theta_deg", default=90.0,
                          metavar="DEG", help="W polar angle (default: 90)")
    scenario.add_argument("--rh", type=float, dest="r_h", default=REFERENCE_R_H,
                          help=f"slide reflectivity for H (default: {REFERENCE_R_H})")
    scenario.add_argument("--rv", type=float, dest="r_v", default=REFERENCE_R_V,
                          help=f"slide reflectivity for V (default: {REFERENCE_R_V})")
    scenario.add_argument("--estimator", choices=("simple", "optimal", "both"),
                          default="both", help="X estimator kind(s) to evaluate")

    p_sim = sub.add_parser("simulate", parents=[scenario, common],
                           help="simulate one scenario and report the relations")
    p_sim.add_argument("--phi", type=_phi_list, dest="phi_degs", default=(180.0,),
                       metavar="DEG", help="W azimuthal angle (default: 180)")
    p_sim.add_argument("--dist-file", dest="dist_file", metavar="PATH",
                       help="also write the simulated outcome table here")
    add_format(p_sim, "json")

    p_ana = sub.add_parser("analyze", parents=[common],
                           help="evaluate a measured outcome table")
    p_ana.add_argument("--dist-file", dest="dist_file", required=True,
                       help="measured outcome table (CSV)")
    p_ana.add_argument("--state-file", dest="state_file",
                       help="tomographic density matrix "
                            "(default: bundled fixture)")
    p_ana.add_argument("--estimator", choices=("simple", "optimal", "both"),
                       default="both", help="X estimator kind(s) to evaluate")
    add_format(p_ana, "json")

    p_sweep = sub.add_parser("sweep", parents=[scenario, common],
                             help="scan the analyser angle")
    p_sweep.add_argument("--phi", type=_phi_list, dest="phi_degs",
                         default=_phi_list(DEFAULT_SWEEP_PHI), metavar="LIST",
                         help=f"comma-separated angles (default: {DEFAULT_SWEEP_PHI})")
    add_format(p_sweep, "csv")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the randomized verification suite")
    p_ver.add_argument("--trials", type=int, default=10_000,
                       help="number of random scenarios (default: 10000)")
    p_ver.add_argument("--seed", type=int, default=42,
                       help="random seed (default: 42)")
    add_format(p_ver, "json")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    return RunConfig(**fields)


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_scenario_state(config: RunConfig) -> DensityMatrix:
    if config.state_file is not None:
        return load_density_matrix(config.state_file, tolerances=config.tolerances)
    from .scenario import epr_state

    return epr_state(math.radians(config.gamma_deg))


def _run_simulate(config: RunConfig) -> int:
    rho = _load_scenario_state(config)
    slide = slide_model(config.r_h, config.r_v)
    w = BlochObservable.from_degrees(config.theta_deg, config.phi_degs[0])
    info = {} if config.gamma_deg is None else {"gamma_deg": config.gamma_deg}
    results = _scenario_results(rho, config.estimator_kinds, slide=slide, w=w,
                                scenario_info=info)
    if config.dist_file:
        save_distribution(results[0].distribution, config.dist_file)
    reports = [r.report for r in results]
    _emit(config, emit_report(reports[0] if len(reports) == 1 else reports,
                              config.format))
    return EXIT_OK


def _run_analyze(config: RunConfig) -> int:
    dist = load_distribution(config.dist_file, provenance="measured",
                             tolerances=config.tolerances)
    rho = (load_density_matrix(config.state_file, tolerances=config.tolerances)
           if config.state_file else bundled_state())
    reports = [r.report for r in _scenario_results(rho, config.estimator_kinds, dist=dist)]
    _emit(config, emit_report(reports[0] if len(reports) == 1 else reports,
                              config.format))
    return EXIT_OK


def _run_sweep(config: RunConfig) -> int:
    rho = _load_scenario_state(config)
    slide = slide_model(config.r_h, config.r_v)
    rows = sweep_phi(rho, slide, config.phi_degs, theta_deg=config.theta_deg,
                     estimators=config.estimator_kinds)
    _emit(config, emit_report(rows, config.format))
    return EXIT_OK


def _run_verify(config: RunConfig) -> int:
    result = run_verification(trials=config.trials, seed=config.seed)
    for line in result.summary_lines():
        print(line)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(emit_report(result.to_dict(), config.format))
    return EXIT_OK if result.passed else EXIT_VERIFY


_RUNNERS = {"simulate": _run_simulate, "analyze": _run_analyze,
            "sweep": _run_sweep, "verify": _run_verify}


# The parser of this process, built by the first main() call: argparse keeps
# no state between parse_args calls, so repeated in-process calls share it.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE

    try:
        config = _config_from_args(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _RUNNERS[config.mode](config)
    except RelationViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (DataValidationError, DegenerateMeasurementError, UndefinedEstimateError,
            NumericalCorruptionError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
