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

from .dataio import (
    bundled_state,
    emit_report,
    load_density_matrix,
    load_distribution,
    save_distribution,
)
from .qcore import PROFILES, BlochObservable, DensityMatrix, NumericalCorruptionError
from .relations import RelationViolationError
from .scenario import epr_state, joint_distribution, slide_model
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


def _phi_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated angles in degrees, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointmeas",
        description="Joint-measurement inaccuracy relations for two "
                    "polarisation qubits: simulate, analyze, sweep, verify.")
    sub = parser.add_subparsers(dest="mode", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output file (default: stdout)")
    # the modes that read files; verify reads none
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--tolerance-profile", choices=sorted(PROFILES),
                        default="default", dest="tolerance_profile",
                        help="validation tolerance preset")

    def add_format(p: argparse.ArgumentParser, default: str) -> None:
        # per-subparser: a shared parent action's default would leak between
        # subcommands when overridden
        p.add_argument("--format", choices=("json", "csv"), default=default,
                       help=f"report format (default: {default})")

    def add_estimator(p: argparse.ArgumentParser) -> None:
        p.add_argument("--estimator", choices=("simple", "optimal", "both"),
                       default="both", help="X estimator kind(s) to evaluate")

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--gamma", type=float, dest="gamma_deg", metavar="DEG",
                          help="source angle in degrees (exclusive with --state-file)")
    scenario.add_argument("--state-file", dest="state_file",
                          help="density-matrix CSV (exclusive with --gamma)")
    scenario.add_argument("--theta", type=float, dest="theta_deg", default=90.0,
                          metavar="DEG", help="W polar angle (default: %(default)g)")
    scenario.add_argument("--rh", type=float, dest="r_h", default=REFERENCE_R_H,
                          help=f"slide reflectivity for H (default: {REFERENCE_R_H})")
    scenario.add_argument("--rv", type=float, dest="r_v", default=REFERENCE_R_V,
                          help=f"slide reflectivity for V (default: {REFERENCE_R_V})")
    add_estimator(scenario)

    p_sim = sub.add_parser("simulate", parents=[scenario, common],
                           help="simulate one scenario and report the relations")
    # argparse passes a string default through type=, as if typed in
    p_sim.add_argument("--phi", type=_phi_list, dest="phi_degs", default="180",
                       metavar="DEG", help="W azimuthal angle (default: %(default)s)")
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
    add_estimator(p_ana)
    add_format(p_ana, "json")

    p_sweep = sub.add_parser("sweep", parents=[scenario, common],
                             help="scan the analyser angle")
    p_sweep.add_argument("--phi", type=_phi_list, dest="phi_degs",
                         default="135,157.5,180,202.5,225", metavar="LIST",
                         help="comma-separated angles (default: %(default)s)")
    add_format(p_sweep, "csv")

    p_ver = sub.add_parser("verify", parents=[output],
                           help="run the randomized verification suite")
    p_ver.add_argument("--trials", type=int, default=10_000,
                       help="number of random scenarios (default: %(default)s)")
    p_ver.add_argument("--seed", type=int, default=42,
                       help="random seed (default: %(default)s)")
    add_format(p_ver, "json")

    return parser


def _usage_problem(args: argparse.Namespace) -> str | None:
    """The flag rules argparse cannot express, as the first broken one's
    message, or None."""
    if (args.mode in ("simulate", "sweep")
            and (args.gamma_deg is None) == (args.state_file is None)):
        return f"{args.mode} needs either --gamma or --state-file (not both)"
    if args.mode == "simulate" and len(args.phi_degs) != 1:
        return "simulate takes a single --phi angle"
    if args.mode == "verify" and args.trials <= 0:
        return "--trials must be positive"
    if args.mode == "verify" and args.seed < 0:
        return "--seed must not be negative"
    return None


def _kinds(args: argparse.Namespace) -> tuple[str, ...]:
    return ESTIMATOR_KINDS if args.estimator == "both" else (args.estimator,)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scenario_state(args: argparse.Namespace) -> DensityMatrix:
    if args.state_file is not None:
        return load_density_matrix(args.state_file,
                                   tolerances=PROFILES[args.tolerance_profile])
    return epr_state(math.radians(args.gamma_deg))


def _run_simulate(args: argparse.Namespace) -> int:
    rho = _scenario_state(args)
    slide = slide_model(args.r_h, args.r_v)
    w = BlochObservable.from_degrees(args.theta_deg, args.phi_degs[0])
    info = {} if args.gamma_deg is None else {"gamma_deg": args.gamma_deg}
    dist = joint_distribution(rho, slide, w)
    reports = _scenario_results(rho, _kinds(args), dist, slide=slide, w=w, scenario_info=info)
    if args.dist_file:
        save_distribution(dist, args.dist_file)
    _emit(args, emit_report(reports, args.format))
    return EXIT_OK


def _run_analyze(args: argparse.Namespace) -> int:
    dist = load_distribution(args.dist_file, provenance="measured",
                             tolerances=PROFILES[args.tolerance_profile])
    rho = (load_density_matrix(args.state_file, tolerances=PROFILES[args.tolerance_profile])
           if args.state_file is not None else bundled_state())
    _emit(args, emit_report(_scenario_results(rho, _kinds(args), dist), args.format))
    return EXIT_OK


def _run_sweep(args: argparse.Namespace) -> int:
    rows = sweep_phi(_scenario_state(args), slide_model(args.r_h, args.r_v), args.phi_degs,
                     theta_deg=args.theta_deg, estimators=_kinds(args))
    _emit(args, emit_report(rows, args.format))
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    result = run_verification(trials=args.trials, seed=args.seed)
    for line in result.summary_lines():
        print(line)
    if args.out:
        _emit(args, emit_report(result.to_dict(), args.format))
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

    problem = _usage_problem(args)
    if problem:
        print(f"usage error: {problem}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _RUNNERS[args.mode](args)
    except RelationViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, NumericalCorruptionError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
