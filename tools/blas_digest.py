"""Bit-level digests of the package's outputs under each OpenBLAS kernel.

    python3 tools/blas_digest.py [--src DIR] [--json FILE]

For each ``OPENBLAS_CORETYPE`` whose instruction set this CPU has (read from
``/proc/cpuinfo``), and for the build's default kernel, a child process
imports ``jointmeas`` from ``DIR`` (default: the ``src/`` beside this
script) and runs:

- every golden invocation of ``tests/test_golden.py``, through ``cli.main``,
  taking the report that ``cli`` hands to ``emit_report`` before any
  rounding;
- ``run_verification(3000, s)`` for s = 1, 2, 3 and 42;
- seeded ``sweep_phi`` rows, 10 random scenarios at 37 angles per seed;
- the one-scenario views on seeded scenarios.

Each invocation's output is reduced to one sha256 over its leaves, with every
float written as ``float.hex``, so two trees or two kernels agree only if
every float agrees bit for bit.  The table names the kernel each requested
core type actually loaded (OpenBLAS maps a type to the nearest kernel of its
build) and each type it skipped, with the missing CPU flags.  Run it on two
checkouts (for example a ``git archive`` of the parent) and compare.
``OPENBLAS_CORETYPE`` is read per process, so no machine setting changes.
Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# core types and the /proc/cpuinfo flags their kernels need; "" is the
# kernel the build picks for this CPU
CORETYPES = {
    "": (),
    "Haswell": ("avx2", "fma"),
    "SkylakeX": ("avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"),
    "Zen": ("avx2", "fma"),
    "Sandybridge": ("avx",),
    "Nehalem": ("sse4_2", "popcnt"),
    "Prescott": ("pni",),
    "Core2": ("ssse3",),
    "Atom": ("ssse3", "movbe"),
    "Bulldozer": ("avx", "fma4", "xop"),
}

MEASURED = "{measured}"
GOLDEN_INVOCATIONS = {
    "golden_simulate.json": ["simulate", "--gamma", "22.5", "--phi", "180", "--format", "json"],
    "golden_analyze.json": ["analyze", "--dist-file", MEASURED, "--format", "json"],
    "golden_sweep.csv": ["sweep", "--gamma", "22.5", "--format", "csv"],
    "golden_simulate.csv": ["simulate", "--gamma", "22.5", "--phi", "180", "--format", "csv"],
    "golden_analyze.csv": ["analyze", "--dist-file", MEASURED, "--format", "csv"],
    "golden_sweep.json": ["sweep", "--gamma", "22.5", "--format", "json"],
    "golden_sweep_3600.csv.gz": ["sweep", "--gamma", "22.5", "--format", "csv", "--phi",
                                 ",".join(f"{k / 10:g}" for k in range(3600))],
    "golden_verify.json": ["verify", "--trials", "300", "--seed", "7"],
    "golden_verify.json (csv)": ["verify", "--trials", "300", "--seed", "7", "--format", "csv"],
    "golden_verify_10k.json": ["verify", "--trials", "10000", "--seed", "42"],
    **{f"golden_verify_3000.json [{s}]": ["verify", "--trials", "3000", "--seed", str(s)]
       for s in (1, 2, 3, 42)},
}
VERIFY_SEEDS = (1, 2, 3, 42)
SWEEP_SEEDS = (1, 2, 3)
VIEWS_SEED = 2024


def cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


def leaves(obj):
    """The leaves of a report as text, every float as ``float.hex``."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield repr(key)
            yield from leaves(value)
    elif isinstance(obj, (list, tuple)):
        yield f"[{len(obj)}"
        for value in obj:
            yield from leaves(value)
    elif hasattr(obj, "tolist"):  # numpy arrays and scalars
        yield from leaves(obj.tolist())
    elif isinstance(obj, complex):
        yield obj.real.hex()
        yield obj.imag.hex()
    elif isinstance(obj, float):
        yield obj.hex()
    else:
        yield repr(obj)


def digest(obj) -> str:
    return hashlib.sha256("\n".join(leaves(obj)).encode()).hexdigest()


def loaded_corename() -> str:
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                function = getattr(lib, name)
                function.argtypes, function.restype = [], ctypes.c_char_p
                return function().decode()
    return "unknown"


def child() -> dict[str, str]:
    """Every invocation's digest, in this process's kernel."""
    from importlib import resources

    import numpy as np

    import jointmeas as jm
    from jointmeas import cli

    out: dict[str, str] = {"loaded kernel": loaded_corename()}
    reports = []
    emit = cli.emit_report

    def capturing(report, fmt="json"):
        reports.append(report)
        return emit(report, fmt)

    cli.emit_report = capturing
    with resources.as_file(resources.files("jointmeas.data").joinpath(
            "measured_phi180.csv")) as measured, tempfile.TemporaryDirectory() as tmp:
        for name, args in GOLDEN_INVOCATIONS.items():
            argv = [arg.format(measured=measured) for arg in args]
            reports.clear()
            if cli.main(argv + ["--out", os.path.join(tmp, "report")]) != 0:
                raise SystemExit(f"{name}: cli.main failed")
            out[name] = digest(reports)
    cli.emit_report = emit
    for seed in VERIFY_SEEDS:
        out[f"run_verification(3000, {seed})"] = digest(jm.run_verification(3000, seed))
    for seed in SWEEP_SEEDS:
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(10):
            rho, slide = jm.random_state(rng), jm.random_slide(rng)
            theta = jm.random_observable(rng).theta_deg
            rows.append(jm.sweep_phi(rho, slide, np.linspace(0.0, 360.0, 37), theta))
        out[f"sweep_phi rows, seed {seed}"] = digest(rows)
    out[f"one-scenario views, seed {VIEWS_SEED}"] = digest(scenario_views(VIEWS_SEED, 20))
    return out


def scenario_views(seed: int, count: int) -> list:
    """The one-scenario views' outputs on ``count`` seeded random scenarios."""
    import numpy as np

    import jointmeas as jm

    rng = np.random.default_rng(seed)
    views = []
    for _ in range(count):
        rho, slide, w = jm.random_state(rng), jm.random_slide(rng), jm.random_observable(rng)
        est = jm.Estimator.custom(*rng.uniform(-2.0, 2.0, size=2))
        dist = jm.joint_distribution(rho, slide, w)
        views += [dist.table, jm.optimal_estimator(rho, w).array,
                  jm.estimator_spread(dist, est), jm.direct_margenau_hill(rho, w),
                  jm.dilated_chain(rho, slide, w, est),
                  *(jm.simulate_scenario(rho, slide, w, kind) for kind in ("simple", "optimal"))]
    return views


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the jointmeas package (default: ../src)")
    parser.add_argument("--json", type=Path, help="also write the digests to this file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child()))
        return 0
    flags = cpu_flags()
    results, skipped = {}, {}
    for core, needs in CORETYPES.items():
        missing = [flag for flag in needs if flag not in flags]
        if missing:
            skipped[core] = missing
            continue
        env = {**os.environ, "PYTHONPATH": str(args.src.resolve()),
               "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("OPENBLAS_CORETYPE", None)
        if core:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, __file__, "--child"], env=env,
                              capture_output=True, text=True, check=True)
        results[core or "default"] = json.loads(proc.stdout.splitlines()[-1])
    names = list(next(iter(results.values())))
    width = max(map(len, names))
    print(f"src: {args.src.resolve()}")
    print(" " * width, *(f"{core:>12}" for core in results))
    for name in names:
        cells = [results[core][name] for core in results]
        if name == "loaded kernel":
            print(f"{name:<{width}}", *(f"{cell:>12}" for cell in cells))
        else:
            print(f"{name:<{width}}", *(f"{cell[:12]:>12}" for cell in cells))
    for core, missing in skipped.items():
        print(f"skipped {core}: this CPU lacks {', '.join(missing)}")
    if args.json:
        args.json.write_text(json.dumps({"src": str(args.src.resolve()), "digests": results,
                                         "skipped": skipped}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
