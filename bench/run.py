"""Benchmark of the jointmeas package, run from the root of a source checkout.

    python3 bench/run.py --workload {verify,sweep_dense,cli_tables} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` in this process, on one thread.  Each
call into it is timed alone; its output is checked afterwards, untimed,
against the independent numpy reference in ``reference.py``.  Times are
scaled to reference machine speed by calibration chunks run between windows
of calls (``calibrate.py``).  With ``--trace 0`` the run reports the
end-to-end metrics; ``setup_s`` and ``peak_rss_mb`` come from fresh child
processes.  With ``--trace 1`` half the time runs untraced and half with span
tracing (``spans.py``), and the run reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import SRC, WORKLOADS, import_package  # noqa: E402

OUT = Path.cwd() / ".bench_out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60

UNITS = {"items_per_s": "1/s", "call_p50_ms": "ms", "call_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


def run_setup_children(name: str, seed: int, workdir: Path) -> list[dict]:
    """``SETUP_REPEATS`` fresh ``setup_child.py`` processes, one after another."""
    results = []
    for _ in range(SETUP_REPEATS):
        childdir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "setup_child.py"),
             name, str(seed), childdir],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


class Tally:
    """Calls made and failed; for each timed call its duration, correct items
    and calibration window."""

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.durations: list[float] = []
        self.items_ok: list[int] = []
        self.windows: list[int] = []
        self.chunks: list[float] = []  # calibration chunk times, one per window edge
        self.reasons: list[str] = []

    def record(self, reason: str | None, items: int, elapsed: float | None = None) -> None:
        self.calls += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        if elapsed is not None:
            self.durations.append(elapsed)
            self.items_ok.append(items if reason is None else 0)
            self.windows.append(len(self.chunks) - 1)

    def scales(self) -> np.ndarray:
        """Speed scale of each timed call: the median of the calibration
        chunks on the two edges of its window and the next two edges out on
        either side."""
        chunks = self.chunks
        local = [statistics.median(chunks[max(j - 2, 0):j + 4])
                 for j in range(len(chunks) - 1)]
        return calibrate.scale(np.array(local)[np.array(self.windows, dtype=int)])

    def scaled(self) -> np.ndarray:
        return np.array(self.durations) * self.scales()

    def items_per_s(self, window: int, scaled: bool = True) -> float:
        """Median throughput over consecutive windows of ``window`` timed calls
        (the whole run when it is shorter than one window)."""
        times = self.scaled() if scaled else np.array(self.durations)
        n = len(times)
        starts = range(0, n - window + 1, window) if n >= window else [0]
        return statistics.median(
            sum(self.items_ok[j:j + window]) / times[j:j + window].sum() for j in starts)

    def seconds_per_call(self) -> float:
        return float(np.median(self.scaled()))


def run_calls(wl, first: int, seconds: float, tally: Tally, timed: bool = True,
              tracer: spans.Tracer | None = None) -> int:
    """Make calls from index ``first`` until ``seconds`` of wall time pass
    (at least one call); return the next call index.  Timed calls run in
    windows of ``wl.window`` calls with a calibration chunk on each edge."""
    deadline = time.perf_counter() + seconds
    i = first
    while i == first or time.perf_counter() < deadline:
        if timed and (i - first) % wl.window == 0:
            tally.chunks.append(calibrate.chunk())
        args = wl.inputs(i)
        if tracer is not None:
            tracer.start_call(i)
        t0 = time.perf_counter()
        try:
            out = wl.call(args)
        except Exception as exc:  # a raising call is a failed call
            elapsed = time.perf_counter() - t0
            reason = f"call {i} raised {exc!r}"
        else:
            elapsed = time.perf_counter() - t0
            try:
                reason = wl.check(args, out)
            except Exception as exc:  # malformed output
                reason = f"call {i}: checking the output raised {exc!r}"
        tally.record(reason, wl.items_per_call, elapsed if timed else None)
        i += 1
    if timed:
        tally.chunks.append(calibrate.chunk())
    return i


def end_to_end(tally: Tally, window: int, setup: list[dict]) -> dict[str, float]:
    ms = tally.scaled() * 1e3
    return {
        "items_per_s": tally.items_per_s(window),
        "call_p50_ms": float(np.percentile(ms, 50)),
        "call_p90_ms": float(np.percentile(ms, 90)),
        "setup_s": statistics.median(r["setup_s"] for r in setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in setup),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "jointmeas" / "__init__.py").is_file():
        print(f"error: no jointmeas sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: Path) -> int:
    setup = [] if args.trace else run_setup_children(args.workload, args.seed, workdir)
    wl = workload(args.seed, workdir)
    wl.bind(import_package(workload.imports))
    tally = Tally()
    traced = Tally()
    tracer = spans.Tracer()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        i = 0
        while i < workload.warm_calls:  # untimed warm-up
            i = run_calls(wl, i, 0.0, tally, timed=False)
        if args.trace:
            i = run_calls(wl, i, args.seconds / 2, tally)
            tracer.install()
            try:
                run_calls(wl, i, args.seconds / 2, traced, tracer=tracer)
            finally:
                tracer.uninstall()
        else:
            run_calls(wl, i, args.seconds, tally)

    for r in setup:
        tally.record(r["reason"], workload.items_per_call)
    for reason in (tally.reasons + traced.reasons)[:5]:
        print(f"FAILED: {reason}", file=sys.stderr)
    if args.trace:
        tracer.save(OUT / f"spans-{args.workload}.npz")
        metrics = tracer.layer_metrics(
            len(traced.durations) * workload.items_per_call, sum(traced.durations),
            time_scale=float(np.median(traced.scales())))
        metrics["trace.overhead_frac"] = (
            traced.seconds_per_call() / tally.seconds_per_call() - 1.0)
        units = {name: spans.unit(name) for name in metrics}
        samples = f"{len(tally.durations)} untraced and {len(traced.durations)} traced calls"
    else:
        metrics = end_to_end(tally, workload.window, setup)
        units = UNITS
        samples = (
            f"{len(tally.durations)} timed calls, {len(setup)} set-up children; "
            f"median speed scale {np.median(tally.scales()):.3f}; uncalibrated: "
            f"items_per_s {tally.items_per_s(workload.window, scaled=False):.6g} 1/s, "
            f"call_p50_ms {np.median(tally.durations) * 1e3:.6g} ms, "
            f"setup_s {statistics.median(r['raw_setup_s'] for r in setup):.6g} s")

    print(f"workload {args.workload}, seed {args.seed}: {samples}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    attempted = tally.calls + traced.calls
    failed = tally.failed + traced.failed
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
