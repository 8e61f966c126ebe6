"""The traced run puts a span on each workload's entry point, so every layer
gets its self time.  Run from the checkout root:

    python3 -m pytest -q bench/test_spans.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import jointmeas  # noqa: E402
import jointmeas.cli  # noqa: E402,F401
import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


class ShortVerify(workloads.Verify):
    trials = 4
    items_per_call = trials


@pytest.mark.parametrize("workload, entry", [
    (ShortVerify, "workflow.run_verification"),
    (workloads.SweepDense, "workflow.sweep_phi"),
    (workloads.CliTables, "cli.main"),
])
def test_traced_calls_give_every_layer_its_self_time(tmp_path, workload, entry):
    wl = workload(3, tmp_path)
    wl.bind(jointmeas)
    tracer = spans.Tracer()
    calls, seconds = 2, 0.0
    tracer.install()
    try:
        for i in range(calls):
            args = wl.inputs(i)
            tracer.start_call(i)
            t0 = time.perf_counter()
            out = wl.call(args)
            seconds += time.perf_counter() - t0
            assert wl.check(args, out) is None
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    top = [tracer.names[n] for n in a["name"][a["parent"] < 0]]
    assert top.count(entry) == calls
    metrics = tracer.layer_metrics(calls * wl.items_per_call, seconds, time_scale=1.0)
    shares = sum(metrics[f"{layer}.self_share"] for layer in spans.LAYERS)
    assert 0.95 < shares <= 1.0
