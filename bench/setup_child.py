"""Set-up time of one workload in a fresh process.  ``run.py`` starts it as

    python3 bench/setup_child.py WORKLOAD SEED WORKDIR

from the checkout root.  It builds the workload's inputs, then times
``import jointmeas`` through the end of the workload's first call.  Before
the clock starts it loads only numpy, the modules numpy itself loads, and
the benchmark modules built on them, so the import cost of everything else
``jointmeas`` needs falls inside the timed span.  The time is scaled to
reference speed by calibration chunks, two before and two after it.  The
one line of output is JSON with ``setup_s``, ``raw_setup_s``,
``peak_rss_mb`` and ``reason`` (null when the first call's output matches
the reference).
"""

import contextlib
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import workloads

CALIBRATIONS = 2  # chunks on each side of the timed set-up


def prepare(name: str, seed: int, workdir: Path):
    """The workload, unbound, and the arguments of its first call."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, wl.inputs(0)


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    wl, args = prepare(name, int(seed), Path(workdir))
    calibrate.chunk()  # warm-up
    chunks = [calibrate.chunk() for _ in range(CALIBRATIONS)]
    t0 = time.perf_counter()
    wl.bind(workloads.import_package(wl.imports))
    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        try:
            out = wl.call(args)
        except Exception as exc:  # a raising call is a failed call
            reason = f"first call raised {exc!r}"
        else:
            reason = None
    setup_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chunks += [calibrate.chunk() for _ in range(CALIBRATIONS)]
    if reason is None:
        reason = wl.check(args, out)

    import json  # after timing: jointmeas needs it, so it must not load earlier

    print(json.dumps({"setup_s": setup_s * calibrate.scale(float(np.median(chunks))),
                      "raw_setup_s": setup_s, "peak_rss_mb": rss_mb, "reason": reason}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
