"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its processor with other work, which changes the speed
of the same code by a third or more over tens of seconds.  ``chunk`` times a
fixed piece of work with the package's instruction mix (Python objects,
dictionaries and small numpy matrix operations) but none of its code.  The
benchmark runs a chunk before every window of calls and scales the window's
times by ``REFERENCE_S / chunk time``: every reported time is the time the
call would take on a machine that runs one chunk in ``REFERENCE_S``.
"""

import math
import time

import numpy as np

REFERENCE_S = 0.030
_REPEATS = 700
_Y = np.array([[0, -1j], [1j, 0]])


class _Box:
    __slots__ = ("matrix", "weight")

    def __init__(self, matrix, weight):
        self.matrix = matrix
        self.weight = weight


def chunk() -> float:
    """Seconds taken by one fixed chunk of calibration work."""
    t0 = time.perf_counter()
    acc: dict = {}
    for k in range(_REPEATS):
        a = np.array([[1.0, k * 1e-3], [k * 1e-3, 1.0]], dtype=complex)
        box = _Box(np.kron(a, _Y), math.sqrt(k + 1.0))
        val = complex(np.trace(box.matrix @ box.matrix.conj().T))
        if abs(val.imag) > 1e-6:
            raise ArithmeticError("calibration arithmetic went wrong")
        key = (k % 8, k % 3)
        acc[key] = acc.get(key, 0.0) + val.real * box.weight
        acc["min"] = float(np.linalg.eigvalsh(box.matrix + box.matrix.conj().T)[0])
    return time.perf_counter() - t0


def scale(chunk_s: float) -> float:
    """Factor that converts a time measured next to ``chunk_s`` to reference speed."""
    return REFERENCE_S / chunk_s
