"""Span tracing for the per-layer benchmark run.

``Tracer.install`` wraps every public function, constructor and factory
classmethod defined in each layer module of ``jointmeas`` and puts the
wrapper in every ``jointmeas`` module namespace that holds a reference to
the original, because modules import names from each other directly.
Instance methods are not wrapped; their time counts to the calling span.

Spans (name, parent span, start, end, call id, raised) stay in memory
until ``save``.  A span's self time is its duration minus the durations of
its child spans, which never overlap in this single-threaded program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("qcore", "scenario", "estimate", "relations", "oracle", "dataio",
          "workflow", "cli")

# named per-call timings (median µs of the inclusive span) and counts per item
TIMED = {
    "scenario.slide_model_us": ("scenario.slide_model",),
    "scenario.joint_distribution_us": ("scenario.joint_distribution",),
    "estimate.optimal_estimator_us": ("estimate.optimal_estimator",),
    "estimate.inaccuracy_x_us": ("estimate.inaccuracy_x",),
    "estimate.inaccuracy_y_us": ("estimate.inaccuracy_y",),
    "relations.evaluate_relations_us": ("relations.evaluate_relations",),
    "relations.verify_relation_chain_us": ("relations.verify_relation_chain",),
    "oracle.naimark_unitary_us": ("oracle.naimark_unitary",),
    "oracle.direct_margenau_hill_us": ("oracle.direct_margenau_hill",),
    "workflow.dilated_chain_us": ("workflow.dilated_chain",),
    "dataio.parse_us": ("dataio.parse_distribution", "dataio.parse_density_matrix"),
    "dataio.emit_us": ("dataio.emit_report", "dataio.emit_distribution",
                       "dataio.emit_density_matrix"),
    "cli.build_parser_us": ("cli.build_parser",),
}
COUNTED = {
    "qcore.hermitian_ctor_per_item": "qcore.HermitianOperator.__init__",
    "qcore.density_ctor_per_item": "qcore.DensityMatrix.__init__",
    "oracle.embed_per_item": "oracle.embed",
}


def metric_names() -> list[str]:
    per_layer = [f"{layer}.{kind}" for layer in LAYERS
                 for kind in ("calls_per_item", "self_us_per_item", "self_share",
                              "errors_per_item")]
    return per_layer + list(COUNTED) + list(TIMED) + ["trace.overhead_frac"]


def unit(name: str) -> str:
    if name.endswith(("_share", "_frac")):
        return "frac"
    if name.endswith("_us"):
        return "us"
    return "us/item" if name.endswith("self_us_per_item") else "count/item"


class Tracer:
    """Wraps the package's layer functions and records one span per call.

    Spans are kept in flat typed arrays; call ``start_call`` before each
    benchmark call so its spans carry that call's id.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._raised = array("b")
        self._calls: list[tuple[int, int]] = []  # (call id, first span index)
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def start_call(self, call_id: int) -> None:
        self._calls.append((call_id, len(self._name)))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, raised = (
            self._name, self._parent, self._start, self._end, self._raised)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            raised.append(1)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            raised[idx] = 0
            return out

        return traced

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"jointmeas.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "jointmeas" and not modname.startswith("jointmeas."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            label = f"{layer}.{cls.__name__}.{name}"
            if name == "__init__" and inspect.isfunction(attr):
                self._set(cls, name, self._wrap(label, attr))
            elif name.startswith("_"):
                continue
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(label, attr.__func__)))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(label, attr.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self._name)
        call = np.full(n, -1, dtype=np.int64)
        for (cid, first), (_, nxt) in zip(self._calls, self._calls[1:] + [(0, n)]):
            call[first:nxt] = cid
        # views, not copies: no span is added once the tracer is uninstalled
        return {"name": np.frombuffer(self._name, dtype=np.int32),
                "parent": np.frombuffer(self._parent, dtype=np.int64),
                "start_ns": np.frombuffer(self._start, dtype=np.int64),
                "end_ns": np.frombuffer(self._end, dtype=np.int64),
                "call": call,
                "raised": np.frombuffer(self._raised, dtype=np.bool_)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, items: int, call_seconds: float,
                      time_scale: float) -> dict[str, float]:
        """Per-layer counts, self times and errors, normalised per item.

        ``call_seconds`` is the traced calls' total duration; times in µs are
        multiplied by ``time_scale`` (the machine-speed scale of the run)."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested],
                              minlength=len(dur))
        self_ns = dur - covered
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        lay = layer_of[a["name"]]
        calls = np.bincount(lay, minlength=len(LAYERS))
        selfs = np.bincount(lay, weights=self_ns, minlength=len(LAYERS))
        errors = np.bincount(lay, weights=a["raised"], minlength=len(LAYERS))
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls_per_item"] = calls[i] / items
            out[f"{layer}.self_us_per_item"] = selfs[i] / 1e3 * time_scale / items
            out[f"{layer}.self_share"] = selfs[i] / 1e9 / call_seconds
            out[f"{layer}.errors_per_item"] = errors[i] / items
        ids = {n: i for i, n in enumerate(self.names)}
        for metric, span in COUNTED.items():
            out[metric] = float(np.count_nonzero(a["name"] == ids[span])) / items
        for metric, spans in TIMED.items():
            hit = np.isin(a["name"], [ids[s] for s in spans])
            out[metric] = (float(np.median(dur[hit])) / 1e3 * time_scale
                           if hit.any() else 0.0)
        return out
