"""Every span the per-layer benchmark looks up by name exists.

`bench/spans.py` names the functions whose per-call time (TIMED) or call
count (COUNTED) it reports; a name that no longer resolves would only fail
a traced benchmark run.  The module is loaded from its file and not
modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(name: str, layers) -> bool:
    """Is ``layer.function`` a public function, or ``layer.Class.__init__``
    a class constructor, defined in the module ``jointmeas.layer``?"""
    layer, *path = name.split(".")
    if layer not in layers:
        return False
    module = importlib.import_module(f"jointmeas.{layer}")
    obj = vars(module).get(path[0])
    if getattr(obj, "__module__", None) != module.__name__ or path[0].startswith("_"):
        return False
    if path[1:] == []:
        return inspect.isfunction(obj)
    if path[1:] == ["__init__"]:
        return inspect.isclass(obj) and inspect.isfunction(vars(obj).get("__init__"))
    return False


def test_every_benchmark_span_name_resolves():
    spans = load_spans()
    names = [name for group in spans.TIMED.values() for name in group]
    names += list(spans.COUNTED.values())
    assert names
    assert [name for name in names if not resolves(name, spans.LAYERS)] == []
