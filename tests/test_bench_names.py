"""Every library name the benchmark tracer wraps must exist.

ncbench/tracer.py patches library functions by name, and ncbench's own tests
are not part of the tier-1 suite, so renaming a wrapped function would break
every traced benchmark run without failing a library test. This reads the
tracer's LAYERS table (the tracer module imports only sys and time) and
resolves each name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "ncbench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("ncbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module,name",
                         [(m, n) for m, names in _layers().items() for n in names])
def test_layer_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"ncalg.{module}"), name, None)
    assert callable(fn), f"ncalg.{module}.{name}"


@pytest.mark.parametrize("path", ["diffeq.LinearOde.real_matrix", "diffeq.SolutionCurve.__call__",
                                  "algebra.Element.__mul__", "cli.run_scenario"])
def test_wrapped_attribute_resolves(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"ncalg.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    assert callable(obj), f"ncalg.{path}"
