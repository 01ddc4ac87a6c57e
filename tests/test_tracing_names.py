"""The names the benchmark's tracer patches (perfbench/tracing.py) exist.

The tracer is loaded, never installed: a change that deletes or renames a
traced name fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr", [f[:2] for f in tracing.FUNCTIONS], ids=lambda x: x)
def test_traced_functions_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,method", [m[:3] for m in tracing.METHODS], ids=lambda x: x)
def test_traced_methods_resolve(module, cls, method):
    # install() reads the method from the class's own namespace
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])


def test_census_path_constant_exists():
    # the tracer re-derives the census path from this constant
    assert isinstance(importlib.import_module("fqangle.angle")._BINCOUNT_CELL_CAP, int)
