"""The names the benchmark's tracer patches (perfbench/tracing.py) exist.

The tracer is loaded, never installed: a change that deletes or renames a
traced name fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fqangle import make_field

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


@pytest.mark.parametrize("shared", [False, True], ids=["paired", "shared"])
@pytest.mark.parametrize("past_cap", [False, True], ids=["at_cap", "past_cap"])
def test_census_path_label_follows_the_kernel(past_cap, shared, monkeypatch):
    # the tracer labels a call by its own copy of the dispatch rule: on
    # either side of the cap it must say ".sort" exactly when the kernel sorts
    angle = importlib.import_module("fqangle.angle")
    field = make_field(7)
    U = np.arange(1, 41).reshape(8, 5) % 7
    V = U[:1] if shared else U[::-1]
    sorts = []
    real = angle._sorted_census
    monkeypatch.setattr(angle, "_sorted_census", lambda bins, q: sorts.append(q) or real(bins, q))
    monkeypatch.setattr(angle, "_BINCOUNT_CELL_CAP", len(U) * (field.q + 1) - past_cap)
    label = tracing._fast_rows_name((field, U, V), {})
    angle.angle_fast_rows(field, U, V)
    assert label == "angle.angle_fast_rows." + ("sort" if sorts else "bincount")
    assert bool(sorts) == past_cap
