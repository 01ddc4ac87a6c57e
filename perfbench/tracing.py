"""Span tracing for the benchmark's traced run.

fqangle is measured from outside: ``Tracer.install`` rebinds each public
callable in ``FUNCTIONS`` under every name a fqangle module looks it up
by (``fqangle.codes.angle_fast_rows`` as well as
``fqangle.angle.angle_fast_rows``), and patches the methods in
``METHODS`` on their classes.  ``Tracer.uninstall`` restores the
originals, so the untraced path runs the program exactly as shipped.

Each span records a name, start, end, parent span, call id (the timed
call it belongs to) and phase.  Spans are kept in memory, up to
``SPAN_CAP``, and written by ``dump``.  Self time and counters are
aggregated as each span closes, so they stay exact past the cap.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

SPAN_CAP = 200_000
SPAN_FIELDS = ("span_id", "parent_id", "call_id", "phase", "name", "start_ns", "end_ns")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows_cols(field, U):
    U = np.atleast_2d(U)
    return U.shape[0], U.shape[1], field.q


def _fast_rows_name(args, kwargs):
    """Span name carries the census path, derived as the kernel derives it."""
    import fqangle.angle

    T, _, q = _rows_cols(_arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "U"))
    path = "bincount" if T * (q + 1) <= fqangle.angle._BINCOUNT_CELL_CAP else "sort"
    return f"angle.angle_fast_rows.{path}"


def _fast_rows_measure(tracer, args, kwargs, result, dur_ns):
    T, n, _ = _rows_cols(_arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "U"))
    tracer.add_to_open("codes.angular_decode", rows_scanned=T, kernel_ns=dur_ns)
    return {"rows": T, "positions": T * n}


def _naive_rows_measure(tracer, args, kwargs, result, dur_ns):
    T, n, q = _rows_cols(_arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "U"))
    return {"positions": T * n, "pos_scalars": T * n * (q - 1)}


def _elements_measure(tracer, args, kwargs, result, dur_ns):
    return {"elements": int(np.size(result))}


def _decode_measure(tracer, args, kwargs, result, dur_ns):
    return {"directions_returned": len(result.best)}


def _list_measure(tracer, args, kwargs, result, dur_ns):
    return {"directions_returned": len(result)}


def _matrix_measure(tracer, args, kwargs, result, dur_ns):
    return {"rows": int(result.shape[0])}


# (module, attribute, span name or name function, measure, first-call-per-code tracked)
FUNCTIONS = (
    ("fqangle.angle", "angle_fast_rows", _fast_rows_name, _fast_rows_measure, False),
    ("fqangle.angle", "angle_naive_rows", "angle.angle_naive_rows", _naive_rows_measure, False),
    ("fqangle.angle", "angle_fast", "angle.angle_fast", None, False),
    ("fqangle.angle", "argmin_scalar", "angle.argmin_scalar", None, False),
    ("fqangle.angle", "build_census", "angle.build_census", None, False),
    ("fqangle.angle", "projectivize", "angle.projectivize", None, False),
    ("fqangle.codes", "make_rs_code", "codes.make_rs_code", None, False),
    ("fqangle.codes", "codeword_matrix", "codes.codeword_matrix", _matrix_measure, True),
    ("fqangle.codes", "projective_codeword_matrix", "codes.projective_codeword_matrix", _matrix_measure, True),
    ("fqangle.codes", "min_distance", "codes.min_distance", None, True),
    ("fqangle.codes", "angular_decode", "codes.angular_decode", _decode_measure, False),
    ("fqangle.codes", "projective_list_decode", "codes.projective_list_decode", _list_measure, False),
    ("fqangle.experiments", "verify_oracle_equivalence", "experiments.verify_oracle_equivalence", None, False),
    ("fqangle.cli", "main", "cli.main", None, False),
)

# (module, class, method, span name, measure)
METHODS = (
    ("fqangle.gf", "Field", "__init__", "gf.Field.build", None),
    ("fqangle.gf", "Field", "div_array", "gf.div_array", _elements_measure),
    ("fqangle.gf", "Field", "mul_array", "gf.mul_array", _elements_measure),
    ("fqangle.gf", "Field", "add_array", "gf.add_array", _elements_measure),
    ("fqangle.gf", "Field", "scalar_mul_array", "gf.scalar_mul_array", _elements_measure),
    ("fqangle.vectors", "Vector", "__post_init__", "vectors.Vector", None),
)


def rebind(orig, replacement) -> list[tuple[object, str, object]]:
    """Point every fqangle module name bound to `orig` at `replacement`;
    returns the (module, name, orig) triples that undo it."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname == "fqangle" or modname.startswith("fqangle."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, replacement)
    return undo


def restore(undo):
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


class Agg:
    """Totals for one span name in one phase."""

    __slots__ = ("calls", "total_ns", "self_ns", "counts")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self.phase: str | None = None  # None: spans are not recorded
        self.call_id = -1
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self._names: dict[str, int] = {}
        self._phases: dict[str, int] = {}
        self._next_id = 0
        self.spans = array("q")
        self.dropped = 0
        self.agg: dict[tuple[str, str], Agg] = defaultdict(Agg)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter_ns(), 0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, counts: dict | None = None):
        end = time.perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError("spans must close in LIFO order")
        name, start, child_ns, span_id = frame
        dur = end - start
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        agg = self.agg[(self.phase, name)]
        agg.calls += 1
        agg.total_ns += dur
        agg.self_ns += dur - child_ns
        if counts:
            for key, value in counts.items():
                agg.counts[key] += value
        if len(self.spans) < SPAN_CAP * len(SPAN_FIELDS):
            name_id = self._names.setdefault(name, len(self._names))
            phase_id = self._phases.setdefault(self.phase, len(self._phases))
            self.spans.extend((span_id, parent_id, self.call_id, phase_id, name_id, start, end))
        else:
            self.dropped += 1

    def add_to_open(self, name: str, **counts):
        """Add counters to the innermost open span called `name`, if any."""
        for frame in reversed(self._stack):
            if frame[0] == name:
                agg = self.agg[(self.phase, name)]
                for key, value in counts.items():
                    agg.counts[key] += value
                return

    def _wrap(self, fn, name, measure, track_first):
        tracer = self
        seen = weakref.WeakSet() if track_first else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            cold = track_first and args[0] not in seen
            frame = tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame)
                raise
            end = time.perf_counter_ns()
            counts = measure(tracer, args, kwargs, result, end - frame[1]) if measure else {}
            if cold:
                seen.add(args[0])
                counts = dict(counts, **{f"cold_{k}": v for k, v in counts.items()},
                              cold_calls=1, cold_ns=end - frame[1])
            tracer.exit(frame, counts)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        for modname, attr, name, measure, track_first in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            self._restore += rebind(orig, self._wrap(orig, name, measure, track_first))
        for modname, clsname, method, name, measure in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[method]
            self._restore.append((cls, method, orig))
            setattr(cls, method, self._wrap(orig, name, measure, False))

    def uninstall(self):
        restore(self._restore)
        self._restore.clear()
        self.phase = None

    # -- output --------------------------------------------------------

    def get(self, phase: str, name: str) -> Agg:
        return self.agg.get((phase, name)) or Agg()

    def dump(self, path: Path):
        """Write the kept spans as an (N, 7) int64 array plus name tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        names = sorted(self._names, key=self._names.get)
        phases = sorted(self._phases, key=self._phases.get)
        np.savez(path, spans=spans, fields=np.array(SPAN_FIELDS), names=np.array(names),
                 phases=np.array(phases), dropped=np.int64(self.dropped))
