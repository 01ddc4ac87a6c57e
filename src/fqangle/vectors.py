"""Vectors over a finite field and the Hamming primitives built on them.

Vectors are immutable values: every operation returns a fresh vector and
coordinate buffers are write-protected.  The one-line text format used by
the CLI and by code files is comma-separated integer encodings, e.g.
``1,2,0``.

``coordinate_array`` is the one check at the edge; ``Vector``,
``LinearCode`` and, through ``Vector``, ``ProjectivePoint`` build on it:

* It makes exactly one int64 copy, which the caller owns and which is
  write-protected.  It shares no memory with its input, whether that is a
  list, an ndarray of any integer dtype, a strided view or a view of an
  ndarray subclass; a list is converted once and that array is kept.
* It refuses, with ``InvalidInput``: floats, strings, objects, bools
  (also bools mixed into a list of ints), ints past 64 bits, a shape that
  is not a nonempty ndim-D array, and any encoding outside [0, q),
  including uint64 values past 2^63 - 1, which wrap negative in int64.
* Arrays of at most ``_SHORT_ROW`` = 48 coordinates are range-checked
  in plain Python after one ``tolist()``, longer ones by one numpy
  ``max`` of their uint64 view, where a negative reads as 2^63 or more:
  measured, the Python checks are cheaper up to about 32 to 48.
  ``_first_nonzero``, which finds ``ProjectivePoint``'s lead coordinate,
  picks by the same length.  Both paths accept and refuse the same
  inputs; only their cost differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatch, InvalidInput, LengthMismatch
from .gf import Field

# Rows of at most this many coordinates are checked in plain Python after
# one tolist(); longer ones by numpy reductions, whose fixed cost of 1-2 us
# per call the Python loop overtakes near here.  Three runs, best of
# 15 x 2000 calls each, int64 rows over GF(251), 2-core Xeon, numpy 2.4.
# Range check (tolist, min and max against numpy min and max): 0.7-1.3 vs
# 2.5-3.8 us at 7 coordinates, 1.7-2.8 vs 2.7-4.0 at 32, 3.3-3.8 vs
# 2.3-4.0 at 48, 4.1-4.2 vs 3.7-4.1 at 64 and 5.3-8.3 vs 4.0-4.3 at 128.
# First nonzero coordinate, placed last (a loop over tolist against
# np.flatnonzero): 1.2-1.8 vs 2.5-3.0 us at 48, 2.5-3.4 vs 1.9-3.2 at 96.
# A long row's range check is one max of its uint64 view: 1.36 us at 16-64
# coordinates against 2.1 for min and max, and 0.28 against 0.57 ms at
# 10^6 (best of 15 x 2000 and of 7 x 20 calls), so the Python range check
# alone would hand over near 32; the first-nonzero loop still wins at 48.
_SHORT_ROW = 48


@dataclass(frozen=True, eq=False)
class Vector:
    """A length-n vector over a field, coordinates encoded as integers."""

    field: Field
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", coordinate_array(self.field, self.coords))

    def __len__(self) -> int:
        return self.coords.size

    def __iter__(self):
        return iter(self.values())

    def values(self) -> tuple[int, ...]:
        return tuple(self.coords.tolist())

    def is_zero(self) -> bool:
        return not self.coords.any()

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash((self.field, self.coords.tobytes()))

    def __repr__(self):
        return f"Vector({self.field!r}, [{format_vector(self)}])"


def _holds_bool(seq) -> bool:
    """True if a list or tuple, at any depth, holds a bool or a bool array."""
    for x in seq:
        if isinstance(x, (list, tuple)):
            if _holds_bool(x):
                return True
        elif isinstance(x, bool) or getattr(x, "dtype", None) == np.bool_:  # np.bool_ too
            return True
    return False


def coordinate_array(field: Field, coords, ndim: int = 1) -> np.ndarray:
    """Write-protected int64 copy, owned by the caller, of a nonempty ndim-D
    array of encodings in [0, q)."""
    if isinstance(coords, (list, tuple)):
        # numpy casts [0, True, 2] to int64, so a list is searched for bools first
        if _holds_bool(coords):
            raise InvalidInput(f"coordinates must be integers in [0, {field.q}), got a bool")
        arr, fresh = np.array(coords), True  # a new buffer nothing else holds
    else:
        arr, fresh = np.asarray(coords), False  # may be the caller's memory
    if arr.ndim != ndim or arr.size == 0:
        raise InvalidInput(f"expected a nonempty {ndim}-D array of coordinates, got shape {arr.shape}")
    # floats, strings, bools and ints beyond 64 bits are refused, never coerced
    if arr.dtype.kind not in "iu":
        raise InvalidInput(f"coordinates must be integers in [0, {field.q}), got {arr.dtype}")
    # the one copy; uint64 beyond int64 wraps negative, refused below
    arr = arr.astype(np.int64, copy=not fresh)
    if arr.size <= _SHORT_ROW:
        values = arr.ravel().tolist()
        refused = min(values) < 0 or max(values) >= field.q
    else:  # a negative reads as 2^63 or more through the uint64 view
        refused = arr.view(np.uint64).max() >= field.q
    if refused:
        raise InvalidInput(f"coordinates must lie in [0, {field.q})")
    arr.setflags(write=False)
    return arr


def _first_nonzero(coords: np.ndarray) -> int:
    """The first nonzero coordinate of a 1-D int64 array, or 0 if none."""
    if coords.size <= _SHORT_ROW:
        for x in coords.tolist():
            if x:
                return x
        return 0
    nz = np.flatnonzero(coords)
    return int(coords[nz[0]]) if nz.size else 0


def _require_same_space(u: Vector, v: Vector):
    if u.field != v.field:
        raise FieldMismatch(f"{u.field!r} vs {v.field!r}")
    if len(u) != len(v):
        raise LengthMismatch(f"lengths {len(u)} vs {len(v)}")


def hamming_weight(u: Vector) -> int:
    """Number of nonzero coordinates."""
    return int(np.count_nonzero(u.coords))


def hamming_distance(u: Vector, v: Vector) -> int:
    """Number of coordinates where u and v differ."""
    _require_same_space(u, v)
    return int(np.count_nonzero(u.coords != v.coords))


def agreement(u: Vector, v: Vector) -> int:
    """Number of coordinates where u and v coincide."""
    return len(u) - hamming_distance(u, v)


def scalar_mul(c: int, u: Vector) -> Vector:
    """Coordinate-wise product c * u (c = 0 gives the zero vector)."""
    return Vector(u.field, u.field.scalar_mul_array(c, u.coords))


def dot(u: Vector, v: Vector) -> int:
    """Inner product sum_i u_i * v_i in the field."""
    _require_same_space(u, v)
    return int(u.field.sum_array(u.field.mul_array(u.coords, v.coords)))


def parse_vector(field: Field, text: str) -> Vector:
    """Parse a comma-separated list of integer encodings, each ASCII
    decimal digits after stripping: int() alone would also take "1_0" and
    non-ASCII digits."""
    parts = [s.strip() for s in text.strip().split(",")]
    if not all(s.isascii() and s.isdigit() for s in parts):
        raise InvalidInput(f"cannot parse vector from {text!r}")
    return Vector(field, [int(s) for s in parts])


def format_vector(u: Vector | np.ndarray) -> str:
    """The one-line text form of a vector, or of one row of encodings."""
    row = u.coords if isinstance(u, Vector) else np.asarray(u)
    return ",".join(map(str, row.tolist()))
