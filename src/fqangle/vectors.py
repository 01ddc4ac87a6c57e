"""Vectors over a finite field and the Hamming primitives built on them.

Vectors are immutable values: every operation returns a fresh vector and
coordinate buffers are write-protected.  The one-line text format used by
the CLI and by code files is comma-separated integer encodings, e.g.
``1,2,0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatch, InvalidInput, LengthMismatch
from .gf import Field


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
        return tuple(int(x) for x in self.coords)

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
    """Write-protected int64 copy of a nonempty ndim-D array of encodings in [0, q)."""
    # numpy casts [0, True, 2] to int64, so a list is searched for bools first
    if isinstance(coords, (list, tuple)) and _holds_bool(coords):
        raise InvalidInput(f"coordinates must be integers in [0, {field.q}), got a bool")
    arr = np.array(coords)  # defensive copy
    if arr.ndim != ndim or arr.size == 0:
        raise InvalidInput(f"expected a nonempty {ndim}-D array of coordinates, got shape {arr.shape}")
    # floats, strings, bools and ints beyond 64 bits are refused, never coerced
    if arr.dtype.kind not in "iu":
        raise InvalidInput(f"coordinates must be integers in [0, {field.q}), got {arr.dtype}")
    if arr.dtype != np.int64:
        arr = arr.astype(np.int64)  # uint64 beyond int64 wraps negative, refused below
    if arr.min() < 0 or arr.max() >= field.q:
        raise InvalidInput(f"coordinates must lie in [0, {field.q})")
    arr.setflags(write=False)
    return arr


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
    """Inner product sum_i u_i * v_i in the field (base-p digits summed mod p)."""
    _require_same_space(u, v)
    p, scale = u.field.p, u.field.p ** np.arange(u.field.m)
    digits = u.field.mul_array(u.coords, v.coords)[:, None] // scale % p
    return int(digits.sum(axis=0) % p @ scale)


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
    return ",".join(str(int(x)) for x in u)
