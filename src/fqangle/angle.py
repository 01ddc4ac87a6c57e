"""The scalar-invariant angle between nonzero vectors over a finite field.

The angle between nonzero u and v is the minimum over all nonzero scalars
c of the Hamming distance between u and c*v.  Two algorithms are provided:

* ``angle_naive`` evaluates the definition directly, one distance per
  nonzero scalar (q-1 passes).  It is the reference oracle.
* ``angle_fast`` makes a single pass: it partitions the positions by the
  joint zero-pattern of (u_i, v_i), counts for every scalar c how many
  positions satisfy u_i = c * v_i with both sides nonzero (a census
  indexed by the ratio u_i / v_i), and returns
  ``n - both_zero - max_c count(c)``.

Both have batched row-wise variants operating on (T, n) integer arrays,
which the verification suites and the decoder build on.

One census kernel serves ``angle_fast_rows``, ``argmin_scalar`` and
``build_census``.  It maps every position to a *ratio bin* in a narrow
unsigned dtype: 0 when u_i = v_i = 0, the ratio u_i / v_i in [1, q) when
both are nonzero, q when only u_i is nonzero and q + 1 when only v_i is
(``Field.ratio_bin_tables``; one gather from a q*q pair table for
q <= 256, shifted log tables above).  A single bincount per row then
gives both_zero, only_u, only_v and every ratio count; when T * (q + 1)
cells would exceed ``_BINCOUNT_CELL_CAP``, a row-wise sort of the bins
counts the same runs instead.  Coordinates stay int64 outside the kernel.

The angle is invariant under nonzero rescaling of either argument and so
descends to the projective space; ``ProjectivePoint`` holds the canonical
representative (first nonzero coordinate scaled to 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ZeroVector
from .gf import Field
from .vectors import Vector, _require_same_space, scalar_mul

# Above this many cells the row-offset bincount is replaced by a sort-based
# per-row count (keeps memory O(T*n) when q is huge relative to n).
_BINCOUNT_CELL_CAP = 1 << 25


@dataclass(frozen=True)
class RatioCensus:
    """Partition of positions by the joint zero-pattern of a vector pair.

    both_zero / only_u / only_v count positions where both coordinates
    vanish, only u_i is nonzero, only v_i is nonzero.  ratio_counts maps a
    nonzero scalar c to the number of positions with u_i = c * v_i and
    both coordinates nonzero; scalars with count zero are omitted.
    """

    both_zero: int
    only_u: int
    only_v: int
    ratio_counts: Mapping[int, int]

    def total(self) -> int:
        return self.both_zero + self.only_u + self.only_v + sum(self.ratio_counts.values())


def _check_nonzero_pair(u: Vector, v: Vector):
    _require_same_space(u, v)
    if u.is_zero() or v.is_zero():
        raise ZeroVector("the angle is defined only for nonzero vectors")


# ----------------------------------------------------------------------
# Batched kernels on (T, n) arrays of encoded elements (rows nonzero)
# ----------------------------------------------------------------------

def _ratio_bins(field: Field, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Ratio bin of every position (see the module docstring), (T, n)."""
    A, B, E = field.ratio_bin_tables
    if field.q <= 256:  # A[u] + B[v] = u*q + v, which fits uint16
        idx = U.astype(np.uint16)
        idx *= field.q
        idx += V.astype(np.uint16)
    else:
        idx = A.take(U)
        idx += B.take(V)
    return E.take(idx)


def _bin_counts(bins: np.ndarray, q: int) -> np.ndarray:
    """(T, q + 2) count of every ratio bin in each row, by one bincount."""
    T = bins.shape[0]
    width = q + 2
    flat = bins + np.arange(0, T * width, width)[:, None]
    return np.bincount(flat.ravel(), minlength=T * width).reshape(T, width)


def _sorted_census(bins: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(both_zero, max ratio count) per row, from runs of row-sorted bins."""
    T, n = bins.shape
    flat = np.sort(bins, axis=1).ravel()
    is_start = np.empty(flat.size, dtype=bool)
    is_start[0] = True
    np.not_equal(flat[1:], flat[:-1], out=is_start[1:])
    is_start[::n] = True  # a run never crosses rows
    starts = np.flatnonzero(is_start)
    lengths = np.diff(starts, append=flat.size)
    values = flat[starts]
    row_first = np.flatnonzero(starts % n == 0)
    both_zero = np.where(values[row_first] == 0, lengths[row_first], 0)  # bin 0 sorts first
    lengths[(values == 0) | (values >= q)] = 0
    return both_zero, np.maximum.reduceat(lengths, row_first)


def angle_fast_rows(field: Field, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise single-pass angle for paired rows of U and V."""
    U = np.atleast_2d(U)
    V = np.atleast_2d(V)
    T, n = U.shape
    q = field.q
    bins = _ratio_bins(field, U, V)
    if T * (q + 1) <= _BINCOUNT_CELL_CAP:
        counts = _bin_counts(bins, q)
        return n - counts[:, 0] - counts[:, 1:q].max(axis=1)
    both_zero, best = _sorted_census(bins, q)
    return n - both_zero - best


def _angle_table(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len A, len B) angles from every row of A to every row of B."""
    if len(A) == 1:  # a plain broadcast view: one-word decodes are bound by per-call overhead
        return angle_fast_rows(field, np.broadcast_to(A, B.shape), B)[None, :]
    pairs = angle_fast_rows(field, np.repeat(A, len(B), axis=0), np.tile(B, (len(A), 1)))
    return pairs.reshape(len(A), len(B))


def angle_naive_rows(field: Field, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise brute force: min over nonzero c of d_H(u, c*v)."""
    U = np.atleast_2d(U)
    V = np.atleast_2d(V)
    T, n = U.shape
    best = np.full(T, n, dtype=np.int64)
    if field.m == 1:
        p = field.p
        U32 = np.ascontiguousarray(U, dtype=np.int32)
        V32 = np.ascontiguousarray(V, dtype=np.int32)
        buf = np.empty_like(V32)
        neq = np.empty(U32.shape, dtype=bool)
        for c in range(1, p):
            np.multiply(V32, c, out=buf)
            np.mod(buf, p, out=buf)
            np.not_equal(buf, U32, out=neq)
            np.minimum(best, np.count_nonzero(neq, axis=1), out=best)
        return best
    vz = V == 0
    # where v_i = 0, c*v_i = 0 for every c: mismatches there are constant
    base = np.count_nonzero(vz & (U != 0), axis=1)
    logV = field.log_table[V]  # -1 where V = 0, masked below
    W = np.empty(V.shape, dtype=np.int64)
    idx = np.empty(V.shape, dtype=np.int64)
    for c in range(1, field.q):
        np.add(logV, int(field.log_table[c]), out=idx)
        np.mod(idx, field.q - 1, out=idx)
        np.take(field.exp_table, idx, out=W)
        d = base + np.count_nonzero((W != U) & ~vz, axis=1)
        np.minimum(best, d, out=best)
    return best


# ----------------------------------------------------------------------
# Pairwise API
# ----------------------------------------------------------------------

def angle_naive(u: Vector, v: Vector) -> int:
    """Minimum over all nonzero scalars c of d_H(u, c*v); the oracle form."""
    _check_nonzero_pair(u, v)
    return int(angle_naive_rows(u.field, u.coords, v.coords)[0])


def angle_fast(u: Vector, v: Vector) -> int:
    """Single-pass angle; always equals angle_naive(u, v)."""
    _check_nonzero_pair(u, v)
    return int(angle_fast_rows(u.field, u.coords, v.coords)[0])


def _pair_counts(u: Vector, v: Vector) -> np.ndarray:
    """(q + 2,) ratio-bin counts of a nonzero pair."""
    _check_nonzero_pair(u, v)
    bins = _ratio_bins(u.field, u.coords[None, :], v.coords[None, :])
    return _bin_counts(bins, u.field.q)[0]


def build_census(u: Vector, v: Vector) -> RatioCensus:
    """Single pass over positions collecting the zero-pattern partition."""
    counts = _pair_counts(u, v)
    q = u.field.q
    ratios = np.flatnonzero(counts[1:q]) + 1
    return RatioCensus(
        both_zero=int(counts[0]),
        only_u=int(counts[q]),
        only_v=int(counts[q + 1]),
        ratio_counts=dict(zip(ratios.tolist(), counts[ratios].tolist())),
    )


def argmin_scalar(u: Vector, v: Vector) -> tuple[int, int]:
    """A nonzero scalar attaining the angle, with the angle itself.

    Ties are broken by the smallest integer encoding.  When no position
    has both coordinates nonzero, every scalar attains the minimum and
    c = 1 is returned by convention.
    """
    counts = _pair_counts(u, v)
    # argmax takes the first maximum: the smallest encoding, and c = 1
    # when every ratio count is zero
    c_star = 1 + int(np.argmax(counts[1 : u.field.q]))
    return c_star, len(u) - int(counts[0]) - int(counts[c_star])


def is_max_angle(u: Vector, v: Vector) -> bool:
    """True iff at every position exactly one of u_i, v_i vanishes."""
    _check_nonzero_pair(u, v)
    return bool(np.all((u.coords == 0) != (v.coords == 0)))


# ----------------------------------------------------------------------
# Projective space
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A projective point, held as the representative whose first nonzero
    coordinate equals 1."""

    rep: Vector

    def __post_init__(self):
        nz = np.flatnonzero(self.rep.coords)
        if nz.size == 0:
            raise ZeroVector("a projective point needs a nonzero representative")
        if int(self.rep.coords[nz[0]]) != 1:
            raise ValueError("representative is not normalized; use projectivize()")

    @property
    def field(self) -> Field:
        return self.rep.field

    def __len__(self) -> int:
        return len(self.rep)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"ProjectivePoint([{','.join(str(x) for x in self.rep.coords)}])"


def projectivize(u: Vector) -> ProjectivePoint:
    """Canonical representative of the line through u (u nonzero)."""
    nz = np.flatnonzero(u.coords)
    if nz.size == 0:
        raise ZeroVector("the zero vector spans no projective point")
    lead = int(u.coords[nz[0]])
    rep = u if lead == 1 else scalar_mul(u.field.inv(lead), u)
    return ProjectivePoint(rep)


def normalize_rows(field: Field, M: np.ndarray) -> np.ndarray:
    """Canonical projective representatives for each (nonzero) row of M."""
    M = np.atleast_2d(M)
    first_nz = (M != 0).argmax(axis=1)
    lead = M[np.arange(M.shape[0]), first_nz]
    return field.mul_array(field.inv_table[lead][:, None], M)


def projective_distance(a: ProjectivePoint, b: ProjectivePoint) -> int:
    """The induced metric on projective points (angle of representatives)."""
    return angle_fast(a.rep, b.rep)
