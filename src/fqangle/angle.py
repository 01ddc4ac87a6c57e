"""The scalar-invariant angle between nonzero vectors over a finite field.

The angle between nonzero u and v is the minimum over all nonzero scalars
c of the Hamming distance between u and c*v.  Two algorithms are provided:

* ``angle_naive`` evaluates the definition directly, one distance per
  nonzero scalar (q-1 passes).  It is the reference oracle.  Over
  cache-sized row blocks, ``Field.multiples`` steps c*v from one scalar to
  the next by field addition (adding v over GF(p), one XOR along a Gray
  code over GF(2^m)), or gathers it from an exp window for odd p^m.
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
(``Field.ratio_bin_tables``; one gather from a q*q pair table at
u_i + v_i*q for q <= 256, shifted log tables above).  One bincount then
gives both_zero, only_u, only_v and every ratio count of each row.  It
runs over blocks of ``rows = max(1, _BLOCK_BUDGET // max(q + 2, n))``
rows, and a block of one row longer than ``_BLOCK_BUDGET``, as one pair
is, over slices of that many positions whose counts are summed
(``_slice_counts``), so a block's bins, counts and intp index stay in
cache whatever q and n are.  The counts are laid out bin-major: position
i of row r in bin b counts at b * rows + r, so the counts reshape to
(q + 2, rows), counts[0] is
both_zero and the best ratio count is the elementwise max of the q - 1
contiguous rows counts[1:q].  When T * (q + 1) cells would exceed
``_BINCOUNT_CELL_CAP`` over the whole input, each row's bins are sorted
instead, and a position's run length along the row is its index + 1
minus the start of its run.  A long one-row block over a small field, one
pair or a row of ``angle_fast_rows`` alike, counts each slice's bins with
compares (``_COMPARE_MAX_Q``); ``_slice_counts`` picks the counter.
V may be one row shared by every row of U: its half of the pair index
(v_i * q, or B[v_i] above 256) is then computed once and broadcast onto
U's half.  A decode scans one word against every direction so, the
directions as U and the word as V, as the angle is symmetric.  An
all-pairs table (``_angle_table``) makes one such call per row of its
shorter side, shared against the whole longer side, so it copies
neither side.  The
pairwise API reads zero vectors from the same counts: u is zero iff bins
1..q are empty, v iff bins 1..q-1 and q+1 are.  Vectors hold int64
coordinates; the kernel also takes narrower integer rows, such as the
uint8 or uint16 direction matrix.

The angle is invariant under nonzero rescaling of either argument and so
descends to the projective space; ``ProjectivePoint`` holds the canonical
representative (first nonzero coordinate scaled to 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidInput, LengthMismatch, ZeroVector
from .gf import Field
from .vectors import Vector, _first_nonzero, _require_same_space, format_vector

# Past this many cells over the whole input, T * (q + 1), the census sorts
# each row's bins (``_sorted_census``) in place of the bincount blocks.  The
# cap picks the faster path, not the smaller: at huge q a block holds one row
# and counts q + 2 cells for its n positions, so GF(3^10), T = 1000, n = 100
# takes 23 ms by bincount and 1.3 ms by sort (2-core Xeon, best of 5).
# perfbench/tracing.py labels the census path by this rule.
_BINCOUNT_CELL_CAP = 1 << 25

# The budget of one row block of both kernels, in elements.
# A bincount census block has rows = max(1, _BLOCK_BUDGET // max(q + 2, n)),
# and a one-row block, or one pair, longer than the budget is counted in
# slices of the budget's positions, so a block or slice holds at most 2^16
# count cells or 2^16 positions, and its int64 counts and its intp index
# take at most 512 KB each, whatever q and n are.  One pair of 2^20
# positions peaked at 11.0 MiB of temporaries at q = 2, 16 and 251 over
# the whole row, and at 0.69 MiB in slices (tracemalloc); its angle_fast
# took 3.6 / 4.7 / 4.0 ms there against 2.2 / 3.3 / 3.5 ms in slices
# (2-core Xeon, warm, best of 15).
# 2-core Xeon, best of 5, budgets 2^14 / 2^15 / 2^16 / 2^17 / 2^18: one
# decode scan of 69,905 directions of length 15 over GF(16) took 6.5 /
# 6.0-9.7 / 6.2-6.9 / 7.8-11.7 / 7.9-9.6 ms; T = 10^4, n = 1000 took 54-71 ms
# at every budget and q = 3, 16, 251.  Blocks sized by cells alone spanned
# 650K positions at q = 3: that input took 118 ms and peaked at 104.9 MiB
# of temporaries, against 55 ms and 0.8 MiB now (tracemalloc).
# An oracle block has rows = max(1, _BLOCK_BUDGET // n), and every pass
# reuses the block's buffers (64 KB each in uint8, 128 KB in uint16), so
# they stay in cache.  2-core Xeon, T = 200, best of 5: at q = 251,
# n = 1000 a block of 2^16 took 22.0 ms against 30.5 at 2^14 and 23.5 at
# 2^15; 2^17 read 0-10% faster in one process and won 6 of 8 alternating
# oracle-sweep pairs by 3-6%, inside the noise.  So 2^16 stays, which
# keeps a uint16 buffer within 128 KB, glibc's default mmap threshold.
_BLOCK_BUDGET = 1 << 16

# A one-row block's bins are counted with q + 2 compares, one bool pass
# each, in place of bincount and its intp copy, when q <= _COMPARE_MAX_Q and
# n >= _COMPARE_MIN_N * (q + 2)^2.  One pair, warm, 2-core Xeon, bincount /
# compares: n = 2^16 242 / 26 us at q = 2, 141 / 64 at q = 7, 108 / 76 at
# q = 9, 115 / 146 at q = 16; the compares first win near n = 8K at q = 2-3,
# 16K at q = 5 and 32-64K at q = 7-9.
_COMPARE_MAX_Q = 9
_COMPARE_MIN_N = 1 << 9


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
    """Ratio bin of every position (see the module docstring), (T, n).

    V is U's shape or one row shared by every row of U; V's half of the
    pair index is broadcast onto U's half."""
    A, B, E = field.ratio_bin_tables
    if field.q <= 256:  # A[u] + B[v] = u + v*q, which fits uint16
        idx = U.astype(np.uint16)
        half = V.astype(np.uint16)
        half *= field.q
    else:
        idx = A.take(U)
        half = B.take(V)
    idx += half
    del half  # before the gather: a long row then peaks at one index array, not two
    return E.take(idx)


def _bin_counts(bins: np.ndarray, q: int) -> np.ndarray:
    """(q + 2, T) count of every ratio bin in each row of a (T, n) block,
    bin-major: one bincount of bin * T + row."""
    T = bins.shape[0]
    flat = bins
    if T > 1:
        flat = np.multiply(bins, T, dtype=np.intp)
        flat += np.arange(T)[:, None]
    return np.bincount(flat.ravel(), minlength=(q + 2) * T).reshape(q + 2, T)


def _compare_counts(bins: np.ndarray, q: int) -> np.ndarray:
    """(q + 2, 1) count of every ratio bin in a one-row block, by q + 2
    compares, one bool pass each, and no intp copy (see ``_COMPARE_MAX_Q``)."""
    eq = np.empty(bins.shape[1], dtype=bool)
    return np.array([[np.count_nonzero(np.equal(bins[0], b, out=eq))] for b in range(q + 2)])


def _slice_counts(field: Field, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(q + 2, T) ratio-bin counts of one block, summed over slices of at
    most ``_BLOCK_BUDGET`` positions.  Only a block of one long row spans
    more, and its bins and index then stay in cache.  A one-row block over
    a small field counts by compares (see ``_COMPARE_MAX_Q``), any other by
    bincount."""
    q, n = field.q, U.shape[1]
    compare = len(U) == 1 and q <= _COMPARE_MAX_Q and n >= _COMPARE_MIN_N * (q + 2) ** 2
    count = _compare_counts if compare else _bin_counts
    step = _BLOCK_BUDGET
    counts = count(_ratio_bins(field, U[:, :step], V[:, :step]), q)
    for s in range(step, n, step):
        counts += count(_ratio_bins(field, U[:, s : s + step], V[:, s : s + step]), q)
    return counts


def _sorted_census(bins: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(both_zero, max ratio count) per row, from runs of row-sorted bins:
    each position carries its run's start along the row, so its run has
    reached length position + 1 - start there."""
    T, n = bins.shape
    ranked = np.sort(bins, axis=1)
    start = np.zeros((T, n), dtype=np.intp)
    np.multiply(ranked[:, 1:] != ranked[:, :-1], np.arange(1, n), out=start[:, 1:])
    np.maximum.accumulate(start, axis=1, out=start)
    lengths = np.subtract(np.arange(1, n + 1), start, out=start)
    lengths[(ranked == 0) | (ranked >= q)] = 0
    return np.count_nonzero(ranked == 0, axis=1), lengths.max(axis=1)


def _census_angles(field: Field, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Angles of the paired rows of one block, from its bin-major counts."""
    q = field.q
    counts = _slice_counts(field, U, V)
    return U.shape[1] - counts[0] - counts[1:q].max(axis=0)


def _row_pairs(U, V, shared: bool) -> tuple[np.ndarray, np.ndarray]:
    """U and V as (T, n) rows that pair up: V has U's shape or, if shared,
    is one row for every row of U.  Raises LengthMismatch / InvalidInput,
    the latter also for a non-integer dtype or rows of length 0; the range
    is not scanned."""
    U = np.atleast_2d(U)
    V = np.atleast_2d(V)
    if U.dtype.kind not in "iu" or V.dtype.kind not in "iu":
        raise InvalidInput(f"rows must hold integer encodings, got {U.dtype} and {V.dtype}")
    if U.shape[-1] != V.shape[-1]:
        raise LengthMismatch(f"rows of length {U.shape[-1]} and {V.shape[-1]}")
    if U.ndim != 2 or not (U.shape == V.shape or shared and V.shape == (1, U.shape[1])):
        raise InvalidInput(f"rows of shape {U.shape} cannot pair with rows of shape {V.shape}")
    if U.shape[1] == 0:
        raise InvalidInput("rows of length 0 have no angle")
    return U, V


def angle_fast_rows(field: Field, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise single-pass angle for paired rows of U and V.

    V has U's shape, or is one row shared by every row of U.  Rows must
    hold integer encodings in [0, q); a non-integer dtype raises
    InvalidInput, but the range is not checked."""
    U, V = _row_pairs(U, V, shared=True)
    T, n = U.shape
    q = field.q
    if T * (q + 1) > _BINCOUNT_CELL_CAP:
        both_zero, best = _sorted_census(_ratio_bins(field, U, V), q)
        return n - both_zero - best
    rows = max(1, _BLOCK_BUDGET // max(q + 2, n))
    if T <= rows:  # one block, as a decode scan of a small code is: no output array or slices
        return _census_angles(field, U, V)
    out = np.empty(T, dtype=np.int64)
    for s in range(0, T, rows):
        v = V if len(V) == 1 else V[s : s + rows]
        out[s : s + rows] = _census_angles(field, U[s : s + rows], v)
    return out


def _angle_table(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len A, len B) angles from every row of A to every row of B.

    One kernel call per row of the shorter side, that row shared as V by
    every row of the longer side: the angle is symmetric, so the table is
    filled row by row with the shorter side along its first axis and is
    returned as its transposed view when A is the longer side."""
    if len(A) > len(B):
        return _angle_table(field, B, A).T
    table = np.empty((len(A), len(B)), dtype=np.int64)
    for i in range(len(A)):
        table[i] = angle_fast_rows(field, B, A[i : i + 1])
    return table


def angle_naive_rows(field: Field, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise brute force: min over nonzero c of d_H(u, c*v).

    Over row blocks of about ``_BLOCK_BUDGET`` elements, ``Field.multiples``
    yields c*v for every nonzero c into one narrow buffer, and each pass
    counts its mismatches with u.  Never forms u_i / v_i, so it stays
    independent of the census.  U and V must have the same shape and hold
    integer encodings in [0, q); a non-integer dtype raises InvalidInput,
    but the range is not checked.
    """
    U, V = _row_pairs(U, V, shared=False)
    T, n = U.shape
    best = np.full(T, n, dtype=np.int64)
    rows = max(1, _BLOCK_BUDGET // n)
    neq = np.empty((min(rows, T), n), dtype=bool)
    dist = np.empty(neq.shape[0], dtype=np.uint16 if n < 1 << 16 else np.uint32)  # holds n
    for s in range(0, T, rows):
        u = U[s : s + rows]
        m = len(u)
        ne, d, b = neq[:m], dist[:m], best[s : s + m]
        for k, w in enumerate(field.multiples(V[s : s + m])):
            if k == 0:  # compare in the multiples' dtype, not with a cast every pass
                u = u.astype(w.dtype)
            np.not_equal(w, u, out=ne)
            # count the mismatches as bytes into the narrow dist: far cheaper than a bool sum
            np.add.reduce(ne.view(np.uint8), axis=1, dtype=d.dtype, out=d)
            np.minimum(b, d, out=b)
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
    counts = _pair_counts(u, v)
    return len(u) - int(counts[0]) - int(counts[1 : u.field.q].max())


def _pair_counts(u: Vector, v: Vector) -> np.ndarray:
    """(q + 2,) ratio-bin counts of a pair, which must be nonzero: the
    census's one-row block (``_slice_counts``)."""
    _require_same_space(u, v)
    q = u.field.q
    counts = _slice_counts(u.field, u.coords[None, :], v.coords[None, :])[:, 0]
    # u is zero iff bins 1..q are empty, v iff bins 1..q-1 and q+1 are
    both = counts[1:q].any()
    if not (both or counts[q]) or not (both or counts[q + 1]):
        raise ZeroVector("the angle is defined only for nonzero vectors")
    return counts


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
        lead = _first_nonzero(self.rep.coords)
        if lead == 0:
            raise ZeroVector("a projective point needs a nonzero representative")
        if lead != 1:
            raise InvalidInput("representative is not normalized; use projectivize()")

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
        return f"ProjectivePoint([{format_vector(self.rep)}])"


def projectivize(u: Vector) -> ProjectivePoint:
    """Canonical representative of the line through u (u nonzero): its
    ``normalize_rows`` row, or u itself when already normalized."""
    if u.is_zero():
        raise ZeroVector("the zero vector spans no projective point")
    row = u.coords[None]
    rep = normalize_rows(u.field, row)
    return ProjectivePoint(u if rep is row else Vector(u.field, rep[0]))


def normalize_rows(field: Field, M: np.ndarray) -> np.ndarray:
    """Canonical projective representatives for each (nonzero) row of M:
    M itself when every row's first nonzero coordinate is already 1."""
    M = np.atleast_2d(M)
    first_nz = (M != 0).argmax(axis=1)
    lead = M[np.arange(M.shape[0]), first_nz]
    if (lead == 1).all():
        return M
    return field.mul_array(field.inv_table[lead][:, None], M)


def projective_distance(a: ProjectivePoint, b: ProjectivePoint) -> int:
    """The induced metric on projective points (angle of representatives)."""
    return angle_fast(a.rep, b.rep)
