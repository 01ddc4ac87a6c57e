"""Linear codes over GF(q): construction, enumeration, minimum distance,
distance/angle to a code, and the angular unique decoder.

A code is a value, fixed by a full-rank k x n generator matrix, so every
table cached on it describes it for life.  Every nonzero codeword is a
multiple of a direction, so the reference answer to every code query is a
scan of the direction matrix (``projective_codeword_matrix``): the
desk-scale regime the enumeration guard (q^k <= 2^20) permits.  That matrix holds each direction's
normalized representative (first nonzero coordinate 1), so decoders return
its rows as projective points as they stand.  It and ``codeword_matrix``
come from one row-blocked enumeration (``_enumerate``) in one format:
read-only, in the narrowest unsigned dtype that fits q - 1.  Every angle
scan of it is an ``_angle_table`` call, and every least-angle answer
asserts the angular unique-decoding theorem (``_assert_unique``).

Every one-word least-angle query (``angular_decode``, ``angle_to_code``
and so ``dist_to_code``) reads ``_least``, which tries two exact
shortcuts before the scan, in this order, on a Reed-Solomon code whose
scan covers at least ``_FAST_MIN_SCAN`` positions (directions x length):

1. Berlekamp-Welch, with radius t = (d - 1) // 2, solved by Gao's
   extended-Euclid algorithm on Python ints (``berlekamp_welch``).  If it
   yields a nonzero codeword c with d_H(u, c) <= t, the least angle is
   d_H(u, c), at the direction of c alone.  This is sound whatever
   Berlekamp-Welch computed: c = f G is a codeword by construction and its
   distance is counted, and every other nonzero codeword, beta c included,
   lies at distance >= d - t > t.  Its per-code tables (``LinearCode._rs``)
   are built on a code's first call.
2. Information sets, where C(n, k) (k + 1) <= D, the number of
   directions.  The candidates C_S = u_S G_S^-1 G, one per information
   set S on which u does not vanish, are nonzero codewords, so each lies
   at Hamming distance d_H(u, C_S) >= the angle of its direction >= the
   least angle a.  Conversely, if a <= d - 1, some beta c at the least
   direction agrees with u on n - a >= n - d + 1 positions.  No nonzero
   codeword vanishes on n - d + 1 positions, so those positions hold an
   information set S, and the codeword C_S that re-encodes u from S is
   beta c, at distance a (Prange, "The use of information sets in
   decoding cyclic codes", IRE Trans. IT 1962).  So if the least
   candidate distance is <= d - 1, it is a, and the directions of the
   candidates at that distance are exactly the scan's tied directions.
   No ratio census is needed, and since C_S equals u on S by
   construction, only the n - k positions off S are compared.  A
   Reed-Solomon code with distinct points is MDS (d = n - k + 1), so
   every k-subset is an information set, and some candidate agrees with
   u on k positions: its distance is <= n - k = d - 1 always.  A least
   distance of d or more still falls back to the scan, as the guard of
   that argument.  The maps G_S^-1 G off S are Lagrange basis
   polynomials evaluated at the points, built on a code's first such
   query (``_ReedSolomon.infosets``, 511 KB on RS[15,5]/GF(16)) from the
   log differences of the points that step 1's tables hold.

Otherwise, and always for ``projective_list_decode``, ``decode_rows``
and ``min_distance``, the direction matrix is scanned.  The one-word
decoders build their result points in one place, ``_points``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# angle_fast_rows is bound here too so that perfbench's selftest and tracer,
# which rebind it in every module that looks it up, find it
from .angle import ProjectivePoint, _angle_table, angle_fast_rows, normalize_rows  # noqa: F401
from .errors import (
    DuplicatePoints,
    EnumerationTooLarge,
    FieldMismatch,
    InvalidInput,
    LengthMismatch,
    RankDeficient,
    TooManyPoints,
    UniqueDecodingViolated,
    ZeroVector,
)
from .gf import _BLOCK_ELEMENTS, Field, _integer
from .vectors import Vector, coordinate_array, format_vector, hamming_weight

ENUMERATION_CAP = 1 << 20

# Cells (words x directions) of the int64 angle table decode_rows builds
# per chunk of words: 2 MiB, whatever the number of words.  Each kernel
# call within a chunk holds one row of the shorter side against the
# longer side.
_DECODE_CHUNK_CELLS = 1 << 18

# Least scan size, directions x length, at which _least tries
# Berlekamp-Welch and the information sets before the scan on a
# Reed-Solomon code.  Warm angular_decode, median over 40 words, range of
# 3 interleaved rounds, scan vs shortcuts, 2-core Xeon, near words then
# uniform words, in us: RS[7,3]/GF(7) (399 positions) 34-39 vs 37-42 and
# 56-64 vs 82-94; RS[8,4]/GF(8) (4,680) 60-64 vs 33-37 and 81-89 vs
# 177-186; RS[9,4]/GF(9) (7,380) 73-74 vs 63-65 and 74-78 vs 216-232;
# RS[10,4]/GF(11) (14,640) 114-124 vs 44-50 and 117-126 vs 210-219;
# RS[11,4]/GF(11) (16,104) 109-118 vs 44-49 and 117-126 vs 156-172;
# RS[13,4]/GF(13) (30,940) 193-196 vs 50-57 and 220-231 vs 265-276;
# RS[10,4]/GF(16) (43,690) 315-316 vs 40-46 and 320-370 vs 211-225;
# RS[15,5]/GF(16) (1,048,575) 6.3-7.8 ms vs 56-81 and 7.2-8.9 ms vs
# 0.43-0.78 ms.  Near words gain from 4,680 positions on, uniform words
# (which fail Berlekamp-Welch first) only above 30,940.  Three near words
# to one uniform, the decode benchmarks' mix, gain from 14,640 on and
# lose at 7,380, so the gate sits between the two.
_FAST_MIN_SCAN = 1 << 13


def row_reduce(field: Field, M: np.ndarray) -> tuple[np.ndarray, int]:
    """Reduced row-echelon form over the field; returns (rref, rank).

    Gauss-Jordan with one broadcast elimination per pivot column: every
    other row subtracts its multiple of the pivot row at once."""
    A = np.array(M, dtype=np.int64)
    rows, cols = A.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        pivots = np.flatnonzero(A[r:, col])
        if pivots.size == 0:
            continue
        i = r + int(pivots[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        # rows r.. are zero left of col, so only columns col.. change
        if A[r, col] != 1:
            A[r, col:] = field.mul_array(field.inv_table[A[r, col]], A[r, col:])
        factors = A[:, col].copy()
        factors[r] = 0
        if factors.any():
            A[:, col:] = field.sub_array(A[:, col:], field.mul_array(factors[:, None], A[r, col:]))
        r += 1
    return A, r


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code held by a full-rank generator matrix: a value.

    Assigning ``field``, ``generator``, ``k``, ``n`` or ``eval_points``
    raises ``AttributeError``, so the tables cached below, each built on
    first use, always describe the code.  Only ``make_rs_code`` sets
    ``eval_points``.  Codes compare and hash by identity."""

    field: Field
    generator: np.ndarray
    k: int = dataclass_field(init=False)
    n: int = dataclass_field(init=False)
    eval_points: np.ndarray | None = dataclass_field(default=None, init=False)

    def __post_init__(self):
        G = coordinate_array(self.field, self.generator, ndim=2)
        k, n = G.shape
        if k > n:
            raise RankDeficient(f"k = {k} rows cannot be independent in length n = {n}")
        _, rank = row_reduce(self.field, G)
        if rank < k:
            raise RankDeficient(f"generator rows are dependent (rank {rank} < k = {k})")
        for name, value in (("generator", G), ("k", k), ("n", n)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"LinearCode(q={self.field.q}, n={self.n}, k={self.k})"

    @functools.cached_property
    def _codewords(self) -> np.ndarray:
        """See ``codeword_matrix``."""
        return _enumerate(self, directions=False)

    @functools.cached_property
    def _projective(self) -> np.ndarray:
        """See ``projective_codeword_matrix``."""
        return _enumerate(self, directions=True)

    @functools.cached_property
    def _min_distance(self) -> int:
        return int(np.count_nonzero(projective_codeword_matrix(self), axis=1).min())

    @functools.cached_property
    def _rs(self) -> _ReedSolomon | None:
        """The Reed-Solomon tables of a code with ``eval_points``, else None."""
        if self.eval_points is None:
            return None
        return _ReedSolomon.build(self.field, self.generator, self.eval_points)


def make_code(field: Field, rows: Sequence) -> LinearCode:
    """Build a code from generator rows (Vectors or coordinate sequences)."""
    mat = []
    for row in rows:
        if isinstance(row, Vector):
            if row.field != field:
                raise FieldMismatch(f"row field {row.field!r} differs from {field!r}")
            row = row.coords
        mat.append(list(row))
    if not mat:
        raise InvalidInput("at least one generator row is required")
    if len({len(r) for r in mat}) != 1:
        raise InvalidInput("generator rows must have equal length")
    return LinearCode(field, mat)


def make_rs_code(field: Field, n: int, k: int, eval_points: Iterable[int] | None = None) -> LinearCode:
    """Reed-Solomon code: generator row i holds the i-th powers of the
    evaluation points (default: the first n field elements), which the code
    keeps as ``eval_points`` for Berlekamp-Welch and the information sets."""
    n = _integer("n", n)
    k = _integer("k", k)
    if n > field.q:
        raise TooManyPoints(f"n = {n} exceeds field order q = {field.q}")
    if not 1 <= k <= n:
        raise InvalidInput(f"need 1 <= k <= n, got k = {k}, n = {n}")
    if eval_points is None:
        points = np.arange(n, dtype=np.int64)
        points.setflags(write=False)
    else:
        points = coordinate_array(field, list(eval_points))
        if points.size != n:
            raise InvalidInput(f"expected {n} evaluation points, got {points.size}")
        if len(set(points.tolist())) != n:
            raise DuplicatePoints("evaluation points must be pairwise distinct")
    code = LinearCode(field, _powers(field, points, k))
    object.__setattr__(code, "eval_points", points)  # before any table is read
    return code


def _powers(field: Field, points: np.ndarray, k: int) -> np.ndarray:
    """The k x n matrix whose row i holds the i-th powers of the points."""
    G = np.empty((k, points.size), dtype=np.int64)
    G[0] = 1  # x^0 = 1, including at x = 0
    for i in range(1, k):
        G[i] = field.mul_array(G[i - 1], points)
    return G


def make_repetition_code(field: Field, n: int) -> LinearCode:
    """The [n, 1] code spanned by the all-ones vector."""
    n = _integer("n", n)
    if n < 1:
        raise InvalidInput(f"need n >= 1, got n = {n}")
    return LinearCode(field, np.ones((1, n), dtype=np.int64))


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def digit_rows(idx: np.ndarray, base: int, width: int) -> np.ndarray:
    """Row i holds the `width` base-`base` digits of idx[i], most significant
    first: the order itertools.product(range(base), repeat=width) gives."""
    return idx[:, None] // base ** np.arange(width - 1, -1, -1) % base


def _enumerate(code: LinearCode, directions: bool) -> np.ndarray:
    """Every codeword, or with ``directions`` one normalized codeword (first
    nonzero coordinate 1) per direction, as rows in ascending message order
    (base q, first digit most significant): write-protected, in the
    narrowest unsigned dtype that holds q - 1.  Rows are encoded in blocks
    of ``_BLOCK_ELEMENTS`` elements, so no int64 temporary outgrows a block.
    Raises EnumerationTooLarge past the guard, q^k > ENUMERATION_CAP."""
    field, q, k = code.field, code.field.q, code.k
    if q**k > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"q^k = {q}^{k} exceeds the {ENUMERATION_CAP} enumeration guard")
    # the first nonzero digit is 1 exactly for the indices in [q^e, 2 q^e)
    idx = np.concatenate([np.arange(q**e, 2 * q**e) for e in range(k)]) if directions else np.arange(q**k)
    M = np.empty((idx.size, code.n), dtype=np.min_scalar_type(q - 1))
    step = max(1, _BLOCK_ELEMENTS // code.n)
    for s in range(0, idx.size, step):
        C = _matmul(field, digit_rows(idx[s : s + step], q, k), code.generator)
        M[s : s + step] = normalize_rows(field, C) if directions else C
    M.setflags(write=False)
    return M


def _matmul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The (T, n) product A B over the field of a (T, k) and a (k, n) array;
    codewords m G when A holds messages and B is the generator."""
    if field.m == 1:
        return A @ B % field.p
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for j in range(B.shape[0]):
        acc = field.add_array(acc, field.mul_array(A[:, j : j + 1], B[j][None, :]))
    return acc


def codeword_matrix(code: LinearCode) -> np.ndarray:
    """All q^k codewords as rows, message-enumeration order (row 0 = 0),
    write-protected and in the narrowest unsigned dtype that holds q - 1."""
    return code._codewords


def projective_codeword_matrix(code: LinearCode) -> np.ndarray:
    """One normalized codeword per projective direction, write-protected
    and in the narrowest unsigned dtype that holds q - 1.

    Row i is the encoding of the i-th message, ascending, whose first
    nonzero entry is 1, scaled so that its own first nonzero coordinate is
    1: the representative ``ProjectivePoint`` holds."""
    return code._projective


def min_distance(code: LinearCode) -> int:
    """Minimum weight over nonzero codewords, i.e. over directions (cached)."""
    return code._min_distance


# ----------------------------------------------------------------------
# Reed-Solomon tables (see the module docstring)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _InfoSets:
    """Per-code tables of the information-set candidates.

    The s-th information set S holds the positions ``subsets[:, s]``
    (k-subsets in itertools.combinations order), and ``off[:, s]`` holds
    the n - k positions off S, ascending.  ``maps[j, :, s]`` is row j of
    G_S^-1 G at the positions off S; on S that map is the identity, so a
    candidate equals the word there and needs no table.  The sets run
    along the last axis, so a word's per-set logs broadcast along it.
    ``maps`` and ``log`` hold sentinel logs (``Field.sentinel_log_tables``),
    so one gather of ``exp`` multiplies, in the narrowest unsigned dtype
    that holds 4(q - 1), the largest sum of two logs; ``exp`` is in the
    narrowest dtype that holds q - 1.  Together they take 511 KB on
    RS[15,5]/GF(16), 360 KB of it the intp positions.
    """

    subsets: np.ndarray
    off: np.ndarray
    maps: np.ndarray
    log: np.ndarray
    exp: np.ndarray


@dataclass(frozen=True)
class _ReedSolomon:
    """A Reed-Solomon code's tables over its evaluation points
    x_0 .. x_(n-1): both shortcuts are Lagrange forms over the points.

    ``log_diff[i, t]`` is log(x_i - x_t), 0 on the diagonal.  ``g0``
    holds the coefficients of g0 = prod (x - x_i), constant term first.
    ``lagrange[i, j]`` is the sentinel log (``Field.mul_tables``) of the
    x^j coefficient of the Lagrange basis polynomial of x_i, and
    ``generator_log`` holds the generator's sentinel logs, so the
    interpolant of a word and a message's codeword are each one
    ``_log_vecmat``.  ``poly`` does the Euclid's Python-int steps.  These
    are built with the object; ``infosets`` on first use.

    It holds the code's parts, never the code: a code <-> tables cycle
    would keep a dropped code's direction matrix until cyclic GC.
    """

    field: Field
    log_diff: np.ndarray
    g0: tuple[int, ...]
    lagrange: np.ndarray
    generator_log: np.ndarray
    poly: _Poly

    @classmethod
    def build(cls, field: Field, generator: np.ndarray, points: np.ndarray) -> _ReedSolomon:
        """The tables of the code with this generator, the powers of these
        points.  The Lagrange basis polynomial of x_i is w_i g0 / (x - x_i),
        with w_i = 1 / prod over j != i of (x_i - x_j).  The quotients come
        from one synthetic division per coefficient, over every point at
        once; the weights from the log differences."""
        n, L = points.size, field.q - 1
        log, _ = field.mul_tables
        g0, up = np.zeros((2, n + 1), dtype=np.int64)
        g0[0] = 1
        for xi in points.tolist():  # g0 (x - x_i): x g0 shifts g0 up, whose top is 0 until the last step
            up[1:] = g0[:-1]
            g0 = field.sub_array(up, field.mul_array(xi, g0))
        Q = np.empty((n, n), dtype=np.int64)  # Q[i] = g0 / (x - x_i)
        Q[:, n - 1] = 1
        for j in range(n - 1, 0, -1):
            Q[:, j - 1] = field.add_array(g0[j], field.mul_array(points, Q[:, j]))
        D = field.log_table[field.sub_array(points[:, None], points[None, :])]
        np.fill_diagonal(D, 0)
        w = field.exp_table[-D.sum(axis=1) % L]
        tables = cls(field, D, tuple(g0.tolist()), log.take(field.mul_array(w[:, None], Q)),
                     log.take(generator), _Poly(field))
        for t in (tables.log_diff, tables.lagrange, tables.generator_log):
            t.setflags(write=False)
        return tables

    @functools.cached_property
    def infosets(self) -> _InfoSets:
        """The information-set tables, built on first use.

        Row j of G_S^-1 G maps a codeword's value at position S_j to its
        values at every position, so at position i off S it is the
        Lagrange basis polynomial prod over t in S - {S_j} of
        (x - x_t) / (x_{S_j} - x_t), at x = x_i.  With D = ``log_diff`` and
        N[i] the sum of D[i, t] over t in S, its log is
        N[i] - D[i, S_j] - N[S_j]."""
        field, L = self.field, self.field.q - 1
        k, n = self.generator_log.shape
        log, exp = field.sentinel_log_tables()
        log = log.astype(np.min_scalar_type(4 * L))
        # unsigned sums below 3L, so x - L and x - 2L wrap above x where x < L
        w = np.min_scalar_type(3 * L)
        D = self.log_diff.astype(w)
        subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                              dtype=np.intp).reshape(-1, k)  # (sets, k)
        in_S = np.zeros((len(subsets), n), dtype=bool)
        np.put_along_axis(in_S, subsets, True, axis=1)
        off = (np.flatnonzero(~in_S) % n).reshape(len(subsets), n - k).T.copy()  # (n - k, sets), ascending
        subsets = subsets.T.copy()  # (k, sets)
        flat = D.ravel()
        at_S = flat.take(subsets * n + subsets[:, None, :])  # (k, k, sets): D[S_t, S_j] at [j, t]
        at_off = flat.take(off * n + subsets[:, None, :])  # (k, n - k, sets): D[i, S_j] at [j, i]
        N_S, N_off = ((a.sum(axis=0, dtype=np.min_scalar_type(k * L)) % L).astype(w) for a in (at_S, at_off))
        x = (N_off + w.type(2 * L)) - at_off
        x -= N_S[:, None, :]
        x = np.minimum(x, np.minimum(x - w.type(L), x - w.type(2 * L)))  # x mod L
        maps = x.astype(log.dtype, copy=False)
        tables = _InfoSets(subsets, off, maps, log, exp.astype(np.min_scalar_type(L)))
        for t in vars(tables).values():
            t.setflags(write=False)
        return tables


def _infosets_pay(code: LinearCode) -> bool:
    """True when the C(n, k) candidates, k gathers over the n - k positions
    off their set and one compare each, number at most the D directions
    of the scan, as k + 1 rows each."""
    q = code.field.q
    return math.comb(code.n, code.k) * (code.k + 1) <= (q**code.k - 1) // (q - 1)


def _infoset_candidates(u: np.ndarray, code: LinearCode, tables: _InfoSets) -> tuple[np.ndarray, np.ndarray]:
    """(dist, C): the Hamming distance d_H(u, C_S) from the nonzero word u
    to each candidate C_S = u_S G_S^-1 G, one per information set S, and
    the candidates' values at the positions off S, (n - k, sets).

    C_S equals u on S, so only the positions off S are compared.  Where u
    vanishes on S the candidate is the zero codeword, which has no
    direction: its distance reads n + 1, past every codeword's."""
    field, n = code.field, code.n
    logs = tables.log.take(u).take(tables.subsets)  # (k, sets)
    # one term u_{S_j} (G_S^-1 G)_j at a time: take copies its index to intp
    C = tables.exp.take(logs[0] + tables.maps[0])
    for j in range(1, code.k):
        C = field.add_array(C, tables.exp.take(logs[j] + tables.maps[j]))
    # a narrow sum: count_nonzero would sum intp, 5x slower on RS[15,5]
    dist = (C != u.astype(C.dtype).take(tables.off)).sum(axis=0, dtype=np.min_scalar_type(n + 1))
    dist[(logs == tables.log[0]).all(axis=0)] = n + 1  # u_S = 0
    return dist, C


def _candidate_rows(u: np.ndarray, tables: _InfoSets, C: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The full candidates of the given information sets, as rows: u on S,
    their values C (see ``_infoset_candidates``) off S."""
    rows = np.tile(u, (len(sets), 1))
    np.put_along_axis(rows, tables.off[:, sets].T, C[:, sets].T, axis=1)
    return rows


def _sorted_distinct(A: np.ndarray) -> np.ndarray:
    """The distinct elements of a 1-D array, or rows of a 2-D one, in
    ascending (lexicographic) order: one sort and a mask of the run starts.
    np.unique would do, but its first call imports numpy.ma, about 13 ms."""
    keys = A.reshape(len(A), -1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.ones(len(A), dtype=bool)
    starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return A[order[starts]]


def _direction_indices(code: LinearCode, C: np.ndarray) -> np.ndarray:
    """Row of projective_codeword_matrix of each nonzero codeword row of C,
    on a Reed-Solomon code.

    A codeword's message holds the coefficients of the polynomial it
    evaluates at the points, which is its interpolant: C times the first k
    columns of the Lagrange coefficients.  A normalized message whose first
    nonzero digit sits at exponent e spells a value in [q^e, 2 q^e), and
    the direction rows list those ranges for e = 0, 1, ...: so its row is
    (q^e - 1)/(q - 1) + value - q^e."""
    field, q, k = code.field, code.field.q, code.k
    messages = normalize_rows(field, _log_vecmat(field, field.mul_tables[0].take(C.T), code._rs.lagrange[:, :k]))
    e = k - 1 - (messages != 0).argmax(axis=1)
    value = messages @ q ** np.arange(k - 1, -1, -1)
    return (q**e - 1) // (q - 1) + value - q**e


# ----------------------------------------------------------------------
# Distance and angle to a code
# ----------------------------------------------------------------------

def _check_member_shape(u: Vector, code: LinearCode):
    if u.field != code.field:
        raise FieldMismatch(f"{u.field!r} vs code over {code.field!r}")
    if len(u) != code.n:
        raise LengthMismatch(f"vector length {len(u)} != code length {code.n}")


def _check_word(u: Vector, code: LinearCode):
    _check_member_shape(u, code)
    if u.is_zero():
        raise ZeroVector("the angle to a code is defined only for nonzero vectors")


def dist_to_code(u: Vector, code: LinearCode) -> int:
    """Classical distance: min over ALL codewords (including 0) of d_H(u, c)."""
    _check_member_shape(u, code)
    return 0 if u.is_zero() else min(hamming_weight(u), angle_to_code(u, code))


def angle_to_code(u: Vector, code: LinearCode) -> int:
    """min over NONZERO codewords of d_H(u, c); at least dist_to_code(u, code)."""
    _check_word(u, code)
    return _least(u.coords, code, min_distance(code))[0]


# ----------------------------------------------------------------------
# Angular decoding
# ----------------------------------------------------------------------

class DecodeKind(Enum):
    UNIQUE_DIRECTION = "unique_direction"
    BEYOND_RADIUS = "beyond_radius"


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of angular decoding.

    ``best`` holds (direction, angle) pairs: a singleton for
    UNIQUE_DIRECTION, all tied minimizers (enumeration order) for
    BEYOND_RADIUS.  The unique-decoding radius used is min_distance / 2,
    compared exactly in integers (2 * angle < min_distance).
    """

    kind: DecodeKind
    best: tuple[tuple[ProjectivePoint, int], ...]
    min_distance: int

    @property
    def radius_bound(self) -> float:
        return self.min_distance / 2

    @property
    def unique(self) -> bool:
        return self.kind is DecodeKind.UNIQUE_DIRECTION


class _Poly:
    """Polynomials over the field as lists of Python ints, constant term
    first and without leading zeros (the zero polynomial is []).

    Products are exp[log a + log b] over the sentinel-log tables; sums are
    a ^ b for p = 2, (a + b) % p for m = 1 and the Zech-log gather of
    ``Field.add_tables`` otherwise, the formula ``add_array`` uses."""

    def __init__(self, field: Field):
        self.log, self.exp, *add = field._int_tables
        self.L = field.q - 1
        self.neg = self.log[field.p - 1]  # log(-1): p - 1 encodes -1
        if field.p == 2:
            self.add = operator.xor
        elif field.m == 1:
            p = field.p
            self.add = lambda a, b: (a + b) % p
        else:
            lg, ex, (B, Z) = self.log, self.exp, add
            self.add = lambda a, b: ex[lg[a] + Z[B[b] - lg[a]]]

    def divmod(self, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        """(quotient, remainder) of a by the nonzero b."""
        lg, ex, add, L = self.log, self.exp, self.add, self.L
        a = list(a)
        db = len(b) - 1
        low = [lg[c] for c in b[:db]]
        inv = L - lg[b[db]]  # log of 1 / lead(b)
        quo = [0] * max(len(a) - db, 0)
        for s in range(len(a) - 1 - db, -1, -1):
            top = a[s + db]
            if top:
                lq = (lg[top] + inv) % L
                quo[s] = ex[lq]
                lq = (lq + self.neg) % L  # a -= quo_s x^s b
                for j, l in enumerate(low):
                    a[s + j] = add(a[s + j], ex[lq + l])
        return quo, _trim(a[:db])

    def sub_mul(self, a: list[int], b: list[int], c: list[int]) -> list[int]:
        """a - b c."""
        lg, ex, add, L = self.log, self.exp, self.add, self.L
        out = list(a) + [0] * max(len(b) + len(c) - 1 - len(a), 0)
        lc = [lg[x] for x in c]
        for i, x in enumerate(b):
            if x:
                lb = (lg[x] + self.neg) % L
                for j, l in enumerate(lc):
                    out[i + j] = add(out[i + j], ex[lb + l])
        return _trim(out)


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _log_vecmat(field: Field, v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The product v M over the field of a vector and a matrix given as
    sentinel logs, or (v^T M) of a matrix v whose columns are the vectors:
    one exp gather of the terms, then their field sum over M's rows, by one
    reduction for p = 2 or m = 1, else by add_array calls that halve the
    rows each time."""
    A = field.mul_tables[1].take(v[..., None] + (M if v.ndim == 1 else M[:, None]))
    if field.m == 1:
        return A.sum(axis=0) % field.p
    if field.p == 2:
        return np.bitwise_xor.reduce(A, axis=0)
    while len(A) > 1:
        half = len(A) // 2
        A = np.concatenate([field.add_array(A[:half], A[half : 2 * half]), A[2 * half :]])
    return A[0]


def berlekamp_welch(code: LinearCode, u: np.ndarray, t: int) -> tuple[np.ndarray, int] | None:
    """(c, d_H(u, c)) for a nonzero codeword c within distance t of the word
    u, found on the code's evaluation points; else None.  Needs
    0 <= t <= (n - k) // 2, the unique decoding radius of an RS code.

    Solves the Welch-Berlekamp key equation by Gao's algorithm ("A new
    algorithm for decoding Reed-Solomon codes", 2003): g1 interpolates u
    at the points and g0 = prod (x - x_i); the extended Euclidean
    algorithm on (g0, g1) stops at the first remainder r = v g1 mod g0 of
    degree < n - t, where deg v <= t.  If f agrees with u outside at most t
    positions, the error locator E satisfies E g1 = E f mod g0 with
    deg(E f) < n - t, so (E f, E) is a multiple of (r, v) and f = r / v.
    f is taken only from an exact division with deg f < k.  c = f G is a
    codeword by construction, and it is returned only once d_H(u, c) <= t
    is counted; a word beyond radius t or c = 0 gives None.

    Per word: one gather and field sum for g1, at most about t + 1 Euclid
    divisions and one final division on Python ints (O(n t) products and
    sums), and one gather for c.  The tables (``LinearCode._rs``) are built
    on the code's first call.
    """
    field, n, k = code.field, code.n, code.k
    t = _integer("t", t)
    if not 0 <= t <= (n - k) // 2:
        raise InvalidInput(f"need 0 <= t <= (n - k) // 2 = {(n - k) // 2}, got t = {t}")
    tables = code._rs
    if tables is None:
        raise InvalidInput("berlekamp_welch needs a code built by make_rs_code")
    poly = tables.poly
    g1 = _log_vecmat(field, field.mul_tables[0].take(u), tables.lagrange)
    r0, r1 = tables.g0, _trim(g1.tolist())
    v0, v1 = [], [1]
    while len(r1) > n - t:
        quo, rem = poly.divmod(r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, poly.sub_mul(v0, quo, v1)
    f, rem = poly.divmod(r1, v1)
    if rem or not f or len(f) > k:
        return None
    f_log = np.full(k, 2 * (field.q - 1), dtype=np.int64)  # the sentinel log of 0
    f_log[: len(f)] = [poly.log[a] for a in f]
    c = _log_vecmat(field, f_log, tables.generator_log)
    dist = int(np.count_nonzero(c != u))
    return (c, dist) if dist <= t else None


def _least(u: np.ndarray, code: LinearCode, d: int) -> tuple[int, np.ndarray]:
    """(a, rows): the least angle a from the checked nonzero int64 word u
    to a direction of the code of minimum distance d, and the normalized
    rows of the directions at a, in enumeration order.

    The one place that picks the decoder: on a Reed-Solomon code whose
    scan covers at least ``_FAST_MIN_SCAN`` positions, Berlekamp-Welch and
    then the information sets, as the module docstring sets out; each
    answer is exact or absent.  Otherwise every direction is scanned.
    Every answer is checked by ``_assert_unique``."""
    q, rows = code.field.q, None
    if code.eval_points is not None and (q**code.k - 1) // (q - 1) * code.n >= _FAST_MIN_SCAN:
        near = berlekamp_welch(code, u, (d - 1) // 2)
        if near is not None:
            c, a = near
            rows = normalize_rows(code.field, c[None])
        elif _infosets_pay(code):
            tables = code._rs.infosets
            dist, C = _infoset_candidates(u, code, tables)
            a = int(dist.min())
            if a < d:
                codewords = _sorted_distinct(_candidate_rows(u, tables, C, np.flatnonzero(dist == a)))
                rows = projective_codeword_matrix(code)[_sorted_distinct(_direction_indices(code, codewords))]
    if rows is None:
        P = projective_codeword_matrix(code)
        angles = _angle_table(code.field, u[None, :], P)[0]
        a = int(angles.min())
        rows = P[angles == a]
    _assert_unique(u, a, len(rows) > 1, d)
    return a, rows


def _assert_unique(u: np.ndarray, a: int, tied: bool, d: int):
    """Raise UniqueDecodingViolated if directions are ``tied`` at the least
    angle a from the word u with 2a < d, where the theorem allows one."""
    if tied and 2 * a < d:
        raise UniqueDecodingViolated(
            f"unique decoding violated: more than one direction at angle {a} < d/2 = {d}/2 "
            f"from u={format_vector(u)}"
        )


def _points(field: Field, rows: np.ndarray, angles: Iterable[int]) -> list[tuple[ProjectivePoint, int]]:
    """(point, angle) pairs of normalized direction rows and their angles:
    the one place a decoder's rows become ``ProjectivePoint``s."""
    return [(ProjectivePoint(Vector(field, row)), int(a)) for row, a in zip(rows, angles)]


def angular_decode(u: Vector, code: LinearCode) -> DecodeOutcome:
    """Find the closest codeword direction(s) to u, by ``_least``, which
    asserts that one direction lies at a best angle a with 2a < d
    (strictly inside the unique decoding radius)."""
    _check_word(u, code)
    d = min_distance(code)
    a, rows = _least(u.coords, code, d)
    kind = DecodeKind.UNIQUE_DIRECTION if 2 * a < d else DecodeKind.BEYOND_RADIUS
    return DecodeOutcome(kind, tuple(_points(code.field, rows, itertools.repeat(a))), d)


def projective_list_decode(u: Vector, code: LinearCode, rho: int) -> list[tuple[ProjectivePoint, int]]:
    """All codeword directions with angle < rho, sorted by angle then
    enumeration order.  Has size <= 1 whenever 2 * rho <= min_distance."""
    rho = _integer("rho", rho)
    _check_word(u, code)
    P = projective_codeword_matrix(code)
    angles = _angle_table(code.field, u.coords[None, :], P)[0]
    hits = np.flatnonzero(angles < rho)
    hits = hits[np.argsort(angles[hits], kind="stable")]
    return _points(code.field, P[hits], angles[hits])


def decode_rows(code: LinearCode, U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular decoding of every row of U, a (T, n) array of nonzero words.

    Returns int64 arrays (best, angle, runner_up): the index of the first
    direction (row of projective_codeword_matrix) at the least angle, that
    angle, and the second-least angle counting ties (n + 1 for a single
    direction).  Word t decodes uniquely iff 2 * angle[t] < min_distance,
    and its list at rho holds at most one direction iff runner_up[t] >= rho.
    The first word with a tie inside that radius fails ``_assert_unique``.
    """
    U = coordinate_array(code.field, U, ndim=2)
    if U.shape[1] != code.n:
        raise LengthMismatch(f"word length {U.shape[1]} != code length {code.n}")
    if not U.any(axis=1).all():
        raise ZeroVector("cannot decode the zero vector")
    d = min_distance(code)
    P = projective_codeword_matrix(code)
    D = P.shape[0]
    best, angle = np.empty((2, len(U)), dtype=np.int64)
    runner_up = np.full(len(U), code.n + 1, dtype=np.int64)
    step = max(1, _DECODE_CHUNK_CELLS // D)
    for start in range(0, len(U), step):
        rows = slice(start, start + step)
        A = _angle_table(code.field, U[rows], P)
        best[rows] = A.argmin(axis=1)
        angle[rows] = A.min(axis=1)
        if D > 1:
            runner_up[rows] = np.partition(A, 1, axis=1)[:, 1]
    suspect = np.flatnonzero((2 * angle < d) & (runner_up == angle))
    if suspect.size:
        _assert_unique(U[suspect[0]], int(angle[suspect[0]]), True, d)
    return best, angle, runner_up
