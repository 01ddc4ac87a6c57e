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

1. Berlekamp-Welch, where n^2 <= D, the number of directions: its n x n
   tables and O(n t) Python Euclid steps cost more than a scan of fewer
   (RS[1024,2]/GF(2^10): 209 ms a word against 6-9 ms).  Radius
   t = (d - 1) // 2, solved by Gao's extended-Euclid algorithm on Python
   ints (``berlekamp_welch``).  If it yields a nonzero codeword c with
   d_H(u, c) <= t, the least angle is d_H(u, c), at the direction of c
   alone.  This is sound whatever Berlekamp-Welch computed: c = f G is a
   codeword by construction and its distance is counted, and every other
   nonzero codeword, beta c included, lies at distance >= d - t > t.  Its
   per-code tables (``LinearCode._rs``) are built on a code's first call.
2. Information sets, where C(n, k) (k + 1) <= D (so n^2 <= D on such a
   scan).  The candidates C_S = u_S G_S^-1 G, one per information
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
   No ratio census is needed.  A Reed-Solomon code with distinct points
   is MDS (d = n - k + 1), so every k-subset is an information set, and
   some candidate agrees with u on k positions: its distance is
   <= n - k = d - 1 always.  A least distance of d or more still falls
   back to the scan, as the guard of that argument.
   The distances come from one check per (k + 1)-subset T.  C_S is the
   polynomial of degree < k through u on S, so it equals u at a position
   i off S exactly when u on T = S + {i} lies on such a polynomial: when
   the k-th divided difference, the sum over j in T of
   u_j / prod over t in T - {j} of (x_j - x_t), is 0.  So d_H(u, C_S) is
   the number of nonzero checks among the n - k sets S + {i}, and the
   C(n, k + 1) checks take (n - k) C(n, k) products, k times fewer than
   re-encoding every candidate.  Two sets give one codeword exactly when
   they have one agreement set with u (an MDS code's codewords are equal
   once they agree on k positions), so ``angular_decode`` re-encodes one
   set per distinct tied codeword to find its direction, and
   ``angle_to_code`` stops at the angle and the number of those
   codewords.  The weights come from the log differences of the points
   that step 1's tables hold, on a code's first such query
   (``_ReedSolomon.infosets``, 565 KB on RS[15,5]/GF(16)).

Otherwise, and always for ``projective_list_decode``, ``decode_rows``
and ``min_distance``, the direction matrix is scanned.  The one-word
decoders build their result points in one place, ``_points``.
"""

from __future__ import annotations

import functools
import itertools
import math
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
# uniform words (the uniform words measured with one check per
# (k + 1)-subset), in us: RS[7,3]/GF(7) (399 positions) 34-39 vs 37-42 and
# 37-42 vs 65-68; RS[8,4]/GF(8) (4,680) 60-64 vs 33-37 and 69-75 vs
# 149-159; RS[9,4]/GF(9) (7,380) 73-74 vs 63-65 and 68-69 vs 196-209;
# RS[10,4]/GF(11) (14,640) 114-124 vs 44-50 and 108-111 vs 157-165;
# RS[11,4]/GF(11) (16,104) 109-118 vs 44-49 and 113-116 vs 151-161;
# RS[13,4]/GF(13) (30,940) 193-196 vs 50-57 and 190-194 vs 236-241;
# RS[10,4]/GF(16) (43,690) 315-316 vs 40-46 and 308-321 vs 158-177;
# RS[15,5]/GF(16) (1,048,575) 6.3-7.8 ms vs 56-81 and 6.1 ms vs
# 0.28-0.33 ms.  Near words gain from 4,680 positions on, uniform words
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
        C = field.matmul(digit_rows(idx[s : s + step], q, k), code.generator)
        M[s : s + step] = normalize_rows(field, C) if directions else C
    M.setflags(write=False)
    return M


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
    """Per-code tables of the information-set distances.

    The t-th check set T, a (k + 1)-subset in itertools.combinations
    order, holds the positions ``positions[:, t]``, ascending, and
    ``weights[j, t]`` is the sentinel log (``Field.mul_tables``) of its
    weight w_(T, j) = 1 / prod over T_s != T_j of (x_(T_j) - x_(T_s)).
    ``bits[t]`` is the bitmask of T.  The s-th information set S, a
    k-subset in the same order, holds ``subsets[:, s]``, and ``sup[r, s]``
    is the check set S + {i} of the r-th position i off S, ascending.  The
    sets run along the last axis.  ``log`` is the sentinel-log table in the
    narrowest unsigned dtype that holds 4(q - 1), the largest sum of two
    logs; ``exp`` is in the narrowest dtype that holds q - 1.  Together
    they take 565 KB on RS[15,5]/GF(16), 480 KB of it the intp
    ``positions`` and ``sup`` that each word's gathers index by.
    """

    positions: np.ndarray
    weights: np.ndarray
    bits: np.ndarray
    subsets: np.ndarray
    sup: np.ndarray
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

        With D = ``log_diff``, the log of the weight of T_j in T is minus
        the sum of D[T_j, t] over t in T (D is 0 on the diagonal).  The
        index of a k-subset S in combinations order is C(n, k) - 1 minus
        the sum of C(n - 1 - S_l, k - l), l = 0 .. k - 1.  The bitmasks fit
        64 bits: the information sets pay only where n <= 26
        (``_infosets_pay``)."""
        field, L = self.field, self.field.q - 1
        k, n = self.generator_log.shape
        if n > 64:
            raise InvalidInput(f"the information-set tables hold n <= 64 positions, got n = {n}")
        log, exp = field.mul_tables
        log = log.astype(np.min_scalar_type(4 * L))

        def combinations(size):  # (size, sets) positions
            return np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), size)),
                               dtype=np.intp).reshape(-1, size).T.copy()

        # Every temporary below is one row of positions or a narrow (k + 1, sets)
        # array, so the build adds about the tables' own size to the heap:
        # freed 2-D intp temporaries leave heap that later words touch.
        positions, sets = combinations(k + 1), math.comb(n, k)
        D = self.log_diff.astype(np.min_scalar_type(k * L))
        weights = np.stack([D[T_j, positions].sum(axis=0, dtype=D.dtype) for T_j in positions])  # sums of logs
        binom = [np.array([math.comb(a, b) for a in range(n)]) for b in range(k + 1)]  # binom[b][a] = C(a, b)
        sup = np.empty((n - k, sets), dtype=np.intp)
        for j, T_j in enumerate(positions):  # T = S + {T_j}: the j positions of S below T_j leave T_j - j off S below it
            S = (T_s for s, T_s in enumerate(positions) if s != j)
            rank = sets - 1 - sum(binom[k - l].take(n - 1 - S_l) for l, S_l in enumerate(S))
            sup.put((T_j - j) * sets + rank, np.arange(positions.shape[1]))
        bits = functools.reduce(np.bitwise_or, (np.uint64(1) << T_s.astype(np.uint64) for T_s in positions))
        tables = _InfoSets(positions, ((L - weights % L) % L).astype(log.dtype), bits,
                           combinations(k).astype(np.min_scalar_type(n - 1)), sup, log, exp.astype(np.min_scalar_type(L)))
        for t in vars(tables).values():
            t.setflags(write=False)
        return tables


def _infosets_pay(code: LinearCode) -> bool:
    """True when the C(n, k) information sets, as k + 1 rows each, number
    at most the D directions of the scan.  The information sets then cost
    less than the scan's D n positions: the C(n, k + 1) checks of k + 1
    terms each take (k + 1) C(n, k + 1) = (n - k) C(n, k) products, and
    reading every distance from them as many gathers."""
    q = code.field.q
    return math.comb(code.n, code.k) * (code.k + 1) <= (q**code.k - 1) // (q - 1)


def _infoset_candidates(u: np.ndarray, code: LinearCode, tables: _InfoSets) -> tuple[np.ndarray, np.ndarray]:
    """(dist, checks): the Hamming distance d_H(u, C_S) from the nonzero
    word u to each candidate C_S = u_S G_S^-1 G, one per information set
    S, and the check of u on each check set T, the field sum of
    u_(T_j) w_(T, j), the k-th divided difference of u on T.

    The check is 0 exactly when u on T lies on a polynomial of degree < k
    (see the module docstring), so C_S equals u at a position i off S
    exactly when the check of S + {i} is 0.  Where u vanishes on S the
    candidate is the zero codeword, which has no direction: its distance
    reads n + 1, past every codeword's."""
    n, k = code.n, code.k
    logs = tables.log.take(u)
    # indexing, not take, by the read-only intp tables: take copies a read-only index
    checks = code.field.sum_array(tables.exp.take(logs[tables.positions] + tables.weights))
    # a narrow sum: count_nonzero would sum intp
    dist = (n - k) - (checks == 0)[tables.sup].sum(axis=0, dtype=np.min_scalar_type(n + 1))
    if np.count_nonzero(u) <= n - k:  # u may vanish on a k-subset
        dist[(logs.take(tables.subsets) == tables.log[0]).all(axis=0)] = n + 1
    return dist, checks


def _candidate_rows(u: np.ndarray, code: LinearCode, tables: _InfoSets, checks: np.ndarray,
                    sets: np.ndarray) -> np.ndarray:
    """The candidates C_S of the given information sets, as rows: u on S,
    and at the r-th position i off S the one value that zeroes the check
    c of T = S + {i}, u_i - c / w_(T, i).  The r positions off S below i
    are not in T, so i sits at T's slot i - r."""
    field, n, k = code.field, code.n, code.k
    in_S = np.zeros((len(sets), n), dtype=bool)
    np.put_along_axis(in_S, tables.subsets[:, sets].T.astype(np.intp), True, axis=1)
    off = np.flatnonzero(~in_S).reshape(len(sets), n - k) % n  # ascending
    T = tables.sup[:, sets].T
    # log c - log w + L lies in [1, 2L) for c != 0, and from the sentinel on for c = 0
    ratio = tables.exp.take(tables.log.take(checks.take(T)) + (field.q - 1 - tables.weights[off - np.arange(n - k), T]))
    rows = np.tile(u, (len(sets), 1))
    np.put_along_axis(rows, off, field.sub_array(u.take(off), ratio), axis=1)
    return rows


def _tied_rows(u: np.ndarray, code: LinearCode, tables: _InfoSets, checks: np.ndarray, sets: np.ndarray,
               a: int) -> np.ndarray:
    """The normalized rows, in enumeration order, of the directions of the
    candidates of the information sets at the least distance a < d.

    Each distinct codeword c at distance a is the candidate of exactly the
    k-subsets of its agreement set A (c_i = u_i), n - a positions: an MDS
    code's codewords are equal once they agree on k positions.  So sets
    with equal agreement sets give one codeword, and one set per agreement
    set, its first, is re-encoded.  Where n - a > k, A is the union of the
    check sets S + {i} that are 0.  Both de-duplications take np.unique's
    return_index, whose stable sort imports nothing: a value-only
    np.unique's first call imports numpy.ma, about 13 ms."""
    if code.n - a > code.k:
        sup = tables.sup[:, sets]
        agree = np.bitwise_or.reduce(np.where(checks.take(sup) == 0, tables.bits.take(sup), 0), axis=0)
        sets = sets[np.unique(agree, return_index=True)[1]]
    directions = _direction_indices(code, _candidate_rows(u, code, tables, checks, sets))
    return projective_codeword_matrix(code)[directions[np.unique(directions, return_index=True)[1]]]


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

    Products are exp[log a + log b] over the sentinel-log tables; the
    sums and log(-1) come from ``Field._int_tables``."""

    def __init__(self, field: Field):
        self.log, self.exp, self.add, self.neg = field._int_tables
        self.L = field.q - 1

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
    one exp gather of the terms, then their field sum over M's rows."""
    return field.sum_array(field.mul_tables[1].take(v[..., None] + (M if v.ndim == 1 else M[:, None])))


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
    f_log = np.full(k, poly.log[0], dtype=np.int64)  # the sentinel log of 0
    f_log[: len(f)] = [poly.log[a] for a in f]
    c = _log_vecmat(field, f_log, tables.generator_log)
    dist = int(np.count_nonzero(c != u))
    return (c, dist) if dist <= t else None


def _least(u: np.ndarray, code: LinearCode, d: int, rows: bool = False) -> tuple[int, np.ndarray | None]:
    """(a, rows): the least angle a from the checked nonzero int64 word u
    to a direction of the code of minimum distance d, and, when ``rows`` is
    asked for, the normalized rows of the directions at a, in enumeration
    order (else None).

    The one place that picks the decoder: on a Reed-Solomon code whose
    scan covers at least ``_FAST_MIN_SCAN`` positions, Berlekamp-Welch
    (where n^2 <= D) and then the information sets, as the module
    docstring sets out; each answer is exact or absent.  Otherwise every
    direction is scanned.  Every answer is checked by ``_assert_unique``,
    on the information sets by the number of distinct codewords at a:
    inside the radius, 2a < d, two of them are two directions, since
    d_H(c, beta c) = wt(c) >= d > 2a for beta != 1."""
    q, n, k = code.field.q, code.n, code.k
    D = (q**k - 1) // (q - 1)
    a = None
    if code.eval_points is not None and D * n >= _FAST_MIN_SCAN:
        near = berlekamp_welch(code, u, (d - 1) // 2) if n * n <= D else None
        if near is not None:
            c, a = near
            tied = False
            found = normalize_rows(code.field, c[None]) if rows else None
        elif _infosets_pay(code):
            tables = code._rs.infosets
            dist, checks = _infoset_candidates(u, code, tables)
            least = int(dist.min())
            if least < d:
                a, sets = least, np.flatnonzero(dist == least)
                # each codeword at distance a is the candidate of C(n - a, k) sets (see _tied_rows)
                tied = len(sets) > math.comb(n - a, k)
                found = _tied_rows(u, code, tables, checks, sets, a) if rows else None
    if a is None:
        P = projective_codeword_matrix(code)
        angles = _angle_table(code.field, u[None, :], P)[0]
        a = int(angles.min())
        found = P[angles == a]
        tied = len(found) > 1
    _assert_unique(u, a, tied, d)
    return a, found if rows else None


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
    a, rows = _least(u.coords, code, d, rows=True)
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
    best, angle, runner_up = np.empty((3, len(U)), dtype=np.int64)
    step = max(1, _DECODE_CHUNK_CELLS // len(P))
    for start in range(0, len(U), step):
        rows = slice(start, start + step)
        best[rows], angle[rows], runner_up[rows] = _decode_chunk(code, U[rows], P)
    suspect = np.flatnonzero((2 * angle < d) & (runner_up == angle))
    if suspect.size:
        _assert_unique(U[suspect[0]], int(angle[suspect[0]]), True, d)
    return best, angle, runner_up


def _decode_chunk(code: LinearCode, U: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decode_rows' (best, angle, runner_up) of one chunk of words.  Masked
    reductions stand in for argmin, which copies a transposed angle table,
    and partition, which copies any; the chunk's table is freed on return,
    before the next chunk's is built."""
    A = _angle_table(code.field, U, P)
    angle = A.min(axis=1)
    at_angle = A == angle[:, None]
    best = np.minimum.reduce(np.broadcast_to(np.arange(len(P)), A.shape), axis=1, where=at_angle, initial=len(P))
    tied = np.count_nonzero(at_angle, axis=1) > 1
    above = np.minimum.reduce(A, axis=1, where=np.logical_not(at_angle, out=at_angle), initial=code.n + 1)
    return best, angle, np.where(tied, angle, above)
