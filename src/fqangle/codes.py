"""Linear codes over GF(q): construction, enumeration, minimum distance,
distance/angle to a code, and the angular unique decoder.

A code is given by a full-rank k x n generator matrix.  Every nonzero
codeword is a multiple of a direction, so every code query scans the
direction matrix (``projective_codeword_matrix``): the desk-scale regime
the enumeration guard (q^k <= 2^20) permits.  That matrix holds each
direction's normalized representative (first nonzero coordinate 1) in the
narrowest unsigned dtype that fits q - 1, so decoders return its rows as
projective points as they stand.

``angular_decode`` has one fast path.  On a Reed-Solomon code whose scan
covers at least ``_BW_MIN_SCAN`` positions (directions x length) it first
runs Berlekamp-Welch with radius t = (min_distance - 1) // 2.  If that
yields a nonzero codeword c with d_H(u, c) <= t, the outcome is
UNIQUE_DIRECTION with the direction of c at angle d_H(u, c), and no scan
runs.  This is sound whatever Berlekamp-Welch computed: c = f G is a
codeword by construction and its distance is counted, and every other
nonzero codeword, beta c included, lies at distance >= d - t > t.  So the
outcome is the scan's, bit for bit.  Otherwise (no codeword within t, or
c = 0 because wt(u) <= t) the call falls back to the scan.
``decode_rows``, ``projective_list_decode`` and ``min_distance`` always
scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# angle_fast_rows is bound here for perfbench/selftest.py, which checks
# that its fault injection is undone in every module that names the kernel
from .angle import ProjectivePoint, _angle_table, angle_fast_rows, normalize_rows, projectivize  # noqa: F401
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
from .gf import Field, _integer
from .vectors import Vector, coordinate_array, hamming_weight

ENUMERATION_CAP = 1 << 20

# Kernel rows (words x directions) decode_rows passes to the angle kernel
# at once, which bounds its memory whatever the number of words.
_DECODE_CHUNK_ROWS = 1 << 18

# Codeword elements per block when the direction matrix is encoded.  One
# block's int64 temporaries (about 20 on GF(2^m) at k = 5: three per
# generator row and three to normalize) stay under glibc's 128 KiB mmap
# threshold and in cache, instead of each spanning the whole matrix.
# Cold set-up of RS[15,5]/GF(16) (field, code, 69,905 directions, minimum
# distance), fresh process, median of 5, 2-core Xeon: 65 ms at 2^12, 55 at
# 2^13, 52 at 2^14, 49 at 2^15, 71 at 2^16 and 99 unblocked.  2^14 and
# 2^15 are within the run-to-run spread.
_ENCODE_BLOCK = 1 << 14

# Least scan size, directions x length, at which angular_decode tries
# Berlekamp-Welch before the scan on a Reed-Solomon code.  Warm
# angular_decode, median over 40 near words, scan vs Berlekamp-Welch,
# 2-core Xeon: RS[7,3]/GF(7) (399 positions) 78-87 vs 342-361 us,
# RS[8,4]/GF(8) (4,680) 127-137 vs 365-453 us, RS[11,4]/GF(11) (16,104)
# 229-264 vs 438-446 us, RS[13,4]/GF(13) (30,940) 584-590 vs 493-514 us,
# RS[10,4]/GF(16) (43,690) 492-583 vs 403-422 us, RS[15,5]/GF(16)
# (1,048,575) 9.2-9.4 vs 0.36-0.52 ms.  The crossover lies near 2^15.
_BW_MIN_SCAN = 1 << 15


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


class LinearCode:
    """A linear code held by a full-rank generator matrix."""

    def __init__(self, field: Field, generator: np.ndarray):
        G = coordinate_array(field, generator, ndim=2)
        k, n = G.shape
        if k > n:
            raise RankDeficient(f"k = {k} rows cannot be independent in length n = {n}")
        _, rank = row_reduce(field, G)
        if rank < k:
            raise RankDeficient(f"generator rows are dependent (rank {rank} < k = {k})")
        self.field = field
        self.generator = G
        self.k = k
        self.n = n
        self.eval_points: np.ndarray | None = None  # set by make_rs_code
        self._min_distance: int | None = None
        self._codewords: np.ndarray | None = None
        self._projective: np.ndarray | None = None

    def __repr__(self):
        return f"LinearCode(q={self.field.q}, n={self.n}, k={self.k})"


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
    keeps as ``eval_points`` for Berlekamp-Welch."""
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
    G = np.empty((k, n), dtype=np.int64)
    G[0] = 1  # x^0 = 1, including at x = 0
    for i in range(1, k):
        G[i] = field.mul_array(G[i - 1], points)
    code = LinearCode(field, G)
    code.eval_points = points
    return code


def make_repetition_code(field: Field, n: int) -> LinearCode:
    """The [n, 1] code spanned by the all-ones vector."""
    n = _integer("n", n)
    if n < 1:
        raise InvalidInput(f"need n >= 1, got n = {n}")
    return LinearCode(field, np.ones((1, n), dtype=np.int64))


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def _require_enumerable(code: LinearCode):
    if code.field.q**code.k > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"q^k = {code.field.q}^{code.k} exceeds the {ENUMERATION_CAP} enumeration guard"
        )


def digit_rows(idx: np.ndarray, base: int, width: int) -> np.ndarray:
    """Row i holds the `width` base-`base` digits of idx[i], most significant
    first: the order itertools.product(range(base), repeat=width) gives."""
    return idx[:, None] // base ** np.arange(width - 1, -1, -1) % base


def _encode_messages(code: LinearCode, idx: np.ndarray) -> np.ndarray:
    """Codewords of the messages whose base-q digits (first most significant)
    spell the indices idx."""
    return _encode(code, digit_rows(idx, code.field.q, code.k))


def _encode(code: LinearCode, messages: np.ndarray) -> np.ndarray:
    """Codewords m G of the rows m of a (T, k) message array."""
    field = code.field
    G = code.generator
    if field.m == 1:
        return messages @ G % field.p
    acc = np.zeros((messages.shape[0], code.n), dtype=np.int64)
    for j in range(code.k):
        acc = field.add_array(acc, field.mul_array(messages[:, j : j + 1], G[j][None, :]))
    return acc


def codeword_matrix(code: LinearCode) -> np.ndarray:
    """All q^k codewords as rows, message-enumeration order (row 0 = 0)."""
    _require_enumerable(code)
    if code._codewords is None:
        M = _encode_messages(code, np.arange(code.field.q**code.k))
        M.setflags(write=False)
        code._codewords = M
    return code._codewords


def projective_codeword_matrix(code: LinearCode) -> np.ndarray:
    """One normalized codeword per projective direction, write-protected
    and in the narrowest unsigned dtype that holds q - 1.

    Row i is the encoding of the i-th message, ascending, whose first
    nonzero entry is 1, scaled so that its own first nonzero coordinate is
    1: the representative ``ProjectivePoint`` holds."""
    _require_enumerable(code)
    if code._projective is None:
        field, q = code.field, code.field.q
        # the first nonzero digit is 1 exactly for the indices in [q^e, 2 q^e)
        idx = np.concatenate([np.arange(q**e, 2 * q**e) for e in range(code.k)])
        M = np.empty((idx.size, code.n), dtype=np.min_scalar_type(q - 1))
        step = max(1, _ENCODE_BLOCK // code.n)
        for s in range(0, idx.size, step):
            M[s : s + step] = normalize_rows(field, _encode_messages(code, idx[s : s + step]))
        M.setflags(write=False)
        code._projective = M
    return code._projective


def min_distance(code: LinearCode) -> int:
    """Minimum weight over nonzero codewords, i.e. over directions (cached)."""
    if code._min_distance is None:
        weights = np.count_nonzero(projective_codeword_matrix(code), axis=1)
        code._min_distance = int(weights.min())
    return code._min_distance


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


def _word_angles(u: Vector, code: LinearCode) -> np.ndarray:
    """(D,) angles from a checked nonzero word u to each codeword direction."""
    return _angle_table(code.field, u.coords[None, :], projective_codeword_matrix(code))[0]


def dist_to_code(u: Vector, code: LinearCode) -> int:
    """Classical distance: min over ALL codewords (including 0) of d_H(u, c)."""
    _check_member_shape(u, code)
    return 0 if u.is_zero() else min(hamming_weight(u), angle_to_code(u, code))


def angle_to_code(u: Vector, code: LinearCode) -> int:
    """min over NONZERO codewords of d_H(u, c); at least dist_to_code(u, code)."""
    _check_word(u, code)
    return int(_word_angles(u, code).min())


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


def berlekamp_welch(code: LinearCode, u: np.ndarray, t: int) -> tuple[np.ndarray, int] | None:
    """(c, d_H(u, c)) for a nonzero codeword c within distance t of the word
    u, found by Berlekamp-Welch on the code's evaluation points; else None.

    Solves Q(x_j) = u_j E(x_j) for E monic of degree t and deg Q < t + k
    (n equations, 2t + k unknowns, free unknowns set to 0) and divides
    f = Q / E.  c = f G is a codeword whatever the points, and it is
    returned only once d_H(u, c) <= t is counted; a word beyond radius t,
    wrong points or c = 0 give None.
    """
    field, k = code.field, code.k
    width = t + k  # coefficients of Q
    powers = np.empty((code.n, width), dtype=np.int64)  # powers[j, i] = x_j^i
    powers[:, 0] = 1  # x^0 = 1, including at x = 0
    for i in range(1, width):
        powers[:, i] = field.mul_array(powers[:, i - 1], code.eval_points)
    uE = field.mul_array(u[:, None], powers[:, : t + 1])  # u_j x_j^i, i <= t
    system = np.concatenate([powers, field.neg_array(uE[:, :t]), uE[:, t:]], axis=1)
    R, rank = row_reduce(field, system)
    pivot_cols = (R[:rank] != 0).argmax(axis=1)
    if pivot_cols[-1] == width + t:  # a pivot in the right-hand side: no solution
        return None
    solution = np.zeros(width + t, dtype=np.int64)
    solution[pivot_cols] = R[:rank, -1]
    Q = solution[:width]
    E = np.append(solution[width:], 1)
    f = np.zeros(k, dtype=np.int64)
    for i in range(k - 1, -1, -1):  # long division by the monic E
        f[i] = Q[i + t]
        Q[i : i + t + 1] = field.sub_array(Q[i : i + t + 1], field.mul_array(f[i], E))
    if Q.any():  # a nonzero remainder
        return None
    c = _encode(code, f[None, :])[0]
    dist = int(np.count_nonzero(c != u))
    if dist > t or not c.any():
        return None
    return c, dist


def angular_decode(u: Vector, code: LinearCode) -> DecodeOutcome:
    """Find the closest codeword direction(s) to u.

    On a Reed-Solomon code with a large scan, Berlekamp-Welch is tried
    first (see the module docstring); its answer is exact or absent.
    Otherwise every direction is scanned, and if the best angle a
    satisfies 2a < d (strictly inside the unique decoding radius) the
    uniqueness is asserted, not assumed.
    """
    _check_word(u, code)
    d = min_distance(code)
    q = code.field.q
    if code.eval_points is not None and (q**code.k - 1) // (q - 1) * code.n >= _BW_MIN_SCAN:
        found = berlekamp_welch(code, u.coords, (d - 1) // 2)
        if found is not None:
            c, a = found
            point = projectivize(Vector(code.field, c))
            return DecodeOutcome(DecodeKind.UNIQUE_DIRECTION, ((point, a),), d)
    angles = _word_angles(u, code)
    a = int(angles.min())
    tied = np.flatnonzero(angles == a)
    if 2 * a < d and tied.size > 1:
        raise UniqueDecodingViolated(
            f"unique decoding violated: {tied.size} directions at angle {a} < d/2 = {d}/2"
        )
    P = projective_codeword_matrix(code)
    best = tuple((ProjectivePoint(Vector(code.field, P[i])), a) for i in tied)
    kind = DecodeKind.UNIQUE_DIRECTION if 2 * a < d else DecodeKind.BEYOND_RADIUS
    return DecodeOutcome(kind, best, d)


def projective_list_decode(u: Vector, code: LinearCode, rho: int) -> list[tuple[ProjectivePoint, int]]:
    """All codeword directions with angle < rho, sorted by angle then
    enumeration order.  Has size <= 1 whenever 2 * rho <= min_distance."""
    rho = _integer("rho", rho)
    _check_word(u, code)
    angles = _word_angles(u, code)
    hits = np.flatnonzero(angles < rho)
    hits = hits[np.argsort(angles[hits], kind="stable")]
    P = projective_codeword_matrix(code)
    return [(ProjectivePoint(Vector(code.field, P[i])), int(angles[i])) for i in hits]


def decode_rows(code: LinearCode, U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular decoding of every row of U, a (T, n) array of nonzero words.

    Returns int64 arrays (best, angle, runner_up): the index of the first
    direction (row of projective_codeword_matrix) at the least angle, that
    angle, and the second-least angle counting ties (n + 1 for a single
    direction).  Word t decodes uniquely iff 2 * angle[t] < min_distance,
    and its list at rho holds at most one direction iff runner_up[t] >= rho.
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
    step = max(1, _DECODE_CHUNK_ROWS // D)
    for start in range(0, len(U), step):
        rows = slice(start, start + step)
        A = _angle_table(code.field, U[rows], P)
        best[rows] = A.argmin(axis=1)
        angle[rows] = A.min(axis=1)
        if D > 1:
            runner_up[rows] = np.partition(A, 1, axis=1)[:, 1]
    violated = np.flatnonzero((2 * angle < d) & (runner_up == angle))
    if violated.size:
        t = violated[0]
        raise UniqueDecodingViolated(
            f"unique decoding violated: row {t} has two directions at angle {angle[t]} < d/2 = {d}/2"
        )
    return best, angle, runner_up
