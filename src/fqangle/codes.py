"""Linear codes over GF(q): construction, enumeration, minimum distance,
distance/angle to a code, and the angular unique decoder.

A code is given by a full-rank k x n generator matrix.  Every nonzero
codeword is a multiple of a direction, so every code query scans the
direction matrix (``projective_codeword_matrix``): the desk-scale regime
the enumeration guard (q^k <= 2^20) permits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# angle_fast_rows is bound here for perfbench/selftest.py, which checks
# that its fault injection is undone in every module that names the kernel
from .angle import ProjectivePoint, _angle_table, angle_fast_rows, projectivize  # noqa: F401
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
from .gf import Field
from .vectors import Vector, coordinate_array, hamming_weight

ENUMERATION_CAP = 1 << 20

# Kernel rows (words x directions) decode_rows passes to the angle kernel
# at once, which bounds its memory whatever the number of words.
_DECODE_CHUNK_ROWS = 1 << 18


def row_reduce(field: Field, M: np.ndarray) -> tuple[np.ndarray, int]:
    """Reduced row-echelon form over the field; returns (rref, rank)."""
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
        lead = int(A[r, col])
        if lead != 1:
            A[r] = field.mul_array(field.inv(lead), A[r])
        for i in range(rows):
            if i != r and A[i, col] != 0:
                A[i] = field.sub_array(A[i], field.mul_array(A[i, col], A[r]))
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
    evaluation points (default: the first n field elements)."""
    if n > field.q:
        raise TooManyPoints(f"n = {n} exceeds field order q = {field.q}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    if eval_points is None:
        points = np.arange(n, dtype=np.int64)
    else:
        points = coordinate_array(field, list(eval_points))
        if points.size != n:
            raise ValueError(f"expected {n} evaluation points, got {points.size}")
        if len(set(points.tolist())) != n:
            raise DuplicatePoints("evaluation points must be pairwise distinct")
    G = np.empty((k, n), dtype=np.int64)
    G[0] = 1  # x^0 = 1, including at x = 0
    for i in range(1, k):
        G[i] = field.mul_array(G[i - 1], points)
    return LinearCode(field, G)


def make_repetition_code(field: Field, n: int) -> LinearCode:
    """The [n, 1] code spanned by the all-ones vector."""
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
    field = code.field
    G = code.generator
    messages = digit_rows(idx, field.q, code.k)
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
    """One codeword per projective direction: rows are the encodings of the
    (q^k - 1)/(q - 1) messages whose first nonzero entry is 1, ascending."""
    _require_enumerable(code)
    if code._projective is None:
        q = code.field.q
        # the first nonzero digit is 1 exactly for the indices in [q^e, 2 q^e)
        idx = np.concatenate([np.arange(q**e, 2 * q**e) for e in range(code.k)])
        M = _encode_messages(code, idx)
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


def _word_angles(u: Vector, code: LinearCode) -> np.ndarray:
    """(D,) angles from the nonzero word u to each codeword direction."""
    _check_member_shape(u, code)
    if u.is_zero():
        raise ZeroVector("the angle to a code is defined only for nonzero vectors")
    return _angle_table(code.field, u.coords[None, :], projective_codeword_matrix(code))[0]


def dist_to_code(u: Vector, code: LinearCode) -> int:
    """Classical distance: min over ALL codewords (including 0) of d_H(u, c)."""
    _check_member_shape(u, code)
    return 0 if u.is_zero() else min(hamming_weight(u), angle_to_code(u, code))


def angle_to_code(u: Vector, code: LinearCode) -> int:
    """min over NONZERO codewords of d_H(u, c); at least dist_to_code(u, code)."""
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


def angular_decode(u: Vector, code: LinearCode) -> DecodeOutcome:
    """Find the closest codeword direction(s) to u by full projective scan.

    If the best angle a satisfies 2a < d (strictly inside the unique
    decoding radius) the direction is provably unique; the scan still
    covers every direction and the uniqueness is asserted, not assumed.
    """
    angles = _word_angles(u, code)
    d = min_distance(code)
    a = int(angles.min())
    tied = np.flatnonzero(angles == a)
    if 2 * a < d and tied.size > 1:
        raise UniqueDecodingViolated(
            f"unique decoding violated: {tied.size} directions at angle {a} < d/2 = {d}/2"
        )
    P = projective_codeword_matrix(code)
    best = tuple((projectivize(Vector(code.field, P[i])), a) for i in tied)
    kind = DecodeKind.UNIQUE_DIRECTION if 2 * a < d else DecodeKind.BEYOND_RADIUS
    return DecodeOutcome(kind, best, d)


def projective_list_decode(u: Vector, code: LinearCode, rho: int) -> list[tuple[ProjectivePoint, int]]:
    """All codeword directions with angle < rho, sorted by angle then
    enumeration order.  Has size <= 1 whenever 2 * rho <= min_distance."""
    angles = _word_angles(u, code)
    hits = np.flatnonzero(angles < rho)
    hits = hits[np.argsort(angles[hits], kind="stable")]
    P = projective_codeword_matrix(code)
    return [(projectivize(Vector(code.field, P[i])), int(angles[i])) for i in hits]


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
