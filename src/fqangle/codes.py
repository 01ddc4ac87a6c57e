"""Linear codes over GF(q): construction, enumeration, minimum distance,
distance/angle to a code, and the angular unique decoder.

A code is given by a full-rank k x n generator matrix.  All decoding here
is exhaustive: the decoder scans every projective codeword (one canonical
message per direction), which is exactly the desk-scale regime the
enumeration guard (q^k <= 2^20) permits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .angle import ProjectivePoint, angle_fast_rows, projectivize
from .errors import (
    DuplicatePoints,
    EnumerationTooLarge,
    FieldMismatch,
    LengthMismatch,
    RankDeficient,
    TooManyPoints,
    ZeroVector,
)
from .gf import Field
from .vectors import Vector

ENUMERATION_CAP = 1 << 20


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
            A[r] = field.scalar_mul_array(field.inv(lead), A[r])
        for i in range(rows):
            if i != r and A[i, col] != 0:
                A[i] = field.sub_array(A[i], field.scalar_mul_array(int(A[i, col]), A[r]))
        r += 1
    return A, r


class LinearCode:
    """A linear code held by a full-rank generator matrix."""

    def __init__(self, field: Field, generator: np.ndarray):
        G = np.array(generator, dtype=np.int64)
        if G.ndim != 2 or G.size == 0:
            raise ValueError("generator must be a nonempty 2-D matrix")
        if G.min() < 0 or G.max() >= field.q:
            raise ValueError(f"generator entries must lie in [0, {field.q})")
        k, n = G.shape
        if k > n:
            raise RankDeficient(f"k = {k} rows cannot be independent in length n = {n}")
        _, rank = row_reduce(field, G)
        if rank < k:
            raise RankDeficient(f"generator rows are dependent (rank {rank} < k = {k})")
        G.setflags(write=False)
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
            mat.append(row.coords)
        else:
            mat.append(np.asarray(list(row), dtype=np.int64))
    if not mat:
        raise ValueError("at least one generator row is required")
    if len({len(r) for r in mat}) != 1:
        raise ValueError("generator rows must have equal length")
    return LinearCode(field, np.vstack(mat))


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
        points = np.asarray(list(eval_points), dtype=np.int64)
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


def _message_matrix(code: LinearCode) -> np.ndarray:
    """All q^k messages, row index read as base-q digits (first column most
    significant) — the same order itertools.product(range(q), repeat=k) gives."""
    q, k = code.field.q, code.k
    idx = np.arange(q**k, dtype=np.int64)
    return np.stack([(idx // q ** (k - 1 - j)) % q for j in range(k)], axis=1)


def _encode_messages(code: LinearCode, messages: np.ndarray) -> np.ndarray:
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
        M = _encode_messages(code, _message_matrix(code))
        M.setflags(write=False)
        code._codewords = M
    return code._codewords


def projective_codeword_matrix(code: LinearCode) -> np.ndarray:
    """One codeword per projective direction: rows are the encodings of the
    (q^k - 1)/(q - 1) messages whose first nonzero entry is 1."""
    _require_enumerable(code)
    if code._projective is None:
        messages = _message_matrix(code)
        first_nz = (messages != 0).argmax(axis=1)
        lead = messages[np.arange(messages.shape[0]), first_nz]
        M = _encode_messages(code, messages[lead == 1])
        M.setflags(write=False)
        code._projective = M
    return code._projective


def enumerate_codewords(code: LinearCode) -> Iterator[Vector]:
    """Yield all q^k codewords exactly once."""
    for row in codeword_matrix(code):
        yield Vector(code.field, row)


def enumerate_projective_codewords(code: LinearCode) -> Iterator[ProjectivePoint]:
    """Yield each of the (q^k - 1)/(q - 1) codeword directions exactly once."""
    for row in projective_codeword_matrix(code):
        yield projectivize(Vector(code.field, row))


def min_distance(code: LinearCode) -> int:
    """Minimum weight over nonzero codewords (brute force, cached)."""
    if code._min_distance is None:
        weights = np.count_nonzero(codeword_matrix(code), axis=1)
        code._min_distance = int(weights[1:].min())
    return code._min_distance


# ----------------------------------------------------------------------
# Distance and angle to a code
# ----------------------------------------------------------------------

def _check_member_shape(u: Vector, code: LinearCode):
    if u.field != code.field:
        raise FieldMismatch(f"{u.field!r} vs code over {code.field!r}")
    if len(u) != code.n:
        raise LengthMismatch(f"vector length {len(u)} != code length {code.n}")


def dist_to_code(u: Vector, code: LinearCode) -> int:
    """Classical distance: min over ALL codewords (including 0) of d_H(u, c)."""
    _check_member_shape(u, code)
    dists = np.count_nonzero(codeword_matrix(code) != u.coords[None, :], axis=1)
    return int(dists.min())


def angle_to_code(u: Vector, code: LinearCode) -> int:
    """min over NONZERO codewords of d_H(u, c); at least dist_to_code(u, code)."""
    _check_member_shape(u, code)
    if u.is_zero():
        raise ZeroVector("the angle to a code is defined only for nonzero vectors")
    dists = np.count_nonzero(codeword_matrix(code)[1:] != u.coords[None, :], axis=1)
    return int(dists.min())


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


def _angles_to_directions(u: Vector, code: LinearCode) -> np.ndarray:
    P = projective_codeword_matrix(code)
    U = np.broadcast_to(u.coords, P.shape)
    return angle_fast_rows(code.field, U, P)


def angular_decode(u: Vector, code: LinearCode) -> DecodeOutcome:
    """Find the closest codeword direction(s) to u by full projective scan.

    If the best angle a satisfies 2a < d (strictly inside the unique
    decoding radius) the direction is provably unique; the scan still
    covers every direction and the uniqueness is asserted, not assumed.
    """
    _check_member_shape(u, code)
    if u.is_zero():
        raise ZeroVector("cannot decode the zero vector")
    d = min_distance(code)
    angles = _angles_to_directions(u, code)
    a = int(angles.min())
    tied = np.flatnonzero(angles == a)
    P = projective_codeword_matrix(code)
    best = tuple(
        (projectivize(Vector(code.field, P[i])), a) for i in tied
    )
    if 2 * a < d:
        if len(best) != 1:
            raise AssertionError(
                f"unique decoding violated: {len(best)} directions at angle {a} < d/2 = {d}/2"
            )
        return DecodeOutcome(DecodeKind.UNIQUE_DIRECTION, best, d)
    return DecodeOutcome(DecodeKind.BEYOND_RADIUS, best, d)


def projective_list_decode(u: Vector, code: LinearCode, rho: int) -> list[tuple[ProjectivePoint, int]]:
    """All codeword directions with angle < rho, sorted by angle then
    enumeration order.  Has size <= 1 whenever 2 * rho <= min_distance."""
    _check_member_shape(u, code)
    if u.is_zero():
        raise ZeroVector("cannot decode the zero vector")
    angles = _angles_to_directions(u, code)
    order = np.argsort(angles, kind="stable")
    P = projective_codeword_matrix(code)
    return [
        (projectivize(Vector(code.field, P[i])), int(angles[i]))
        for i in order
        if angles[i] < rho
    ]
