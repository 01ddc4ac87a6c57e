"""Linear codes: construction, enumeration, minimum distance, decoding."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fqangle.codes
from fqangle import (
    DecodeKind,
    DuplicatePoints,
    EnumerationTooLarge,
    Field,
    InvalidInput,
    LengthMismatch,
    RankDeficient,
    TooManyPoints,
    UniqueDecodingViolated,
    Vector,
    ZeroVector,
    angle_to_code,
    angular_decode,
    decode_rows,
    dist_to_code,
    hamming_distance,
    hamming_weight,
    make_code,
    make_field,
    make_repetition_code,
    make_rs_code,
    min_distance,
    projective_list_decode,
    projectivize,
    scalar_mul,
)
from fqangle.angle import normalize_rows
from fqangle.codes import codeword_matrix, projective_codeword_matrix

F3 = make_field(3)
F7 = make_field(7)


def rep3():
    return make_repetition_code(F3, 3)


def rs733():
    return make_rs_code(F7, 7, 3)


def codewords(code):
    return [Vector(code.field, row) for row in codeword_matrix(code)]


def directions(code):
    return [projectivize(Vector(code.field, row)) for row in projective_codeword_matrix(code)]


def encode(code, idx):
    """The int64 codewords of the messages whose base-q digits spell idx."""
    return code.field.matmul(fqangle.codes.digit_rows(idx, code.field.q, code.k), code.generator)


# ----------------------------------------------------------------------
# Independent enumeration oracle: encode every message with element ops
# ----------------------------------------------------------------------

def oracle_codewords(code):
    field, G = code.field, code.generator
    words = []
    for msg in itertools.product(range(field.q), repeat=code.k):
        word = [0] * code.n
        for j, m_j in enumerate(msg):
            for i in range(code.n):
                word[i] = field.add(word[i], field.mul(m_j, int(G[j, i])))
        words.append(tuple(word))
    return words


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def test_repetition_code():
    code = rep3()
    assert (code.k, code.n) == (1, 3)
    assert sorted(v.values() for v in codewords(code)) == [
        (0, 0, 0),
        (1, 1, 1),
        (2, 2, 2),
    ]


def test_rank_deficient_rows_rejected():
    with pytest.raises(RankDeficient):
        make_code(F3, [[1, 1, 1], [2, 2, 2]])
    with pytest.raises(RankDeficient):
        make_code(F3, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])  # row3 = row1 + row2... dependent
    with pytest.raises(RankDeficient):
        make_code(F3, [[1, 2], [0, 1], [1, 1]])  # k > n


def test_make_code_accepts_vectors_and_checks_field():
    from fqangle import FieldMismatch

    code = make_code(F3, [Vector(F3, [1, 0, 2]), Vector(F3, [0, 1, 1])])
    assert code.k == 2
    with pytest.raises(FieldMismatch):
        make_code(F3, [Vector(F7, [1, 0, 2])])
    with pytest.raises(ValueError):
        make_code(F3, [[1, 0], [1, 0, 2]])


def test_rs_construction():
    code = rs733()
    assert (code.k, code.n) == (3, 7)
    # generator rows are powers of the evaluation points 0..6
    assert list(code.generator[0]) == [1] * 7
    assert list(code.generator[1]) == list(range(7))
    assert list(code.generator[2]) == [i * i % 7 for i in range(7)]
    with pytest.raises(TooManyPoints):
        make_rs_code(F3, 4, 2)
    with pytest.raises(DuplicatePoints):
        make_rs_code(F7, 3, 2, eval_points=[1, 1, 2])
    with pytest.raises(ValueError):
        make_rs_code(F7, 7, 0)


F8 = make_field(2, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fqangle.codes.LinearCode(F7, [[1.7, 2.2, 3.9]]),  # was truncated to [[1, 2, 3]]
        lambda: fqangle.codes.LinearCode(F7, [[True, False, True]]),
        lambda: fqangle.codes.LinearCode(F7, [[1, 2, 7]]),
        lambda: fqangle.codes.LinearCode(F7, [1, 2, 3]),  # not a matrix
        lambda: make_code(F7, [[1.0, 2.0, 3.0]]),
        lambda: make_code(F7, [[True, False, True]]),
        lambda: make_code(F7, [["1", "2", "3"]]),
        lambda: make_code(F7, [[1, 2, -1]]),
        lambda: make_code(F7, [[2**70, 1, 1]]),
        lambda: make_rs_code(F7, 3, 2, [0, 1, 8]),  # was a code with min distance 1
        lambda: make_rs_code(F8, 3, 2, [0, 1, 9]),  # was a bare IndexError
        lambda: make_rs_code(F7, 3, 2, [0.0, 1.0, 2.0]),
        lambda: make_rs_code(F7, 2, 1, [False, True]),
        lambda: make_rs_code(F7, 3, 2, ["0", "1", "2"]),
        lambda: fqangle.codes.LinearCode(F7, [[1, 2, 3], [0, True, 2]]),  # was [[1,2,3],[0,1,2]]
        lambda: fqangle.codes.LinearCode(F7, [np.array([True, False, True]), [1, 2, 3]]),
        lambda: make_rs_code(F7, 3, 2, [0, True, 2]),  # was a code on points 0, 1, 2
        lambda: make_rs_code(F7, 3, 2, (0, np.True_, 2)),
    ],
)
def test_constructors_reject_non_elements(build):
    with pytest.raises(InvalidInput):
        build()


def test_rs_vandermonde_rows_are_independent():
    code = make_code(F7, [[1] * 7, list(range(7)), [i * i % 7 for i in range(7)]])
    assert code.k == 3


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def test_enumeration_matches_oracle():
    for code in (rep3(), make_rs_code(F3, 3, 2), rs733()):
        got = [v.values() for v in codewords(code)]
        assert got == oracle_codewords(code)
        assert len(set(got)) == code.field.q**code.k


def test_projective_enumeration_counts():
    assert len(directions(rep3())) == 1
    assert len(directions(rs733())) == 57  # (343-1)/6
    assert len(directions(make_rs_code(F7, 7, 2))) == 8


def test_projective_enumeration_is_exact_cover():
    code = rs733()
    points = directions(code)
    assert len(points) == len(set(points))
    classes = {
        projectivize(w) for w in codewords(code) if not w.is_zero()
    }
    assert set(points) == classes


def test_enumeration_guard():
    big = make_code(F3, np.eye(13, dtype=int))  # 3^13 > 2^20
    with pytest.raises(EnumerationTooLarge):
        min_distance(big)
    with pytest.raises(EnumerationTooLarge):
        codeword_matrix(big)
    with pytest.raises(EnumerationTooLarge):
        projective_codeword_matrix(big)


DIRECTION_CODES = [  # (p, m, n, k, dtype)
    (2, 1, 5, 1, np.uint8),  # repetition code
    (7, 1, 7, 3, np.uint8),
    (3, 2, 9, 3, np.uint8),
    (2, 4, 15, 3, np.uint8),
    (2, 8, 10, 2, np.uint8),
    (257, 1, 6, 2, np.uint16),
    (2, 16, 9, 1, np.uint16),
]


@pytest.mark.parametrize("p,m,n,k,dtype", DIRECTION_CODES)
@pytest.mark.parametrize("block", [None, 1, 3])
def test_direction_matrix_is_narrow_normalized_and_read_only(p, m, n, k, dtype, block, monkeypatch):
    # and codeword_matrix, from the same blocked enumeration in the same format
    field = make_field(p, m)
    if block is not None:  # 1 row per encode block, or 3 with a ragged last block
        monkeypatch.setattr(fqangle.codes, "_BLOCK_ELEMENTS", block * n + n - 1)
    code = make_rs_code(field, n, k) if p > 2 or m > 1 else make_repetition_code(field, n)
    P = projective_codeword_matrix(code)
    q = field.q
    idx = np.concatenate([np.arange(q**e, 2 * q**e) for e in range(k)])
    expected = normalize_rows(field, encode(code, idx))
    assert P.dtype == dtype and expected.dtype == np.int64
    assert P.shape == ((q**k - 1) // (q - 1), n)
    assert np.array_equal(P, expected)
    assert not P.flags.writeable
    assert projective_codeword_matrix(code) is P
    lead = P[np.arange(len(P)), (P != 0).argmax(axis=1)]
    assert (lead == 1).all()
    if block is None or q**k <= 1 << 12:  # 65,536 one- or three-row blocks take about a second
        C = codeword_matrix(code)
        expected = encode(code, np.arange(q**k))
        assert C.dtype == dtype and expected.dtype == np.int64
        assert np.array_equal(C, expected)
        assert not C.flags.writeable
        assert codeword_matrix(code) is C


# ----------------------------------------------------------------------
# Minimum distance
# ----------------------------------------------------------------------

def test_min_distance_examples():
    assert min_distance(rep3()) == 3
    assert min_distance(rs733()) == 5  # = n - k + 1: MDS
    assert min_distance(make_rs_code(F7, 7, 7)) == 1
    assert min_distance(make_code(F3, np.eye(3, dtype=int))) == 1


def test_min_distance_equals_pairwise_minimum():
    small_codes = [
        rep3(),
        make_rs_code(F3, 3, 2),
        rs733() if False else make_rs_code(F7, 7, 2),  # 49 codewords
        make_code(make_field(2, 2), [[1, 0, 2], [0, 1, 3]]),  # 16 codewords
        make_code(F3, np.eye(4, 5, dtype=int)),  # 81 codewords
    ]
    for code in small_codes:
        words = codewords(code)
        d_weight = min(hamming_weight(w) for w in words if not w.is_zero())
        d_pairwise = min(
            hamming_distance(a, b)
            for a in words
            for b in words
            if a != b
        )
        assert min_distance(code) == d_weight == d_pairwise


def test_min_distance_cached():
    code = rs733()
    assert min_distance(code) == 5
    assert code._min_distance == 5
    assert min_distance(code) == 5


@pytest.mark.parametrize("build", [lambda: make_code(F7, [[1, 0, 2, 3, 1], [0, 1, 4, 4, 5]]),
                                   lambda: make_repetition_code(F7, 5),
                                   lambda: make_rs_code(F7, 5, 2, [6, 1, 3, 0, 2])],
                         ids=["make_code", "make_repetition_code", "make_rs_code"])
def test_a_code_is_a_value(build):
    # its defining data cannot be reassigned, so the tables cached on it
    # always describe it: reassigning the generator used to leave a stale
    # min_distance, and reassigning k a bare numpy error
    code, same = build(), build()
    other = make_rs_code(make_field(5), 4, 1, [4, 3, 2, 1])
    for name in ("field", "generator", "k", "n", "eval_points"):
        with pytest.raises(AttributeError):
            setattr(code, name, getattr(other, name))
    assert min_distance(code) == min_distance(same)
    assert np.array_equal(projective_codeword_matrix(code), projective_codeword_matrix(same))
    assert code != same and len({code, same}) == 2  # compared and hashed by identity


# ----------------------------------------------------------------------
# Distance and angle to a code
# ----------------------------------------------------------------------

def test_dist_and_angle_to_repetition_code():
    code = rep3()
    u = Vector(F3, [1, 0, 0])
    # brute force over the 3 codewords: distances 1 (to 0), 2, 3
    assert dist_to_code(u, code) == 1
    assert angle_to_code(u, code) == 2  # the strict case: zero is closest
    w = Vector(F3, [1, 1, 2])
    assert dist_to_code(w, code) == 1
    assert angle_to_code(w, code) == 1  # attained at (1,1,1)


def test_angle_to_code_zero_on_codewords():
    code = rs733()
    for w in itertools.islice(codewords(code), 1, 20):
        assert angle_to_code(w, code) == 0
        assert dist_to_code(w, code) == 0


def test_dist_to_code_matches_brute_force():
    code = make_rs_code(F3, 3, 2)
    words = oracle_codewords(code)
    for coords in itertools.product(range(3), repeat=3):
        u = Vector(F3, coords)
        expected_all = min(sum(a != b for a, b in zip(coords, w)) for w in words)
        assert dist_to_code(u, code) == expected_all
        if any(coords):
            expected_nz = min(
                sum(a != b for a, b in zip(coords, w)) for w in words if any(w)
            )
            assert angle_to_code(u, code) == expected_nz


def test_angle_vs_dist_trichotomy_random():
    rng = np.random.default_rng(3)
    code = rs733()
    for _ in range(200):
        coords = rng.integers(0, 7, size=7)
        if not coords.any():
            coords[0] = 1
        u = Vector(F7, coords)
        dist = dist_to_code(u, code)
        ang = angle_to_code(u, code)
        assert ang >= dist
        attained_nonzero = ang == dist
        # equality holds iff some nonzero codeword realizes the classical minimum
        realized = any(
            hamming_distance(u, w) == dist
            for w in codewords(code)
            if not w.is_zero()
        )
        assert attained_nonzero == realized


def test_angle_to_code_rejects_zero():
    with pytest.raises(ZeroVector):
        angle_to_code(Vector(F3, [0, 0, 0]), rep3())


# ----------------------------------------------------------------------
# Angular decoding
# ----------------------------------------------------------------------

def test_decode_round_trip_two_errors():
    code = rs733()
    c = Vector(F7, code.generator[1])  # the codeword (0,1,2,...,6)
    expected = projectivize(c)
    corrupted = list(c.values())
    corrupted[2] = F7.add(corrupted[2], 5)
    corrupted[6] = F7.add(corrupted[6], 1)
    out = angular_decode(Vector(F7, corrupted), code)
    assert out.kind is DecodeKind.UNIQUE_DIRECTION
    assert out.best == ((expected, 2),)
    assert out.min_distance == 5
    assert out.radius_bound == 2.5


def test_decode_scalar_robustness():
    code = rs733()
    c = Vector(F7, code.generator[2])
    corrupted = list(c.values())
    corrupted[0] = F7.add(corrupted[0], 3)
    u = Vector(F7, corrupted)
    baseline = angular_decode(u, code).best[0][0]
    for alpha in F7.nonzero_elements():
        out = angular_decode(scalar_mul(alpha, u), code)
        assert out.unique and out.best[0][0] == baseline


def test_decode_beyond_radius():
    code = rep3()  # d = 3, radius 1.5
    u = Vector(F3, [1, 2, 0])  # distance 2 from every direction of the code
    out = angular_decode(u, code)
    assert out.kind is DecodeKind.BEYOND_RADIUS
    assert len(out.best) >= 1
    assert all(a >= 2 for _, a in out.best)
    assert not out.unique


def test_decode_beyond_radius_lists_all_ties_in_order():
    code = make_rs_code(F3, 3, 2)
    u = Vector(F3, [1, 2, 2])
    out = angular_decode(u, code)
    angles = {
        pt: hamming_distance_to_class(u, pt, code)
        for pt in directions(code)
    }
    best = min(angles.values())
    tied = [pt for pt in directions(code) if angles[pt] == best]
    if 2 * best >= min_distance(code):
        assert [pt for pt, _ in out.best] == tied


def hamming_distance_to_class(u, point, code):
    from fqangle import angle_fast

    return angle_fast(u, point.rep)


def test_unique_direction_inside_radius_for_every_input():
    # over every nonzero u in the ambient space: whenever some direction
    # lies strictly inside the radius, it is the only one (full scan)
    from fqangle import angle_fast
    from fqangle.experiments import all_nonzero_vectors

    small_codes = [
        rep3(),
        make_rs_code(F3, 3, 2),
        make_rs_code(make_field(5), 5, 2),
    ]
    for code in small_codes:
        field = code.field
        d = min_distance(code)
        reps = [pt.rep for pt in directions(code)]
        for row in all_nonzero_vectors(field, code.n):
            u = Vector(field, row)
            inside = [c for c in reps if 2 * angle_fast(u, c) < d]
            assert len(inside) <= 1
            out = angular_decode(u, code)
            if inside:
                assert out.kind is DecodeKind.UNIQUE_DIRECTION
                assert out.best[0][0].rep == inside[0]
            else:
                assert out.kind is DecodeKind.BEYOND_RADIUS


def test_decode_rejects_zero_and_wrong_shape():
    code = rep3()
    with pytest.raises(ZeroVector):
        angular_decode(Vector(F3, [0, 0, 0]), code)
    with pytest.raises(ValueError):
        angular_decode(Vector(F3, [1, 0]), code)


# ----------------------------------------------------------------------
# Projective list decoding
# ----------------------------------------------------------------------

def test_list_decode_radius_guarantee():
    code = rs733()
    rng = np.random.default_rng(9)
    d = min_distance(code)
    for _ in range(100):
        coords = rng.integers(0, 7, size=7)
        if not coords.any():
            coords[0] = 1
        u = Vector(F7, coords)
        for rho in range(d // 2 + 1):  # every rho with 2*rho <= d
            assert len(projective_list_decode(u, code, rho)) <= 1


def test_list_decode_rho_zero_and_everything():
    code = rs733()
    c = Vector(F7, code.generator[1])
    # the membership test is strict (angle < rho): rho = 0 admits nothing,
    # a projective codeword first appears at rho = 1 with angle 0
    assert projective_list_decode(c, code, 0) == []
    assert projective_list_decode(c, code, 1) == [(projectivize(c), 0)]
    u = Vector(F7, [1, 0, 0, 0, 0, 0, 0])
    assert projective_list_decode(u, code, 0) == []
    everything = projective_list_decode(u, code, code.n + 1)
    assert len(everything) == 57
    angles = [a for _, a in everything]
    assert angles == sorted(angles)


def test_list_decode_rho_must_be_an_integer():
    code = rs733()
    u = Vector(F7, [1, 0, 0, 0, 0, 0, 0])
    assert projective_list_decode(u, code, np.int64(1)) == projective_list_decode(u, code, 1)
    for bad in ("2", 2.5, True):
        with pytest.raises(InvalidInput):
            projective_list_decode(u, code, bad)


def test_list_decode_sorted_by_angle_then_enumeration_order():
    code = make_rs_code(F7, 7, 2)
    u = Vector(F7, [1, 1, 0, 2, 0, 0, 3])
    hits = projective_list_decode(u, code, code.n + 1)
    points = directions(code)
    order = {pt: i for i, pt in enumerate(points)}
    keys = [(a, order[pt]) for pt, a in hits]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Batched decoding
# ----------------------------------------------------------------------

PROPERTY_CODES = [
    make_rs_code(F7, 7, 3),
    make_rs_code(make_field(3, 2), 9, 3),
    make_repetition_code(make_field(5), 4),  # k = 1: a single direction
]


@st.composite
def code_and_words(draw):
    code = draw(st.sampled_from(PROPERTY_CODES))
    word = st.lists(st.integers(0, code.field.q - 1), min_size=code.n, max_size=code.n).filter(any)
    return code, np.array(draw(st.lists(word, min_size=1, max_size=6)))


@settings(max_examples=60)
@given(code_and_words())
def test_decode_rows_agrees_with_one_word_decoders(case):
    code, U = case
    best, angle, runner_up = decode_rows(code, U)
    P = projective_codeword_matrix(code)
    d = min_distance(code)
    for t, row in enumerate(U):
        u = Vector(code.field, row)
        out = angular_decode(u, code)
        assert out.best[0] == (projectivize(Vector(code.field, P[best[t]])), angle[t])
        assert out.unique == (2 * angle[t] < d)
        ranked = [a for _, a in projective_list_decode(u, code, code.n + 1)]
        assert ranked[0] == angle[t]
        assert runner_up[t] == (ranked[1] if len(ranked) > 1 else code.n + 1)
        for rho in range(code.n + 2):
            assert (len(projective_list_decode(u, code, rho)) <= 1) == (runner_up[t] >= rho)


def test_decode_rows_chunks_agree(monkeypatch):
    code = rs733()
    U = np.random.default_rng(5).integers(1, 7, size=(300, 7))
    whole = decode_rows(code, U)
    monkeypatch.setattr(fqangle.codes, "_DECODE_CHUNK_CELLS", 100)  # one word per chunk
    for a, b in zip(whole, decode_rows(code, U)):
        assert np.array_equal(a, b)
    monkeypatch.setattr(fqangle.codes, "_DECODE_CHUNK_CELLS", 57 * 7)  # 7 words per chunk, ragged tail
    for a, b in zip(whole, decode_rows(code, U)):
        assert np.array_equal(a, b)


def test_decode_rows_validates_like_vector():
    code = rep3()
    with pytest.raises(InvalidInput):
        decode_rows(code, [[1.0, 0.0, 0.0]])
    with pytest.raises(InvalidInput):
        decode_rows(code, [[3, 0, 0]])
    with pytest.raises(InvalidInput):
        decode_rows(code, [[1, 2, 0], [0, True, 2]])  # was read as [0, 1, 2]
    with pytest.raises(InvalidInput):
        decode_rows(code, [1, 0, 0])  # one word must still be a (1, n) matrix
    with pytest.raises(InvalidInput):
        decode_rows(code, np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(LengthMismatch):
        decode_rows(code, [[1, 0]])
    with pytest.raises(ZeroVector):
        decode_rows(code, [[1, 0, 0], [0, 0, 0]])


def test_unique_decoding_violation_is_typed(monkeypatch):
    # a scan that ties every direction at angle 0, inside the radius, for
    # the words whose first coordinate is 1, and ranks them 0, 1, 2, ...
    # for the rest: every least-angle answer asserts the theorem
    code = rs733()
    monkeypatch.setattr(fqangle.codes, "_angle_table",
                        lambda field, A, B: np.where(A[:, :1] == 1, 0, np.arange(len(B))))
    u = Vector(F7, [1, 0, 0, 0, 0, 0, 0])
    for query in (angular_decode, angle_to_code, dist_to_code):
        with pytest.raises(UniqueDecodingViolated, match=r"^unique decoding violated: .* from u=1,0,0,0,0,0,0$"):
            query(u, code)
    assert angle_to_code(Vector(F7, [2, 0, 0, 0, 0, 0, 0]), code) == 0
    with pytest.raises(UniqueDecodingViolated, match=r"from u=1,2,3,4,5,6,0$"):  # the first violating word
        decode_rows(code, [[2, 1, 0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6, 0], [1, 0, 0, 0, 0, 0, 0]])
    assert issubclass(UniqueDecodingViolated, AssertionError)


# ----------------------------------------------------------------------
# Typed constructor errors
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: make_rs_code(F7, 7, True),  # was a bare TypeError
        lambda: make_rs_code(F7, 7.0, 3),  # was a bare TypeError
        lambda: make_repetition_code(F7, 3.0),  # was a bare TypeError
        lambda: make_repetition_code(F7, -1),  # was numpy's ValueError
        lambda: make_rs_code(F7, 7, 0),  # k out of range
        lambda: make_rs_code(F7, 3, 4),  # k out of range
        lambda: make_rs_code(F7, 3, 2, [0, 1]),  # too few evaluation points
    ],
    ids=["rs-k-bool", "rs-n-float", "rep-n-float", "rep-n-negative", "rs-k-zero", "rs-k-above-n",
         "rs-point-count"],
)
def test_code_constructor_errors_are_typed(build):
    with pytest.raises(InvalidInput):
        build()


# ----------------------------------------------------------------------
# row_reduce against a pure-Python Gauss-Jordan
# ----------------------------------------------------------------------

def gauss_jordan_reference(field, M):
    """RREF and rank by element operations, one row at a time."""
    A = [[int(x) for x in row] for row in M]
    rows, cols = len(A), len(A[0])
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][col]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = field.inv(A[r][col])
        A[r] = [field.mul(inv, x) for x in A[r]]
        for i in range(rows):
            if i != r and A[i][col]:
                f = A[i][col]
                A[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(A[i], A[r])]
        r += 1
        if r == rows:
            break
    return A, r


def field_matmul(field, A, B):
    out = [[0] * len(B[0]) for _ in A]
    for i, row in enumerate(A):
        for j in range(len(B[0])):
            for a, b_row in zip(row, B):
                out[i][j] = field.add(out[i][j], field.mul(int(a), int(b_row[j])))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("pm", [(2, 1), (7, 1), (2, 4), (3, 2), (5, 2)], ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_sum_array_and_matmul_match_scalar_ops(pm):
    # odd row counts leave a remainder row to the halving sum of odd p^m
    field = make_field(*pm)
    rng = np.random.default_rng(10 * pm[0] + pm[1])
    for rows in (1, 2, 3, 7):
        A = rng.integers(0, field.q, size=(rows, 5))
        expected = [functools.reduce(field.add, col) for col in A.T.tolist()]
        assert field.sum_array(A).tolist() == expected
        assert int(field.sum_array(A[:, 0])) == expected[0]  # a 1-D array sums to one element
        B = rng.integers(0, field.q, size=(rows, 4))
        assert np.array_equal(field.matmul(A.T, B), field_matmul(field, A.T, B))


@pytest.mark.parametrize("pm", [(2, 1), (7, 1), (3, 2), (2, 4), (2, 8)], ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_row_reduce_matches_reference(pm):
    field = make_field(*pm)
    rng = np.random.default_rng(sum(pm))
    cases = [rng.integers(0, field.q, size=shape) for shape in [(1, 1), (5, 5), (4, 7), (7, 4), (6, 6)]]
    swap = rng.integers(0, field.q, size=(5, 6))
    swap[:3, 0] = 0  # the first pivot sits in row 3, so rows must swap
    swap[3, 0] = 1
    cases += [swap, np.zeros((3, 4), dtype=np.int64)]
    # rank-deficient: a product through an inner dimension below both sides
    deficient = [field_matmul(field, rng.integers(0, field.q, size=(6, r)), rng.integers(0, field.q, size=(r, 5)))
                 for r in (1, 2, 3)]
    for M in cases + deficient:
        R, rank = fqangle.codes.row_reduce(field, M)
        ref, ref_rank = gauss_jordan_reference(field, M)
        assert rank == ref_rank
        assert R.dtype == np.int64 and np.array_equal(R, np.array(ref, dtype=np.int64))
    assert [fqangle.codes.row_reduce(field, M)[1] <= r for M, r in zip(deficient, (1, 2, 3))] == [True] * 3


# ----------------------------------------------------------------------
# Berlekamp-Welch fast path: every result checked against the scan
# ----------------------------------------------------------------------

BW_CODES = [
    (F7, 7, 3, None),  # the default points include 0
    (F7, 7, 1, None),  # k = 1
    (make_field(5), 5, 5, None),  # k = n: t = 0
    (F8, 7, 3, None),
    (make_field(3, 2), 9, 3, None),
    (make_field(11), 11, 5, None),
    (make_field(2, 4), 8, 3, [1, 2, 4, 8, 3, 6, 12, 11]),  # custom points without 0
    (make_field(11), 6, 2, [10, 3, 7, 0, 5, 9]),  # custom points with 0
    (make_field(2, 4), 15, 5, None),  # the decode-large code
    (make_field(3, 2), 9, 5, None),  # odd p^m: Zech-log sums
]


def bw_words(code, rng):
    """Seeded nonzero words: a direction plus an error of every weight <= t,
    rescaled; uniform words; words of weight <= t."""
    field, n = code.field, code.n
    t = (min_distance(code) - 1) // 2
    P = projective_codeword_matrix(code)
    words = []
    for w in range(t + 1):
        for _ in range(3):
            err = np.zeros(n, dtype=np.int64)
            err[rng.choice(n, size=w, replace=False)] = rng.integers(1, field.q, size=w)
            word = field.add_array(P[rng.integers(len(P))], err)
            words.append(field.scalar_mul_array(int(rng.integers(1, field.q)), word))
    words += list(rng.integers(0, field.q, size=(8, n)))
    for w in range(1, t + 1):
        low = np.zeros(n, dtype=np.int64)
        low[rng.choice(n, size=w, replace=False)] = rng.integers(1, field.q, size=w)
        words.append(low)
    U = np.array(words)
    return U[U.any(axis=1)]


@pytest.mark.parametrize("case", BW_CODES, ids=lambda c: f"RS[{c[1]},{c[2]}]/GF({c[0].q}){'-points' if c[3] else ''}")
def test_berlekamp_welch_agrees_with_scan(case):
    # at every radius t up to (d - 1) // 2, where a <= t is 2a < d
    field, n, k, points = case
    code = make_rs_code(field, n, k, points)
    d = min_distance(code)
    P = projective_codeword_matrix(code)
    U = bw_words(code, np.random.default_rng(n * k))
    best, angle, _ = decode_rows(code, U)
    for t in range((d - 1) // 2 + 1):
        found_any = False
        for u, b, a in zip(U, best, angle):
            found = fqangle.codes.berlekamp_welch(code, u, t)
            assert (found is not None) == (2 * a < d and a <= t and np.count_nonzero(u) > t)
            if found is not None:
                c, dist = found
                assert projectivize(Vector(field, c)) == projectivize(Vector(field, P[b]))
                assert dist == a
                found_any = True
        assert found_any


def test_berlekamp_welch_validates_t():
    code = rs733()  # (n - k) // 2 = 2
    u = np.array([1, 1, 4, 2, 2, 4, 1])
    assert fqangle.codes.berlekamp_welch(code, u, 0) is None
    assert fqangle.codes.berlekamp_welch(code, u, np.int64(2)) is not None
    for bad in (-1, 3, 4, 1.5, True, None):
        with pytest.raises(InvalidInput):
            fqangle.codes.berlekamp_welch(code, u, bad)
    with pytest.raises(InvalidInput):  # no evaluation points
        fqangle.codes.berlekamp_welch(make_code(F7, code.generator), u, 1)


@pytest.mark.parametrize("case", BW_CODES, ids=lambda c: f"RS[{c[1]},{c[2]}]/GF({c[0].q}){'-points' if c[3] else ''}")
def test_gao_tables_interpolate(case):
    # g0 is monic of degree n and vanishes at every point; the Lagrange
    # rows times the Vandermonde matrix give the identity
    field, n, k, points = case
    code = make_rs_code(field, n, k, points)
    tables = code._rs
    x = code.eval_points
    assert len(tables.g0) == n + 1 and tables.g0[-1] == 1
    for xi in x.tolist():
        value = 0
        for coef in reversed(tables.g0):  # Horner
            value = field.add(field.mul(value, xi), coef)
        assert value == 0
    _, exp = field.mul_tables
    V = np.array([[field.pow(int(xi), j) for xi in x] for j in range(n)])
    assert np.array_equal(field_matmul(field, exp[tables.lagrange], V), np.eye(n, dtype=np.int64))
    assert np.array_equal(exp[tables.generator_log], code.generator)


def count_rs_builds(monkeypatch):
    """The (field, generator, points) of each _ReedSolomon built, in order."""
    built = []
    build = fqangle.codes._ReedSolomon.build
    monkeypatch.setattr(fqangle.codes._ReedSolomon, "build", lambda *a: built.append(a) or build(*a))
    return built


def count_int_table_builds(monkeypatch):
    """The fields whose Field._int_tables are built, in order."""
    built = []
    _int_tables = Field._int_tables.func
    counted = functools.cached_property(lambda field: built.append(field) or _int_tables(field))
    counted.__set_name__(Field, "_int_tables")
    monkeypatch.setattr(Field, "_int_tables", counted)
    return built


def test_gao_tables_built_once_and_read_only(monkeypatch):
    built, per_field = count_rs_builds(monkeypatch), count_int_table_builds(monkeypatch)
    code = make_rs_code(Field(3, 2), 9, 5)  # a new field: its Python-int tables are built here
    for u in bw_words(code, np.random.default_rng(9)):
        fqangle.codes.berlekamp_welch(code, u, 2)
    assert len(built) == 1 and len(per_field) == 1
    tables = code._rs
    assert not tables.lagrange.flags.writeable and not tables.generator_log.flags.writeable
    assert not tables.log_diff.flags.writeable
    assert isinstance(tables.g0, tuple) and isinstance(tables.poly.log, tuple) and isinstance(tables.poly.exp, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tables.g0 = ()
    assert len(built) == 1  # reading them again builds nothing


def test_int_tables_built_once_per_field(monkeypatch):
    # three codes over one field, two of them on the same points rolled, share one copy
    per_field = count_int_table_builds(monkeypatch)
    field = Field(2, 4)
    codes = [make_rs_code(field, 8, 3), make_rs_code(field, 6, 2, range(9, 15)),
             make_rs_code(field, 6, 2, np.roll(np.arange(9, 15), 1))]
    for code in codes:
        for u in bw_words(code, np.random.default_rng(4)):
            fqangle.codes.berlekamp_welch(code, u, 1)
    assert per_field == [field]
    log, exp, add, neg = field._int_tables
    assert all(code._rs.poly.log is log and code._rs.poly.add is add for code in codes)
    assert [list(log), list(exp)] == [t.tolist() for t in field.mul_tables]
    assert exp[neg] == field.neg(1)
    # odd p^m: the scalar sum reads the Zech tables, built with it
    f9 = Field(3, 2)  # fresh, not the make_field cache
    log, exp, add, neg = f9._int_tables
    assert "add_tables" in vars(f9) and exp[neg] == f9.neg(1) == 2
    assert all(add(a, b) == f9.add(a, b) for a in range(9) for b in range(9))


@pytest.mark.parametrize("case", BW_CODES, ids=lambda c: f"RS[{c[1]},{c[2]}]/GF({c[0].q}){'-points' if c[3] else ''}")
def test_forced_fast_path_outcome_equals_scan(case, monkeypatch):
    field, n, k, points = case
    code = make_rs_code(field, n, k, points)
    words = [Vector(field, u) for u in bw_words(code, np.random.default_rng(7))]
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 1 << 62)
    scan = [angular_decode(u, code) for u in words]
    scan_dist = [(angle_to_code(u, code), dist_to_code(u, code)) for u in words]
    calls = record_berlekamp_welch(monkeypatch)
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 0)
    assert [angular_decode(u, code) for u in words] == scan
    assert [(angle_to_code(u, code), dist_to_code(u, code)) for u in words] == scan_dist
    # Berlekamp-Welch runs only where n^2 <= D: of these codes, all but
    # RS[7,1]/GF(7) (D = 1) and RS[6,2]/GF(11) (D = 12)
    D = len(projective_codeword_matrix(code))
    assert bool(calls) == (n * n <= D) == ((n, k) not in ((7, 1), (6, 2)))


def record_berlekamp_welch(monkeypatch):
    """The argument tuples of each berlekamp_welch call, in order."""
    calls = []
    bw = fqangle.codes.berlekamp_welch
    monkeypatch.setattr(fqangle.codes, "berlekamp_welch", lambda *a: calls.append(a) or bw(*a))
    return calls


def test_berlekamp_welch_skipped_on_long_codes_with_few_directions(monkeypatch):
    # both scans pass _FAST_MIN_SCAN, but n^2 > D = q + 1: Berlekamp-Welch's
    # n x n tables and Python Euclid steps would cost far more than the scan
    calls = record_berlekamp_welch(monkeypatch)
    cases = []
    for m in (8, 10):
        field = make_field(2, m)
        code = make_rs_code(field, field.q, 2)
        assert len(projective_codeword_matrix(code)) * code.n >= fqangle.codes._FAST_MIN_SCAN
        rng = np.random.default_rng(m)
        near = field.add_array(projective_codeword_matrix(code)[5], np.eye(1, code.n, 3, dtype=np.int64)[0])
        cases.append((code, [Vector(field, u) for u in (near, *rng.integers(1, field.q, size=(2, code.n)))]))
    fast = [[angular_decode(u, code) for u in words] for code, words in cases]
    assert calls == [] and all("_rs" not in vars(code) for code, _ in cases)  # no tables built
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 1 << 62)
    assert fast == [[angular_decode(u, code) for u in words] for code, words in cases]
    assert fast[0][0].unique and fast[0][0].best[0][1] == 1


def test_rs_8192_1_decodes_in_one_gib():
    # RS[8192,1]/GF(2^13) has one direction; Berlekamp-Welch's n x n int64
    # tables alone would take 512 MiB each, past this address-space limit
    script = "\n".join([
        "import resource",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
        "import numpy as np",
        "from fqangle import Vector, angular_decode, make_field, make_rs_code",
        "code = make_rs_code(make_field(2, 13), 8192, 1)",
        "near = np.ones(8192, dtype=np.int64)",
        "near[:100] = 2",
        "uniform = np.random.default_rng(0).integers(1, 8192, size=8192)",
        "print(*(angular_decode(Vector(code.field, u), code).best[0][1] for u in (near, uniform)))",
    ])
    # one BLAS thread: each one reserves its own buffer of address space
    env = {**os.environ, "PYTHONPATH": str(Path(fqangle.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    near, uniform = map(int, proc.stdout.split())
    assert near == 100 and uniform < 8192


def test_fast_path_dispatch(monkeypatch):
    calls = record_berlekamp_welch(monkeypatch)
    u = Vector(F7, [1, 1, 4, 2, 2, 4, 1])
    angular_decode(u, rs733())  # 57 directions x 7: the scan is cheaper
    angular_decode(u, make_code(F7, rs733().generator))  # not built as Reed-Solomon
    assert calls == []
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 57 * 7)
    angular_decode(u, rs733())
    assert len(calls) == 1


def test_fast_path_end_to_end_rs_15_5_gf16():
    # the decode-large code: 69,905 directions, so angular_decode takes Berlekamp-Welch
    field = make_field(2, 4)
    code = make_rs_code(field, 15, 5)
    assert 69905 * 15 >= fqangle.codes._FAST_MIN_SCAN
    d = min_distance(code)
    P = projective_codeword_matrix(code)
    rng = np.random.default_rng(15)
    U = []
    for w in (0, 2, 3, 5, 5):
        err = np.zeros(15, dtype=np.int64)
        err[rng.choice(15, size=w, replace=False)] = rng.integers(1, 16, size=w)
        U.append(field.scalar_mul_array(int(rng.integers(1, 16)), field.add_array(P[rng.integers(len(P))], err)))
    U += list(rng.integers(1, 16, size=(2, 15)))  # random words take the information sets
    best, angle, _ = decode_rows(code, U)
    for u, b, a in zip(U, best, angle):
        out = angular_decode(Vector(field, u), code)
        assert out.best[0] == (projectivize(Vector(field, P[b])), a)
        assert out.unique == (2 * a < d) and out.min_distance == d


# ----------------------------------------------------------------------
# Information-set candidates: every result checked against the scan
# ----------------------------------------------------------------------

def enumerable_rs_codes(q):
    """(n, k) of every Reed-Solomon code over GF(q) the enumeration guard allows."""
    return [(n, k) for n in range(1, q + 1) for k in range(1, n + 1) if q**k <= fqangle.codes.ENUMERATION_CAP]


def grid_words(code, rng):
    """Seeded nonzero words: uniform words, words of weight 1 and k - 1,
    and a direction plus an error inside the radius, rescaled."""
    field, n, k = code.field, code.n, code.k
    P = projective_codeword_matrix(code)
    words = list(rng.integers(0, field.q, size=(3, n)))
    for w in sorted({1, max(k - 1, 1)}):
        low = np.zeros(n, dtype=np.int64)
        low[rng.choice(n, size=w, replace=False)] = rng.integers(1, field.q, size=w)
        words.append(low)
    t = (min_distance(code) - 1) // 2
    err = np.zeros(n, dtype=np.int64)
    err[rng.choice(n, size=t, replace=False)] = rng.integers(1, field.q, size=t)
    words.append(field.scalar_mul_array(int(rng.integers(1, field.q)), field.add_array(P[rng.integers(len(P))], err)))
    return [Vector(field, u) for u in words if u.any()]


def record_candidates(monkeypatch):
    """The codes _infoset_candidates is called on, in call order."""
    taken = []
    candidates = fqangle.codes._infoset_candidates
    monkeypatch.setattr(fqangle.codes, "_infoset_candidates",
                        lambda u, code, tables: taken.append(code) or candidates(u, code, tables))
    return taken


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_infoset_candidates_equal_scan_on_every_rs_code(q, monkeypatch):
    # the scan alone, then the candidates alone (Berlekamp-Welch finds
    # nothing on both sides), on every enumerable RS code over GF(q)
    from fqangle import field_from_order

    field = field_from_order(q)
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 0)
    monkeypatch.setattr(fqangle.codes, "berlekamp_welch", lambda *args: None)
    taken = record_candidates(monkeypatch)
    ties = 0
    for i, (n, k) in enumerate(enumerable_rs_codes(q)):
        code = make_rs_code(field, n, k)
        assert min_distance(code) == n - k + 1
        words = grid_words(code, np.random.default_rng(100 * q + i))
        monkeypatch.setattr(fqangle.codes, "_infosets_pay", lambda code: False)
        scan = [angular_decode(u, code) for u in words]
        scan_dist = [(angle_to_code(u, code), dist_to_code(u, code)) for u in words]
        assert taken == []
        monkeypatch.setattr(fqangle.codes, "_infosets_pay", lambda code: True)
        assert [angular_decode(u, code) for u in words] == scan
        assert taken
        taken.clear()
        assert [(angle_to_code(u, code), dist_to_code(u, code)) for u in words] == scan_dist
        assert taken
        taken.clear()
        ties += sum(out.kind is DecodeKind.BEYOND_RADIUS and len(out.best) > 1 for out in scan)
    assert q == 2 or ties  # beyond-radius words with several tied directions were compared


def reference_blocks(code):
    """(S, G_S^-1 G) for every information set S, in itertools.combinations
    order, from one row_reduce of [G_S | G] per k-subset S, on any code:
    where G_S is invertible the reduced block is [I | G_S^-1 G]; other
    subsets are dropped."""
    field, k, n, G = code.field, code.k, code.n, code.generator
    blocks = []
    for S in itertools.combinations(range(n), k):
        R = fqangle.codes.row_reduce(field, np.hstack([G[:, S], G]))[0]
        if np.array_equal(R[:, :k], np.eye(k)):
            blocks.append((S, R[:, k:]))
    return blocks


def reference_maps(code):
    """(subsets, off, maps, log, exp) from reference_blocks: the k-gather
    layout of the information sets.  maps[j, :, s] holds the sentinel logs
    of row j of G_S^-1 G at the positions off[:, s] off S; the columns it
    drops, on S, are the identity, so a candidate equals the word there."""
    field, k, n = code.field, code.k, code.n
    log, exp = field.sentinel_log_tables()
    log = log.astype(np.min_scalar_type(4 * (field.q - 1)))
    subsets, offs, maps = [], [], []
    for S, M in reference_blocks(code):
        off = [i for i in range(n) if i not in S]
        assert np.array_equal(M[:, S], np.eye(k)), S
        subsets.append(S)
        offs.append(off)
        maps.append(log.take(M[:, off]))
    return (np.array(subsets, dtype=np.intp).T, np.array(offs, dtype=np.intp).reshape(len(offs), n - k).T,
            np.stack(maps, axis=2), log, exp.astype(np.min_scalar_type(field.q - 1)))


def gather_candidates(u, code, reference):
    """(dist, rows): d_H(u, C_S) and the candidate rows C_S = u_S G_S^-1 G
    of every information set of reference_maps, by k gathers of the maps
    over the positions off S; n + 1 where u vanishes on S."""
    subsets, off, maps, log, exp = reference
    field, n = code.field, code.n
    logs = log.take(u).take(subsets)
    C = exp.take(logs[0] + maps[0])
    for j in range(1, code.k):
        C = field.add_array(C, exp.take(logs[j] + maps[j]))
    dist = np.count_nonzero(C != u.take(off), axis=0)
    dist[(logs == log[0]).all(axis=0)] = n + 1
    rows = np.tile(u, (subsets.shape[1], 1))
    np.put_along_axis(rows, off.T, C.T, axis=1)
    return dist, rows


def reference_tables(code):
    """The code's _InfoSets from the definitions, with scalar field ops:
    each (k + 1)-subset T, its weights 1 / prod (x_j - x_t) as sentinel
    logs and its bitmask; each k-subset S and, per position i off S, the
    index of S + {i}."""
    field, k, n = code.field, code.k, code.n
    x = code.eval_points.tolist()
    log, exp = field.sentinel_log_tables()
    log = log.astype(np.min_scalar_type(4 * (field.q - 1)))
    Ts = list(itertools.combinations(range(n), k + 1))
    weights = [[int(log[field.inv(functools.reduce(field.mul, [field.sub(x[j], x[t]) for t in T if t != j], 1))])
                for j in T] for T in Ts]
    index = {T: i for i, T in enumerate(Ts)}
    Ss = list(itertools.combinations(range(n), k))
    sup = [[index[tuple(sorted(S + (i,)))] for i in range(n) if i not in S] for S in Ss]
    return fqangle.codes._InfoSets(
        positions=np.array(Ts, dtype=np.intp).reshape(len(Ts), k + 1).T,
        weights=np.array(weights, dtype=log.dtype).reshape(len(Ts), k + 1).T,
        bits=np.array([sum(1 << i for i in T) for T in Ts], dtype=np.uint64),
        subsets=np.array(Ss, dtype=np.min_scalar_type(n - 1)).T,
        sup=np.array(sup, dtype=np.intp).reshape(len(Ss), n - k).T,
        log=log, exp=exp.astype(np.min_scalar_type(field.q - 1)))


def reference_directions(code, C):
    """Row of projective_codeword_matrix of each nonzero codeword row of C,
    looked up by its normalized row, on any code."""
    P = projective_codeword_matrix(code)
    index = {row.tobytes(): i for i, row in enumerate(P)}
    return np.array([index[row.astype(P.dtype).tobytes()] for row in normalize_rows(code.field, C)], dtype=np.intp)


INFOSET_CODES = BW_CODES + [(make_field(13), 13, 4, None), (make_field(7, 2), 8, 3, None)]


def infoset_id(case):
    field, n, k, points = case
    return f"RS[{n},{k}]/GF({field.q}){'-points' if points else ''}"


@pytest.mark.parametrize("case", INFOSET_CODES, ids=infoset_id)
def test_lagrange_tables_equal_row_reduce(case):
    field, n, k, points = case
    code = make_rs_code(field, n, k, points)
    tables, reference = code._rs.infosets, reference_tables(code)
    for name in ("positions", "weights", "bits", "subsets", "sup", "log", "exp"):
        assert np.array_equal(getattr(tables, name), getattr(reference, name)), name
        assert getattr(tables, name).dtype == getattr(reference, name).dtype, name
    assert code._rs.infosets is tables  # cached
    # the Lagrange messages of seeded codewords equal their true messages
    # and those read by G_S^-1 of one information set S, from row_reduce
    idx = np.random.default_rng(n * k).integers(1, field.q**k, size=200)
    C = encode(code, idx)
    lagrange = fqangle.codes._log_vecmat(field, field.mul_tables[0].take(C.T), code._rs.lagrange[:, :k])
    S = tables.subsets[:, 0].astype(np.intp)
    G_S_inv = fqangle.codes.row_reduce(field, np.hstack([code.generator[:, S], np.eye(k, dtype=np.int64)]))[0][:, k:]
    assert np.array_equal(lagrange, field.matmul(C[:, S], G_S_inv))
    assert np.array_equal(lagrange, fqangle.codes.digit_rows(idx, field.q, k))
    assert np.array_equal(fqangle.codes._direction_indices(code, C), reference_directions(code, C))


@pytest.mark.parametrize("case", INFOSET_CODES, ids=infoset_id)
def test_check_distances_equal_k_gathers(case):
    # every d_H(u, C_S) from the checks of the (k + 1)-subsets, and every
    # candidate re-encoded from them, equal the k-gather reference: on
    # seeded words, codewords (distance 0) and words that vanish on sets
    field, n, k, points = case
    code = make_rs_code(field, n, k, points)
    tables, reference = code._rs.infosets, reference_maps(code)
    rng = np.random.default_rng(n + k)
    light = np.zeros((n - k, n), dtype=np.int64)  # weight w <= n - k vanishes on some k-subset
    for w, word in enumerate(light, start=1):
        word[rng.choice(n, size=w, replace=False)] = rng.integers(1, field.q, size=w)
    codewords = encode(code, rng.integers(1, field.q**k, size=4))
    least = []
    for u in np.vstack([codewords, light, bw_words(code, rng)]):
        dist, checks = fqangle.codes._infoset_candidates(u, code, tables)
        expected, rows = gather_candidates(u, code, reference)
        assert np.array_equal(dist, expected)
        sets = np.flatnonzero(dist <= n)
        assert np.array_equal(fqangle.codes._candidate_rows(u, code, tables, checks, sets), rows[sets])
        least.append(int(dist.min()))
    assert least[: len(codewords)] == [0] * len(codewords)
    # a nonzero word vanishes on no set of RS[5,5], whose one set holds every position
    assert k == n or any((gather_candidates(u, code, reference)[0] == n + 1).any() for u in light)


def test_ties_of_beta_c_and_c_and_of_many_sets_rebuild_one_row_each(monkeypatch):
    # RS[8,2]/GF(9), d = 7.  u = c on four positions and beta c on the other
    # four, for a codeword c without zeros: any other codeword agrees with c
    # or with beta c on at most k - 1 = 1 position, so c and beta c alone lie
    # at the least distance 4, each the candidate of its C(4, 2) = 6 sets,
    # and 2 * 4 >= d.  And c plus two errors: C(6, 2) = 15 sets of one
    # codeword at distance 2, inside the radius.  Each rebuilds one row
    # per distinct codeword, and the two outcomes equal the scan's
    field = make_field(3, 2)
    code = make_rs_code(field, 8, 2)
    P = projective_codeword_matrix(code).astype(np.int64)
    c = P[np.flatnonzero(np.count_nonzero(P, axis=1) == 8)[0]]
    both = np.concatenate([c[:4], field.scalar_mul_array(2, c[4:])])
    near = c.copy()
    near[[1, 6]] = field.add_array(near[[1, 6]], np.array([1, 3]))
    words = [Vector(field, both), Vector(field, near)]
    scan = [angular_decode(u, code) for u in words]
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 0)
    monkeypatch.setattr(fqangle.codes, "_infosets_pay", lambda code: True)
    rebuilt = []
    candidate_rows = fqangle.codes._candidate_rows
    monkeypatch.setattr(fqangle.codes, "_candidate_rows",
                        lambda u, code, tables, checks, sets: rebuilt.append(len(sets)) or candidate_rows(u, code, tables, checks, sets))
    taken = record_candidates(monkeypatch)
    assert [angular_decode(u, code) for u in words] == scan and len(taken) == 2
    assert rebuilt == [2, 1]
    assert scan[0].kind is DecodeKind.BEYOND_RADIUS and scan[0].best == ((projectivize(Vector(field, c)), 4),)
    assert scan[1].unique and scan[1].best == ((projectivize(Vector(field, c)), 2),)
    for u, ties in zip(words, (2 * 6, 15)):
        dist, _ = fqangle.codes._infoset_candidates(u.coords, code, code._rs.infosets)
        assert np.count_nonzero(dist == dist.min()) == ties
    assert [angle_to_code(u, code) for u in words] == [4, 2] and rebuilt == [2, 1]  # no rows built


def test_rs_tables_hold_no_reference_to_their_code(monkeypatch):
    # a code <-> tables cycle would keep every dropped code, direction
    # matrix and all, until the cyclic collector runs
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 0)
    monkeypatch.setattr(fqangle.codes, "_infosets_pay", lambda code: True)
    code = make_rs_code(F7, 6, 3)
    for u in grid_words(code, np.random.default_rng(5)):
        angular_decode(u, code)
    assert code._rs.infosets is not None and code._projective is not None
    ref = weakref.ref(code)
    gc.disable()
    try:
        del code
        assert ref() is None
    finally:
        gc.enable()


def planted_non_mds_code(field, n, k, seed):
    """A seeded random generator whose first row vanishes on n - 2
    positions, so d <= 2 < n - k + 1: never MDS."""
    while True:
        G = np.random.default_rng(seed).integers(0, field.q, size=(k, n))
        G[0, : n - 2] = 0
        try:
            return make_code(field, G)
        except RankDeficient:
            seed += 1000


NON_MDS = [(2, 6, 2), (3, 8, 3), (4, 6, 3), (7, 6, 3), (8, 7, 3), (16, 8, 3)]


@pytest.mark.parametrize("q,n,k", NON_MDS, ids=lambda x: str(x))
def test_codes_not_built_as_rs_never_take_the_candidates(q, n, k, monkeypatch):
    # non-MDS codes, and MDS codes without evaluation points
    from fqangle import field_from_order

    field = field_from_order(q)
    code = planted_non_mds_code(field, n, k, seed=q * n)
    assert min_distance(code) < n - k + 1
    codes = [code, make_repetition_code(field, n), make_code(field, make_rs_code(field, min(n, q), 2).generator)]
    taken = record_candidates(monkeypatch)
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 0)
    monkeypatch.setattr(fqangle.codes, "_infosets_pay", lambda code: True)
    for code in codes:
        for u in grid_words(code, np.random.default_rng(q)):
            angular_decode(u, code)
    assert taken == []


@pytest.mark.parametrize("q,n,k", NON_MDS, ids=lambda x: str(x))
def test_candidates_on_a_non_mds_code_can_miss_the_least_angle(q, n, k, monkeypatch):
    # each candidate's Hamming distance bounds its direction's angle, and
    # equals it at every direction at angle <= d - 1, on any code; but the
    # least distance can exceed d - 1 on a non-MDS code, where the scan
    # must decide.  The checks of (k + 1)-subsets hold on MDS codes only,
    # so the candidates here come from the k-gather reference
    from fqangle import field_from_order

    field = field_from_order(q)
    code = planted_non_mds_code(field, n, k, seed=q * n)
    d = min_distance(code)
    blocks, reference = reference_blocks(code), reference_maps(code)
    rng = np.random.default_rng(n)
    U = np.vstack([rng.integers(0, field.q, size=(60, n)), np.eye(n, dtype=np.int64)])  # and weight 1
    words = [Vector(field, u) for u in U[U.any(axis=1)]]
    above = {}
    for u in words:
        dist, rows = gather_candidates(u.coords, code, reference)
        full = np.vstack([field.matmul(u.coords[list(S)][None], M) for S, M in blocks])
        nonzero = full.any(axis=1)
        assert np.array_equal(nonzero, u.coords[reference[0]].any(axis=0))
        assert (dist[~nonzero] == n + 1).all()  # the zero candidate, which has no direction
        assert np.array_equal(rows[nonzero], full[nonzero])
        full, dist = full[nonzero], dist[nonzero]
        assert np.array_equal(dist, np.count_nonzero(full != u.coords, axis=1))  # each distance recounted
        scan = fqangle.codes._angle_table(field, u.coords[None, :], projective_codeword_matrix(code))[0]
        rows = reference_directions(code, full)
        assert (dist >= scan[rows]).all()  # a codeword's distance bounds its direction's angle
        least = np.full(len(scan), n + 1)
        np.minimum.at(least, rows, dist)
        assert np.array_equal(least[scan < d], scan[scan < d])  # and attains it below d
        if int(dist.min(initial=n + 1)) > d - 1:  # as where u vanishes on every information set
            above[u] = gather_candidates(u.coords, code, reference)
    assert above
    # handed those distances past the Reed-Solomon gate, the guard still
    # gives those words to the scan.  Only make_rs_code gives a code
    # points, so they are forced on here past the frozen code
    scan = [angular_decode(u, code) for u in above]
    object.__setattr__(code, "eval_points", np.arange(n))
    monkeypatch.setattr(fqangle.codes._ReedSolomon, "build", lambda *a: types.SimpleNamespace(infosets=None))
    monkeypatch.setattr(fqangle.codes, "_FAST_MIN_SCAN", 0)
    monkeypatch.setattr(fqangle.codes, "_infosets_pay", lambda code: True)
    monkeypatch.setattr(fqangle.codes, "berlekamp_welch", lambda *args: None)
    monkeypatch.setattr(fqangle.codes, "_infoset_candidates", lambda u, code, tables: above[Vector(field, u)])
    assert [angular_decode(u, code) for u in above] == scan


def test_infoset_dispatch(monkeypatch):
    taken = record_candidates(monkeypatch)
    scanned = []  # the number of directions of each scan
    angle_table = fqangle.codes._angle_table
    monkeypatch.setattr(fqangle.codes, "_angle_table", lambda field, A, B: scanned.append(len(B)) or angle_table(field, A, B))
    small = rs733()  # 57 directions x 7 positions: the scan is cheaper
    mid = make_rs_code(make_field(13), 13, 4)  # 2,380 directions, 715 x 5 candidate rows
    large = make_rs_code(make_field(2, 4), 15, 5)  # 69,905 directions, 3,003 x 6 candidate rows
    rng = np.random.default_rng(3)
    for code in (small, mid):
        u = Vector(code.field, rng.integers(1, code.field.q, size=code.n))
        angular_decode(u, code)
        assert (taken, scanned) == ([], [len(projective_codeword_matrix(code))])
        scanned.clear()
    u = Vector(large.field, rng.integers(1, 16, size=15))
    out = angular_decode(u, large)
    assert (taken, scanned) == ([large], [])
    assert sum(t.nbytes for t in vars(large._rs.infosets).values()) < 1 << 20
    # angle_to_code takes the shortcuts too; list decoding scans
    assert angle_to_code(u, large) == out.best[0][1] and scanned == []
    assert projective_list_decode(u, large, out.best[0][1] + 1) and scanned == [69_905]
    assert taken == [large, large]


def test_infoset_tables_refuse_more_than_64_positions():
    # the agreement sets are uint64 bitmasks; the information sets pay
    # only where n <= 26, so no decode reaches this
    code = make_rs_code(make_field(67), 65, 1)
    assert not fqangle.codes._infosets_pay(code)
    with pytest.raises(InvalidInput, match="n <= 64"):
        code._rs.infosets


def test_sorted_distinct_equals_unique():
    rng = np.random.default_rng(8)
    for size in (1, 2, 40):
        a = rng.integers(0, 3, size=size)
        first = fqangle.codes._first_occurrences(a)
        assert np.array_equal(a[first], np.unique(a))
        assert np.array_equal(first, np.unique(a, return_index=True)[1])


def test_uniform_word_decodes_import_no_numpy_ma():
    # np.unique's first call imports numpy.ma, about 13 ms of a one-word
    # CLI decode; the information sets de-duplicate their ties without it
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from fqangle import Vector, angular_decode, make_field, make_rs_code",
        "code = make_rs_code(make_field(2, 4), 15, 5)",
        "rng = np.random.default_rng(0)",
        "outs = [angular_decode(Vector(code.field, rng.integers(1, 16, size=15)), code) for _ in range(8)]",
        "print('infosets' in vars(code._rs), max(len(out.best) for out in outs), 'numpy.ma' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(fqangle.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    took_infosets, most_tied, imported = proc.stdout.split()
    assert took_infosets == "True" and int(most_tied) > 1  # ties were de-duplicated
    assert imported == "False"


# ----------------------------------------------------------------------
# Output pins: digests recorded at f7855a8, before the codeword matrices
# shared one enumeration and every least-angle answer one check
# ----------------------------------------------------------------------

def seeded_words(code, seed):
    """Six near words, a direction plus an error of weight <= (n - k) // 2
    times a nonzero scalar, then six uniform nonzero words and two words of
    weight one, nearer to 0 than to any direction, as rows."""
    from fqangle.experiments import random_nonzero_rows

    field, n = code.field, code.n
    rng = np.random.default_rng(seed)
    P = projective_codeword_matrix(code).astype(np.int64)
    near = np.zeros((6, n), dtype=np.int64)
    for word in near:
        positions = rng.choice(n, size=rng.integers(0, (n - code.k) // 2 + 1), replace=False)
        word[positions] = rng.integers(1, field.q, size=positions.size)
        word[:] = field.mul_array(int(rng.integers(1, field.q)), field.add_array(P[rng.integers(len(P))], word))
    light = np.zeros((2, n), dtype=np.int64)
    light[[0, 1], rng.choice(n, size=2, replace=False)] = rng.integers(1, field.q, size=2)
    return np.vstack([near, random_nonzero_rows(rng, field, 6, n), light])


PINNED_OUTPUTS = {
    (7, 7, 3): "3711d3279f80873ca099cdb1ba6be6df96e42cf2ab0b4629a37e37e1c656c5d5",
    (16, 15, 5): "d687f5dd6e48a19262054ffc10f7cef0334f80a6042e82eef678ad52d81c656f",
}


@pytest.mark.parametrize("q,n,k", list(PINNED_OUTPUTS), ids=[f"RS[{n},{k}]/GF({q})" for q, n, k in PINNED_OUTPUTS])
def test_decoder_outputs_are_pinned(q, n, k):
    from fqangle import field_from_order

    def points(pairs):
        return [(p.rep.values(), int(a)) for p, a in pairs]

    code = make_rs_code(field_from_order(q), n, k)
    U = seeded_words(code, seed=q * n + k)
    words = [Vector(code.field, u) for u in U]
    parts = [(o.kind.value, points(o.best), o.min_distance) for o in (angular_decode(u, code) for u in words)]
    parts += [points(projective_list_decode(u, code, 3)) for u in words]
    parts += [(angle_to_code(u, code), dist_to_code(u, code)) for u in words]
    parts += [a.tolist() for a in decode_rows(code, U)]
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == PINNED_OUTPUTS[q, n, k]


def test_codeword_matrices_are_pinned():
    code = make_rs_code(make_field(2, 3), 8, 4)
    rows = [M.astype(np.int64).tolist() for M in (codeword_matrix(code), projective_codeword_matrix(code))]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "fc99e9646a95a1e6d42ad597111b3db6f3c2824c49b5fc5f568b4ef3762c37b7")


def test_codes_binds_angle_fast_rows():
    # perfbench's tracer and selftest rebind the kernel in every module that
    # looks it up, fqangle.codes among them
    import fqangle.angle

    assert fqangle.codes.angle_fast_rows is fqangle.angle.angle_fast_rows
