"""Linear codes: construction, enumeration, minimum distance, decoding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fqangle.codes
from fqangle import (
    DecodeKind,
    DuplicatePoints,
    EnumerationTooLarge,
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
    monkeypatch.setattr(fqangle.codes, "_DECODE_CHUNK_ROWS", 100)  # one word per chunk
    for a, b in zip(whole, decode_rows(code, U)):
        assert np.array_equal(a, b)
    monkeypatch.setattr(fqangle.codes, "_DECODE_CHUNK_ROWS", 57 * 7)  # 7 words per chunk, ragged tail
    for a, b in zip(whole, decode_rows(code, U)):
        assert np.array_equal(a, b)


def test_decode_rows_validates_like_vector():
    code = rep3()
    with pytest.raises(InvalidInput):
        decode_rows(code, [[1.0, 0.0, 0.0]])
    with pytest.raises(InvalidInput):
        decode_rows(code, [[3, 0, 0]])
    with pytest.raises(InvalidInput):
        decode_rows(code, [1, 0, 0])  # one word must still be a (1, n) matrix
    with pytest.raises(InvalidInput):
        decode_rows(code, np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(LengthMismatch):
        decode_rows(code, [[1, 0]])
    with pytest.raises(ZeroVector):
        decode_rows(code, [[1, 0, 0], [0, 0, 0]])


def test_unique_decoding_violation_is_typed(monkeypatch):
    # an angle table that puts every direction at angle 0 ties them inside the radius
    code = rs733()
    monkeypatch.setattr(fqangle.codes, "_angle_table", lambda field, A, B: np.zeros((len(A), len(B)), dtype=np.int64))
    u = Vector(F7, [1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(UniqueDecodingViolated):
        angular_decode(u, code)
    with pytest.raises(UniqueDecodingViolated):
        decode_rows(code, [[1, 2, 3, 4, 5, 6, 0], [1, 0, 0, 0, 0, 0, 0]])
    assert issubclass(UniqueDecodingViolated, AssertionError)
