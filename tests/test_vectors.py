"""Hamming primitives and the vector value type."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqangle import (
    FieldMismatch,
    InvalidInput,
    LengthMismatch,
    Vector,
    agreement,
    dot,
    format_vector,
    hamming_distance,
    hamming_weight,
    make_field,
    parse_vector,
    scalar_mul,
)

F3 = make_field(3)


def vec(values, field=F3):
    return Vector(field, values)


def test_hamming_weight():
    assert hamming_weight(vec([1, 2, 0])) == 2
    assert hamming_weight(vec([0, 0, 0, 0, 0])) == 0
    assert hamming_weight(vec([1, 1, 1])) == 3


def test_hamming_distance_worked_pair():
    u = vec([1, 2, 0])
    assert hamming_distance(u, vec([1, 1, 2])) == 2
    assert hamming_distance(u, vec([2, 2, 1])) == 2
    assert hamming_distance(u, u) == 0


def test_distance_equals_weight_of_difference():
    # d_H(u, v) = wt_H(u - v), checked across all pairs in F_3^3 and F_4^2
    for field, n in [(F3, 3), (make_field(2, 2), 2)]:
        vectors = [Vector(field, c) for c in itertools.product(range(field.q), repeat=n)]
        for u in vectors:
            for v in vectors:
                diff = Vector(field, [field.sub(a, b) for a, b in zip(u, v)])
                assert hamming_distance(u, v) == hamming_weight(diff)


def test_agreement():
    assert agreement(vec([1, 2, 0]), vec([1, 1, 2])) == 1
    u = vec([1, 2, 0, 1], make_field(3))
    assert agreement(u, u) == 4
    f2 = make_field(2)
    assert agreement(Vector(f2, [1, 0]), Vector(f2, [0, 1])) == 0


def test_scalar_mul():
    assert scalar_mul(2, vec([1, 1, 2])) == vec([2, 2, 1])
    u = vec([1, 2, 0])
    assert scalar_mul(1, u) == u
    assert scalar_mul(0, u) == vec([0, 0, 0])


def test_scalar_invariance_of_weight_exhaustive():
    for q, n in [(2, 3), (3, 3), (5, 2)]:
        field = make_field(q)
        for coords in itertools.product(range(q), repeat=n):
            u = Vector(field, coords)
            for c in field.nonzero_elements():
                assert hamming_weight(scalar_mul(c, u)) == hamming_weight(u)


def test_distance_is_a_metric_exhaustive_f3_cubed():
    vectors = [vec(c) for c in itertools.product(range(3), repeat=3)]
    D = np.array([[hamming_distance(u, v) for v in vectors] for u in vectors])
    assert np.array_equal(D == 0, np.eye(len(vectors), dtype=bool))
    assert np.array_equal(D, D.T)
    assert np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :])


def test_mismatch_errors():
    with pytest.raises(LengthMismatch):
        hamming_distance(vec([1, 2]), vec([1, 2, 0]))
    with pytest.raises(FieldMismatch):
        hamming_distance(vec([1, 2]), Vector(make_field(5), [1, 2]))


def test_vector_validation():
    with pytest.raises(ValueError):
        Vector(F3, [])
    with pytest.raises(ValueError):
        Vector(F3, [0, 3])
    with pytest.raises(ValueError):
        Vector(F3, [-1, 0])


@pytest.mark.parametrize("coords", [[1.7, 2.2], ["2", 1], [2**70, 1], np.array([1.0, 2.0])])
def test_vector_rejects_non_integer_input(coords):
    with pytest.raises(InvalidInput):
        Vector(F3, coords)


def test_vector_accepts_narrow_integer_dtypes():
    assert Vector(F3, np.array([1, 2, 0], dtype=np.uint8)) == vec([1, 2, 0])
    assert Vector(F3, np.array([1, 2, 0], dtype=np.int16)).coords.dtype == np.int64
    with pytest.raises(InvalidInput):
        Vector(F3, np.array([2**64 - 1, 1], dtype=np.uint64))


def test_vectors_are_immutable():
    u = vec([1, 2, 0])
    with pytest.raises(ValueError):
        u.coords[0] = 2
    source = np.array([1, 2, 0])
    v = Vector(F3, source)
    source[0] = 2  # mutating the source must not reach the vector
    assert v == vec([1, 2, 0])


def test_dot_product():
    assert dot(vec([1, 2, 0]), vec([1, 1, 2])) == 0  # 1 + 2 + 0 = 3 = 0 mod 3
    assert dot(vec([1, 1, 1]), vec([1, 1, 1])) == 0
    f7 = make_field(7)
    assert dot(Vector(f7, [2, 3]), Vector(f7, [4, 5])) == (8 + 15) % 7
    rng = np.random.default_rng(2)
    for field in (make_field(2, 3), make_field(3, 2), make_field(5, 2)):
        u, v = rng.integers(0, field.q, size=(2, 40))
        expected = 0
        for a, b in zip(u, v):
            expected = field.add(expected, field.mul(int(a), int(b)))
        assert dot(Vector(field, u), Vector(field, v)) == expected


def test_parse_and_format_round_trip():
    u = parse_vector(F3, "1,2,0")
    assert u == vec([1, 2, 0])
    assert format_vector(u) == "1,2,0"
    assert parse_vector(F3, " 1 , 2 , 0 \n") == u
    with pytest.raises(ValueError):
        parse_vector(F3, "1,x,0")
    with pytest.raises(ValueError):
        parse_vector(F3, "1,5,0")  # out of range


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 3), (3, 2), (251, 1)]).flatmap(
        lambda pm: st.tuples(
            st.just(make_field(*pm)),
            st.lists(st.integers(0, pm[0] ** pm[1] - 1), min_size=1, max_size=40),
        )
    )
)
def test_parse_and_format_round_trip_property(case):
    field, values = case
    text = ",".join(str(x) for x in values)
    u = parse_vector(field, text)
    assert u.values() == tuple(values)
    assert format_vector(u) == text
    assert parse_vector(field, format_vector(u)) == u
