"""Hamming primitives and the vector value type."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqangle import (
    FieldMismatch,
    InvalidInput,
    LengthMismatch,
    ProjectivePoint,
    Vector,
    ZeroVector,
    agreement,
    dot,
    field_from_order,
    format_vector,
    hamming_distance,
    hamming_weight,
    make_field,
    parse_vector,
    scalar_mul,
)
from fqangle.vectors import _SHORT_ROW, coordinate_array

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


@pytest.mark.parametrize(
    "coords",
    [[1.7, 2.2], ["2", 1], [2**70, 1], np.array([1.0, 2.0]),
     [0, True, 2], (1, np.True_), [np.int64(1), False]],  # mixed bools were read as ints
)
def test_vector_rejects_non_integer_input(coords):
    with pytest.raises(InvalidInput):
        Vector(F3, coords)


def test_vector_accepts_narrow_integer_dtypes():
    assert Vector(F3, np.array([1, 2, 0], dtype=np.uint8)) == vec([1, 2, 0])
    assert Vector(F3, np.array([1, 2, 0], dtype=np.int16)).coords.dtype == np.int64
    with pytest.raises(InvalidInput):
        Vector(F3, np.array([2**64 - 1, 1], dtype=np.uint64))


@pytest.mark.parametrize("n", [_SHORT_ROW + 1, 10**5])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
def test_long_rows_refuse_values_outside_the_field_at_either_end(n, dtype):
    # a long row's range check is one max over its uint64 view, where -1
    # reads as 2^64 - 1 and a uint64 2^63 (negative in int64) as itself
    field = make_field(7)
    for bad in (-1, field.q, 2**63):
        info = np.iinfo(dtype)
        if not info.min <= bad <= info.max:
            continue
        for at in (0, n - 1):
            coords = np.ones(n, dtype=dtype)
            coords[at] = bad
            with pytest.raises(InvalidInput):
                Vector(field, coords)
    assert Vector(field, np.full(n, field.q - 1, dtype=dtype)).coords.max() == field.q - 1


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


@pytest.mark.parametrize("text", ["1_0,1", "\uff11,\uff12", "\u0661,2", "+1,2", "1,-0", "1,\u00b2", "1,,2"])
def test_parse_vector_takes_only_ascii_decimal_digits(text):
    # int() alone would read every one of these over GF(11)
    with pytest.raises(InvalidInput):
        parse_vector(make_field(11), text)


def test_parse_vector_error_is_typed():
    with pytest.raises(InvalidInput):  # was a bare ValueError
        parse_vector(F3, "1,x,0")
    with pytest.raises(InvalidInput):
        parse_vector(F3, "")


# ----------------------------------------------------------------------
# The edge contract: one owned int64 copy, the same refusals on both paths
# ----------------------------------------------------------------------


def _reference_coordinates(field, coords):
    """Plain-numpy check of one row: the int64 array, or the error type."""
    arr = np.array(coords).astype(np.int64)
    if arr.min() < 0 or arr.max() >= field.q:
        return InvalidInput
    return arr


def _reference_point(arr):
    nz = np.flatnonzero(arr)
    if nz.size == 0:
        return ZeroVector
    return None if arr[nz[0]] == 1 else InvalidInput


def _outcome(build):
    try:
        return build()
    except (InvalidInput, ZeroVector) as exc:
        return type(exc)


@st.composite
def coordinate_inputs(draw):
    q = draw(st.sampled_from([2, 3, 7, 16, 251]))
    n = draw(st.one_of(st.integers(1, 8), st.integers(_SHORT_ROW - 3, _SHORT_ROW + 3),
                       st.integers(2 * _SHORT_ROW - 3, 2 * _SHORT_ROW + 3)))
    values = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    zeros = draw(st.integers(0, n))  # leading zeros; n of them is the zero row
    values[:zeros] = [0] * zeros
    if zeros < n and draw(st.booleans()):
        values[zeros] = 1  # normalized
    for _ in range(draw(st.integers(0, 2))):  # anything in [-2, q + 2], anywhere
        values[draw(st.integers(0, n - 1))] = draw(st.integers(-2, q + 2))
    form = draw(st.sampled_from(["list", "int8", "int16", "int64", "uint8", "uint64"]))
    # astype wraps: -1 becomes 255 in uint8 and 2^64 - 1 in uint64, which is -1 in int64
    coords = values if form == "list" else np.array(values).astype(form)
    return field_from_order(q), coords


@settings(max_examples=400)
@given(coordinate_inputs())
def test_edge_checks_match_a_plain_numpy_reference(case):
    field, coords = case
    expected = _reference_coordinates(field, coords)
    got = _outcome(lambda: coordinate_array(field, coords))
    if isinstance(expected, type):
        assert got is expected
        return
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    point = _outcome(lambda: ProjectivePoint(Vector(field, coords)))
    assert (point if isinstance(point, type) else None) is _reference_point(expected)


class _Tagged(np.ndarray):
    pass


_BASE = np.array([1, 0, 2, 0, 1, 2, 2, 1] * 20, dtype=np.int64)  # longer than _SHORT_ROW


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.array([1, 2, 0, 1], dtype=np.int64),
        lambda: _BASE.copy(),
        lambda: np.array([1, 2, 0, 1], dtype=np.uint8),
        lambda: _BASE.astype(np.uint8),
        lambda: _BASE.copy()[::3],  # not contiguous
        lambda: _BASE.copy().view(_Tagged),
        lambda: _BASE.copy().view(_Tagged)[:5],
        lambda: [1, 2, 0, 1],
        lambda: np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64),
        lambda: np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int16).T,  # 2-D, Fortran order
    ],
    ids=["int64", "int64-long", "uint8", "uint8-long", "strided", "subclass", "subclass-slice",
         "list", "2d", "2d-transposed"],
)
def test_construction_owns_one_read_only_copy(make):
    source = make()
    before = np.array(source)
    if before.ndim == 2:
        coords = coordinate_array(F3, source, ndim=2)
    else:
        coords = Vector(F3, source).coords
    assert type(coords) is np.ndarray and coords.dtype == np.int64
    assert not np.shares_memory(coords, source)
    assert not coords.flags.writeable
    if isinstance(source, list):
        source[0] = 2
    else:
        source[...] = 2 - source  # still valid encodings, all changed but the 1s
    assert np.array_equal(coords, before)
