"""The angle itself: oracle equivalence, metric behavior, census, projective layer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fqangle.angle
from fqangle import (
    ProjectivePoint,
    Vector,
    ZeroVector,
    angle_fast,
    angle_fast_rows,
    angle_naive,
    angle_naive_rows,
    argmin_scalar,
    build_census,
    dot,
    hamming_distance,
    is_max_angle,
    make_field,
    projective_distance,
    projectivize,
    scalar_mul,
)
from fqangle.angle import _angle_table, normalize_rows
from fqangle.experiments import all_nonzero_vectors

F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def vec(values, field=F3):
    return Vector(field, values)


def nonzero_vectors(field, n):
    return [Vector(field, row) for row in all_nonzero_vectors(field, n)]


# ----------------------------------------------------------------------
# The worked pair u = (1,2,0), v = (1,1,2) over F_3
# ----------------------------------------------------------------------

def test_worked_example_angle():
    u, v = vec([1, 2, 0]), vec([1, 1, 2])
    assert hamming_distance(u, scalar_mul(1, v)) == 2
    assert hamming_distance(u, scalar_mul(2, v)) == 2
    assert angle_naive(u, v) == 2
    assert angle_fast(u, v) == 2


def test_worked_example_census():
    census = build_census(vec([1, 2, 0]), vec([1, 1, 2]))
    assert census.both_zero == 0
    assert census.only_u == 0
    assert census.only_v == 1
    assert census.ratio_counts == {1: 1, 2: 1}
    assert census.total() == 3


def test_census_partition_invariant_exhaustive_f3():
    for u in nonzero_vectors(F3, 3):
        for v in nonzero_vectors(F3, 3):
            census = build_census(u, v)
            assert census.total() == 3
            best = max(census.ratio_counts.values(), default=0)
            assert angle_fast(u, v) == 3 - census.both_zero - best


def test_census_disjoint_supports():
    census = build_census(vec([1, 0]), vec([0, 1]))
    assert (census.both_zero, census.only_u, census.only_v) == (0, 1, 1)
    assert census.ratio_counts == {}


def test_census_equal_vectors():
    u = Vector(make_field(5), [1, 2, 3, 4])
    census = build_census(u, u)
    assert census.ratio_counts == {1: 4}
    assert census.both_zero == 0


def test_argmin_scalar():
    # both c = 1 and c = 2 attain the minimum; tie-break picks 1
    assert argmin_scalar(vec([1, 2, 0]), vec([1, 1, 2])) == (1, 2)
    u = vec([1, 2, 0])
    assert argmin_scalar(scalar_mul(2, u), u) == (2, 0)
    assert argmin_scalar(vec([1, 0]), vec([0, 1])) == (1, 2)  # convention case
    f5 = F5
    assert argmin_scalar(Vector(f5, [1, 2]), Vector(f5, [2, 4])) == (3, 0)


# ----------------------------------------------------------------------
# Oracle equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field,n", [(F3, 3), (F4, 2)])
def test_fast_equals_naive_exhaustive(field, n):
    for u in nonzero_vectors(field, n):
        for v in nonzero_vectors(field, n):
            assert angle_fast(u, v) == angle_naive(u, v)


@pytest.mark.parametrize("q,n", [(7, 20), (9, 15), (251, 40)])
def test_fast_equals_naive_random(q, n):
    from fqangle import field_from_order
    from fqangle.experiments import random_nonzero_rows

    field = field_from_order(q)
    rng = np.random.default_rng(123)
    U = random_nonzero_rows(rng, field, 300, n)
    V = random_nonzero_rows(rng, field, 300, n)
    assert np.array_equal(angle_fast_rows(field, U, V), angle_naive_rows(field, U, V))


def test_row_kernels_match_pairwise_api():
    rng = np.random.default_rng(5)
    from fqangle.experiments import random_nonzero_rows

    U = random_nonzero_rows(rng, F5, 50, 6)
    V = random_nonzero_rows(rng, F5, 50, 6)
    fast = angle_fast_rows(F5, U, V)
    naive = angle_naive_rows(F5, U, V)
    for i in range(50):
        u, v = Vector(F5, U[i]), Vector(F5, V[i])
        assert fast[i] == angle_fast(u, v)
        assert naive[i] == angle_naive(u, v)


@pytest.mark.parametrize("field", [F5, make_field(2, 3), make_field(3, 2)])
@pytest.mark.parametrize("T,D", [(1, 40), (1, 1), (9, 1), (9, 40)])
def test_angle_table_matches_row_kernel(field, T, D):
    from fqangle.experiments import random_nonzero_rows

    rng = np.random.default_rng(T * D)
    A = random_nonzero_rows(rng, field, T, 8)
    B = random_nonzero_rows(rng, field, D, 8)
    table = _angle_table(field, A, B)
    assert table.shape == (T, D)
    for i in range(T):
        for j in range(D):
            assert table[i, j] == angle_fast_rows(field, A[i], B[j])[0]


def test_sorting_fallback_matches_bincount(monkeypatch):
    from fqangle.experiments import random_nonzero_rows

    rng = np.random.default_rng(11)
    field = make_field(13)
    U = random_nonzero_rows(rng, field, 64, 9)
    V = random_nonzero_rows(rng, field, 64, 9)
    via_bincount = angle_fast_rows(field, U, V)
    monkeypatch.setattr(fqangle.angle, "_BINCOUNT_CELL_CAP", 0)
    via_sort = angle_fast_rows(field, U, V)
    assert np.array_equal(via_bincount, via_sort)


def test_sorting_path_triggers_naturally_at_large_q():
    # T * (q + 1) > the bincount cap forces the sort-based census; sampled
    # rows must agree with the brute-force oracle
    from fqangle.experiments import random_nonzero_rows

    field = make_field(2, 16)
    rng = np.random.default_rng(17)
    T, n = 600, 50
    assert T * (field.q + 1) > fqangle.angle._BINCOUNT_CELL_CAP
    U = random_nonzero_rows(rng, field, T, n)
    V = random_nonzero_rows(rng, field, T, n)
    fast = angle_fast_rows(field, U, V)
    sample = np.arange(0, T, 97)
    assert np.array_equal(fast[sample], angle_naive_rows(field, U[sample], V[sample]))


# ----------------------------------------------------------------------
# Narrow-dtype edges of the ratio-bin census: GF(2^8), where the pair
# index u*q + v reaches 65535, and GF(2^16), whose sentinel bins q and
# q + 1 do not fit uint16
# ----------------------------------------------------------------------

def _edge_rows(field, rng):
    """Seeded pairs, disjoint supports and u = c*v, with the extreme
    encodings q - 1 and q - 2 on both sides."""
    from fqangle.experiments import random_nonzero_rows

    q, n = field.q, 40
    U = random_nonzero_rows(rng, field, 6, n)
    V = random_nonzero_rows(rng, field, 6, n)
    U[0, :4] = V[0, :4] = q - 1  # largest pair index (q*q - 1 for q = 256)
    U[1, :4], V[1, :4] = q - 2, q - 1
    disjoint_u = np.where(np.arange(n) % 2 == 0, rng.integers(1, q, n), 0)
    disjoint_v = np.where(np.arange(n) % 2 == 1, rng.integers(1, q, n), 0)
    disjoint_v[-3:] = 0  # some positions where both vanish
    U = np.vstack([U, disjoint_u])
    V = np.vstack([V, disjoint_v])
    for c in (1, 2, q - 1):
        v = V[2].copy()
        v[:5] = 0
        U = np.vstack([U, field.scalar_mul_array(c, v)])
        V = np.vstack([V, v])
    return U, V


@pytest.mark.parametrize("p,m", [(2, 8), (2, 16)])
def test_census_paths_match_oracle_at_narrow_dtype_edges(p, m, monkeypatch):
    field = make_field(p, m)
    U, V = _edge_rows(field, np.random.default_rng(29))
    naive = angle_naive_rows(field, U, V)
    assert U.shape[0] * (field.q + 1) <= fqangle.angle._BINCOUNT_CELL_CAP
    assert np.array_equal(angle_fast_rows(field, U, V), naive)  # bincount path
    monkeypatch.setattr(fqangle.angle, "_BINCOUNT_CELL_CAP", 0)
    assert np.array_equal(angle_fast_rows(field, U, V), naive)  # sort path
    for u_row, v_row, expected in zip(U, V, naive):
        u, v = Vector(field, u_row), Vector(field, v_row)
        census = build_census(u, v)
        assert census.total() == len(u)
        assert census.only_u == np.count_nonzero((u_row != 0) & (v_row == 0))
        assert census.only_v == np.count_nonzero((u_row == 0) & (v_row != 0))
        c, angle = argmin_scalar(u, v)
        assert angle == expected
        assert 1 <= c < field.q
        assert hamming_distance(u, scalar_mul(c, v)) == angle


@pytest.mark.parametrize("p,m", [(2, 8), (2, 16)])
def test_argmin_scalar_conventions_at_narrow_dtype_edges(p, m):
    field = make_field(p, m)
    q = field.q
    ones = Vector(field, [1, 1, 1, 1, 1])
    # q - 1 and q - 2 each attain the minimum: the smaller encoding wins
    assert argmin_scalar(Vector(field, [q - 1, q - 1, q - 2, q - 2, 0]), ones) == (q - 2, 3)
    assert argmin_scalar(Vector(field, [q - 1, q - 1, q - 1, 0, 0]), ones) == (q - 1, 2)
    # no position with both coordinates nonzero: c = 1 by convention
    assert argmin_scalar(Vector(field, [q - 1, 0, 0]), Vector(field, [0, q - 1, 0])) == (1, 2)
    v = Vector(field, [q - 1, 0, 3, 1])
    assert argmin_scalar(scalar_mul(q - 1, v), v) == (q - 1, 0)


def test_q2_angle_is_hamming_distance():
    f2 = make_field(2)
    for u in nonzero_vectors(f2, 4):
        for v in nonzero_vectors(f2, 4):
            assert angle_fast(u, v) == hamming_distance(u, v)


# ----------------------------------------------------------------------
# Metric behavior (exhaustive at small sizes; the suites re-run these at scale)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field,n", [(F3, 3), (F5, 2)])
def test_identity_symmetry_triangle(field, n):
    vectors = nonzero_vectors(field, n)
    A = np.array([[angle_fast(u, v) for v in vectors] for u in vectors])
    classes = [projectivize(u) for u in vectors]
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert (A[i, j] == 0) == (classes[i] == classes[j])
    assert np.array_equal(A, A.T)
    assert np.all(A[:, None, :] <= A[:, :, None] + A[None, :, :])


@st.composite
def nonzero_triples(draw, n=50):
    """(field, u, v, w): u random, v a rescaled u with a few positions
    redrawn (small angles), w random; all nonzero, length n."""
    field = draw(st.sampled_from([make_field(2), F3, F4, make_field(7), make_field(3, 2), make_field(2, 4)]))
    word = st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n).filter(any)
    u = np.array(draw(word))
    v = field.scalar_mul_array(draw(st.integers(1, field.q - 1)), u)
    redrawn = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, field.q - 1)), max_size=8))
    for i, x in redrawn:
        v[i] = x
    if not v.any():
        v[0] = 1
    return field, Vector(field, u), Vector(field, v), Vector(field, draw(word))


@given(nonzero_triples())
def test_metric_axioms_and_oracle_on_random_triples(case):
    vectors = case[1:]
    A = np.array([[angle_fast(x, y) for y in vectors] for x in vectors])
    assert A.tolist() == [[angle_naive(x, y) for y in vectors] for x in vectors]
    classes = [projectivize(x) for x in vectors]
    assert ((A == 0) == np.array([[a == b for b in classes] for a in classes])).all()
    assert np.array_equal(A, A.T)
    assert np.all(A[:, None, :] <= A[:, :, None] + A[None, :, :])


def test_bi_scalar_invariance_small():
    for field, n in [(F3, 2), (F4, 2)]:
        vectors = nonzero_vectors(field, n)
        for u in vectors:
            for v in vectors:
                base = angle_fast(u, v)
                for a in field.nonzero_elements():
                    for b in field.nonzero_elements():
                        assert angle_fast(scalar_mul(a, u), scalar_mul(b, v)) == base


def test_range_and_max_angle_bound():
    for u in nonzero_vectors(F3, 3):
        for v in nonzero_vectors(F3, 3):
            a = angle_fast(u, v)
            assert 0 <= a <= 3
            if np.any((u.coords != 0) & (v.coords != 0)):
                assert a <= 2


# ----------------------------------------------------------------------
# Maximal angle and one-way orthogonality
# ----------------------------------------------------------------------

def test_is_max_angle_examples():
    assert is_max_angle(vec([1, 0]), vec([0, 1]))
    assert angle_fast(vec([1, 0]), vec([0, 1])) == 2
    assert angle_fast(vec([1, 0]), Vector(F3, [0, 2])) == 2
    assert not is_max_angle(vec([1, 2, 0]), vec([1, 1, 2]))
    assert not is_max_angle(vec([1, 1]), vec([1, 0]))


def test_is_max_angle_iff_angle_is_n():
    for field, n in [(F3, 3), (F4, 2)]:
        for u in nonzero_vectors(field, n):
            for v in nonzero_vectors(field, n):
                assert is_max_angle(u, v) == (angle_fast(u, v) == n)


def test_max_angle_implies_zero_dot_but_not_conversely():
    for u in nonzero_vectors(F3, 3):
        for v in nonzero_vectors(F3, 3):
            if is_max_angle(u, v):
                assert dot(u, v) == 0
    # the worked pair is the counterexample to the converse
    u, v = vec([1, 2, 0]), vec([1, 1, 2])
    assert dot(u, v) == 0 and angle_fast(u, v) == 2 < 3


# ----------------------------------------------------------------------
# Projective layer
# ----------------------------------------------------------------------

def test_projectivize():
    assert projectivize(vec([2, 1, 0])).rep == vec([1, 2, 0])
    u = vec([1, 0, 2])
    assert projectivize(u).rep is u  # already normalized, no copy
    f7 = make_field(7)
    assert projectivize(Vector(f7, [0, 0, 5])).rep == Vector(f7, [0, 0, 1])


def test_projectivize_identifies_scalar_multiples():
    for u in nonzero_vectors(F3, 3):
        for v in nonzero_vectors(F3, 3):
            same = any(scalar_mul(c, v) == u for c in F3.nonzero_elements())
            assert (projectivize(u) == projectivize(v)) == same


def test_projective_point_validation():
    with pytest.raises(ValueError):
        ProjectivePoint(vec([2, 1, 0]))  # not normalized
    with pytest.raises(ZeroVector):
        ProjectivePoint(vec([0, 0, 0]))


def test_projective_distance_representative_independence():
    u, v = vec([1, 2, 0]), vec([1, 1, 2])
    a, b = projectivize(u), projectivize(v)
    assert projective_distance(a, b) == 2
    assert projective_distance(a, a) == 0
    for alpha in F3.nonzero_elements():
        for beta in F3.nonzero_elements():
            assert (
                projective_distance(projectivize(scalar_mul(alpha, u)), projectivize(scalar_mul(beta, v)))
                == 2
            )


def test_normalize_rows_matches_projectivize():
    M = all_nonzero_vectors(F4, 3)
    normalized = normalize_rows(F4, M)
    for row, norm in zip(M, normalized):
        assert projectivize(Vector(F4, row)).rep == Vector(F4, norm)


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------

def test_zero_vector_rejected():
    zero = vec([0, 0, 0])
    u = vec([1, 2, 0])
    for fn in (angle_fast, angle_naive, build_census, is_max_angle):
        with pytest.raises(ZeroVector):
            fn(zero, u)
        with pytest.raises(ZeroVector):
            fn(u, zero)
    with pytest.raises(ZeroVector):
        projectivize(zero)


def test_mismatch_rejected():
    from fqangle import FieldMismatch, LengthMismatch

    with pytest.raises(LengthMismatch):
        angle_fast(vec([1, 2]), vec([1, 2, 0]))
    with pytest.raises(FieldMismatch):
        angle_fast(vec([1, 2]), Vector(F5, [1, 2]))
