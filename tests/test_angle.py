"""The angle itself: oracle equivalence, metric behavior, census, projective layer."""

import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fqangle.angle
from fqangle import (
    InvalidInput,
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
@pytest.mark.parametrize("T,D", [(1, 40), (1, 1), (9, 1), (9, 40), (40, 9), (2, 9400), (9400, 2)])
def test_angle_table_matches_row_kernel(field, T, D):
    # 9,400 rows span two census blocks (2^16 // (q + 2) <= 9,362 rows
    # here) on whichever side is longer
    from fqangle.experiments import random_nonzero_rows

    rng = np.random.default_rng(T * D)
    A = random_nonzero_rows(rng, field, T, 8)
    B = random_nonzero_rows(rng, field, D, 8)
    table = _angle_table(field, A, B)
    assert table.shape == (T, D)
    pairs = angle_naive_rows(field, np.repeat(A, D, axis=0), np.tile(B, (T, 1)))
    assert np.array_equal(table, pairs.reshape(T, D))


def test_angle_table_holds_no_copy_of_its_sides():
    # the (1023, 1023) int64 table itself takes 8 MiB; a copy of each side
    # for every pair would take 80 MiB more per side
    import tracemalloc

    F2 = make_field(2)
    M = all_nonzero_vectors(F2, 10)
    tracemalloc.start()
    try:
        _angle_table(F2, M, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


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


def test_sort_path_runs_end_at_each_row(monkeypatch):
    # rows over GF(5) whose sorted bins would join across row boundaries:
    # each of rows 1-4 starts with the bin the row before it ends with
    ones = [1, 1, 1, 1]
    U = np.array([[1, 2, 3, 4], [1, 1, 2, 2], [2, 2, 2, 4], [4, 4, 4, 4], [4, 1, 1, 1], [0, 0, 1, 3]])
    V = np.array([[1, 2, 3, 4], ones, ones, ones, [1, 0, 0, 0], [0, 0, 1, 1]])
    # sorted bins per row: 1111 | 1122 | 2224 | 4444 | 4555 | 0013
    monkeypatch.setattr(fqangle.angle, "_BINCOUNT_CELL_CAP", 0)
    fast = angle_fast_rows(F5, U, V)
    assert fast.tolist() == [0, 2, 1, 0, 3, 1]  # runs span all of rows 0 and 3
    assert np.array_equal(fast, angle_naive_rows(F5, U, V))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sort_path_matches_oracle_on_short_rows(n, monkeypatch):
    from fqangle.experiments import random_nonzero_rows

    rng = np.random.default_rng(n)
    monkeypatch.setattr(fqangle.angle, "_BINCOUNT_CELL_CAP", 0)
    for field in (F3, make_field(2, 3), make_field(257)):
        U = random_nonzero_rows(rng, field, 40, n)
        V = random_nonzero_rows(rng, field, 40, n)
        V[:5] = U[:5]  # whole-row runs of bin 1
        assert np.array_equal(angle_fast_rows(field, U, V), angle_naive_rows(field, U, V))


# ----------------------------------------------------------------------
# Row blocks of the bincount census: one row, a few rows, ragged tails
# ----------------------------------------------------------------------

def _census_rows(field, rng, T, n=11):
    """Seeded nonzero pairs with zeros on either side and u = c*v runs."""
    from fqangle.experiments import random_nonzero_rows

    U = random_nonzero_rows(rng, field, T, n)
    V = random_nonzero_rows(rng, field, T, n)
    U[:, 0] = 0  # only v, or both zero
    V[::3, 1] = 0  # only u, or both zero
    U[:, 2:5] = field.scalar_mul_array(field.q - 1, V[:, 2:5])  # a ratio that wins
    U[U.any(axis=1) == 0, -1] = 1
    V[V.any(axis=1) == 0, -1] = 1
    return U, V


BLOCK_FIELDS = [(2, 1), (7, 1), (3, 2), (2, 4), (2, 8), (257, 1), (65521, 1)]


@pytest.mark.parametrize("p,m", BLOCK_FIELDS)
def test_bincount_blocks_match_oracle(p, m, monkeypatch):
    field = make_field(p, m)
    U, V = _census_rows(field, np.random.default_rng(field.q), 11)
    naive = angle_naive_rows(field, U, V)
    for rows in (1, 4):  # one row per block, or a few with ragged tails
        monkeypatch.setattr(fqangle.angle, "_BLOCK_BUDGET", rows * max(field.q + 2, U.shape[1]))
        for T in sorted({1, max(rows - 1, 1), rows, rows + 1, 2 * rows + 3}):
            assert T * (field.q + 1) <= fqangle.angle._BINCOUNT_CELL_CAP
            fast = angle_fast_rows(field, U[:T], V[:T])
            assert fast.dtype == np.int64
            assert np.array_equal(fast, naive[:T]), (rows, T)


@pytest.mark.parametrize("n,rows", [(8, 3), (9, 3), (10, 2)])
def test_block_budget_bounds_cells_and_positions(n, rows, monkeypatch):
    # rows = budget // max(q + 2, n): at n <= q + 2 the q + 2 count cells of a
    # row set the block, past it the n positions do
    field = make_field(7)
    U, V = _census_rows(field, np.random.default_rng(n), 7, n)
    shapes = []
    real = fqangle.angle._bin_counts
    monkeypatch.setattr(fqangle.angle, "_bin_counts",
                        lambda bins, q: shapes.append(bins.shape) or real(bins, q))
    monkeypatch.setattr(fqangle.angle, "_BLOCK_BUDGET", 3 * (field.q + 2) + 1)
    assert np.array_equal(angle_fast_rows(field, U, V), angle_naive_rows(field, U, V))
    sizes = [rows] * (7 // rows) + ([7 % rows] if 7 % rows else [])
    assert shapes == [(r, n) for r in sizes]


def test_sort_path_is_chosen_on_the_whole_input_past_the_cap(monkeypatch):
    # the cap compares T * (q + 1) over all rows, so blocks small enough to
    # fit under it must not move the input onto the bincount path
    field = make_field(257)
    T = 9
    U, V = _census_rows(field, np.random.default_rng(5), T)
    naive = angle_naive_rows(field, U, V)
    calls = []

    def spy(bins, q):
        calls.append(bins.shape)
        return sorted_census(bins, q)

    sorted_census = fqangle.angle._sorted_census
    monkeypatch.setattr(fqangle.angle, "_sorted_census", spy)
    monkeypatch.setattr(fqangle.angle, "_BLOCK_BUDGET", 2 * (field.q + 2))
    monkeypatch.setattr(fqangle.angle, "_BINCOUNT_CELL_CAP", T * (field.q + 1))
    assert np.array_equal(angle_fast_rows(field, U, V), naive)
    assert calls == []  # at the cap: bincount, in 5 blocks
    monkeypatch.setattr(fqangle.angle, "_BINCOUNT_CELL_CAP", T * (field.q + 1) - 1)
    assert np.array_equal(angle_fast_rows(field, U, V), naive)
    assert calls == [(T, U.shape[1])]  # past it: one sort over every row


# ----------------------------------------------------------------------
# One shared word against many rows: V may be one row for every row of U,
# and the kernel computes that row's half of the index once.  A stride-0
# view of the word, as U or V, is an ordinary paired input.
# ----------------------------------------------------------------------

def _shared_word_rows(field, rng, T, n=10):
    """A word with zeros, and T seeded nonzero rows including multiples of
    the word, rows with the word's support and rows disjoint from it."""
    from fqangle.experiments import random_nonzero_rows

    u = random_nonzero_rows(rng, field, 1, n)[0]
    u[[0, 3]] = 0
    u[1] = field.q - 1
    V = random_nonzero_rows(rng, field, T, n)
    V[::5, 2] = 0
    for i, c in enumerate((1, 2, field.q - 1)):
        V[i] = field.scalar_mul_array(c, u)
    V[3] = np.where(u == 0, 1, 0)  # disjoint supports: the maximal angle n
    V[4] = u != 0  # same support
    return u, V


@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (257, 1)])
def test_shared_word_scan_matches_tiled_rows_and_oracle(p, m):
    field = make_field(p, m)
    n = 10
    rows = fqangle.angle._BLOCK_BUDGET // max(field.q + 2, n)
    T = 2 * rows + 3  # two full blocks and a ragged tail
    u, V = _shared_word_rows(field, np.random.default_rng(field.q), T, n)
    V.setflags(write=False)
    u.setflags(write=False)
    shared = np.broadcast_to(u, V.shape)
    assert shared.strides[0] == 0 and not shared.flags.writeable
    tiled = np.tile(u, (T, 1))
    one_row = u[None, :]
    ratio_bins = fqangle.angle._ratio_bins
    assert np.array_equal(ratio_bins(field, V, one_row), ratio_bins(field, V, tiled))
    assert np.array_equal(ratio_bins(field, shared, V), ratio_bins(field, tiled, V))
    fast = angle_fast_rows(field, shared, V)
    assert np.array_equal(fast, angle_fast_rows(field, tiled, V))
    assert np.array_equal(fast, angle_naive_rows(field, tiled, V))
    assert np.array_equal(fast, angle_naive_rows(field, V, tiled))
    assert fast[:3].tolist() == [0, 0, 0] and fast[3] == V.shape[1]
    # the one-row V form: several blocks with a ragged tail, one full
    # block and a short single block
    for k in (T, rows, 5):
        assert np.array_equal(angle_fast_rows(field, V[:k], one_row), fast[:k])
    assert np.array_equal(angle_fast_rows(field, V, u), fast)  # a 1-D row is one row
    assert np.array_equal(shared, tiled)  # the read-only word was never written
    for dtype in (np.uint8, np.uint16) if field.q <= 256 else (np.uint16,):
        narrow = V.astype(dtype)  # the direction matrix's dtypes
        assert np.array_equal(angle_fast_rows(field, np.broadcast_to(u.astype(dtype), V.shape), narrow), fast)
        assert np.array_equal(angle_fast_rows(field, narrow, u.astype(dtype)[None, :]), fast)
        assert np.array_equal(angle_fast_rows(field, narrow, one_row), fast)  # int64 word, as a decode passes it


def test_shared_word_scan_on_the_sort_path():
    field = make_field(65521)
    T = 513
    assert T * (field.q + 1) > fqangle.angle._BINCOUNT_CELL_CAP
    u, V = _shared_word_rows(field, np.random.default_rng(513), T)
    shared = np.broadcast_to(u, V.shape)
    tiled = np.tile(u, (T, 1))
    fast = angle_fast_rows(field, shared, V)
    assert np.array_equal(fast, angle_fast_rows(field, tiled, V))
    for dtype in (np.int64, np.uint16):
        assert np.array_equal(angle_fast_rows(field, V.astype(dtype), u[None, :].astype(dtype)), fast)
    sample = np.r_[:5, 5:T:64]
    assert np.array_equal(fast[sample], angle_naive_rows(field, tiled[sample], V[sample]))
    assert np.array_equal(fast[sample], angle_naive_rows(field, V[sample], tiled[sample]))
    assert np.array_equal(shared, tiled)


def test_row_kernels_raise_typed_errors_on_unpaired_shapes(monkeypatch):
    from fqangle import LengthMismatch

    U = np.ones((3, 5), dtype=np.int64)
    for kernel in (angle_fast_rows, angle_naive_rows):
        for V in (np.ones((3, 4), dtype=np.int64), np.ones((1, 6), dtype=np.int64)):
            with pytest.raises(LengthMismatch):
                kernel(F5, U, V)
        for bad_U, bad_V in ((U, U[:2]), (U[:1], U), (U[:2], U), (U[None], U[None]), (U[:, :0], U[:, :0])):
            with pytest.raises(InvalidInput):
                kernel(F5, bad_U, bad_V)
    with pytest.raises(InvalidInput):  # only the fast kernel shares a one-row V
        angle_naive_rows(F5, U, U[:1])
    assert angle_fast_rows(F5, U, U[:1]).tolist() == [0, 0, 0]
    with pytest.raises(InvalidInput, match="length 0"):  # a shared row of length 0
        angle_fast_rows(F5, U[:, :0], U[:1, :0])
    monkeypatch.setattr(fqangle.angle, "_BINCOUNT_CELL_CAP", 0)
    with pytest.raises(InvalidInput, match="length 0"):  # and the sort path
        angle_fast_rows(F5, U[:, :0], U[:, :0])


def test_row_kernels_refuse_non_integer_rows():
    F7 = make_field(7)
    good = np.array([[1, 1, 2]])
    bad_rows = (np.array([[1.5, 1, 2]]), [[1.0, 1.0, 2.0]], np.array([[True, False, True]]),
                np.array([[1, 1, 2]], dtype=object))
    for kernel in (angle_fast_rows, angle_naive_rows):
        for bad in bad_rows:
            for U, V in ((bad, good), (good, bad)):
                with pytest.raises(InvalidInput, match="integer encodings"):
                    kernel(F7, U, V)
        for dtype in (np.uint8, np.int16, np.int64):  # any integer dtype is taken
            assert kernel(F7, good.astype(dtype), np.array([[2, 2, 4]], dtype=dtype)).tolist() == [0]


# ----------------------------------------------------------------------
# Narrow-dtype edges of the ratio-bin census: GF(2^8), where the pair
# index u + v*q reaches 65535, and GF(2^16), whose sentinel bins q and
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
# The oracle against the definition, by a pure-Python double loop
# ----------------------------------------------------------------------

def _definition(field, U, V):
    """min over nonzero c of d_H(u, c*v) for every row pair, one Python
    product per scalar and position: c*b mod p in Python integers for prime
    fields, the exp/log product otherwise (test_gf checks those tables
    against polynomial arithmetic)."""
    q = field.q
    if field.m == 1:
        def mul(c, b):
            return c * b % q
    else:
        exp, log = field.exp_table.tolist(), field.log_table.tolist()

        def mul(c, b):
            return exp[(log[c] + log[b]) % (q - 1)] if b else 0
    return [
        min(sum(map(operator.ne, u, [mul(c, b) for b in v])) for c in range(1, q))
        for u, v in zip(np.asarray(U).tolist(), np.asarray(V).tolist())
    ]


def _oracle_inputs(U, V):
    """The input kinds the oracle is called with: int64 rows, uint8 rows,
    and a read-only broadcast view of one word against many (as the decode
    benchmarks compute their reference angles)."""
    U0 = np.broadcast_to(U[0], U.shape)
    yield U, V
    yield U.astype(np.uint8), V.astype(np.uint8)
    yield U0, V
    yield V, U0


ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (251, 1), (2, 8)]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS)
def test_oracle_matches_definition_across_block_edges(p, m, monkeypatch):
    from fqangle.experiments import random_nonzero_rows

    field = make_field(p, m)
    monkeypatch.setattr(fqangle.angle, "_BLOCK_BUDGET", 64)
    rng = np.random.default_rng(p * 100 + m)
    # T*n just below and just above the block, n beyond it, and single rows
    for T, n in [(7, 9), (13, 5), (3, 100), (1, 30), (1, 150)]:
        U = random_nonzero_rows(rng, field, T, n)
        V = random_nonzero_rows(rng, field, T, n)
        V[0, : n // 3] = field.scalar_mul_array(field.q - 1, U[0, : n // 3])  # a long run v = (q-1) * u
        for A, B in _oracle_inputs(U, V):
            assert angle_naive_rows(field, A, B).tolist() == _definition(field, A, B)


def test_oracle_matches_definition_at_the_block_size():
    from fqangle.experiments import random_nonzero_rows

    block = fqangle.angle._BLOCK_BUDGET
    rng = np.random.default_rng(47)
    for T, n in [(3, block // 3), (2, block // 2 + 1), (1, block + 3)]:
        U = random_nonzero_rows(rng, F3, T, n)
        V = random_nonzero_rows(rng, F3, T, n)
        for A, B in _oracle_inputs(U, V):
            assert angle_naive_rows(F3, A, B).tolist() == _definition(F3, A, B)


@pytest.mark.parametrize("p,m", [(257, 1), (46349, 1), (65521, 1), (3, 10)])
def test_oracle_matches_definition_above_256(p, m):
    # for p > 46341 the oracle once formed c*v in int32, which overflowed
    from fqangle.experiments import random_nonzero_rows

    field = make_field(p, m)
    q = field.q
    U = random_nonzero_rows(np.random.default_rng(q), field, 5, 6)
    V = random_nonzero_rows(np.random.default_rng(q + 1), field, 5, 6)
    U[0], V[0] = 1, q - 1  # c = 1 / (q - 1) maps v to u: angle 0
    U[1], V[1] = q - 1, [q - 2] + [q - 1] * 5  # angle 1
    U[2, :4] = field.scalar_mul_array(q - 1, V[2, :4])
    V[3, 2:] = 0
    naive = angle_naive_rows(field, U, V)
    assert naive[:2].tolist() == [0, 1]
    assert naive.tolist() == _definition(field, U, V)


# Every arm of Field.multiples: m = 1 in uint8, uint16 and uint32 (p = 127
# and 131 sit on either side of the uint8 edge; test_gf checks the dtype
# edges); p = 2 with the basis shift inside the dtype (m = 2, 3, 4, 10) and
# shifting x^m out of it (m = 8, 16); and the exp-window gather of odd p^m
# (GF(9), GF(25), GF(3^10)).
ARM_FIELDS = [(2, 1), (7, 1), (127, 1), (131, 1), (251, 1), (257, 1), (65521, 1),
              (2, 2), (2, 3), (2, 4), (2, 8), (2, 10), (2, 16), (3, 2), (5, 2), (3, 10)]


def _arm_rows(field, rng, n=12):
    """Zero rows and positions, u = c*v for c = 1, 2, q - 1 and the
    generator, disjoint supports, and the encodings q - 1 and q - 2."""
    q = field.q
    U = rng.integers(0, q, (5, n))
    V = rng.integers(0, q, (5, n))
    U[0] = 0  # the angle is wt(v)
    V[1] = 0  # wt(u)
    U[2] = V[2] = 0  # 0
    U[3, :3] = V[3, :3] = q - 1
    U[4, :3], V[4, :3] = q - 2, q - 1
    v = rng.integers(1, q, n)
    v[:2] = 0
    for c in {1, 2 % q, q - 1, field.generator} - {0}:
        U = np.vstack([U, field.scalar_mul_array(c, v)])
        V = np.vstack([V, v])
    odd = np.arange(n) % 2
    U = np.vstack([U, np.where(odd, 0, rng.integers(1, q, n))])
    V = np.vstack([V, np.where(odd, rng.integers(1, q, n), 0)])
    return U, V


@pytest.mark.parametrize("p,m", ARM_FIELDS)
def test_oracle_arms_match_definition(p, m):
    field = make_field(p, m)
    U, V = _arm_rows(field, np.random.default_rng(p + 7 * m), n=12 if field.q < 1 << 12 else 4)
    expected = _definition(field, U, V)
    assert expected[:3] == [np.count_nonzero(V[0]), np.count_nonzero(U[1]), 0]
    assert expected[5] == 0  # u = 1 * v
    assert expected[-1] == np.count_nonzero(U[-1]) + np.count_nonzero(V[-1])
    narrow = np.min_scalar_type(field.q - 1)
    inputs = [(U, V), (U.astype(narrow), V.astype(narrow))]
    if field.q < 1 << 12:  # the angle is symmetric, so (V, U) has the same definition
        inputs.append((V, U))
    for A, B in inputs:
        assert angle_naive_rows(field, A, B).tolist() == expected


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (3, 2)])
def test_oracle_counts_past_two_to_the_sixteen(p, m):
    # an angle above 65535 needs the uint32 distance; disjoint supports give n
    field = make_field(p, m)
    n = (1 << 16) + 5
    rng = np.random.default_rng(n)
    odd = np.arange(n) % 2
    U = np.vstack([np.where(odd, 0, rng.integers(1, field.q, n)), rng.integers(0, field.q, n)])
    V = np.vstack([np.where(odd, rng.integers(1, field.q, n), 0), rng.integers(0, field.q, n)])
    naive = angle_naive_rows(field, U, V)
    assert naive[0] == n
    assert naive.tolist() == _definition(field, U, V)


@pytest.mark.parametrize("p,m", [(251, 1), (2, 8)])
def test_prime_and_binary_oracle_read_no_field_tables(p, m, monkeypatch):
    from fqangle.gf import Field

    def tables(self):
        raise AssertionError("the oracle read the sentinel-log tables")

    U, V = _arm_rows(make_field(p, m), np.random.default_rng(p))  # products before the patch
    monkeypatch.setattr(Field, "sentinel_log_tables", tables)
    field = Field(p, m)  # fresh, not shared through the make_field cache
    assert angle_naive_rows(field, U, V).tolist() == _definition(field, U, V)
    for name in ("mul_tables", "add_tables", "ratio_bin_tables"):
        assert name not in vars(field)


@pytest.mark.parametrize("p,m", [(3, 2), (257, 1)])
def test_oracle_never_touches_the_census(p, m, monkeypatch):
    from fqangle.experiments import random_nonzero_rows
    from fqangle.gf import Field

    def census(*args):
        raise AssertionError("the oracle reached the census kernel")

    for name in ("_ratio_bins", "_bin_counts", "_sorted_census"):
        monkeypatch.setattr(fqangle.angle, name, census)
    field = Field(p, m)  # fresh, not shared through the make_field cache
    rng = np.random.default_rng(3)
    U = random_nonzero_rows(rng, field, 4, 12)
    V = random_nonzero_rows(rng, field, 4, 12)
    assert angle_naive_rows(field, U, V).tolist() == _definition(field, U, V)
    assert "ratio_bin_tables" not in field.__dict__


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
    for pm in [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 4)]:
        field = make_field(*pm)
        M = all_nonzero_vectors(field, 3)
        normalized = normalize_rows(field, M)
        assert normalize_rows(field, normalized) is normalized  # already normalized, no rescale
        for row, norm in zip(M, normalized):
            u = Vector(field, row)
            assert projectivize(u).rep == Vector(field, norm)
            if row[np.flatnonzero(row)[0]] == 1:
                assert projectivize(u).rep is u  # already normalized, no copy
        with pytest.raises(ZeroVector):
            projectivize(Vector(field, [0, 0, 0]))


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


@pytest.mark.parametrize("q", [2, 3, 5, 7, 8, 9, 11])
def test_pair_counts_compare_bins_from_the_edge(q, monkeypatch):
    # below n = _COMPARE_MIN_N * (q + 2)^2, and for q > _COMPARE_MAX_Q at any
    # n, a one-row block -- one pair, or one row of angle_fast_rows -- is
    # counted by bincount; from the edge on, by compares.  A block of more
    # rows is counted by bincount.  A row longer than _BLOCK_BUDGET is
    # counted in slices, so the widths each counter sees are summed per call
    from fqangle import field_from_order

    field = field_from_order(q)
    edge = fqangle.angle._COMPARE_MIN_N * (q + 2) ** 2
    calls = []
    for name in ("_compare_counts", "_bin_counts"):
        real = getattr(fqangle.angle, name)
        monkeypatch.setattr(fqangle.angle, name, lambda bins, q, name=name, real=real:
                            calls.append((name, bins.shape[0], bins.shape[1])) or real(bins, q))

    def counted():
        """{(counter, rows of its block): positions counted} since the last call."""
        spent = {}
        for name, rows, width in calls:
            spent[name, rows] = spent.get((name, rows), 0) + width
        calls.clear()
        return spent

    rng = np.random.default_rng(q)
    for n in (edge - 1, edge):
        counter = "_compare_counts" if q <= fqangle.angle._COMPARE_MAX_Q and n >= edge else "_bin_counts"
        u, v = rng.integers(0, q, n), rng.integers(0, q, n)
        census = build_census(Vector(field, u), Vector(field, v))
        assert counted() == {(counter, 1): n}
        both = (u != 0) & (v != 0)
        assert census.both_zero == np.count_nonzero((u == 0) & (v == 0))
        assert census.only_u == np.count_nonzero((u != 0) & (v == 0))
        assert census.only_v == np.count_nonzero((u == 0) & (v != 0))
        assert census.ratio_counts == {
            c: np.count_nonzero(both & (u == field.mul_array(c, v))) for c in range(1, q)}
        c, angle = argmin_scalar(Vector(field, u), Vector(field, v))
        assert counted() == {(counter, 1): n}
        assert angle == angle_naive(Vector(field, u), Vector(field, v))
        assert angle_fast(Vector(field, u), Vector(field, v)) == angle
        counted()
        # one row of angle_fast_rows: the pair's counter and angle
        assert angle_fast_rows(field, u[None], v[None]).tolist() == [angle]
        assert counted() == {(counter, 1): n}
        assert angle_naive_rows(field, u[None], v[None]).tolist() == [angle]
        # two rows, one shared V: one block of both rows by bincount where
        # the budget holds two rows, else two one-row blocks
        U = np.stack([u, v])
        assert np.array_equal(angle_fast_rows(field, U, v[None]), angle_naive_rows(field, U, np.stack([v, v])))
        two = fqangle.angle._BLOCK_BUDGET // n >= 2
        assert counted() == ({("_bin_counts", 2): n} if two else {(counter, 1): 2 * n})


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (257, 1), (2, 16)])
def test_census_reads_zero_vectors_from_its_bins(p, m):
    # u is zero iff bins 1..q are empty, v iff bins 1..q-1 and q+1 are
    field = make_field(p, m)
    q = field.q
    zero = Vector(field, [0, 0, 0])
    pairs = [  # (u, v) with at least one side zero
        (zero, zero),
        (zero, Vector(field, [0, q - 1, 0])),
        (Vector(field, [0, 0, q - 1]), zero),
        (Vector(field, [1]), Vector(field, [0])),
    ]
    for u, v in pairs:
        for fn in (angle_fast, argmin_scalar, build_census, angle_naive, is_max_angle):
            with pytest.raises(ZeroVector):
                fn(u, v)
    nonzero = [  # only_u and only_v bins alone, and one ratio bin alone
        (Vector(field, [q - 1, 0]), Vector(field, [0, 1])),
        (Vector(field, [0, 0, 1]), Vector(field, [0, 0, q - 1])),
        (Vector(field, [1]), Vector(field, [1])),
    ]
    for u, v in nonzero:
        expected = angle_naive(u, v)
        assert angle_fast(u, v) == expected
        assert argmin_scalar(u, v)[1] == expected
        assert build_census(u, v).total() == len(u)


# ----------------------------------------------------------------------
# A row longer than _BLOCK_BUDGET is counted one slice at a time, by
# compares or by bincount, and the slices' bin counts are summed.
# ----------------------------------------------------------------------

SLICE = 64
SLICE_CASES = [(2, 1, "compare"), (3, 1, "compare"), (3, 2, "compare"), (2, 1, "bincount"),
               (3, 2, "bincount"), (2, 4, "bincount"), (251, 1, "bincount"), (2, 8, "bincount"),
               (257, 1, "bincount")]


def _spy_slices(monkeypatch, side):
    """Force one pair onto the compare or the bincount side, with slices of
    SLICE positions; returns the (counter, width) of every slice counted."""
    widths = []
    monkeypatch.setattr(fqangle.angle, "_BLOCK_BUDGET", SLICE)
    monkeypatch.setattr(fqangle.angle, "_COMPARE_MIN_N", 0)
    if side == "bincount":
        monkeypatch.setattr(fqangle.angle, "_COMPARE_MAX_Q", 0)
    for name in ("_compare_counts", "_bin_counts"):
        real = getattr(fqangle.angle, name)
        monkeypatch.setattr(fqangle.angle, name, lambda bins, q, name=name, real=real:
                            widths.append((name, bins.shape[1])) or real(bins, q))
    return widths


def _plain_census(field, u, v):
    """(both_zero, only_u, only_v, {c: count}) by plain numpy, no ratio bins."""
    both = (u != 0) & (v != 0)
    ratios, counts = np.unique(field.div_array(u[both], v[both]), return_counts=True)
    return (np.count_nonzero((u == 0) & (v == 0)), np.count_nonzero((u != 0) & (v == 0)),
            np.count_nonzero((u == 0) & (v != 0)), dict(zip(ratios.tolist(), counts.tolist())))


@pytest.mark.parametrize("p,m,side", SLICE_CASES)
def test_pair_counts_sum_their_slices(p, m, side, monkeypatch):
    field = make_field(p, m)
    q = field.q
    widths = _spy_slices(monkeypatch, side)
    counter = "_compare_counts" if side == "compare" else "_bin_counts"
    rng = np.random.default_rng(q)
    c_lo, c_hi = max(1, q // 2), q - 1
    for n in (SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 5):
        slices = [(counter, SLICE)] * (n // SLICE) + ([(counter, n % SLICE)] if n % SLICE else [])
        u, v = rng.integers(0, q, n), rng.integers(0, q, n)
        # two runs of equal length, ratios c_hi then c_lo, across the slice
        # edges, and a tail with no ratio: the runs tie, and c_lo must win
        run = n // 3
        v[: 2 * run] = rng.integers(1, q, 2 * run)
        u[:run] = field.scalar_mul_array(c_hi, v[:run])
        u[run : 2 * run] = field.scalar_mul_array(c_lo, v[run : 2 * run])
        v[2 * run :] = 0
        tied = u.copy(), v.copy()
        for u, v in (tied, (rng.integers(0, q, n), rng.integers(0, q, n))):
            a, b = Vector(field, u), Vector(field, v)
            both_zero, only_u, only_v, ratios = _plain_census(field, u, v)
            del widths[:]
            census = build_census(a, b)
            assert widths == slices, n
            assert (census.both_zero, census.only_u, census.only_v) == (both_zero, only_u, only_v)
            assert census.ratio_counts == ratios
            best = max(ratios.values(), default=0)
            c_star = min((c for c, k in ratios.items() if k == best), default=1)
            angle = angle_naive(a, b)
            assert argmin_scalar(a, b) == (c_star, angle)
            assert angle_fast(a, b) == angle == n - both_zero - best
        assert argmin_scalar(*map(lambda x: Vector(field, x), tied))[0] == c_lo


@pytest.mark.parametrize("p,m,side", SLICE_CASES)
def test_one_nonzero_coordinate_in_the_first_or_last_slice(p, m, side, monkeypatch):
    field = make_field(p, m)
    _spy_slices(monkeypatch, side)
    rng = np.random.default_rng(field.q + 1)
    for n in (SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 5):
        other = Vector(field, rng.integers(1, field.q, n))
        zero = Vector(field, np.zeros(n, dtype=np.int64))
        for at in (0, n - 1):
            lone = np.zeros(n, dtype=np.int64)
            lone[at] = field.q - 1
            lone = Vector(field, lone)
            for a, b in ((lone, other), (other, lone), (lone, lone)):
                expected = angle_naive(a, b)
                assert angle_fast(a, b) == expected
                assert argmin_scalar(a, b)[1] == expected
                assert build_census(a, b).total() == n
            for a, b in ((zero, lone), (lone, zero)):
                for fn in (angle_fast, argmin_scalar, build_census):
                    with pytest.raises(ZeroVector):
                        fn(a, b)


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 4), (251, 1), (257, 1)])
def test_fast_rows_sum_the_slices_of_long_rows(p, m, monkeypatch):
    field = make_field(p, m)
    compare_max_q = fqangle.angle._COMPARE_MAX_Q
    widths = _spy_slices(monkeypatch, "bincount")
    T, n = 3, 3 * SLICE + 1
    U, V = _census_rows(field, np.random.default_rng(field.q), T, n)
    U[1, -1], V[1, -1] = 0, 1  # a lone only-v position in the last slice
    slices = [("_bin_counts", SLICE)] * 3 + [("_bin_counts", 1)]
    assert np.array_equal(angle_fast_rows(field, U, V), angle_naive_rows(field, U, V))
    assert widths == slices * T  # one-row blocks, each in slices
    shared = np.broadcast_to(V[0], U.shape)
    assert np.array_equal(angle_fast_rows(field, U, V[:1]), angle_naive_rows(field, U, shared))
    # with the compare edge at 0, the one-row blocks over q <= 9 count their
    # slices by compares; rows of 20 fill blocks of three where q + 2 <= 20,
    # and those keep bincount
    monkeypatch.setattr(fqangle.angle, "_COMPARE_MAX_Q", compare_max_q)
    counter = "_compare_counts" if field.q <= compare_max_q else "_bin_counts"
    del widths[:]
    assert np.array_equal(angle_fast_rows(field, U, V), angle_naive_rows(field, U, V))
    assert widths == [(counter, w) for _, w in slices] * T
    del widths[:]
    U, V = U[:, -20:], V[:, -20:]
    assert np.array_equal(angle_fast_rows(field, U, V), angle_naive_rows(field, U, V))
    assert widths == [("_bin_counts", 20)] * (1 if field.q + 2 <= 20 else T)


def test_mismatch_rejected():
    from fqangle import FieldMismatch, LengthMismatch

    with pytest.raises(LengthMismatch):
        angle_fast(vec([1, 2]), vec([1, 2, 0]))
    with pytest.raises(FieldMismatch):
        angle_fast(vec([1, 2]), Vector(F5, [1, 2]))
    for fn in (angle_fast, argmin_scalar, build_census):  # before any zero check
        with pytest.raises(LengthMismatch):
            fn(vec([0, 0]), vec([0, 0, 0]))
        with pytest.raises(FieldMismatch):
            fn(vec([0, 0]), Vector(F5, [0, 0]))


def test_unnormalized_projective_point_is_typed():
    with pytest.raises(InvalidInput):  # was a bare ValueError
        ProjectivePoint(vec([2, 1, 0]))
