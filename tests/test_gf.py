"""Field arithmetic: construction, tables, axioms, error paths."""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqangle import CompositeP, DivisionByZero, FieldTooLarge, InvalidInput, make_field
from fqangle.gf import Field, field_from_order, is_prime


# ----------------------------------------------------------------------
# Independent polynomial oracle (schoolbook, no shortcuts shared with gf.py)
# ----------------------------------------------------------------------

def int_to_poly(value, p, m):
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return out


def poly_to_int(coeffs, p):
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def poly_deg(f):
    for i in range(len(f) - 1, -1, -1):
        if f[i]:
            return i
    return -1


def poly_divides(g, f, p):
    f = list(f)
    dg = poly_deg(g)
    while poly_deg(f) >= dg:
        shift = poly_deg(f) - dg
        coef = f[poly_deg(f)] * pow(g[dg], p - 2, p) % p
        for i in range(dg + 1):
            f[shift + i] = (f[shift + i] - coef * g[i]) % p
    return poly_deg(f) < 0


def oracle_irreducible(f, p, m):
    # full trial division by every monic polynomial of degree 1..m-1
    for d in range(1, m):
        for s in range(p**d):
            g = int_to_poly(s, p, d) + [1]
            if poly_divides(g, f, p):
                return False
    return True


def oracle_smallest_irreducible(p, m):
    for t in range(p**m):
        f = int_to_poly(t, p, m) + [1]
        if oracle_irreducible(f, p, m):
            return tuple(f)
    raise AssertionError("none found")


def oracle_add(field, a, b, sign=1):
    """a + sign * b by adding polynomial coefficients digit by digit mod p."""
    p, m = field.p, field.m
    return poly_to_int([(x + sign * y) % p for x, y in zip(int_to_poly(a, p, m), int_to_poly(b, p, m))], p)


def oracle_mul(field, a, b):
    """Multiply via plain polynomial arithmetic mod the field's irreducible."""
    p, m = field.p, field.m
    if m == 1:
        return a * b % p
    pa = int_to_poly(a, p, m)
    pb = int_to_poly(b, p, m)
    conv = [0] * (2 * m)
    for i in range(m):
        for j in range(m):
            conv[i + j] = (conv[i + j] + pa[i] * pb[j]) % p
    g = list(field.irreducible)
    while poly_deg(conv) >= m:
        shift = poly_deg(conv) - m
        coef = conv[poly_deg(conv)]
        for i in range(m + 1):
            conv[shift + i] = (conv[shift + i] - coef * g[i]) % p
    return poly_to_int(conv[:m], p)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def test_prime_field_basics():
    f3 = make_field(3)
    assert (f3.p, f3.m, f3.q) == (3, 1, 3)
    assert f3.inv(2) == 2  # 2*2 = 4 = 1 mod 3
    assert f3.inv(1) == 1
    assert make_field(7).inv(3) == 5  # 3*5 = 15 = 1 mod 7


def test_f4_matches_polynomial_oracle():
    f4 = make_field(2, 2)
    assert f4.irreducible == (1, 1, 1)  # x^2 + x + 1
    assert f4.mul(2, 2) == oracle_mul(f4, 2, 2) == 3  # x*x = x + 1
    for a in range(4):
        for b in range(4):
            assert f4.mul(a, b) == oracle_mul(f4, a, b)


def test_f4_inverse_by_exhaustion():
    f4 = make_field(2, 2)
    witnesses = [x for x in range(1, 4) if oracle_mul(f4, 2, x) == 1]
    assert witnesses == [3]
    assert f4.inv(2) == 3


def test_f2_trivial_multiplicative_group():
    f2 = make_field(2)
    assert f2.q - 1 == 1
    assert list(f2.exp_table) == [1]
    assert f2.inv(1) == 1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_irreducible_is_lex_smallest(p, m):
    assert make_field(p, m).irreducible == oracle_smallest_irreducible(p, m)


def test_construction_errors():
    with pytest.raises(CompositeP):
        make_field(4)
    with pytest.raises(CompositeP):
        make_field(6, 2)
    with pytest.raises(CompositeP):
        make_field(1)
    with pytest.raises(FieldTooLarge):
        make_field(2, 17)
    with pytest.raises(FieldTooLarge):
        make_field(257, 2)
    with pytest.raises(InvalidInput):
        make_field(3, 0)
    with pytest.raises(InvalidInput):
        make_field(3, -1)
    make_field(2), make_field(3)  # a cached GF(3) must not answer make_field(3, True)
    for p, m in [(2.0, 1), (3, 1.0), ("3", 1), (True, 1), (3, True)]:
        with pytest.raises(InvalidInput):
            make_field(p, m)
    with pytest.raises(InvalidInput):
        field_from_order(9.0)
    make_field(2, 16)  # exactly at the cap
    assert make_field(np.int64(3), np.int64(2)) == make_field(3, 2)


def test_huge_orders_rejected_before_any_search():
    # primality testing 2^61 - 1 or forming 2^(10^9) would run for minutes
    t0 = time.perf_counter()
    for make in (
        lambda: make_field(2305843009213693951),
        lambda: make_field(2305843009213693951, 3),
        lambda: make_field(2, 10**9),
        lambda: field_from_order(2305843009213693951),
    ):
        with pytest.raises(FieldTooLarge):
            make()
    assert time.perf_counter() - t0 < 1


def test_field_from_order():
    assert field_from_order(9) == make_field(3, 2)
    assert field_from_order(8) == make_field(2, 3)
    assert field_from_order(251) == make_field(251)
    with pytest.raises(CompositeP):
        field_from_order(12)
    with pytest.raises(CompositeP):
        field_from_order(1)


def test_field_equality_and_caching():
    assert make_field(3) == make_field(3, 1)
    assert make_field(3) is make_field(3)  # cached
    assert make_field(3) != make_field(5)
    assert make_field(2, 2) != make_field(2, 3)


# ----------------------------------------------------------------------
# Division, inverses, tables
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_inverses_and_division(p, m):
    f = make_field(p, m)
    for a in f.nonzero_elements():
        assert f.mul(a, f.inv(a)) == 1
        for b in f.nonzero_elements():
            assert f.mul(f.div(a, b), b) == a
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(1, 0)


@pytest.mark.parametrize("p,m", [(3, 1), (251, 1), (2, 3), (3, 2), (2, 4)])
def test_exp_log_mutually_inverse(p, m):
    f = make_field(p, m)
    q = f.q
    assert sorted(int(x) for x in f.exp_table) == list(range(1, q))
    for i in range(q - 1):
        assert f.log_table[f.exp_table[i]] == i
    for a in range(1, q):
        assert f.exp_table[f.log_table[a]] == a
    assert f.log_table[0] == -1


@pytest.mark.parametrize("p", [3, 7, 251])
def test_prime_direct_arithmetic_matches_table_path(p):
    f = make_field(p)
    a = np.arange(1, p)
    table_prod = f.exp_table[(f.log_table[a][:, None] + f.log_table[a][None, :]) % (p - 1)]
    direct_prod = a[:, None] * a[None, :] % p
    assert np.array_equal(table_prod, direct_prod)
    table_inv = f.exp_table[(p - 1 - f.log_table[a]) % (p - 1)]
    assert np.array_equal(table_inv, f.inv_table[a])


# ----------------------------------------------------------------------
# Field axioms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_axioms_exhaustive_small(p, m):
    f = make_field(p, m)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            assert f.add(f.sub(a, b), b) == a
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


@pytest.mark.parametrize("p,m", [(251, 1), (2, 8), (2, 16)])
def test_axioms_random_large(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(7)
    elems = [int(x) for x in rng.integers(0, f.q, size=25)]
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems[:8]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (2, 4), (3, 2), (251, 1), (2, 8)])
def test_scalar_multiplication_is_bijective(p, m):
    f = make_field(p, m)
    arr = np.arange(f.q, dtype=np.int64)
    for c in f.nonzero_elements():
        image = f.scalar_mul_array(c, arr)
        assert len(np.unique(image)) == f.q


# ----------------------------------------------------------------------
# Array operations agree with the element operations
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_array_ops_match_scalar_ops(p, m):
    f = make_field(p, m)
    q = f.q
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    add_expected = np.array([oracle_add(f, int(x), int(y)) for x, y in zip(a, b)])
    mul_expected = np.array([oracle_mul(f, int(x), int(y)) for x, y in zip(a, b)])
    sub_expected = np.array([oracle_add(f, int(x), int(y), sign=-1) for x, y in zip(a, b)])
    assert [f.add(int(x), int(y)) for x, y in zip(a, b)] == add_expected.tolist()
    assert [f.mul(int(x), int(y)) for x, y in zip(a, b)] == mul_expected.tolist()
    assert [f.sub(int(x), int(y)) for x, y in zip(a, b)] == sub_expected.tolist()
    assert [f.neg(int(y)) for y in b] == [oracle_add(f, 0, int(y), sign=-1) for y in b]
    assert np.array_equal(f.add_array(a, b), add_expected)
    assert np.array_equal(f.mul_array(a, b), mul_expected)
    assert np.array_equal(f.sub_array(a, b), sub_expected)
    # scalar_mul_array and div_array are mul_array underneath: check them
    # against the polynomial oracle, not against the ops they share code with
    oracle_inv = {y: next(z for z in range(1, q) if oracle_mul(f, y, z) == 1) for y in range(1, q)}
    oracle_inv[0] = 0  # a / 0 is defined as 0 elementwise
    div_expected = np.array([oracle_mul(f, int(x), oracle_inv[int(y)]) for x, y in zip(a, b)])
    assert np.array_equal(f.div_array(a, b), div_expected)
    for c in f.elements():
        expected = np.array([oracle_mul(f, c, x) for x in range(q)])
        assert np.array_equal(f.scalar_mul_array(c, np.arange(q)), expected)
    with pytest.raises(InvalidInput):
        f.scalar_mul_array(q, np.arange(q))
    for bad in (q, -1, 1.5, True):
        with pytest.raises(InvalidInput):
            f.add(bad, 0)


def test_pow_takes_only_integer_exponents():
    f = make_field(7)
    assert f.pow(3, 2) == 2 and f.pow(3, -1) == 5 and f.pow(3, np.int64(6)) == 1
    for bad in (1.5, "2", True, None):
        with pytest.raises(InvalidInput):
            f.pow(3, bad)


@pytest.mark.parametrize("p,dtype", [(251, np.uint8), (257, np.uint16), (65521, np.uint16)])
def test_prime_array_ops_take_narrow_inputs_in_int64(p, dtype):
    # u*v and u+v of two encodings can overflow the narrow dtype that holds
    # them: on GF(251) in uint8, 250*250 wrapped to 36 and 250+250 to 244
    f = make_field(p)
    rng = np.random.default_rng(p)
    a = np.concatenate([[p - 1, p - 1, 1, 0], rng.integers(0, p, size=500)])
    b = np.concatenate([[p - 1, p - 2, p - 1, p - 1], rng.integers(1, p, size=500)])
    na, nb = a.astype(dtype), b.astype(dtype)
    ops = [
        (f.add_array(na, nb), (a + b) % p),
        (f.add_array(na, na), 2 * a % p),
        (f.mul_array(na, nb), a * b % p),
        (f.div_array(na, nb), np.array([x * pow(int(y), p - 2, p) % p for x, y in zip(a, b)])),
        (f.scalar_mul_array(p - 1, na), (p - 1) * a % p),
        (f.sub_array(na, nb), (a - b) % p),
    ]
    for got, expected in ops:
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


# odd-p extension fields are too large for the exhaustive tests above
PROPERTY_FIELDS = [(3, 6), (5, 4), (7, 3), (3, 10)]


@given(st.sampled_from(PROPERTY_FIELDS).flatmap(
    lambda pm: st.tuples(st.just(pm), st.lists(st.integers(0, pm[0] ** pm[1] - 1), min_size=3, max_size=3))
))
def test_extension_field_ops_match_polynomial_oracle(case):
    (p, m), (a, b, c) = case
    f = make_field(p, m)
    assert f.add(a, b) == oracle_add(f, a, b)
    assert f.sub(a, b) == oracle_add(f, a, b, sign=-1)
    assert f.mul(a, b) == oracle_mul(f, a, b)
    assert f.mul(a, f.add(b, c)) == oracle_add(f, oracle_mul(f, a, b), oracle_mul(f, a, c))
    arr = np.array([a, b, c])
    assert f.mul_array(arr, arr[::-1]).tolist() == [oracle_mul(f, x, y) for x, y in zip([a, b, c], [c, b, a])]
    assert f.add_array(arr, arr[::-1]).tolist() == [oracle_add(f, x, y) for x, y in zip([a, b, c], [c, b, a])]
    assert f.scalar_mul_array(c, arr).tolist() == [oracle_mul(f, c, x) for x in (a, b, c)]
    if b:
        assert oracle_mul(f, b, f.inv(b)) == 1
        assert oracle_mul(f, int(f.div_array(a, b)), b) == a


def digitwise_add(field, a, b):
    """a + b on int arrays, one base-p digit at a time (no field tables)."""
    p = field.p
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    scale = 1
    for _ in range(field.m):
        out += (a // scale % p + b // scale % p) % p * scale
        scale *= p
    return out


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (3, 4)], ids=lambda x: str(x))
def test_zech_add_array_every_pair(p, m):
    f = Field(p, m)  # fresh, not the make_field cache some other test has warmed
    assert "add_tables" not in vars(f)  # built on first use, not in __init__
    q = f.q
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    got = f.add_array(a, b)
    assert got.dtype == np.int64 and np.array_equal(got, digitwise_add(f, a, b))
    assert "add_tables" in vars(f)
    assert all(not t.flags.writeable for t in f.add_tables)
    assert np.array_equal(f.add_array(np.arange(q), 0), np.arange(q)) and int(f.add_array(0, 0)) == 0


def test_zech_add_array_sample_gf59049():
    f = make_field(3, 10)
    rng = np.random.default_rng(310)
    a, b = rng.integers(0, f.q, size=(2, 10**5))
    a[:100] = 0  # zero operands and opposite pairs, which the sample rarely hits
    b[100:200] = 0
    b[200:300] = f.neg_array(a[200:300])
    got = f.add_array(a, b)
    assert np.array_equal(got, digitwise_add(f, a, b)) and not got[200:300].any()
    # broadcast shapes, as row_reduce and Field.matmul pass them
    assert np.array_equal(f.add_array(a[:12].reshape(3, 4), b[:4]), digitwise_add(f, a[:12].reshape(3, 4), b[:4]))


# ----------------------------------------------------------------------
# Ratio-bin tables (the angle kernel's lookup tables)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (3, 2), (2, 8), (257, 1), (3, 6)])
def test_ratio_bin_tables_match_definition(p, m):
    from fqangle.gf import Field

    f = Field(p, m)
    assert "ratio_bin_tables" not in vars(f)  # built on first use, not in __init__
    A, B, E = f.ratio_bin_tables
    q = f.q
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    expected = np.select(
        [(a == 0) & (b == 0), b == 0, a == 0],
        [0, q, q + 1],
        f.mul_array(a, f.inv_table[b]),
    )
    assert np.array_equal(E[A[a].astype(np.int64) + B[b]], expected)
    assert np.iinfo(E.dtype).max >= q + 1
    if q <= 256:
        # the multiply by q falls on b, the side the angle kernel shares
        assert np.array_equal(A[a].astype(np.int64) + B[b], a + b * q)


# ----------------------------------------------------------------------
# mul_array: the sentinel-log product against the table-free product
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)])
def test_mul_array_matches_raw_product_exhaustive(p, m):
    f = make_field(p, m)
    q = f.q
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    expected = [f._mul_raw(x, y) for x, y in zip(a.tolist(), b.tolist())]
    got = f.mul_array(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == expected


def _check_mul_array_samples(f, seed):
    rng = np.random.default_rng(seed)
    a = np.concatenate([[0, 0, f.q - 1, 1], rng.integers(0, f.q, size=2000)])
    b = np.concatenate([[0, f.q - 1, 0, f.q - 1], rng.integers(0, f.q, size=2000)])
    expected = [f._mul_raw(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert f.mul_array(a, b).tolist() == expected


def test_mul_array_matches_raw_product_gf65536():
    _check_mul_array_samples(make_field(2, 16), 16)


def test_mul_tables_built_on_first_product_gf59049():
    from fqangle.gf import Field

    f = Field(3, 10)  # fresh, not the make_field cache some other test has warmed
    assert "mul_tables" not in vars(f)
    _check_mul_array_samples(f, 310)
    assert "mul_tables" in vars(f)
    log, exp = f.mul_tables
    L = f.q - 1
    assert log[0] == 2 * L and exp.size == 4 * L + 1 and not exp[2 * L :].any()
    assert not log.flags.writeable and not exp.flags.writeable


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (127, 1), (131, 1), (2, 2), (2, 3), (2, 4), (2, 8),
                                 (3, 2), (5, 2)])
def test_multiples_yield_every_nonzero_multiple_once(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(f.q)
    V = rng.integers(0, f.q, (3, 17))
    V[0, :4] = 0
    V[1] = 0
    got = [w.copy() for w in f.multiples(V)]
    assert len(got) == f.q - 1
    assert got[0].tolist() == V.tolist()  # 1 * V first
    assert sorted(w.ravel().tolist() for w in got) == sorted(
        f.mul_array(c, V).ravel().tolist() for c in range(1, f.q))


@pytest.mark.parametrize("p,m,dtype", [
    (2, 1, np.uint8), (127, 1, np.uint8), (131, 1, np.uint16), (32749, 1, np.uint16),
    (32771, 1, np.uint32), (65521, 1, np.uint32), (2, 8, np.uint8), (2, 9, np.uint16),
    (2, 16, np.uint16), (3, 5, np.uint8), (3, 6, np.uint16),
])
def test_multiples_buffer_is_narrow(p, m, dtype):
    # m = 1 adds before it wraps, so its dtype holds 2(p - 1); the others hold q - 1
    f = make_field(p, m)
    V = np.array([[0, 1, f.q - 1]])
    assert next(f.multiples(V)).dtype == dtype
    assert next(f.multiples(V.astype(np.uint8 if f.q <= 256 else np.uint32))).dtype == dtype


def test_oracle_keeps_no_product_tables_gf59049():
    from fqangle.angle import angle_fast_rows, angle_naive_rows
    from fqangle.gf import Field

    f = Field(3, 10)
    rng = np.random.default_rng(5)
    U = rng.integers(0, f.q, (30, 12))
    V = rng.integers(1, f.q, (30, 12))
    U[:, 0] = 0
    assert angle_naive_rows(f, U, V).tolist() == angle_fast_rows(f, U, V).tolist()
    assert "mul_tables" not in vars(f)  # the oracle's window is built per call
    log, exp = f.sentinel_log_tables()
    assert np.array_equal(log, f.mul_tables[0]) and np.array_equal(exp, f.mul_tables[1])
    # nor on an extension field small enough for a (q - 1) x q product table
    f = Field(2, 4)
    U = rng.integers(0, f.q, (30, 12))
    V = rng.integers(1, f.q, (30, 12))
    naive = angle_naive_rows(f, U, V)
    assert "mul_tables" not in vars(f)
    assert naive.tolist() == angle_fast_rows(f, U, V).tolist()


@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 2), (2, 8)])
def test_mul_array_zero_operands(p, m):
    f = make_field(p, m)
    x = np.arange(f.q)
    zeros = np.zeros(f.q, dtype=np.int64)
    for got in (f.mul_array(0, x), f.mul_array(x, 0), f.mul_array(zeros, x), f.mul_array(x, zeros)):
        assert got.tolist() == zeros.tolist()
    assert f.mul_array(x, 1).tolist() == x.tolist()


@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 2), (2, 8)])
def test_mul_array_broadcasts(p, m):
    f = make_field(p, m)
    q = f.q
    x = np.arange(q)
    table = [[f._mul_raw(a, b) for b in range(q)] for a in range(q)]
    assert f.mul_array(x[:, None], x[None, :]).tolist() == table  # column x row
    for c in (0, 1, q - 1):
        assert f.mul_array(c, x).tolist() == table[c]  # scalar x array
        assert f.mul_array(x, np.int64(c)).tolist() == [row[c] for row in table]
    for a, b in ((q - 1, q - 1), (0, q - 1), (q - 1, 0)):
        got = f.mul_array(np.array(a), np.array(b))  # 0-d inputs
        assert np.ndim(got) == 0 and int(got) == table[a][b]
        assert int(f.mul_array(a, b)) == f.mul(a, b) == table[a][b]


@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 2), (2, 8), (2, 16)])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_mul_array_narrow_inputs_give_int64(p, m, dtype):
    f = make_field(p, m)
    top = min(f.q, np.iinfo(dtype).max + 1)
    rng = np.random.default_rng(f.q)
    a = np.concatenate([[top - 1, top - 1, 0], rng.integers(0, top, size=300)])
    b = np.concatenate([[top - 1, 0, top - 1], rng.integers(0, top, size=300)])
    got = f.mul_array(a.astype(dtype), b.astype(dtype))
    assert got.dtype == np.int64
    assert got.tolist() == [f._mul_raw(x, y) for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_mul_array_row_blocks_match_the_raw_product(block, monkeypatch):
    # products above _BLOCK_ELEMENTS fill one output in row blocks
    import fqangle.gf

    monkeypatch.setattr(fqangle.gf, "_BLOCK_ELEMENTS", block)
    f = make_field(2, 4)
    rng = np.random.default_rng(block)
    cases = [
        (rng.integers(0, 16, (37, 5)), rng.integers(0, 16, (37, 5))),  # ragged last block
        (rng.integers(0, 16, (37, 1)), rng.integers(0, 16, 5)),  # column x row
        (3, rng.integers(0, 16, 300)),  # scalar x array
        (rng.integers(0, 16, (1, 300)), rng.integers(0, 16, (4, 300))),  # broadcast first axis
        (rng.integers(0, 16, (2, 3, 4)), rng.integers(0, 16, (3, 1))),
    ]
    for a, b in cases:
        got = f.mul_array(a, b)
        A, B = np.broadcast_arrays(a, b)
        assert got.shape == A.shape and got.dtype == np.int64
        assert got.ravel().tolist() == [f._mul_raw(x, y) for x, y in zip(A.ravel().tolist(), B.ravel().tolist())]


# ----------------------------------------------------------------------
# Table builder: a walk of _TABLE_WALK powers, then doublings
# ----------------------------------------------------------------------

def _prime_powers(limit):
    for p in range(2, limit + 1):
        if is_prime(p):
            m = 1
            while p**m <= limit:
                yield p, m
                m += 1


def walk_tables(f):
    """(generator, exp, log, inv) by one _mul_raw per element, as lists.

    The generator is the smallest g whose walk 1, g, g^2, ... first returns
    to 1 after q - 1 steps.
    """
    L = f.q - 1
    for g in range(1, f.q):
        exp = [1]
        x = f._mul_raw(1, g)
        while x != 1:
            exp.append(x)
            x = f._mul_raw(x, g)
        if len(exp) == L:
            break
    log = [-1] * f.q
    inv = [0] * f.q
    for i, x in enumerate(exp):
        log[x] = i
        inv[x] = exp[-i % L]
    return g, exp, log, inv


def _assert_tables_match_walk(f):
    g, exp, log, inv = walk_tables(f)
    assert f.generator == g, f"GF({f.q})"
    for got, want in ((f.exp_table, exp), (f.log_table, log), (f.inv_table, inv)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == want, f"GF({f.q})"


def test_tables_match_the_walk_for_every_q_up_to_1024():
    for p, m in _prime_powers(1 << 10):
        _assert_tables_match_walk(Field(p, m))


@pytest.mark.parametrize("block", [1, 5, 23])
def test_tables_match_the_walk_in_ragged_row_blocks(block, monkeypatch):
    import fqangle.gf

    # _BLOCK_ELEMENTS // m rows per block: a few, so most last blocks are short
    monkeypatch.setattr(fqangle.gf, "_BLOCK_ELEMENTS", block)
    for p, m in [(2, 10), (3, 6), (5, 4), (31, 2), (1021, 1), (2, 9), (509, 1)]:
        _assert_tables_match_walk(Field(p, m))


def _seams(L):
    """Indices i where exp[i + 1] is the walk's hand-over or a doubling's edge."""
    from fqangle.gf import _TABLE_WALK

    s = min(_TABLE_WALK, L)
    out = {s - 1}
    while s < L:
        k = min(s, L - s)
        out |= {s - 1, s, s + k - 1}
        s += k
    return sorted(out)


@pytest.mark.parametrize("p,m", [(3, 10), (239, 2), (5, 6), (2, 16), (65521, 1)])
def test_large_field_tables_are_the_powers_of_the_generator(p, m):
    f = Field(p, m)
    g, L, exp = f.generator, f.q - 1, f.exp_table
    assert exp[0] == 1 and np.array_equal(np.sort(exp), np.arange(1, f.q))
    assert f._mul_raw(int(exp[-1]), g) == 1
    rng = np.random.default_rng(f.q)
    seams = _seams(L)
    assert len(seams) > 10  # the walk hands over, then at least 4 doublings
    for i in rng.integers(0, L, 4096).tolist() + seams:
        assert f._mul_raw(int(exp[i]), g) == exp[(i + 1) % L], (f.q, i)
    assert np.array_equal(f.log_table[exp], np.arange(L)) and f.log_table[0] == -1
    assert np.array_equal(f.mul_array(exp, f.inv_table[exp]), np.ones(L, dtype=np.int64))


@pytest.mark.parametrize("p,m", [(2, 4), (2, 8), (3, 6), (263, 1)])  # walk only, then doubling
def test_builder_rejects_a_generator_of_smaller_order(p, m, monkeypatch):
    from fqangle.gf import _prime_factors

    f = make_field(p, m)
    fake = int(f.exp_table[_prime_factors(f.q - 1)[0]])  # order (q - 1) / r
    monkeypatch.setattr(Field, "_find_generator", lambda self: fake)
    with pytest.raises(AssertionError, match="miss a nonzero element"):
        Field(p, m)


@pytest.mark.parametrize("p,m", [(2, 4), (2, 8), (3, 6), (263, 1)])
def test_builder_checks_that_g_times_the_last_power_is_one(p, m, monkeypatch):
    # A _mul_raw wrong on the one product g * g^(q-2) alone: the tables are
    # still a permutation, and only that check can see the fault.
    f = make_field(p, m)
    last, g = int(f.exp_table[-1]), f.generator
    mul_raw = Field._mul_raw
    monkeypatch.setattr(
        Field, "_mul_raw", lambda self, a, b: 2 if (a, b) == (last, g) else mul_raw(self, a, b)
    )
    with pytest.raises(AssertionError, match="order != q-1"):
        Field(p, m)
