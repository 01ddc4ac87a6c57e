"""Field arithmetic: construction, tables, axioms, error paths."""

import numpy as np
import pytest

from fqangle import CompositeP, DivisionByZero, FieldTooLarge, make_field
from fqangle.gf import field_from_order


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
    with pytest.raises(ValueError):
        make_field(3, 0)
    make_field(2, 16)  # exactly at the cap


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
    nz = b != 0
    div_expected = np.array([f.div(int(x), int(y)) for x, y in zip(a[nz], b[nz])])
    assert np.array_equal(f.div_array(a[nz], b[nz]), div_expected)
    for c in f.nonzero_elements():
        expected = np.array([f.mul(c, int(x)) for x in np.arange(q)])
        assert np.array_equal(f.scalar_mul_array(c, np.arange(q)), expected)


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
        assert np.array_equal(A[a].astype(np.int64) + B[b], a * q + b)
