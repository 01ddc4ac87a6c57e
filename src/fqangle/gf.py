"""Arithmetic in GF(p^m) with integer-encoded elements.

Elements are integers in [0, q), q = p^m.  For m = 1 the integer is the
residue mod p.  For m > 1 the base-p digits of the integer are the
coefficients of a polynomial over GF(p), least-significant digit first
(digit 0 = constant term), and multiplication is reduced modulo a fixed
monic irreducible polynomial of degree m.

The irreducible polynomial is always the lexicographically smallest monic
irreducible of degree m over GF(p) (candidates scanned in increasing
encoded order), so two fields with the same (p, m) are interchangeable.

Every field carries exp/log tables realizing the cyclic group GF(q)^*;
prime fields additionally use direct modular arithmetic, which is
bit-identical to the table path.  The exp table is built by walking the
first ``_TABLE_WALK`` powers of the generator, then doubling: the next s
powers are the first s times g^s, one GF(p)-linear map on base-p digits,
so each doubling is one small matrix product (see ``_build_tables``).

Array products in extension fields are one *sentinel-log* gather:
``exp[log a + log b]``, where log 0 is the sentinel 2(q - 1) and the exp
table runs twice over the group, then holds zeros that any sum with a
zero factor lands in.  No reduction mod q - 1, zero mask or select runs.
Those tables (``Field.mul_tables``) are built on first use.
A product of more than ``_BLOCK_ELEMENTS`` elements is gathered in row blocks
into one int64 output.  Sums are XOR for p = 2 and a residue for m = 1;
for odd p with m > 1 they go through the same exp table with Zech
logarithms, log(1 + g^k) (``Field.add_tables``, built on first use).
No other module tells the field types apart: they sum along an axis with
``sum_array``, multiply matrices with ``matmul``, loop on ``_int_tables``
and step through every multiple c * V of an array with ``multiples`` (by
repeated addition for m = 1, a Gray code of XORs for p = 2, and an exp
window gather for odd p with m > 1).
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterator

import numpy as np

from .errors import CompositeP, DivisionByZero, FieldTooLarge, InvalidInput

MAX_FIELD_ORDER = 1 << 16

# Elements per row block of three large array jobs: an extension-field
# mul_array, _build_tables' matrix products and encode, and the encoding of
# a code's direction matrix (codes.py).  2^14 eight-byte elements are
# 128 KiB, glibc's default mmap threshold, so a block's temporaries come
# from the heap and stay in cache instead of each spanning the whole job.
# Measured on a 2-core Xeon:
# - mul_array, GF(2^8), 10^6 products by a scalar: 3.1 ms and one 8 MB
#   array blocked, 3.4 ms and three unblocked.
# - _build_tables alone after a walk of 16: GF(2^16) 11 ms and GF(3^10)
#   8.6 ms at 2^14 to 2^16 digits per block, 17 and 11 ms at 2^17.
# - Cold set-up of RS[15,5]/GF(16) (field, code, 69,905 directions, minimum
#   distance), fresh process, median of 5: 65 ms at 2^12, 55 at 2^13, 52 at
#   2^14, 49 at 2^15, 71 at 2^16 and 99 unblocked.  2^14 and 2^15 are
#   within the run-to-run spread.
_BLOCK_ELEMENTS = 1 << 14

# Powers of the generator that _build_tables walks, one _mul_raw each,
# before it starts doubling; fields with q <= 257 only walk.  A doubling
# costs about a dozen numpy calls: 15 us when warm, about 80 us on GF(251)
# right after other numpy work, when every first call of a numpy function
# costs 25-55 us.  A walked power costs 0.2-0.4 us on a prime field, 1-4 us
# on a binary one and 10-40 us on an odd-p extension field.  So a long
# walk keeps small fields as cheap to build as a plain walk, and costs the
# largest odd-p fields a few ms.  Field construction, best of 9, 2-core
# Xeon, walk 64 / 128 / 256 (plain walk): GF(251) 145 / 146 / 154 us (173),
# GF(3^10) 24 / 29 / 42 ms (1.2 s), GF(2^16) 29 ms at all three (102 ms).
_TABLE_WALK = 256


def is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def _integer(name: str, value) -> int:
    # bool is an int subclass, but True is no characteristic or degree
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return int(value)


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Polynomials over GF(p), coefficient lists with constant term first.
# ----------------------------------------------------------------------

def _digits(value: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _poly_degree(f) -> int:
    for i in range(len(f) - 1, -1, -1):
        if f[i]:
            return i
    return -1


def _poly_rem(f, g, p: int) -> list[int]:
    """Remainder of f modulo monic g, coefficients mod p."""
    f = list(f)
    dg = _poly_degree(g)
    while True:
        df = _poly_degree(f)
        if df < dg:
            return f[: df + 1]
        coef = f[df]
        shift = df - dg
        for i in range(dg + 1):
            f[shift + i] = (f[shift + i] - coef * g[i]) % p


def _is_irreducible(f, p: int, m: int) -> bool:
    # Trial division by every monic polynomial of degree 1..m//2.
    for d in range(1, m // 2 + 1):
        for s in range(p**d):
            g = _digits(s, p, d) + [1]
            if not any(_poly_rem(f, g, p)):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)  # the polynomial x; placeholder, unused for m = 1
    for t in range(p**m):
        f = _digits(t, p, m) + [1]
        if _is_irreducible(f, p, m):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


def _float_mod(r: np.ndarray, p: int) -> np.ndarray:
    """r mod p, in place, for float64 integers 0 <= r < 2^33.

    Exact: r / p < 2^33 / p is rounded by less than 1/p, so never across an
    integer.  np.floor is much faster than float64 %.
    """
    t = r / p
    np.floor(t, out=t)
    t *= p
    r -= t
    return r


class Field:
    """The finite field GF(p^m); immutable after construction.

    Attributes:
        p, m, q: characteristic, extension degree, order p^m.
        irreducible: coefficient tuple (constant first) of the reduction
            polynomial; placeholder (0, 1) when m = 1.
        exp_table: exp_table[i] is g^i for the smallest-encoded generator
            g of GF(q)^*, i in [0, q-1).
        log_table: inverse of exp_table; log_table[0] = -1 sentinel.
        inv_table: multiplicative inverses; inv_table[0] = 0 sentinel.
        mul_tables: sentinel-log tables of mul_array for m > 1, built
            on first use (see the property).
        add_tables: Zech-log tables of add_array for odd p with m > 1,
            built on first use (see the property).
        ratio_bin_tables: lookup tables of the angle kernel, built on
            first use (see the property).
    """

    def __init__(self, p: int, m: int = 1):
        p = _integer("p", p)
        m = _integer("m", m)
        if m < 1:
            raise InvalidInput(f"extension degree must be >= 1, got {m}")
        # bound q before forming p**m or testing p for primality, both slow when huge
        if p > 1 and (m >= MAX_FIELD_ORDER.bit_length() or p**m > MAX_FIELD_ORDER):
            raise FieldTooLarge(f"q = {p}^{m} exceeds {MAX_FIELD_ORDER}")
        if not is_prime(p):
            raise CompositeP(f"p = {p} is not prime")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        self.irreducible = _smallest_irreducible(p, m)
        if p == 2 and m > 1:
            self._mod_mask = _undigits(self.irreducible, 2)
        else:
            self._mod_mask = 0
        self._build_tables()

    # ------------------------------------------------------------------
    # Construction of exp/log/inv tables
    # ------------------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Multiply without tables (used only while building them)."""
        if self.m == 1:
            return a * b % self.p
        if self.p == 2:
            r = 0
            mask = self._mod_mask
            m = self.m
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if (a >> m) & 1:
                    a ^= mask
            return r
        p, m = self.p, self.m
        da = _digits(a, p, m)
        db = _digits(b, p, m)
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] += ai * bj
        rem = _poly_rem([c % p for c in conv], self.irreducible, p)
        return _undigits(rem, p)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        factors = _prime_factors(order)
        for g in range(2, self.q):
            if all(self._pow_raw(g, order // r) != 1 for r in factors):
                return g
        raise AssertionError("multiplicative group has no generator")

    def _build_tables(self):
        """Build exp/log/inv from the powers of the generator g.

        The walk takes g^0 .. g^(s-1), s = min(_TABLE_WALK, q - 1), with
        one _mul_raw each; fields with q - 1 <= _TABLE_WALK only walk.
        _double_powers doubles the rest.
        """
        q = self.q
        L = q - 1
        g = self._find_generator()
        walk = [1]
        for _ in range(min(_TABLE_WALK, L) - 1):
            walk.append(self._mul_raw(walk[-1], g))
        if len(walk) == L:
            exp = np.array(walk, dtype=np.int64)
        else:
            exp = self._double_powers(walk, g)
        if self._mul_raw(int(exp[-1]), g) != 1:
            raise AssertionError(f"generator {g} has order != q-1")
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(L)
        if log[1:].min() < 0:
            raise AssertionError(f"powers of {g} miss a nonzero element of GF({q})")
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[(q - 1 - np.arange(q - 1)) % (q - 1)]
        for t in (exp, log, inv):
            t.setflags(write=False)
        self.generator = g
        self.exp_table = exp
        self.log_table = log
        self.inv_table = inv

    def _double_powers(self, walk: list[int], g: int) -> np.ndarray:
        """g^0 .. g^(q-2) as int64, from walk = [g^0 .. g^(s-1)].

        While s < L = q - 1, one doubling fills g^s .. g^(s+k-1),
        k = min(s, L - s), from g^0 .. g^(k-1).  Multiplying by g^s is
        GF(p)-linear on base-p digits: the digits of g^(s+i) are the digits
        of g^i times the m x m matrix whose row j holds the digits of
        g^s * x^j, mod p.  That matrix is built with m _mul_raw calls once,
        then squared after each doubling; for m = 1 it is [[g^s]].  The
        digits stay in the narrowest dtype that holds p - 1, and every
        product and the final encode run in row blocks of _BLOCK_ELEMENTS
        digits.
        """
        p, m = self.p, self.m
        L = self.q - 1
        rows = max(1, _BLOCK_ELEMENTS // m)
        place = p ** np.arange(m, dtype=np.int64)
        s = len(walk)
        digits = np.zeros((L, m), dtype=np.min_scalar_type(p - 1))  # of g^i, digit 0 first
        digits[:s] = np.array(walk)[:, None] // place % p
        gs = self._mul_raw(walk[-1], g)
        matrix = np.array([_digits(self._mul_raw(gs, p**j), p, m) for j in range(m)],
                          dtype=np.float64)
        while s < L:
            k = min(s, L - s)
            for a in range(0, k, rows):
                b = min(a + rows, k)
                digits[s + a : s + b] = _float_mod(digits[a:b].astype(np.float64) @ matrix, p)
            s += k
            if s < L:  # k = s: squared, the matrix multiplies by the new g^s
                matrix = _float_mod(matrix @ matrix, p)
        exp = np.empty(L, dtype=np.int64)
        for a in range(0, L, rows):
            np.matmul(digits[a : a + rows], place, out=exp[a : a + rows])
        return exp

    # ------------------------------------------------------------------
    # Element operations (integers in [0, q))
    # ------------------------------------------------------------------

    def _check(self, a: int):
        if not 0 <= _integer("a field element", a) < self.q:
            raise InvalidInput(f"{a} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return int(self.add_array(a, b))

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_array(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return int(self.mul_array(a, b))

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        e = _integer("the exponent", e)
        if a == 0:
            if e < 0:
                raise DivisionByZero("0 cannot be raised to a negative power")
            return 1 if e == 0 else 0
        return int(self.exp_table[int(self.log_table[a]) * e % (self.q - 1)])

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # ------------------------------------------------------------------
    # Elementwise operations on integer arrays (used by the vector layer)
    # ------------------------------------------------------------------

    # Prime-field sums and products are taken in int64, whatever the input
    # dtype: 250 * 250 would wrap in uint8.

    def add_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return np.add(a, b, dtype=np.int64) % self.p
        if self.p == 2:
            return a ^ b
        log, exp = self.mul_tables
        B, Z = self.add_tables
        la = log.take(a)
        return exp.take(la + Z.take(B.take(b) - la))

    def neg_array(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:  # -x = x in characteristic 2
            return np.array(a, dtype=np.int64)
        return self.mul_array(self.p - 1, a)  # p - 1 encodes -1

    def sub_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_array(a, self.neg_array(b))

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return np.multiply(a, b, dtype=np.int64) % self.p
        log, exp = self.mul_tables
        both = np.broadcast(a, b)
        if both.size <= _BLOCK_ELEMENTS:
            return exp.take(log.take(a) + log.take(b))
        # one int64 output, filled in row blocks whose temporaries stay small;
        # an operand smaller than the output is broadcast, so its log is
        # taken once, not once per block
        shape = both.shape
        full = [np.broadcast_to(x, shape) for x in (a, b) if np.size(x) == both.size]
        logs = [np.broadcast_to(log.take(x), shape) for x in (a, b) if np.size(x) < both.size]
        out = np.empty(shape, dtype=np.int64)
        rows = max(1, _BLOCK_ELEMENTS * shape[0] // both.size)
        for s in range(0, shape[0], rows):
            part = [log.take(x[s : s + rows]) for x in full] + [x[s : s + rows] for x in logs]
            idx = np.add(*part, out=part[0] if full else None)  # a taken block is a new array
            # every index is in range, so clip never fires; mode="raise"
            # would buffer the output to check bounds
            exp.take(idx, out=out[s : s + rows], mode="clip")
        return out

    def sum_array(self, A: np.ndarray) -> np.ndarray:
        """The field sum of A along axis 0: one reduction for p = 2 or
        m = 1, else add_array calls that halve the rows each time."""
        if self.m == 1:
            return A.sum(axis=0) % self.p
        if self.p == 2:
            return np.bitwise_xor.reduce(A, axis=0)
        while len(A) > 1:
            half = len(A) // 2
            A = np.concatenate([self.add_array(A[:half], A[half : 2 * half]), A[2 * half :]])
        return A[0]

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """The (T, n) product A B of a (T, k) and a (k, n) array; codewords
        m G when A holds messages and B is a generator."""
        if self.m == 1:
            return A @ B % self.p
        acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for j in range(B.shape[0]):
            acc = self.add_array(acc, self.mul_array(A[:, j : j + 1], B[j][None, :]))
        return acc

    def scalar_mul_array(self, c: int, arr: np.ndarray) -> np.ndarray:
        self._check(c)
        return self.mul_array(c, arr)

    def div_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a / b, with 0 wherever b = 0."""
        return self.mul_array(a, self.inv_table[b])

    def multiples(self, V: np.ndarray) -> Iterator[np.ndarray]:
        """Yield c * V for every nonzero c, all in one reused buffer.

        The buffer has V's shape and the narrowest unsigned dtype the
        steps need; each step overwrites it, so read a multiple before
        taking the next.  The first is 1 * V; the order of the others
        depends on the field type:

        - m = 1: c = 1, 2, ..., p - 1, each step adding V and subtracting
          p where the sum wrapped (min(w, w - p) in unsigned arithmetic,
          so the dtype is the narrowest that holds 2(p - 1): uint8 for
          p <= 128, uint16 below 2^15, else uint32);
        - p = 2: c along a Gray code over the polynomial basis x^j * V,
          j < m, built by shift and XOR with the modulus, one XOR a step;
        - odd p with m > 1: c = g^k, gathered from the window
          exp[k : k + 2L + 1], L = q - 1, of a per-call copy of the
          sentinel-log tables (``sentinel_log_tables``), indexed by log V.

        Reads no table for m = 1 or p = 2, and caches none in any arm.
        """
        q = self.q
        if self.m == 1:
            dtype = np.min_scalar_type(2 * (q - 1))
            v = V.astype(dtype)
            w = v.copy()
            t = np.empty_like(w)
            yield w
            for _ in range(q - 2):
                w += v
                np.subtract(w, q, out=t)
                np.minimum(w, t, out=w)
                yield w
        elif self.p == 2:
            m = self.m
            dtype = np.min_scalar_type(q - 1)
            low = self._mod_mask ^ q  # x^m = low mod the modulus
            basis = [V.astype(dtype)]
            for _ in range(m - 1):
                b = basis[-1]
                top = b >> (m - 1)
                b = (b << 1) & (q - 1)  # drops x^m, which shifts out of uint8 at m = 8
                top *= low
                b ^= top
                basis.append(b)
            w = np.zeros_like(basis[0])
            # step i flips bit ctz(i) of the Gray code i ^ (i >> 1), so c
            # runs once over every nonzero polynomial of degree < m
            for i in range(1, q):
                w ^= basis[(i & -i).bit_length() - 1]
                yield w
        else:
            L = q - 1
            log, exp = self.sentinel_log_tables()
            exp = exp[: 3 * L].astype(np.min_scalar_type(L))
            v = log.take(V)  # intp, take's index dtype: no cast per pass
            w = np.empty(V.shape, dtype=exp.dtype)
            for k in range(L):
                # every index is in range, so clip never fires; mode="raise"
                # would buffer the output to check bounds on every pass
                np.take(exp[k : k + 2 * L + 1], v, out=w, mode="clip")
                yield w

    @functools.cached_property
    def mul_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """sentinel_log_tables(), kept for mul_array (used when m > 1).

        Built on first use, not in __init__, as ratio_bin_tables is: a
        field's construction does not pay for tables it may never read.
        """
        return self.sentinel_log_tables()

    @functools.cached_property
    def add_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Zech-log tables (B, Z) of add_array for odd p with m > 1.

        With (log, exp) = mul_tables, a + b = exp[log a + Z[B[b] - log a]]:
        a + b = a (1 + b / a), and Z holds the Zech logarithm
        log(1 + g^k) of k = log b - log a.  B[b] = log b + 2L, L = q - 1,
        and B[0] = 5L, so the index B[b] - log a falls in one of four
        disjoint ranges:

        - [L + 1, 3L - 1] for a, b != 0, where it is k mod L and Z holds
          log(1 + g^k), or 2L where 1 + g^k = 0 (a zero product in exp);
        - [0, L) for a = 0, where it is log b and Z holds log b - 2L, so
          that log a + Z = log b;
        - 3L for a = b = 0 and [4L + 1, 5L] for b = 0 alone, where Z is 0
          and exp[log a] is a (0 at the sentinel log 2L).

        1 + g^k adds 1 to the constant digit of g^k, so Z is one gather
        of the log table.  Built on first use, not in __init__, as
        mul_tables is.
        """
        p, L = self.p, self.q - 1
        log, _ = self.mul_tables
        e = self.exp_table
        Z = np.zeros(5 * L + 1, dtype=np.int64)
        Z[:L] = np.arange(L) - 2 * L
        k = np.arange(L + 1, 3 * L) % L
        Z[L + 1 : 3 * L] = log[e[k] - e[k] % p + (e[k] + 1) % p]
        B = log + 2 * L
        B[0] = 5 * L
        for t in (B, Z):
            t.setflags(write=False)
        return B, Z

    @functools.cached_property
    def _int_tables(self) -> tuple[tuple[int, ...], tuple[int, ...], Callable[[int, int], int], int]:
        """(log, exp, add, neg) for loops that gather one element at a time
        (the Euclid steps of Berlekamp-Welch): mul_tables as tuples of
        Python ints, add(a, b) by add_array's formula and neg = log(-1).
        Built on first use and kept with the field, so every code over it
        shares one copy: 8.5 MiB on GF(2^16), 17.5 MiB on GF(3^10).
        """
        log, exp = (tuple(t.tolist()) for t in self.mul_tables)
        if self.m == 1:
            p = self.p
            add = lambda a, b: (a + b) % p
        elif self.p == 2:
            add = operator.xor
        else:
            B, Z = (tuple(t.tolist()) for t in self.add_tables)
            add = lambda a, b: exp[log[a] + Z[B[b] - log[a]]]
        return log, exp, add, log[self.p - 1]  # p - 1 encodes -1

    def sentinel_log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """New read-only tables (log, exp) with exp[log[a] + log[b]] = a * b.

        log is the log table with log 0 = 2L, L = q - 1, and exp (int64)
        holds g^i over [0, 2L), then zeros over [2L, 4L].  A sum of two
        nonzero logs lies in [0, 2L - 2], so needs no reduction mod L; a
        zero factor moves the sum into [2L, 4L], where exp is 0.  So one
        gather multiplies, with no mask or select.
        """
        L = self.q - 1
        log = self.log_table.copy()
        log[0] = 2 * L
        exp = np.zeros(4 * L + 1, dtype=np.int64)
        exp[: 2 * L].reshape(2, L)[:] = self.exp_table  # g^i twice over
        for t in (log, exp):
            t.setflags(write=False)
        return log, exp

    @functools.cached_property
    def ratio_bin_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tables (A, B, E) with E[A[a] + B[b]] the *ratio bin* of (a, b).

        The ratio bin is 0 when a = b = 0, a / b in [1, q) when both are
        nonzero, q when only a is nonzero and q + 1 when only b is.  E
        holds bins in the narrowest unsigned dtype that fits q + 1.  For
        q <= 256, A[a] + B[b] = a + b*q, which fits uint16 (the multiply
        falls on b, the side the angle kernel may share across rows), and
        E is the q*q pair table; above that A and B are int32 shifted log
        tables and E is indexed by log a - log b plus sentinel offsets.

        Built on first use, not in __init__, so fields that never reach
        the angle kernel stay cheap to construct.
        """
        q = self.q
        L = q - 1  # order of GF(q)^*
        # A[a] = log a, B[b] = L - log b, so a, b != 0 give an index in
        # [1, 2L - 1] whose value mod L is log(a / b).  Zero coordinates
        # move the index into disjoint sentinel ranges.
        A, exp = self.sentinel_log_tables()  # A[0] = 2L: a = 0, b != 0 gives an index in [2L + 1, 3L]
        B = L - A
        B[0] = 3 * L + 1  # a != 0, b = 0: index in [3L + 1, 4L]; both zero: 5L + 1
        E = np.zeros(5 * L + 2, dtype=np.min_scalar_type(q + 1))
        E[1 : 2 * L] = exp[1 : 2 * L]  # g^(i mod L)
        E[2 * L + 1 : 3 * L + 1] = q + 1
        E[3 * L + 1 : 4 * L + 1] = q
        if q <= 256:
            E = E[A[None, :] + B[:, None]].ravel()
            A = np.arange(q, dtype=np.uint16)
            B = np.arange(0, q * q, q, dtype=np.uint16)
        else:
            A = A.astype(np.int32)
            B = B.astype(np.int32)
        for t in (A, B, E):
            t.setflags(write=False)
        return A, B, E

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if self is other:  # make_field caches, so a code and its words share one Field
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.irreducible) == (other.p, other.m, other.irreducible)

    def __hash__(self):
        return hash((self.p, self.m, self.irreducible))

    def __repr__(self):
        if self.m == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, m={self.m})"


@functools.lru_cache(maxsize=None, typed=True)  # typed: make_field(3, True) must not hit (3, 1)
def make_field(p: int, m: int = 1) -> Field:
    """Construct (and cache) GF(p^m).  Raises CompositeP / FieldTooLarge /
    InvalidInput."""
    return Field(p, m)


def field_from_order(q: int) -> Field:
    """Construct GF(q) from a prime-power order q = p^m."""
    q = _integer("q", q)
    if q > MAX_FIELD_ORDER:  # before factoring, which is slow for a huge q
        raise FieldTooLarge(f"q = {q} exceeds {MAX_FIELD_ORDER}")
    if q < 2:
        raise CompositeP(f"q = {q} is not a prime power")
    p = _prime_factors(q)[0]
    m = 0
    r = q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise CompositeP(f"q = {q} is not a prime power")
    return make_field(p, m)
