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
bit-identical to the table path.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CompositeP, DivisionByZero, FieldTooLarge, InvalidInput

MAX_FIELD_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
        q = self.q
        g = self._find_generator()
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._mul_raw(x, g)
        if x != 1:
            raise AssertionError(f"generator {g} has order != q-1")
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[(q - 1 - np.arange(q - 1)) % (q - 1)]
        for t in (exp, log, inv):
            t.setflags(write=False)
        self.generator = g
        self.exp_table = exp
        self.log_table = log
        self.inv_table = inv

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
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        scale = 1
        for _ in range(self.m):
            out += ((a // scale % self.p + b // scale % self.p) % self.p) * scale
            scale *= self.p
        return out

    def neg_array(self, a: np.ndarray) -> np.ndarray:
        return self.mul_array(self.p - 1, a)  # p - 1 encodes -1

    def sub_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_array(a, self.neg_array(b))

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return np.multiply(a, b, dtype=np.int64) % self.p
        a = np.asarray(a)
        b = np.asarray(b)
        idx = (self.log_table[a] + self.log_table[b]) % (self.q - 1)
        out = self.exp_table[idx]
        return np.where((a == 0) | (b == 0), 0, out)

    def scalar_mul_array(self, c: int, arr: np.ndarray) -> np.ndarray:
        self._check(c)
        return self.mul_array(c, arr)

    def div_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a / b, with 0 wherever b = 0."""
        return self.mul_array(a, self.inv_table[b])

    @functools.cached_property
    def ratio_bin_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tables (A, B, E) with E[A[a] + B[b]] the *ratio bin* of (a, b).

        The ratio bin is 0 when a = b = 0, a / b in [1, q) when both are
        nonzero, q when only a is nonzero and q + 1 when only b is.  E
        holds bins in the narrowest unsigned dtype that fits q + 1.  For
        q <= 256, A[a] + B[b] = a*q + b, which fits uint16, and E is the
        q*q pair table; above that A and B are int32 shifted log tables
        and E is indexed by log a - log b plus sentinel offsets.

        Built on first use, not in __init__, so fields that never reach
        the angle kernel stay cheap to construct.
        """
        q = self.q
        L = q - 1  # order of GF(q)^*
        # A[a] = log a, B[b] = L - log b, so a, b != 0 give an index in
        # [1, 2L - 1] whose value mod L is log(a / b).  Zero coordinates
        # move the index into disjoint sentinel ranges.
        A = self.log_table.copy()
        A[0] = 2 * L  # a = 0, b != 0: index in [2L + 1, 3L]
        B = L - self.log_table
        B[0] = 3 * L + 1  # a != 0, b = 0: index in [3L + 1, 4L]; both zero: 5L + 1
        E = np.zeros(5 * L + 2, dtype=np.min_scalar_type(q + 1))
        E[1 : 2 * L] = self.exp_table[np.arange(1, 2 * L) % L]
        E[2 * L + 1 : 3 * L + 1] = q + 1
        E[3 * L + 1 : 4 * L + 1] = q
        if q <= 256:
            E = E[A[:, None] + B[None, :]].ravel()
            A = np.arange(0, q * q, q, dtype=np.uint16)
            B = np.arange(q, dtype=np.uint16)
        else:
            A = A.astype(np.int32)
            B = B.astype(np.int32)
        for t in (A, B, E):
            t.setflags(write=False)
        return A, B, E

    # ------------------------------------------------------------------

    def __eq__(self, other):
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
