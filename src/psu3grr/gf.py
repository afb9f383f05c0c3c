"""Exact arithmetic in the field tower GF(p) < GF(q) < GF(q^2), q = p^f.

Only the top field GF(q^2) is materialised.  Its elements are residues of
polynomials over GF(p) modulo a fixed monic irreducible polynomial of degree
2f, stored as coefficient vectors (c0, c1, ..., c_{2f-1}) low degree first.
The subfield GF(q) is the fixed field of the Frobenius power x -> x^(p^f);
membership is tested, never represented separately.

Determinism rules used throughout the package:
  * the modulus is the lexicographically smallest monic irreducible
    polynomial of degree 2f, comparing coefficient vectors low degree first;
  * elements are enumerated in lexicographic order of their coefficient
    vectors, again comparing the constant coefficient first.  The element
    index is the rank in that order, so "first element satisfying X" always
    means "smallest index satisfying X".

Every field builds, once and eagerly, the discrete log and antilog tables
of its first multiplicative generator g and the Zech table Z with
1 + g^k = g^Z(k) (Huber, "Some comments on Zech's logarithms", IEEE Trans.
Inf. Theory 1990): arrays of O(q^2) entries, through which every operation
goes.  They have one layout, in which zero has a log of its own (see
Field._log_tables), so no operation branches or masks on zero.  The numpy
kernels add_np, mul_np, inv_np and powq_np, for index arrays, gather from
the arrays; the scalar methods read list copies of the same arrays with the
same formulas.  Either way arithmetic is O(1).  The polynomial routines only
choose the modulus and the generator, and serve the tests as an independent
reference.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, isqrt

import numpy as np

# Hard ceiling on |GF(q^2)|; beyond this we refuse to build the field.
SIZE_LIMIT = 1 << 20


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


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division (n is small here)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(p).  Polynomials are lists of ints in
# [0, p), low degree first, with trailing zeros trimmed ([] is zero).
# ---------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        _trim(a)
    return a


def _poly_mulmod(a, b, m, p):
    return _poly_mod(_poly_mul(a, b, p), m, p)


def _poly_powmod(a, e, m, p):
    result = [1]
    base = _poly_mod(list(a), m, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(poly, p):
    """Deterministic irreducibility test for a monic poly over GF(p).

    poly is irreducible of degree d iff x^(p^d) == x (mod poly) and
    gcd(x^(p^(d/r)) - x, poly) = 1 for every prime r dividing d.
    """
    d = len(poly) - 1
    if d < 1 or poly[0] == 0:
        return d == 1 and poly[0] != 0 or False
    x = [0, 1]
    xq = _poly_powmod(x, p ** d, poly, p)
    diff = _trim([(a - b) % p for a, b in itertools.zip_longest(xq, x, fillvalue=0)])
    if diff:
        return False
    for r in factorize(d):
        xr = _poly_powmod(x, p ** (d // r), poly, p)
        diff = _trim([(a - b) % p for a, b in itertools.zip_longest(xr, x, fillvalue=0)])
        g = _poly_gcd(poly, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Coefficient vectors (c0, ..., c_{degree-1}) are compared low degree
    first; the leading coefficient is fixed to 1.  Returns the full
    coefficient tuple (c0, ..., c_{degree-1}, 1).
    """
    for tail in itertools.product(range(p), repeat=degree):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


@functools.lru_cache(maxsize=None)
def field(p: int, f: int) -> "Field":
    """Cached field constructor; the canonical way to obtain a Field."""
    return Field(p, f)


class Field:
    """GF(p^(2f)) with its distinguished GF(p^f) subfield.

    Do not instantiate directly in normal use; go through field(p, f) so
    that element operations between equal fields share one object.
    """

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError(f"f = {f} must be a positive integer")
        self.p = p
        self.f = f
        self.q = p ** f
        self.ext_degree = 2 * f
        self.size = p ** (2 * f)
        if self.size > SIZE_LIMIT:
            raise ValueError(
                f"GF({p}^{2 * f}) has {self.size} elements, above the "
                f"supported bound {SIZE_LIMIT}")
        self.modulus = smallest_irreducible(p, 2 * f)
        # place value of coefficient i in the element index (c0 weighs most,
        # making index order equal to lexicographic coefficient order)
        self._place = tuple(p ** (2 * f - 1 - i) for i in range(2 * f))
        self._mult_order = self.size - 1
        self._order_factors = factorize(self._mult_order)
        # log of -1: g^(n/2) is the only element of order 2 when p is odd
        self._neg_log = 0 if p == 2 else self._mult_order // 2
        # log of 0 in the tables' layout (Field._log_tables)
        self._zero_log = 2 * self._mult_order

        log, exp, zech, self._inv_arr, self._powq_arr = self._log_tables()
        self._log_arr, self._exp_arr, self._zech_arr = log, exp, zech
        # list copies of the same tables for the scalar methods, which index
        # lists faster than arrays.  The two periods of exp and of zech's Z
        # values share their int objects, and each list is built in one
        # pass, which keeps the copies' peak memory down on large fields
        n = self._mult_order
        self._log = log.tolist()
        head = exp[:n].tolist()
        z = zech[2 * n:3 * n].tolist()
        self._exp = list(itertools.chain(
            head, head, itertools.repeat(0, 2 * n + 1)))
        self._zech = list(itertools.chain(
            range(-2 * n, -n), [0], itertools.islice(z, 1, None), z,
            itertools.repeat(0, n + 1)))

        self.zero = FieldElem(self, 0)
        self.one = self.from_int(1)

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.ext_degree:
            raise ValueError("coefficient vector too long")
        coeffs += [0] * (self.ext_degree - len(coeffs))
        return sum((c % self.p) * w for c, w in zip(coeffs, self._place))

    def decode(self, index: int) -> tuple[int, ...]:
        out = []
        for w in self._place:
            out.append(index // w)
            index %= w
        return tuple(out)

    # -- constructors ------------------------------------------------------

    def from_index(self, index: int) -> "FieldElem":
        if not 0 <= index < self.size:
            raise ValueError("element index out of range")
        return FieldElem(self, index)

    def from_coeffs(self, coeffs) -> "FieldElem":
        return FieldElem(self, self.encode(coeffs))

    def from_int(self, n: int) -> "FieldElem":
        """Image of the integer n under the prime-field embedding."""
        return self.from_coeffs([n % self.p])

    def from_str(self, s: str) -> "FieldElem":
        return self.from_coeffs([int(c) for c in s.split(",")])

    def elements(self):
        """All elements in enumeration order."""
        for i in range(self.size):
            yield FieldElem(self, i)

    def nonzero_elements(self):
        for i in range(1, self.size):
            yield FieldElem(self, i)

    # -- table construction --------------------------------------------------

    def _log_tables(self):
        """(log, exp, zech, inv, powq) int64 arrays of the first generator g.

        With n = size - 1, exp[k] is the index of g^k for k < 2n and 0 from
        2n on; log[i] is the k < n with g^k = i, and zero gets the log 2n,
        so exp[log a + log b] = a * b for every pair.  zech is indexed by
        d = log b - log a + 2n, and exp[log a + zech[d]] = a + b:
          n < d < 3n   a, b nonzero: Z(d - 2n), or 2n where 1 + g^(d - 2n)
                       is zero, which sends the sum to exp[>= 2n] = 0;
          d < n        a = 0, d = log b: d - 2n, so the sum reads exp[log b];
          d > 3n       b = 0: 0, so the sum reads exp[log a];
          d = 2n       also a = b = 0, where log a = 2n already reads 0.
        inv (with inv[0] = 0) and powq, x -> x^q, are lookups by index.
        All are int64, numpy's index type, so that one kernel's output
        indexes the next kernel's tables without a conversion.

        exp is built in blocks of B ~ sqrt(n) rows: with M the GF(p)-linear
        map "multiply by g" on coefficient row vectors, the first block is
        the first rows of M^0, ..., M^(B-1), and each later block is the one
        before times M^B.  Each block is encoded to indices as soon as it is
        made, so no size x 2f coefficient matrix is ever held.
        """
        p, d, n = self.p, self.ext_degree, self._mult_order
        g = list(self.decode(self._find_generator()))
        modulus = list(self.modulus)
        mul_g = np.zeros((d, d), dtype=np.int64)
        for j in range(d):
            row = _poly_mulmod([0] * j + [1], g, modulus, p)
            mul_g[j, :len(row)] = row
        block = isqrt(n) + 1
        rows = np.empty((block, d), dtype=np.int64)
        step = np.eye(d, dtype=np.int64)
        for k in range(block):
            rows[k] = step[0]  # coefficients of g^k = (1, 0, ..., 0) M^k
            step = step @ mul_g % p
        place = np.array(self._place, dtype=np.int64)
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        for start in range(0, n, block):
            stop = min(start + block, n)
            exp[start:stop] = rows[:stop - start] @ place
            rows = rows @ step % p
        exp[n:2 * n] = exp[:n]
        log = np.full(self.size, 2 * n, dtype=np.int64)
        log[exp[:n]] = np.arange(n, dtype=np.int64)
        if (log[1:] == 2 * n).any():  # g^k must reach every x != 0
            raise AssertionError("generator powers miss a nonzero element")
        # 1 + x raises the constant coefficient, which weighs place[0] =
        # size / p, so the index of 1 + x is (x + place[0]) mod size
        z = log[(exp[:n] + self._place[0]) % self.size]
        zech = np.zeros(4 * n + 1, dtype=np.int64)
        zech[:n] = np.arange(-2 * n, -n)
        zech[n + 1:2 * n] = z[1:]
        zech[2 * n:3 * n] = z
        inv = np.zeros(self.size, dtype=np.int64)
        inv[1:] = exp[n - log[1:]]
        powq = np.zeros(self.size, dtype=np.int64)
        powq[1:] = exp[log[1:] * self.q % n]
        return log, exp, zech, inv, powq

    def _find_generator(self) -> int:
        """Index of the first multiplicative generator in enumeration order."""
        n = self._mult_order
        checks = [n // r for r in self._order_factors]
        modulus = list(self.modulus)
        for i in range(1, self.size):
            a = list(self.decode(i))
            if all(_poly_powmod(a, e, modulus, self.p) != [1] for e in checks):
                return i
        raise AssertionError("no multiplicative generator found")  # unreachable

    # -- index arithmetic ----------------------------------------------------

    def add_index(self, i, j):
        # g^a + g^b = g^a (1 + g^(b-a)) = g^(a + Z(b-a))
        log = self._log
        a = log[i]
        return self._exp[a + self._zech[log[j] - a + self._zero_log]]

    def mul_index(self, i, j):
        log = self._log
        return self._exp[log[i] + log[j]]

    def neg_index(self, i):
        return self._exp[self._log[i] + self._neg_log]

    def inv_index(self, i):
        if i == 0:
            raise ZeroDivisionError("inversion of the zero field element")
        return self._exp[self._mult_order - self._log[i]]

    def pow_index(self, i, e):
        if i == 0:
            if e == 0:
                return self.encode([1])
            if e < 0:
                raise ZeroDivisionError("inversion of the zero field element")
            return 0
        return self._exp[self._log[i] * e % self._mult_order]

    def exp_index(self, k):
        """Index of g^k, g the generator the log tables are built on."""
        return self._exp[k % self._mult_order]

    def indices_of_order(self, n: int) -> list[int]:
        """Indices of the elements of multiplicative order exactly n, in
        index order: the g^(k (q^2 - 1) / n) with gcd(k, n) = 1, and none
        when n does not divide q^2 - 1."""
        m = self._mult_order
        if n < 1 or m % n:
            return []
        step, exp = m // n, self._exp
        return sorted(exp[k * step] for k in range(n) if gcd(k, n) == 1)

    def frob_index(self, i, e):
        """Index of x^(p^e) for x of index i."""
        return self.pow_index(i, self.p ** (e % self.ext_degree))

    def order_index(self, i):
        if i == 0:
            raise ValueError("the zero element has no multiplicative order")
        n = self._mult_order
        return n // gcd(n, self._log[i])

    # -- numpy kernels on index arrays ---------------------------------------

    def add_np(self, a, b):
        """Elementwise a + b of index arrays (or ints), as int64 indices."""
        log = self._log_arr
        la = log.take(a)
        d = log.take(b) - la
        d += self._zero_log
        return self._exp_arr.take(la + self._zech_arr.take(d))

    def mul_np(self, a, b):
        """Elementwise a * b of index arrays (or ints), as int64 indices."""
        log = self._log_arr
        return self._exp_arr.take(log.take(a) + log.take(b))

    def inv_np(self, a):
        """Elementwise inverse of an index array; zero maps to zero."""
        return self._inv_arr.take(a)

    def powq_np(self, a):
        """Elementwise x -> x^q of an index array."""
        return self._powq_arr.take(a)

    # -- serialization -------------------------------------------------------

    def params_str(self) -> str:
        """Serialize as "p,f,m0,m1,...,m_{2f}" (modulus low degree first)."""
        return ",".join(str(v) for v in (self.p, self.f, *self.modulus))

    def __repr__(self):
        return f"Field(GF({self.p}^{self.ext_degree}), q={self.q})"


def field_from_params_str(s: str) -> Field:
    """Inverse of Field.params_str; the modulus is validated, not trusted."""
    vals = [int(v) for v in s.split(",")]
    p, f, modulus = vals[0], vals[1], tuple(vals[2:])
    fld = field(p, f)
    if fld.modulus != modulus:
        raise ValueError("modulus mismatch: not the canonical field modulus")
    return fld


class FieldElem:
    """Immutable element of a Field, identified by its enumeration index."""

    __slots__ = ("field", "index")

    def __init__(self, field: Field, index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.decode(self.index)

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field.add_index(self.index, other.index))

    def __sub__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field.add_index(
            self.index, self.field.neg_index(other.index)))

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field.mul_index(self.index, other.index))

    def __truediv__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field.mul_index(
            self.index, self.field.inv_index(other.index)))

    def __neg__(self):
        return FieldElem(self.field, self.field.neg_index(self.index))

    def __pow__(self, e: int):
        return FieldElem(self.field, self.field.pow_index(self.index, e))

    def inv(self):
        return FieldElem(self.field, self.field.inv_index(self.index))

    def frobenius(self, e: int):
        """x -> x^(p^e); e is taken modulo 2f."""
        return FieldElem(self.field, self.field.frob_index(self.index, e))

    def order(self) -> int:
        """Least n >= 1 with x^n = 1; divides q^2 - 1."""
        return self.field.order_index(self.index)

    def norm_trace(self):
        """(x * x^q, x + x^q): norm and trace down to the GF(q) subfield."""
        conj = self.frobenius(self.field.f)
        return self * conj, self + conj

    def in_subfield(self) -> bool:
        """True iff the element lies in GF(q), the fixed field of x -> x^q."""
        return self.field.frob_index(self.index, self.field.f) == self.index

    def is_zero(self) -> bool:
        return self.index == 0

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        return (isinstance(other, FieldElem) and self.field is other.field
                and self.index == other.index)

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __lt__(self, other):
        self._check(other)
        return self.index < other.index

    def to_str(self) -> str:
        """Serialize as "c0,c1,...,c_{2f-1}" (low degree first)."""
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"<{self.to_str()} in GF({self.field.p}^{self.field.ext_degree})>"
