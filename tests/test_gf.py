"""Field tower arithmetic: axioms, Frobenius, orders, subfield structure."""

import random
from itertools import product
from math import isqrt

import numpy as np
import pytest

from psu3grr.gf import (SIZE_LIMIT, Field, FieldElem, _is_irreducible,
                        _poly_mulmod, _poly_powmod, factorize, field,
                        smallest_irreducible)


def test_field_sizes():
    assert field(5, 1).size == 25
    assert field(2, 2).size == 16
    # count by exhaustive enumeration
    assert sum(1 for _ in field(3, 3).elements()) == 729


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        Field(4, 1)
    with pytest.raises(ValueError):
        Field(6, 2)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 11)  # 2^22 elements, above the size bound


def test_modulus_is_deterministic_and_minimal():
    # first irreducibles in low-degree-first lexicographic order
    assert smallest_irreducible(5, 2) == (1, 1, 1)          # 1 + x + x^2
    assert smallest_irreducible(2, 4) == (1, 0, 0, 1, 1)    # 1 + x^3 + x^4
    assert field(5, 1).modulus == (1, 1, 1)
    # rebuilding gives the identical object through the cache
    assert field(5, 1) is field(5, 1)


def test_enumeration_order_is_lex_on_coeff_vectors():
    F = field(2, 1)
    seen = [x.coeffs for x in F.elements()]
    assert seen == sorted(seen)
    assert seen[0] == (0, 0)


def test_field_axioms_bulk():
    rng = random.Random(0xF1E1D)
    for p, f in [(5, 1), (2, 2), (3, 2)]:
        F = field(p, f)
        elems = list(F.elements())
        one, zero = F.one, F.zero
        for _ in range(4000):
            x = elems[rng.randrange(F.size)]
            y = elems[rng.randrange(F.size)]
            z = elems[rng.randrange(F.size)]
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + zero == x and x * one == x
            assert x - x == zero
            if x:
                assert x * x.inv() == one


def test_multiplicative_absorbing_and_inverse_law():
    F = field(5, 1)
    zero = F.zero
    for x in F.elements():
        assert zero * x == zero
        if x:
            assert x * x.inv() == F.one
    with pytest.raises(ZeroDivisionError):
        zero.inv()


def test_generator_power_cycle_gf25():
    """Brute-force: some element has order 24, and g^24 = 1."""
    F = field(5, 1)
    gens = [x for x in list(F.elements())[1:] if x.order() == 24]
    assert gens
    g = gens[0]
    power = F.one
    for _ in range(24):
        power = power * g
    assert power == F.one


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_order_counts_match_totient(p, f):
    """#elements of order d is phi(d) for each d | q^2 - 1 (exhaustive)."""
    from math import gcd
    F = field(p, f)
    n = F.size - 1
    counts = {}
    for x in list(F.elements())[1:]:
        d = x.order()
        assert n % d == 0
        counts[d] = counts.get(d, 0) + 1
    def phi(m):
        return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
    for d, c in counts.items():
        assert c == phi(d)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (2, 3), (3, 2), (2, 4),
                                 (5, 2), (7, 2), (2, 6)])
def test_indices_of_order_match_order_scan(p, f):
    """For every divisor n of q^2 - 1 (q from 4 to 64), the closed form
    lists exactly the elements the order() scan finds, in index order; a
    non-divisor has none."""
    F = field(p, f)
    n = F.size - 1
    scan = {}
    for x in list(F.elements())[1:]:
        scan.setdefault(x.order(), []).append(x.index)
    for d in range(1, n + 1):
        if n % d == 0:
            assert F.indices_of_order(d) == scan[d], d
    assert F.indices_of_order(n + 1) == []


def test_order_counts_examples():
    assert sum(1 for x in list(field(5, 1).elements())[1:] if x.order() == 4) == 2
    assert sum(1 for x in list(field(2, 2).elements())[1:] if x.order() == 5) == 4


def test_frobenius_basics():
    F = field(3, 2)
    for x in list(F.elements())[:30]:
        assert x.frobenius(0) == x
        assert x.frobenius(F.f).frobenius(F.f) == x
    c = F.from_int(2)
    assert c.frobenius(1) == c  # prime field fixed
    assert F.one.frobenius(3) == F.one


def test_frobenius_is_ring_homomorphism():
    rng = random.Random(77)
    F = field(3, 2)
    elems = list(F.elements())
    for i in range(2 * F.f):
        for _ in range(300):
            x = elems[rng.randrange(F.size)]
            y = elems[rng.randrange(F.size)]
            assert (x + y).frobenius(i) == x.frobenius(i) + y.frobenius(i)
            assert (x * y).frobenius(i) == x.frobenius(i) * y.frobenius(i)


def test_subfield_is_fixed_field_of_qth_power():
    F = field(2, 2)
    fixed = [x for x in F.elements() if x.frobenius(F.f) == x]
    assert len(fixed) == F.q


def test_norm_trace_land_in_subfield():
    """x^(q+1) and x + x^q are fixed by x -> x^q."""
    for p, f in [(5, 1), (2, 2), (3, 2)]:
        F = field(p, f)
        for x in F.elements():
            conj = x.frobenius(f)
            for y in (x * conj, x + conj):
                assert y.frobenius(f) == y


@pytest.mark.parametrize("p,f", [(5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_trace_one_fiber_size(p, f):
    """x -> x + x^q is onto GF(q): every value has exactly q preimages."""
    F = field(p, f)
    hits = sum(1 for b in F.elements() if (b + b.frobenius(F.f)) == F.one)
    assert hits == F.q


def test_serialization_round_trip():
    F = field(3, 2)
    for x in list(F.elements())[::7]:
        assert F.from_str(x.to_str()) == x
    assert F.params_str() == "3,2," + ",".join(str(c) for c in F.modulus)


class PolyReference:
    """Arithmetic on coefficient vectors with the _poly_* routines alone."""

    def __init__(self, F):
        self.F = F
        self.p = F.p
        self.modulus = list(F.modulus)
        self.n = F.size - 1

    def poly(self, i):
        return list(self.F.decode(i))

    def add(self, i, j):
        return self.F.encode([(a + b) % self.p
                              for a, b in zip(self.F.decode(i), self.F.decode(j))])

    def neg(self, i):
        return self.F.encode([-a % self.p for a in self.F.decode(i)])

    def mul(self, i, j):
        return self.F.encode(_poly_mulmod(self.poly(i), self.poly(j),
                                          self.modulus, self.p))

    def power(self, i, e):
        base = self.poly(i)
        if e < 0:  # x^-1 = x^(n-1) by Lagrange, then raise that
            base, e = _poly_powmod(base, self.n - 1, self.modulus, self.p), -e
        return self.F.encode(_poly_powmod(base, e, self.modulus, self.p))

    def order(self, i):
        one = self.F.encode([1])
        return min(d for d in range(1, self.n + 1)
                   if self.n % d == 0 and self.power(i, d) == one)


def check_against_reference(F, pairs, elements):
    """The field's index arithmetic against PolyReference."""
    ref = PolyReference(F)
    one = F.encode([1])
    for i, j in pairs:
        assert F.add_index(i, j) == ref.add(i, j), (i, j)
        assert F.mul_index(i, j) == ref.mul(i, j), (i, j)
    for i in range(F.size):
        assert F.neg_index(i) == ref.neg(i)
        assert F.add_index(i, F.neg_index(i)) == 0
        if i:
            assert F.mul_index(i, F.inv_index(i)) == one
    with pytest.raises(ZeroDivisionError):
        F.inv_index(0)
    with pytest.raises(ZeroDivisionError):
        F.pow_index(0, -1)
    for i in elements:
        for e in (0, 1, 2, 5, -1, -2, -7, F.size, -F.size):
            assert F.pow_index(i, e) == ref.power(i, e), (i, e)
        for e in (-1, 0, 1, F.f, 2 * F.f + 1):
            assert F.frob_index(i, e) == ref.power(i, F.p ** (e % F.ext_degree))
        assert F.inv_index(i) == ref.power(i, -1)
        assert F.order_index(i) == ref.order(i)


@pytest.mark.parametrize("p,f", [(5, 1), (3, 1), (3, 2)])
def test_log_tier_matches_polynomial_reference_exhaustively(p, f):
    F = field(p, f)
    pairs = [(i, j) for i in range(F.size) for j in range(F.size)]
    check_against_reference(F, pairs, range(1, F.size))


@pytest.mark.parametrize("p,f", [(7, 2), (2, 6), (3, 4)])
def test_log_tier_matches_polynomial_reference_sampled(p, f):
    """Larger fields, on a fixed-stride sample of 20 000 pairs."""
    F = field(p, f)
    ref = PolyReference(F)
    pairs = [(0, 0), (0, 1), (1, 0)] + [
        ((7919 * k + 1) % F.size, (104729 * k + 3) % F.size)
        for k in range(20000)]
    # squares and x + (-x) hit the Zech table off the sampled strides
    pairs += [(i, i) for i in range(0, F.size, 37)]
    pairs += [(i, ref.neg(i)) for i in range(1, F.size, 41)]
    check_against_reference(F, pairs, range(1, F.size, 97))


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2), (7, 2), (2, 6)])
def test_zech_table_has_one_empty_entry(p, f):
    """The zero-padded layout: zero's log is 2n, exp reads 0 from 2n on,
    and 1 + g^k = 0 only for g^k = -1, whose log is 0 (p = 2) or n/2."""
    F = field(p, f)
    n = F.size - 1
    log, exp, zech = (
        a.tolist() for a in (F._log_arr, F._exp_arr, F._zech_arr))
    assert len(log) == F.size and len(exp) == len(zech) == 4 * n + 1
    assert log[0] == 2 * n
    assert sorted(exp[:n]) == list(range(1, F.size))
    assert exp[n:2 * n] == exp[:n] and set(exp[2 * n:]) == {0}
    # Z(k) = log(1 + g^k) sits at zech[k + 2n], and for k >= 1 at zech[k + n]
    assert [k for k in range(n) if zech[k + 2 * n] == 2 * n] == [F._neg_log]
    assert F._neg_log == (0 if p == 2 else n // 2)
    assert zech[n + 1:2 * n] == zech[2 * n + 1:3 * n]
    assert zech[:n] == list(range(-2 * n, -n)) and set(zech[3 * n:]) == {0}
    # the scalar methods read views of these arrays, not copies
    assert F._log.obj is F._log_arr and F._exp.obj is F._exp_arr
    assert F._zech.obj is F._zech_arr


@pytest.mark.parametrize("p,f", [(5, 2), (2, 4)])
def test_scalar_methods_return_python_ints(p, f):
    """Indices leave the scalar methods as exact ints, also when called with
    np.int64 arguments, as the numpy kernels' outputs are."""
    F = field(p, f)
    n = F.size - 1
    for wrap in (int, np.int64):
        i, j, e, k = wrap(F.size - 2), wrap(3), wrap(-5), wrap(n + 7)
        results = [F.add_index(i, j), F.add_index(i, F.neg_index(i)),
                   F.mul_index(i, j), F.neg_index(i), F.inv_index(i),
                   F.pow_index(i, e), F.pow_index(wrap(0), wrap(0)),
                   F.pow_index(wrap(0), wrap(2)), F.pow_index(j, k),
                   F.frob_index(i, wrap(1)), F.order_index(i),
                   *F.indices_of_order(wrap(n // 3))]
        assert all(type(x) is int for x in results), results


def _kernel_pairs(F):
    """Every pair (zeros included) of a small field, else a fixed-stride
    sample of 200 000 pairs plus every pair with a zero and x + (-x)."""
    size = F.size
    idx = np.arange(size)
    if size <= 100:
        return np.repeat(idx, size), np.tile(idx, size)
    k = np.arange(200000)
    a = np.concatenate([(7919 * k + 1) % size, np.zeros(size, dtype=np.int64),
                        idx, idx[1:]])
    b = np.concatenate([(104729 * k + 3) % size, idx,
                        np.zeros(size, dtype=np.int64),
                        [F.neg_index(i) for i in range(1, size)]])
    return a, b


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2), (3, 2), (7, 2), (2, 6)])
def test_numpy_kernels_match_scalar_methods(p, f):
    """add_np, mul_np, inv_np and powq_np against the scalar index methods."""
    F = field(p, f)
    a, b = _kernel_pairs(F)
    assert F.add_np(a, b).tolist() == [
        F.add_index(i, j) for i, j in zip(a.tolist(), b.tolist())]
    assert F.mul_np(a, b).tolist() == [
        F.mul_index(i, j) for i, j in zip(a.tolist(), b.tolist())]
    idx = np.arange(F.size)
    assert F.inv_np(idx).tolist() == [0] + [
        F.inv_index(i) for i in range(1, F.size)]
    assert F.powq_np(idx).tolist() == [
        F.frob_index(i, F.f) for i in range(F.size)]
    # scalar operands broadcast against arrays
    x = int(idx[-1])
    assert F.add_np(x, idx).tolist() == [F.add_index(x, i) for i in range(F.size)]
    assert F.mul_np(idx, x).tolist() == [F.mul_index(i, x) for i in range(F.size)]


def test_field_rejects_non_prime_p():
    for p in (0, 1, 4, 9, 15, 25):
        with pytest.raises(ValueError, match="not prime"):
            Field(p, 1)


def test_modulus_scan_from_c0_one_matches_full_scan():
    """The scan skips only candidates with c0 = 0, so on every field within
    SIZE_LIMIT it finds the modulus the scan over all tails finds."""
    fields = [(p, f) for p in range(2, isqrt(SIZE_LIMIT) + 1)
              if factorize(p) == {p: 1}
              for f in range(1, 11) if p ** (2 * f) <= SIZE_LIMIT]
    assert len(fields) == 198
    for p, f in fields:
        full = next(tail + (1,) for tail in product(range(p), repeat=2 * f)
                    if _is_irreducible(list(tail) + [1], p))
        assert smallest_irreducible(p, 2 * f) == full, (p, f)
