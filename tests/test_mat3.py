"""Matrix algebra over GF(q^2) and the SU3 membership machinery."""

import math
import random
from itertools import product

import numpy as np
import pytest

from psu3grr.construct import build_triple, search_params
from psu3grr.gf import field
from psu3grr.grouporder import IsotropicAction
from psu3grr.mat3 import (Mat3, adjugate_np, intertwiner_np,
                          is_special_unitary, matmul_np, matrix_order,
                          projective_order, projectively_equal,
                          standard_hermitian_form, su3_center_scalars)


def _random_matrix(F, rng):
    return Mat3(F, tuple(F.from_index(rng.randrange(F.size)) for _ in range(9)))


def _random_invertible(F, rng):
    while True:
        m = _random_matrix(F, rng)
        if m.det():
            return m


def test_identity_laws():
    F = field(5, 1)
    rng = random.Random(1)
    I = Mat3.identity(F)
    for _ in range(50):
        m = _random_matrix(F, rng)
        assert I * m == m and m * I == m


def test_mul_associative_and_det_multiplicative():
    rng = random.Random(2)
    for p, f in [(5, 1), (2, 2)]:
        F = field(p, f)
        for _ in range(200):
            a, b, c = (_random_matrix(F, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a * b).det() == a.det() * b.det()


def test_constructor_takes_nine_flat_field_elements():
    F = field(5, 1)
    one = F.one
    rows = [[one, one, one]] * 3
    assert Mat3(F, [x for row in rows for x in row]) == Mat3.from_rows(F, rows)
    with pytest.raises(ValueError, match="not a field element"):
        Mat3(F, [1] * 9)
    with pytest.raises(ValueError, match="exactly 9"):
        Mat3(F, rows)
    with pytest.raises(ValueError, match="exactly 9"):
        Mat3(F, [one] * 8)
    with pytest.raises(ValueError, match="different field"):
        Mat3(F, [field(2, 2).one] * 9)


def test_inverse():
    rng = random.Random(3)
    F = field(3, 2)
    I = Mat3.identity(F)
    for _ in range(50):
        m = _random_invertible(F, rng)
        assert m * m.inverse() == I
    singular = Mat3.from_rows(F, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    assert not singular.det()
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2), (7, 2)])
def test_stacked_kernels_match_mat3(p, f):
    """matmul_np and adjugate_np against Mat3 on random matrices with
    zero entries, over GF(5^2), GF(2^4) and GF(7^4)."""
    F = field(p, f)
    rng = np.random.default_rng(100 * p + f)
    a, b = rng.integers(0, F.size, (2, 200, 9))
    a[rng.random(a.shape) < 0.3] = 0
    b[rng.random(b.shape) < 0.3] = 0
    a[0], b[1] = 0, Mat3.identity(F).flat_indices
    products, adjugates = matmul_np(F, a, b), adjugate_np(F, a)
    for k in range(len(a)):
        ma = Mat3.from_flat_indices(F, a[k].tolist())
        mb = Mat3.from_flat_indices(F, b[k].tolist())
        assert products[k].tolist() == list((ma * mb).flat_indices)
        adj = Mat3.from_flat_indices(F, adjugates[k].tolist())
        assert ma * adj == Mat3.identity(F).scalar_mul(ma.det())
        if ma.det():
            assert adj == ma.inverse().scalar_mul(ma.det())
    # intertwiner_np maps vec(D) to vec(A D - c D B)
    c = rng.integers(0, F.size, 200)
    systems = intertwiner_np(F, a, b, c)
    assert systems.shape == (200, 9, 9)
    for k in range(0, len(a), 4):
        ma = Mat3.from_flat_indices(F, a[k].tolist())
        mb = Mat3.from_flat_indices(F, b[k].tolist())
        md = Mat3.from_flat_indices(F, rng.integers(0, F.size, 9).tolist())
        ck = F.from_index(int(c[k]))
        want = [x - ck * y for x, y in zip((ma * md).e, (md * mb).e)]
        for row, w in zip(systems[k].tolist(), want):
            acc = F.zero
            for x, y in zip(row, md.e):
                acc = acc + F.from_index(x) * y
            assert acc == w


def test_conj_transpose_is_involution():
    rng = random.Random(4)
    for p, f in [(5, 1), (2, 3)]:
        F = field(p, f)
        I = Mat3.identity(F)
        assert I.conj_transpose() == I
        for _ in range(100):
            m = _random_matrix(F, rng)
            assert m.conj_transpose().conj_transpose() == m


def test_standard_form_is_hermitian():
    for p, f in [(5, 1), (2, 2), (3, 2)]:
        w = standard_hermitian_form(field(p, f))
        assert w.conj_transpose() == w
        assert w.det()


def test_char_poly_of_identity():
    F = field(5, 1)
    cp = Mat3.identity(F).char_poly()
    # (l - 1)^3 = l^3 - 3 l^2 + 3 l - 1
    three = F.from_int(3)
    assert cp.c2 == -three and cp.c1 == three and cp.c0 == -F.one


def test_char_poly_conjugation_invariant():
    rng = random.Random(5)
    for p, f in [(5, 1), (2, 2)]:
        F = field(p, f)
        for _ in range(100):
            m = _random_matrix(F, rng)
            d = _random_invertible(F, rng)
            conj = d.inverse() * m * d
            assert conj.char_poly() == m.char_poly()


def test_char_poly_roots_are_eigenvalues():
    F = field(5, 1)
    m = Mat3.from_rows(F, [[2, 0, 0], [0, 3, 0], [0, 0, 1]])
    cp = m.char_poly()
    roots = [x for x in F.elements() if not cp.eval(x)]
    assert {r.index for r in roots} == {F.from_int(2).index,
                                        F.from_int(3).index, F.one.index}


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2)])
def test_triple_is_special_unitary_and_closed(p, f):
    F = field(p, f)
    t = build_triple(search_params(F))
    for m in t.matrices:
        assert is_special_unitary(m)
    # subgroup property on random words
    rng = random.Random(6)
    for _ in range(50):
        word = _random_word(t, rng)
        assert is_special_unitary(word)
        assert is_special_unitary(word.inverse())
        # c0 of the char poly is -1 (equal to +1 in characteristic 2)
        assert word.char_poly().c0 == -F.one


def _random_word(t, rng, length=10):
    m = t.matrices[rng.randrange(3)]
    for _ in range(length - 1):
        m = m * t.matrices[rng.randrange(3)]
    return m


def test_center_scalars_counts():
    # gcd(3, q+1) scalars: 3 for q = 5, 1 for q = 4, 3 for q = 8
    assert len(su3_center_scalars(field(5, 1))) == 3
    assert len(su3_center_scalars(field(2, 2))) == 1
    assert len(su3_center_scalars(field(2, 3))) == 3


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (2, 4), (5, 2), (2, 5), (2, 10)])
def test_center_scalars_match_scan(p, f):
    """The closed form equals the scan of every field element, in index
    order (the order fixes the aut sweep's oracle_path)."""
    F = field(p, f)
    one = F.one.index
    scan = [i for i in range(1, F.size)
            if F.pow_index(i, 3) == one and F.pow_index(i, F.q + 1) == one]
    assert [c.index for c in su3_center_scalars(F)] == scan


def test_projectively_equal():
    F = field(5, 1)
    rng = random.Random(7)
    m = _random_invertible(F, rng)
    assert projectively_equal(m, m)
    # 2^3 = 3 != 1 in GF(5), so 2 is not a center scalar
    assert not projectively_equal(m, m.scalar_mul(F.from_int(2)))
    omega = next(c for c in su3_center_scalars(F) if c != F.one)
    assert projectively_equal(m, m.scalar_mul(omega))


def test_matrix_and_projective_orders():
    F = field(5, 1)
    t = build_triple(search_params(F))
    for m in t.matrices:
        assert matrix_order(m) == 2
        assert projective_order(m) == 2
    yz = t.Y * t.Z
    assert projective_order(yz) == F.q - 1
    E = field(2, 2)
    te = build_triple(search_params(E))
    assert projective_order(te.Z * te.Y) == E.q + 1
    # projective order divides matrix order
    assert matrix_order(yz) % projective_order(yz) == 0


def test_orders_past_q_squared_at_q7():
    """At q = 7 the product X Y Z has order 56 = q(q + 1), past q^2 - 1,
    and the center is trivial, so its projective order is 56 too: the lcm
    of the cycle lengths of its permutation of the isotropic points.  A
    singular matrix has no order below the bound q^3."""
    F = field(7, 1)
    t = build_triple(search_params(F))
    xyz = t.X * t.Y * t.Z
    perm = IsotropicAction(F).permutation(xyz)
    seen = np.zeros(len(perm), dtype=bool)
    lengths = set()
    for start in range(len(perm)):
        i, n = start, 0
        while not seen[i]:
            seen[i] = True
            i, n = perm[i], n + 1
        lengths.add(max(n, 1))
    assert math.lcm(*lengths) == 56
    assert projective_order(xyz) == matrix_order(xyz) == 56
    singular = Mat3.from_rows(F, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for order in (matrix_order, projective_order):
        with pytest.raises(ArithmeticError):
            order(singular)


def _brute_orders(m, bound):
    """(matrix order, projective order) of m by repeated multiplication,
    each None if it exceeds the bound."""
    ident = Mat3.identity(m.field)
    centre = {ident.scalar_mul(c) for c in su3_center_scalars(m.field)}
    power, proj = m, None
    for n in range(1, bound + 1):
        if proj is None and power in centre:
            proj = n
        if power == ident:
            return n, proj
        power = power * m
    return None, proj


def test_order_loop_refuses_past_q_cubed_at_q2():
    """Over GF(4), q = 2, the bound is q^3 = 8.  Companion matrices of
    invertible cubics lie outside SU3(2), and some have orders past it:
    the loop raises rather than return a wrong order."""
    F = field(2, 1)
    m = Mat3.from_str(F, "0,0 0,0 0,1;1,0 0,0 0,0;0,0 1,0 0,0")
    assert _brute_orders(m, 64) == (9, 3)
    assert projective_order(m) == 3
    with pytest.raises(ArithmeticError, match=r"order bound q\^3 exceeded"):
        matrix_order(m)
    zero, one = F.zero, F.one
    companions = (Mat3(F, (zero, zero, c, one, zero, b, zero, one, a))
                  for a, b, c in product(F.elements(), repeat=3) if c)
    far = next(c for c in companions
               if (_brute_orders(c, 64)[1] or 65) > F.q ** 3)
    with pytest.raises(ArithmeticError, match=r"order bound q\^3 exceeded"):
        projective_order(far)


def test_serialization_round_trip():
    F = field(3, 2)
    rng = random.Random(8)
    for _ in range(20):
        m = _random_matrix(F, rng)
        assert Mat3.from_str(F, m.to_str()) == m
