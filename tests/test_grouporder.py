"""Isotropic geometry, the permutation action, and the order certificates."""

from dataclasses import replace

import numpy as np
import pytest

from psu3grr import grouporder
from psu3grr.construct import GeneratorTriple, build_triple, search_params
from psu3grr.gf import field
from psu3grr.grouporder import (DegenerateActionError, IsotropicAction,
                                OrderBoundExceeded, StabilizerChain,
                                commutant_dimension,
                                dihedral_image_order, expected_group_order,
                                group_order, invariant_subspace_test,
                                isotropic_points)
from psu3grr.mat3 import Mat3, is_special_unitary, standard_hermitian_form


def _independent_isotropic_count(F):
    """Oracle: scan all normalized projective representatives directly."""
    w = standard_hermitian_form(F).matrix
    f = F.f
    def isotropic(v):
        total = F.zero
        for i in range(3):
            for j in range(3):
                total = total + v[i].frobenius(f) * w.entry(i, j) * v[j]
        return total.is_zero()
    count = 0
    one, zero = F.one, F.zero
    if isotropic((zero, zero, one)):
        count += 1
    for x in F.elements():
        if isotropic((zero, one, x)):
            count += 1
        for y in F.elements():
            if isotropic((one, x, y)):
                count += 1
    return count


@pytest.mark.parametrize("p,f,expected", [(2, 2, 65), (5, 1, 126), (3, 1, 28)])
def test_isotropic_point_counts(p, f, expected):
    F = field(p, f)
    pts = isotropic_points(F)
    assert len(pts) == expected == F.q ** 3 + 1
    assert _independent_isotropic_count(F) == expected


def test_basis_point_is_isotropic():
    """[1:0:0] pairs to zero with itself under the anti-diagonal form."""
    F = field(5, 1)
    pts = isotropic_points(F)
    one, zero = F.one, F.zero
    assert (one, zero, zero) in [tuple(p) for p in pts]


def test_points_are_normalized_and_sorted():
    F = field(2, 2)
    pts = [tuple(x.index for x in p) for p in isotropic_points(F)]
    assert pts == sorted(pts)
    for p in pts:
        lead = next(x for x in p if x)
        assert lead == F.one.index


def test_action_is_a_homomorphism():
    F = field(5, 1)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    px, py = act.permutation(t.X), act.permutation(t.Y)
    pxy = act.permutation(t.X * t.Y)
    # v -> vX then vY corresponds to the product permutation
    assert np.array_equal(py[px], pxy)
    # involutions square to the identity permutation
    assert np.array_equal(px[px], act.identity)


@pytest.mark.parametrize("p,f", [(37, 1), (7, 2)])
def test_action_beyond_q32(p, f):
    """The action at q = 37 and 49, fields of 1369 and 2401 elements."""
    F = field(p, f)
    act = IsotropicAction(F)
    assert act.degree == F.q ** 3 + 1
    t = build_triple(search_params(F))
    for m in t.matrices:
        perm = act.permutation(m)
        assert np.array_equal(np.sort(perm), act.identity)
        assert np.array_equal(perm[perm], act.identity)
        assert not np.array_equal(perm, act.identity)


def test_action_kernel_is_the_center():
    """Scalar center matrices act trivially; non-central words never do."""
    import random
    from psu3grr.mat3 import su3_center_scalars, projectively_equal
    F = field(5, 1)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    I = Mat3.identity(F)
    for c in su3_center_scalars(F):
        assert np.array_equal(act.permutation(I.scalar_mul(c)), act.identity)
        # the action factors through the projective quotient
        assert np.array_equal(act.permutation(t.X.scalar_mul(c)),
                              act.permutation(t.X))
    rng = random.Random(31)
    for _ in range(50):
        w = t.matrices[rng.randrange(3)]
        for _ in range(8):
            w = w * t.matrices[rng.randrange(3)]
        if projectively_equal(w, I):
            continue
        assert not np.array_equal(act.permutation(w), act.identity)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (3, 2)])
def test_group_order_matches_formula(p, f):
    F = field(p, f)
    t = build_triple(search_params(F))
    cert = group_order(t)
    assert cert.order == expected_group_order(F.q)
    assert cert.degree == F.q ** 3 + 1
    # internal consistency of the certificate
    prod = 1
    for n in cert.orbit_lengths:
        prod *= n
    assert prod == cert.order
    assert len(cert.base) == len(cert.orbit_lengths)


def test_group_order_formula_values():
    assert expected_group_order(4) == 62400
    assert expected_group_order(5) == 126000
    assert expected_group_order(3) == 6048


def test_group_order_is_generator_order_independent():
    F = field(5, 1)
    cp = search_params(F)
    t = build_triple(cp)
    act = IsotropicAction(F)
    base = group_order(t, act).order
    shuffled = GeneratorTriple(cp, t.Z, t.X, t.Y)
    assert group_order(shuffled, act).order == base


def test_dihedral_image_orders():
    F = field(5, 1)
    t = build_triple(search_params(F))
    assert dihedral_image_order(t) == 2 * (F.q - 1) == 8
    E = field(2, 2)
    te = build_triple(search_params(E))
    assert dihedral_image_order(te) == 2 * (E.q + 1) == 10


def test_degenerate_action_is_rejected():
    F = field(5, 1)
    cp = search_params(F)
    I = Mat3.identity(F)
    with pytest.raises(DegenerateActionError):
        group_order(GeneratorTriple(cp, I, I, I))


def test_stabilizer_chain_small_known_group():
    """Chain order against brute closure for a dihedral group on 6 points."""
    rot = np.array([1, 2, 3, 4, 5, 0], dtype=np.int32)
    refl = np.array([0, 5, 4, 3, 2, 1], dtype=np.int32)
    chain = StabilizerChain(6)
    chain.add_generator(rot)
    chain.add_generator(refl)
    assert chain.order() == 12
    assert chain.contains(rot[refl])
    odd_cycle = np.array([1, 0, 2, 3, 4, 5], dtype=np.int32)
    assert not chain.contains(odd_cycle)


def test_stabilizer_chain_symmetric_group():
    cyc = np.array([1, 2, 3, 4, 0], dtype=np.int32)
    swap = np.array([1, 0, 2, 3, 4], dtype=np.int32)
    chain = StabilizerChain(5)
    chain.add_generator(cyc)
    chain.add_generator(swap)
    assert chain.order() == 120


@pytest.mark.parametrize("p,f", [(5, 1), (7, 1), (2, 2), (2, 3)])
def test_irreducibility_of_constructed_triples(p, f):
    F = field(p, f)
    t = build_triple(search_params(F))
    assert invariant_subspace_test(t)
    assert commutant_dimension(t) == 1


def test_reducible_triples_are_detected():
    F = field(5, 1)
    cp = search_params(F)
    I = Mat3.identity(F)
    ident_triple = GeneratorTriple(cp, I, I, I)
    assert not invariant_subspace_test(ident_triple)
    assert commutant_dimension(ident_triple) == 9
    # diagonal triple: commutant is the full diagonal, dimension 3
    t = build_triple(cp)
    yz = t.Y * t.Z
    diag_triple = GeneratorTriple(cp, yz, yz, yz)
    assert commutant_dimension(diag_triple) == 3
    assert not invariant_subspace_test(diag_triple)


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2), (3, 2), (7, 2), (2, 6)])
def test_eigenvalues_match_fieldelem_scan(p, f):
    """Index-arithmetic roots equal a FieldElem evaluation at every element,
    for q from 4 to 64."""
    F = field(p, f)
    t = build_triple(search_params(F))
    rng = np.random.default_rng(p * 100 + f)
    mats = list(t.matrices) + [t.X * t.Y, t.Y * t.Z, Mat3.identity(F)]
    for _ in range(4):
        mats.append(Mat3.from_flat_indices(
            F, rng.integers(0, F.size, 9).tolist()))
        diag = [0] * 9
        diag[0], diag[4], diag[8] = rng.integers(0, F.size, 3).tolist()
        mats.append(Mat3.from_flat_indices(F, diag))
    roots = 0
    for m in mats:
        cp = m.char_poly()
        expected = [x for x in F.elements() if cp.eval(x).is_zero()]
        assert grouporder._eigenvalues(m) == expected, m
        roots += len(expected)
    assert roots >= 12  # the diagonal matrices alone give at least 4 x 1


def test_irreducibility_oracles_agree_on_tested_triples():
    """Both certifiers must say the same thing on every triple we test."""
    cases = []
    for p, f in [(5, 1), (2, 2)]:
        F = field(p, f)
        cp = search_params(F)
        t = build_triple(cp)
        I = Mat3.identity(F)
        cases.extend([t, GeneratorTriple(cp, I, I, I)])
    for t in cases:
        irr = invariant_subspace_test(t)
        comm = commutant_dimension(t)
        assert irr == (comm == 1)


def _chain(perms, degree, order_bound=None):
    chain = StabilizerChain(degree, dtype=perms[0].dtype,
                            order_bound=order_bound)
    for p in perms:
        chain.add_generator(p)
    return chain


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1)])
def test_bounded_chain_matches_full_drain(p, f):
    """Stopping at |PSU3(q)| leaves base, orbit lengths and order unchanged."""
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    perms = [act.permutation(m) for m in t.matrices]
    full = _chain(perms, act.degree, order_bound=None)
    bounded = _chain(perms, act.degree, expected_group_order(F.q))
    assert not any(level.pending for level in full.levels)
    assert any(level.pending for level in bounded.levels)  # stopped early
    assert bounded.order() == full.order() == expected_group_order(F.q)
    assert bounded.base == full.base
    assert bounded.orbit_lengths == full.orbit_lengths
    cert = group_order(t, act)
    assert (cert.order, cert.base, cert.orbit_lengths) == \
        (full.order(), full.base, full.orbit_lengths)


def test_only_special_unitary_triples_get_the_order_bound(monkeypatch):
    """c * X with c^(q+1) = 1, c^3 != 1 acts like X but is not in SU3(q)."""
    F = field(5, 1)
    cp = search_params(F)
    t = build_triple(cp)
    c = next(x for x in F.nonzero_elements()
             if x ** (F.q + 1) == F.one and x ** 3 != F.one)
    scaled = GeneratorTriple(cp, t.X.scalar_mul(c), t.Y, t.Z)
    assert not is_special_unitary(scaled.X)
    bounds = []
    certify = grouporder.permutation_order_certificate

    def spy(perms, degree, order_bound=None):
        bounds.append(order_bound)
        return certify(perms, degree, order_bound)
    monkeypatch.setattr(grouporder, "permutation_order_certificate", spy)
    act = IsotropicAction(F)
    assert group_order(scaled, act) == group_order(t, act)
    assert bounds == [None, expected_group_order(F.q)]


def test_chain_raises_when_the_bound_is_too_small():
    cyc = np.array([1, 2, 3, 4, 0], dtype=np.int32)
    swap = np.array([1, 0, 2, 3, 4], dtype=np.int32)
    with pytest.raises(OrderBoundExceeded):
        _chain([cyc, swap], 5, order_bound=119)
    F = field(5, 1)
    act = IsotropicAction(F)
    perms = [act.permutation(m) for m in build_triple(search_params(F)).matrices]
    with pytest.raises(OrderBoundExceeded):
        _chain(perms, act.degree, expected_group_order(F.q) - 1)


@pytest.mark.parametrize("b", ["0,4", "1,1"])
def test_norm_one_b_collapses_to_a_proper_subgroup(b):
    """At q = 5 a norm-one b outside GF(q) passes the trace condition but
    generates an A7-type subgroup; the chain never reaches |PSU3(5)| and
    drains completely."""
    F = field(5, 1)
    cp = search_params(F)
    nb = F.from_str(b)
    assert nb ** (F.q + 1) == F.one and nb.frobenius(F.f) != nb
    assert nb + nb.frobenius(F.f) == F.one
    cert = group_order(build_triple(replace(cp, b=nb)))
    assert cert.order == 2520
    assert cert.base == (0, 2, 6)
    assert cert.orbit_lengths == (126, 10, 2)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3)])
def test_chain_order_matches_sympy(p, f):
    """Independent order check by sympy's own Schreier-Sims."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    perms = [act.permutation(m) for m in t.matrices]
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation([int(x) for x in g]) for g in perms])
    assert group.order() == group_order(t, act).order == \
        expected_group_order(F.q)
