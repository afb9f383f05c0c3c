"""Isotropic geometry, the permutation action, and the order certificates."""

import tracemalloc
from collections import deque
from itertools import product

import numpy as np
import pytest

from psu3grr import grouporder
from psu3grr.construct import (ConnectionSetError, GeneratorTriple,
                               build_triple, search_params)
from psu3grr.gf import field
from psu3grr.grouporder import (IsotropicAction, OrderBoundExceeded,
                                StabilizerChain, commutant_dimension,
                                dihedral_image_order, expected_group_order,
                                group_order, invariant_subspace_test)
from psu3grr.mat3 import (Mat3, is_special_unitary, standard_hermitian_form,
                          su3_center_scalars, vecmat_np)


# ---------------------------------------------------------------------------
# Oracles: the size^2 point scan, the point lookup by key search, and the
# Schreier-Sims chain on permutation arrays that the matrix chain replays
# ---------------------------------------------------------------------------

def _point_key(F, pts):
    """Rows of three field indices packed into one integer, in row order."""
    return (pts[..., 0] * F.size + pts[..., 1]) * F.size + pts[..., 2]


def _scanned_point_matrix(F):
    """Every normalized [0, 0, 1], [0, 1, x], [1, x, y] on which the form
    vanishes, by evaluating it at all of them; sorted by key."""
    add, mul = F.add_np, F.mul_np
    w = standard_hermitian_form(F).flat_indices
    one = F.one.index

    def form(*v):
        acc = np.zeros_like(v[0])
        for i in range(3):
            ci = F.powq_np(v[i])
            for j in range(3):
                if w[3 * i + j]:
                    acc = add(acc, mul(mul(ci, w[3 * i + j]), v[j]))
        return acc

    x = np.arange(F.size, dtype=np.int64)
    zeros, ones = np.zeros_like(x), np.full_like(x, one)
    xx, yy = np.repeat(x, F.size), np.tile(x, F.size)
    candidates = [np.array([[0, 0, one]]), np.stack([zeros, ones, x], 1),
                  np.stack([np.full_like(xx, one), xx, yy], 1)]
    pts = np.concatenate([c[form(*c.T) == 0] for c in candidates])
    return pts[np.argsort(_point_key(F, pts))]


def _searched_locate(action, w):
    """Point indices of the rows w (N, 3): each row scaled to a leading 1
    and its key binary-searched among the sorted keys of the points."""
    F = action.field
    lead = np.where(w[:, 0] != 0, w[:, 0],
                    np.where(w[:, 1] != 0, w[:, 1], w[:, 2]))
    assert lead.all()
    keys = _point_key(F, F.mul_np(w, F.inv_np(lead)[:, None]))
    known = _point_key(F, action.point_matrix)
    pos = np.searchsorted(known, keys)
    assert (known.take(pos, mode="clip") == keys).all()
    return pos


def _compose(a, b):
    # x^(a then b) = b[a[x]]
    return b.take(a)


class _PermLevel:
    def __init__(self, beta, identity):
        self.beta = beta
        self.gens = []
        self.orbit = [beta]
        self.pos = {beta: 0}
        self.parent = {}            # point -> (parent point, gen index)
        self.trans = {beta: identity}
        self.trans_inv = {beta: identity}
        self.pending = deque()      # unprocessed (orbit position, gen index)

    def add_gen(self, g):
        gi = len(self.gens)
        self.gens.append(g)
        for pos in range(len(self.orbit)):
            self.pending.append((pos, gi))
        self._grow()

    def _grow(self):
        i = 0
        orbit, pos = self.orbit, self.pos
        while i < len(orbit):
            a = orbit[i]
            for gi, g in enumerate(self.gens):
                b = int(g[a])
                if b not in pos:
                    pos[b] = len(orbit)
                    self.parent[b] = (a, gi)
                    for gj in range(len(self.gens)):
                        self.pending.append((len(orbit), gj))
                    orbit.append(b)
            i += 1

    def transversal(self, c):
        """u with beta^u = c, along the Schreier tree path."""
        path = []
        x = c
        while x not in self.trans:
            path.append(x)
            x = self.parent[x][0]
        u = self.trans[x]
        for y in reversed(path):
            u = self.trans[y] = _compose(u, self.gens[self.parent[y][1]])
        return u

    def transversal_inv(self, c):
        t = self.trans_inv.get(c)
        if t is None:
            u = self.transversal(c)
            t = self.trans_inv[c] = np.empty_like(u)
            t[u] = np.arange(len(u), dtype=u.dtype)
        return t


class PermChain:
    """Sequential deterministic Schreier-Sims on permutation arrays: one
    Schreier pair at a time, residues composed as arrays of the degree.
    StabilizerChain must reproduce it level by level."""

    def __init__(self, degree, order_bound=None):
        self.order_bound = order_bound
        self.identity = np.arange(degree)
        self.levels = []

    def add_generator(self, perm):
        if np.array_equal(perm, self.identity):
            return
        residue, lvl = self._sift(perm, 0)
        if not np.array_equal(residue, self.identity) \
                and not self._extend(residue, lvl):
            self._drain()

    def contains(self, perm):
        residue, _ = self._sift(perm, 0)
        return np.array_equal(residue, self.identity)

    def _sift(self, g, start):
        r = g
        for li in range(start, len(self.levels)):
            level = self.levels[li]
            c = int(r[level.beta])
            if c == level.beta:
                continue
            if c not in level.pos:
                return r, li
            r = _compose(r, level.transversal_inv(c))
        return r, len(self.levels)

    def _extend(self, g, lvl):
        if lvl == len(self.levels):
            beta = int(np.flatnonzero(g != self.identity)[0])
            self.levels.append(_PermLevel(beta, self.identity))
        for li in range(lvl + 1):
            self.levels[li].add_gen(g)
        if self.order_bound is None:
            return False
        order = self.order()
        if order > self.order_bound:
            raise OrderBoundExceeded(f"chain order {order}")
        return order == self.order_bound

    def _drain(self):
        while True:
            busy = [li for li, lv in enumerate(self.levels) if lv.pending]
            if not busy:
                return
            level = self.levels[busy[0]]
            a_pos, gi = level.pending.popleft()
            w = _compose(level.transversal(level.orbit[a_pos]),
                         level.gens[gi])
            residue, l2 = self._sift(w, busy[0])
            if not np.array_equal(residue, self.identity) \
                    and self._extend(residue, l2):
                return

    def order(self):
        out = 1
        for level in self.levels:
            out *= len(level.orbit)
        return out

    @property
    def base(self):
        return tuple(level.beta for level in self.levels)

    @property
    def orbit_lengths(self):
        return tuple(len(level.orbit) for level in self.levels)


def _perm_chain(perms, degree, order_bound=None):
    chain = PermChain(degree, order_bound)
    for p in perms:
        chain.add_generator(p)
    return chain


def _matrix_chain(action, mats, order_bound=None):
    chain = StabilizerChain(action, order_bound=order_bound)
    for m in mats:
        chain.add_generator(m)
    return chain


def _levels(chain):
    """Per level: base point, orbit, strong generator count, pending pairs."""
    return [(lv.beta, [int(x) for x in lv.orbit], len(lv.gens),
             list(lv.pending)) for lv in chain.levels]


def _independent_isotropic_count(F):
    """Oracle: scan all normalized projective representatives directly."""
    w = standard_hermitian_form(F)
    f = F.f
    def isotropic(v):
        total = F.zero
        for i in range(3):
            for j in range(3):
                total = total + v[i].frobenius(f) * w.e[3 * i + j] * v[j]
        return not total
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
    pts = IsotropicAction(F).point_matrix
    assert len(pts) == expected == F.q ** 3 + 1
    assert _independent_isotropic_count(F) == expected


def test_basis_point_is_isotropic():
    """[1:0:0] pairs to zero with itself under the anti-diagonal form."""
    F = field(5, 1)
    pts = IsotropicAction(F).point_matrix.tolist()
    assert [F.one.index, 0, 0] in pts


def test_points_are_normalized_and_sorted():
    F = field(2, 2)
    pts = [tuple(p) for p in IsotropicAction(F).point_matrix.tolist()]
    assert pts == sorted(pts)
    for p in pts:
        lead = next(x for x in p if x)
        assert lead == F.one.index


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (2, 4), (5, 2)])
def test_point_enumeration_matches_the_full_scan(p, f):
    """The trace-fibre enumeration equals the scan of all size^2
    candidates at q = 4, 5, 7, 8, 9, 16 and 25."""
    F = field(p, f)
    assert np.array_equal(IsotropicAction(F).point_matrix,
                          _scanned_point_matrix(F))


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (2, 3), (3, 2), (2, 4),
                                 (5, 2)])
def test_locate_matches_the_key_search(p, f):
    """The gather lookup equals the key search on the images of every point
    under X, Y, Z and some products, as computed and with each row scaled
    by a random nonzero scalar, at q = 4, 5, 8, 9, 16 and 25."""
    F = field(p, f)
    act = IsotropicAction(F)
    X, Y, Z = build_triple(search_params(F)).matrices
    rng = np.random.default_rng(p * 100 + f)
    for m in (X, Y, Z, X * Y, Y * Z, X * Y * Z, Z * X * Y * X):
        m = np.array(m.flat_indices, dtype=np.int64).reshape(3, 3)
        images = vecmat_np(F, act.point_matrix, m)
        scale = rng.integers(1, F.size, len(images))
        for w in (images, F.mul_np(images, scale[:, None])):
            got = act._locate(w)
            assert np.array_equal(got, _searched_locate(act, w))
            assert np.array_equal(np.sort(got), act.identity)


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2)])
def test_locate_rejects_rows_off_the_point_set(p, f):
    """A zero row, a [0, 1, x] row and a non-isotropic [1, x, y] row each
    raise, alone or after valid rows."""
    F = field(p, f)
    act = IsotropicAction(F)
    one = F.one.index
    points = {tuple(r) for r in act.point_matrix.tolist()}
    outside = next([one, x, y] for x in range(F.size)
                   for y in range(F.size) if (one, x, y) not in points)
    valid = act.point_matrix[:5]
    for row, message in [([0, 0, 0], "maps a point representative to zero"),
                         ([0, one, 0], "does not preserve the isotropic"),
                         ([0, one, F.size - 1],
                          "does not preserve the isotropic"),
                         (outside, "does not preserve the isotropic")]:
        for w in (np.array([row]), np.vstack((valid, row))):
            with pytest.raises(ValueError, match=message):
                act._locate(w)


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


@pytest.mark.parametrize("p,f,block", [(5, 1, 100), (7, 2, 1000)])
def test_permutation_does_not_depend_on_the_block_size(p, f, block,
                                                       monkeypatch):
    """Smaller blocks, the last one short, give the default permutation at
    q = 5 (degree 126, one block by default) and q = 49 (degree 117 650,
    eight blocks)."""
    F = field(p, f)
    act = IsotropicAction(F)
    mats = build_triple(search_params(F)).matrices
    default = [act.permutation(m) for m in mats]
    monkeypatch.setattr(grouporder, "BLOCK", block)
    for m, perm in zip(mats, default):
        blocked = act.permutation(m)
        assert blocked.dtype == perm.dtype == act.identity.dtype
        assert np.array_equal(blocked, perm)


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


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4), (3, 4)])
def test_dihedral_order_matches_the_chain(p, f):
    """2 ord(YZ), read off the projective order of the rotation, is the
    order the Schreier-Sims chain of <Y, Z> finds, at q = 4 to 16 and 81."""
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    assert dihedral_image_order(t) == \
        grouporder.permutation_order_certificate(
            act, (t.Y, t.Z), order_bound=None).order


@pytest.mark.parametrize("b", ["0,4", "1,1"])
def test_dihedral_order_of_norm_one_b_triples(b):
    """The q = 5 triples that collapse to a proper subgroup still have a
    dihedral <Y, Z> of order 8, as the chain finds."""
    F = field(5, 1)
    t = build_triple(search_params(F)._replace(b=F.from_str(b)))
    act = IsotropicAction(F)
    assert dihedral_image_order(t) == 8 == \
        grouporder.permutation_order_certificate(
            act, (t.Y, t.Z), order_bound=None).order


def test_dihedral_order_needs_two_distinct_involutions():
    F = field(5, 1)
    t = build_triple(search_params(F))
    c = F.from_str("2")  # a scalar multiple acts as the matrix does
    for bad in (t._replace(Y=Mat3.identity(F)), t._replace(Z=t.Y * t.Z),
                t._replace(Z=t.Y.scalar_mul(c))):
        with pytest.raises(ConnectionSetError):
            dihedral_image_order(bad)
    # -Y is an involution acting as Y does, but it is not in SU3(5)
    with pytest.raises(ConnectionSetError, match="Y is not in SU3"):
        dihedral_image_order(t._replace(Y=t.Y.scalar_mul(F.from_str("4"))))


def test_dihedral_order_builds_no_permutation(monkeypatch):
    def refuse(self, mat):
        raise AssertionError("dihedral_image_order built a permutation")
    monkeypatch.setattr(IsotropicAction, "permutation", refuse)
    for p, f in [(5, 1), (2, 2)]:
        F = field(p, f)
        t = build_triple(search_params(F))
        assert dihedral_image_order(t) == 2 * t.rotation[2]


def test_degenerate_action_is_rejected():
    F = field(5, 1)
    cp = search_params(F)
    I = Mat3.identity(F)
    with pytest.raises(ConnectionSetError, match="X projects to"):
        group_order(GeneratorTriple(cp, I, I, I))


def test_stabilizer_chain_small_known_group():
    """Chain order against brute closure for a dihedral group on 6 points."""
    rot = np.array([1, 2, 3, 4, 5, 0], dtype=np.int32)
    refl = np.array([0, 5, 4, 3, 2, 1], dtype=np.int32)
    chain = _perm_chain([rot, refl], 6)
    assert chain.order() == 12
    assert chain.contains(rot[refl])
    odd_cycle = np.array([1, 0, 2, 3, 4, 5], dtype=np.int32)
    assert not chain.contains(odd_cycle)


def test_stabilizer_chain_symmetric_group():
    cyc = np.array([1, 2, 3, 4, 0], dtype=np.int32)
    swap = np.array([1, 0, 2, 3, 4], dtype=np.int32)
    assert _perm_chain([cyc, swap], 5).order() == 120


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


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2), (3, 2), (7, 2), (2, 6),
                                 (2, 3), (2, 4), (5, 2)])
def test_eigenvalues_match_fieldelem_scan(p, f):
    """Index-arithmetic roots equal a FieldElem evaluation at every element,
    for q from 4 to 64.  X, Y, Z, their transposes and the identity try
    only the roots 1 and -1; the rotations, c X (whose square c^2 I is
    scalar but not I) and the random matrices try every element."""
    F = field(p, f)
    t = build_triple(search_params(F))
    rng = np.random.default_rng(p * 100 + f)
    c = next(x for x in list(F.elements())[1:] if x * x != F.one)
    involutions = [m for s in t.matrices for m in (s, s.transpose())]
    involutions.append(Mat3.identity(F))
    assert all(m * m == Mat3.identity(F) for m in involutions)
    mats = involutions + [t.X * t.Y, t.Y * t.Z, t.X.scalar_mul(c)]
    # X has the eigenvalue 1, so c X has c, which 1 and -1 would miss
    assert c in grouporder._eigenvalues(t.X.scalar_mul(c))
    for _ in range(4):
        mats.append(Mat3.from_flat_indices(
            F, rng.integers(0, F.size, 9).tolist()))
        diag = [0] * 9
        diag[0], diag[4], diag[8] = rng.integers(0, F.size, 3).tolist()
        mats.append(Mat3.from_flat_indices(F, diag))
    roots = 0
    for m in mats:
        cp = m.char_poly()
        expected = [x for x in F.elements() if not cp.eval(x)]
        assert grouporder._eigenvalues(m) == expected, m
        roots += len(expected)
    assert roots >= 12  # the diagonal matrices alone give at least 4 x 1


def _rootless_cubic_companion(F):
    """Companion matrix of the first monic cubic without a root in F."""
    for c2, c1, c0 in product(F.elements(), repeat=3):
        if all(((x + c2) * x + c1) * x + c0 for x in F.elements()):
            return Mat3(F, (F.zero, F.zero, -c0, F.one, F.zero, -c1,
                            F.zero, F.one, -c2))
    raise AssertionError("every cubic has a root")  # unreachable


def test_irreducibility_checks_on_tested_triples():
    """(eigenline test, commutant dimension) on each triple at q = 4, 5, 7.
    The two are parts of one argument, not equivalent oracles: irreducible
    over F with commutant dimension 1 is absolutely irreducible, and either
    can hold without the other."""
    cases = []
    for p, f in [(2, 2), (5, 1), (7, 1)]:
        F = field(p, f)
        cp = search_params(F)
        I = Mat3.identity(F)
        # 1, g, g^2 distinct: order q^2 - 1
        g = F.from_index(F.indices_of_order(F.size - 1)[0])
        zero, one = F.zero, F.one
        diag = Mat3(F, (one, zero, zero, zero, g, zero, zero, zero, g * g))
        unitriangular = Mat3.from_rows(F, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        cases += [
            (build_triple(cp), (True, 1)),
            (GeneratorTriple(cp, I, I, I), (False, 9)),
            # fixes the line of e1, yet only scalars commute with both
            (GeneratorTriple(cp, diag, unitriangular, I), (False, 1)),
            # irreducible over F, with commutant F[C] = GF(q^6)
            (GeneratorTriple(cp, _rootless_cubic_companion(F), I, I),
             (True, 3)),
        ]
    for t, expected in cases:
        assert (invariant_subspace_test(t), commutant_dimension(t)) == expected


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4), (5, 2)])
def test_bounded_chain_matches_full_drain(p, f):
    """Stopping at |PSU3(q)| leaves base, orbit lengths and order unchanged,
    at q = 4 to 25: the chain the shallowest-first drain stops on is the
    complete one."""
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    full = _matrix_chain(act, t.matrices, order_bound=None)
    bounded = _matrix_chain(act, t.matrices, expected_group_order(F.q))
    assert not any(level.pending for level in full.levels)
    assert any(level.pending for level in bounded.levels)  # stopped early
    assert bounded.order() == full.order() == expected_group_order(F.q)
    assert bounded.base == full.base
    assert bounded.orbit_lengths == full.orbit_lengths
    cert = group_order(t, act)
    assert (cert.order, cert.base, cert.orbit_lengths) == \
        (full.order(), full.base, full.orbit_lengths)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4)])
def test_matrix_chain_replays_the_permutation_chain(p, f):
    """Same order, base and orbit lengths, and on every level the same
    orbit, strong generator count and pending pairs, for the generation
    chain (bounded) and the dihedral chain (unbounded)."""
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    for mats, bound in [(t.matrices, expected_group_order(F.q)),
                        ((t.Y, t.Z), None)]:
        perms = [act.permutation(m) for m in mats]
        oracle = _perm_chain(perms, act.degree, bound)
        chain = _matrix_chain(act, mats, bound)
        assert (chain.order(), chain.base, chain.orbit_lengths) == \
            (oracle.order(), oracle.base, oracle.orbit_lengths)
        assert _levels(chain) == _levels(oracle)
        # same Schreier trees: transversals act as the oracle's do
        for level, expected in zip(chain.levels, oracle.levels):
            for i in range(0, len(level.orbit), len(level.orbit) // 16 + 1):
                t = Mat3.from_flat_indices(F, level.T[i].tolist())
                assert np.array_equal(act.permutation(t), expected.transversal(
                    expected.orbit[i]))


@pytest.mark.parametrize("p,f", [(5, 1), (2, 3)])
@pytest.mark.parametrize("batch", [1, 7])
def test_chain_does_not_depend_on_the_batch_size(p, f, batch, monkeypatch):
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    bound = expected_group_order(F.q)
    default = _levels(_matrix_chain(act, t.matrices, bound))
    monkeypatch.setattr(grouporder, "SIFT_BATCH", batch)
    assert _levels(_matrix_chain(act, t.matrices, bound)) == default


@pytest.mark.parametrize("p,f", [(5, 1), (2, 3), (13, 1)])
def test_chain_does_not_depend_on_the_block_size(p, f, monkeypatch):
    """Transversal layers formed 5 or 97 rows at a time give the default
    base, orbit lengths and transversal rows."""
    F = field(p, f)
    act = IsotropicAction(F)
    mats = build_triple(search_params(F)).matrices
    bound = expected_group_order(F.q)
    default = _matrix_chain(act, mats, bound)
    for block in (5, 97):
        monkeypatch.setattr(grouporder, "BLOCK", block)
        chain = _matrix_chain(act, mats, bound)
        assert chain.base == default.base
        assert chain.orbit_lengths == default.orbit_lengths
        for level, expected in zip(chain.levels, default.levels):
            assert np.array_equal(level.T, expected.T)


def test_pending_runs_match_a_deque_of_pairs():
    """_PendingPairs against a plain deque of pairs, driven through the
    same appends and batch takes.  A take reads the first n pairs; the
    first `used` of them are removed and the rest stay at the front, as
    when the deque pops the batch and pushes the unused tail back."""
    runs = grouporder._PendingPairs()
    oracle = deque()
    steps = [
        ("append", 0, 3, 0, 1),    # width 1
        ("append", 0, 0, 0, 2),    # empty: no positions
        ("append", 3, 7, 0, 3),
        ("append", 2, 5, 1, 1),    # empty: no generators
        ("take", 5, 5),            # ends mid-row
        ("take", 4, 1),            # the rest of that row, then one more
        ("take", 7, 3),
        ("append", 7, 9, 1, 4),
        ("append", 9, 10, 2, 3),   # one pair
        ("take", 100, 2),          # more than are pending
        ("take", 3, 3),            # exactly a row
        ("take", 1, 1),
        ("take", 100, 100),
        ("append", 10, 12, 0, 2),
        ("take", 3, 0),            # nothing used
        ("take", 2, 2),            # leaves one whole row
        ("take", 3, 1),
        ("take", 2, 1),
    ]
    for step in steps:
        if step[0] == "append":
            a0, a1, g0, g1 = step[1:]
            stored = len(runs.runs)
            runs.append(a0, a1, g0, g1)
            oracle.extend(product(range(a0, a1), range(g0, g1)))
            if a0 >= a1 or g0 >= g1:
                assert len(runs.runs) == stored
        else:
            n, used = step[1:]
            batch = [oracle.popleft() for _ in range(min(n, len(oracle)))]
            used = min(used, len(batch))
            oracle.extendleft(reversed(batch[used:]))
            a, g = runs.head(n)
            assert a.dtype == g.dtype == np.int64
            assert list(zip(a.tolist(), g.tolist())) == batch
            runs.drop(used)
        assert len(runs) == len(oracle)
        assert list(runs) == list(oracle)
    assert not runs and not runs.runs


def test_generation_chain_memory_is_bounded():
    """The bounded chain at q = 27 stops with about 280 000 Schreier pairs
    pending; held as runs they take a few tuples, where one tuple per pair
    took about 20 MiB more."""
    F = field(3, 3)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    tracemalloc.start()
    try:
        cert = group_order(t, act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.order == expected_group_order(F.q)
    assert peak < 24 * 2 ** 20, peak


@pytest.mark.parametrize("p,f", [(5, 1), (2, 3), (13, 1), (2, 4)])
def test_strong_generators_are_held_once(p, f):
    """Every level's permutations are level 0's arrays, not copies, and
    the orbit, position and transversal arrays are int32."""
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    chain = _matrix_chain(act, t.matrices, expected_group_order(F.q))
    top = chain.levels[0].gens
    for level in chain.levels:
        assert all(any(g is h for h in top) for g in level.gens)
        assert level.orbit.dtype == level.pos.dtype == level.T.dtype \
            == np.int32


@pytest.mark.parametrize("p,f", [(5, 1), (2, 3)])
def test_scalar_generators_install_nothing(p, f):
    """A scalar matrix fixes every point, so it sifts through every level
    at T[0] = I and stays scalar: the centre scalars, and a scalar outside
    SU3(q), leave an empty chain and one holding X unchanged."""
    F = field(p, f)
    act = IsotropicAction(F)
    X = build_triple(search_params(F)).X
    centre = su3_center_scalars(F)
    outside = next(c for c in list(F.elements())[1:] if c not in centre)
    scalars = [Mat3.identity(F).scalar_mul(c) for c in (*centre, outside)]
    for gens in [(), (X,)]:
        chain = _matrix_chain(act, gens)
        before = (_levels(chain), chain.base, chain.orbit_lengths)
        for s in scalars:
            chain.add_generator(s)
            assert (_levels(chain), chain.base, chain.orbit_lengths) == before


def test_generation_chain_peak_at_q37():
    """The traced peak of the q = 37 generation chain (degree 50 654):
    about 15.6 MiB with one array per strong generator's permutation and
    int32 orbits and transversal layers, 17.8 MiB with a copy of every
    permutation per level and int64 ones."""
    F = field(37, 1)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    tracemalloc.start()
    try:
        cert = group_order(t, act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.order == expected_group_order(F.q)
    assert peak < 16.5 * 2 ** 20, peak


def test_generation_chain_peak_at_q64():
    """The traced peak of the q = 64 generation chain (degree 262 145):
    about 39.3 MiB with transversal layers formed BLOCK rows at a time,
    65.6 MiB with one int64 product per layer."""
    F = field(2, 6)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    tracemalloc.start()
    try:
        cert = group_order(t, act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.order == expected_group_order(F.q)
    assert peak < 48 * 2 ** 20, peak


@pytest.mark.parametrize("p,f", [(5, 1), (2, 3), (3, 2)])
def test_batched_images_are_permutation_rows(p, f):
    F = field(p, f)
    act = IsotropicAction(F)
    t = build_triple(search_params(F))
    mats = [t.X, t.Y, t.Z, t.X * t.Y, t.X * t.Y * t.Z]
    stack = np.array([m.flat_indices for m in mats])
    for point in (0, 1, 2, act.degree - 1):
        assert act.images(point, stack).tolist() == \
            [int(act.permutation(m)[point]) for m in mats]


def test_only_special_unitary_triples_get_the_order_bound(monkeypatch):
    """c * X with c^(q+1) = 1, c^3 != 1 acts like X but is not in SU3(q):
    group_order refuses it before any chain is built, and gives an SU3
    triple the bound |PSU3(q)|."""
    F = field(5, 1)
    cp = search_params(F)
    t = build_triple(cp)
    c = next(x for x in list(F.elements())[1:]
             if x ** (F.q + 1) == F.one and x ** 3 != F.one)
    scaled = GeneratorTriple(cp, t.X.scalar_mul(c), t.Y, t.Z)
    assert not is_special_unitary(scaled.X)
    bounds = []
    certify = grouporder.permutation_order_certificate

    def spy(action, matrices, order_bound):
        bounds.append(order_bound)
        return certify(action, matrices, order_bound)
    monkeypatch.setattr(grouporder, "permutation_order_certificate", spy)
    act = IsotropicAction(F)
    with pytest.raises(ConnectionSetError, match="X is not in SU3"):
        group_order(scaled, act)
    assert bounds == []
    assert group_order(t, act).order == expected_group_order(F.q)
    assert bounds == [expected_group_order(F.q)]


def test_chain_raises_when_the_bound_is_too_small():
    cyc = np.array([1, 2, 3, 4, 0], dtype=np.int32)
    swap = np.array([1, 0, 2, 3, 4], dtype=np.int32)
    with pytest.raises(OrderBoundExceeded):
        _perm_chain([cyc, swap], 5, order_bound=119)
    F = field(5, 1)
    act = IsotropicAction(F)
    with pytest.raises(OrderBoundExceeded):
        _matrix_chain(act, build_triple(search_params(F)).matrices,
                      expected_group_order(F.q) - 1)


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
    cert = group_order(build_triple(cp._replace(b=nb)))
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
