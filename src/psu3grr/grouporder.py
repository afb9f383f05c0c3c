"""Generation and irreducibility certificates for the generator triples.

Generation is certified unconditionally: the triple acts on the q^3 + 1
isotropic points of the Hermitian form (the kernel of that action is the
center of SU3(q), so the permutation image is the subgroup of PSU3(q) the
projected triple generates), and a deterministic Schreier-Sims stabilizer
chain gives the exact order of that image.  Comparing against
|PSU3(q)| = q^3 (q^3+1) (q^2-1) / gcd(3, q+1) settles generation.

The chain stops early once its order reaches |PSU3(q)| (see
StabilizerChain for why the result is then the same as a full run).
group_order uses |PSU3(q)| as that bound only after checking itself that
X, Y and Z are in SU3(q) for the form of the action, so that the image is
known to lie in PSU3(q); a triple that fails the check gets no bound.  A
triple that generates a proper subgroup never reaches the bound, so its
chain runs to the end and the subgroup order it reports is exact.

Irreducibility is certified two independent ways: an invariant-line search
via eigenspace intersections (covering invariant planes through transposes)
and the dimension of the simultaneous commutant, which is 1 exactly for
absolutely irreducible triples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

import numpy as np

from .construct import GeneratorTriple
from .gf import Field, FieldElem
from .linalg import nullspace
from .mat3 import (HermitianForm, Mat3, is_special_unitary,
                   standard_hermitian_form)


class DegenerateActionError(RuntimeError):
    """A supposed generator acts trivially on the isotropic points."""


class OrderBoundExceeded(RuntimeError):
    """A stabilizer chain grew past the order bound it was given."""


def expected_group_order(q: int) -> int:
    return q ** 3 * (q ** 3 + 1) * (q ** 2 - 1) // gcd(3, q + 1)


# ---------------------------------------------------------------------------
# Isotropic points and the permutation action on them
# ---------------------------------------------------------------------------

def isotropic_points(field: Field, form: HermitianForm | None = None):
    """All projective points [v] with conj(v)^T . W . v = 0.

    Representatives are normalized (first nonzero coordinate = 1) and the
    list is sorted by representative in field enumeration order.  The count
    is always q^3 + 1.
    """
    action = IsotropicAction(field, form)
    return [tuple(FieldElem(field, int(i)) for i in row)
            for row in action.point_matrix]


class IsotropicAction:
    """Vectorised right action of matrices on the isotropic point set.

    Points are row vectors v acted on by v -> v * M, then renormalised.
    Coordinates are field index arrays, combined with the field's numpy
    kernels (add_np, mul_np, inv_np, powq_np), so any field works.
    """

    def __init__(self, field: Field, form: HermitianForm | None = None):
        self.field = field
        self.form = form or standard_hermitian_form(field)
        self.point_matrix = self._enumerate_points()
        self.degree = len(self.point_matrix)
        if self.degree != field.q ** 3 + 1:
            raise AssertionError(
                f"isotropic point count {self.degree} != q^3+1")
        size = field.size
        self._keys = (self.point_matrix[:, 0].astype(np.int64) * size
                      + self.point_matrix[:, 1]) * size + self.point_matrix[:, 2]
        self._dtype = np.int16 if self.degree <= 30000 else np.int32
        self.identity = np.arange(self.degree, dtype=self._dtype)

    def _form_values(self, v0, v1, v2):
        """conj(v)^T W v for vectors given as coordinate index arrays."""
        fld = self.field
        add, mul = fld.add_np, fld.mul_np
        w = self.form.matrix.flat_indices
        coords = (v0, v1, v2)
        acc = np.zeros_like(v0)
        for i in range(3):
            ci = fld.powq_np(coords[i])
            for j in range(3):
                wij = w[3 * i + j]
                if wij:
                    acc = add(acc, mul(mul(ci, wij), coords[j]))
        return acc

    def _enumerate_points(self):
        fld = self.field
        size = fld.size
        one = fld.one.index
        rows = []
        # [0, 0, 1]
        z = np.zeros(1, dtype=np.int32)
        if self._form_values(z, z, z + one)[0] == 0:
            rows.append(np.array([[0, 0, one]], dtype=np.int32))
        # [0, 1, x]
        x = np.arange(size, dtype=np.int32)
        zeros = np.zeros(size, dtype=np.int32)
        ones = np.full(size, one, dtype=np.int32)
        mask = self._form_values(zeros, ones, x) == 0
        if mask.any():
            sel = x[mask]
            rows.append(np.stack([np.zeros_like(sel), np.full_like(sel, one), sel], axis=1))
        # [1, x, y]
        xx = np.repeat(x, size)
        yy = np.tile(x, size)
        ones2 = np.full(size * size, one, dtype=np.int32)
        mask = self._form_values(ones2, xx, yy) == 0
        sel_x, sel_y = xx[mask], yy[mask]
        rows.append(np.stack([np.full_like(sel_x, one), sel_x, sel_y], axis=1))
        pts = np.concatenate(rows, axis=0)
        size64 = np.int64(size)
        keys = (pts[:, 0].astype(np.int64) * size64 + pts[:, 1]) * size64 + pts[:, 2]
        return pts[np.argsort(keys, kind="stable")]

    def permutation(self, mat: Mat3) -> np.ndarray:
        """Permutation array of the point indices under v -> v * M."""
        fld = self.field
        add, mul = fld.add_np, fld.mul_np
        m = mat.flat_indices
        p0 = self.point_matrix[:, 0]
        p1 = self.point_matrix[:, 1]
        p2 = self.point_matrix[:, 2]
        w0, w1, w2 = (add(add(mul(p0, m[j]), mul(p1, m[3 + j])),
                          mul(p2, m[6 + j])) for j in range(3))
        lead = np.where(w0 != 0, w0, np.where(w1 != 0, w1, w2))
        if not lead.all():
            raise ValueError("matrix maps a point representative to zero")
        s = fld.inv_np(lead)
        u0, u1, u2 = mul(w0, s), mul(w1, s), mul(w2, s)
        size = fld.size
        keys = (u0 * size + u1) * size + u2
        pos = np.searchsorted(self._keys, keys)
        if (pos >= len(self._keys)).any() or \
                not np.array_equal(self._keys[pos], keys):
            raise ValueError(
                "matrix does not preserve the isotropic point set (is it "
                "unitary for this form?)")
        return pos.astype(self._dtype)


# ---------------------------------------------------------------------------
# Deterministic Schreier-Sims
# ---------------------------------------------------------------------------

def _compose(a, b):
    # x^(a then b) = b[a[x]]; permutations as image arrays (take is the
    # cheaper gather for it)
    return b.take(a)


class _Level:
    __slots__ = ("beta", "gens", "orbit", "pos", "parent",
                 "trans", "trans_inv", "pending", "cache_cap")

    def __init__(self, beta: int, identity, cache_cap: int):
        self.beta = beta
        self.cache_cap = cache_cap  # max memoised transversals per direction
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

    def transversal(self, c: int):
        """u with beta^u = c, walking the Schreier tree path.

        Points near the tree root fill the memo first (path compression),
        so a finite cache_cap keeps the hottest entries.
        """
        t = self.trans.get(c)
        if t is not None:
            return t
        path = []
        x = c
        while x not in self.trans:
            path.append(x)
            x = self.parent[x][0]
        u = self.trans[x]
        for y in reversed(path):
            u = _compose(u, self.gens[self.parent[y][1]])
            if len(self.trans) < self.cache_cap:
                self.trans[y] = u
        return u

    def transversal_inv(self, c: int):
        t = self.trans_inv.get(c)
        if t is None:
            u = self.transversal(c)
            t = np.empty_like(u)
            t[u] = np.arange(len(u), dtype=u.dtype)
            if len(self.trans_inv) < self.cache_cap:
                self.trans_inv[c] = t
        return t


class StabilizerChain:
    """Incremental deterministic Schreier-Sims on permutation arrays.

    Level l stores the full strong generating set S_l of the l-th chain
    subgroup H_l = <S_l>, so S_0 contains (residues of) all input
    generators and S_0 >= S_1 >= ... as sets: a strong generator that fixes
    the first j base points is appended to every level 0..j.  Base points
    are chosen greedily as the first moved point; all iteration orders are
    fixed, so two runs over the same generators agree exactly.

    Soundness.  Each basic orbit beta_l^(H_l) is closed under S_l, and
    H_(l+1) fixes beta_l, so H_(l+1) <= Stab_(H_l)(beta_l) and the product
    of the basic orbit lengths is a lower bound on |H_0| at every step;
    H_0 lies inside the group the inputs generate.  Without an order_bound
    every Schreier generator of every level is sifted to the identity
    before the chain reports an order, which makes the product exact.
    With an order_bound, a proven upper bound on the order of the group
    the inputs generate, the chain stops as soon as the product reaches
    it (known-order Schreier-Sims, Seress, Permutation Group Algorithms,
    2003, Sect. 4.5): then lower bound = upper bound, every inclusion
    above is an equality, the chain is already a complete base and strong
    generating set, and every Schreier generator left pending would sift
    to the identity.  Base, orbit lengths and order are therefore the same
    as after the full drain.  A group smaller than the bound never reaches
    it, so its chain drains completely and its order stays exact.  A
    product above the bound proves the bound wrong and raises
    OrderBoundExceeded.
    """

    # full per-point transversal memos below this degree; above it each
    # level keeps at most CACHE_CAP_LARGE entries per direction, bounding
    # memory at roughly 4 * cap * degree bytes per level
    CACHE_DEGREE_LIMIT = 6000
    CACHE_CAP_LARGE = 2048

    def __init__(self, degree: int, dtype=np.int32,
                 order_bound: int | None = None):
        self.degree = degree
        self.order_bound = order_bound
        self.identity = np.arange(degree, dtype=dtype)
        self.cache_cap = (degree + 1 if degree <= self.CACHE_DEGREE_LIMIT
                          else self.CACHE_CAP_LARGE)
        self.levels: list[_Level] = []

    def add_generator(self, perm: np.ndarray):
        perm = np.asarray(perm, dtype=self.identity.dtype)
        if np.array_equal(perm, self.identity):
            return
        residue, lvl = self._sift(perm, 0)
        if not np.array_equal(residue, self.identity) \
                and not self._extend(residue, lvl):
            self._drain()

    def contains(self, perm: np.ndarray) -> bool:
        residue, _ = self._sift(np.asarray(perm, dtype=self.identity.dtype), 0)
        return np.array_equal(residue, self.identity)

    def _sift(self, g, start: int):
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

    def _extend(self, g, lvl: int) -> bool:
        """Install g, which fixes the first lvl base points, at levels 0..lvl.

        Returns True once the order has reached order_bound.  Only an
        install changes the order, so this is the one place to check it.
        """
        if lvl == len(self.levels):
            beta = int(np.flatnonzero(g != self.identity)[0])
            self.levels.append(_Level(beta, self.identity, self.cache_cap))
        for li in range(lvl + 1):
            self.levels[li].add_gen(g)
        if self.order_bound is None:
            return False
        order = self.order()
        if order > self.order_bound:
            raise OrderBoundExceeded(
                f"chain order {order} exceeds the proven bound "
                f"{self.order_bound}")
        return order == self.order_bound

    def _drain(self):
        """Process pending Schreier pairs, deepest level first, until none
        is left or the order reaches order_bound."""
        while True:
            lvl = None
            for li in range(len(self.levels) - 1, -1, -1):
                if self.levels[li].pending:
                    lvl = li
                    break
            if lvl is None:
                return
            level = self.levels[lvl]
            a_pos, gi = level.pending.popleft()
            a = level.orbit[a_pos]
            h = level.gens[gi]
            w = _compose(level.transversal(a), h)
            residue, l2 = self._sift(w, lvl)
            if not np.array_equal(residue, self.identity) \
                    and self._extend(residue, l2):
                return

    def order(self) -> int:
        out = 1
        for level in self.levels:
            out *= len(level.orbit)
        return out

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.beta for level in self.levels)

    @property
    def orbit_lengths(self) -> tuple[int, ...]:
        return tuple(len(level.orbit) for level in self.levels)


@dataclass(frozen=True)
class PermGroupCertificate:
    degree: int
    order: int
    base: tuple[int, ...]
    orbit_lengths: tuple[int, ...]

    def as_dict(self, expected_order: int | None = None):
        out = {
            "degree": self.degree,
            "order": self.order,
            "base": list(self.base),
            "orbit_lengths": list(self.orbit_lengths),
        }
        if expected_order is not None:
            out["expected_order"] = expected_order
        return out


def permutation_order_certificate(perms, degree: int,
                                  order_bound: int | None = None
                                  ) -> PermGroupCertificate:
    chain = StabilizerChain(degree, dtype=perms[0].dtype,
                            order_bound=order_bound)
    for p in perms:
        chain.add_generator(p)
    return PermGroupCertificate(degree, chain.order(), chain.base,
                                chain.orbit_lengths)


def group_order(t: GeneratorTriple,
                action: IsotropicAction | None = None) -> PermGroupCertificate:
    """Exact order of the permutation image of <X, Y, Z> on isotropic points.

    When X, Y and Z are in SU3 for the action's form, the image lies in
    PSU3(q) and the chain stops once it reaches |PSU3(q)|; otherwise it
    gets no bound and drains completely.
    """
    action = action or IsotropicAction(t.field)
    perms = [action.permutation(m) for m in t.matrices]
    for name, p in zip("XYZ", perms):
        if np.array_equal(p, action.identity):
            raise DegenerateActionError(f"generator {name} acts trivially")
    bound = None
    if all(is_special_unitary(m, action.form) for m in t.matrices):
        bound = expected_group_order(t.field.q)
    return permutation_order_certificate(perms, action.degree, bound)


def dihedral_image_order(t: GeneratorTriple,
                         action: IsotropicAction | None = None) -> int:
    """Order of the permutation image of <Y, Z> (dihedral for valid triples)."""
    action = action or IsotropicAction(t.field)
    perms = [action.permutation(m) for m in (t.Y, t.Z)]
    return permutation_order_certificate(perms, action.degree).order


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------

def _eigenvalues(m: Mat3) -> list[FieldElem]:
    """Roots of the characteristic polynomial of m, in index order.

    A Horner evaluation at every field element, in index arithmetic.
    """
    fld = m.field
    add, mul = fld.add_index, fld.mul_index
    c2, c1, c0 = (c.index for c in m.char_poly().as_tuple())
    return [FieldElem(fld, x) for x in range(fld.size)
            if add(mul(add(mul(add(x, c2), x), c1), x), c0) == 0]


def _minus_lambda(m: Mat3, lam: FieldElem) -> list[list[int]]:
    """The rows of M - lam * I, as element indices."""
    fld = m.field
    neg_lam = fld.neg_index(lam.index)
    e = m.flat_indices
    return [[fld.add_index(e[3 * i + j], neg_lam) if i == j else e[3 * i + j]
             for j in range(3)] for i in range(3)]


def _has_common_eigenline(mats, eigenvalues) -> bool:
    """Is there one line fixed (as a column eigenline) by all three matrices?

    Any common invariant line is a simultaneous eigenline, so it shows up as
    a nonzero intersection null(A - l1) & null(B - l2) & null(C - l3) for
    some eigenvalue triple; conversely any such nonzero vector spans a
    common invariant line.  eigenvalues[i] lists those of mats[i].
    """
    field = mats[0].field
    a, b, c = mats
    eig_a, eig_b, eig_c = eigenvalues
    for la in eig_a:
        rows_a = _minus_lambda(a, la)
        for lb in eig_b:
            rows_ab = rows_a + _minus_lambda(b, lb)
            if not nullspace(rows_ab, 3, field):
                continue
            for lc in eig_c:
                rows = rows_ab + _minus_lambda(c, lc)
                if nullspace(rows, 3, field):
                    return True
    return False


def invariant_subspace_test(t: GeneratorTriple) -> bool:
    """True iff the triple fixes no line and no plane of GF(q^2)^3.

    A common invariant plane for the triple is a common invariant line for
    the transposes, so both cases reduce to the eigenline search.  A matrix
    and its transpose have the same characteristic polynomial, so the
    eigenvalues are found once, by three scans of the field.
    """
    mats = list(t.matrices)
    eigenvalues = [_eigenvalues(m) for m in mats]
    transposed = [m.transpose() for m in mats]
    return not (_has_common_eigenline(transposed, eigenvalues)
                or _has_common_eigenline(mats, eigenvalues))


def commutant_dimension(t: GeneratorTriple) -> int:
    """Dimension of {D : DX = XD, DY = YD, DZ = ZD} over GF(q^2).

    Equals 1 exactly when the triple is absolutely irreducible; the identity
    triple gives 9, a single diagonal with distinct entries gives 3.
    """
    return commutant_dimension_of(list(t.matrices), t.field)


def commutant_dimension_of(mats, field: Field) -> int:
    add, neg = field.add_index, field.neg_index
    rows = []
    for m in mats:
        e = m.flat_indices
        for i in range(3):
            for j in range(3):
                row = [0] * 9
                for k in range(3):
                    # (DM)_{ij}: coeff of D_{ik} is M_{kj}
                    row[3 * i + k] = add(row[3 * i + k], e[3 * k + j])
                    # (MD)_{ij}: coeff of D_{kj} is M_{ik}
                    row[3 * k + j] = add(row[3 * k + j], neg(e[3 * i + k]))
                rows.append(row)
    return len(nullspace(rows, 9, field))
