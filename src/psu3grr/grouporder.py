"""Generation and irreducibility certificates for the generator triples.

Generation is certified unconditionally: the triple acts on the q^3 + 1
isotropic points of the Hermitian form (the kernel of that action is the
center of SU3(q), so the permutation image is the subgroup of PSU3(q) the
projected triple generates), and a deterministic Schreier-Sims stabilizer
chain gives the exact order of that image.  Comparing against
|PSU3(q)| = q^3 (q^3+1) (q^2-1) / gcd(3, q+1) settles generation.

The chain works on matrix elements (Murray and O'Brien, "Selecting base
points for the Schreier-Sims algorithm for matrix groups", J. Symb.
Comput. 1995; Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, Sect. 4.4).  Schreier generators, transversals and residues
are 3x3 matrices, nine field indices each, so a product costs 27 field
multiplications whatever the degree, and a base image is one
vector-times-matrix product and a few table gathers.  Only the strong
generators are also held as permutations of the points, one array each,
shared by every level the generator is on, to grow the basic orbits.
The chain replays the Schreier-Sims chain of the permutation image step
for step, so its base, orbit lengths and order are those of the image
(see StabilizerChain for why).

The chain stops early once its order reaches |PSU3(q)| (see
StabilizerChain for why the result is then the same as a full run).
group_order uses |PSU3(q)| as that bound only after
construct.check_connection_set has put X, Y and Z in SU3(q), so that the
image is known to lie in PSU3(q); a triple that fails the check is
refused.  A triple that generates a proper subgroup never reaches the
bound, so its chain runs to the end and the subgroup order it reports is
exact.

Absolute irreducibility is certified in two parts of one argument.  The
eigenline test (invariant_subspace_test) proves that the triple fixes no
line and no plane of GF(q^2)^3, so it is irreducible over F = GF(q^2).
The commutant of an irreducible module is a finite division algebra, so
a field (Wedderburn), and commutant_dimension = 1 means that field is F,
which makes the triple absolutely irreducible.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import gcd, prod
from typing import NamedTuple

import numpy as np

from .construct import GeneratorTriple, check_connection_set
from .gf import BLOCK, Field, FieldElem
from .linalg import nullspace, rref_np
from .mat3 import (Mat3, adjugate_np, intertwiner_np, matmul_np,
                   projective_order, vecmat_np)

# Schreier pairs that _drain sifts together against one chain
SIFT_BATCH = 512


class OrderBoundExceeded(RuntimeError):
    """A stabilizer chain grew past the order bound it was given."""


def expected_group_order(q: int) -> int:
    return q ** 3 * (q ** 3 + 1) * (q ** 2 - 1) // gcd(3, q + 1)


# ---------------------------------------------------------------------------
# Isotropic points and the permutation action on them
# ---------------------------------------------------------------------------

class IsotropicAction:
    """Vectorised right action of matrices on the isotropic point set.

    Points are row vectors v acted on by v -> v * M, then renormalised.
    Coordinates are field index arrays, combined with the field's numpy
    kernels (add_np, mul_np, inv_np, powq_np), so any field works.  The
    form is always standard_hermitian_form.  point_matrix holds the q^3 + 1
    points as rows of three field indices: normalized (first nonzero
    coordinate 1) and sorted by representative in enumeration order.
    Images are located by table gathers, not by search: the row order
    puts [1, x, y] at index 1 + x q + rank[y] (see _locate).
    """

    def __init__(self, field: Field):
        self.field = field
        self.point_matrix = self._enumerate_points()
        self.degree = len(self.point_matrix)
        if self.degree != field.q ** 3 + 1:
            raise AssertionError(
                f"isotropic point count {self.degree} != q^3+1")
        # int16 keeps cayley._bfs's table, frontier and children small: in
        # int32, a q = 7 `certify --stage graph` child peaked at 213.0 MB,
        # not 181.6 MB (2-vCPU Xeon VM), with the same edges
        self._dtype = np.int16 if self.degree <= 30000 else np.int32
        self.identity = np.arange(self.degree, dtype=self._dtype)

    def _enumerate_points(self):
        """[0, 0, 1], then every [1, x, y] with y + y^q = -x^(q+1), sorted.

        Under the anti-diagonal form, conj(v)^T W v is
        v0^q v2 + v1^(q+1) + v2^q v0: 0 at [0, 0, 1], 1 at every [0, 1, x],
        and x^(q+1) + y + y^q at [1, x, y].  The trace y -> y + y^q maps
        GF(q^2) onto GF(q) with q elements in each fibre, so each x has
        exactly q solutions y, the fibre over -x^(q+1).  Sorting y by trace
        once reads them all off in O(q^3).  The rows come out sorted:
        x ascends, and the stable sort keeps each fibre in index order, so
        [1, x, y] is point 1 + x q + rank[y], with rank[y] the place of y
        in its fibre.  trace, minus_norm and rank are kept for _locate.
        """
        fld = self.field
        q, one = fld.q, fld.one.index
        x = np.arange(fld.size, dtype=np.int64)
        conj = fld.powq_np(x)
        trace = fld.add_np(x, conj)
        by_trace = np.argsort(trace, kind="stable")
        sorted_trace = trace[by_trace]
        minus_norm = fld.mul_np(fld.mul_np(x, conj),
                                fld.neg_index(one))
        first = np.searchsorted(sorted_trace, minus_norm)
        rank = np.empty_like(x)
        rank[by_trace] = x - np.searchsorted(sorted_trace, sorted_trace)
        self._trace, self._minus_norm, self._rank = trace, minus_norm, rank
        pts = np.empty((fld.size * q + 1, 3), dtype=np.int32)
        pts[0] = (0, 0, one)
        pts[1:, 0] = one
        pts[1:, 1] = np.repeat(x, q)
        pts[1:, 2] = by_trace[first[:, None] + np.arange(q)].ravel()
        return pts

    def _locate(self, w):
        """Point indices of the projective points [w] for rows w (N, 3).

        A row [a, b, c] with a != 0 is the point [1, x, y], x = b/a and
        y = c/a, which is isotropic exactly when trace[y] == minus_norm[x]
        and then has index 1 + x q + rank[y]: a few table gathers, no
        search.  A row with a = 0 is isotropic only as [0, 0, c], the
        point 0, since [0, b, c] with b != 0 has form value b^(q+1).
        """
        fld = self.field
        lead = w[:, 0]
        inv = fld.inv_np(lead)
        x, y = fld.mul_np(w[:, 1], inv), fld.mul_np(w[:, 2], inv)
        isotropic = self._trace.take(y) == self._minus_norm.take(x)
        pos = x * fld.q + self._rank.take(y) + 1
        if not lead.all():
            off = (lead == 0).nonzero()[0]
            if not w[off].any(axis=1).all():
                raise ValueError("matrix maps a point representative to zero")
            isotropic[off] = w[off, 1] == 0
            pos[off] = 0
        if not isotropic.all():
            raise ValueError(
                "matrix does not preserve the isotropic point set (is it "
                "unitary for this form?)")
        return pos

    def permutation(self, mat: Mat3) -> np.ndarray:
        """Permutation array of the point indices under v -> v * M,
        computed BLOCK points at a time (every q <= 25 in one block)."""
        m = np.array(mat.flat_indices, dtype=np.int64).reshape(3, 3)
        perm = np.empty(self.degree, dtype=self._dtype)
        for lo in range(0, self.degree, BLOCK):
            block = self.point_matrix[lo:lo + BLOCK]
            perm[lo:lo + BLOCK] = self._locate(
                vecmat_np(self.field, block, m))
        return perm

    def images(self, point: int, mats) -> np.ndarray:
        """Indices of the images of one point under each of the stacked
        matrices mats, a (K, 9) index array."""
        return self._locate(vecmat_np(self.field, self.point_matrix[point],
                                      mats.reshape(-1, 3, 3)))


# ---------------------------------------------------------------------------
# Deterministic Schreier-Sims on matrix elements
# ---------------------------------------------------------------------------

_DIAGONAL = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=np.int64)


def _is_scalar(rows):
    """Which of the stacked matrices rows (K, 9) are scalar."""
    return (rows == rows[:, :1] * _DIAGONAL).all(axis=1)


class _PendingPairs:
    """A level's pending Schreier pairs (orbit position, generator index).

    The pairs are held in order as runs [a0, g0, width, lo, hi]: pair i
    of a run, for lo <= i < hi, is (a0 + i // width, g0 + i % width),
    position-major.  add_gen appends one run per new generator and _grow
    one per orbit layer, so a level stores a few lists however many pairs
    wait on it; removing pairs advances lo.  len() counts pairs and
    iteration yields them in order, as a deque of pairs would.
    """

    __slots__ = ("runs", "count")

    def __init__(self):
        self.runs = deque()
        self.count = 0

    def __len__(self):
        return self.count

    def __iter__(self):
        for a0, g0, width, lo, hi in self.runs:
            for i in range(lo, hi):
                yield a0 + i // width, g0 + i % width

    def append(self, a0: int, a1: int, g0: int, g1: int):
        """Queue product(range(a0, a1), range(g0, g1))."""
        if a0 < a1 and g0 < g1:
            size = (a1 - a0) * (g1 - g0)
            self.runs.append([a0, g0, g1 - g0, 0, size])
            self.count += size

    def head(self, n: int):
        """The first min(n, len(self)) pairs, which must be at least one,
        as int64 arrays of positions and of generator indices.  Nothing
        is removed."""
        a_parts, g_parts = [], []
        for a0, g0, width, lo, hi in self.runs:
            if n <= 0:
                break
            k = min(n, hi - lo)
            row, col = np.divmod(np.arange(lo, lo + k, dtype=np.int64), width)
            a_parts.append(row + a0)
            g_parts.append(col + g0)
            n -= k
        return np.concatenate(a_parts), np.concatenate(g_parts)

    def drop(self, n: int):
        """Remove the first n pairs, popping each run they use up."""
        self.count -= n
        runs = self.runs
        while n:
            run = runs[0]
            k = min(n, run[4] - run[3])
            run[3] += k
            n -= k
            if run[3] == run[4]:
                runs.popleft()


class _Level:
    __slots__ = ("beta", "gens", "mats", "orbit", "pos", "T", "pending")

    def __init__(self, beta: int, action: IsotropicAction):
        # T, orbit and pos hold field indices, points and orbit positions,
        # all below 2^31; the numpy kernels take any integer index array
        ident = np.array(Mat3.identity(action.field).flat_indices,
                         dtype=np.int32)[None]
        self.beta = beta
        self.gens = []      # the strong generators' permutations, shared
        self.mats = np.empty((0, 9), dtype=np.int64)
        self.orbit = np.array([beta], dtype=np.int32)
        self.pos = np.full(action.degree, -1, dtype=np.int32)
        self.pos[beta] = 0
        self.T = ident      # T[i] maps beta to orbit[i] (Schreier tree path)
        self.pending = _PendingPairs()

    def add_gen(self, perm, mat, field: Field):
        gi = len(self.gens)
        self.gens.append(perm)
        self.mats = np.concatenate((self.mats, mat[None]))
        self.pending.append(0, len(self.orbit), gi, gi + 1)
        self._grow(field)

    def _grow(self, field: Field):
        """Close the orbit under the generators, in the order of a scan.

        A scan visits the orbit in order and appends, for each point a and
        each generator g in turn, a^g if it is new.  The old points are
        closed under the old generators, so the first layer comes from the
        new generator on the old orbit; each later layer comes from the
        layer before under every generator, point by point.  First
        occurrences keep the scan's order and its Schreier-tree parents.
        A first pass closes the orbit on points alone; then orbit and T are
        allocated at their final length, and each layer's transversals, its
        parents' times one generator, are formed BLOCK rows at a time
        straight into T.
        """
        ng = len(self.gens)
        # images run point by point over the last `width` generators; the
        # first layer's are distinct, one permutation of distinct points
        images, width = self.gens[-1][self.orbit], 1
        start = n = len(self.orbit)
        prev = 0    # orbit position of the layer the images come from
        grown = []  # per layer: points, parent positions, generator indices
        while True:
            fresh = (self.pos[images] < 0).nonzero()[0].astype(np.int32)
            if not len(fresh):
                break
            if width > 1 and len(fresh) > 1:
                _, first = np.unique(images[fresh], return_index=True)
                fresh = fresh[np.sort(first)]
            new = images[fresh]
            parent, gen = np.divmod(fresh, width)
            grown.append((new, parent + prev, gen + (ng - width)))
            self.pos[new] = np.arange(n, n + len(new), dtype=np.int32)
            self.pending.append(n, n + len(new), 0, ng)
            prev, n = n, n + len(new)
            images = np.stack([g.take(new) for g in self.gens], axis=1)
            images, width = images.ravel(), ng
        if not grown:
            return
        orbit = np.empty(n, dtype=np.int32)
        T = np.empty((n, 9), dtype=np.int32)
        orbit[:start], T[:start] = self.orbit, self.T
        for new, parent, gen in grown:
            orbit[start:start + len(new)] = new
            rows = T[start:start + len(new)]
            for lo in range(0, len(new), BLOCK):
                rows[lo:lo + BLOCK] = matmul_np(
                    field, T[parent[lo:lo + BLOCK]],
                    self.mats[gen[lo:lo + BLOCK]])
            start += len(new)
        self.orbit, self.T = orbit, T


class StabilizerChain:
    """Incremental deterministic Schreier-Sims on matrix elements.

    Level l stores the full strong generating set S_l of the l-th chain
    subgroup H_l = <S_l>, so S_0 contains (residues of) all input
    generators and S_0 >= S_1 >= ... as sets: a strong generator that fixes
    the first j base points is appended to every level 0..j.  Base points
    are chosen greedily as the first moved point; all iteration orders are
    fixed, so two runs over the same generators agree exactly.

    Matrices and their permutations.  Every element is a 3x3 matrix,
    (9,) field indices.  A strong generator is also stored as its
    permutation of the points (IsotropicAction.permutation), which grows
    the basic orbits; every level the generator is on holds that one
    array.  Each level keeps, per orbit position i, the Schreier-tree
    transversal T[i] (beta^T[i] = orbit[i]), int32, which _grow forms
    layer by layer, BLOCK rows per product; a sift computes adj(T[i]) for
    the rows of its batch only.  The map from matrices to point
    permutations is a homomorphism, so every base image the chain
    computes is the one the Schreier-Sims chain of the permutation image
    computes, and so are the orbits, the Schreier trees and the pending
    Schreier pairs.  Its kernel is the scalar matrices.  The isotropic
    points contain a projective frame: [0, 0, 1], [1, 0, 0], [1, x, y]
    and [1, x', y'] with x, x' nonzero and distinct and x y' != x' y (each
    x has q solutions y, at most one of them excluded), and a matrix that
    fixes the four points of a frame is scalar.  So a residue is the
    identity permutation exactly when it is a scalar matrix, whether or
    not the inputs lie in SU3(q), and scalar factors never matter; that is
    why adj(T) = det(T) T^-1 can stand for the inverse of T.

    Batched sifts.  Each level keeps its pending pairs as runs of (orbit
    position, generator index), in the order a sequential drain would
    visit them (_PendingPairs).  _drain reads the first SIFT_BATCH pending
    pairs (a, g) of the shallowest level l that has any as two index
    arrays and sifts the products T[a] g from level l on, level by level,
    as numpy arrays: level l's own step finds c = orbit[a]^g, which is in
    the orbit, and leaves the Schreier generator T[a] g adj(T[c]).  The
    first pair, in pending order, whose residue is not scalar is installed
    exactly as a sequential drain would install it; it and the pairs
    before it are removed, and the pairs after it stay at the front, in
    order.  Every pair before it sifted to a scalar, which a sequential
    drain consumes without changing anything, so pending order, parents,
    base, orbit lengths and the stop below are those of the sequential
    drain, whatever the batch size.

    Drain order.  _drain takes the shallowest level that has pending
    pairs.  Level 0's Schreier generators are what make the deeper levels
    grow, so under an order_bound the orbit product reaches the bound
    after a few thousand pairs; taking the deepest level first sifted
    nearly every level-1 pair before the stop (the q = 59 order stage:
    825 635 pairs against 3 539).  Neither argument below depends on the
    order.  The lower bound holds after every install.  A full drain
    still ends on a complete chain: each install queues every Schreier
    pair of its new generator and its new orbit points; a Schreier
    generator that sifted to a scalar is, up to a scalar, a product of
    transversals of the levels below, so it stays in the next chain
    subgroup as that grows; and the drain ends only when no level has a
    pair left.  So every Schreier generator of H_l lies in H_(l+1), which
    by Schreier's lemma makes H_(l+1) the full stabilizer of beta_l.

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

    def __init__(self, action: IsotropicAction, order_bound: int | None):
        self.action = action
        self.field = action.field
        self.order_bound = order_bound
        self.levels: list[_Level] = []

    def add_generator(self, mat: Mat3):
        # a scalar mat fixes every base point and sifts to a scalar
        row = np.array(mat.flat_indices, dtype=np.int64)[None]
        failure = self._sift(row, 0)
        if failure is not None and not self._extend(*failure[1:]):
            self._drain()

    def _sift(self, rows, start: int):
        """Sift the stacked matrices rows (K, 9) from level start on.

        Returns (k, residue, level) for the first row k whose residue is
        not scalar, where level is the one it stopped at (len(levels) if
        it fixes the whole base), or None if every row sifts to a scalar.
        Rows after a known failure are dropped, since the caller discards
        them.
        """
        failure = None
        for li in range(start, len(self.levels)):
            level = self.levels[li]
            at = level.pos[self.action.images(level.beta, rows)]
            outside = at < 0
            if outside.any():
                k = int(outside.argmax())
                failure = (k, rows[k], li)
                if not k:
                    return failure
                rows, at = rows[:k], at[:k]
            # a fixed beta has at = 0, and T[0] is the identity
            rows = matmul_np(self.field, rows,
                             adjugate_np(self.field, level.T[at]))
        scalar = _is_scalar(rows)
        if not scalar.all():
            k = int(scalar.argmin())
            failure = (k, rows[k], len(self.levels))
        return failure

    def _extend(self, residue, lvl: int) -> bool:
        """Install residue, which fixes the first lvl base points, at
        levels 0..lvl.

        Returns True once the order has reached order_bound.  Only an
        install changes the order, so this is the one place to check it.
        """
        perm = self.action.permutation(
            Mat3.from_flat_indices(self.field, residue.tolist()))
        if lvl == len(self.levels):
            beta = int(np.flatnonzero(perm != self.action.identity)[0])
            self.levels.append(_Level(beta, self.action))
        for li in range(lvl + 1):
            self.levels[li].add_gen(perm, residue, self.field)
        if self.order_bound is None:
            return False
        order = self.order()
        if order > self.order_bound:
            raise OrderBoundExceeded(
                f"chain order {order} exceeds the proven bound "
                f"{self.order_bound}")
        return order == self.order_bound

    def _drain(self):
        """Process pending Schreier pairs, shallowest level first, until
        none is left or the order reaches order_bound."""
        while True:
            lvl = next((li for li, level in enumerate(self.levels)
                        if level.pending), None)
            if lvl is None:
                return
            level = self.levels[lvl]
            a, gi = level.pending.head(SIFT_BATCH)
            # level lvl never fails: c = orbit[a]^g is in the orbit
            rows = matmul_np(self.field, level.T[a], level.mats[gi])
            failure = self._sift(rows, lvl)
            # the pairs after a failure stay pending, in order
            level.pending.drop(len(a) if failure is None else failure[0] + 1)
            if failure is not None and self._extend(*failure[1:]):
                return

    def order(self) -> int:
        return prod(self.orbit_lengths)

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.beta for level in self.levels)

    @property
    def orbit_lengths(self) -> tuple[int, ...]:
        return tuple(len(level.orbit) for level in self.levels)


class PermGroupCertificate(NamedTuple):
    degree: int
    order: int
    base: tuple[int, ...]
    orbit_lengths: tuple[int, ...]


def permutation_order_certificate(action: IsotropicAction, matrices,
                                  order_bound: int | None
                                  ) -> PermGroupCertificate:
    """Order, base and orbit lengths of the permutation image of the
    group the matrices generate."""
    chain = StabilizerChain(action, order_bound)
    for m in matrices:
        chain.add_generator(m)
    return PermGroupCertificate(action.degree, chain.order(), chain.base,
                                chain.orbit_lengths)


def group_order(t: GeneratorTriple,
                action: IsotropicAction | None = None) -> PermGroupCertificate:
    """Exact order of the permutation image of <X, Y, Z> on isotropic points.

    construct.check_connection_set puts X, Y and Z in SU3(q)
    (ConnectionSetError otherwise), so the image lies in PSU3(q) and the
    chain stops once it reaches |PSU3(q)|.
    """
    check_connection_set(t.matrices)
    action = action or IsotropicAction(t.field)
    return permutation_order_certificate(action, t.matrices,
                                         expected_group_order(t.field.q))


def dihedral_image_order(t: GeneratorTriple) -> int:
    """Order of the permutation image of <Y, Z>: 2 ord(YZ) in PSU3(q).

    construct.check_connection_set (ConnectionSetError otherwise) makes Y
    and Z matrices of SU3(q) that project to distinct involutions, and
    then no permutation is needed.  The kernel of the point action of
    SU3(q) is its centre (a matrix fixing a projective frame is scalar, see
    StabilizerChain), so the image of <Y, Z> is <y, z>, with y and z the
    distinct involutions of PSU3(q) that Y and Z project to.  <y, z> is the
    split extension <yz>:<y>, of order 2 ord(yz): r = yz has y r y = z y =
    r^-1, so <r> is normal in <y, z> = <r, y> with index at most 2, and y
    is not in <r>: there y would commute with r, so r = r^-1, <r> = {1, y}
    and z = y r = 1.  ord(yz) is the least n with (YZ)^n central, and the
    even-q rotation ZY = Y (YZ) Y has the same projective order.
    """
    check_connection_set(t.matrices)
    return 2 * projective_order(t.rotation[1])


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------

def _eigenvalues(m: Mat3) -> list[FieldElem]:
    """Roots of the characteristic polynomial of m, in index order.

    One Horner evaluation, on index arrays, at every candidate root.  A
    root l has an eigenvector v != 0, M v = l v.  When M M = I (X, Y and Z
    are involutions), v = M M v = l^2 v gives l^2 = 1, so the candidates
    are 1 and -1, a single one in characteristic 2.  Any other matrix has
    every field element as a candidate.
    """
    fld = m.field
    add, mul = fld.add_np, fld.mul_np
    c2, c1, c0 = (c.index for c in m.char_poly())
    if m * m == Mat3.identity(fld):
        one = fld.one.index
        x = np.array(sorted({one, fld.neg_index(one)}), dtype=np.int64)
    else:
        x = np.arange(fld.size, dtype=np.int64)
    roots = x[add(mul(add(mul(add(x, c2), x), c1), x), c0) == 0]
    return [FieldElem(fld, i) for i in roots.tolist()]


# the transpose of a row-major 3x3 matrix as a permutation of its entries
_TRANSPOSE = [0, 3, 6, 1, 4, 7, 2, 5, 8]


def invariant_subspace_test(t: GeneratorTriple) -> bool:
    """True iff the triple fixes no line and no plane of F^3, F = GF(q^2).

    A common invariant line is spanned by a common eigenvector: v != 0
    with (A - l1) v = (B - l2) v = (C - l3) v = 0 for an eigenvalue triple
    (l1, l2, l3), so the 9 x 3 system [A - l1; B - l2; C - l3] has rank
    below 3; conversely such a v spans a common invariant line.  A common
    invariant plane is a common invariant line of the transposes, which
    have the same eigenvalues.  So the triple is irreducible over F
    exactly when every system, for each eigenvalue triple in both
    orientations, has rank 3; one rref_np call ranks them all, and with no
    eigenvalue triple nothing is fixed.  Irreducibility over F is only the
    first half of the proof; commutant_dimension gives the second.
    """
    fld = t.field
    mats = np.array([m.flat_indices for m in t.matrices], dtype=np.int64)
    eigenvalues = [[l.index for l in _eigenvalues(m)] for m in t.matrices]
    lams = np.array(list(product(*eigenvalues)), dtype=np.int64)
    minus = fld.mul_np(lams.reshape(-1, 3), fld.neg_index(fld.one.index))
    # A - l1, B - l2, C - l3 per triple; index 0 is the zero element
    shifted = fld.add_np(mats, minus[:, :, None] * _DIAGONAL)
    systems = np.concatenate((shifted, shifted[:, :, _TRANSPOSE]))
    _, rank = rref_np(systems.reshape(-1, 9, 3), fld)
    return bool((rank == 3).all())


def commutant_dimension(t: GeneratorTriple) -> int:
    """Dimension over F = GF(q^2) of {D : DX = XD, DY = YD, DZ = ZD}.

    The second half of the irreducibility proof (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, MeatAxe section: an
    F-irreducible module is absolutely irreducible exactly when its
    endomorphism ring is F).  Once invariant_subspace_test has shown the
    triple irreducible over F, its commutant is a finite division algebra
    (Schur), hence a field (Wedderburn) containing the scalars F, and
    dimension 1 makes it F.  Neither half implies the other: (diag(1, a,
    a^2), J, I) with J unitriangular fixes a line at dimension 1, and the
    companion matrix of a rootless cubic, with I and I, fixes nothing at
    dimension 3.  The identity triple gives 9.

    The equations M D - D M = 0 are the intertwiner blocks of each M with
    itself, at the scalar 1 (mat3.intertwiner_np); the commutant is their
    nullspace.
    """
    fld = t.field
    flat = np.array([m.flat_indices for m in t.matrices])
    system = intertwiner_np(fld, flat, flat, fld.one.index)
    return len(nullspace(system.reshape(-1, 9), 9, fld))
