"""Exact row reduction and nullspaces over GF(q^2)."""

import itertools
import random

import pytest

from psu3grr.autcheck import (NONTRIVIAL_PERMS, TwistedConjugacyQuery,
                              intertwiner_rows)
from psu3grr.construct import build_triple, search_params
from psu3grr.gf import field
from psu3grr.linalg import nullspace, rref
from psu3grr.mat3 import su3_center_scalars


def _indices(rows):
    return [[x.index for x in row] for row in rows]


def _elems(rows, F):
    return [[F.from_index(i) for i in row] for row in rows]


# -- reference: plain Gauss-Jordan over FieldElem entries ---------------------

def _reference_rref(rows, field):
    """Reduced row echelon form in place; returns the pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reference_nullspace(rows, ncols, field):
    work = [list(row) for row in rows if any(row)]
    if not work:
        one, zero = field.one, field.zero
        return [tuple(one if i == j else zero for i in range(ncols))
                for j in range(ncols)]
    pivots = _reference_rref(work, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = field.zero, field.one
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(tuple(v))
    return basis


def _assert_matches_reference(rows, ncols, F):
    """rref and nullspace of index rows equal the FieldElem reference."""
    ref = _elems(rows, F)
    ref_pivots = _reference_rref(ref, F)
    basis, pivots = rref(rows, ncols, F)
    assert pivots == ref_pivots
    assert basis == _indices(ref[:len(ref_pivots)])
    assert nullspace(rows, ncols, F) == _reference_nullspace(
        _elems(rows, F), ncols, F)
    return pivots


# -- the existing contract ------------------------------------------------------

def test_rref_pivots():
    F = field(5, 1)
    e = F.from_int
    rows = [[e(2), e(4), e(1)], [e(1), e(2), e(3)], [e(0), e(0), e(1)]]
    basis, pivots = rref(_indices(rows), 3, F)
    rows = _elems(basis, F)
    assert pivots == [0, 2]
    assert rows[0][0] == F.one and rows[1][2] == F.one


def test_nullspace_of_zero_map_is_full():
    F = field(2, 2)
    basis = nullspace(_indices([[F.zero] * 4]), 4, F)
    assert len(basis) == 4


def test_nullspace_vectors_satisfy_system():
    rng = random.Random(11)
    for p, f in [(5, 1), (2, 2)]:
        F = field(p, f)
        elems = list(F.elements())
        for _ in range(30):
            rows = [[elems[rng.randrange(F.size)] for _ in range(5)]
                    for _ in range(3)]
            basis = nullspace(_indices(rows), 5, F)
            # rank-nullity over the 5 columns
            work = [list(r) for r in rows]
            rank = len(rref(_indices(work), 5, F)[1])
            assert len(basis) == 5 - rank
            for vec in basis:
                for row in rows:
                    acc = F.zero
                    for a, x in zip(row, vec):
                        acc = acc + a * x
                    assert acc.is_zero()


def test_nullspace_known_kernel():
    F = field(5, 1)
    e = F.from_int
    # x + 2y = 0, z free: kernel spanned by (-2, 1, 0) and (0, 0, 1)
    rows = [[e(1), e(2), e(0)]]
    basis = nullspace(_indices(rows), 3, F)
    assert len(basis) == 2
    spans = {tuple(x.index for x in v) for v in basis}
    assert (e(3).index, e(1).index, 0) in spans
    assert (0, 0, F.one.index) in spans


# -- the index-domain elimination against the reference --------------------------

def _sweep_queries(p, f):
    """Every query of the aut sweep at q = p^f, in sweep order."""
    t = build_triple(search_params(field(p, f)))
    mats = t.matrices
    centers = su3_center_scalars(t.field)
    for perm in NONTRIVIAL_PERMS:
        target = tuple(mats[perm[k]] for k in range(3))
        for i in range(2 * f):
            for scalars in itertools.product(centers, repeat=3):
                yield TwistedConjugacyQuery(mats, target, i, scalars)


@pytest.mark.parametrize("p,f,count", [(5, 1, 270), (2, 3, 810)])
def test_intertwiner_systems_match_reference(p, f, count):
    F = field(p, f)
    seen = 0
    for query in _sweep_queries(p, f):
        rows = list(intertwiner_rows(query))
        assert len(rows) == 27
        _assert_matches_reference(rows, 9, F)
        seen += 1
    assert seen == count


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2), (7, 2)])
def test_rank_deficient_systems_match_reference(p, f):
    """Random products (n x k)(k x ncols) have rank at most k < ncols."""
    F = field(p, f)
    rng = random.Random(4099 + F.size)
    elems = list(F.elements())
    for trial in range(40):
        ncols = rng.choice((3, 5, 9))
        k = rng.randrange(ncols)
        nrows = rng.randrange(1, 28)
        left = [[rng.choice(elems) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.choice(elems) for _ in range(ncols)] for _ in range(k)]
        rows = []
        for lrow in left:
            row = []
            for c in range(ncols):
                acc = F.zero
                for a, rr in zip(lrow, right):
                    acc = acc + a * rr[c]
                row.append(acc.index)
            rows.append(row)
        pivots = _assert_matches_reference(rows, ncols, F)
        assert len(pivots) <= k


def test_all_zero_system():
    F = field(2, 2)
    rows = [[0] * 9 for _ in range(27)]
    basis, pivots = rref(rows, 9, F)
    assert basis == [] and pivots == []
    _assert_matches_reference(rows, 9, F)
    assert nullspace(rows, 9, F) == [
        tuple(F.one if i == j else F.zero for i in range(9))
        for j in range(9)]


@pytest.mark.parametrize("p,f", [(5, 1), (7, 2)])
def test_full_rank_stops_before_later_rows(p, f):
    F = field(p, f)
    rng = random.Random(97)
    rows = []
    while len(rref(rows, 9, F)[1]) < 9:
        rows.append([rng.randrange(F.size) for _ in range(9)])
    extra = [[rng.randrange(F.size) for _ in range(9)] for _ in range(18)]
    pivots = _assert_matches_reference(rows + extra, 9, F)
    assert pivots == list(range(9))
    assert nullspace(rows + extra, 9, F) == []
    # rank 9 is reached on the last row of `rows`: nothing after it is read
    basis, _ = rref(rows + [None], 9, F)
    assert basis == [[F.one.index if i == j else 0 for i in range(9)]
                     for j in range(9)]
