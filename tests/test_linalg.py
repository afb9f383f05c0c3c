"""Exact row reduction and nullspaces over GF(q^2)."""

import itertools
import random

import numpy as np
import pytest

from psu3grr import autcheck
from psu3grr.autcheck import (NONTRIVIAL_PERMS, TwistedConjugacyQuery,
                              _rank_deficient, intertwiner_rows)
from psu3grr.construct import GeneratorTriple, build_triple, search_params
from psu3grr.gf import field
from psu3grr.linalg import nullspace, rref_np
from psu3grr.mat3 import su3_center_scalars


def _indices(rows):
    return [[x.index for x in row] for row in rows]


def _elems(rows, F):
    return [[F.from_index(int(i)) for i in row] for row in rows]


def _rref_one(rows, ncols, F):
    """rref_np on a stack of one system: its basis rows as index lists and
    their pivot columns, the first nonzero entry of each row."""
    reduced, rank = rref_np(
        np.asarray(rows, dtype=np.int64).reshape(1, -1, ncols), F)
    assert not reduced[0, rank[0]:].any()
    basis = reduced[0, :rank[0]]
    return basis.tolist(), (basis != 0).argmax(axis=1).tolist()


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
    """rref_np on a stack of one and nullspace of index rows equal the
    FieldElem reference."""
    rows = [[int(i) for i in row] for row in rows]
    ref = _elems(rows, F)
    ref_pivots = _reference_rref(ref, F)
    basis, pivots = _rref_one(rows, ncols, F)
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
    basis, pivots = _rref_one(_indices(rows), 3, F)
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
            rank = len(_rref_one(_indices(work), 5, F)[1])
            assert len(basis) == 5 - rank
            for vec in basis:
                for row in rows:
                    acc = F.zero
                    for a, x in zip(row, vec):
                        acc = acc + a * x
                    assert not acc


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


def _assert_stack_matches_reference(systems, F):
    """One rref_np call on a (Q, R, C) stack equals the FieldElem reference
    system by system: the basis rows, then zero rows."""
    reduced, rank = rref_np(systems, F)
    assert reduced.shape == systems.shape
    for system, red, r in zip(systems, reduced, rank.tolist()):
        ref = [row for row in _elems(system, F) if any(row)]
        ref_pivots = _reference_rref(ref, F)
        assert r == len(ref_pivots)
        assert red[:r].tolist() == _indices(ref[:r])
        assert not red[r:].any()
    return rank


# -- the stacked elimination against the reference -------------------------------

def _sweep_queries(t):
    """Every query of the aut sweep of triple t, in sweep order."""
    mats = t.matrices
    centers = su3_center_scalars(t.field)
    for perm in NONTRIVIAL_PERMS:
        target = tuple(mats[perm[k]] for k in range(3))
        for i in range(2 * t.field.f):
            for scalars in itertools.product(centers, repeat=3):
                yield TwistedConjugacyQuery(t.matrices, target, i, scalars)


@pytest.mark.parametrize("p,f,count", [(5, 1, 270), (2, 3, 810)])
def test_intertwiner_systems_match_reference(p, f, count):
    """All the systems of a sweep, reduced in one stack."""
    F = field(p, f)
    t = build_triple(search_params(F))
    systems = np.array([intertwiner_rows(q) for q in _sweep_queries(t)])
    assert systems.shape == (count, 27, 9)
    rank = _assert_stack_matches_reference(systems, F)
    assert (rank == 9).all()
    _assert_matches_reference(systems[-1], 9, F)


def _low_rank_rows(F, rng, nrows, ncols, k):
    """nrows x ncols index rows of rank at most k: (nrows x k)(k x ncols)."""
    elems = list(F.elements())
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
    return rows


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2), (7, 2)])
def test_rank_deficient_systems_match_reference(p, f):
    """Stacks of ranks 0 to ncols, each system alone and all in one stack
    (zero rows pad them to 27; they change no row space)."""
    F = field(p, f)
    rng = random.Random(4099 + F.size)
    for ncols in (3, 5, 9):
        systems = [[[0] * ncols] * 27]
        for trial in range(15):
            k = rng.randrange(ncols + 1)
            nrows = rng.randrange(1, 28)
            rows = _low_rank_rows(F, rng, nrows, ncols, k)
            pivots = _assert_matches_reference(rows, ncols, F)
            assert len(pivots) <= k
            systems.append(rows + [[0] * ncols] * (27 - nrows))
        systems.append(_low_rank_rows(F, rng, 27, ncols, ncols))
        rank = _assert_stack_matches_reference(np.array(systems), F)
        assert rank[0] == 0 and rank[-1] == ncols


def _staged_and_full(t):
    """Rank-deficient query positions of the sweep, prefix-shared and from
    full 27-row reductions (ascending, from flatnonzero)."""
    staged = _rank_deficient(t.matrices, su3_center_scalars(t.field))
    systems = np.array([intertwiner_rows(q) for q in _sweep_queries(t)])
    _, rank = rref_np(systems, t.field)
    return staged, np.flatnonzero(rank < 9)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (2, 3), (2, 5)])
def test_block_staging_matches_full_ranks(p, f):
    """Reducing shared block prefixes finds exactly the systems whose full
    27-row rank is below 9, in ascending sweep order: none for the GRR
    triple, some for each degenerate triple.  q = 4 has one centre scalar,
    so no prefix is shared; q = 5, 8 and 32 have three."""
    cp = search_params(field(p, f))
    t = build_triple(cp)
    staged, full = _staged_and_full(t)
    assert staged.tolist() == full.tolist() == []
    X, Y, Z = t.matrices
    for triple in ((X, Y, X), (X, X, Y), (Y, Z, Y)):
        staged, full = _staged_and_full(GeneratorTriple(cp, *triple))
        assert (np.diff(staged) > 0).all()
        assert staged.tolist() == full.tolist() and len(full)
    # not involutions: every prefix of this source reaches rank 9 before
    # block 2, which then has nothing left to reduce
    staged, full = _staged_and_full(GeneratorTriple(cp, X * Y, Z, X))
    assert staged.tolist() == full.tolist()


@pytest.mark.parametrize("p,f,calls,systems", [
    (5, 1, 3, 90), (2, 3, 3, 270), (2, 5, 3, 450), (2, 4, 3, 120),
    (2, 7, 3, 630)])
def test_sweep_reduces_each_prefix_once(p, f, calls, systems, monkeypatch):
    """The sweep reduces only the extensions of the prefixes still below
    rank 9, one rref_np call per block level.  The GRR triple keeps
    one in C of them live after blocks 0 and 1, so each level reduces
    5 x 2f x C systems, against 5 x 2f x C^3 queries (C centre scalars)."""
    stacks = []

    def recording(a, fld):
        reduced, rank = rref_np(a, fld)
        stacks.append((len(a), int((rank < 9).sum())))
        return reduced, rank

    monkeypatch.setattr(autcheck, "rref_np", recording)
    t = build_triple(search_params(field(p, f)))
    assert _rank_deficient(t.matrices, su3_center_scalars(t.field)).size == 0
    assert (len(stacks), sum(n for n, _ in stacks)) == (calls, systems)
    if (p, f) == (2, 3):
        assert [live for _, live in stacks] == [30, 30, 0]


def test_all_zero_system():
    F = field(2, 2)
    rows = [[0] * 9 for _ in range(27)]
    basis, pivots = _rref_one(rows, 9, F)
    assert basis == [] and pivots == []
    _assert_matches_reference(rows, 9, F)
    assert nullspace(rows, 9, F) == [
        tuple(F.one if i == j else F.zero for i in range(9))
        for j in range(9)]


@pytest.mark.parametrize("p,f", [(5, 1), (7, 2)])
def test_full_rank_stops_before_later_rows(p, f):
    """Once some rows reach rank 9 their reduced form is the identity, and
    later rows stacked under it change nothing: the aut sweep's stop."""
    F = field(p, f)
    rng = random.Random(97)
    rows = []
    while len(_rref_one(rows, 9, F)[1]) < 9:
        rows.append([rng.randrange(F.size) for _ in range(9)])
    extra = [[rng.randrange(F.size) for _ in range(9)] for _ in range(18)]
    pivots = _assert_matches_reference(rows + extra, 9, F)
    assert pivots == list(range(9))
    assert nullspace(rows + extra, 9, F) == []
    identity = [[F.one.index if i == j else 0 for i in range(9)]
                for j in range(9)]
    basis, _ = _rref_one(rows, 9, F)
    assert basis == identity
    reduced, rank = rref_np(np.array([basis + extra]), F)
    assert rank.tolist() == [9]
    assert reduced[0, :9].tolist() == identity and not reduced[0, 9:].any()
