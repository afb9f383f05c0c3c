"""Exact Gauss-Jordan elimination over GF(q^2), on field element indices.

Small dense systems only: the package never solves anything bigger than the
27-equation, 9-unknown intertwiner systems, but it solves many of them.
One kernel, rref_np, reduces a whole stack of systems at once: a (Q, R, C)
array of element indices, one pass per column, each pass a few numpy
operations on the whole stack through the field's kernels (add_np, mul_np,
inv_np).  No FieldElem is made and no Python loop runs over rows or
systems while reducing.  nullspace serves a single system as a stack of
one.
"""

from __future__ import annotations

import numpy as np

from .gf import Field, FieldElem


def rref_np(systems, field: Field):
    """Reduced row echelon forms of a stack of systems.

    systems is a (Q, R, C) integer array of element indices and is not
    modified.  Returns (reduced, rank): reduced[s, :rank[s]] is the reduced
    echelon basis of the row space of system s, a 1 in each pivot column
    and 0 in the other pivot columns, pivots ascending; reduced[s, rank[s]:]
    is zero.  The reduced row echelon form of a row space is unique, so the
    result for one system depends neither on the order of its rows nor on
    the other systems of the stack.

    Column c is one pass over the stack.  In each system the pivot is the
    first row at or below rank[s] with a nonzero entry in column c (argmax
    of a mask); it is swapped up to row rank[s] and scaled to 1, and column
    c is cleared from every other row.  The rows at or below rank[s] are
    zero in columns < c, so the pivot row is too, and only columns c.. are
    updated.  A system with no pivot in column c is left as it is.
    """
    a = np.array(systems, dtype=np.int64)
    nsys, nrows, ncols = a.shape
    rank = np.zeros(nsys, dtype=np.int64)
    if nrows == 0:
        return a, rank
    minus_one = field.neg_index(field.one.index)
    sys_ix = np.arange(nsys)
    row_ix = np.arange(nrows)
    for c in range(ncols):
        cand = (a[:, :, c] != 0) & (row_ix >= rank[:, None])
        found = cand.any(axis=1)
        at = np.minimum(rank, nrows - 1)
        piv = np.where(found, cand.argmax(axis=1), at)
        prow = a[sys_ix, piv, c:]
        a[sys_ix, piv] = a[sys_ix, at]
        # scale the pivot to 1; with no pivot, inv_np(0) = 0 zeroes prow
        prow = field.mul_np(prow, field.inv_np(prow[:, 0])[:, None])
        factor = np.where(found[:, None], a[:, :, c], 0)
        a[:, :, c:] = field.add_np(a[:, :, c:], field.mul_np(
            factor[:, :, None], field.mul_np(prow, minus_one)[:, None, :]))
        a[sys_ix[found], at[found], c:] = prow[found]
        rank += found
    return a, rank


def nullspace(rows, ncols: int, field: Field):
    """Basis of the right nullspace {v : rows . v = 0} of index rows.

    Returns a list of ncols-tuples of FieldElem, one per free column, in
    ascending free-column order (deterministic): the vector with a 1 in its
    free column, 0 in the other free columns and minus the basis entries in
    the pivot columns.  A system of full rank has the empty basis.
    """
    reduced, rank = rref_np(
        np.asarray(rows, dtype=np.int64).reshape(1, -1, ncols), field)
    basis = reduced[0, :rank[0]]
    pivots = (basis != 0).argmax(axis=1).tolist()
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = field.one.index
        for b, pc in zip(basis[:, fc].tolist(), pivots):
            v[pc] = field.neg_index(b)
        out.append(tuple(FieldElem(field, i) for i in v))
    return out
