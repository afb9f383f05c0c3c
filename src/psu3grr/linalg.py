"""Exact Gaussian elimination over GF(q^2), on field element indices.

Small dense systems only: the package never solves anything bigger than the
27-equation, 9-unknown intertwiner systems.  Rows are lists of element
indices and every operation goes through the field's index arithmetic
(add_index, mul_index, neg_index, inv_index), so no FieldElem is made
while reducing.

Rows are inserted one at a time into a fully reduced echelon basis, and
insertion stops as soon as the rank equals the number of columns.  This
early stop is sound: a basis of rank ncols spans all of GF(q^2)^ncols,
which contains every later row, so no later row can change the row space,
nor therefore its (unique) reduced echelon form, and the nullspace is {0}.
Every intertwiner system of a GRR triple's aut sweep has full rank 9; at
q = 5 and 8, two thirds of them reach it after the first nine of their 27
rows, and none needs more than 21.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from .gf import Field, FieldElem


def rref(rows: Iterable[list[int]], ncols: int, field: Field):
    """Reduced row echelon form of the row space of rows (index rows).

    Returns (basis, pivots): basis[r] is a row of element indices with a 1
    in column pivots[r] and 0 in every other pivot column, and pivots is
    ascending.  The reduced row echelon form of a row space is unique, so
    the result does not depend on the order of the input rows.  The input
    rows are not modified, and rows is read only up to the row that brings
    the rank to ncols, so it may be a generator that makes rows on demand.
    """
    add, mul = field.add_index, field.mul_index
    neg, inv = field.neg_index, field.inv_index
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        # reduce against the basis: clear every pivot column of the row
        for b, pc in zip(basis, pivots):
            x = row[pc]
            if x:
                nx = neg(x)
                row = [add(y, mul(nx, z)) if z else y for y, z in zip(row, b)]
        c = next((k for k, y in enumerate(row) if y), None)
        if c is None:
            continue
        s = inv(row[c])
        row = [mul(s, y) if y else 0 for y in row]
        # clear the new pivot column from the basis rows
        for r, b in enumerate(basis):
            x = b[c]
            if x:
                nx = neg(x)
                basis[r] = [add(z, mul(nx, y)) if y else z
                            for z, y in zip(b, row)]
        at = bisect.bisect(pivots, c)
        basis.insert(at, row)
        pivots.insert(at, c)
        if len(pivots) == ncols:
            break
    return basis, pivots


def nullspace(rows: Iterable[list[int]], ncols: int, field: Field):
    """Basis of the right nullspace {v : rows . v = 0} of index rows.

    Returns a list of ncols-tuples of FieldElem, one per free column, in
    ascending free-column order (deterministic): the vector with a 1 in its
    free column, 0 in the other free columns and minus the basis entries in
    the pivot columns.  A system of full rank has the empty basis.
    """
    basis, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    out = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = field.one.index
        for b, pc in zip(basis, pivots):
            v[pc] = field.neg_index(b[fc])
        out.append(tuple(FieldElem(field, i) for i in v))
    return out
