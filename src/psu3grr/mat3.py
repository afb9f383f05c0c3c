"""3x3 matrix algebra over GF(q^2) and the Hermitian geometry around SU3(q).

Matrices are immutable, stored as a flat row-major tuple of nine field
elements.  Everything is exact: determinants, inverses and characteristic
polynomials come from the explicit 3x3 cofactor formulas, which are valid in
every characteristic (no division by 2 or trace identities anywhere).

SU3(q) is the group of determinant-1 matrices A over GF(q^2) with
conj_transpose(A) . W . A = W, where conj is the entrywise q-th power and W
is the fixed Hermitian form produced by standard_hermitian_form.  The same
anti-diagonal W is used in both odd and even characteristic.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .gf import Field, FieldElem


# adj(M) entry t is M[_ADJ_L1[t]] M[_ADJ_R1[t]] - M[_ADJ_L2[t]] M[_ADJ_R2[t]]
# for M row-major: the cofactor formulas of Mat3 and adjugate_np
_ADJ_L1 = [4, 2, 1, 5, 0, 2, 3, 1, 0]
_ADJ_R1 = [8, 7, 5, 6, 8, 3, 7, 6, 4]
_ADJ_L2 = [5, 1, 2, 3, 2, 0, 4, 0, 1]
_ADJ_R2 = [7, 8, 4, 8, 6, 5, 6, 7, 3]


def _cofactor(m, t):
    """Entry t of adj(M), for the nine entries m of M."""
    return m[_ADJ_L1[t]] * m[_ADJ_R1[t]] - m[_ADJ_L2[t]] * m[_ADJ_R2[t]]


class Mat3:
    __slots__ = ("field", "e")

    def __init__(self, field: Field, entries):
        """entries: nine FieldElem in row-major order (for rows, see
        from_rows)."""
        flat = tuple(entries)
        if len(flat) != 9:
            raise ValueError("a 3x3 matrix needs exactly 9 entries")
        for x in flat:
            if not isinstance(x, FieldElem):
                raise ValueError(f"entry {x!r} is not a field element")
            if x.field is not field:
                raise ValueError("entry from a different field")
        self.field = field
        self.e = flat

    @classmethod
    def from_rows(cls, field: Field, rows):
        """Rows of FieldElem or plain ints (an int n is n mod p)."""
        return cls(field, [x if isinstance(x, FieldElem) else field.from_int(x)
                           for row in rows for x in row])

    @classmethod
    def identity(cls, field: Field):
        one, zero = field.one, field.zero
        return cls(field, (one, zero, zero, zero, one, zero, zero, zero, one))

    @classmethod
    def from_flat_indices(cls, field: Field, idx9):
        return cls(field, tuple(FieldElem(field, i) for i in idx9))

    @property
    def flat_indices(self) -> tuple[int, ...]:
        return tuple(x.index for x in self.e)

    def __mul__(self, other: "Mat3") -> "Mat3":
        if self.field is not other.field:
            raise ValueError("matrices over different fields")
        a, b = self.e, other.e
        out = []
        for i in range(3):
            for j in range(3):
                out.append(a[3 * i] * b[j]
                           + a[3 * i + 1] * b[3 + j]
                           + a[3 * i + 2] * b[6 + j])
        return Mat3(self.field, out)

    def scalar_mul(self, c: FieldElem) -> "Mat3":
        return Mat3(self.field, tuple(c * x for x in self.e))

    def transpose(self) -> "Mat3":
        a = self.e
        return Mat3(self.field, (a[0], a[3], a[6], a[1], a[4], a[7], a[2], a[5], a[8]))

    def conj_transpose(self) -> "Mat3":
        """Entrywise q-th power followed by transposition; an involution."""
        return self.frobenius(self.field.f).transpose()

    def frobenius(self, e: int) -> "Mat3":
        """Entrywise x -> x^(p^e)."""
        return Mat3(self.field, tuple(x.frobenius(e) for x in self.e))

    def det(self) -> FieldElem:
        """Expansion along row 0, whose cofactors are adj(M) column 0."""
        m = self.e
        return (m[0] * _cofactor(m, 0) + m[1] * _cofactor(m, 3)
                + m[2] * _cofactor(m, 6))

    def inverse(self) -> "Mat3":
        det = self.det()
        if not det:
            raise ZeroDivisionError("singular matrix")
        s = det.inv()
        m = self.e
        return Mat3(self.field, tuple(s * _cofactor(m, t) for t in range(9)))

    def char_poly(self) -> "CharPoly":
        """Coefficients of det(lambda*I - M) = l^3 + c2 l^2 + c1 l + c0.

        Closed-form cofactor expansion: c2 = -trace, c1 = sum of principal
        2x2 minors (the diagonal of adj(M)), c0 = -det.  Integral formulas,
        valid in char 2 and 3.
        """
        m = self.e
        c2 = -(m[0] + m[4] + m[8])
        c1 = _cofactor(m, 8) + _cofactor(m, 4) + _cofactor(m, 0)
        c0 = -self.det()
        return CharPoly(c2, c1, c0)

    def is_scalar(self) -> bool:
        z = self.field.zero
        a = self.e
        return (a[1] == z and a[2] == z and a[3] == z and a[5] == z
                and a[6] == z and a[7] == z and a[0] == a[4] == a[8])

    def __eq__(self, other):
        return (isinstance(other, Mat3) and self.field is other.field
                and self.e == other.e)

    def __hash__(self):
        return hash((id(self.field), self.flat_indices))

    def to_str(self) -> str:
        """Rows joined by ';', entries within a row by ' '."""
        return ";".join(" ".join(x.to_str() for x in self.e[i:i + 3])
                        for i in (0, 3, 6))

    @classmethod
    def from_str(cls, field: Field, s: str) -> "Mat3":
        rows = [[field.from_str(tok) for tok in part.split(" ")]
                for part in s.split(";")]
        return cls.from_rows(field, rows)

    def __repr__(self):
        return f"Mat3({self.to_str()})"


# ---------------------------------------------------------------------------
# Stacked matrices: (K, 9) arrays of row-major field indices
# ---------------------------------------------------------------------------

def vecmat_np(field: Field, v, m):
    """v * M for broadcast stacks of row vectors v (..., 3) and matrices
    m (..., 3, 3) of field indices.

    All entry products come from one log-domain gather over (..., k, j),
    then two add_np calls sum over k.
    """
    terms = field.mul_np(v[..., :, None], m)
    return field.add_np(field.add_np(terms[..., 0, :], terms[..., 1, :]),
                        terms[..., 2, :])


def matmul_np(field: Field, a, b):
    """Row-wise products a[k] * b[k] of stacked matrices (K, 9): the rows
    of a[k] times b[k], 27 entry products per matrix."""
    return vecmat_np(field, a.reshape(-1, 3, 3),
                     b.reshape(-1, 1, 3, 3)).reshape(-1, 9)


def adjugate_np(field: Field, a):
    """Row-wise adjugates of stacked matrices: adj(M) = det(M) M^-1."""
    minus_one = field.neg_index(field.one.index)
    plus = field.mul_np(a[:, _ADJ_L1], a[:, _ADJ_R1])
    minus = field.mul_np(field.mul_np(a[:, _ADJ_L2], a[:, _ADJ_R2]),
                         minus_one)
    return field.add_np(plus, minus)


_EYE3 = np.eye(3, dtype=bool)


def intertwiner_np(field: Field, a, b, c):
    """Equations of A D - c D B = 0 in the nine entries of D, stacked.

    a and b are (..., 9) arrays of row-major matrices and c an index array
    broadcasting against their leading axes.  Returns the (..., 9, 9) index
    array A (x) I - c I (x) B^T: row 3u + v is the equation for entry (u, v),
    over the unknowns D_wv in column 3w + v, with A_uw at column 3w + v and
    -c B_wv at column 3u + w.
    """
    a = np.asarray(a).reshape(np.shape(a)[:-1] + (3, 1, 3, 1))
    minus_c = field.mul_np(c, field.neg_index(field.one.index))
    ncb = field.mul_np(b, np.asarray(minus_c)[..., None])
    ncb_t = np.swapaxes(ncb.reshape(ncb.shape[:-1] + (3, 3)), -1, -2)
    # index order (u, v, w, v'): row 3u + v, column 3w + v'
    left = np.where(_EYE3[None, :, None, :], a, 0)
    right = np.where(_EYE3[:, None, :, None], ncb_t[..., None, :, None, :], 0)
    out = field.add_np(left, right)
    return out.reshape(out.shape[:-4] + (9, 9))


class CharPoly(NamedTuple):
    """Monic cubic det(lI - M) as its lower coefficients (c2, c1, c0)."""
    c2: FieldElem
    c1: FieldElem
    c0: FieldElem

    def eval(self, x: FieldElem) -> FieldElem:
        return ((x + self.c2) * x + self.c1) * x + self.c0


@functools.lru_cache(maxsize=None)
def standard_hermitian_form(field: Field) -> Mat3:
    """The fixed form W: ones on the anti-diagonal, used for both parities."""
    return Mat3.from_rows(field, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def is_special_unitary(m: Mat3) -> bool:
    """True iff det(m) = 1 and conj_transpose(m) . W . m = W."""
    if m.det() != m.field.one:
        return False
    w = standard_hermitian_form(m.field)
    return m.conj_transpose() * w * m == w


@functools.lru_cache(maxsize=None)
def su3_center_scalars(field: Field) -> tuple[FieldElem, ...]:
    """Scalars c with c^3 = 1 and c^(q+1) = 1; exactly gcd(3, q+1) of them.

    These are the scalars of the center of SU3(q); projective identities
    are always taken modulo this set.  They form the subgroup of order
    gcd(3, q + 1) of the cyclic group GF(q^2)*, of order q^2 - 1: {1}, or,
    when 3 divides q + 1 (and so q^2 - 1), the elements of orders 1 and 3.
    Returned in index order.
    """
    orders = (1,) if (field.q + 1) % 3 else (1, 3)
    indices = sorted(i for n in orders for i in field.indices_of_order(n))
    return tuple(FieldElem(field, i) for i in indices)


def projectively_equal(m1: Mat3, m2: Mat3) -> bool:
    """Equality in PSU3(q): m1 = c * m2 for a center scalar c."""
    return any(m1 == m2.scalar_mul(c) for c in su3_center_scalars(m1.field))


def _power_order(m: Mat3, targets) -> int:
    """Least n >= 1 with the flat indices of m^n in targets.

    The bound q^3 exceeds every element order of SU3(q), q >= 3.  Write
    m = s u (Jordan).  If s has three distinct eigenvalues, u = I and s lies
    in a torus of exponent q + 1, q^2 - 1 or q^2 - q + 1.  Otherwise s has
    an eigenplane; no plane is totally isotropic, so its eigenvalue has
    norm one, as has the third (det s = 1), and s^(q+1) = I.  u has order
    1, p, or 4 when p = 2, and p(q + 1), 4(q + 1) < q^3.  A projective
    order divides the matrix order, so the bound serves both.
    """
    power = m
    for n in range(1, m.field.q ** 3 + 1):
        if power.flat_indices in targets:
            return n
        power = power * m
    raise ArithmeticError("order bound q^3 exceeded; matrix is not in SU3(q)")


def matrix_order(m: Mat3) -> int:
    """Least n >= 1 with m^n = I."""
    return _power_order(m, {Mat3.identity(m.field).flat_indices})


def projective_order(m: Mat3) -> int:
    """Least n >= 1 with m^n a center scalar matrix."""
    ident = Mat3.identity(m.field)
    return _power_order(m, {ident.scalar_mul(c).flat_indices
                            for c in su3_center_scalars(m.field)})
