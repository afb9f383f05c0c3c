"""Parameter search and generator triples for the cubic connection sets.

For q = p^f >= 5 odd, the connection set of the cubic Cayley graph is built
from a pair (b, a) in GF(q^2):

    b + b^q = 1,  b != b^q,  b^(q+1) != 1,  ord(a) = q - 1,

subject to three characteristic-polynomial separation conditions indexed by
a small exponent set I (see exponent_set).  For q = 2^f >= 4 the analogue
drops b != b^q, keeps b^(q+1) != 1, uses ord(a) = q + 1 and four
conditions.  The separations are exactly what later rules out any
connection-set-preserving automorphism, so they are re-checked there as
the "fast path".

Both b and a are chosen as the FIRST valid elements in field enumeration
order, making every downstream artifact reproducible.  The search also
records how many valid a exist for the chosen b (the census).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import NamedTuple

import numpy as np

from .gf import BLOCK, Field, FieldElem
from .mat3 import Mat3, is_special_unitary, projectively_equal


class UnsupportedQ(ValueError):
    """q outside the supported range (odd q >= 5 or even q >= 4)."""


class NoValidParams(RuntimeError):
    """Exhaustive search found no valid (a, b); never expected in range."""


class ConstructionError(RuntimeError):
    """A built triple failed one of its integrity checks."""


class ConnectionSetError(ConstructionError):
    """The projected triple is not a valid cubic connection set."""


ODD_CONDITIONS = ("yz-xy", "yz-xz", "xy-xz")
EVEN_CONDITIONS = ("zx-zy", "zx-xy", "zy-xy", "trace-nonzero")
# conditions whose left side gets the p^i twist
TWISTED = {"yz-xy", "yz-xz", "zx-zy", "zx-xy"}


def require_supported(field: Field) -> str:
    """Parity tag for a supported q, or UnsupportedQ."""
    parity = "even" if field.p == 2 else "odd"
    if parity == "odd" and field.q < 5:
        raise UnsupportedQ(
            f"q = {field.q}: odd characteristic needs q >= 5 "
            "(q = 3 admits no generating involution triple)")
    if parity == "even" and field.q < 4:
        raise UnsupportedQ(f"q = {field.q}: even characteristic needs q >= 4")
    return parity


def rotation_order(field: Field, parity: str) -> int:
    """Order of a and of the rotation: q - 1 for odd q, q + 1 for even q."""
    return field.q - 1 if parity == "odd" else field.q + 1


class ConstructionParams(NamedTuple):
    field: Field
    parity: str
    b: FieldElem
    a: FieldElem
    exponent_set: tuple[int, ...]
    a_census: int


class GeneratorTriple(NamedTuple):
    params: ConstructionParams
    X: Mat3
    Y: Mat3
    Z: Mat3

    @property
    def field(self) -> Field:
        return self.params.field

    @property
    def matrices(self) -> tuple[Mat3, Mat3, Mat3]:
        return (self.X, self.Y, self.Z)

    @property
    def rotation(self) -> tuple[str, Mat3, int]:
        """(name, matrix, expected projective order) of the rotation: Y Z
        of order q - 1 for odd q, Z Y of order q + 1 for even q."""
        expected = rotation_order(self.field, self.params.parity)
        if self.params.parity == "odd":
            return "yz", self.Y * self.Z, expected
        return "zy", self.Z * self.Y, expected


def valid_b_blocks(field: Field, parity: str):
    """The b valid for the construction, as index arrays in enumeration
    order, one block of BLOCK elements at a time (which bounds the
    temporaries).

    Both parities need b + b^q = 1 and b^(q+1) != 1.  The norm condition is
    not redundant in odd characteristic: when q = 5 (mod 6) the primitive
    sixth roots of unity satisfy b + b^q = 1, b != b^q, yet collapse
    <X, Y, Z> to a proper subgroup (verified by exact order computation for
    q = 5, where the collapse lands in an A7-type maximal subgroup).  The
    odd case additionally excludes subfield b via b != b^q.  Zero has
    trace 0, so the trace test excludes it.
    """
    one = field.one.index
    for lo in range(0, field.size, BLOCK):
        b = np.arange(lo, min(lo + BLOCK, field.size))
        bq = field.powq_np(b)
        valid = field.add_np(b, bq) == one
        valid &= field.mul_np(b, bq) != one  # b^(q+1) = b * b^q
        if parity == "odd":
            valid &= b != bq
        yield b[valid]


def find_b(field: Field) -> FieldElem:
    """First b in enumeration order of `valid_b_blocks`."""
    for valid in valid_b_blocks(field, require_supported(field)):
        if len(valid):
            return FieldElem(field, int(valid[0]))
    raise NoValidParams(f"no valid b in GF({field.q}^2)")  # trace is onto; unreachable


def count_valid_b(field: Field) -> int:
    """How many b in the whole field `valid_b_blocks` yields."""
    return sum(len(valid) for valid in
               valid_b_blocks(field, require_supported(field)))


def exponent_set(f: int, parity: str) -> tuple[int, ...]:
    """Twist exponents governing the separation conditions.

    Odd: {0, f/g, 2f/g} with g = gcd(3, f); even: {0, f, 2f/g, 4f/g}.
    Entries are reduced mod 2f, deduplicated and sorted.

    The set covers every twist an automorphism of order 1, 2 or 3 can use
    (autcheck.proof_twist_exponents).  The two are equal except for odd q
    with 3 | f, (0, f/3, 2f/3) against (0, 2f/3, f, 4f/3), which agree
    mod f.  That suffices: every odd coefficient lies in GF(q) (a has
    order q - 1 and b^(q+1) is a norm), where the twist by p^i depends
    only on i mod f.
    """
    g = gcd(3, f)
    if parity == "odd":
        raw = (0, f // g, 2 * f // g)
    else:
        raw = (0, f, 2 * f // g, 4 * f // g)
    return tuple(sorted({i % (2 * f) for i in raw}))


def charpoly_coeffs(field: Field, parity: str, a: FieldElem,
                    b: FieldElem) -> dict[str, FieldElem]:
    """The lambda^2 coefficient magnitude of each product's char poly.

    Each of the three pairwise generator products has characteristic
    polynomial l^3 -+ c l^2 +- c l -+ 1 for a single field value c; the
    conditions only ever compare these values.
    """
    one = field.one
    a_inv = a.inv()
    if parity == "odd":
        bq1 = b * b.frobenius(field.f)  # b^(q+1)
        return {
            "yz": a + a_inv + one,
            "xy": a + a_inv * bq1,
            "xz": one + bq1,
        }
    b2 = b * b
    b3 = b2 * b
    b4 = b2 * b2
    return {
        "zy": a + a_inv + one,
        "zx": one + b + b2,
        "xy": a * (one + b + b3 + b4) + a_inv * (b2 + b3 + b4),
    }


def separated(coeffs: dict[str, FieldElem], cond: str,
              i: int | None = None) -> bool:
    """One separation condition on precomputed `charpoly_coeffs`, twisting
    by p^i where applicable."""
    if cond == "trace-nonzero":
        return bool(coeffs["zy"])  # a + a^-1 + 1 (even parity only)
    left_key, right_key = cond.split("-")
    left, right = coeffs[left_key], coeffs[right_key]
    if cond in TWISTED:
        left = left.frobenius(i or 0)
    return left != right


def separation_table(field: Field, parity: str, a: FieldElem, b: FieldElem,
                     twists):
    """Yield (condition, twist, holds) for every separation condition of
    the parity, in certificate order: a twisted condition once per given
    twist, any other once with twist None.  The coefficients are computed
    once; the table is lazy, so all() over it stops at the first failure.
    """
    coeffs = charpoly_coeffs(field, parity, a, b)
    for cond in ODD_CONDITIONS if parity == "odd" else EVEN_CONDITIONS:
        for i in (twists if cond in TWISTED else (None,)):
            yield cond, i, separated(coeffs, cond, i)


def search_params(field: Field) -> ConstructionParams:
    """First valid (b, a) plus the census of valid a for that b."""
    parity = require_supported(field)
    b = find_b(field)
    exponents = exponent_set(field.f, parity)
    target_order = rotation_order(field, parity)
    first_a = None
    census = 0
    for a in map(field.from_index, field.indices_of_order(target_order)):
        if all(holds for _, _, holds in
               separation_table(field, parity, a, b, exponents)):
            census += 1
            if first_a is None:
                first_a = a
    if first_a is None:
        raise NoValidParams(
            f"no element of order {target_order} satisfies the separation "
            f"conditions for q = {field.q}, b = {b.to_str()}")
    return ConstructionParams(field, parity, b, first_a, exponents, census)


def _odd_matrices(field: Field, a: FieldElem, b: FieldElem):
    one, zero = field.one, field.zero
    bq = b.frobenius(field.f)
    bq1 = b * bq
    x = Mat3(field, (-bq, b, bq1,
                     one, zero, bq,
                     one, one, -b))
    y = Mat3(field, (zero, zero, a,
                     zero, -one, zero,
                     a.inv(), zero, zero))
    z = Mat3(field, (zero, zero, one,
                     zero, -one, zero,
                     one, zero, zero))
    return x, y, z


def _even_matrices(field: Field, a: FieldElem, b: FieldElem):
    one, zero = field.one, field.zero
    a_inv = a.inv()
    bq = b.frobenius(field.f)
    bq1 = b * bq
    x = Mat3(field, (b, one, one,
                     bq, zero, one,
                     bq1, b, bq))
    y = Mat3(field, (a * b + a_inv * bq, zero,
                     a * (b + bq1) + a_inv * (bq + bq1),
                     zero, one, zero,
                     a + a_inv, zero, a * b + a_inv * bq))
    z = Mat3(field, (one, zero, one,
                     zero, one, zero,
                     zero, zero, one))
    return x, y, z


def check_connection_set(matrices) -> None:
    """Raise ConnectionSetError unless X, Y, Z lie in SU3(q) and project to
    three distinct involutions of PSU3(q): the hypothesis of the whole
    certificate, tested here only.

    Each must be in SU3(q), non-scalar and square to I (for a non-scalar
    matrix that is order 2), and no two may be equal up to a center scalar.
    """
    named = tuple(zip("XYZ", matrices))
    fld = matrices[0].field
    ident = Mat3.identity(fld)
    for name, m in named:
        if not is_special_unitary(m):
            raise ConnectionSetError(f"{name} is not in SU3({fld.q})")
        if m.is_scalar():
            raise ConnectionSetError(f"{name} projects to the identity")
        if m * m != ident:
            raise ConnectionSetError(f"{name} is not an involution")
    for (n1, m1), (n2, m2) in combinations(named, 2):
        if projectively_equal(m1, m2):
            raise ConnectionSetError(f"{n1} and {n2} coincide projectively")


def build_triple(cp: ConstructionParams) -> GeneratorTriple:
    """Materialize (X, Y, Z) and refuse them unless `check_connection_set`
    passes."""
    field = cp.field
    if cp.parity == "odd":
        x, y, z = _odd_matrices(field, cp.a, cp.b)
    else:
        x, y, z = _even_matrices(field, cp.a, cp.b)
    check_connection_set((x, y, z))
    return GeneratorTriple(cp, x, y, z)
