"""Certify that no nontrivial automorphism preserves the connection set.

Every automorphism of PSU3(q) is a field twist phi^i (entrywise p^i-th
power, 0 <= i < 2f) followed by conjugation in PGU3(q).  An automorphism
preserving S = {x, y, z} setwise but not pointwise therefore yields a
nonidentity permutation pi of the triple, a twist exponent i, center
scalars c_k and a similitude D of the Hermitian form with

    D^-1 . (M_k)^(phi^i) . D = c_k * M_pi(k)     for k = 1, 2, 3.

The decisive oracle sweeps every nonidentity pi, every i in 0..2f-1 and
every central scalar choice, and decides each query exactly by solving the
27-equation linear intertwiner system for D and filtering the nullspace for
invertible similitudes.  Any witness found is re-verified by direct
multiplication before being reported.

The systems are built and row-reduced on field element indices (see
linalg), from the Frobenius twists of X, Y, Z computed once per twist
exponent.  Rows are made on demand and the elimination stops once the rank
is 9: the only solution is then D = 0, which is not invertible, so the
query has no conjugator.  That is the answer for every query of a GRR
triple, and most of them need only the first nine rows.

A fast path re-evaluates the characteristic-polynomial separation
conditions of the construction at the twist exponents an automorphism of
order 1, 2 or 3 can actually use ({0, f}, plus {2f/3, 4f/3} when 3 | f):
these separations are exactly the obstructions that rule the queries out
without solving any linear system.  The oracle, not the fast path, decides
the verdict.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .construct import (ConstructionParams, GeneratorTriple, TWISTED,
                        EVEN_CONDITIONS, ODD_CONDITIONS, charpoly_coeffs,
                        separated)
from .gf import FieldElem
from .grouporder import PermGroupCertificate, expected_group_order
from .linalg import nullspace
from .mat3 import Mat3, standard_hermitian_form, su3_center_scalars

# candidate lines scanned per nullspace before giving up (never reached at
# the field sizes this package certifies)
LINE_ENUM_LIMIT = 2_000_000

NONTRIVIAL_PERMS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


class PreconditionUnmet(RuntimeError):
    """Automorphism certification requires a generation certificate."""


@dataclass(frozen=True)
class TwistedConjugacyQuery:
    source: tuple[Mat3, Mat3, Mat3]
    target: tuple[Mat3, Mat3, Mat3]
    twist: int
    scalars: tuple[FieldElem, FieldElem, FieldElem]


@dataclass(frozen=True)
class FastPathEntry:
    condition: str
    twist: int | None
    relevant: bool
    holds: bool


@dataclass(frozen=True)
class OracleEntry:
    perm: tuple[int, int, int]
    twist: int
    scalars: tuple[str, str, str]
    conjugator_found: bool


@dataclass
class AutCertificate:
    fast_path: list[FastPathEntry]
    oracle_path: list[OracleEntry]
    verdict: str            # "trivial" | "nontrivial"
    witness: Mat3 | None = None
    witness_query: OracleEntry | None = None
    queries: int = 0

    @property
    def fast_path_holds(self) -> bool:
        return all(e.holds for e in self.fast_path if e.relevant)


def proof_twist_exponents(f: int) -> tuple[int, ...]:
    """Twist exponents available to an automorphism of order 1, 2 or 3.

    The outer twist group is cyclic of order 2f; its elements of order
    dividing 2 give {0, f}, order 3 adds {2f/3, 4f/3} when 3 divides f.
    """
    out = {0, f}
    if f % 3 == 0:
        out.update({2 * f // 3, 4 * f // 3})
    return tuple(sorted(out))


def fast_charpoly_check(cp: ConstructionParams) -> list[FastPathEntry]:
    """Evaluate every separation condition at every twist in 0..2f-1.

    Entries at exponents outside proof_twist_exponents are reported for
    completeness but flagged irrelevant: no automorphism can use them, and
    the construction does not promise they hold.
    """
    fld = cp.field
    relevant = set(proof_twist_exponents(fld.f))
    conds = ODD_CONDITIONS if cp.parity == "odd" else EVEN_CONDITIONS
    coeffs = charpoly_coeffs(fld, cp.parity, cp.a, cp.b)
    out = []
    for cond in conds:
        if cond in TWISTED:
            for i in range(2 * fld.f):
                holds = separated(coeffs, cond, i)
                out.append(FastPathEntry(cond, i, i in relevant, holds))
        else:
            holds = separated(coeffs, cond)
            out.append(FastPathEntry(cond, None, True, holds))
    return out


def _nullspace_lines(basis, fld):
    """Nonzero vectors of the span, one per projective line, in a fixed order.

    Vectors are normalised so the first nonzero coordinate over the basis
    is 1; with d basis vectors that is (|F|^d - 1)/(|F| - 1) candidates.
    """
    d = len(basis)
    n_lines = (fld.size ** d - 1) // (fld.size - 1)
    if n_lines > LINE_ENUM_LIMIT:
        raise RuntimeError(
            f"intertwiner space of dimension {d} has {n_lines} lines, "
            "beyond the scan bound")
    zero, one = fld.zero, fld.one
    for lead in range(d):
        free = d - lead - 1
        for tail in itertools.product(fld.elements(), repeat=free):
            coeffs = [zero] * lead + [one] + list(tail)
            vec = [zero] * len(basis[0])
            for c, bvec in zip(coeffs, basis):
                if c:
                    vec = [x + c * y for x, y in zip(vec, bvec)]
            yield vec


def _is_form_similitude(d: Mat3) -> bool:
    """conj_transpose(D) . W . D = c . W for some nonzero scalar c."""
    fld = d.field
    w = standard_hermitian_form(fld)
    prod = d.conj_transpose() * w * d
    # reference entry: first nonzero entry of W
    ref = next(k for k in range(9) if w.e[k])
    if not prod.e[ref]:
        return False
    c = prod.e[ref] / w.e[ref]
    return prod == w.scalar_mul(c)


@functools.lru_cache(maxsize=64)
def _twisted_indices(source: tuple[Mat3, ...], twist: int):
    """Flat entry indices of each A^(phi^twist), A in source.

    Cached, so a sweep computes the Frobenius twists of X, Y, Z once per
    twist exponent instead of once per query.
    """
    return tuple(a.frobenius(twist).flat_indices for a in source)


def intertwiner_rows(query: TwistedConjugacyQuery):
    """Yield the rows of A'_k D - c_k D B_k = 0, as element indices.

    One row per (k, u, v), over the nine unknowns D_{wv} (column 3w + v):
    (A' D)_{uv} has coefficient A'_{uw} at D_{wv}, and (D B)_{uv} has
    coefficient B_{wv} at D_{uw}.  Rows are made as the elimination asks
    for them, so the rows after the system reaches full rank are never
    built.
    """
    fld = query.source[0].field
    add, mul, neg = fld.add_index, fld.mul_index, fld.neg_index
    twisted = _twisted_indices(query.source, query.twist)
    for at, b, c in zip(twisted, query.target, query.scalars):
        ncb = [neg(mul(c.index, x)) for x in b.flat_indices]
        for u in range(3):
            for v in range(3):
                row = [0] * 9
                for w in range(3):
                    row[3 * w + v] = at[3 * u + w]
                for w in range(3):
                    row[3 * u + w] = add(row[3 * u + w], ncb[3 * w + v])
                yield row


def solve_twisted_conjugacy(query: TwistedConjugacyQuery) -> Mat3 | None:
    """Find D with D^-1 . A_k^(phi^i) . D = c_k . B_k, or certify none exists.

    The equation system A'_k D - c_k D B_k = 0 is linear in the nine entries
    of D; the nullspace is scanned (one representative per line) for an
    invertible similitude of the form.  Every returned witness has been
    checked by direct multiplication.
    """
    fld = query.source[0].field
    rows = intertwiner_rows(query)
    basis = nullspace(rows, 9, fld)
    if not basis:
        return None
    for vec in _nullspace_lines(basis, fld):
        d = Mat3(fld, tuple(vec))
        if not d.det():
            continue
        if not _is_form_similitude(d):
            continue
        d_inv = d.inverse()
        for a, b, c in zip(query.source, query.target, query.scalars):
            if d_inv * a.frobenius(query.twist) * d != b.scalar_mul(c):
                raise AssertionError("solver produced an unsound witness")
        return d
    return None


def aut_group_trivial(t: GeneratorTriple,
                      generation: PermGroupCertificate | None) -> AutCertificate:
    """Sweep all 5 x 2f x gcd(3,q+1)^3 twisted-conjugacy queries.

    The verdict is "trivial" iff no query has a conjugator.  Soundness of a
    "nontrivial" verdict is immediate (the witness is returned and has been
    re-verified); soundness of "trivial" additionally needs the triple to
    generate, which is why a matching generation certificate is required.
    """
    fld = t.field
    expected = expected_group_order(fld.q)
    if generation is None or generation.order != expected:
        raise PreconditionUnmet(
            "automorphism triviality needs a generation certificate with "
            f"order {expected}")
    mats = t.matrices
    centers = su3_center_scalars(fld)
    cert = AutCertificate(fast_path=fast_charpoly_check(t.params),
                          oracle_path=[], verdict="trivial")
    for perm in NONTRIVIAL_PERMS:
        target_base = tuple(mats[perm[k]] for k in range(3))
        for i in range(2 * fld.f):
            for scalars in itertools.product(centers, repeat=3):
                query = TwistedConjugacyQuery(mats, target_base, i, scalars)
                witness = solve_twisted_conjugacy(query)
                entry = OracleEntry(perm, i,
                                    tuple(s.to_str() for s in scalars),
                                    witness is not None)
                cert.oracle_path.append(entry)
                cert.queries += 1
                if witness is not None and cert.witness is None:
                    cert.verdict = "nontrivial"
                    cert.witness = witness
                    cert.witness_query = entry
    return cert
