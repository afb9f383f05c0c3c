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
linalg), many in one stack, from the Frobenius twists of X, Y, Z, the
permuted targets and the centre scalars, one 9-row block per k.  The
first k blocks of a query's system depend only on the prefix pi, i,
c_1..c_k, so each prefix is reduced once and its basis serves every query
that extends it.  A prefix stops once its rank is 9: the only solution is
then D = 0, which is not invertible, so none of its queries has a
conjugator (see _rank_deficient).  That is the answer for every query
of a GRR triple; only a rank-deficient query has its nullspace scanned.

A fast path re-evaluates the characteristic-polynomial separation
conditions of the construction at the twist exponents an automorphism of
order 1, 2 or 3 can actually use ({0, f}, plus {2f/3, 4f/3} when 3 | f):
these separations are exactly the obstructions that rule the queries out
without solving any linear system.  The oracle, not the fast path, decides
the verdict.

A trivial Aut(G, S) with <S> = G makes Cay(G, S) a GRR when the graph is
normal (Godsil, Combinatorica 1, 1981).  For nonabelian simple G every
connected cubic Cayley graph is normal except two graphs on A47 (Fang, Li,
Wang and Xu, Discrete Math. 244, 2002; Xu, Fang, Wang and Li, European J.
Combin. 28, 2007), and PSU3(q), q >= 4, is nonabelian simple, not A47.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .construct import (ConstructionParams, GeneratorTriple,
                        separation_table)
from .gf import FieldElem
from .grouporder import PermGroupCertificate, expected_group_order
from .linalg import nullspace, rref_np
from .mat3 import (Mat3, intertwiner_np, standard_hermitian_form,
                   su3_center_scalars)

# candidate lines scanned per nullspace before giving up (never reached at
# the field sizes this package certifies)
LINE_ENUM_LIMIT = 2_000_000

NONTRIVIAL_PERMS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

class PreconditionUnmet(RuntimeError):
    """Automorphism certification requires a generation certificate."""


class TwistedConjugacyQuery(NamedTuple):
    source: tuple[Mat3, Mat3, Mat3]
    target: tuple[Mat3, Mat3, Mat3]
    twist: int
    scalars: tuple[FieldElem, FieldElem, FieldElem]


class FastPathEntry(NamedTuple):
    condition: str
    twist: int | None
    relevant: bool
    holds: bool


class OracleEntry(NamedTuple):
    perm: tuple[int, int, int]
    twist: int
    scalars: tuple[str, str, str]
    conjugator_found: bool


class AutCertificate(NamedTuple):
    fast_path: list[FastPathEntry]
    oracle_path: list[OracleEntry]
    verdict: str            # "trivial" | "nontrivial"
    witness: Mat3 | None = None
    witness_query: OracleEntry | None = None

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
    relevant = proof_twist_exponents(fld.f)
    return [FastPathEntry(cond, i, i is None or i in relevant, holds)
            for cond, i, holds in separation_table(
                fld, cp.parity, cp.a, cp.b, range(2 * fld.f))]


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


def intertwiner_rows(query: TwistedConjugacyQuery):
    """The 27 x 9 index array of the equations A'_k D - c_k D B_k = 0.

    Rows 9k .. 9k + 8 (k = 0, 1, 2) are block k, made by mat3.intertwiner_np
    from A'_k = A_k^(phi^twist), B_k and c_k; column 3w + v is the unknown
    D_wv.
    """
    fld = query.source[0].field
    twisted = [a.frobenius(query.twist).flat_indices for a in query.source]
    target = [b.flat_indices for b in query.target]
    scalars = [c.index for c in query.scalars]
    return intertwiner_np(fld, np.array(twisted), np.array(target),
                          np.array(scalars)).reshape(-1, 9)


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


def _rank_deficient(source, centers) -> np.ndarray:
    """Positions in the sweep of the queries whose system has rank below 9.

    The sweep runs over NONTRIVIAL_PERMS, then the twists i in 0..2f-1,
    then itertools.product(centers, repeat=3), as aut_group_trivial does:
    with C centres, query (perm, i, c0, c1, c2) is at position
    ((perm . 2f + i) . C + c0) . C^2 + c1 . C + c2.  Its block k is
    A_k^(phi^i) (x) I - c_k I (x) B_k^T with B = source permuted
    (mat3.intertwiner_np).

    Blocks 0..k depend only on the prefix (perm, i, c0..ck), and so does
    the reduced echelon basis of their rows, which is unique whatever the
    order of the rows or the other systems of the stack.  So level k
    reduces each prefix live after level k - 1 once per c_k, its basis
    stacked over block k, the whole level in one rref_np stack, and that
    basis serves every query extending the prefix.  A level of a GRR
    triple holds at most 5 . 2f . C systems (210 at q = 128), and one of a
    degenerate triple at most 5 . 2f . C^3 (810 at q = 8, about 1 MB).  A
    prefix that reaches rank 9 is dropped, which settles all its queries:
    its basis spans GF(q^2)^9, so no later row changes the row space, and
    the only solution is D = 0, which is not invertible.  The prefixes
    live after block 2 are the queries of rank below 9, in ascending
    order; for a GRR triple, none.  For involutions only c_k = 1 keeps a
    prefix live, as A'_k D = c D B_k has only D = 0 when the spectra +-1
    and +-c are disjoint; the code does not rely on it.
    """
    fld = source[0].field
    twists = np.array([[a.frobenius(i).flat_indices for a in source]
                       for i in range(2 * fld.f)])
    targets = np.array([[source[j].flat_indices for j in perm]
                        for perm in NONTRIVIAL_PERMS])
    scalars = np.array([c.index for c in centers])
    n = len(centers)
    blocks = [intertwiner_np(fld, twists[None, :, None, k],
                             targets[:, None, None, k],
                             scalars).reshape(-1, n, 9, 9)
              for k in range(3)]
    live = np.arange(len(targets) * len(twists))
    basis = np.zeros((len(live), 0, 9), dtype=np.int64)
    for k in range(3):
        ext = (live[:, None] * n + np.arange(n)).ravel()
        block = blocks[k][ext // n ** (k + 1), ext % n]
        reduced, rank = rref_np(
            np.concatenate([basis.repeat(n, axis=0), block], axis=1), fld)
        keep = rank < 9
        live, basis = ext[keep], reduced[keep, :9]
    return live


def aut_group_trivial(t: GeneratorTriple,
                      generation: PermGroupCertificate | None) -> AutCertificate:
    """Sweep all 5 x 2f x gcd(3,q+1)^3 twisted-conjugacy queries.

    The verdict is "trivial" iff no query has a conjugator.  Soundness of a
    "nontrivial" verdict is immediate (the witness is returned and has been
    re-verified); soundness of "trivial" additionally needs the triple to
    generate, which is why a matching generation certificate is required.

    The systems of the sweep are reduced one stack per block level
    (_rank_deficient); a query whose system has full rank 9 has no
    conjugator, and only the others go to solve_twisted_conjugacy.
    """
    fld = t.field
    expected = expected_group_order(fld.q)
    if generation is None or generation.order != expected:
        raise PreconditionUnmet(
            "automorphism triviality needs a generation certificate with "
            f"order {expected}")
    mats = t.matrices
    centers = su3_center_scalars(fld)
    names = [c.to_str() for c in centers]
    combos = [(js, tuple(names[j] for j in js))
              for js in itertools.product(range(len(centers)), repeat=3)]
    fast_path = fast_charpoly_check(t.params)
    deficient = set(_rank_deficient(mats, centers).tolist())
    oracle_path = []
    witness = witness_query = None
    queries = itertools.product(NONTRIVIAL_PERMS, range(2 * fld.f), combos)
    for n, (perm, i, (js, combo_names)) in enumerate(queries):
        found = None
        if n in deficient:
            target = tuple(mats[j] for j in perm)
            scalars = tuple(centers[j] for j in js)
            query = TwistedConjugacyQuery(mats, target, i, scalars)
            found = solve_twisted_conjugacy(query)
        entry = OracleEntry(perm, i, combo_names, found is not None)
        oracle_path.append(entry)
        if found is not None and witness is None:
            witness, witness_query = found, entry
    return AutCertificate(
        fast_path=fast_path, oracle_path=oracle_path,
        verdict="trivial" if witness is None else "nontrivial",
        witness=witness, witness_query=witness_query)
