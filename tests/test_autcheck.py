"""Twisted-conjugacy oracle and the automorphism-triviality sweep."""

import random
import tracemalloc
from math import gcd

import pytest

from psu3grr.autcheck import (AutCertificate, OracleEntry, PreconditionUnmet,
                              TwistedConjugacyQuery, aut_group_trivial,
                              fast_charpoly_check, proof_twist_exponents,
                              solve_twisted_conjugacy)
from psu3grr.construct import (GeneratorTriple, build_triple,
                               charpoly_coeffs, search_params)
from psu3grr.gf import field
from psu3grr.grouporder import group_order
from psu3grr.mat3 import standard_hermitian_form


def _pipeline(p, f):
    F = field(p, f)
    cp = search_params(F)
    t = build_triple(cp)
    return F, cp, t


def test_proof_twist_exponents():
    assert proof_twist_exponents(1) == (0, 1)
    assert proof_twist_exponents(2) == (0, 2)
    assert proof_twist_exponents(3) == (0, 2, 3, 4)
    assert proof_twist_exponents(4) == (0, 4)
    assert proof_twist_exponents(6) == (0, 4, 6, 8)


def test_identity_query_finds_conjugator():
    F, cp, t = _pipeline(5, 1)
    one = F.one
    q = TwistedConjugacyQuery(t.matrices, t.matrices, 0, (one, one, one))
    d = solve_twisted_conjugacy(q)
    assert d is not None
    d_inv = d.inverse()
    for m in t.matrices:
        assert d_inv * m * d == m


def test_single_pair_sanity_z_to_y():
    """(Z, Y) alone are conjugate by a diagonal similitude; the solver must
    find a witness and the witness must verify by direct multiplication."""
    F, cp, t = _pipeline(5, 1)
    one = F.one
    q = TwistedConjugacyQuery((t.Z,), (t.Y,), 0, (one,))
    d = solve_twisted_conjugacy(q)
    assert d is not None
    assert d.inverse() * t.Z * d == t.Y


def test_inner_twisted_positive_instances():
    """Conjugating the triple by a group element must always be detected."""
    F, cp, t = _pipeline(5, 1)
    one = F.one
    rng = random.Random(0xA5A5)
    for _ in range(20):
        r = t.matrices[rng.randrange(3)]
        for _ in range(11):
            r = r * t.matrices[rng.randrange(3)]
        r_inv = r.inverse()
        target = tuple(r_inv * m * r for m in t.matrices)
        q = TwistedConjugacyQuery(t.matrices, target, 0, (one, one, one))
        d = solve_twisted_conjugacy(q)
        assert d is not None
        d_inv = d.inverse()
        for m, b in zip(t.matrices, target):
            assert d_inv * m * d == b


def test_not_conjugate_is_a_result():
    """A permuted target with no automorphism behind it yields None."""
    F, cp, t = _pipeline(5, 1)
    one = F.one
    target = (t.Y, t.X, t.Z)
    found = []
    for i in range(2 * F.f):
        q = TwistedConjugacyQuery(t.matrices, target, i, (one, one, one))
        found.append(solve_twisted_conjugacy(q) is not None)
    assert not any(found)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (3, 2)])
def test_aut_sweep_trivial(p, f):
    F, cp, t = _pipeline(p, f)
    cert_g = group_order(t)
    cert = aut_group_trivial(t, cert_g)
    assert cert.verdict == "trivial"
    assert cert.witness is None
    assert len(cert.oracle_path) == 5 * 2 * f * gcd(3, F.q + 1) ** 3
    assert cert.fast_path_holds


def test_fast_path_entries_structure():
    F, cp, t = _pipeline(2, 3)
    entries = fast_charpoly_check(cp)
    twisted = [e for e in entries if e.twist is not None]
    untwisted = [e for e in entries if e.twist is None]
    # two twisted families at each of 2f exponents, two untwisted conditions
    assert len(twisted) == 2 * (2 * F.f)
    assert len(untwisted) == 2
    relevant = set(proof_twist_exponents(F.f))
    for e in twisted:
        assert e.relevant == (e.twist in relevant)
        if e.relevant:
            assert e.holds
    for e in untwisted:
        assert e.relevant and e.holds


@pytest.mark.parametrize("p", [3, 5])
def test_odd_exponent_set_covers_every_twist(p):
    """At q = p^3 the search checks the twists (0, 1, 2) and an
    automorphism can use (0, 2, 3, 4).  Every odd coefficient lies in
    GF(q), so x -> x^q fixes it, each condition holds at twist i exactly
    when it holds at i mod f, and every relevant fast-path entry holds."""
    F, cp, t = _pipeline(p, 3)
    assert cp.exponent_set == (0, 1, 2)
    assert proof_twist_exponents(F.f) == (0, 2, 3, 4)
    coeffs = charpoly_coeffs(F, cp.parity, cp.a, cp.b)
    assert all(c.frobenius(F.f) == c for c in coeffs.values())
    entries = fast_charpoly_check(cp)
    at = {(e.condition, e.twist): e.holds for e in entries}
    for e in entries:
        if e.twist is not None:
            assert e.holds == at[e.condition, e.twist % F.f]
    assert all(e.holds for e in entries if e.relevant)


def test_fast_path_detects_lost_obstruction():
    """Forcing a = 1 kills the xy/xz separation; the entry must go false."""
    F, cp, t = _pipeline(5, 1)
    broken = type(cp)(cp.field, cp.parity, cp.b, F.one, cp.exponent_set, 0)
    entries = fast_charpoly_check(broken)
    bad = [e for e in entries if e.condition == "xy-xz"]
    assert bad and not bad[0].holds


def test_degenerate_triple_has_nontrivial_symmetry():
    """With z = x the transposition swapping them is witnessed (identity
    conjugator works), so the sweep must return nontrivial."""
    F, cp, t = _pipeline(5, 1)
    degenerate = GeneratorTriple(cp, t.X, t.Y, t.X)
    cert_g = group_order(t)  # any valid certificate satisfies the gate
    cert = aut_group_trivial(degenerate, cert_g)
    assert cert.verdict == "nontrivial"
    assert cert.witness is not None
    assert cert.witness_query.perm == (2, 1, 0)
    # the first conjugator in sweep order, as the query-by-query sweep found
    assert cert.witness.to_str() == "0,1 2,0 2,4;4,0 3,2 3,0;3,1 1,0 0,1"
    assert cert.witness_query == OracleEntry((2, 1, 0), 0, ("1,0",) * 3, True)
    assert [e.conjugator_found for e in cert.oracle_path].count(True) == 2
    assert len(cert.oracle_path) == 270


def test_sweep_memory_is_bounded():
    """The q = 8 sweep (810 queries) reduces shared block prefixes one
    level at a time, 90 systems to a level's stack, so its allocations
    stay small."""
    F, cp, t = _pipeline(2, 3)
    cert_g = group_order(t)
    aut_group_trivial(t, cert_g)
    tracemalloc.start()
    try:
        cert = aut_group_trivial(t, cert_g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.oracle_path) == 810 and cert.verdict == "trivial"
    assert peak < 1.5 * 2 ** 20, peak


def test_generation_certificate_is_required():
    F, cp, t = _pipeline(5, 1)
    with pytest.raises(PreconditionUnmet):
        aut_group_trivial(t, None)
    bogus = group_order(build_triple(search_params(field(2, 2))))
    with pytest.raises(PreconditionUnmet):
        aut_group_trivial(t, bogus)


def test_scalar_matching_forces_plain_equality():
    """If l^3 -+ sC l^2 + s^2 C l -+ s^3 equals l^3 -+ C' l^2 + C' l -+ 1
    for some scalar s, then s^3 = 1 and sC = s^2 C = C', which forces s = 1
    and C = C' as soon as C is nonzero.  This is why the fast path compares
    plain coefficient values: checked exhaustively over the cube roots."""
    for p, f in [(5, 1), (2, 2)]:
        F = field(p, f)
        one = F.one
        cubes = [s for s in list(F.elements())[1:] if s ** 3 == one]
        for c in list(list(F.elements())[1:])[:40]:
            for cp in list(list(F.elements())[1:])[:40]:
                solvable = any(s * c == cp and s * s * c == cp and
                               s ** 3 == one for s in cubes)
                assert solvable == (c == cp)


def test_witnesses_are_similitudes():
    """Returned conjugators must scale the Hermitian form."""
    F, cp, t = _pipeline(5, 1)
    one = F.one
    w = standard_hermitian_form(F)
    q = TwistedConjugacyQuery(t.matrices, t.matrices, 0, (one, one, one))
    d = solve_twisted_conjugacy(q)
    prod = d.conj_transpose() * w * d
    c = prod.e[2] / w.e[2]
    assert c and prod == w.scalar_mul(c)
