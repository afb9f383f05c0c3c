"""Acceptance suite: one test per certification criterion.

Each test prints a PASS line when its criterion holds, so a verbose run
doubles as a human-readable certificate summary:

    pytest tests/test_acceptance.py -v -s
"""

import random
from math import gcd

import numpy as np
import pytest

from psu3grr.autcheck import TwistedConjugacyQuery, aut_group_trivial, \
    solve_twisted_conjugacy
from psu3grr.cayley import build_graph, export_graph, import_edge_list
from psu3grr.cli import RunConfig, run_certify, run_negative_control_q3
from psu3grr.construct import (build_triple, charpoly_coeffs,
                               exponent_set, require_supported,
                               search_params)
from psu3grr.gf import field
from psu3grr.grouporder import (commutant_dimension, dihedral_image_order,
                                expected_group_order, group_order,
                                invariant_subspace_test)
from psu3grr.mat3 import is_special_unitary, matrix_order, projective_order, \
    Mat3

# every q the construction is exercised at: (p, f) pairs
ALL_QS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3),
          (2, 2), (2, 3), (2, 4), (2, 5)]
# q <= 16: permutation degree q^3 + 1 <= 4097, desk-scale certification
SMALL_QS = [(p, f) for (p, f) in ALL_QS if p ** f <= 16]


def ok(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def pipelines():
    """search + construct for every q; order certificates for q <= 16."""
    out = {}
    for p, f in ALL_QS:
        F = field(p, f)
        cp = search_params(F)
        t = build_triple(cp)
        entry = {"field": F, "params": cp, "triple": t}
        if (p, f) in SMALL_QS:
            entry["order_cert"] = group_order(t)
        out[F.q] = entry
    return out


def test_criterion_1_parameter_existence(pipelines):
    for q, entry in sorted(pipelines.items()):
        cp = entry["params"]
        assert cp.a_census >= 1
        target = q - 1 if cp.parity == "odd" else q + 1
        assert cp.a.order() == target
        assert cp.b + cp.b.frobenius(entry["field"].f) == entry["field"].one
    qs = sorted(pipelines)
    ok(1, f"valid (a, b) with census >= 1 for q in {qs}")


def test_criterion_2_construction_integrity(pipelines):
    for q, entry in sorted(pipelines.items()):
        F, cp, t = entry["field"], entry["params"], entry["triple"]
        ident = Mat3.identity(F)
        for m in t.matrices:
            assert is_special_unitary(m)
            assert m * m == ident
            assert projective_order(m) == 2
            assert matrix_order(m) == 2
        if cp.parity == "odd":
            assert projective_order(t.Y * t.Z) == q - 1
        else:
            assert projective_order(t.Z * t.Y) == q + 1
    ok(2, "SU3 membership, involution orders, rotation order q-+1 at all q")


def test_criterion_3_characteristic_polynomials(pipelines):
    for q, entry in sorted(pipelines.items()):
        F, cp, t = entry["field"], entry["params"], entry["triple"]
        coeffs = charpoly_coeffs(F, cp.parity, cp.a, cp.b)
        if cp.parity == "odd":
            products = {"yz": t.Y * t.Z, "xy": t.X * t.Y, "xz": t.X * t.Z}
        else:
            products = {"zy": t.Z * t.Y, "zx": t.Z * t.X, "xy": t.X * t.Y}
        for key, mat in products.items():
            poly = mat.char_poly()
            assert poly.c2 == -coeffs[key], (q, key)
            assert poly.c1 == coeffs[key], (q, key)
            assert poly.c0 == -F.one, (q, key)
    ok(3, "char polys of the generator products match the coefficient "
          "formulas at all q")


def test_criterion_4_irreducibility(pipelines):
    for q, entry in sorted(pipelines.items()):
        assert invariant_subspace_test(entry["triple"]), q
        assert commutant_dimension(entry["triple"]) == 1, q
    ok(4, "no invariant subspace and scalar commutant at all q")


def test_criterion_5_generation(pipelines):
    for q, entry in sorted(pipelines.items()):
        if "order_cert" not in entry:
            continue
        cert = entry["order_cert"]
        expected = expected_group_order(q)
        assert cert.order == expected, q
        assert cert.degree == q ** 3 + 1
        parity = entry["params"].parity
        dihedral = dihedral_image_order(entry["triple"])
        assert dihedral == (2 * (q - 1) if parity == "odd" else 2 * (q + 1))
    qs = sorted(q for q, e in pipelines.items() if "order_cert" in e)
    ok(5, f"exact group order q^3(q^3+1)(q^2-1)/gcd(3,q+1) and dihedral "
          f"2(q-+1) for q in {qs}")


def test_criterion_6_aut_triviality(pipelines):
    rng = random.Random(0x5EED)
    for q, entry in sorted(pipelines.items()):
        if "order_cert" not in entry:
            continue
        F, t = entry["field"], entry["triple"]
        cert = aut_group_trivial(t, entry["order_cert"])
        assert cert.verdict == "trivial", q
        assert len(cert.oracle_path) == 5 * 2 * F.f * gcd(3, q + 1) ** 3, q
        assert cert.fast_path_holds, q
        # soundness spot check: inner-twisted positive instances
        one = F.one
        for _ in range(20):
            r = t.matrices[rng.randrange(3)]
            for _ in range(9):
                r = r * t.matrices[rng.randrange(3)]
            r_inv = r.inverse()
            target = tuple(r_inv * m * r for m in t.matrices)
            query = TwistedConjugacyQuery(t.matrices, target, 0,
                                          (one, one, one))
            d = solve_twisted_conjugacy(query)
            assert d is not None, q
            d_inv = d.inverse()
            for m, b in zip(t.matrices, target):
                assert d_inv * m * d == b
    qs = sorted(q for q, e in pipelines.items() if "order_cert" in e)
    ok(6, f"automorphism sweep trivial (all 5 x 2f x gcd^3 queries) and 20 "
          f"positive controls per q for q in {qs}")


def test_criterion_7_grr_verdict():
    confirmed = []
    for p, f in SMALL_QS:
        cert, code = run_certify(RunConfig(p, f))
        assert code == 0, (p, f)
        assert cert["verdict"] == "GRR_CONFIRMED", (p, f)
        confirmed.append(p ** f)
    ok(7, f"run_certify returns GRR_CONFIRMED for q in {sorted(confirmed)}")


def test_criterion_8_cayley_graph_structure(pipelines):
    expected = {4: (62400, 93600), 5: (126000, 189000)}
    for q, (nv, ne) in sorted(expected.items()):
        entry = pipelines[q]
        g = build_graph(entry["triple"], expected_group_order(q))
        assert (g.vertex_count, len(g.edges)) == (nv, ne)
        degree = [0] * g.vertex_count
        adj = [[] for _ in range(g.vertex_count)]
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
            adj[u].append(v)
            adj[v].append(u)
        assert set(degree) == {3}
        seen = bytearray(g.vertex_count)
        seen[0] = 1
        frontier = [0]
        count = 1
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        count += 1
                        nxt.append(v)
            frontier = nxt
        assert count == g.vertex_count
        data = export_graph(g, "edge-list")
        n2, edges2 = import_edge_list(data)
        assert n2 == g.vertex_count and np.array_equal(edges2, g.edges)
    ok(8, "graphs for q=4 (62400, 93600) and q=5 (126000, 189000): "
          "3-regular, connected, lossless export round-trip")


def test_criterion_9_negative_control_q3():
    report = run_negative_control_q3()
    assert report["group_order"] == 6048
    assert report["generating_triples_found"] == 0
    assert report["max_proper_subgroup_order"] < 6048
    ok(9, f"no involution triple generates PSU3(3); "
          f"{report['triples_tested']} conjugacy-reduced triples tested, "
          f"max proper subgroup order {report['max_proper_subgroup_order']}")


def test_criterion_10_counting_bounds():
    """Exclusion-set sizes behind parameter existence, checked exhaustively.

    Odd case, twist 0: at most 1 + 2 + 2 = 5 elements of order q-1 are
    excluded across the three separations.  Even case: each separation
    excludes at most 2 elements of order q+1 per twist, and the zero-trace
    set has at most 2.
    """
    for p, f in ALL_QS:
        F = field(p, f)
        parity = require_supported(F)
        one = F.one
        if parity == "odd":
            candidates = list(map(F.from_index, F.indices_of_order(F.q - 1)))
            for b in list(F.elements())[1:]:
                bq = b.frobenius(F.f)
                if b + bq != one or b == bq:
                    continue
                bq1 = b * bq
                s1 = s2 = s3 = 0
                for a in candidates:
                    lhs = a + a.inv() + one
                    if lhs == a + a.inv() * bq1:
                        s1 += 1
                    if lhs == one + bq1:
                        s2 += 1
                    if a + a.inv() * bq1 == one + bq1:
                        s3 += 1
                assert s1 + s2 + s3 <= 5, (F.q, b.to_str())
        else:
            candidates = list(map(F.from_index, F.indices_of_order(F.q + 1)))
            I = exponent_set(f, parity)
            for b in list(F.elements())[1:]:
                bq = b.frobenius(F.f)
                if b + bq != one or b * bq == one:
                    continue
                coeffs = None
                for i in I:
                    s1 = s2 = 0
                    for a in candidates:
                        c = charpoly_coeffs(F, parity, a, b)
                        lhs = c["zx"].frobenius(i)
                        if lhs == c["zy"]:
                            s1 += 1
                        if lhs == c["xy"]:
                            s2 += 1
                    assert s1 <= 2 and s2 <= 2, (F.q, b.to_str(), i)
                s3 = s4 = 0
                for a in candidates:
                    c = charpoly_coeffs(F, parity, a, b)
                    if c["zy"] == c["xy"]:
                        s3 += 1
                    if not a + a.inv() + one:
                        s4 += 1
                assert s3 <= 2 and s4 <= 2, (F.q, b.to_str())
    ok(10, "exclusion-set bounds (<= 5 odd at twist 0; <= 2 per condition "
           "even) verified exhaustively for all q <= 32")
