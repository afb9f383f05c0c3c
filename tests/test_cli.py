"""CLI driver: pipeline orchestration, JSON output, exit codes."""

import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import psu3grr
from psu3grr import cli, grouporder, mat3
from psu3grr.autcheck import OracleEntry
from psu3grr.cli import (EXIT_OK, EXIT_REFUSED, EXIT_STAGE_FAILED, RunConfig,
                         VERDICT_STAGES, _close_stages, certificate_hash,
                         main, run_certify, run_negative_control_q3,
                         stable_json)
from psu3grr.construct import build_triple, search_params
from psu3grr.gf import field
from psu3grr.grouporder import group_order


def test_stage_closure():
    assert _close_stages(("order",)) == ("search", "construct", "order")
    assert _close_stages(("aut",)) == ("search", "construct", "order", "aut")
    assert _close_stages(("graph", "irreducible")) == (
        "search", "construct", "order", "irreducible", "graph")
    with pytest.raises(ValueError):
        _close_stages(("bogus",))


def test_certify_q5_confirmed():
    cert, code = run_certify(RunConfig(5, 1))
    assert code == EXIT_OK
    assert cert["verdict"] == "GRR_CONFIRMED"
    assert cert["q"] == 5
    assert list(cert["stages_run"]) == list(VERDICT_STAGES)
    order = cert["stages"]["order"]
    assert order["order"] == order["expected_order"] == 126000
    assert order["degree"] == 126
    aut = cert["stages"]["aut"]
    assert aut["verdict"] == "trivial" and aut["queries"] == 270
    assert cert["certificate_hash"] == certificate_hash(cert)


def test_certify_q4_confirmed_with_graph():
    cert, code = run_certify(RunConfig(2, 2, stages=VERDICT_STAGES + ("graph",)))
    assert code == EXIT_OK
    assert cert["verdict"] == "GRR_CONFIRMED"
    g = cert["stages"]["graph"]
    assert g["vertices"] == 62400 and g["edges"] == 93600
    assert g["edge_list_sha256"] == GRAPH_HASHES[4][1]


@pytest.mark.parametrize("p,f", [(3, 1), (2, 1)])
def test_certify_refuses_out_of_scope_q(p, f):
    cert, code = run_certify(RunConfig(p, f))
    assert code == EXIT_REFUSED
    assert cert["verdict"] == "REFUSED"
    assert cert["reason"] == "UnsupportedQ"
    assert cert["stages_run"] == []


def test_partial_run_gives_no_verdict():
    cert, code = run_certify(RunConfig(5, 1, stages=("search",)))
    assert code == EXIT_OK
    assert cert["verdict"] == "INCOMPLETE"
    assert cert["stages_run"] == ["search"]


def test_certificates_are_deterministic():
    a, _ = run_certify(RunConfig(5, 1))
    b, _ = run_certify(RunConfig(5, 1))
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_order_gate_for_large_degree():
    # q = 131 has permutation degree 2248092, above the default gate
    cert, code = run_certify(RunConfig(131, 1))
    assert code == EXIT_STAGE_FAILED
    assert cert["verdict"] == "FAILED"
    assert "allow-large-order" in cert["detail"]
    assert cert["failed_stage"] == "order"


def test_order_degree_gate_refuses_q131(capsys):
    # q = 131 has permutation degree 2248092; the refusal keeps the stages
    # that passed and names the one that stopped
    code = main(["certify", "--p", "131", "--f", "1"])
    assert code == EXIT_STAGE_FAILED
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "FAILED"
    assert cert["stages_run"] == ["search", "construct"]
    assert all(cert["stages"][s]["status"] == "pass" for s in cert["stages_run"])
    assert "allow-large-order" in cert["detail"]
    assert "permutation degree 2248092" in cert["detail"]
    assert cert["failed_stage"] == "order"
    assert cert["certificate_hash"] == certificate_hash(cert)


@pytest.mark.parametrize("p,f,pairs", [(5, 1, 140), (2, 3, 251),
                                       (13, 1, 351), (2, 4, 366),
                                       (47, 1, 1868)])
def test_order_stage_schreier_pair_counts(p, f, pairs, monkeypatch):
    """Schreier pairs sifted by the order stage's one chain (the dihedral
    order is 2 ord(YZ), read off the rotation's matrix): every pair a level
    has had, |orbit| |gens|, less those left pending at the stop.
    perfbench/tracer.py reports this sum as grouporder.schreier_pairs."""
    chains = []
    chain_init = grouporder.StabilizerChain.__init__

    def capture(self, *args, **kwargs):
        chain_init(self, *args, **kwargs)
        chains.append(self)
    monkeypatch.setattr(grouporder.StabilizerChain, "__init__", capture)
    _, code = run_certify(RunConfig(p, f, stages=("order",)))
    assert code == EXIT_OK
    assert len(chains) == 1
    assert sum(len(lv.orbit) * len(lv.gens) - len(lv.pending)
               for chain in chains for lv in chain.levels) == pairs


def test_graph_vertex_gate_names_the_stage():
    cert, code = run_certify(RunConfig(7, 1, stages=("graph",)))
    assert code == EXIT_STAGE_FAILED
    assert cert["verdict"] == "FAILED"
    assert cert["stages_run"] == []
    assert "exceeds the default gate" in cert["detail"]
    assert cert["failed_stage"] == "graph"


# certificate_hash of `certify --stage irreducible` at q >= 49
BIG_FIELD_HASHES = {
    49: "b6bf3fa301df7e78b32df4d5421248ab4597e527b2c32d4195b246dbdc6488f9",
    64: "be014baea56bbeae776e81f354d0ad327b7835341f1baead362dc1730641063a",
    81: "036e3d06468e3a0cfd0dbfe528d153c664adfae569a65b60209e41b6b6cb3ff8",
}


@pytest.mark.parametrize("p,f", [(7, 2), (2, 6), (3, 4)])
def test_big_field_certificates_are_pinned(p, f):
    cert, code = run_certify(RunConfig(p, f, stages=("irreducible",)))
    assert code == EXIT_OK
    assert cert["verdict"] == "INCOMPLETE"
    assert cert["stages_run"] == ["search", "construct", "irreducible"]
    assert all(cert["stages"][s]["status"] == "pass" for s in cert["stages_run"])
    assert cert["certificate_hash"] == BIG_FIELD_HASHES[p ** f]


# certificate_hash of the full verdict run; it covers the aut stage's
# oracle_path, one entry per twisted-conjugacy query
VERDICT_HASHES = {
    4: "53c39d7bb6ba6e527f9a5ed6c8618de90ae76d65eb65b7ec0ab028282958a421",
    5: "c68483d69030cbb134c47101c64a2f18877ee50d0dd1fdf41232e80ca6b9522b",
    7: "9f194c55004ce51a36d69dfea676879a3a51b4973535fdc9fd5ea7aba3d51aa6",
    8: "028e63182b79219e4727e1c32e16f8fc7c9d4f9a4986b982eeb3881d50438f3a",
    9: "37f2e8cad9ad3c4ce3a7f1e5c6c01ea27304a91e2b276bd8f8fb8faa2129cd6f",
    11: "b5d6531af3f524074286b944fd2c5f0945784abab02e8877a3823657c2c2c3c7",
    13: "9ac08cb85286a2d091174bf61a44f16892422e5a8c779508c9347d69cea9b0b9",
    16: "a2df65090d876ec47cbfda28cca33c99537fdabfa92cc81935404b14b1cc1dab",
    27: "28a8f92ea530b366fb52d5a15fe3d81556d22a169d2f48856dad36d8e95accfe",
    32: "76ad14ad5176d5330eb7bc5cefe5ea24588deacd40bb0ac3925ebd72a0db0d4a",
    37: "38eb2f82fd414f624f61ba593ebc639be9b578fbc6000cfdc126bfb354599d96",
    49: "e7ae0c9ce7655f0f092d65bcb113f95a2ea07eb66ab563068ee5534b97e13621",
}


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4), (3, 3), (2, 5),
                                 (37, 1), (7, 2)])
def test_verdict_certificates_are_pinned(p, f):
    cert, code = run_certify(RunConfig(p, f))
    assert code == EXIT_OK
    assert cert["verdict"] == "GRR_CONFIRMED"
    assert cert["certificate_hash"] == VERDICT_HASHES[p ** f]


# (certificate_hash, edge_list_sha256) of `certify --stage graph`
GRAPH_HASHES = {
    4: ("a72f44c49a2c03f94b527ecd309b80d0008022d8a8cb2a46582e3062b0e573f2",
        "2ef87656d34ded88efbfc13768c57d075a538c0883b9e6993cdb8510a9454da1"),
    5: ("368068c2abb23d32ea476423b58a5aa97b14a9083f3a219330ae813bbc8a95be",
        "aafccf2f8fb910cdb7482f34b1c2aa3351e0f8ca230b3a290625917a34cb74a8"),
}


@pytest.mark.parametrize("p,f,nv,ne", [(2, 2, 62400, 93600),
                                       (5, 1, 126000, 189000)])
def test_graph_stage_certificates_are_pinned(p, f, nv, ne):
    cert, code = run_certify(RunConfig(p, f, stages=("graph",)))
    assert code == EXIT_OK
    assert cert["verdict"] == "INCOMPLETE"
    g = cert["stages"]["graph"]
    assert (g["status"], g["vertices"], g["edges"]) == ("pass", nv, ne)
    cert_hash, edge_hash = GRAPH_HASHES[p ** f]
    assert g["edge_list_sha256"] == edge_hash
    assert cert["certificate_hash"] == cert_hash


def test_main_search_params(capsys):
    assert main(["search-params", "--p", "5", "--f", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["q"] == 5 and doc["census"] >= 1
    assert doc["parity"] == "odd"


def test_main_construct(capsys):
    assert main(["construct", "--p", "2", "--f", "2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["Z"] == "1,0,0,0 0,0,0,0 1,0,0,0;0,0,0,0 1,0,0,0 0,0,0,0;" \
                       "0,0,0,0 0,0,0,0 1,0,0,0"


def test_main_certify_stage_subset(capsys):
    code = main(["certify", "--p", "5", "--f", "1", "--stage", "irreducible"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "INCOMPLETE"
    assert doc["stages_run"] == ["search", "construct", "irreducible"]
    assert doc["stages"]["irreducible"]["commutant_dimension"] == 1


def test_main_refusal_exit_code(capsys):
    assert main(["certify", "--p", "3", "--f", "1"]) == EXIT_REFUSED
    doc = json.loads(capsys.readouterr().out)
    assert doc["reason"] == "UnsupportedQ"


def test_main_jobs_validation(capsys):
    assert main(["certify", "--p", "5", "--f", "1", "--jobs", "0"]) == \
        EXIT_STAGE_FAILED


def test_main_export_graph(tmp_path, capsys):
    out = tmp_path / "q4.edges"
    code = main(["export-graph", "--p", "2", "--f", "2", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 62400
    data = out.read_bytes()
    assert data.startswith(b"p edge 62400 93600\n")
    assert len(data.splitlines()) == 93601
    assert hashlib.sha256(data).hexdigest() == doc["edge_list_sha256"] \
        == GRAPH_HASHES[4][1]


@pytest.mark.parametrize("argv", [
    ["certify", "--p", "2", "--f", "2", "--stage", "search"],
    ["export-graph", "--p", "2", "--f", "2"],
], ids=["certify", "export-graph"])
def test_unwritable_out_exits_3(argv, tmp_path, capsys):
    """An --out path in a missing directory is an error: line on stderr
    and exit 3, not a traceback."""
    out = tmp_path / "missing" / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_STAGE_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


@pytest.mark.parametrize("argv,name", [
    (["certify", "--p", "5", "--f", "1", "--stage", "order"], "x.json"),
    (["export-graph", "--p", "2", "--f", "2"], "x.edges"),
], ids=["certify", "export-graph"])
def test_unwritable_out_fails_before_any_stage(argv, name, monkeypatch,
                                               tmp_path, capsys):
    """--out is checked before the run: no stage (here the generation
    chain) runs for an output that could not be written."""
    def no_chain(*args, **kwargs):
        raise AssertionError("generation chain built before the --out check")
    monkeypatch.setattr(cli, "group_order", no_chain)
    out = tmp_path / "missing" / name
    assert main([*argv, "--out", str(out)]) == EXIT_STAGE_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


def test_unwritable_existing_out_fails_before_any_stage(monkeypatch,
                                                       tmp_path, capsys):
    """An existing --out file the user cannot write is refused before the
    run, and left as it was."""
    out = tmp_path / "x.json"
    out.write_text("kept\n")
    access = os.access

    def deny_out(path, mode, *args, **kwargs):
        if os.fspath(path) == str(out):
            return False
        return access(path, mode, *args, **kwargs)

    def no_chain(*args, **kwargs):
        raise AssertionError("generation chain built before the --out check")
    monkeypatch.setattr(os, "access", deny_out)
    monkeypatch.setattr(cli, "group_order", no_chain)
    argv = ["certify", "--p", "5", "--f", "1", "--stage", "order"]
    assert main([*argv, "--out", str(out)]) == EXIT_STAGE_FAILED
    err = capsys.readouterr().err
    assert err == f"error: --out {out} is not writable\n"
    assert out.read_text() == "kept\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")
def test_read_only_out_file_exits_3(tmp_path, capsys):
    out = tmp_path / "ro.json"
    out.write_text("kept\n")
    out.chmod(0o444)
    code = main(["certify", "--p", "2", "--f", "2", "--stage", "search",
                 "--out", str(out)])
    assert code == EXIT_STAGE_FAILED
    assert capsys.readouterr().err == f"error: --out {out} is not writable\n"
    assert out.read_text() == "kept\n"


def test_out_naming_a_directory_exits_3(monkeypatch, tmp_path, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("search ran before the --out check")
    monkeypatch.setattr(cli, "search_params", no_search)
    code = main(["certify", "--p", "5", "--f", "1", "--out", str(tmp_path)])
    assert code == EXIT_STAGE_FAILED
    err = capsys.readouterr().err
    assert err == f"error: --out {tmp_path} is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p,f,message", [
    (3, 3, "282056445216 vertices exceeds the default gate"),
    (7, 2, "33219371640000 vertices exceeds the default gate"),
])
def test_export_graph_refuses_before_the_chain(p, f, message, monkeypatch,
                                               tmp_path, capsys):
    def no_chain(*args, **kwargs):
        raise AssertionError("generation chain built before the graph gate")
    monkeypatch.setattr(cli, "group_order", no_chain)
    out = tmp_path / "graph.edges"
    code = main(["export-graph", "--p", str(p), "--f", str(f),
                 "--out", str(out)])
    assert code == EXIT_STAGE_FAILED
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p,f,message", [
    (3, 3, "282056445216 vertices exceeds the default gate"),
    (7, 2, "33219371640000 vertices exceeds the default gate"),
])
def test_certify_graph_refuses_before_the_chain(p, f, message, monkeypatch,
                                                capsys):
    def no_chain(*args, **kwargs):
        raise AssertionError("generation chain built before the graph gate")
    monkeypatch.setattr(cli, "group_order", no_chain)
    code = main(["certify", "--p", str(p), "--f", str(f), "--stage", "graph"])
    assert code == EXIT_STAGE_FAILED
    cert = json.loads(capsys.readouterr().out)
    assert (cert["verdict"], cert["failed_stage"]) == ("FAILED", "graph")
    assert cert["stages_run"] == [] and cert["stages"] == {}
    assert message in cert["detail"]


def test_main_out_file(tmp_path):
    out = tmp_path / "params.json"
    assert main(["search-params", "--p", "2", "--f", "3",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["q"] == 8


def test_stage_failure_keeps_diagnostics(monkeypatch):
    """A failing check still lands its stage fragment in the certificate."""
    import psu3grr.cli as cli
    monkeypatch.setattr(cli, "expected_group_order", lambda q: 1)
    cert, code = cli.run_certify(RunConfig(5, 1, stages=("order",)))
    assert code == EXIT_STAGE_FAILED
    assert cert["verdict"] == "FAILED"
    assert cert["failed_stage"] == "order"
    frag = cert["stages"]["order"]
    assert frag["status"] == "fail"
    assert frag["order"] == 126000 and frag["expected_order"] == 1


def _nontrivial_aut(t, order_cert):
    """A nontrivial aut certificate whose relevant fast-path entry fails:
    a failed check (exit 3), not an inconsistency (exit 4)."""
    from psu3grr.autcheck import AutCertificate, FastPathEntry
    entry = OracleEntry((1, 0, 2), 0, ("1", "1", "1"), True)
    return AutCertificate(
        fast_path=[FastPathEntry("xy-xz", 0, True, False)],
        oracle_path=[entry], verdict="nontrivial",
        witness=t.X, witness_query=entry)


@pytest.mark.parametrize("name,fake,stage,diagnostics", [
    ("projective_order",
     lambda m: 2 if mat3.projective_order(m) == 2 else 7, "construct",
     {"projective_orders": [2, 2, 2], "rotation_order": 7,
      "rotation_order_expected": 4}),
    ("dihedral_image_order", lambda t: 6, "order",
     {"order": 126000, "dihedral_order": 6, "dihedral_order_expected": 8}),
    ("commutant_dimension", lambda t: 2, "irreducible",
     {"invariant_subspace_test": True, "commutant_dimension": 2}),
    ("aut_group_trivial", _nontrivial_aut, "aut",
     {"verdict": "nontrivial", "fast_path_holds": False, "queries": 1,
      "witness_query": {"perm": [1, 0, 2], "twist": 0,
                        "scalars": ["1", "1", "1"]}}),
], ids=["rotation-order", "dihedral-order", "commutant", "aut-nontrivial"])
def test_runner_records_each_stage_failure(name, fake, stage, diagnostics,
                                           monkeypatch):
    """Each stage's failed check reaches the runner, which records the
    stage's fragment with status "fail" after the stages that passed."""
    monkeypatch.setattr(cli, name, fake)
    cert, code = run_certify(RunConfig(5, 1))
    assert code == EXIT_STAGE_FAILED
    assert cert["verdict"] == "FAILED"
    assert cert["failed_stage"] == stage
    assert cert["stages_run"][-1] == stage
    frag = cert["stages"][stage]
    assert frag["status"] == "fail"
    assert {k: frag[k] for k in diagnostics} == diagnostics
    assert all(cert["stages"][s]["status"] == "pass"
               for s in cert["stages_run"][:-1])
    assert cert["certificate_hash"] == certificate_hash(cert)


def test_internal_inconsistency_exit_code(monkeypatch):
    """Fast path holding while the oracle finds a witness is impossible;
    simulate it to pin the dedicated exit code."""
    import psu3grr.cli as cli
    from psu3grr.autcheck import AutCertificate, FastPathEntry, OracleEntry

    def fake_aut(t, cert):
        entry = OracleEntry((1, 0, 2), 0, ("1", "1", "1"), True)
        fake = AutCertificate(
            fast_path=[FastPathEntry("xy-xz", None, True, True)],
            oracle_path=[entry], verdict="nontrivial",
            witness=t.X, witness_query=entry)
        return fake

    monkeypatch.setattr(cli, "aut_group_trivial", fake_aut)
    cert, code = cli.run_certify(RunConfig(5, 1))
    assert code == cli.EXIT_INCONSISTENT
    assert cert["verdict"] == "INTERNAL_INCONSISTENCY"


def test_order_past_the_bound_is_an_internal_inconsistency(monkeypatch):
    """A chain that grows past |PSU3(q)| after X, Y, Z passed the SU3 check
    contradicts the bound argument, which is exit 4, not a stage failure."""
    import psu3grr.cli as cli
    from psu3grr import grouporder
    monkeypatch.setattr(grouporder, "expected_group_order", lambda q: 1000)
    cert, code = cli.run_certify(RunConfig(5, 1))
    assert code == cli.EXIT_INCONSISTENT
    assert cert["verdict"] == "INTERNAL_INCONSISTENCY"
    assert cert["failed_stage"] == "order"
    frag = cert["stages"]["order"]
    assert frag["status"] == "fail" and frag["degree"] == 126
    assert "exceeds the proven bound 1000" in cert["detail"]


def test_negative_control_report_shape():
    rep = run_negative_control_q3()
    assert rep["group_order"] == 6048
    assert rep["degree"] == 28
    assert rep["involution_count"] == 63
    assert rep["generating_triples_found"] == 0
    assert 0 < rep["max_proper_subgroup_order"] < 6048
    assert rep["verdict"] == "NO_GENERATING_INVOLUTION_TRIPLE"


def test_export_graph_past_the_bound_is_an_internal_inconsistency(
        monkeypatch, tmp_path, capsys):
    """export-graph runs the order stage of certify, so a generation chain
    past |PSU3(q)| is exit 4 there too, and no graph is written."""
    from psu3grr import grouporder
    monkeypatch.setattr(grouporder, "expected_group_order", lambda q: 1000)
    out = tmp_path / "q4.edges"
    code = main(["export-graph", "--p", "2", "--f", "2", "--out", str(out)])
    assert code == cli.EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert "INTERNAL_INCONSISTENCY" in err
    assert "exceeds the proven bound 1000" in err
    assert not out.exists()


def test_construct_runs_the_construct_checks(monkeypatch, capsys):
    """construct runs certify's construct stage: a wrong rotation or
    involution order fails it with certify's certificate and exit code."""
    monkeypatch.setattr(cli, "projective_order", lambda m: 7)
    code = main(["construct", "--p", "5", "--f", "1"])
    assert code == EXIT_STAGE_FAILED
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "FAILED"
    assert cert["failed_stage"] == "construct"
    assert cert["stages"]["construct"]["status"] == "fail"
    assert cert["certificate_hash"] == certificate_hash(cert)


# sha256 of the bytes `export-graph` writes, per (q, format)
EXPORT_HASHES = {
    (4, "edge-list"):
        "2ef87656d34ded88efbfc13768c57d075a538c0883b9e6993cdb8510a9454da1",
    (4, "adjacency"):
        "a0497a6440fe5e869926783749cc9e036ef5e40e0db9fa36bd21df8f4e0bd693",
    (5, "edge-list"):
        "aafccf2f8fb910cdb7482f34b1c2aa3351e0f8ca230b3a290625917a34cb74a8",
    (5, "adjacency"):
        "4d69edfc98f5593e0970acfc98c0442e0e93c27e503ba4afb8c0291b7a487bf3",
}


@pytest.mark.parametrize("p,f,fmt", [(2, 2, "edge-list"), (2, 2, "adjacency"),
                                     (5, 1, "edge-list"), (5, 1, "adjacency")])
def test_export_graph_bytes_are_pinned(p, f, fmt, tmp_path, capsys):
    out = tmp_path / "graph.txt"
    code = main(["export-graph", "--p", str(p), "--f", str(f),
                 "--format", fmt, "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["written"], doc["format"]) == (str(out), fmt)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        EXPORT_HASHES[p ** f, fmt]


def test_traced_run_still_wraps_every_layer():
    """perfbench/tracer.py rebinds names of the package (cli's stage
    callees, grouporder.nullspace, autcheck.solve_twisted_conjugacy, ...);
    renaming one of them breaks this traced q = 4 verdict.  A q = 4 graph
    run must trace the cayley callees, which cli imports on first use."""
    root = Path(__file__).resolve().parent.parent
    cases = [((), "GRR_CONFIRMED", {"autcheck.aut_group_trivial"}),
             (("--stage", "graph"), "INCOMPLETE",
              {"cayley.build_graph", "cayley.edge_list_sha256"})]
    for stages, verdict, callees in cases:
        proc = subprocess.run(
            [sys.executable, "perfbench/tracer.py", "--p", "2", "--f", "2",
             *stages],
            cwd=root, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["exit"], doc["cert"]["verdict"]) == (EXIT_OK, verdict)
        assert callees <= {span[0] for span in doc["spans"]}


def _run_process(*args, **env_changes):
    """A fresh `python args` process with this package first on its path;
    each keyword sets that environment variable, or unsets it if None."""
    src = str(Path(psu3grr.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


def _without_timestamp(text: bytes) -> bytes:
    return re.sub(rb'"generated_at": "[^"]*"', b"", text)


def test_process_entry_writes_what_main_writes(tmp_path, capsys):
    """`python -m psu3grr.cli` runs main and then freezes the heap before
    the interpreter exits; stdout and the --out file are still main's
    bytes.  main called in-process freezes nothing."""
    argv = ["certify", "--p", "2", "--f", "2"]
    frozen = gc.get_freeze_count()
    assert main(argv) == EXIT_OK
    assert gc.get_freeze_count() == frozen
    want = _without_timestamp(capsys.readouterr().out.encode())
    printed = _run_process("-m", "psu3grr.cli", *argv)
    assert (printed.returncode, printed.stderr) == (EXIT_OK, b"")
    assert _without_timestamp(printed.stdout) == want
    out = tmp_path / "cert.json"
    written = _run_process("-m", "psu3grr.cli", *argv, "--out", str(out))
    assert (written.returncode, written.stdout, written.stderr) == (
        EXIT_OK, b"", b"")
    assert _without_timestamp(out.read_bytes()) == want


@pytest.mark.parametrize("argv,code,err", [
    (["--p", "3", "--f", "1"], EXIT_REFUSED, b""),
    (["--p", "5", "--f", "1", "--jobs", "0"], EXIT_STAGE_FAILED,
     b"error: --jobs must be at least 1\n"),
], ids=["refused", "bad-jobs"])
def test_process_entry_exit_codes(argv, code, err):
    proc = _run_process("-m", "psu3grr.cli", "certify", *argv)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("p,f", [("10000000000000061", "1"),
                                 ("3", "30000000")])
def test_out_of_range_field_is_refused_at_once(p, f):
    """The field size gate comes before p^(2f) and the primality test, so
    a huge p or f exits 3 with its error line within a second."""
    start = time.perf_counter()
    proc = _run_process("-m", "psu3grr.cli", "certify", "--p", p, "--f", f)
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_STAGE_FAILED
    assert re.fullmatch(rb"error: .* above the supported bound .*\n",
                        proc.stderr), proc.stderr
    assert elapsed < 1, elapsed


# runs the process entry on its arguments, then prints the exit code,
# whether the heap is frozen, the package modules loaded, and whether
# OpenSSL's hashlib extension is loaded
_LOADED_MODULES = """
import contextlib, gc, io, json, sys
from psu3grr import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.entry()
print(json.dumps([code, gc.get_freeze_count() > 0,
                  sorted(m.partition(".")[2] for m in sys.modules
                         if m.startswith("psu3grr.")),
                  "_hashlib" in sys.modules]))
"""


@pytest.fixture(scope="module")
def numpy_loads_hashlib():
    """Whether a bare `import numpy` loads `_hashlib` in this interpreter:
    numpy 1.x imports numpy.random eagerly, which reaches it through
    secrets and hmac."""
    proc = _run_process("-c", "import sys, numpy; "
                        "print('_hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.lower())


@pytest.mark.parametrize("stages,used,unused,hashes_graph", [
    (["--stage", "irreducible"], "grouporder",
     {"autcheck", "cayley", "negcontrol"}, False),
    ([], "autcheck", {"cayley", "negcontrol"}, False),
    (["--stage", "graph"], "cayley", {"autcheck", "negcontrol"}, True),
], ids=["irreducible", "verdict", "graph"])
def test_a_run_loads_only_the_stage_modules_it_calls(stages, used, unused,
                                                     hashes_graph,
                                                     numpy_loads_hashlib):
    """cli imports autcheck, cayley and negcontrol on first use, so a fresh
    process compiles only the modules its stages call; the process entry
    leaves the heap frozen.  Only the graph stage may load OpenSSL (through
    hashlib) beyond what numpy itself loads."""
    proc = _run_process("-c", _LOADED_MODULES, "certify", "--p", "2",
                        "--f", "2", *stages)
    assert proc.returncode == 0, proc.stderr
    code, frozen, loaded, openssl = json.loads(proc.stdout)
    assert (code, frozen) == (EXIT_OK, True)
    assert used in loaded
    assert not unused & set(loaded)
    if not hashes_graph:
        assert openssl == numpy_loads_hashlib


@pytest.mark.parametrize("size", [0, 1, 55, 56, 64, 1 << 20])
def test_certificate_sha256_is_hashlibs(size):
    """cli hashes certificates with CPython's built-in SHA-256; it must give
    hashlib's digest, across the one- and two-block padding boundary
    (55 and 56 bytes), a whole block and a long message."""
    data = bytes(i * 7 % 256 for i in range(size))
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")],
                         ids=["unset", "user-set"])
def test_cli_import_holds_openblas_to_one_thread(preset, want):
    """Importing cli sets OPENBLAS_NUM_THREADS to 1, unless the user has
    set it."""
    proc = _run_process(
        "-c", "import os, psu3grr.cli; "
              "print(os.environ['OPENBLAS_NUM_THREADS'])",
        OPENBLAS_NUM_THREADS=preset)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == want


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs Linux's /proc/self/task and at least 2 CPUs, where "
           "OpenBLAS would start a worker thread")
def test_cli_import_starts_no_thread():
    """The setting precedes numpy's import, so OpenBLAS starts no worker
    thread: the package's __init__ must not import numpy first."""
    proc = _run_process(
        "-c", "import os, psu3grr.cli; "
              "print(len(os.listdir('/proc/self/task')))",
        OPENBLAS_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"1"


def _first_difference(text, doc):
    """(line number, line, json's line) where text first differs from
    json.dumps(doc, indent=2, sort_keys=True) + "\\n", or None.  A plain
    == on a failing 200 KB certificate would make pytest diff it for
    minutes."""
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    pairs = itertools.zip_longest(text.split("\n"), want.split("\n"))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


# characters json escapes in some way: quotes, backslashes, control
# characters, non-ASCII in and beyond the basic plane
_ODD_CHARS = '"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ufffd\U0001f600'


def _random_string(rng):
    pool = "abcXYZ019 ,:" + _ODD_CHARS
    return "".join(rng.choice(pool) for _ in range(rng.randrange(6)))


def _random_tree(rng, depth):
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return rng.choice([0, 1, -1, 2 ** 64, -(3 ** 50),
                           rng.randrange(-10 ** 6, 10 ** 6)])
    if kind == 1:
        return _random_string(rng)
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([[], {}])
    if kind == 5:  # a list of scalars only
        return [_random_tree(rng, 0) for _ in range(rng.randrange(1, 5))]
    if kind == 6:
        return [_random_tree(rng, depth - 1)
                for _ in range(rng.randrange(1, 5))]
    return {_random_string(rng): _random_tree(rng, depth - 1)
            for _ in range(rng.randrange(1, 5))}


def test_stable_json_matches_json_dumps_on_random_trees():
    rng = random.Random(20261019)
    for _ in range(400):
        doc = _random_tree(rng, 4)
        assert _first_difference(stable_json(doc), doc) is None


@pytest.mark.parametrize("doc", [(1, 2), 1.5, {1: "a"}, {"a": [0, 0.5]},
                                 {"a": {True: 1}}, object(), [object()],
                                 OracleEntry((1, 0, 2), 0, ("1",) * 3, False)])
def test_stable_json_refuses_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        stable_json(doc)


@pytest.mark.parametrize("argv,code", [
    (["certify", "--p", "5", "--f", "1"], EXIT_OK),
    (["certify", "--p", "2", "--f", "3"], EXIT_OK),
    (["certify", "--p", "2", "--f", "2", "--stage", "graph"], EXIT_OK),
    (["certify", "--p", "5", "--f", "1", "--stage", "irreducible"], EXIT_OK),
    (["certify", "--p", "3", "--f", "1"], EXIT_REFUSED),
    (["certify", "--p", "131", "--f", "1"], EXIT_STAGE_FAILED),
    (["search-params", "--p", "5", "--f", "1"], EXIT_OK),
    (["construct", "--p", "2", "--f", "2"], EXIT_OK),
    (["negative-control-q3"], EXIT_OK),
])
def test_cli_output_is_the_json_dumps_text(argv, code, capsys):
    """Every output shape the CLI prints is json.dumps(indent=2,
    sort_keys=True) of its document, plus a newline."""
    assert main(argv) == code
    out = capsys.readouterr().out
    assert _first_difference(out, json.loads(out)) is None


def test_records_are_namedtuples_not_dataclasses():
    """Dataclass code generation cost about 12 ms per CLI start; the
    records are NamedTuples, immutable like the frozen dataclasses were."""
    classes = []
    for info in pkgutil.iter_modules(psu3grr.__path__):
        mod = importlib.import_module(f"psu3grr.{info.name}")
        classes += [obj for name, obj in vars(mod).items()
                    if isinstance(obj, type) and not name.startswith("_")
                    and obj.__module__ == mod.__name__]
    assert {"RunConfig", "GeneratorTriple", "AutCertificate"} <= {
        c.__name__ for c in classes}
    assert not [c for c in classes if dataclasses.is_dataclass(c)]
    t = build_triple(search_params(field(5, 1)))
    records = [(t, "X"), (group_order(t), "order"),
               (OracleEntry((1, 0, 2), 0, ("1",) * 3, False), "twist")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
