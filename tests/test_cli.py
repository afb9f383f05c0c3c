"""CLI driver: pipeline orchestration, JSON output, exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from psu3grr import cli
from psu3grr.cli import (EXIT_OK, EXIT_REFUSED, EXIT_STAGE_FAILED, RunConfig,
                         VERDICT_STAGES, _close_stages, certificate_hash,
                         main, run_certify, run_negative_control_q3)


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
    # q = 41 has permutation degree 68922, above the default gate
    cert, code = run_certify(RunConfig(41, 1))
    assert code == EXIT_STAGE_FAILED
    assert cert["verdict"] == "FAILED"
    assert "allow-large-order" in cert["detail"]
    assert cert["failed_stage"] == "order"


def test_order_degree_gate_refuses_q49(capsys):
    # q = 49 has permutation degree 117650; the refusal keeps the stages
    # that passed and names the one that stopped
    code = main(["certify", "--p", "7", "--f", "2"])
    assert code == EXIT_STAGE_FAILED
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "FAILED"
    assert cert["stages_run"] == ["search", "construct"]
    assert all(cert["stages"][s]["status"] == "pass" for s in cert["stages_run"])
    assert "allow-large-order" in cert["detail"]
    assert "permutation degree 117650" in cert["detail"]
    assert cert["failed_stage"] == "order"
    assert cert["certificate_hash"] == certificate_hash(cert)


def test_graph_vertex_gate_names_the_stage():
    cert, code = run_certify(RunConfig(7, 1, stages=("graph",)))
    assert code == EXIT_STAGE_FAILED
    assert cert["verdict"] == "FAILED"
    assert cert["stages_run"] == ["search", "construct", "order"]
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
    27: "28a8f92ea530b366fb52d5a15fe3d81556d22a169d2f48856dad36d8e95accfe",
    32: "76ad14ad5176d5330eb7bc5cefe5ea24588deacd40bb0ac3925ebd72a0db0d4a",
    37: "38eb2f82fd414f624f61ba593ebc639be9b578fbc6000cfdc126bfb354599d96",
}


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (3, 3), (2, 5), (37, 1)])
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
            witness=t.X, witness_query=entry, queries=1)
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
    renaming one of them breaks this traced q = 4 verdict."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/tracer.py", "--p", "2", "--f", "2"],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["exit"], doc["cert"]["verdict"]) == (EXIT_OK, "GRR_CONFIRMED")
