"""Tests of the benchmark itself: result checker, exact counts, accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

REFS = json.loads(run.REFERENCE_PATH.read_text())

# Counts of a traced verdict run (generation and dihedral chains summed).
# They are exact and must repeat from run to run.
SEED_COUNTS = {
    (5, 1): {"grouporder.schreier_pairs": 1794, "autcheck.queries": 270,
             "linalg.nullspace_calls": 283, "linalg.nullspace_dim_sum": 3,
             "grouporder.strong_gens": 23, "grouporder.perm_calls": 5,
             "mat3.order_calls": 7},
    (2, 3): {"grouporder.schreier_pairs": 5188, "autcheck.queries": 810,
             "linalg.nullspace_calls": 815, "linalg.nullspace_dim_sum": 3,
             "grouporder.strong_gens": 15, "grouporder.perm_calls": 5,
             "mat3.order_calls": 7},
    (13, 1): {"grouporder.schreier_pairs": 26727, "autcheck.queries": 10,
              "linalg.nullspace_calls": 23, "linalg.nullspace_dim_sum": 3,
              "grouporder.strong_gens": 20, "grouporder.perm_calls": 5,
              "mat3.order_calls": 7},
    (2, 4): {"grouporder.schreier_pairs": 57450, "autcheck.queries": 40,
             "linalg.nullspace_calls": 45, "linalg.nullspace_dim_sum": 3,
             "grouporder.strong_gens": 21, "grouporder.perm_calls": 5,
             "mat3.order_calls": 7},
}
WORKLOAD_OF = {(5, 1): "verdict-aut", (2, 3): "verdict-aut",
               (13, 1): "verdict-gen", (2, 4): "verdict-gen"}

# layers whose spans have no wrapped children report busy time as self time
SELF_TIMES = ("gf.field_s", "construct.search_s", "construct.build_triple_s",
              "mat3.order_s", "grouporder.self_s", "linalg.nullspace_s",
              "autcheck.self_s", "cayley.self_s", "cli.self_s")


@pytest.fixture(autouse=True)
def out_dir():
    run.OUT_DIR.mkdir(exist_ok=True)


def _cert(verdict="GRR_CONFIRMED"):
    cert = {"verdict": verdict, "q": 5,
            "stages": {"search": {"status": "pass"},
                       "aut": {"status": "pass"}}}
    cert["certificate_hash"] = run.certificate_hash(cert)
    return cert


def _ref(cert, **changes):
    ref = {"exit": 0, "verdict": cert["verdict"],
           "stages": {k: v["status"] for k, v in cert["stages"].items()},
           "certificate_hash": cert["certificate_hash"]}
    ref.update(changes)
    return ref


def test_probe_scales_to_reference_speed():
    probe = run.SpeedProbe()
    probe.stop()
    assert probe.scale(0) == 1.0  # no samples: unscaled
    probe.samples[:] = [run.PROBE_REF_S * 2] * 3 + [run.PROBE_REF_S] * 5
    assert probe.scale(3) == pytest.approx(1.0)
    assert probe.scale(0) == pytest.approx(1.0)  # median of all eight
    assert probe.scale(1) == pytest.approx(1.0)
    assert probe.scale(8) == pytest.approx(1.0)  # only the last sample
    probe.samples[:] = [run.PROBE_REF_S * 2] * 4
    assert probe.scale(4) == pytest.approx(0.5)


def test_checker_accepts_matching_result():
    cert = _cert()
    assert run.check(_ref(cert), 0, cert) == []


@pytest.mark.parametrize("tamper", [
    {"certificate_hash": "0" * 64},
    {"verdict": "INCOMPLETE"},
    {"exit": 3},
    {"stages": {"search": "pass", "aut": "fail"}},
])
def test_checker_flags_tampered_reference(tamper):
    cert = _cert()
    assert run.check(_ref(cert, **tamper), 0, cert)


def test_checker_flags_nonzero_exit_and_content_change():
    cert = _cert()
    ref = _ref(cert)
    assert run.check(ref, 3, cert)
    assert run.check(ref, 3, None)
    cert["q"] = 7  # content no longer matches the hash it carries
    assert run.check(ref, 0, cert)


def test_real_nonzero_exit_counts_as_failure():
    # q = 3 is refused with exit 2; a reference expecting success fails it
    ref = dict(REFS["verdict-aut"]["5"])
    bench = run.Run("verdict-aut", 0, {"verdict-aut": {"3": ref}})
    assert bench.certify(3, 1).code == 2
    assert (bench.attempted, len(bench.failures)) == (1, 1)


def test_tampered_reference_fails_the_command(tmp_path, monkeypatch, capsys):
    refs = json.loads(run.REFERENCE_PATH.read_text())
    refs["verdict-aut"]["5"]["certificate_hash"] = "0" * 64
    refs["verdict-aut"]["8"]["verdict"] = "INCOMPLETE"
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCE_PATH", tampered)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "verdict-aut", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 2)


@pytest.mark.parametrize("pf", sorted(SEED_COUNTS))
def test_traced_counts_are_exact_and_self_times_add_up(pf):
    bench = run.Run(WORKLOAD_OF[pf], 0, REFS)
    first, second = (run.layer_metrics([bench.traced(*pf)[1]])
                     for _ in range(2))
    assert bench.failures == []
    for name, seed_value in SEED_COUNTS[pf].items():
        assert first[name] == second[name] == (seed_value, "count"), name
    busy = first["trace.busy_s"][0]
    assert sum(first[name][0] for name in SELF_TIMES) == pytest.approx(busy)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload",
         "verdict-aut", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
