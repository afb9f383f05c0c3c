"""Negative control: no involution triple generates PSU3(3)."""

import json

from psu3grr import __version__, grouporder
from psu3grr.cli import EXIT_OK, main
from psu3grr.negcontrol import run_negative_control_q3


def test_negative_control_report_is_pinned(capsys):
    assert main(["negative-control-q3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "tool": "psu3grr",
        "version": __version__,
        "schema": "psu3grr-negative-control-q3/1",
        "group_order": 6048,
        "degree": 28,
        "involution_count": 63,
        "involution_class_count": 1,
        "involution_class_sizes": [63],
        "triples_tested": 2016,
        "generating_triples_found": 0,
        "max_proper_subgroup_order": 168,
        "verdict": "NO_GENERATING_INVOLUTION_TRIPLE",
    }


def test_negative_control_builds_no_stabilizer_chain(monkeypatch):
    """The control is the independent check on the chain, so it must not
    use one."""
    def no_chain(*args, **kwargs):
        raise AssertionError("negative control built a stabilizer chain")
    monkeypatch.setattr(grouporder, "StabilizerChain", no_chain)
    rep = run_negative_control_q3()
    assert rep["max_proper_subgroup_order"] == 168
