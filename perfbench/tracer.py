"""Traced certification run: spans and counts around the psu3grr layers.

Run as a script it certifies one q with every layer boundary wrapped and
prints one JSON document on stdout:

    python perfbench/tracer.py --p 5 --f 1 [--stage graph ...]

The wrappers are installed by rebinding module and class attributes of the
imported package, so no file of the package changes.  A span is recorded
as [name, parent index, start, end] with time.perf_counter; spans stay in
memory until the run ends.  The span name's prefix before the first dot
names the layer (the psu3grr module) that the span's self time is charged
to.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """In-memory span recorder with counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.marks: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called name; after(result) runs inside the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
        return traced

    def mark_rss(self, key: str):
        """Record the process's peak RSS so far, in MB, under key."""
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.marks[key] = max(self.marks.get(key, 0.0), kb / 1024)


def install(tracer: Tracer):
    """Wrap every layer boundary that `run_certify` crosses."""
    from psu3grr import autcheck, cli, grouporder

    def rebind(module, attr, name, after=None):
        setattr(module, attr,
                tracer.wrap(name, getattr(module, attr), after))

    # stage callees that cli imports by name
    rebind(cli, "field", "gf.field")
    rebind(cli, "search_params", "construct.search_params")
    rebind(cli, "count_valid_b", "construct.count_valid_b")
    rebind(cli, "build_triple", "construct.build_triple")
    rebind(cli, "matrix_order", "mat3.matrix_order")
    rebind(cli, "projective_order", "mat3.projective_order")
    rebind(cli, "group_order", "grouporder.group_order")
    rebind(cli, "dihedral_image_order", "grouporder.dihedral_image_order")
    rebind(cli, "invariant_subspace_test", "grouporder.invariant_subspace_test")
    rebind(cli, "commutant_dimension", "grouporder.commutant_dimension")
    rebind(cli, "aut_group_trivial", "autcheck.aut_group_trivial")
    rebind(cli, "build_graph", "cayley.build_graph",
           after=lambda _: tracer.mark_rss("cayley.rss_hwm_mb"))
    rebind(cli, "edge_list_sha256", "cayley.edge_list_sha256")
    rebind(cli, "_stage_order", "cli.stage_order",
           after=lambda _: tracer.mark_rss("grouporder.rss_hwm_mb"))

    # calls between layers below cli
    def count_dims(basis):
        tracer.counts["linalg.nullspace_dim_sum"] += len(basis)
    rebind(grouporder, "nullspace", "linalg.nullspace", after=count_dims)
    rebind(autcheck, "nullspace", "linalg.nullspace", after=count_dims)
    rebind(autcheck, "solve_twisted_conjugacy",
           "autcheck.solve_twisted_conjugacy")
    action = grouporder.IsotropicAction
    action.__init__ = tracer.wrap("grouporder.IsotropicAction",
                                  action.__init__)
    action.permutation = tracer.wrap("grouporder.permutation",
                                     action.permutation)

    # chains are read after the certificate call returns: every Schreier
    # pair (orbit point, generator) of every level has been sifted by then
    chains = []
    chain_init = grouporder.StabilizerChain.__init__

    def capture(self, *args, **kwargs):
        chain_init(self, *args, **kwargs)
        chains.append(self)
    grouporder.StabilizerChain.__init__ = capture

    def count_chains(_):
        for chain in chains:
            tracer.counts["grouporder.schreier_pairs"] += sum(
                len(lv.orbit) * len(lv.gens) - len(lv.pending)
                for lv in chain.levels)
            tracer.counts["grouporder.strong_gens"] += sum(
                len(lv.gens) for lv in chain.levels)
        chains.clear()
    rebind(grouporder, "permutation_order_certificate",
           "grouporder.permutation_order_certificate", after=count_chains)


def traced_certify(p: int, f: int, stages: tuple[str, ...]) -> dict:
    """Certify q = p^f with tracing on; returns the document main prints."""
    from psu3grr import cli
    tracer = Tracer()
    install(tracer)
    cfg = cli.RunConfig(p, f, stages=stages or cli.VERDICT_STAGES)
    cert, code = tracer.wrap("cli.run_certify", cli.run_certify)(cfg)
    return {"exit": code, "cert": cert, "spans": tracer.spans,
            "counts": dict(tracer.counts), "marks": tracer.marks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--f", type=int, required=True)
    ap.add_argument("--stage", action="append", default=[])
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    doc = traced_certify(args.p, args.f, tuple(args.stage))
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
