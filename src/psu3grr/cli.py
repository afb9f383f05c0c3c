"""Command-line driver: orchestrate the pipeline stages and emit JSON.

Every subcommand but negative-control-q3 (see negcontrol) runs the same
stage runner, `_stage_<name>(state, cfg)` for each stage in dependency
order, and shares its exit codes:

    search-params  stage search                  prints its fragment
    construct      stage construct (and search)  prints both fragments
    certify        the --stage list (default: every verdict stage)
    export-graph   stage graph (and search, construct, order); writes the
                   graph the stage built

Stages and their dependencies:

    search      parameter search for (b, a)
    construct   build X, Y, Z and check orders          (needs search)
    order       group order and |<Y, Z>| = 2 ord(YZ)    (needs construct)
    irreducible invariant-subspace and commutant tests  (needs construct)
    aut         automorphism-triviality sweep           (needs order)
    graph       explicit Cayley graph (gated by size)   (needs order)

A stage returns its certificate fragment or raises StageFailure with
it; the runner alone stamps each fragment's "status" ("pass" or "fail")
and sets the verdict.  A failing stage ends the run, so the verdict is
GRR_CONFIRMED exactly when search, construct, order, irreducible and aut
were all recorded; running a subset yields verdict INCOMPLETE.

Order shows that S generates G = PSU3(q) and aut that Aut(G, S) = 1.
Then Cay(G, S) is a GRR because it is normal (Godsil 1981): for
nonabelian simple G every connected cubic Cayley graph is, except two on
A47 (Fang, Li, Wang and Xu 2002; Xu, Fang, Wang and Li 2007; see
autcheck), and PSU3(q), q >= 4, is nonabelian simple, not A47.
Certificates are deterministic: byte-identical across runs except for the
generated_at timestamp, which is excluded from the certificate hash.

Exit codes: 0 success, 2 refusal (q out of scope), 3 stage failure, a bad
argument or an unwritable output file, 4 internal inconsistency (fast path
and oracle disagree impossibly).  An --out path is checked before any
stage runs (its directory must exist and be writable, and so must the
file if it exists), so a bad one costs no run and leaves no file.

A run loads only the modules it calls: gf, mat3, construct, grouporder
and linalg with cli, and autcheck (aut stage), cayley (graph stage,
export-graph) and negcontrol (negative-control-q3) on first use.  Two
native libraries load only where a stage uses them: certificates are
hashed with CPython's built-in SHA-256, so OpenSSL's libcrypto (through
hashlib) loads only with the graph stage, which hashes megabyte edge
lists with it; and importing cli sets OPENBLAS_NUM_THREADS to 1 unless
the user has set it, so numpy's OpenBLAS starts no worker thread.  The
package's __init__ imports nothing and re-exports no field or matrix
names, so that setting precedes numpy under both the `psu3grr` script
and `python -m psu3grr.cli`.  The process
entry, `entry`, runs `main` and then freezes the heap, so the
interpreter exits without collecting it (see `entry`); `main(argv)`
called in-process does not.

The package's records (RunConfig here, ConstructionParams, GeneratorTriple,
PermGroupCertificate, AutCertificate and the rest) are typing.NamedTuple
classes, which cost a fraction of a dataclass to create at import: they
are immutable, and a changed copy is made with `_replace`.  Stages turn
them into dicts of plain values; stable_json writes no tuple.

The environment variable GRR_SEED is accepted and ignored: no randomness
affects any result; the variable exists for harness compatibility only.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

# the built-in SHA-256: hashlib would map OpenSSL's libcrypto (about 3.5 MB
# of RSS) to hash one certificate (see cayley.edge_list_sha256)
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# numpy's OpenBLAS starts a worker thread per CPU at import, but no stage
# calls BLAS (the only `@` products are on int64 arrays, which numpy
# computes without it).  This must run before numpy is first imported: the
# package's __init__ imports nothing, and the imports below load numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .construct import (UnsupportedQ, build_triple, count_valid_b,
                        search_params)
from .gf import field
from .grouporder import (IsotropicAction, OrderBoundExceeded,
                         commutant_dimension, dihedral_image_order,
                         expected_group_order, group_order,
                         invariant_subspace_test)
from .mat3 import matrix_order, projective_order

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_STAGE_FAILED = 3
EXIT_INCONSISTENT = 4

# each stage is listed after its dependencies
STAGE_DEPS = {
    "search": (),
    "construct": ("search",),
    "order": ("construct",),
    "irreducible": ("construct",),
    "aut": ("order",),
    "graph": ("order",),
}
VERDICT_STAGES = ("search", "construct", "order", "irreducible", "aut")

# order certification above this permutation degree needs an explicit flag;
# every q <= 128 (degree <= 2 097 153) certifies in at most 6.4 s and 364 MB
# (q = 121 and 128), and q = 131 (degree 2 248 092) is the first refused
ORDER_DEGREE_GATE = 2100000


class StageFailure(RuntimeError):
    """A certification check failed; carries the stage's fragment, which
    the runner records with status "fail"."""

    def __init__(self, message, fragment):
        super().__init__(message)
        self.fragment = fragment


class InternalInconsistency(StageFailure):
    """Fast path and oracle disagreed in the impossible direction."""


class RunConfig(NamedTuple):
    p: int
    f: int
    stages: tuple[str, ...] = VERDICT_STAGES
    allow_large_order: bool = False
    allow_large_graph: bool = False


def _close_stages(requested) -> tuple[str, ...]:
    """The requested stages and their dependencies, in the order of
    STAGE_DEPS, which lists each stage after its dependencies: one reverse
    pass."""
    for s in requested:
        if s not in STAGE_DEPS:
            raise ValueError(f"unknown stage: {s}")
    wanted = set(requested)
    for s in reversed(STAGE_DEPS):
        if s in wanted:
            wanted.update(STAGE_DEPS[s])
    return tuple(s for s in STAGE_DEPS if s in wanted)


# the text of each scalar type json writes, looked up by exact type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def stable_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte.

    json's indented encoder is pure Python, and on a q = 8 certificate
    (810 oracle entries) it takes about as long as the aut stage, so this
    writer reproduces its rules directly: two-space indent, "," ending a
    line and ": " after a key, keys sorted, strings ASCII-escaped by
    json's own (C) `encode_basestring_ascii`, ints by `int.__repr__`,
    true / false / null, and empty containers as [] and {}.  It writes only
    dict (with str keys), list, str, int, bool and None, dispatching on the
    exact type; anything else, tuples and floats included, is a TypeError.
    """
    parts: list[str] = []
    _write(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(obj, nl: str, parts: list[str]):
    """Append the text of obj to parts; nl starts each of its later lines.

    Everything goes into the one flat list, joined once by stable_json, so
    no nested container's text is held as a string of its own.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        parts.append(scalar(obj))
        return
    inner = nl + "  "
    if type(obj) is dict:
        if not obj:
            parts.append("{}")
            return
        sep = "{" + inner
        # encode_basestring_ascii raises TypeError on a key that is not a str
        for key in sorted(obj):
            parts.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write(obj[key], inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif type(obj) is list:
        if not obj:
            parts.append("[]")
            return
        try:
            items = [_SCALARS[type(x)](x) for x in obj]
        except KeyError:  # a container among the items
            sep = "[" + inner
            for x in obj:
                parts.append(sep)
                _write(x, inner, parts)
                sep = "," + inner
            parts.append(nl + "]")
        else:
            parts.append("[" + inner + ("," + inner).join(items) + nl + "]")
    else:
        raise TypeError(f"stable_json cannot write {type(obj).__name__}")


def certificate_hash(cert: dict) -> str:
    """SHA-256 over the certificate minus volatile fields."""
    stripped = {k: v for k, v in cert.items()
                if k not in ("generated_at", "certificate_hash")}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# callees in modules loaded on first use
# ---------------------------------------------------------------------------
# autcheck, cayley and negcontrol are imported the first time a stage or
# subcommand calls into them, so a run compiles and executes only the
# modules it uses.  These names stay attributes of cli, for callers that
# rebind or patch them; each imports its module (a dict lookup after the
# first call) and calls the function of the same name there.

def aut_group_trivial(t, order_cert):
    from . import autcheck
    return autcheck.aut_group_trivial(t, order_cert)


def build_graph(t, allow_large=False):
    from . import cayley
    return cayley.build_graph(t, allow_large)


def edge_list_sha256(g):
    from . import cayley
    return cayley.edge_list_sha256(g)


def run_negative_control_q3():
    from . import negcontrol
    return negcontrol.run_negative_control_q3()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _stage_search(state, cfg: RunConfig) -> dict:
    cp = search_params(state["field"])
    state["params"] = cp
    return {
        "parity": cp.parity,
        "b": cp.b.to_str(),
        "a": cp.a.to_str(),
        "exponent_set": list(cp.exponent_set),
        "census": cp.a_census,
        "b_census": count_valid_b(state["field"]),
    }


def _stage_construct(state, cfg: RunConfig) -> dict:
    t = build_triple(state["params"])
    state["triple"] = t
    name, rotation, rot_expected = t.rotation
    rot_order = projective_order(rotation)
    inv_orders = [matrix_order(m) for m in t.matrices]
    proj_orders = [projective_order(m) for m in t.matrices]
    out = {
        "X": t.X.to_str(),
        "Y": t.Y.to_str(),
        "Z": t.Z.to_str(),
        "matrix_orders": inv_orders,
        "projective_orders": proj_orders,
        "rotation": name,
        "rotation_order": rot_order,
        "rotation_order_expected": rot_expected,
    }
    if inv_orders != [2, 2, 2] or proj_orders != [2, 2, 2]:
        raise StageFailure("generators are not involutions", out)
    if rot_order != rot_expected:
        raise StageFailure(
            f"rotation order {rot_order}, expected {rot_expected}", out)
    return out


def _stage_order(state, cfg: RunConfig) -> dict:
    t = state["triple"]
    fld = t.field
    degree = fld.q ** 3 + 1
    if degree > ORDER_DEGREE_GATE and not cfg.allow_large_order:
        raise RuntimeError(
            f"permutation degree {degree} exceeds the default gate "
            f"{ORDER_DEGREE_GATE}; rerun with --allow-large-order")
    action = IsotropicAction(fld)
    expected = expected_group_order(fld.q)
    try:
        cert = group_order(t, action)
    except OrderBoundExceeded as exc:
        # X, Y, Z passed the SU3 check, so the image lies in PSU3(q): a
        # chain past |PSU3(q)| means the chain or that argument is wrong
        raise InternalInconsistency(
            f"generation chain exceeded |PSU3({fld.q})|: {exc}",
            {"degree": degree, "expected_order": expected}) from exc
    dihedral = dihedral_image_order(t)
    dihedral_expected = 2 * t.rotation[2]
    state["order_cert"] = cert
    out = {
        "degree": cert.degree,
        "order": cert.order,
        "base": list(cert.base),
        "orbit_lengths": list(cert.orbit_lengths),
        "expected_order": expected,
        "dihedral_order": dihedral,
        "dihedral_order_expected": dihedral_expected,
    }
    if cert.order != expected:
        raise StageFailure(
            f"group order {cert.order} != |PSU3({fld.q})| = {expected}", out)
    if dihedral != dihedral_expected:
        raise StageFailure(
            f"dihedral image order {dihedral} != {dihedral_expected}", out)
    return out


def _stage_irreducible(state, cfg: RunConfig) -> dict:
    t = state["triple"]
    no_invariant = invariant_subspace_test(t)
    comm = commutant_dimension(t)
    out = {
        "invariant_subspace_test": no_invariant,
        "commutant_dimension": comm,
    }
    if not (no_invariant and comm == 1):
        raise StageFailure("irreducibility certification failed", out)
    return out


def _stage_aut(state, cfg: RunConfig) -> dict:
    t = state["triple"]
    cert = aut_group_trivial(t, state["order_cert"])
    out = {
        "verdict": cert.verdict,
        "queries": len(cert.oracle_path),
        "fast_path_holds": cert.fast_path_holds,
        "fast_path": [
            {"condition": e.condition, "twist": e.twist,
             "relevant": e.relevant, "holds": e.holds}
            for e in cert.fast_path
        ],
        "oracle_path": [
            {"perm": list(e.perm), "twist": e.twist,
             "scalars": list(e.scalars), "conjugator_found": e.conjugator_found}
            for e in cert.oracle_path
        ],
    }
    if cert.witness is not None:
        out["witness"] = cert.witness.to_str()
        out["witness_query"] = {
            "perm": list(cert.witness_query.perm),
            "twist": cert.witness_query.twist,
            "scalars": list(cert.witness_query.scalars),
        }
    if cert.fast_path_holds and cert.verdict == "nontrivial":
        raise InternalInconsistency(
            "all fast-path obstructions hold yet the oracle found a "
            "conjugator; one of the two certifiers is wrong", out)
    if cert.verdict != "trivial":
        raise StageFailure(
            "connection-set automorphism group is nontrivial", out)
    return out


def _stage_graph(state, cfg: RunConfig) -> dict:
    t = state["triple"]
    g = build_graph(t, allow_large=cfg.allow_large_graph)
    state["graph"] = g
    return {
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "edge_list_sha256": edge_list_sha256(g),
    }


def _run(cfg: RunConfig) -> tuple[dict, int, dict]:
    """Run the requested stages; returns (certificate, exit code, state).

    Stage `name` is the module function `_stage_<name>(state, cfg)`, looked
    up by name when it runs, so a rebound stage function is the one called.
    """
    cert: dict = {
        "tool": "psu3grr",
        "version": __version__,
        "schema": "psu3grr-certificate/1",
        "p": cfg.p,
        "f": cfg.f,
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
                        .isoformat(timespec="seconds"),
        "stages": {},
        "stages_run": [],
    }
    state: dict = {}
    exit_code = EXIT_OK
    try:
        fld = field(cfg.p, cfg.f)
        cert["q"] = fld.q
        cert["field"] = fld.params_str()
        state["field"] = fld
        stages = _close_stages(cfg.stages)
        if "graph" in stages:  # refused before any stage builds a chain
            from .cayley import check_graph_gate
            cert["failed_stage"] = "graph"
            check_graph_gate(fld, cfg.allow_large_graph)
            del cert["failed_stage"]
        for stage in stages:
            try:
                frag = globals()[f"_stage_{stage}"](state, cfg)
            except RuntimeError as exc:  # every FAILED or exit-4 cause
                if isinstance(exc, StageFailure):
                    cert["stages"][stage] = {**exc.fragment, "status": "fail"}
                    cert["stages_run"].append(stage)
                cert["failed_stage"] = stage
                raise
            cert["stages"][stage] = {**frag, "status": "pass"}
            cert["stages_run"].append(stage)
        # a failing stage raises, so every recorded stage passed
        cert["verdict"] = ("GRR_CONFIRMED" if all(
            s in cert["stages"] for s in VERDICT_STAGES) else "INCOMPLETE")
    except UnsupportedQ as exc:
        cert["verdict"] = "REFUSED"
        cert["reason"] = "UnsupportedQ"
        cert["detail"] = str(exc)
        exit_code = EXIT_REFUSED
    except InternalInconsistency as exc:
        cert["verdict"] = "INTERNAL_INCONSISTENCY"
        cert["detail"] = str(exc)
        exit_code = EXIT_INCONSISTENT
    except RuntimeError as exc:
        cert["verdict"] = "FAILED"
        cert["detail"] = str(exc)
        exit_code = EXIT_STAGE_FAILED
    cert["certificate_hash"] = certificate_hash(cert)
    return cert, exit_code, state


def run_certify(cfg: RunConfig) -> tuple[dict, int]:
    """Run the requested stages; returns (certificate dict, exit code)."""
    cert, code, _ = _run(cfg)
    return cert, code


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _check_out(out_path: str | None):
    """Refuse, before any stage runs, an --out path whose directory is
    missing or not writable, that is a directory, or that is an existing
    file the user cannot write.  It creates nothing, and the open in _emit
    or _export_graph still reports a later race."""
    if not out_path:
        return
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        raise OSError(f"--out {out_path} is a directory")
    if os.path.exists(out_path) and not os.access(out_path, os.W_OK):
        raise OSError(f"--out {out_path} is not writable")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise OSError(f"--out {out_path}: {parent} is not a writable "
                      "directory")


def _emit(doc: dict, out_path: str | None):
    text = stable_json(doc)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_pf(sub):
    sub.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    sub.add_argument("--f", type=int, required=True, help="exponent, q = p^f")
    sub.add_argument("--out", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psu3grr",
        description="Construct cubic connection sets of PSU3(q) and certify "
                    "the Cayley graph is a GRR by exact computation.",
        epilog="GRR_SEED is accepted in the environment and ignored: every "
               "result is deterministic.")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search-params", help="find (b, a) and the census")
    _add_pf(s)

    s = sub.add_parser("construct", help="build and check the triple X, Y, Z")
    _add_pf(s)

    s = sub.add_parser("certify", help="run pipeline stages, emit certificate")
    _add_pf(s)
    s.add_argument("--stage", action="append", default=None,
                   metavar="STAGE", help="stage to run (repeatable; "
                   "dependencies are added automatically); default: all "
                   "verdict stages")
    s.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: execution is single-threaded "
                   "(must be at least 1)")
    s.add_argument("--allow-large-order", action="store_true",
                   help="certify group order above the degree gate")
    s.add_argument("--allow-large-graph", action="store_true",
                   help="build graphs beyond |PSU3(5)| vertices")

    s = sub.add_parser("export-graph", help="write the Cayley graph to a file")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--f", type=int, required=True)
    s.add_argument("--out", required=True, help="output path")
    s.add_argument("--format", choices=("edge-list", "adjacency"),
                   default="edge-list")
    s.add_argument("--allow-large-graph", action="store_true")

    s = sub.add_parser("negative-control-q3",
                       help="verify no involution triple generates PSU3(3)")
    s.add_argument("--out", help="write JSON here instead of stdout")
    return parser


def _export_graph(args) -> int:
    from .cayley import export_chunks
    cert, code, state = _run(RunConfig(
        args.p, args.f, stages=("graph",),
        allow_large_graph=args.allow_large_graph))
    if code != EXIT_OK:
        sys.stderr.write(f"{cert['verdict']}: {cert['detail']}\n")
        return code
    with open(args.out, "wb") as fh:
        fh.writelines(export_chunks(state["graph"], args.format))
    sys.stdout.write(stable_json({"written": args.out, "format": args.format,
                                  **cert["stages"]["graph"]}))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        if args.command == "negative-control-q3":
            _emit(run_negative_control_q3(), args.out)
            return EXIT_OK
        if args.command == "export-graph":
            return _export_graph(args)
        if args.command == "certify":
            if args.jobs < 1:
                raise ValueError("--jobs must be at least 1")
            stages = tuple(args.stage) if args.stage else VERDICT_STAGES
            cfg = RunConfig(args.p, args.f, stages=stages,
                            allow_large_order=args.allow_large_order,
                            allow_large_graph=args.allow_large_graph)
            cert, code = run_certify(cfg)
            _emit(cert, args.out)
            return code
        # search-params and construct print the header and their stages'
        # fragments flat; a failure prints the certificate instead
        stage = "search" if args.command == "search-params" else "construct"
        cert, code = run_certify(RunConfig(args.p, args.f, stages=(stage,)))
        if code != EXIT_OK:
            _emit(cert, args.out)
            return code
        doc = {k: cert[k] for k in ("p", "f", "q", "field")}
        for frag in cert["stages"].values():
            doc.update(frag)
        _emit(doc, args.out)
        return EXIT_OK
    except (RuntimeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STAGE_FAILED


def entry() -> int:
    """The process entry (the `psu3grr` script and `python -m psu3grr.cli`):
    `main()` on sys.argv, then exit without collecting the heap.

    Only the process entry may freeze the heap; `main(argv)` called
    in-process leaves the caller's heap alone.
    """
    code = main()
    # The process is about to exit and the OS reclaims its memory whole.
    # gc.freeze() moves every live container (about 2 x 10^4 after a run,
    # numpy's included) out of the collector's reach, so the interpreter's
    # teardown no longer traverses them; it still runs atexit and flushes
    # stdout and stderr.  Skipping the collection loses nothing: every
    # output file is written inside a `with` block and so is closed by now,
    # stdout is flushed by teardown whatever the collector does, and
    # nothing in the package has a __del__, a weakref callback or an
    # atexit hook.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
