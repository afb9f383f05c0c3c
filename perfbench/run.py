"""Certification benchmark for psu3grr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a fixed list of
q values.  A pass certifies every q of the workload once, in an order drawn
from the seed, by running the real CLI (`python -m psu3grr.cli certify`) in
one fresh child process per q.  Children run one after another, so the load
is a closed loop with a single client.  Passes repeat while one more
pass, as long as the longest so far, ends within S seconds; a run
measures at least one whole pass.  Times are scaled to a reference CPU
speed measured while each child runs (see SpeedProbe).

Every invocation is checked against the reference certificate recorded in
reference.json: exit code, verdict, per-stage statuses and
certificate_hash, with the hash recomputed from the certificate's content.
A mismatch counts as a failed invocation and makes the command exit 1.

With --trace 0 the last line of stdout reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of a traced run (see
tracer.py) and writes the spans to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE_PATH = HERE / "reference.json"

# workload -> (certify --stage arguments, (p, f) per q, smallest q first).
# Why these four: see README.md next to this file.
WORKLOADS = {
    "verdict-gen": ((), ((13, 1), (2, 4))),
    "verdict-aut": ((), ((5, 1), (2, 3))),
    "graph-export": (("graph",), ((2, 2), (5, 1))),
    "field-poly": (("irreducible",), ((7, 2), (2, 6))),
}

# How strongly each workload's wall time follows the speed probe: the
# slope of log(child wall time) on log(median probe time) over the
# invocations of 5 to 9 runs per workload (30 to 160 invocations) on the
# reference host, one intercept per q.  A child's time at the reference
# speed is wall_s * (PROBE_REF_S / median probe time) ** SENSITIVITY.
SENSITIVITY = {
    "verdict-gen": 0.85,
    "verdict-aut": 1.3,
    "graph-export": 1.1,
    "field-poly": 1.15,
}

SETUP_REPEATS = 5
# CPU seconds a child may use before the kernel stops it
CHILD_CPU_LIMIT = 150
# FieldElem products timed per repeat for gf.mul_per_s
MUL_PAIRS = 20000
MUL_REPEATS = 3
# The speed probe times PROBE_LOOPS interpreter iterations every
# PROBE_PAUSE_S seconds.  PROBE_REF_S is that loop's duration on an
# uncontended core of the reference host (a 2-vCPU Xeon VM at 2.0 GHz,
# CPython 3.11); end-to-end times are scaled to that speed.
PROBE_LOOPS = 3000
PROBE_PAUSE_S = 0.015
PROBE_REF_S = 250e-6

SETUP_SNIPPET = ("import sys, psu3grr.cli as cli; "
                 "cli.field(int(sys.argv[1]), int(sys.argv[2]))")


@dataclass
class Child:
    """Outcome of one child process; its stdout is in the file `out`.
    ref_s is wall_s scaled to the reference speed (see SpeedProbe and
    SENSITIVITY)."""
    code: int
    wall_s: float
    ref_s: float
    rss_mb: float
    out: Path


def _probe_loop():
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples how fast the CPU that runs the children is right now.

    On a shared host the speed of a core moves by up to 2x over seconds to
    minutes as other tenants come and go, and a child's wall time moves
    with it.  A thread of this process, pinned to the children's CPU (see
    main), times a fixed interpreter loop every PROBE_PAUSE_S while a child
    runs; the median of those samples over the child's lifetime measures
    the speed the child got, and (PROBE_REF_S / median) ** SENSITIVITY
    scales its wall time to the reference speed.  The probe takes under 2% of the CPU.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(PROBE_PAUSE_S):
            start = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - start)

    def scale(self, first: int) -> float:
        """PROBE_REF_S over the median of the samples since index first
        (the last sample before it if none came since)."""
        recent = self.samples[max(first, 1) - 1:]
        return PROBE_REF_S / statistics.median(recent) if recent else 1.0

    def stop(self):
        self._stop.set()
        self._thread.join()


def spawn(args: list[str], out: Path, probe: SpeedProbe,
          sensitivity: float = 1.0) -> Child:
    """Run python with args, stdout to out; wall time, the same scaled by
    the probe to the power sensitivity, and the child's own ru_maxrss from
    os.wait4 (RUSAGE_CHILDREN would keep the highest value over every
    child ever run)."""
    # a fixed hash seed makes set and dict layouts, and the timings that
    # depend on them, repeat from run to run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    first = len(probe.samples)
    with open(out, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=fh,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            resource.prlimit(proc.pid, resource.RLIMIT_CPU,
                             (CHILD_CPU_LIMIT, CHILD_CPU_LIMIT))
        except ProcessLookupError:
            pass  # already gone; wait4 still reaps it
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall,
                 wall * probe.scale(first) ** sensitivity,
                 usage.ru_maxrss / 1024, out)


def certificate_hash(cert: dict) -> str:
    """The certificate hash as the README defines it: SHA-256 over the
    sorted compact JSON of the certificate minus its volatile fields."""
    stripped = {k: v for k, v in cert.items()
                if k not in ("generated_at", "certificate_hash")}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check(ref: dict, code: int, cert: dict | None) -> list[str]:
    """Differences between one invocation and its reference result."""
    if cert is None:
        return [f"exit {code}, no certificate"]
    problems = []
    if code != ref["exit"]:
        problems.append(f"exit {code} != {ref['exit']}")
    if cert.get("verdict") != ref["verdict"]:
        problems.append(f"verdict {cert.get('verdict')} != {ref['verdict']}")
    stages = {name: frag.get("status")
              for name, frag in cert.get("stages", {}).items()}
    if stages != ref["stages"]:
        problems.append(f"stage statuses {stages} != {ref['stages']}")
    if cert.get("certificate_hash") != ref["certificate_hash"]:
        problems.append("certificate_hash differs from the reference")
    elif certificate_hash(cert) != ref["certificate_hash"]:
        problems.append("certificate content does not match its hash")
    return problems


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Run:
    """One benchmark run of one workload: children, checks, failures."""

    def __init__(self, workload: str, seed: int, refs: dict):
        self.workload = workload
        self.stages, self.qs = WORKLOADS[workload]
        self.sensitivity = SENSITIVITY[workload]
        self.seed = seed
        self.rng = random.Random(seed)
        self.refs = refs[workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.probe = SpeedProbe()

    def order(self) -> list[tuple[int, int]]:
        return self.rng.sample(self.qs, len(self.qs))

    def _stage_args(self) -> list[str]:
        return [arg for s in self.stages for arg in ("--stage", s)]

    def _record(self, p: int, f: int, code: int, cert: dict | None):
        self.attempted += 1
        problems = check(self.refs[str(p ** f)], code, cert)
        if problems:
            self.failures.append(
                f"{self.workload} q={p ** f}: {'; '.join(problems)}")

    def certify(self, p: int, f: int) -> Child:
        """One untraced CLI invocation, checked."""
        child = spawn(["-m", "psu3grr.cli", "certify", "--p", str(p),
                       "--f", str(f), *self._stage_args()],
                      OUT_DIR / f"cert-{p}-{f}.json", self.probe,
                      self.sensitivity)
        self._record(p, f, child.code, _load(child.out))
        return child

    def traced(self, p: int, f: int) -> tuple[Child, dict | None]:
        """One traced invocation (tracer.py), checked."""
        child = spawn([str(HERE / "tracer.py"), "--p", str(p), "--f", str(f),
                       *self._stage_args()], OUT_DIR / f"trace-{p}-{f}.json",
                      self.probe, self.sensitivity)
        doc = _load(child.out) if child.code == 0 else None
        if doc is None:
            self._record(p, f, child.code, None)
        else:
            doc["scale"] = child.ref_s / child.wall_s
            self._record(p, f, doc["exit"], doc["cert"])
        return child, doc

    def setup_pass(self) -> float:
        """Fresh child per q: interpreter start, import and field(p, f)."""
        total = 0.0
        for p, f in self.order():
            # no certify work here, so no workload's sensitivity: scaled 1:1
            child = spawn(["-c", SETUP_SNIPPET, str(p), str(f)],
                          OUT_DIR / "setup.out", self.probe)
            if child.code != 0:
                raise RuntimeError(f"set-up child for q={p ** f} exited "
                                   f"{child.code}")
            total += child.ref_s
        return total


def timed_passes(seconds: float, one_pass) -> list:
    """Call one_pass at least once, and again while a pass as long as the
    longest so far still ends within `seconds` of the start."""
    results = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        begun = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        longest = max(longest, now - begun)
        if now - start + longest > seconds:
            return results


def end_to_end(run: Run, seconds: float) -> dict:
    setups = [run.setup_pass() for _ in range(SETUP_REPEATS)]
    largest = run.qs[-1]

    def one_pass():
        return {pf: run.certify(*pf) for pf in run.order()}

    passes = timed_passes(seconds, one_pass)
    times = {f"q={p ** f}": {"wall_s": [ps[p, f].wall_s for ps in passes],
                             "ref_s": [ps[p, f].ref_s for ps in passes]}
             for p, f in run.qs}
    (OUT_DIR / f"times-{run.workload}-seed{run.seed}.json").write_text(
        json.dumps(times))
    return {
        "wall_s": (statistics.median(
            sum(c.ref_s for c in ps.values()) for ps in passes), "s"),
        "largest_q_wall_s": (statistics.median(
            ps[largest].ref_s for ps in passes), "s"),
        "peak_rss_mb": (max(c.rss_mb for ps in passes
                            for c in ps.values()), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def layer_metrics(docs: list[dict]) -> dict:
    """Per-layer numbers of one traced pass (one document per q)."""
    busy = Counter()
    calls = Counter()
    self_s = Counter()
    chain_by_caller = Counter()
    counts = Counter()
    marks = defaultdict(float)
    roots = 0.0
    vertices = 0
    for doc in docs:
        spans = doc["spans"]
        # span times scaled to the reference speed, as the child's wall time
        scale = doc.get("scale", 1.0)
        covered = Counter()
        for name, parent, start, end in spans:
            if parent is not None:
                covered[parent] += (end - start) * scale
        for i, (name, parent, start, end) in enumerate(spans):
            span_s = (end - start) * scale
            busy[name] += span_s
            calls[name] += 1
            self_s[name.split(".")[0]] += span_s - covered[i]
            if parent is None:
                roots += span_s
            if name == "grouporder.permutation_order_certificate":
                chain_by_caller[spans[parent][0]] += span_s
        counts.update(doc["counts"])
        for key, value in doc["marks"].items():
            marks[key] = max(marks[key], value)
        vertices += doc["cert"]["stages"].get("graph", {}).get("vertices", 0)

    def rate(n, s):
        return n / s if s else 0.0

    pairs = counts["grouporder.schreier_pairs"]
    chain_s = busy["grouporder.permutation_order_certificate"]
    nullspace_s = busy["linalg.nullspace"]
    query_s = busy["autcheck.solve_twisted_conjugacy"]
    graph_s = busy["cayley.build_graph"]
    return {
        "gf.field_s": (busy["gf.field"], "s"),
        "construct.search_s": (busy["construct.search_params"]
                               + busy["construct.count_valid_b"], "s"),
        "construct.build_triple_s": (busy["construct.build_triple"], "s"),
        "mat3.order_calls": (calls["mat3.matrix_order"]
                             + calls["mat3.projective_order"], "count"),
        "mat3.order_s": (busy["mat3.matrix_order"]
                         + busy["mat3.projective_order"], "s"),
        "grouporder.perm_calls": (calls["grouporder.permutation"], "count"),
        "grouporder.perm_per_s": (rate(calls["grouporder.permutation"],
                                       busy["grouporder.permutation"]), "1/s"),
        "grouporder.chain_s": (chain_s, "s"),
        "grouporder.gen_chain_s": (
            chain_by_caller["grouporder.group_order"], "s"),
        "grouporder.dihedral_chain_s": (
            chain_by_caller["grouporder.dihedral_image_order"], "s"),
        "grouporder.schreier_pairs": (pairs, "count"),
        "grouporder.strong_gens": (counts["grouporder.strong_gens"], "count"),
        "grouporder.useful_sift_ratio": (
            rate(counts["grouporder.strong_gens"], pairs), "ratio"),
        "grouporder.sifts_per_s": (rate(pairs, chain_s), "1/s"),
        "grouporder.irreducible_s": (
            busy["grouporder.invariant_subspace_test"]
            + busy["grouporder.commutant_dimension"], "s"),
        "grouporder.self_s": (self_s["grouporder"], "s"),
        "grouporder.rss_hwm_mb": (marks["grouporder.rss_hwm_mb"], "MB"),
        "linalg.nullspace_calls": (calls["linalg.nullspace"], "count"),
        "linalg.nullspace_s": (nullspace_s, "s"),
        "linalg.nullspace_dim_sum": (counts["linalg.nullspace_dim_sum"],
                                     "count"),
        "linalg.solves_per_s": (rate(calls["linalg.nullspace"], nullspace_s),
                                "1/s"),
        "autcheck.queries": (calls["autcheck.solve_twisted_conjugacy"],
                             "count"),
        "autcheck.query_s": (query_s, "s"),
        "autcheck.queries_per_s": (
            rate(calls["autcheck.solve_twisted_conjugacy"], query_s), "1/s"),
        "autcheck.self_s": (self_s["autcheck"], "s"),
        "cayley.graph_s": (graph_s, "s"),
        "cayley.vertices_per_s": (rate(vertices, graph_s), "1/s"),
        "cayley.rss_hwm_mb": (marks["cayley.rss_hwm_mb"], "MB"),
        "cayley.self_s": (self_s["cayley"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.busy_s": (roots, "s"),
    }


def mul_rate(p: int, f: int, probe: SpeedProbe) -> float:
    """FieldElem products per second at the reference speed over a fixed
    pass of element pairs."""
    sys.path.insert(0, str(ROOT / "src"))
    from psu3grr.gf import field
    fld = field(p, f)
    size = fld.size
    pairs = [(fld.from_index((7919 * k + 1) % size),
              fld.from_index((104729 * k + 3) % size))
             for k in range(MUL_PAIRS)]
    rates = []
    for _ in range(MUL_REPEATS):
        first = len(probe.samples)
        start = time.perf_counter()
        for a, b in pairs:
            a * b
        elapsed = time.perf_counter() - start
        rates.append(MUL_PAIRS / (elapsed * probe.scale(first)))
    return statistics.median(rates)


def per_layer(run: Run, seconds: float, seed: int) -> dict:
    def one_pass():
        untraced = sum(run.certify(*pf).ref_s for pf in run.order())
        return untraced, {pf: run.traced(*pf) for pf in run.order()}

    pairs = timed_passes(seconds, one_pass)
    if run.failures:
        return {}
    passes = [ps for _, ps in pairs]
    layers = [layer_metrics([doc for _, doc in ps.values()]) for ps in passes]
    walls = [sum(child.ref_s for child, _ in ps.values()) for ps in passes]
    untraced = statistics.median(wall for wall, _ in pairs)
    out = {}
    for name, (value, unit) in layers[0].items():
        if unit == "count":
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(m[name][0] for m in layers), unit)
    traced = statistics.median(walls)
    out["trace.wall_s"] = (traced, "s")
    out["trace.startup_s"] = (traced - out["trace.busy_s"][0], "s")
    out["trace.overhead"] = (traced / untraced - 1, "ratio")
    out["gf.mul_per_s"] = (mul_rate(*run.qs[-1], run.probe), "1/s")
    spans = {f"q={p ** f}": [ps[p, f][1]["spans"] for ps in passes]
             for p, f in run.qs}
    (OUT_DIR / f"spans-{run.workload}-seed{seed}.json").write_text(
        json.dumps(spans))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "psu3grr" / "cli.py").is_file():
        print(f"no psu3grr sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # one CPU for this process, its probe thread and every child, so the
    # probe samples the core each child runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, json.loads(REFERENCE_PATH.read_text()))
    try:
        if args.trace:
            metrics = per_layer(run, args.seconds, args.seed)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        run.probe.stop()
    for problem in run.failures:
        print(problem, file=sys.stderr)
    ok = not run.failures
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()} if ok else {},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
