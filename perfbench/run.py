#!/usr/bin/env python3
"""graphck benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 50 --trace 0

Run from the repository root; graphck is imported from ``src/``.
``BENCHMARK.json`` lists the workloads ``survey`` and ``models``; ``relfam``
and ``staged`` run the same way, for studies of the model-build and
stage-materialization layers.

Set-up (importing graphck afresh, generating the seeded inputs, writing
the documents, one warm-up operation) is repeated at least
``SETUP_REPEATS`` times and for at least ``SETUP_SPAN`` seconds, and its
median reported as ``setup_s``.  Then a single client calls
graphck in a closed loop, issuing the next operation only after the
previous one returned, for ``--seconds`` seconds, and checks every answer
against ``oracles``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the operation list twice, untraced and then traced, and reports
per-layer self times and counts (``tracer``) plus the ratio of the two
wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(command, seed, machine, per-kind counts, failures, layer shares) goes to
``perfbench/results/``.  Exit code 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True    # every run imports graphck from source alike

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402

SETUP_REPEATS = 3         # set-up runs at least this often ...
SETUP_SPAN = 4.0          # ... and until this many seconds went into it
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
OVERRUN = 2.0             # a run stops mid-round after this many --seconds
TRACE_CAP = 3.0           # each traced-run pass stops after this many --seconds

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli_io.parse_ms": "ms",
    "cli_io.docs_parsed": "count",
    "cli_io.command_self_ms": "ms",
    "graph_model.route2_ms": "ms",
    "graph_model.stage_ms": "ms",
    "graph_model.stages_materialized": "count",
    "graph_model.enumerate_paths_ms": "ms",
    "graph_model.paths_enumerated": "count",
    "ideal_lattice.enumerate_ms": "ms",
    "ideal_lattice.enumerate_calls": "count",
    "ideal_lattice.lattice_elements": "count",
    "ideal_lattice.bound_refusals": "count",
    "classifier.is_simple_ms": "ms",
    "classifier.is_simple_calls": "count",
    "classifier.verdict_ms": "ms",
    "classifier.ladder_ms": "ms",
    "ck_matrix.build_ms": "ms",
    "ck_matrix.verify_ms": "ms",
    "ck_matrix.gaps_ms": "ms",
    "ck_matrix.basis_total": "count",
    "ck_matrix.dimension_ms": "ms",
    "ck_matrix.corner_ms": "ms",
    "ck_matrix.pairs_formed": "count",
    "exactmat.rank_ms": "ms",
    "exactmat.rank_vectors": "count",
    "exactmat.matmul_ms": "ms",
    "exactmat.products": "count",
    "bratteli.chain_ms": "ms",
    "bratteli.embed_ms": "ms",
    "bratteli.units_checked": "count",
    "trace_overhead_ratio": "ratio",
}

# span name -> per-layer metric carrying its self time
SPAN_METRIC = {
    "cli_io.command": "cli_io.command_self_ms",
    **{n: f"{n}_ms" for n in (
        "cli_io.parse", "graph_model.route2", "graph_model.stage",
        "graph_model.enumerate_paths", "ideal_lattice.enumerate",
        "classifier.is_simple", "classifier.verdict", "classifier.ladder",
        "ck_matrix.build", "ck_matrix.verify", "ck_matrix.gaps",
        "ck_matrix.dimension", "ck_matrix.corner", "exactmat.rank",
        "exactmat.matmul", "bratteli.chain", "bratteli.embed")},
}


class Tally:
    """Outcomes of the operations one loop ran."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.units_ok = 0
        self.attempted = 0
        self.failures: list[dict] = []
        self.kinds: dict[str, list[float]] = {}

    def run(self, op: workloads.Op) -> None:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:     # a traceback out of graphck is a failed op
            elapsed = time.perf_counter() - start
            problem = f"raised {exc!r}"
        else:
            elapsed = time.perf_counter() - start
            problem = op.check(result)
        self.attempted += 1
        self.latencies.append(elapsed)
        self.kinds.setdefault(op.kind, []).append(elapsed)
        if problem is None:
            self.units_ok += op.units
        else:
            self.failures.append({"op": self.attempted - 1, "kind": op.kind,
                                  "problem": problem[:300]})


def closed_loop(ops: list[workloads.Op], seconds: float, round_len: int = 1,
                limit: int | None = None) -> Tally:
    """Issue ``ops`` in order, cycling, each after the previous one
    returned, until ``seconds`` have passed and a whole round of
    ``round_len`` ops is done (or ``limit`` ops ran).  Whole rounds keep
    the mix of operations the same in every run."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while limit is None or i < limit:
        tally.run(ops[i % len(ops)])
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (i % round_len == 0 or elapsed >= seconds * OVERRUN):
            break
    return tally


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile of ``TAIL_LADDER``
    with at least ``TAIL_BEYOND`` samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: str, seed: int, workdir: Path, sizes: dict):
    """One full set-up; returns (seconds, plan, graphck modules)."""
    start = time.perf_counter()
    lib = workloads.graphck_modules()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    plan = workloads.WORKLOADS[workload](seed, workdir, lib, **sizes)
    for op in plan.warmup:
        op.run()
    return time.perf_counter() - start, plan, lib


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    cpu = platform.machine() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def measure(plan, seconds: float) -> tuple[dict, dict, Tally]:
    tally = closed_loop(plan.ops, seconds, plan.round_len)
    busy = sum(tally.latencies)
    tail_s, pct = tail(tally.latencies)
    metrics = {
        "throughput_per_s": tally.units_ok / busy,
        "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
    }
    info = {"samples": len(tally.latencies), "tail_percentile": pct,
            "samples_beyond_tail": TAIL_BEYOND, "busy_s": busy}
    return metrics, info, tally


def measure_traced(plan, lib, seconds: float, spans_path: Path):
    k = plan.trace_ops
    plain = closed_loop(plan.ops, seconds * TRACE_CAP, limit=k)
    trace = tracer.Tracer()
    trace.install(lib)
    try:
        traced = closed_loop(plan.ops, seconds * TRACE_CAP,
                             limit=len(plain.latencies))
    finally:
        trace.uninstall()
    self_s = trace.self_times()
    metrics = {name: 0.0 if unit == "ms" else 0 for name, unit in PER_LAYER.items()}
    for span, secs in self_s.items():
        metrics[SPAN_METRIC[span]] = secs * 1e3
    for name, n in trace.counts.items():
        metrics[name] = n
    metrics["trace_overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    total = sum(self_s.values())
    info = {"ops_per_pass": len(plain.latencies), "ops_asked": k,
            "untraced_busy_s": sum(plain.latencies),
            "traced_busy_s": sum(traced.latencies),
            "spans": len(trace.spans), "spans_file": spans_path.name,
            "self_time_share": {SPAN_METRIC[s]: round(v / total, 4)
                                for s, v in sorted(self_s.items(),
                                                   key=lambda kv: -kv[1])}}
    trace.write(spans_path)
    merged = Tally()
    for t in (plain, traced):
        merged.attempted += t.attempted
        merged.failures += t.failures
        for kind, lat in t.kinds.items():
            merged.kinds.setdefault(kind, []).extend(lat)
    return metrics, info, merged


def execute(workload: str, seed: int, seconds: float, trace: int,
            results: Path, sizes: dict | None = None) -> dict:
    """Set up, measure and check one run; returns its full record.
    ``sizes`` shrinks the inputs (keyword arguments of the workload's
    set-up), for the self-test."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = HERE / ".work" / f"{tag}-{os.getpid()}"
    try:
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SPAN:
            secs, plan, lib = setup(workload, seed, workdir, sizes or {})
            setups.append(secs)
        gc.collect()
        gc.freeze()      # keep set-up objects out of collections during timing
        if trace:
            metrics, info, tally = measure_traced(
                plan, lib, seconds, results / f"{tag}-spans.tsv.gz")
            units = PER_LAYER
        else:
            metrics, info, tally = measure(plan, seconds)
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    return {
        "command": [sys.executable, *sys.argv],
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": git_commit(), "machine": machine(),
        "setup_runs_s": setups, "plan": plan.notes,
        "ops": {"attempted": tally.attempted, "failed": failed,
                "failed_share": failed / tally.attempted,
                "by_kind": {k: {"ops": len(v), "median_ms": statistics.median(v) * 1e3}
                            for k, v in sorted(tally.kinds.items())}},
        "measurement": info,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "failures": tally.failures[:50],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "graphck" / "__init__.py").is_file():
        print(f"error: no graphck sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = execute(args.workload, args.seed, args.seconds, args.trace, results)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    ops, info = record["ops"], record["measurement"]
    for name, m in record["metrics"].items():
        print(f"{args.workload:8s} {name:34s} {m['value']:16.6f} {m['unit']}")
    print(f"{args.workload:8s} {'failed_share':34s} {ops['failed_share']:16.6f} "
          f"ratio ({ops['failed']} of {ops['attempted']} ops)")
    if "tail_percentile" in info:
        print(f"{args.workload:8s} tail is p{info['tail_percentile']:.2f} of "
              f"{info['samples']} samples")
    for f in record["failures"][:5]:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['problem']}")
    print(json.dumps({"correct": ops["failed"] == 0, "attempted": ops["attempted"],
                      "failed": ops["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
