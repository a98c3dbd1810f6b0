#!/usr/bin/env python3
"""Snapshot the benchmark's end-to-end metrics into ``BENCH_<tag>.json``.

For each gated workload of ``BENCHMARK.json`` this runs
``perfbench/run.py --workload W --seed s --seconds S`` as a child process,
once per seed 1..N, reads the summary line each run prints last, and writes
the median and interquartile range of every end-to-end metric, plus the
failed share, together with the command, the machine and the checkout's
HEAD.

Each run also writes its own record to ``perfbench/results/``, as
``run.py`` always does, so a snapshot replaces the records of those seeds
in this checkout.

Usage:
    python3 scripts/bench_snapshot.py --tag baseline --seeds 5 --seconds 20
    python3 scripts/bench_snapshot.py --tag quick --seeds 1 --seconds 1 --out /tmp

Compare two snapshots only when they were taken with the same seeds and
seconds on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values: list[float]) -> float:
    """Interquartile range; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def git_head() -> str:
    """HEAD, with ``-dirty`` when tracked files differ from it."""
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head + ("-dirty" if dirty else "")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a child process; returns the JSON summary it
    prints last (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def snapshot(workloads: list[str], seeds: int, seconds: float) -> dict:
    out = {}
    for workload in workloads:
        records = [run_once(workload, s, seconds) for s in range(1, seeds + 1)]
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for r in records:
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        values["failed_share"] = [r["failed"] / r["attempted"] for r in records]
        units["failed_share"] = "ratio"
        out[workload] = {
            "metrics": {name: {"unit": units[name],
                               "median": statistics.median(v),
                               "iqr": quartile_spread(v),
                               "values": v}
                        for name, v in values.items()},
            "ops_attempted": [r["attempted"] for r in records],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    ap.add_argument("--seeds", type=int, required=True,
                    help="runs per workload, seeds 1..N")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured seconds per run")
    ap.add_argument("--out", type=Path, default=ROOT,
                    help="directory for the snapshot (default: the repo root)")
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.seconds <= 0:
        ap.error("--seeds and --seconds must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    result = {
        "tag": args.tag,
        "command": [Path(sys.executable).name, *sys.argv],
        "run_command": [Path(sys.executable).name, "perfbench/run.py",
                        "--workload", "<workload>", "--seed", "<seed>",
                        "--seconds", str(args.seconds)],
        "seeds": list(range(1, args.seeds + 1)),
        "seconds": args.seconds,
        "git_head": git_head(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "workloads": snapshot(workloads, args.seeds, args.seconds),
    }
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    for workload, w in result["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:8s} {name:18s} median {m['median']:12.4f} "
                  f"iqr {m['iqr']:10.4f} {m['unit']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
