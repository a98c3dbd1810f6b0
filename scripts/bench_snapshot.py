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

With ``--against DIR``, DIR is a checkout of the parent commit (a
``git clone``, say).  For each workload and seed the script then runs the
benchmark once in DIR and once in this tree, alternating which side goes
first, and writes ``BENCH_<tag>_parent.json`` and ``BENCH_<tag>.json``
from those interleaved runs.  For each metric it prints how many pairs the
change won (ties count for neither side), the ratio of the two medians,
and whether the medians differ by more than the parent's interquartile
range: the rule for claiming a gain on a small, noisy machine.

Usage:
    python3 scripts/bench_snapshot.py --tag baseline --seeds 5 --seconds 20
    python3 scripts/bench_snapshot.py --tag quick --seeds 1 --seconds 1 --out /tmp
    python3 scripts/bench_snapshot.py --tag candidate --seeds 10 --seconds 50 \\
        --against ../parent

Compare two snapshots only when they were taken with the same seeds and
seconds on the same machine; alternated pairs compare best.
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


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, check=True,
                          capture_output=True, text=True).stdout.strip()


def git_head(tree: Path) -> str:
    """HEAD of ``tree``, with ``-dirty`` when tracked files differ from it."""
    try:
        head = git(tree, "rev-parse", "HEAD")
        dirty = git(tree, "status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head + ("-dirty" if dirty else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of the checkout ``tree`` in a child process;
    returns the JSON summary it prints last (``correct``, ``attempted``,
    ``failed``, ``metrics``)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(records: list[dict]) -> dict:
    """Median, interquartile range and values of every end-to-end metric,
    plus the failed share, over the runs of one workload."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in records:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    values["failed_share"] = [r["failed"] / r["attempted"] for r in records]
    units["failed_share"] = "ratio"
    return {
        "metrics": {name: {"unit": units[name],
                           "median": statistics.median(v),
                           "iqr": quartile_spread(v),
                           "values": v}
                    for name, v in values.items()},
        "ops_attempted": [r["attempted"] for r in records],
    }


def snapshot(workloads: list[str], seeds: int, seconds: float) -> dict:
    return {w: summarize([run_once(ROOT, w, s, seconds)
                          for s in range(1, seeds + 1)])
            for w in workloads}


def alternated(parent: Path, workloads: list[str], seeds: int,
               seconds: float) -> tuple[dict, dict]:
    """Snapshots of ``parent`` and of this tree from one interleaved
    series: each pair of runs shares workload and seed, and the side that
    runs first alternates from pair to pair."""
    runs: dict[Path, dict[str, list[dict]]] = {parent: {}, ROOT: {}}
    pair = 0
    for w in workloads:
        for s in range(1, seeds + 1):
            for tree in ((parent, ROOT) if pair % 2 == 0 else (ROOT, parent)):
                runs[tree].setdefault(w, []).append(
                    run_once(tree, w, s, seconds))
            pair += 1
    return tuple({w: summarize(recs) for w, recs in runs[tree].items()}
                 for tree in (parent, ROOT))


def compare(before: dict, after: dict, lower_is_better: set[str]) -> list[str]:
    """One line per workload and metric: pairs the change won, the ratio
    of medians (change / parent), and whether the medians differ by more
    than the parent's interquartile range."""
    lines = []
    for w, base in before.items():
        for name, m in base["metrics"].items():
            new = after[w]["metrics"][name]
            sign = -1 if name in lower_is_better else 1
            wins = sum(sign * (b - a) > 0
                       for a, b in zip(m["values"], new["values"]))
            diff = new["median"] - m["median"]
            ratio = (f"{new['median'] / m['median']:.3f}x" if m["median"]
                     else "n/a")
            beyond = "beyond" if abs(diff) > m["iqr"] else "within"
            lines.append(f"{w:8s} {name:18s} change won {wins}/"
                         f"{len(m['values'])} pairs; median {m['median']:.4f}"
                         f" -> {new['median']:.4f} ({ratio}); |diff| "
                         f"{abs(diff):.4f} {beyond} parent iqr {m['iqr']:.4f}")
    return lines


def _argv_without_paths() -> list[str]:
    """The script's argv with the directories of ``--against`` and
    ``--out`` left out: where a checkout sits says nothing about the
    runs."""
    out = []
    for arg in sys.argv:
        for flag in ("--against", "--out"):
            if out and out[-1] == flag:
                arg = f"<{flag[2:]} dir>"
            elif arg.startswith(flag + "="):
                arg = f"{flag}=<{flag[2:]} dir>"
        out.append(arg)
    return out


def header(tag: str, tree: Path, seeds: int, seconds: float) -> dict:
    return {
        "tag": tag,
        "command": [Path(sys.executable).name, *_argv_without_paths()],
        "run_command": [Path(sys.executable).name, "perfbench/run.py",
                        "--workload", "<workload>", "--seed", "<seed>",
                        "--seconds", str(seconds)],
        "seeds": list(range(1, seeds + 1)),
        "seconds": seconds,
        "git_head": git_head(tree),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def write(result: dict, out: Path) -> None:
    path = out / f"BENCH_{result['tag']}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    for workload, w in result["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:8s} {name:18s} median {m['median']:12.4f} "
                  f"iqr {m['iqr']:10.4f} {m['unit']}")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    ap.add_argument("--seeds", type=int, required=True,
                    help="runs per workload, seeds 1..N")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured seconds per run")
    ap.add_argument("--out", type=Path, default=ROOT,
                    help="directory for the snapshot (default: the repo root)")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="checkout of the parent commit: alternate its runs "
                         "with this tree's and write both snapshots")
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.seconds <= 0:
        ap.error("--seeds and --seconds must be positive")
    if args.against and not (args.against / "perfbench" / "run.py").is_file():
        ap.error(f"--against {args.against}: no perfbench/run.py there")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if not args.against:
        result = header(args.tag, ROOT, args.seeds, args.seconds)
        result["workloads"] = snapshot(workloads, args.seeds, args.seconds)
        write(result, args.out)
        return 0
    parent = args.against.resolve()
    before, after = alternated(parent, workloads, args.seeds, args.seconds)
    for tag, tree, snap in ((f"{args.tag}_parent", parent, before),
                            (args.tag, ROOT, after)):
        result = header(tag, tree, args.seeds, args.seconds)
        # the commit the runs alternated with
        result["paired_with"] = git_head(ROOT if tree == parent else parent)
        result["workloads"] = snap
        write(result, args.out)
    lower = {m["name"] for m in bench["end_to_end"] if m["better"] == "lower"}
    for line in compare(before, after, lower | {"failed_share"}):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
