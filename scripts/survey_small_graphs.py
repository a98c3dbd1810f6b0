#!/usr/bin/env python3
"""Survey every small labeled acyclic digraph and tabulate its verdict.

Enumerates all acyclic graphs up to the given size (single edges, no
self-loops), runs the representation verdict on each, and prints a small
census: how many are simple, how the verdicts split, and the distribution
of matrix-algebra dimensions among the unique-representation graphs.

Usage:
    python3 scripts/survey_small_graphs.py
    python3 scripts/survey_small_graphs.py --vertices 4 --arcs 6 --show-extremes
"""

from __future__ import annotations

import argparse
import itertools
import time
from collections import Counter

from graphck import (
    EdgeBundle,
    build_graph,
    has_cycle,
    naimark_verdict,
)


def acyclic_arc_sets(n: int, max_arcs: int):
    vs = [f"v{i}" for i in range(n)]
    arcs = [(a, b) for a in vs for b in vs if a != b]
    for r in range(min(len(arcs), max_arcs) + 1):
        for combo in itertools.combinations(arcs, r):
            yield vs, combo


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vertices", type=int, default=5)
    ap.add_argument("--arcs", type=int, default=6)
    ap.add_argument("--show-extremes", action="store_true",
                    help="print the largest-dimension graphs found")
    args = ap.parse_args()

    verdicts: Counter = Counter()
    dims: Counter = Counter()
    simple_count = 0
    total = 0
    best: list[tuple[int, int, tuple]] = []
    t0 = time.perf_counter()
    for n in range(1, args.vertices + 1):
        for vs, combo in acyclic_arc_sets(n, args.arcs):
            g = build_graph(vs, [EdgeBundle(f"e{i}", a, b)
                                 for i, (a, b) in enumerate(combo)])
            if has_cycle(g):
                continue
            total += 1
            v = naimark_verdict(g)
            if v.simplicity.simple:
                simple_count += 1
            verdicts[v.tag.value] += 1
            if v.dimension is not None:
                dims[v.dimension] += 1
                best.append((v.dimension, n, combo))
    elapsed = time.perf_counter() - t0

    print(f"surveyed {total} acyclic graphs "
          f"(<= {args.vertices} vertices, <= {args.arcs} arcs) "
          f"in {elapsed:.1f}s")
    print(f"simple: {simple_count} ({simple_count / total:.1%})")
    print("verdicts:")
    for tag, count in verdicts.most_common():
        print(f"  {tag:22s} {count}")
    print("dimension distribution among unique-representation graphs:")
    for d in sorted(dims):
        print(f"  M_{d:<3d} x{dims[d]}")
    if args.show_extremes and best:
        top = max(best)[0]
        print(f"largest block dimension: {top}; examples:")
        for dim, n, combo in sorted(best, reverse=True)[:3]:
            print(f"  {n} vertices, arcs {list(combo)} -> M_{dim}")


if __name__ == "__main__":
    main()
