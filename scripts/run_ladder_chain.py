#!/usr/bin/env python3
"""Walk the doubled-ladder chain a stage at a time and watch the numbers.

For each depth up to --max-depth this prints the block sizes, the inclusion
multiplicities, the named limit, and (with --verify) the exact embedding
certificate between the last two stages, read off the bigger stage's
Cuntz-Krieger relations.  Everything is integer arithmetic; a failure here
is a real bug, not noise.

Usage:
    python3 scripts/run_ladder_chain.py
    python3 scripts/run_ladder_chain.py --parallel 3 --max-depth 10 --verify
"""

from __future__ import annotations

import argparse
import time

from graphck import (
    RelativeSpec,
    build_ck_family,
    corner,
    corner_chain,
    direct_limit_summary,
    embed_check,
    ladder_family,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parallel", type=int, default=2,
                    help="edges per rung (default 2)")
    ap.add_argument("--max-depth", type=int, default=12)
    ap.add_argument("--verify", action="store_true",
                    help="run the exact embedding check at every step")
    args = ap.parse_args()

    sg = ladder_family(args.parallel)
    print(f"family {sg.name}: corner chain at the first rung vertex")
    t0 = time.perf_counter()
    for depth in range(3, args.max_depth + 1):
        chain = corner_chain(sg, depth)
        limit = direct_limit_summary(chain)
        line = (f"depth {depth:2d}  d = {' '.join(map(str, chain.d))}  "
                f"m = {' '.join(map(str, chain.m))}  -> {limit.render()}")
        if args.verify:
            small, big = sg.stage(depth - 1), sg.stage(depth)
            emb = embed_check(
                build_ck_family(small, RelativeSpec.full(small)),
                build_ck_family(big, RelativeSpec.full(big)))
            line += f"  [embedding: {'ok' if emb.ok else 'FAIL'}, {emb.pairs_checked} units]"
        print(line)
    elapsed = time.perf_counter() - t0
    print(f"total {elapsed:.2f}s")

    # the corner at the first vertex matches the chain's last size, squared
    g = sg.stage(args.max_depth)
    rep = build_ck_family(g, RelativeSpec.full(g))
    cs = corner(rep, "w_1")
    chain = corner_chain(sg, args.max_depth)
    print(f"corner at w_1 of stage {args.max_depth}: dimension {cs.dimension} "
          f"(= {chain.d[-1]}^2: {cs.dimension == chain.d[-1] ** 2}), "
          f"full: {cs.full}")


if __name__ == "__main__":
    main()
