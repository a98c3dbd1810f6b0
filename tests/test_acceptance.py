# The acceptance gate: eight criteria, each printing one verdict line.
#
# Every check here is exact — integer path counts, rank over the rationals,
# frozen oracle values — so there are no tolerances anywhere.

import json
import random
import time

from graphck import (
    DichotomyTag,
    RelativeSpec,
    VerdictTag,
    build_ck_family,
    block_decomposition,
    corner,
    dichotomy,
    downstream,
    enumerate_paths,
    enumerate_saturated_hereditary,
    gap_projections,
    hereditary_closure,
    is_hereditary,
    is_saturated,
    is_simple,
    ladder_family,
    ladder_length,
    naimark_verdict,
    ray_family,
    regular_vertices,
    run_command,
    saturated_hereditary_closure,
    sinks,
    verify_ck,
    forbidden_ladder_family,
)

import helpers
from helpers import graph_of


def announce(capsys, n, name, ok, detail=""):
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n}: {name}{tail}"


def brute_path_count(g, src, dst):
    # plain DFS enumeration, independent of the package's counting code
    outs = {}
    for e in g.finite_edges():
        outs.setdefault(e.src, []).append(e.dst)
    total = 0
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            total += 1
        stack.extend(outs.get(v, ()))
    return total


def test_criterion_1_doubled_ladder_chain(capsys):
    ok = True
    detail = ""
    elapsed_12 = None
    for depth in range(3, 13):
        t0 = time.perf_counter()
        code, text = run_command(["bratteli", "--family", "ladder2",
                                  "--depth", str(depth), "--json"])
        elapsed = time.perf_counter() - t0
        if depth == 12:
            elapsed_12 = elapsed
        obj = json.loads(text)
        d, m = obj["d"], obj["m"]
        ok &= code == 0
        ok &= d[0] == 1 and all(b == 2 * a for a, b in zip(d, d[1:]))
        ok &= m == [2] * (depth - 1)
        ok &= obj["limit"] == "UHF 2^infinity"
        sg = ladder_family(2)
        for n in range(1, depth + 1):
            g = sg.stage(n)
            ok &= d[n - 1] == brute_path_count(g, "w_1", sinks(g)[0])
        if not ok:
            detail = f"failed at depth {depth}"
            break
    if ok:
        ok = elapsed_12 < 1.0
        detail = f"depth 12 in {elapsed_12:.3f}s"
    announce(capsys, 1, "doubled-ladder chain doubles to UHF 2^infinity",
             ok, detail)


def test_criterion_2_verdict_matches_block_count(capsys):
    t0 = time.perf_counter()
    suite = helpers.acyclic_universe(5, 6)
    checked = 0
    ok = True
    detail = ""
    for n, arcs in suite:
        g = graph_of(n, arcs)
        verdict = naimark_verdict(g)
        rep = build_ck_family(g, RelativeSpec.full(g))
        blocks = block_decomposition(rep)
        unique = verdict.tag is VerdictTag.UNIQUE_IRREP_COMPACTS
        if unique != (len(blocks) == 1):
            ok, detail = False, f"equivalence broken on {n} vertices {arcs}"
            break
        if unique and verdict.dimension != blocks[0].size:
            ok, detail = False, f"dimension mismatch on {n} vertices {arcs}"
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    if ok:
        ok = elapsed < 60.0
        detail = f"{checked} graphs in {elapsed:.1f}s"
    announce(capsys, 2, "verdict equals single-block structure on the "
                        "exhaustive acyclic suite", ok, detail)


def routes_agree_with_enumeration(g) -> bool:
    """Route 2, route 3 (bottom-component closures) and the enumerated
    saturated hereditary lattice all give one answer, and a lattice witness
    is the least nontrivial element of the enumerated lattice."""
    res = is_simple(g)  # raises InternalCheckError when routes 2 and 3 differ
    lattice = enumerate_saturated_hereditary(g)
    nontrivial = [s for s in lattice if s and s != g.vertex_set]
    ok = (res.route2 == res.route3 == (res.condition_l and not nontrivial)
          and res.lattice_trivial == (not nontrivial))
    if res.witness is not None and res.witness.kind == "saturated-hereditary-set":
        ok &= res.witness.vertex_set == nontrivial[0]
    return ok


def test_criterion_3_simplicity_routes_agree(capsys):
    ok = True
    detail = ""
    checked = 0
    for n, arcs in helpers.acyclic_universe(5, 6):
        if not routes_agree_with_enumeration(graph_of(n, arcs)):
            ok, detail = False, f"disagreement on {n} vertices {arcs}"
            break
        checked += 1
    if ok:
        rng = random.Random(13)
        for i in range(10_000):
            g = helpers.random_graph(rng, max_vertices=8)
            if not routes_agree_with_enumeration(g):
                ok, detail = False, f"disagreement on random graph {i}"
                break
            checked += 1
    if ok:
        detail = f"{checked} graphs, zero disagreements"
    announce(capsys, 3, "reachability, bottom-closure and enumerated-lattice "
                        "simplicity routes agree", ok, detail)


def test_criterion_4_ck_families_verify_for_every_spec(capsys):
    ok = True
    detail = ""
    models = 0
    for n, arcs in helpers.acyclic_universe(5, 6):
        g = graph_of(n, arcs)
        regs = regular_vertices(g)
        paths = enumerate_paths(g)
        for mask in range(1 << len(regs)):
            spec = RelativeSpec.of(v for i, v in enumerate(regs)
                                   if mask >> i & 1)
            rep = build_ck_family(g, spec, paths)
            report = verify_ck(rep)
            gaps = gap_projections(rep)
            good = (report.all_imposed_hold
                    and report.ck3_exactly_at(spec.imposed)
                    and not report.failures
                    and set(gaps) == set(regs) - spec.imposed
                    and all(e.nonzero for e in gaps.values()))
            if not good:
                ok = False
                detail = (f"model failed on {n} vertices {arcs} "
                          f"spec {sorted(spec.imposed)}")
                break
            models += 1
        if not ok:
            break
    if ok:
        detail = f"{models} models, all relations exact"
    announce(capsys, 4, "all relative families verify with gaps exactly "
                        "off the imposed set", ok, detail)


def test_criterion_5_dichotomy(capsys):
    ok = True
    detail = ""
    for n, arcs in helpers.acyclic_universe(5, 6):
        g = graph_of(n, arcs)
        if not is_simple(g).simple:
            continue
        res = dichotomy(g)
        if res.tag is not DichotomyTag.CASE_I or len(sinks(g)) != 1:
            ok, detail = False, f"simple graph not CaseI: {n} {arcs}"
            break
    if ok:
        ray = dichotomy(ray_family(), depth=10)
        stage = ray_family().stage(10)
        exclusive = all(
            stage.out_degree(a) == 1 and
            stage.out_bundles(a)[0].dst == b
            for a, b in zip(ray.tail_vertices, ray.tail_vertices[1:]))
        ok = (ray.tag is DichotomyTag.CASE_II
              and ray.tail_vertices == tuple(f"v_{i}" for i in range(1, 11))
              and exclusive)
        if not ok:
            detail = "ray misclassified"
    if ok:
        ok = dichotomy(ladder_family(2), depth=6).tag is DichotomyTag.NEITHER
        if not ok:
            detail = "ladder2 not Neither"
    if ok:
        # no certificate means no claim
        blind = dichotomy(forbidden_ladder_family(2, 2), depth=5)
        ok = blind.tag is DichotomyTag.NEITHER_THROUGH_DEPTH
        v = naimark_verdict(forbidden_ladder_family(2, 2), depth=5)
        ok &= v.tag is VerdictTag.UNKNOWN_AT_DEPTH
        if not ok:
            detail = "uncertified family not honest"
    announce(capsys, 5, "sink/tail dichotomy: CaseI exhaustively, ray "
                        "CaseII, ladder2 Neither", ok, detail)


def test_criterion_6_ladder_length_oracle(capsys):
    ok = True
    detail = ""
    for n in range(2, 11):
        g = ladder_family(2).stage(n)
        got = ladder_length(g)
        want = helpers.brute_ladder_length(g)
        if got != n - 1 or got != want:
            ok, detail = False, f"stage {n}: got {got}, brute {want}"
            break
    if ok:
        detail = "stages 2..10 equal n-1 and the brute oracle"
    announce(capsys, 6, "doubled-path ladder length", ok, detail)


def test_criterion_7_corner_dimensions(capsys):
    ok = True
    detail = ""
    for n in range(2, 9):
        g = ladder_family(2).stage(n)
        rep = build_ck_family(g, RelativeSpec.full(g))
        cs = corner(rep, "w_1")
        want = (2 ** (n - 1)) ** 2
        if cs.dimension != want or not cs.full:
            ok = False
            detail = f"stage {n}: dimension {cs.dimension}, want {want}"
            break
    if ok:
        detail = "stages 2..8 match (2^(n-1))^2, all full"
    announce(capsys, 7, "ladder corner dimension and fullness", ok, detail)


def test_criterion_8_closure_laws(capsys):
    rng = random.Random(20260817)
    ok = True
    detail = ""
    for i in range(1_000):
        g = helpers.random_graph(rng, max_vertices=7, max_bundles=10)
        sub = frozenset(v for v in g.vertices if rng.random() < 0.4)
        bigger = sub | frozenset(
            v for v in g.vertices if rng.random() < 0.3)
        good = True
        for close in (hereditary_closure, saturated_hereditary_closure):
            c = close(g, sub)
            good &= c >= sub                      # extensive
            good &= close(g, c) == c              # idempotent
            good &= close(g, bigger) >= c         # monotone
            good &= is_hereditary(g, c)
        good &= is_saturated(g, saturated_hereditary_closure(g, sub))
        good &= all(downstream(g, v) == hereditary_closure(g, [v])
                    for v in g.vertices)
        if not good:
            ok, detail = False, f"law broken on sample {i}"
            break
    if ok:
        detail = "1000 sampled (graph, subset) pairs"
    announce(capsys, 8, "closure operator laws", ok, detail)
