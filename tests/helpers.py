"""Shared graph builders, exhaustive universes, brute-force oracles, and
hypothesis strategies for the test suite."""

from __future__ import annotations

import functools
import itertools
from collections import deque
from fractions import Fraction

from hypothesis import strategies as st

from graphck import (
    ALEPH0,
    UNCOUNTABLE,
    BratteliChain,
    ChainError,
    CkReport,
    CyclicGraphError,
    EdgeBundle,
    Graph,
    GraphBuildError,
    InternalCheckError,
    IntMatrix,
    NotHereditaryError,
    Path,
    RelativeSpec,
    SpineError,
    StagedGraph,
    build_graph,
    count_paths_ending,
    count_paths_from,
    enumerate_paths,
    exact_rank,
    finite,
    hereditary_closure,
    is_hereditary,
    reachable_set,
    regular_vertices,
    sinks,
)
from graphck.bratteli import CORNER, TAIL
from graphck.ideal_lattice import lattice_order
from graphck.ck_matrix import (
    GapEntry,
    MatrixRep,
    _check_model_graph,
    terminal_vertices,
)

# --- fixed examples -----------------------------------------------------------


def g1() -> Graph:
    """Two vertices, one edge v -> w."""
    return build_graph(["v", "w"], [EdgeBundle("e", "v", "w")])


def two_sinks() -> Graph:
    return build_graph(["v", "w_1", "w_2"],
                       [EdgeBundle("e_1", "v", "w_1"),
                        EdgeBundle("e_2", "v", "w_2")])


def single_loop() -> Graph:
    return build_graph(["u"], [EdgeBundle("l", "u", "u")])


def rose(k: int) -> Graph:
    return build_graph(["u"], [EdgeBundle(f"l_{j}", "u", "u")
                               for j in range(1, k + 1)])


def line(n: int) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return build_graph(vs, [EdgeBundle(f"e{i}", vs[i], vs[i + 1])
                            for i in range(n - 1)])


def disjoint_loops() -> Graph:
    return build_graph(["a", "b"], [EdgeBundle("la", "a", "a"),
                                    EdgeBundle("lb", "b", "b")])


def diamond() -> Graph:
    """Two distinct paths from top to bottom."""
    return build_graph(["t", "l", "r", "b"],
                       [EdgeBundle("e1", "t", "l"), EdgeBundle("e2", "t", "r"),
                        EdgeBundle("e3", "l", "b"), EdgeBundle("e4", "r", "b")])


def line_delta(k: int):
    """Deltas of the family whose stage n is ``line(n + 1)``."""
    return [f"v{k}"], [EdgeBundle(f"e{k - 1}", f"v{k - 1}", f"v{k}")] if k else []


def size_of(delta):
    """The ``delta_size`` of a test family: it makes the delta and counts."""
    return lambda k: sum(map(len, delta(k)))


# --- family stages built from scratch --------------------------------------------
#
# The builtin families grow by deltas; these build each stage whole from the
# families' published definitions, as the oracle the deltas must match.

_RUNG_LETTERS = "efghijklmnopqrstuvwxyz"


def ladder_stage(parallel: int, n: int) -> Graph:
    """Stage n of ``ladder<parallel>``: w_1..w_n, ``parallel`` edges per rung."""
    vertices = [f"w_{i}" for i in range(1, n + 1)]
    bundles = [EdgeBundle(f"{_RUNG_LETTERS[j]}_{i}", f"w_{i}", f"w_{i + 1}")
               for i in range(1, n) for j in range(parallel)]
    return build_graph(vertices, bundles)


def ray_stage(n: int) -> Graph:
    """Stage n of ``ray``: v_1 -> v_2 -> ... -> v_n."""
    vertices = [f"v_{i}" for i in range(1, n + 1)]
    return build_graph(vertices, [EdgeBundle(f"e_{i}", f"v_{i}", f"v_{i + 1}")
                                  for i in range(1, n)])


def forbidden_ladder_stage(len_a: int, len_b: int, n: int) -> Graph:
    """Stage n of ``forbidden_ladder_<len_a>_<len_b>``: spine first, then
    each rung's intermediate vertices."""
    vertices = [f"v_{i}" for i in range(1, n + 1)]
    bundles: list[EdgeBundle] = []
    for i in range(1, n):
        for tag, length in (("a", len_a), ("b", len_b)):
            mids = [f"{tag}{i}_{j}" for j in range(1, length)]
            hops = [f"v_{i}"] + mids + [f"v_{i + 1}"]
            vertices.extend(mids)
            bundles.extend(EdgeBundle(f"{tag}{i}_{j}e", hops[j], hops[j + 1])
                           for j in range(length))
    return build_graph(vertices, bundles)


STAGE_ORACLES = {
    "ladder1": functools.partial(ladder_stage, 1),
    "ladder2": functools.partial(ladder_stage, 2),
    "ladder3": functools.partial(ladder_stage, 3),
    "ray": ray_stage,
    "forbidden_ladder": functools.partial(forbidden_ladder_stage, 1, 2),
    "forbidden_ladder_1_3": functools.partial(forbidden_ladder_stage, 1, 3),
    "forbidden_ladder_2_3": functools.partial(forbidden_ladder_stage, 2, 3),
}


# --- chains built stage by stage ------------------------------------------------
#
# The route ``corner_chain`` and ``tail_chain`` replaced: build every stage
# 1..depth and count its paths afresh.  The deltas' route must match it,
# answer for answer and error for error.


def stagewise_corner_chain(sg: StagedGraph, depth: int,
                           corner_vertex: str | None = None) -> BratteliChain:
    if depth < 1:
        raise ChainError("corner chain needs depth >= 1")
    sg.grow(depth)
    if corner_vertex is None:
        prefix = sg.spine_prefix(1)
        if not prefix:
            raise ChainError(f"{sg.name}: no spine; pass corner_vertex")
        corner_vertex = prefix[0]
    d: list[int] = []
    mults: list[int] = []
    prev_sink: str | None = None
    for n in range(1, depth + 1):
        g = sg.stage(n)
        sk = sinks(g)
        if len(sk) != 1:
            raise ChainError(
                f"{sg.name}: stage {n} has {len(sk)} sinks; corner chains "
                "need exactly one")
        t = sk[0]
        if corner_vertex not in g.vertex_set:
            raise ChainError(f"{sg.name}: corner vertex {corner_vertex!r} "
                             f"missing from stage {n}")
        d.append(count_paths_from(g, corner_vertex)[t])
        if prev_sink is not None:
            mults.append(count_paths_from(g, prev_sink)[t])
            if d[-1] != mults[-1] * d[-2]:
                raise ChainError(
                    f"{sg.name}: stage {n} corner size {d[-1]} is not "
                    f"{mults[-1]} * {d[-2]}; paths bypass the spine")
        prev_sink = t
    return BratteliChain(CORNER, tuple(d), tuple(mults),
                         corner=corner_vertex, label=sg.name)


def stagewise_tail_chain(sg: StagedGraph, depth: int) -> BratteliChain:
    if depth < 1:
        raise ChainError("tail chain needs depth >= 1")
    sg.grow(depth)
    d: list[int] = []
    prev_sink: str | None = None
    for n in range(1, depth + 1):
        g = sg.stage(n)
        sk = sinks(g)
        if len(sk) != 1:
            raise ChainError(
                f"{sg.name}: stage {n} has {len(sk)} sinks; tail chains "
                "need exactly one")
        t = sk[0]
        if prev_sink is not None:
            outs = g.out_bundles(prev_sink)
            edges = g.out_degree(prev_sink)
            if len(outs) != 1 or edges != 1:
                raise SpineError(
                    f"{sg.name}: old sink {prev_sink!r} emits "
                    f"{edges if edges is not None else 'infinitely many'} "
                    f"edges at stage {n}; a tail extends by exactly one")
            if outs[0].dst != t:
                raise ChainError(
                    f"{sg.name}: tail edge {outs[0].id!r} lands on "
                    f"{outs[0].dst!r}, not the stage-{n} sink {t!r}")
        d.append(count_paths_ending(g)[t])
        prev_sink = t
    return BratteliChain(TAIL, tuple(d), tuple([1] * (len(d) - 1)),
                         label=sg.name)


# --- path and reachability checks ----------------------------------------------


def reaches(g: Graph, v: str, w: str) -> bool:
    """BFS on bundle adjacency; reflexive by the trivial path."""
    g.require_vertex(w)
    return w in reachable_set(g, v)


def validate_path(g: Graph, path: Path) -> None:
    """Raise GraphBuildError unless ``path`` is the path its edge ids (or
    its source, when trivial) spell in ``g``."""
    rebuilt = (Path.trivial(g, path.source) if path.is_trivial
               else Path.from_edges(g, path.edges))
    if rebuilt != path:
        raise GraphBuildError(f"path {path} does not live in the graph")


# --- exhaustive universes ------------------------------------------------------
#
# Universes are cached as arc tuples (cheap), not Graph objects; rebuild with
# graph_of on demand.


def vertex_names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def graph_of(n: int, arcs: tuple[tuple[str, str], ...]) -> Graph:
    return build_graph(vertex_names(n),
                       [EdgeBundle(f"e{i}", a, b) for i, (a, b) in enumerate(arcs)])


def _arcs_acyclic(n: int, arcs) -> bool:
    # tiny Kahn over the arc list; cheaper than building a Graph to ask
    outs: dict[str, list[str]] = {}
    indeg: dict[str, int] = {v: 0 for v in vertex_names(n)}
    for a, b in arcs:
        outs.setdefault(a, []).append(b)
        indeg[b] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in outs.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


@functools.lru_cache(maxsize=None)
def acyclic_universe(max_vertices: int = 5, max_arcs: int = 6) -> tuple:
    """Every labeled acyclic digraph (single edges, no self-loops) up to the
    given sizes, as (vertex count, arc tuple) pairs."""
    out = []
    for n in range(1, max_vertices + 1):
        vs = vertex_names(n)
        all_arcs = [(a, b) for a in vs for b in vs if a != b]
        for r in range(min(len(all_arcs), max_arcs) + 1):
            for combo in itertools.combinations(all_arcs, r):
                if _arcs_acyclic(n, combo):
                    out.append((n, combo))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def digraph_universe(max_vertices: int = 3, max_arcs: int = 5) -> tuple:
    """Every labeled digraph (self-loops allowed) up to the given sizes."""
    out = []
    for n in range(1, max_vertices + 1):
        vs = vertex_names(n)
        all_arcs = [(a, b) for a in vs for b in vs]
        for r in range(min(len(all_arcs), max_arcs) + 1):
            for combo in itertools.combinations(all_arcs, r):
                out.append((n, combo))
    return tuple(out)


# --- randomized graphs -----------------------------------------------------------


def random_graph(rng, max_vertices: int = 8, max_bundles: int = 12,
                 infinite_ok: bool = True) -> Graph:
    """Seeded random graph with mixed edge cardinalities; cycles allowed."""
    n = rng.randint(1, max_vertices)
    vs = vertex_names(n)
    bundles = []
    for i in range(rng.randint(0, max_bundles)):
        roll = rng.random()
        if roll < 0.7 or not infinite_ok:
            card = finite(1) if roll < 0.55 else finite(rng.randint(2, 3))
        elif roll < 0.9:
            card = ALEPH0
        else:
            card = UNCOUNTABLE
        bundles.append(EdgeBundle(f"e{i}", rng.choice(vs), rng.choice(vs), card))
    return build_graph(vs, bundles)


# --- brute-force oracles -----------------------------------------------------------


def kahn_order(g: Graph) -> list[str]:
    """Kahn's algorithm; raises CyclicGraphError when a cycle exists."""
    indeg = {v: 0 for v in g.vertices}
    for b in g.bundles:
        indeg[b.dst] += 1
    queue = deque(v for v in g.vertices if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for b in g._out[v]:
            indeg[b.dst] -= 1
            if indeg[b.dst] == 0:
                queue.append(b.dst)
    if len(order) != len(g.vertices):
        raise CyclicGraphError("graph has a cycle")
    return order


def saturate(g: Graph, vertices) -> frozenset[str]:
    """Smallest saturated superset of a hereditary set, by fixpoint; the
    result is still hereditary, because a vertex is only added once all
    its successors are already inside."""
    s = set(vertices)
    if not is_hereditary(g, s):
        raise NotHereditaryError("saturate requires a hereditary set")
    return _saturate_fixpoint(g, s)


def _saturate_fixpoint(g: Graph, s: set[str]) -> frozenset[str]:
    regs = regular_vertices(g)
    changed = True
    while changed:
        changed = False
        for v in regs:
            if v in s:
                continue
            if all(b.dst in s for b in g._out[v]):
                s.add(v)
                changed = True
    return frozenset(s)


def join_closure_lattice(g: Graph) -> list[frozenset[str]]:
    """Every saturated hereditary set, by closing the singleton closures
    under the join ``saturate(A | B)``: any saturated hereditary set is
    the join of the singleton closures of its members.  Its closures go
    through the fixpoint ``saturate``, not the worklist closure that route
    3 and the production enumeration use."""
    generators = {saturate(g, hereditary_closure(g, [v])) for v in g.vertices}
    lattice = {frozenset()} | generators
    frontier = list(lattice)
    while frontier:
        a = frontier.pop()
        for b in generators:
            if b <= a:
                continue
            # a union of hereditary sets is hereditary
            j = b if b >= a else _saturate_fixpoint(g, set(a | b))
            if j not in lattice:
                lattice.add(j)
                frontier.append(j)
    return sorted(lattice, key=lattice_order)


def brute_ladder_length(g: Graph) -> int:
    """Longest chain under the at-least-two-distinct-paths relation, by
    literal path enumeration."""
    counts: dict[tuple[str, str], int] = {}
    for p in enumerate_paths(g):
        if p.source != p.target:
            key = (p.source, p.target)
            counts[key] = counts.get(key, 0) + 1
    pairs = {k for k, c in counts.items() if c >= 2}

    @functools.lru_cache(maxsize=None)
    def chase(v: str) -> int:
        return max((1 + chase(w) for (u, w) in pairs if u == v), default=0)

    return max((chase(v) for v in g.vertices), default=0)


def brute_cofinal(g: Graph) -> bool:
    """Every vertex reaches every vertex that lies on a cycle."""
    from graphck import strongly_connected_components

    on_cycle: set[str] = set()
    for comp in strongly_connected_components(g):
        members = set(comp)
        if len(comp) > 1:
            on_cycle |= members
        else:
            v = comp[0]
            if any(b.dst == v for b in g.out_bundles(v)):
                on_cycle.add(v)
    return all(reaches(g, v, w) for v in g.vertices for w in on_cycle)


def brute_reaches_all_singular(g: Graph) -> bool:
    """Every vertex reaches every singular vertex (a sink or an infinite
    emitter), by one reverse search per singular vertex."""
    singular = [v for v in g.vertices
                if not g.out_bundles(v)
                or any(not b.cardinality.is_finite for b in g.out_bundles(v))]
    for s in singular:
        back = {s}
        todo = [s]
        while todo:
            for b in g._in[todo.pop()]:
                if b.src not in back:
                    back.add(b.src)
                    todo.append(b.src)
        if back != g.vertex_set:
            return False
    return True


# --- enumerated model oracle ----------------------------------------------------------
#
# A builder independent of the grown basis: enumerate every path, keep those
# into a terminal vertex, and find where each edge sends each basis path by
# looking its extension up.


def path_basis(g: Graph, spec: RelativeSpec,
               all_paths: list[Path] | None = None) -> list[Path]:
    """Basis paths: every path whose range is a terminal vertex, in the
    deterministic (length, edge ids, source) order.

    ``all_paths`` may carry a precomputed ``enumerate_paths(g)`` result to
    share enumeration across several specs on the same graph.
    """
    _check_model_graph(g)
    terms = set(terminal_vertices(g, spec))
    if all_paths is None:
        all_paths = enumerate_paths(g)
    return [p for p in all_paths if p.target in terms]


def enumerated_ck_family(g: Graph, spec: RelativeSpec,
                         all_paths: list[Path] | None = None) -> MatrixRep:
    """Assemble the model for a finite acyclic graph with finite bundles,
    one position per ``path_basis`` path, in that order."""
    basis = path_basis(g, spec, all_paths)
    index: dict[Path, int] = {p: i for i, p in enumerate(basis)}

    by_source: dict[str, list[int]] = {v: [] for v in g.vertices}
    for i, p in enumerate(basis):
        by_source[p.source].append(i)
    edge_maps: dict[str, dict[int, int]] = {}
    for e in g.finite_edges():
        col_to_row: dict[int, int] = {}
        for i in by_source[e.dst]:
            tail = basis[i]
            extended = Path(e.src, tail.target, (e.id,) + tail.edges)
            col_to_row[i] = index[extended]
        edge_maps[e.id] = col_to_row
    return MatrixRep(g, spec,
                     {v: frozenset(idxs) for v, idxs in by_source.items()},
                     edge_maps, len(basis))


# --- composed path maps ------------------------------------------------------------
#
# The route the dimension certificate took before it read the path-count DP:
# compose each path's map from its edges' maps.


def path_composer(rep):
    """A function giving the col -> row map of each path operator of
    ``rep``.  A trivial path's map is the identity on its vertex's support;
    any other path's is its first edge's map after the map of the rest,
    memoised on the edge tuple.  The recursion on suffixes runs on a list,
    not the call stack, so a path may be longer than the interpreter's
    recursion limit."""
    maps = rep.edge_maps
    memo: dict[tuple[str, ...], dict[int, int]] = {}

    def path_map(path: Path) -> dict[int, int]:
        if path.is_trivial:
            return {i: i for i in rep.supports[path.source]}
        edges = path.edges
        pending = []  # suffixes whose maps are still to compose, longest first
        while len(edges) > 1 and (m := memo.get(edges)) is None:
            pending.append(edges)
            edges = edges[1:]
        if len(edges) == 1:
            m = maps[edges[0]]
        for suffix in reversed(pending):
            first = maps[suffix[0]]
            m = {c: first[r] for c, r in m.items() if r in first}
            memo[suffix] = m
        return m

    return path_map


def least_row_dimension(rep, source: str | None) -> int:
    """The composed least-row route the dimension certificate replaced.

    The positions are labelled by the enumerated ``path_basis``.  Each
    basis path a into a terminal t (starting at ``source``, unless it is
    None) must send t's trivial path to a itself as its least row, so the
    unit S_a S_b* leads at (index a, index b); the basis must hold every
    such path the path-count DP counts; the rank is then the sum of the
    squared counts.  A failed check raises ``InternalCheckError``."""
    g = rep.checked().graph
    basis = path_basis(g, rep.spec)
    if len(basis) != rep.dim:
        raise InternalCheckError(
            f"model has {rep.dim} positions for {len(basis)} basis paths")
    trivial = {p.source: i for i, p in enumerate(basis) if p.is_trivial}
    compose = path_composer(rep)
    counts = dict.fromkeys(trivial, 0)
    for i, a in enumerate(basis):
        if source is not None and a.source != source:
            continue
        m = compose(a)
        if m.get(trivial[a.target]) != i or min(m.values()) != i:
            raise InternalCheckError(
                f"path {a.label()} does not send {a.target} to itself "
                "as its least row")
        counts[a.target] += 1
    expected = (count_paths_ending(g) if source is None
                else count_paths_from(g, source))
    for t, n in counts.items():
        if n != expected[t]:
            raise InternalCheckError(
                f"basis holds {n} of the {expected[t]} paths into {t}")
    return sum(n * n for n in counts.values())


# --- general-product model oracles ---------------------------------------------------
#
# The route the model code took before path operators became composed
# partial permutations: every operator is an honest IntMatrix product.


def product_path_matrix(rep, path: Path) -> IntMatrix:
    """A path's operator: its vertex projection when trivial, else the
    product of its edge isometries."""
    if path.is_trivial:
        return rep.vertex_projections[path.source]
    m = rep.edge_isometries[path.edges[0]]
    for eid in path.edges[1:]:
        m = m @ rep.edge_isometries[eid]
    return m


def product_unit_vectors(rep, groups) -> list[dict[int, int]]:
    """``(S_a @ S_b.T).vectorize()`` for every pair within each group of
    paths."""
    out = []
    for group in groups:
        ops = [product_path_matrix(rep, p) for p in group]
        for a in ops:
            for b in ops:
                out.append((a @ b.transpose()).vectorize())
    return out


def product_embed_check(small, rep_big) -> tuple[bool, int, list[str]]:
    """``embed_check``'s (ok, pairs_checked, failures) by IntMatrix sums of
    products, over every pair of the smaller stage's paths into each of its
    sinks; a failure line counts the pairs that fail at its vertex."""
    big = rep_big.graph
    by_target: dict[str, list[Path]] = {}
    for p in enumerate_paths(small):
        if small.is_sink(p.target):
            by_target.setdefault(p.target, []).append(p)
    checked = 0
    failures = []
    for v, paths in sorted(by_target.items()):
        outs = [e for e in big.finite_edges() if e.src == v]
        failed = 0
        for a in paths:
            for b in paths:
                lhs = (product_path_matrix(rep_big, a)
                       @ product_path_matrix(rep_big, b).transpose())
                rhs = lhs if big.is_sink(v) else IntMatrix.zero(rep_big.dim)
                for e in outs:
                    ae = Path(a.source, e.dst, a.edges + (e.id,))
                    be = Path(b.source, e.dst, b.edges + (e.id,))
                    rhs = rhs + (product_path_matrix(rep_big, ae)
                                 @ product_path_matrix(rep_big, be).transpose())
                checked += 1
                failed += lhs != rhs
        if failed:
            failures.append(f"{failed} units at {v}")
    return not failures, checked, failures


def product_verify_ck(rep) -> CkReport:
    """``verify_ck`` by honest matrix arithmetic on the model's IntMatrix
    views: every identity as a product, O(V^2 + E^2) of them."""
    g = rep.graph
    failures: list[str] = []
    edges = g.finite_edges()
    range_proj: dict[str, IntMatrix] = {}

    ck1_ok = True
    ck2_ok = True
    for e in edges:
        s = rep.edge_isometries[e.id]
        r = s @ s.transpose()
        range_proj[e.id] = r
        if s.transpose() @ s != rep.vertex_projections[e.dst]:
            ck1_ok = False
            failures.append(f"ck1 fails at edge {e.id}")
        if r @ rep.vertex_projections[e.src] != r:
            ck2_ok = False
            failures.append(f"ck2 fails at edge {e.id}")

    mutual = True
    verts = list(g.vertices)
    for i, v in enumerate(verts):
        pv = rep.vertex_projections[v]
        for w in verts[i + 1:]:
            if (pv @ rep.vertex_projections[w]).entries:
                mutual = False
                failures.append(f"vertex projections {v}, {w} not orthogonal")
    ids = [e.id for e in edges]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if (range_proj[a] @ range_proj[b]).entries:
                mutual = False
                failures.append(f"edge ranges {a}, {b} not orthogonal")

    ck3: dict[str, bool] = {}
    for v in regular_vertices(g):
        total = IntMatrix.zero(rep.dim)
        for e in edges:
            if e.src == v:
                total = total + range_proj[e.id]
        held = total == rep.vertex_projections[v]
        ck3[v] = held
        if held != (v in rep.spec.imposed):
            failures.append(
                f"ck3 at {v}: held={held}, imposed={v in rep.spec.imposed}")
    return CkReport(ck1_ok, ck2_ok, ck3, mutual, failures)


def product_gap_projections(rep) -> dict[str, GapEntry]:
    """``gap_projections`` by IntMatrix differences of products: the first
    failure of ``product_verify_ck``, if any, is raised instead, and each
    gap must be the diagonal on the positions it covers."""
    g = rep.graph
    failures = product_verify_ck(rep).failures
    if failures:
        raise InternalCheckError(failures[0])
    out: dict[str, GapEntry] = {}
    for v in regular_vertices(g):
        if v in rep.spec.imposed:
            continue
        q = rep.vertex_projections[v]
        for e in g.finite_edges():
            if e.src == v:
                s = rep.edge_isometries[e.id]
                q = q - (s @ s.transpose())
        out[v] = GapEntry(frozenset(r for r, _ in q.entries), rep.dim)
        assert out[v].matrix == q, f"gap at {v} is not a projection"
    return out


def matrix_unit(ma: dict[int, int], mb: dict[int, int],
                dim: int) -> dict[int, int]:
    """``(S_a S_b*).vectorize()`` from the col -> row maps of two paths."""
    return {r * dim + mb[c]: 1 for c, r in ma.items() if c in mb}


def rank_dimension(rep, source: str | None) -> int:
    """The elimination route that the dimension certificate replaced:
    ``exact_rank`` over the matrix unit of every pair of paths with a
    common range, both paths starting at ``source`` unless it is None."""
    groups: dict[str, list[Path]] = {}
    for p in enumerate_paths(rep.graph):
        if source is None or p.source == source:
            groups.setdefault(p.target, []).append(p)
    compose = path_composer(rep)
    vectors = []
    for group in groups.values():
        ms = [compose(p) for p in group]
        vectors.extend(matrix_unit(ma, mb, rep.dim) for ma in ms for mb in ms)
    return exact_rank(vectors)


def fraction_rank(vectors) -> int:
    """Rank over Q by Gaussian elimination on Fraction rows.  A row is
    reduced by the pivot that leads at its largest position until it
    vanishes or, normalised to lead 1 there, becomes a new pivot."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for vec in vectors:
        row = {k: Fraction(v) for k, v in vec.items() if v}
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = {k: v / row[col] for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivot.items():
                nv = row.get(k, 0) - factor * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


# --- hypothesis strategies -----------------------------------------------------------


@st.composite
def graphs(draw, max_vertices: int = 5, max_bundles: int = 8,
           acyclic: bool = False, infinite_ok: bool = False):
    n = draw(st.integers(1, max_vertices))
    vs = vertex_names(n)
    k = draw(st.integers(0, max_bundles))
    cards = [finite(1), finite(1), finite(2), finite(3)]
    if infinite_ok:
        cards += [ALEPH0, UNCOUNTABLE]
    bundles = []
    for i in range(k):
        if acyclic:
            if n < 2:
                break
            a = draw(st.integers(0, n - 2))
            b = draw(st.integers(a + 1, n - 1))
            src, dst = vs[a], vs[b]
        else:
            src = draw(st.sampled_from(vs))
            dst = draw(st.sampled_from(vs))
        bundles.append(EdgeBundle(f"e{i}", src, dst,
                                  draw(st.sampled_from(cards))))
    return build_graph(vs, bundles)


@st.composite
def graph_and_subset(draw, **kwargs):
    g = draw(graphs(**kwargs))
    sub = draw(st.sets(st.sampled_from(list(g.vertices))))
    return g, frozenset(sub)
