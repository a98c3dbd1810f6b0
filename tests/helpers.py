"""Shared graph builders, exhaustive universes, brute-force oracles, and
hypothesis strategies for the test suite."""

from __future__ import annotations

import functools
import itertools

from hypothesis import strategies as st

from graphck import (
    ALEPH0,
    UNCOUNTABLE,
    EdgeBundle,
    Graph,
    build_graph,
    enumerate_paths,
    finite,
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
    from graphck import reaches, strongly_connected_components

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
            for b in g.in_bundles(todo.pop()):
                if b.src not in back:
                    back.add(b.src)
                    todo.append(b.src)
        if back != g.vertex_set:
            return False
    return True


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
