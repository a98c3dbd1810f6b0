"""Hereditary and saturated vertex sets, and the gauge-invariant ideal lattice.

A vertex set H is *hereditary* when every bundle out of H lands in H, and
*saturated* when any regular vertex whose successors all lie in H is itself
in H.  Saturation never forces sinks or infinite emitters.  Saturated
hereditary sets index ideals; the restriction of the graph to a hereditary
set models the ideal it generates.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BoundExceededError, NotHereditaryError
from .graph_model import Graph, build_graph, regular_vertices, traverse

# enumeration guards
DEFAULT_VERTEX_BOUND = 20
LATTICE_SIZE_BOUND = 100_000
BASIS_SIZE_BOUND = 1 << 18  # paths in one matrix model's basis (ck_matrix)


def _as_subset(g: Graph, vertices: Iterable[str]) -> frozenset[str]:
    s = frozenset(vertices)
    for v in s:
        g.require_vertex(v)
    return s


def is_hereditary(g: Graph, vertices: Iterable[str]) -> bool:
    """Every bundle (of any cardinality) out of the set stays in the set."""
    s = _as_subset(g, vertices)
    return all(b.dst in s for v in s for b in g.out_bundles(v))


def is_saturated(g: Graph, vertices: Iterable[str]) -> bool:
    """No regular vertex outside the set has all its successors inside."""
    s = _as_subset(g, vertices)
    for v in regular_vertices(g):
        if v in s:
            continue
        if all(b.dst in s for b in g.out_bundles(v)):
            return False
    return True


def hereditary_closure(g: Graph, vertices: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary superset: everything reachable from the set."""
    return frozenset(traverse(g, _as_subset(g, vertices), forward=True))


def saturate(g: Graph, vertices: Iterable[str]) -> frozenset[str]:
    """Smallest saturated superset of a hereditary set; the result is still
    hereditary, because a vertex is only added once all its successors are
    already inside."""
    s = set(_as_subset(g, vertices))
    if not is_hereditary(g, s):
        raise NotHereditaryError("saturate requires a hereditary set")
    regs = regular_vertices(g)
    changed = True
    while changed:
        changed = False
        for v in regs:
            if v in s:
                continue
            if all(b.dst in s for b in g.out_bundles(v)):
                s.add(v)
                changed = True
    return frozenset(s)


def saturated_hereditary_closure(g: Graph, vertices: Iterable[str]) -> frozenset[str]:
    """Smallest saturated hereditary superset of an arbitrary set, in one
    worklist pass over the vertices and bundles it touches: O(V + E).

    A vertex entering the set pulls in its successors (heredity).  Each
    bundle into a member counts down, for its source, the out-bundles that
    still land outside; the count starts lazily at the source's full
    out-bundle count.  A source whose count reaches zero has every
    successor inside and joins unless it emits infinitely (saturation).
    Agrees with ``saturate(g, hereditary_closure(g, vertices))``.
    """
    s = set(_as_subset(g, vertices))
    outside: dict[str, int] = {}
    work = list(s)
    while work:
        v = work.pop()
        for b in g.out_bundles(v):
            if b.dst not in s:
                s.add(b.dst)
                work.append(b.dst)
        for b in g.in_bundles(v):
            u = b.src
            if u in s:
                continue
            left = outside.get(u, len(g.out_bundles(u))) - 1
            outside[u] = left
            if not left and not g.emits_infinitely(u):
                s.add(u)
                work.append(u)
    return frozenset(s)


def downstream(g: Graph, v: str) -> frozenset[str]:
    """All vertices reachable from v — the hereditary closure of {v}."""
    g.require_vertex(v)
    return hereditary_closure(g, [v])


def restrict_to(g: Graph, vertices: Iterable[str]) -> Graph:
    """Subgraph on a hereditary set: its vertices plus every bundle with
    source inside (ranges stay inside by heredity).  Bundle ids are kept."""
    s = _as_subset(g, vertices)
    if not is_hereditary(g, s):
        raise NotHereditaryError("restrict_to requires a hereditary set")
    kept_vertices = [v for v in g.vertices if v in s]
    kept_bundles = [b for b in g.bundles if b.src in s]
    return build_graph(kept_vertices, kept_bundles)


def enumerate_saturated_hereditary(
        g: Graph, bound: int = DEFAULT_VERTEX_BOUND) -> list[frozenset[str]]:
    """Every saturated hereditary vertex set, sorted by size then
    lexicographically.

    This is the product of ``graphck ideals`` and the oracle the tests hold
    simplicity route 3 against; route 3 itself never enumerates, since the
    lattice can be exponential in the vertex count.

    Generation is closure-based, not powerset-based: the closures of the
    singletons generate the lattice under the join
    ``saturate(hereditary_closure(A | B))``, because any saturated
    hereditary set equals the join of the singleton closures of its
    members.  Closures here go through the fixpoint ``saturate``, not the
    worklist of ``saturated_hereditary_closure``, so the oracle shares no
    closure code with route 3.  A size guard protects against pathological
    blowup (a graph with no edges has the full powerset as its lattice).
    """
    if len(g.vertices) > bound:
        raise BoundExceededError(
            f"graph has {len(g.vertices)} vertices, bound is {bound}")
    empty: frozenset[str] = frozenset()
    lattice: set[frozenset[str]] = {empty}  # the empty set is always saturated
    generators = [saturate(g, hereditary_closure(g, [v])) for v in g.vertices]
    lattice.update(generators)
    frontier = list(lattice)
    while frontier:
        a = frontier.pop()
        for b in generators:
            j = b if b >= a else saturate(g, a | b)
            if j not in lattice:
                lattice.add(j)
                frontier.append(j)
                if len(lattice) > LATTICE_SIZE_BOUND:
                    raise BoundExceededError(
                        f"lattice exceeded {LATTICE_SIZE_BOUND} elements")
    if g.vertices:
        lattice.add(frozenset(g.vertex_set))
    return sorted(lattice, key=lattice_order)


def lattice_order(s: frozenset[str]) -> tuple:
    """Sort key of the lattice listing: size, then sorted members."""
    return len(s), tuple(sorted(s))
