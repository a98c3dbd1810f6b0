"""Hereditary and saturated vertex sets, and the lattice they form.

A vertex set H is *hereditary* when every bundle out of H lands in H, and
*saturated* when any regular vertex whose successors all lie in H is itself
in H.  Saturation never forces sinks or infinite emitters.  Each saturated
hereditary set spans a gauge-invariant ideal, and the restriction of the
graph to a hereditary set models the ideal it generates.

The saturated hereditary sets index every gauge-invariant ideal only when
the graph has no breaking vertices.  A breaking vertex of H lies outside H,
emits infinitely, and sends a finite nonzero number of edges out of H; the
gauge-invariant ideals are then indexed by pairs (H, B), with B a set of
breaking vertices of H.  Example: v sends an ``aleph0`` bundle to w and one
edge to u.  Then H = {w} has v as a breaking vertex, and two
gauge-invariant ideals share that H.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BoundExceededError, NotHereditaryError
from .graph_model import (
    Graph,
    build_graph,
    regular_set,
    regular_vertices,
    strongly_connected_components,
    traverse,
)

# enumeration guards
LATTICE_SIZE_BOUND = 100_000
LATTICE_WORK_BOUND = LATTICE_SIZE_BOUND * 20  # vertex entries over all closures
BASIS_SIZE_BOUND = 1 << 18  # paths in one matrix model's basis (ck_matrix)


def _as_subset(g: Graph, vertices: Iterable[str]) -> frozenset[str]:
    s = frozenset(vertices)
    if not s <= g.vertex_set:
        for v in s:
            g.require_vertex(v)
    return s


def is_hereditary(g: Graph, vertices: Iterable[str]) -> bool:
    """Every bundle (of any cardinality) out of the set stays in the set."""
    s = _as_subset(g, vertices)
    return all(b.dst in s for v in s for b in g._out[v])


def is_saturated(g: Graph, vertices: Iterable[str]) -> bool:
    """No regular vertex outside the set has all its successors inside."""
    s = _as_subset(g, vertices)
    for v in regular_vertices(g):
        if v in s:
            continue
        if all(b.dst in s for b in g._out[v]):
            return False
    return True


def hereditary_closure(g: Graph, vertices: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary superset: everything reachable from the set."""
    return frozenset(traverse(g, _as_subset(g, vertices), forward=True))


def saturated_hereditary_closure(g: Graph, vertices: Iterable[str]) -> frozenset[str]:
    """Smallest saturated hereditary superset of an arbitrary set, in one
    worklist pass over the vertices and bundles it touches: O(V + E)."""
    return _close(g, frozenset(), _as_subset(g, vertices))


def _close(g: Graph, inside: frozenset[str],
           seeds: Iterable[str]) -> frozenset[str]:
    """Smallest saturated hereditary superset of ``inside | seeds``, where
    ``inside`` is already saturated and hereditary; the package's one
    closure worklist, which visits only the vertices that join.

    A vertex entering the set pulls in its successors (heredity).  Each
    bundle into a new member counts down, for its source, the out-bundles
    that still land outside; the count starts lazily at the source's
    out-bundles landing outside ``inside``.  A source whose count reaches
    zero has every successor inside and joins unless it emits infinitely
    (saturation).  Vertices that no new member points to need no count:
    ``inside`` is saturated.
    """
    work = list(frozenset(seeds) - inside)
    s = set(inside)
    s.update(work)
    out, into = g._out, g._in  # seeds are vertices; the rest is reached
    regular = regular_set(g)
    outside: dict[str, int] = {}
    while work:
        v = work.pop()
        for b in out[v]:
            if b.dst not in s:
                s.add(b.dst)
                work.append(b.dst)
        for b in into[v]:
            u = b.src
            if u in s:
                continue
            left = outside.get(u)
            if left is None:
                left = (sum(d.dst not in inside for d in out[u]) if inside
                        else len(out[u]))
            left -= 1
            outside[u] = left
            if not left and u in regular:
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


def enumerate_saturated_hereditary(g: Graph) -> list[frozenset[str]]:
    """Every saturated hereditary vertex set, sorted by ``lattice_order``.

    This is the product of ``graphck ideals``; simplicity route 3 never
    enumerates, since the lattice can be exponential in the vertex count.

    The sets form a finite distributive lattice: meet is intersection and
    the join of H and K is the closure S(H | K).  Saturation adds a regular
    vertex only once all its successors are inside, so for x in
    H & S(K | L), induct on the saturation step at which x entered: by
    heredity its successors lie in H and entered earlier, hence
    x in S((H & K) | (H & L)).  By Birkhoff's representation theorem the
    lattice is then exactly the down-sets of its join-irreducible elements,
    the element of a down-set being the closure of its union.  Every
    element is the join of the closures c(v) of its members, so the
    join-irreducibles are among the c(v), and j <= k iff a vertex v with
    c(v) = j lies in k.

    The closures c(C) are computed per strongly connected component C, in
    Tarjan's emission order, so the closures of C's successors are known;
    let X be their join.  If C lies in X then c(C) = X.  Otherwise each of
    them is strictly inside c(C), and X is the closure of
    {w in c(C) : c(w) strictly inside c(C)}: a vertex of c(C) outside X
    enters the saturation of X | C only after some successor in C or
    outside X, so by induction its closure holds C.  Hence c(C) is
    join-irreducible iff C is not inside X.  The down-sets are then walked
    with an explicit stack along a linear extension, each grown from the
    down-set without its last join-irreducible.

    The walk refuses past ``LATTICE_SIZE_BOUND`` elements, or once its
    closures hold ``LATTICE_WORK_BOUND`` vertex entries in total.
    """
    spent = 0

    def close(inside: frozenset[str], seeds: Iterable[str]) -> frozenset[str]:
        nonlocal spent
        s = _close(g, inside, seeds)
        spent += len(s)
        if spent > LATTICE_WORK_BOUND:
            raise BoundExceededError(
                f"lattice work exceeded {LATTICE_WORK_BOUND} vertex entries")
        return s

    empty: frozenset[str] = frozenset()
    closure_of: dict[str, frozenset[str]] = {}
    irreducible: dict[frozenset[str], str] = {}  # each with some v, c(v) = it
    for comp in strongly_connected_components(g):
        x = empty  # the join of the closures of comp's successors
        for v in comp:
            for b in g._out[v]:
                d = closure_of.get(b.dst, empty)  # empty inside comp
                if not d <= x:
                    x = d if x <= d else close(x, d)
        if comp[0] in x:
            c = x
        else:
            c = close(x, comp)
            irreducible.setdefault(c, comp[0])
        for v in comp:
            closure_of[v] = c
    joins = sorted(irreducible, key=len)  # a linear extension of inclusion
    reps = frozenset(irreducible.values())
    below = [(j & reps) - {irreducible[j]} for j in joins]
    lattice = [empty]
    stack = [(empty, -1)]  # (element, index of its last join-irreducible)
    while stack:
        element, last = stack.pop()
        for k in range(last + 1, len(joins)):
            if below[k] <= element:
                j = joins[k]
                joined = j if element <= j else close(element, j)
                lattice.append(joined)
                if len(lattice) > LATTICE_SIZE_BOUND:
                    raise BoundExceededError(
                        f"lattice exceeded {LATTICE_SIZE_BOUND} elements")
                stack.append((joined, k))
    return sorted(lattice, key=lattice_order)


def lattice_order(s: frozenset[str]) -> tuple:
    """Sort key of the lattice listing: size, then sorted members."""
    return len(s), tuple(sorted(s))
