"""Directed graphs with edge-bundle cardinalities, paths, and staged families.

A graph here is a finite vertex set together with *edge bundles*: a bundle is
a parallel family of edges sharing one source and one range, carrying a
cardinality (a finite count, countably infinite, or uncountable).  Finite
bundles expand into individually named edges; infinite bundles are never
expanded — they only feed singularity and row-class decisions, and contribute
single representative edges to witness paths.

Conventions used throughout:

* the single edge of a ``finite:1`` bundle is named by the bundle id itself;
* the k-th edge of a ``finite:n`` bundle (n >= 2) is ``"<bundle_id>#<k>"``;
* a representative edge of an infinite bundle is ``"<bundle_id>#0"``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from .errors import (
    CyclicGraphError,
    GraphBuildError,
    InfiniteBundleError,
    StageError,
    UnknownVertexError,
)

FINITE = "finite"
ALEPH0_KIND = "aleph0"
UNCOUNTABLE_KIND = "uncountable"


@dataclass(frozen=True)
class Cardinality:
    """Size of an edge bundle: ``finite`` with a positive count, or one of
    the two infinite classes."""

    kind: str
    count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (FINITE, ALEPH0_KIND, UNCOUNTABLE_KIND):
            raise GraphBuildError(f"unknown cardinality kind {self.kind!r}")
        if self.kind == FINITE and self.count < 1:
            raise GraphBuildError("finite bundle cardinality must be >= 1")
        if self.kind != FINITE and self.count != 0:
            raise GraphBuildError("infinite cardinalities carry no count")

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def encode(self) -> str:
        return f"finite:{self.count}" if self.is_finite else self.kind

    @staticmethod
    def parse(text: str) -> "Cardinality":
        if text == ALEPH0_KIND:
            return ALEPH0
        if text == UNCOUNTABLE_KIND:
            return UNCOUNTABLE
        if text.startswith("finite:"):
            raw = text[len("finite:"):]
            try:
                n = int(raw)
            except ValueError:
                raise GraphBuildError(f"bad finite cardinality {text!r}") from None
            return finite(n)
        raise GraphBuildError(f"unknown cardinality {text!r}")


def finite(count: int) -> Cardinality:
    return Cardinality(FINITE, count)


ALEPH0 = Cardinality(ALEPH0_KIND)
UNCOUNTABLE = Cardinality(UNCOUNTABLE_KIND)


@dataclass(frozen=True)
class EdgeBundle:
    """A parallel family of edges from ``src`` to ``dst``."""

    id: str
    src: str
    dst: str
    cardinality: Cardinality = finite(1)


@dataclass(frozen=True)
class Edge:
    """One concrete edge drawn from a bundle."""

    id: str
    src: str
    dst: str
    bundle_id: str
    slot: int


def representative_edge_id(bundle: EdgeBundle) -> str:
    # canonical name of the bundle's first edge
    if bundle.cardinality.is_finite and bundle.cardinality.count == 1:
        return bundle.id
    return f"{bundle.id}#0"


class Graph:
    """Immutable bundle-labelled directed graph with adjacency indexes."""

    __slots__ = ("vertices", "bundles", "vertex_set", "_by_id", "_out", "_in",
                 "_finite_edges")

    def __init__(self, vertices: Sequence[str], bundles: Sequence[EdgeBundle]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.bundles: tuple[EdgeBundle, ...] = tuple(bundles)
        self.vertex_set: frozenset[str] = frozenset(self.vertices)
        if len(self.vertex_set) != len(self.vertices):
            raise GraphBuildError("duplicate vertex id")
        self._by_id: dict[str, EdgeBundle] = {}
        self._out: dict[str, list[EdgeBundle]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[EdgeBundle]] = {v: [] for v in self.vertices}
        for b in self.bundles:
            if b.id in self._by_id:
                raise GraphBuildError(f"duplicate bundle id {b.id!r}")
            if b.src not in self.vertex_set:
                raise GraphBuildError(f"bundle {b.id!r}: unknown src {b.src!r}")
            if b.dst not in self.vertex_set:
                raise GraphBuildError(f"bundle {b.id!r}: unknown dst {b.dst!r}")
            self._by_id[b.id] = b
            self._out[b.src].append(b)
            self._in[b.dst].append(b)
        self._finite_edges: tuple[Edge, ...] | None = None

    # --- structural access -------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self.vertex_set

    def require_vertex(self, v: str) -> None:
        if v not in self.vertex_set:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def bundle(self, bundle_id: str) -> EdgeBundle:
        return self._by_id[bundle_id]

    def out_bundles(self, v: str) -> list[EdgeBundle]:
        self.require_vertex(v)
        return self._out[v]

    def in_bundles(self, v: str) -> list[EdgeBundle]:
        self.require_vertex(v)
        return self._in[v]

    def is_sink(self, v: str) -> bool:
        return not self.out_bundles(v)

    def emits_infinitely(self, v: str) -> bool:
        return any(not b.cardinality.is_finite for b in self.out_bundles(v))

    def out_degree(self, v: str) -> int | None:
        """Total number of edges out of ``v``; None when it is infinite."""
        total = 0
        for b in self.out_bundles(v):
            if not b.cardinality.is_finite:
                return None
            total += b.cardinality.count
        return total

    def all_bundles_finite(self) -> bool:
        return all(b.cardinality.is_finite for b in self.bundles)

    def finite_edges(self) -> tuple[Edge, ...]:
        """Fully expanded edge list, sorted by edge id.  Requires every
        bundle to be finite."""
        if self._finite_edges is None:
            edges = []
            for b in self.bundles:
                if not b.cardinality.is_finite:
                    raise InfiniteBundleError(
                        f"bundle {b.id!r} is not finite; cannot expand edges")
                n = b.cardinality.count
                if n == 1:
                    edges.append(Edge(b.id, b.src, b.dst, b.id, 0))
                else:
                    for k in range(n):
                        edges.append(Edge(f"{b.id}#{k}", b.src, b.dst, b.id, k))
            edges.sort(key=lambda e: e.id)
            self._finite_edges = tuple(edges)
        return self._finite_edges

    def resolve_edge(self, edge_id: str) -> Edge:
        """Map an edge id back to its bundle; accepts representative edges
        of infinite bundles."""
        base, sep, slot_text = edge_id.partition("#")
        b = self._by_id.get(base)
        if b is None:
            raise UnknownVertexError(f"unknown edge {edge_id!r}")
        if not sep:
            if not (b.cardinality.is_finite and b.cardinality.count == 1):
                raise UnknownVertexError(
                    f"edge {edge_id!r} needs a #slot for a multi-edge bundle")
            return Edge(edge_id, b.src, b.dst, b.id, 0)
        try:
            slot = int(slot_text)
        except ValueError:
            raise UnknownVertexError(f"bad edge id {edge_id!r}") from None
        if slot < 0:
            raise UnknownVertexError(f"bad edge id {edge_id!r}")
        if b.cardinality.is_finite:
            if b.cardinality.count == 1 or slot >= b.cardinality.count:
                raise UnknownVertexError(f"edge {edge_id!r} out of range")
        return Edge(edge_id, b.src, b.dst, b.id, slot)

    # --- comparison ---------------------------------------------------------

    def _canonical(self) -> tuple:
        return (tuple(sorted(self.vertices)),
                tuple(sorted(self.bundles, key=lambda b: b.id)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def is_subgraph_of(self, other: "Graph") -> bool:
        if not self.vertex_set <= other.vertex_set:
            return False
        for b in self.bundles:
            ob = other._by_id.get(b.id)
            if ob is None or ob != b:
                return False
        return True

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.bundles)} bundles)"


def build_graph(vertices: Sequence[str], bundles: Sequence[EdgeBundle]) -> Graph:
    """Validate and index a graph."""
    return Graph(vertices, bundles)


# --- paths ------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """A finite path: a composable edge-id sequence plus its vertex trail.

    Length-0 paths are single vertices.  ``vertex_seq`` always has one more
    entry than ``edges``.
    """

    source: str
    target: str
    edges: tuple[str, ...]
    vertex_seq: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    def sort_key(self) -> tuple:
        return (len(self.edges), self.edges, self.source)

    def label(self) -> str:
        return self.source if self.is_trivial else ".".join(self.edges)

    @staticmethod
    def trivial(g: Graph, v: str) -> "Path":
        g.require_vertex(v)
        return Path(v, v, (), (v,))

    @staticmethod
    def from_edges(g: Graph, edge_ids: Sequence[str]) -> "Path":
        if not edge_ids:
            raise GraphBuildError("from_edges needs at least one edge; use trivial()")
        resolved = [g.resolve_edge(eid) for eid in edge_ids]
        for a, b in zip(resolved, resolved[1:]):
            if a.dst != b.src:
                raise GraphBuildError(
                    f"edges {a.id!r} and {b.id!r} do not compose")
        seq = (resolved[0].src,) + tuple(e.dst for e in resolved)
        return Path(resolved[0].src, resolved[-1].dst, tuple(edge_ids), seq)

    def validate(self, g: Graph) -> None:
        rebuilt = (Path.trivial(g, self.source) if self.is_trivial
                   else Path.from_edges(g, self.edges))
        if rebuilt != self:
            raise GraphBuildError(f"path {self} does not live in the graph")


@dataclass(frozen=True)
class LassoPath:
    """A finite stem followed by a cycle — the shape of an eventually
    periodic infinite path."""

    stem: Path
    cycle: Path

    def __post_init__(self) -> None:
        if len(self.cycle) < 1:
            raise GraphBuildError("lasso cycle must have length >= 1")
        if self.cycle.source != self.cycle.target:
            raise GraphBuildError("lasso cycle must return to its source")
        if self.stem.target != self.cycle.source:
            raise GraphBuildError("lasso stem must end where the cycle starts")

    def visited_vertices(self) -> frozenset[str]:
        return frozenset(self.stem.vertex_seq) | frozenset(self.cycle.vertex_seq)


def enumerate_paths(g: Graph, end_at: str | None = None,
                    max_len: int | None = None) -> list[Path]:
    """All paths (length-0 included), optionally with a fixed range, each
    exactly once, sorted by (length, edge ids, source).

    Requires every bundle to be finite.  An unbounded request on a cyclic
    graph is refused.
    """
    edges = g.finite_edges()
    if max_len is None and has_cycle(g):
        raise CyclicGraphError("unbounded path enumeration on a cyclic graph")
    into: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in edges:
        into[e.dst].append(e)

    out: list[Path] = []
    targets = [end_at] if end_at is not None else list(g.vertices)
    if end_at is not None:
        g.require_vertex(end_at)
    for t in targets:
        # grow paths backwards from the range vertex
        stack: list[tuple[str, tuple[str, ...]]] = [(t, ())]
        while stack:
            front, suffix = stack.pop()
            if suffix:
                seq = (front,) + tuple(g.resolve_edge(eid).dst for eid in suffix)
                out.append(Path(front, t, suffix, seq))
            else:
                out.append(Path(t, t, (), (t,)))
            if max_len is not None and len(suffix) >= max_len:
                continue
            for e in into[front]:
                stack.append((e.src, (e.id,) + suffix))
    out.sort(key=Path.sort_key)
    return out


def count_paths_from(g: Graph, base: str) -> dict[str, int]:
    """Number of paths from ``base`` to each vertex (trivial path included),
    via cardinality-weighted DP over a topological order."""
    g.require_vertex(base)
    order = topological_order(g)
    counts = {v: 0 for v in g.vertices}
    counts[base] = 1
    for v in order:
        c = counts[v]
        if not c:
            continue
        for b in g.out_bundles(v):
            if not b.cardinality.is_finite:
                raise InfiniteBundleError(f"bundle {b.id!r} is not finite")
            counts[b.dst] += c * b.cardinality.count
    return counts


def count_paths_ending(g: Graph) -> dict[str, int]:
    """Number of paths (from anywhere, trivial included) ending at each
    vertex."""
    order = topological_order(g)
    totals = {v: 1 for v in g.vertices}  # the trivial path
    for v in order:
        for b in g.out_bundles(v):
            if not b.cardinality.is_finite:
                raise InfiniteBundleError(f"bundle {b.id!r} is not finite")
            totals[b.dst] += totals[v] * b.cardinality.count
    return totals


# --- vertex classes ----------------------------------------------------------


class VertexKind(Enum):
    SINK = "sink"
    REGULAR = "regular"
    INFINITE_EMITTER = "infinite_emitter"


@dataclass(frozen=True)
class VertexClass:
    kind: VertexKind
    out_degree: int | None  # expanded edge count; None for infinite emitters

    @property
    def is_singular(self) -> bool:
        return self.kind is not VertexKind.REGULAR


def vertex_classes(g: Graph) -> dict[str, VertexClass]:
    """Classify every vertex as sink, regular (with its out-degree), or
    infinite emitter."""
    out: dict[str, VertexClass] = {}
    for v in g.vertices:
        if g.is_sink(v):
            out[v] = VertexClass(VertexKind.SINK, 0)
        elif g.emits_infinitely(v):
            out[v] = VertexClass(VertexKind.INFINITE_EMITTER, None)
        else:
            out[v] = VertexClass(VertexKind.REGULAR, g.out_degree(v))
    return out


def sinks(g: Graph) -> list[str]:
    return [v for v in g.vertices if g.is_sink(v)]


def singular_vertices(g: Graph) -> list[str]:
    return [v for v in g.vertices if g.is_sink(v) or g.emits_infinitely(v)]


def regular_vertices(g: Graph) -> list[str]:
    return [v for v in g.vertices
            if not g.is_sink(v) and not g.emits_infinitely(v)]


# --- reachability and cycles --------------------------------------------------


def traverse(g: Graph, seeds: Iterable[str], forward: bool) -> set[str]:
    """Vertices joined to ``seeds`` by a (possibly trivial) path: reached
    from some seed when ``forward``, reaching some seed otherwise.

    The package's one reachability search over bundle adjacency, O(V + E).
    Seeds are trusted to be vertices of ``g``.
    """
    adjacency = g._out if forward else g._in
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for b in adjacency[stack.pop()]:
            w = b.dst if forward else b.src
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reachable_set(g: Graph, v: str) -> frozenset[str]:
    """Vertices reachable from ``v`` by a (possibly trivial) path."""
    g.require_vertex(v)
    return frozenset(traverse(g, [v], forward=True))


def reaches(g: Graph, v: str, w: str) -> bool:
    """BFS on bundle adjacency; reflexive by the trivial path."""
    g.require_vertex(w)
    return w in reachable_set(g, v)


def topological_order(g: Graph) -> list[str]:
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


def has_cycle(g: Graph) -> bool:
    try:
        topological_order(g)
    except CyclicGraphError:
        return True
    return False


def strongly_connected_components(g: Graph) -> list[list[str]]:
    """Iterative Tarjan over bundle adjacency."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in g.vertices:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            succs = g._out[v]
            while pi < len(succs):
                w = succs[pi].dst
                pi += 1
                work[-1] = (v, pi)
                if w not in index:
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def _scc_is_cyclic(g: Graph, comp: list[str]) -> bool:
    if len(comp) > 1:
        return True
    v = comp[0]
    return any(b.dst == v for b in g._out[v])


def _cycle_within(g: Graph, comp: list[str]) -> Path:
    """Some cycle staying inside a cyclic strongly connected component,
    using representative edges of its bundles."""
    members = set(comp)
    start = min(comp)
    # self-loop first
    for b in sorted(g._out[start], key=lambda b: b.id):
        if b.dst == start:
            return Path.from_edges(g, [representative_edge_id(b)])
    # BFS back to start inside the component
    parent: dict[str, tuple[str, EdgeBundle]] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        u = queue.popleft()
        for b in sorted(g._out[u], key=lambda b: b.id):
            w = b.dst
            if w not in members:
                continue
            if w == start:
                edges = [representative_edge_id(b)]
                cur = u
                while cur != start:
                    prev, pb = parent[cur]
                    edges.append(representative_edge_id(pb))
                    cur = prev
                edges.reverse()
                return Path.from_edges(g, edges)
            if w not in seen:
                seen.add(w)
                parent[w] = (u, b)
                queue.append(w)
    raise CyclicGraphError("component is not cyclic")  # pragma: no cover


@dataclass(frozen=True)
class CycleReport:
    has_cycle: bool
    condition_l: bool
    witness: Path | None  # an exitless cycle when condition (L) fails


def cycles_and_condition_l(g: Graph) -> CycleReport:
    """Cycle existence plus the every-cycle-has-an-exit condition.

    An exitless cycle can only run through vertices whose entire emission
    is a single one-edge bundle, so it suffices to follow those unique
    out-edges and look for a loop.  A bundle of cardinality >= 2 from a
    cycle vertex always provides an exit.
    """
    cyclic = has_cycle(g)
    # vertices with exactly one out-edge overall
    unique_out: dict[str, EdgeBundle] = {}
    for v in g.vertices:
        bs = g._out[v]
        if len(bs) == 1 and bs[0].cardinality == finite(1):
            unique_out[v] = bs[0]
    witness: Path | None = None
    state: dict[str, int] = {}  # 0 visiting, 1 done
    for v0 in g.vertices:
        if v0 not in unique_out or v0 in state:
            continue
        trail: list[str] = []
        v = v0
        while v in unique_out and v not in state:
            state[v] = 0
            trail.append(v)
            v = unique_out[v].dst
        if v in state and state[v] == 0:
            # closed a loop within this walk
            i = trail.index(v)
            loop = trail[i:]
            witness = Path.from_edges(g, [unique_out[u].id for u in loop])
            for u in trail:
                state[u] = 1
            break
        for u in trail:
            state[u] = 1
    return CycleReport(cyclic, witness is None, witness)


@dataclass(frozen=True)
class CofinalityResult:
    cofinal: bool
    witness: tuple[str, LassoPath] | None  # (vertex, unreachable cycle)


def cofinal(g: Graph) -> CofinalityResult:
    """Finite-graph cofinality: every vertex reaches every strongly
    connected component that contains a cycle.

    In a finite graph every infinite path eventually stays inside one
    cyclic component, so this is equivalent to every vertex meeting every
    infinite path.  Vacuously true when the graph is acyclic.
    """
    comps = strongly_connected_components(g)
    cyclic_comps = [sorted(c) for c in comps if _scc_is_cyclic(g, c)]
    cyclic_comps.sort()
    for comp in cyclic_comps:
        reach_back = traverse(g, comp, forward=False)
        if len(reach_back) != len(g.vertices):
            blocked = min(v for v in g.vertices if v not in reach_back)
            cyc = _cycle_within(g, comp)
            lasso = LassoPath(Path.trivial(g, cyc.source), cyc)
            return CofinalityResult(False, (blocked, lasso))
    return CofinalityResult(True, None)


# --- staged graphs -------------------------------------------------------------


@dataclass(frozen=True)
class UniformProfile:
    """Certificate a staged family attaches to its stages.

    Claims are about every stage, materialized or not; the materialized
    ones are checked, and a failure is a generator bug.

    * ``min_out_degree``: every vertex already present in the previous
      stage emits at least this many edges (so in the limit every vertex
      does).  Checked when materializing each stage past ``beyond_stage``.
    * ``spine``: 1-based vertex naming for a distinguished infinite vertex
      sequence; consecutive spine vertices must be joined by an edge.
    * ``spine_exclusive``: each non-frontier spine vertex emits exactly one
      edge, the one to the next spine vertex.
    * ``acyclic_stages``: every stage is acyclic.
    """

    min_out_degree: int | None = None
    beyond_stage: int = 0
    spine: Callable[[int], str] | None = None
    spine_exclusive: bool = False
    acyclic_stages: bool = False


class StagedGraph:
    """A monotone family of finite stages standing in for an infinite graph.

    ``build(n)`` produces stage n for n = 0, 1, 2, ...; materialized stages
    are cached and checked for monotone inclusion and for every claim the
    profile makes."""

    def __init__(self, name: str, build: Callable[[int], Graph],
                 profile: UniformProfile | None = None, *,
                 constant: bool = False, chain_kind: str | None = None):
        self.name = name
        self._build = build
        self.profile = profile
        self.constant = constant
        self.chain_kind = chain_kind  # "corner" | "tail" | None
        self._stages: dict[int, Graph] = {}

    def stage(self, n: int) -> Graph:
        if n < 0:
            raise StageError("stage index must be >= 0")
        for k in range(0, n + 1):
            if k in self._stages:
                continue
            g = self._build(k)
            if k > 0:
                prev = self._stages[k - 1]
                if not prev.is_subgraph_of(g):
                    raise StageError(
                        f"{self.name}: stage {k - 1} is not a subgraph of stage {k}")
                if self.constant and prev != g:
                    raise StageError(f"{self.name}: constant family changed at stage {k}")
            self._check_profile(k, g)
            self._stages[k] = g
        return self._stages[n]

    def spine_prefix(self, n: int) -> tuple[str, ...]:
        """Spine vertices present in stage n, in spine order."""
        prof = self.profile
        if prof is None or prof.spine is None:
            return ()
        return self._spine_in(self.stage(n))

    def _spine_in(self, g: Graph) -> tuple[str, ...]:
        # the profile's spine names in order, up to the first one g lacks
        spine = self.profile.spine
        out: list[str] = []
        while (v := spine(len(out) + 1)) in g.vertex_set:
            out.append(v)
        return tuple(out)

    def _check_profile(self, k: int, g: Graph) -> None:
        prof = self.profile
        if prof is None:
            return
        if prof.acyclic_stages and has_cycle(g):
            raise StageError(f"{self.name}: stage {k} is cyclic "
                             "but the profile claims acyclic stages")
        if prof.min_out_degree is not None and k > prof.beyond_stage and k > 0:
            prev = self._stages[k - 1]
            for v in prev.vertices:
                d = g.out_degree(v)
                if d is not None and d < prof.min_out_degree:
                    raise StageError(
                        f"{self.name}: vertex {v!r} settled with out-degree {d} "
                        f"< {prof.min_out_degree} at stage {k}")
        if prof.spine is not None:
            prefix = self._spine_in(g)
            if k > 0 and not prefix:
                raise StageError(f"{self.name}: stage {k} has no spine vertex")
            for a, b in zip(prefix, prefix[1:]):
                outs = [bb for bb in g.out_bundles(a) if bb.dst == b]
                if not outs:
                    raise StageError(
                        f"{self.name}: spine vertices {a!r}->{b!r} not joined at stage {k}")
                if prof.spine_exclusive:
                    all_out = g.out_bundles(a)
                    if len(all_out) != 1 or all_out[0].cardinality != finite(1) \
                            or all_out[0].dst != b:
                        raise StageError(
                            f"{self.name}: spine vertex {a!r} is not exclusive at stage {k}")
