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
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    BoundExceededError,
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
            try:  # ASCII decimal digits only: no sign, space, _ or other script
                if not (raw.isascii() and raw.isdigit()):
                    raise ValueError
                n = int(raw)
            except ValueError:  # also a count past the int digit limit
                raise GraphBuildError(f"bad finite cardinality {text!r}") from None
            return finite(n)
        raise GraphBuildError(f"unknown cardinality {text!r}")


def finite(count: int) -> Cardinality:
    return Cardinality(FINITE, count)


ALEPH0 = Cardinality(ALEPH0_KIND)
UNCOUNTABLE = Cardinality(UNCOUNTABLE_KIND)


class EdgeBundle(NamedTuple):
    """A parallel family of edges from ``src`` to ``dst``.  A named tuple
    (cheap to build, one per document edge), so it also compares equal to
    the plain tuple of its fields."""

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


def representative_edge_id(bundle: EdgeBundle) -> str:
    # canonical name of the bundle's first edge
    if bundle.cardinality.count == 1:
        return bundle.id
    return f"{bundle.id}#0"


class Graph:
    """Immutable bundle-labelled directed graph with adjacency indexes."""

    __slots__ = ("vertices", "bundles", "vertex_set", "_by_id", "_out", "_in",
                 "_finite_edges", "_components", "_cyclic", "_kinds",
                 "_regular")

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
        self._components: tuple[tuple[str, ...], ...] | None = None
        self._cyclic: bool | None = None
        self._kinds: tuple[tuple[str, ...], tuple[str, ...]] | None = None
        self._regular: frozenset[str] | None = None

    # --- structural access -------------------------------------------------

    def require_vertex(self, v: str) -> None:
        if v not in self.vertex_set:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def out_bundles(self, v: str) -> list[EdgeBundle]:
        self.require_vertex(v)
        return self._out[v]

    def is_sink(self, v: str) -> bool:
        return not self.out_bundles(v)

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
                    edges.append(Edge(b.id, b.src, b.dst))
                else:
                    for k in range(n):
                        edges.append(Edge(f"{b.id}#{k}", b.src, b.dst))
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
            if b.cardinality.count != 1:
                raise UnknownVertexError(
                    f"edge {edge_id!r} needs a #slot for a multi-edge bundle")
            return Edge(edge_id, b.src, b.dst)
        try:
            slot = int(slot_text)
        except ValueError:
            raise UnknownVertexError(f"bad edge id {edge_id!r}") from None
        if slot < 0:
            raise UnknownVertexError(f"bad edge id {edge_id!r}")
        if b.cardinality.is_finite:
            if b.cardinality.count == 1 or slot >= b.cardinality.count:
                raise UnknownVertexError(f"edge {edge_id!r} out of range")
        return Edge(edge_id, b.src, b.dst)

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


class Path:
    """A finite path: a composable edge-id sequence from ``source`` to
    ``target``.  Length-0 paths are single vertices.

    A value (equal and hash-equal on equal fields, never equal to a plain
    tuple) kept in ``__slots__``: a model's basis view makes one per
    position, and this costs a third of a frozen dataclass's construction.
    Nothing assigns to a field after construction."""

    __slots__ = ("source", "target", "edges")

    def __init__(self, source: str, target: str,
                 edges: tuple[str, ...]) -> None:
        self.source = source
        self.target = target
        self.edges = edges

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Path:
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.edges))

    def __repr__(self) -> str:
        return (f"Path(source={self.source!r}, target={self.target!r}, "
                f"edges={self.edges!r})")

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
        return Path(v, v, ())

    @staticmethod
    def from_edges(g: Graph, edge_ids: Sequence[str]) -> "Path":
        if not edge_ids:
            raise GraphBuildError("from_edges needs at least one edge; use trivial()")
        resolved = [g.resolve_edge(eid) for eid in edge_ids]
        for a, b in zip(resolved, resolved[1:]):
            if a.dst != b.src:
                raise GraphBuildError(
                    f"edges {a.id!r} and {b.id!r} do not compose")
        return Path(resolved[0].src, resolved[-1].dst, tuple(edge_ids))


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
        stack: list[tuple[tuple[str, ...], str]] = [((), t)]
        while stack:
            suffix, source = stack.pop()
            out.append(Path(source, t, suffix))
            if max_len is not None and len(suffix) >= max_len:
                continue
            for e in into[source]:
                stack.append(((e.id,) + suffix, e.src))
    out.sort(key=Path.sort_key)
    return out


def count_paths_from(g: Graph, base: str) -> dict[str, int]:
    """Number of paths from ``base`` to each vertex (trivial path included)."""
    g.require_vertex(base)
    counts = dict.fromkeys(g.vertices, 0)
    counts[base] = 1
    return _count_paths(g, counts)


def count_paths_ending(g: Graph) -> dict[str, int]:
    """Number of paths (from anywhere, trivial included) ending at each
    vertex."""
    return _count_paths(g, dict.fromkeys(g.vertices, 1))


def _count_paths(g: Graph, counts: dict[str, int]) -> dict[str, int]:
    """Cardinality-weighted DP over a topological order: ``counts`` holds
    each vertex's paths of length 0 on entry and all its paths on exit."""
    for v in topological_order(g):
        c = counts[v]
        if not c:
            continue
        for b in g._out[v]:
            if not b.cardinality.is_finite:
                raise InfiniteBundleError(f"bundle {b.id!r} is not finite")
            counts[b.dst] += c * b.cardinality.count
    return counts


# --- vertex classes ----------------------------------------------------------


def _sinks_and_regular(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Sinks and regular vertices in graph order, computed once per graph
    and cached on it, with the regular ones as a set."""
    if g._kinds is None:
        sk, regular = [], []
        for v in g.vertices:
            out = g._out[v]
            if not out:
                sk.append(v)
            elif all(b.cardinality.is_finite for b in out):
                regular.append(v)
        g._kinds = (tuple(sk), tuple(regular))
        g._regular = frozenset(regular)
    return g._kinds


def sinks(g: Graph) -> list[str]:
    return list(_sinks_and_regular(g)[0])


def singular_vertices(g: Graph) -> list[str]:
    """Sinks and infinite emitters, in graph order."""
    regular = regular_set(g)
    return [v for v in g.vertices if v not in regular]


def regular_vertices(g: Graph) -> list[str]:
    return list(_sinks_and_regular(g)[1])


def regular_set(g: Graph) -> frozenset[str]:
    """The regular vertices, as a set cached on the graph."""
    _sinks_and_regular(g)
    return g._regular


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


def topological_order(g: Graph) -> list[str]:
    """Vertices in an order where every bundle runs forward; raises
    CyclicGraphError when a cycle exists.

    Read from the cached Tarjan pass: Tarjan emits a component only after
    every component reachable from it, so the reversed emission order puts
    each component before everything it reaches.  On an acyclic graph
    every component is one vertex.
    """
    if has_cycle(g):
        raise CyclicGraphError("graph has a cycle")
    return [c[0] for c in reversed(strongly_connected_components(g))]


def has_cycle(g: Graph) -> bool:
    """A cycle exists iff some strongly connected component has more than
    one vertex or some bundle is a self-loop; read from the cached
    components, and cached on the graph."""
    if g._cyclic is None:
        g._cyclic = (len(strongly_connected_components(g)) < len(g.vertices)
                     or any(b.src == b.dst for b in g.bundles))
    return g._cyclic


def strongly_connected_components(g: Graph) -> tuple[tuple[str, ...], ...]:
    """Iterative Tarjan over bundle adjacency, computed once per graph."""
    if g._components is not None:
        return g._components
    out, done = g._out, len(g.vertices)
    index: dict[str, int] = {}  # a finished vertex's is raised to ``done``,
    low: dict[str, int] = {}    # so it never lowers a link
    stack: list[str] = []
    components: list[tuple[str, ...]] = []

    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(out[root]))]  # each open vertex, its successors left
        while work:
            v, succs = work[-1]
            for b in succs:
                w = b.dst
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    components.append(tuple(comp))
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    g._components = tuple(components)
    return g._components


def _scc_is_cyclic(g: Graph, comp: Sequence[str]) -> bool:
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
        if len(bs) == 1 and bs[0].cardinality.count == 1:
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
    witness: tuple[str, Path] | None  # (vertex, a cycle it cannot reach)


def cofinal(g: Graph) -> CofinalityResult:
    """Finite-graph cofinality: every vertex reaches every strongly
    connected component that contains a cycle.

    In a finite graph every infinite path eventually stays inside one
    cyclic component, so this is equivalent to every vertex meeting every
    infinite path.  Vacuously true when the graph is acyclic.
    """
    if not has_cycle(g):
        return CofinalityResult(True, None)
    comps = strongly_connected_components(g)
    cyclic_comps = [sorted(c) for c in comps if _scc_is_cyclic(g, c)]
    cyclic_comps.sort()
    for comp in cyclic_comps:
        reach_back = traverse(g, comp, forward=False)
        if len(reach_back) != len(g.vertices):
            blocked = min(v for v in g.vertices if v not in reach_back)
            return CofinalityResult(False, (blocked, _cycle_within(g, comp)))
    return CofinalityResult(True, None)


# --- staged graphs -------------------------------------------------------------

# vertices plus bundles over every stage graph one family builds, plus the
# stage a request reads
STAGE_WORK_BOUND = 1 << 18


@dataclass(frozen=True)
class UniformProfile:
    """Certificate a staged family attaches to its stages.

    Claims are about every stage.  Each is checked once, on the delta that
    could break it, and a failure is a generator bug.

    * ``min_out_degree``: every vertex already present in the previous
      stage emits at least this many edges (so in the limit every vertex
      does).  Degrees never shrink, so a vertex is checked one stage after
      it appears.
    * ``spine``: 1-based vertex naming for a distinguished infinite vertex
      sequence; consecutive spine vertices must be joined by an edge.
    * ``spine_exclusive``: each non-frontier spine vertex emits exactly one
      edge, the one to the next spine vertex.
    * ``acyclic_stages``: every stage is acyclic.  Checked on each stage
      built: a cycle persists, so that certifies every stage below it.  A
      chain builds no stage it reads off a plain delta (see ``Step``): that
      stage is acyclic whenever the one before it is.
    """

    min_out_degree: int | None = None
    spine: Callable[[int], str] | None = None
    spine_exclusive: bool = False
    acyclic_stages: bool = False


class Step(NamedTuple):
    """What stage n adds to stage n-1, as a chain reads it.

    A delta is *plain* when its vertex and bundle ids are new, every bundle
    is finite, starts at a known vertex and lands on a vertex new in the
    delta, and the delta's own subgraph is acyclic.  Then no path ending at
    an older vertex changes, and stage n is valid and acyclic whenever
    stage n-1 is.
    """

    vertices: list[str]  # the delta's vertices
    # the delta's bundles, each after every bundle into its source, so one
    # pass extends path counts; None when the delta is not plain
    bundles: tuple[EdgeBundle, ...] | None
    sinks: int  # how many sinks stage n has
    sink: str | None  # its sink, when it has exactly one


class StagedGraph:
    """A monotone family of finite stages standing in for an infinite graph.

    ``delta(k)`` gives the vertices and bundles stage k adds to stage k-1,
    so inclusion holds by construction, and ``delta_size(k)`` how many
    there are, so a request is admitted before any delta is made.  Deltas
    are appended, and checked against the profile, as stages are asked
    for.  ``stage(n)`` builds one graph from their prefixes, which
    validates them, and keeps the last one built; ``step(n)`` reads a delta
    without building anything.  A constant family (``fixed``) is one graph
    at every stage.
    """

    def __init__(self, name: str, delta: Callable[[int], tuple],
                 delta_size: Callable[[int], int],
                 profile: UniformProfile | None = None, *,
                 chain_kind: str | None = None):
        self.name = name
        self.delta = delta
        self.delta_size = delta_size
        self.profile = profile or UniformProfile()
        self.constant = False
        self.chain_kind = chain_kind  # "corner" | "tail" | None
        self._vertices: list[str] = []
        self._bundles: list[EdgeBundle] = []
        # stage k's vertex, bundle and spine prefix lengths, then its Step's
        # sink count, sink and bundles
        self._ends: list[tuple] = []
        self._sizes = [0]  # _sizes[k + 1]: vertices plus bundles of stage k
        self._out: dict[str, list[EdgeBundle]] = {}  # each vertex's bundles so far
        self._ids: set[str] = set()  # bundle ids so far
        self._sinks: set[str] = set()
        self._spine: list[str] = []
        self._settled: set[str] = set()  # spine vertices with a successor
        self._built = 0  # vertices plus bundles over every graph built
        self._last: tuple[int, Graph] | None = None

    @staticmethod
    def fixed(name: str, g: Graph) -> "StagedGraph":
        """The constant family whose every stage is ``g``."""
        sg = StagedGraph(name, lambda k: (g.vertices, g.bundles) if k == 0
                         else ((), ()),
                         lambda k: len(g.vertices) + len(g.bundles) if k == 0
                         else 0)
        sg.constant, sg._last = True, (0, g)
        return sg

    def stage(self, n: int) -> Graph:
        if n < 0:
            raise StageError("stage index must be >= 0")
        if self.constant or (self._last and self._last[0] == n):
            return self._last[1]
        self.grow(n)
        nv, nb = self._ends[n][:2]
        g = Graph(self.vertices(n), self._bundles[:nb])
        self._built += nv + nb
        if self.profile.acyclic_stages and has_cycle(g):
            raise StageError(f"{self.name}: stage {n} is cyclic "
                             "but the profile claims acyclic stages")
        self._last = (n, g)
        return g

    def admit(self, n: int) -> None:
        """Refuse, before any delta is made, a request that would take this
        family past ``STAGE_WORK_BOUND`` vertices and bundles: every graph
        built so far plus stage n.  Stage sizes are summed from
        ``delta_size`` only until they pass the bound."""
        if n < 0:
            raise StageError("stage index must be >= 0")
        if self.constant:
            return
        sizes, room = self._sizes, STAGE_WORK_BOUND - self._built
        while len(sizes) <= n + 1 and sizes[-1] <= room:
            sizes.append(sizes[-1] + self.delta_size(len(sizes) - 1))
        if sizes[min(n + 1, len(sizes) - 1)] > room:
            raise BoundExceededError(
                f"{self.name}: stage graphs would hold more than "
                f"{STAGE_WORK_BOUND} vertices and bundles")

    def grow(self, n: int) -> None:
        """Admit stage n, then append the deltas up to it."""
        self.admit(n)
        while (k := len(self._ends)) <= n:
            self._append(k)

    def spine_prefix(self, n: int) -> tuple[str, ...]:
        """Spine vertices present in stage n, in spine order."""
        if self.profile.spine is None:
            return ()
        self.grow(n)
        return tuple(self._spine[:self._ends[n][2]])

    def vertices(self, n: int) -> list[str]:
        """Stage n's vertices, in order; stage n must be grown."""
        return self._vertices[:self._ends[n][0]]

    def step(self, n: int) -> Step:
        """Stage n's delta as a chain reads it; stage n must be grown."""
        start = self._ends[n - 1][0] if n else 0
        nv, _, _, sinks, sink, bundles = self._ends[n]
        return Step(self._vertices[start:nv], bundles, sinks, sink)

    def _append(self, k: int) -> None:
        """Append stage k's delta, checking each claim it could break.  The
        checks read the delta beside the state and run before any of it
        changes, so a refused delta leaves the family as it was."""
        prof, out, spine = self.profile, self._out, self._spine
        vertices, bundles = self.delta(k)
        if (size := len(vertices) + len(bundles)) != self.delta_size(k):
            raise StageError(f"{self.name}: delta {k} holds {size} vertices "
                             f"and bundles, not the {self.delta_size(k)} "
                             "its size function gives")
        order = self._plain_order(vertices, bundles)
        fresh = self._vertices[self._ends[k - 2][0] if k > 1 else 0:]  # stage k-1's
        added: dict[str, list[EdgeBundle]] = {v: [] for v in vertices}
        for b in bundles:
            added.setdefault(b.src, []).append(b)

        def outs(v: str) -> list[EdgeBundle]:  # v's bundles once appended
            return out.get(v, []) + added.get(v, [])
        for v in fresh if prof.min_out_degree is not None else ():
            d = sum(b.cardinality.count for b in outs(v))
            if d < prof.min_out_degree and all(b.cardinality.is_finite for b in outs(v)):
                raise StageError(f"{self.name}: vertex {v!r} settled with out-degree "
                                 f"{d} < {prof.min_out_degree} at stage {k}")
        # the profile's spine names in order, up to the first one missing
        grown: list[str] = []  # the spine vertices the delta adds
        while prof.spine is not None and (
                (w := prof.spine(len(spine) + len(grown) + 1)) in out or w in added):
            if spine or grown:
                last = (grown or spine)[-1]
                if not any(b.dst == w for b in outs(last)):
                    raise StageError(f"{self.name}: spine vertices {last!r}->"
                                     f"{w!r} not joined at stage {k}")
            grown.append(w)
        settled = (spine[-1:] + grown)[:-1]  # those the delta gives a successor
        if prof.spine is not None and k > 0 and not (spine or grown):
            raise StageError(f"{self.name}: stage {k} has no spine vertex")
        # a settled spine vertex is the source of a bundle in the delta that
        # settles it (its successor is new) and of any it emits later
        for b in bundles if prof.spine_exclusive else ():
            bs = outs(b.src)
            if (b.src in self._settled or b.src in settled) and (
                    len(bs) != 1 or bs[0].cardinality.count != 1):
                raise StageError(f"{self.name}: spine vertex {b.src!r} "
                                 f"is not exclusive at stage {k}")
        for v, bs in added.items():
            out.setdefault(v, []).extend(bs)
        spine += grown
        self._settled.update(settled)
        self._ids.update(b.id for b in bundles)
        sinks = self._sinks
        sinks.update(vertices)
        sinks.difference_update(b.src for b in bundles)
        self._vertices += vertices
        self._bundles += bundles
        self._ends.append((len(self._vertices), len(self._bundles), len(spine),
                           len(sinks), next(iter(sinks)) if len(sinks) == 1
                           else None, order))

    def _plain_order(self, vertices: Sequence[str],
                     bundles: Sequence[EdgeBundle]) -> tuple[EdgeBundle, ...] | None:
        """A plain delta's bundles, each after every bundle into its source
        (bundles from older vertices first, then Kahn's order over the
        delta's own subgraph); None when the delta is not plain.  Read
        before the delta is appended."""
        known, ids = self._out, self._ids
        waiting = dict.fromkeys(vertices, 0)  # unplaced in-delta bundles into each
        if len(waiting) < len(vertices) or not known.keys().isdisjoint(waiting):
            return None
        order: list[EdgeBundle] = []
        inner: dict[str, list[EdgeBundle]] = {}
        own: set[str] = set()  # the delta's bundle ids
        for b in bundles:
            if (b.dst not in waiting or b.id in ids or b.id in own
                    or not b.cardinality.is_finite
                    or b.src not in waiting and b.src not in known):
                return None
            own.add(b.id)
            if b.src in waiting:
                waiting[b.dst] += 1
                inner.setdefault(b.src, []).append(b)
            else:
                order.append(b)
        ready = [v for v in vertices if not waiting[v]]
        for v in ready:  # grows as bundles are placed
            for b in inner.get(v, ()):
                order.append(b)
                waiting[b.dst] -= 1
                if not waiting[b.dst]:
                    ready.append(b.dst)
        return tuple(order) if len(ready) == len(vertices) else None
