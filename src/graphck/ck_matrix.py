"""Exact finite-dimensional Cuntz-Krieger matrix models on path bases.

For a finite acyclic graph and a chosen set S of regular vertices, the
model acts on the free basis of all paths into a terminal vertex (a sink
or a regular vertex outside S), grown backwards from the terminals: each
path a yields e.a for every edge e into its source, and s_e sends a to
e.a.  No other path is made, and a basis of more than ``BASIS_SIZE_BOUND``
paths (counted by the path-count DP) is refused before it is grown.
Vertex projections are diagonal idempotents (paths starting at the
vertex).  With this basis rule the three Cuntz-Krieger identities hold
exactly, the summation identity holds at precisely the vertices of S,
and every vertex projection and every gap projection is nonzero — so the
model is a faithful copy of the relative algebra whenever every cycle
has an exit (vacuous here: no cycles at all).

All arithmetic is integer-exact; no float ever decides a dimension, and
no matrix is ever multiplied: every generator is a partial permutation,
stored as an ``IntMatrix`` and read as its col -> row map (``PathMaps``).
A model reads them once (``MatrixRep.maps``), with one relation pass in
time linear in their size; ``verify_ck`` reports it, and the dimension
certificate (``_certified_rank``) and the stage embedding certificate
(``bratteli.embed_check``) require it.  A path operator composes its
edges' maps.  The certified rank is the sum over terminal vertices of the
squared number of basis paths into each; no unit S_a S_b* is formed.
Elimination over every path-pair unit, and the relations as ``IntMatrix``
products, are the test suite's oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    BoundExceededError,
    CyclicGraphError,
    InfiniteBundleError,
    InternalCheckError,
    RelativeSpecError,
)
from .exactmat import IntMatrix
from .graph_model import (
    Edge,
    Graph,
    Path,
    count_paths_ending,
    count_paths_from,
    has_cycle,
    regular_vertices,
    sinks,
)
from .ideal_lattice import BASIS_SIZE_BOUND


@dataclass(frozen=True)
class RelativeSpec:
    """The set of regular vertices where the summation identity is imposed.

    The empty set gives the Toeplitz model; the full set of regular
    vertices gives the ordinary Cuntz-Krieger model.
    """

    imposed: frozenset[str]

    @staticmethod
    def toeplitz() -> "RelativeSpec":
        return RelativeSpec(frozenset())

    @staticmethod
    def full(g: Graph) -> "RelativeSpec":
        return RelativeSpec(frozenset(regular_vertices(g)))

    @staticmethod
    def of(vertices) -> "RelativeSpec":
        return RelativeSpec(frozenset(vertices))

    def validate(self, g: Graph) -> None:
        regs = set(regular_vertices(g))
        stray = sorted(self.imposed - regs)
        if stray:
            raise RelativeSpecError(
                "relative spec must name regular vertices of this graph; "
                f"rejected: {', '.join(stray)}")


def _check_model_graph(g: Graph) -> None:
    if has_cycle(g):
        raise CyclicGraphError("cyclic graph: no finite-dimensional model")
    if not g.all_bundles_finite():
        raise InfiniteBundleError("matrix models need every bundle finite")


def terminal_vertices(g: Graph, spec: RelativeSpec) -> list[str]:
    """Sinks plus regular vertices where the summation identity is NOT
    imposed — the vertices where basis paths are allowed to end."""
    spec.validate(g)
    terms = set(sinks(g)) | (set(regular_vertices(g)) - spec.imposed)
    return sorted(terms)


@dataclass
class MatrixRep:
    """The assembled model: basis paths, one diagonal idempotent per vertex,
    one partial permutation per edge.  Every check reads the generators'
    one ``maps``, so a model is not edited after its first check."""

    graph: Graph
    spec: RelativeSpec
    basis: tuple[Path, ...]
    vertex_projections: dict[str, IntMatrix]
    edge_isometries: dict[str, IntMatrix]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def maps(self) -> "PathMaps":
        return PathMaps(self)


def build_ck_family(g: Graph, spec: RelativeSpec) -> MatrixRep:
    """Assemble the model; the grown basis is sorted once by ``Path.sort_key``."""
    _check_model_graph(g)
    terms = terminal_vertices(g, spec)
    ending = count_paths_ending(g)
    size = sum(ending[t] for t in terms)
    if size > BASIS_SIZE_BOUND:
        raise BoundExceededError(
            f"model basis would hold more than {BASIS_SIZE_BOUND} paths")
    into: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.finite_edges():
        into[e.dst].append(e)
    # (path, its first edge, the index of its tail), from the trivial paths
    grown = [(Path(t, t, ()), None, None) for t in terms]
    for i, (a, _, _) in enumerate(grown):  # also visits the paths it appends
        for e in into[a.source]:
            grown.append((Path(e.src, a.target, (e.id,) + a.edges), e.id, i))
    order = sorted(range(size), key=lambda i: grown[i][0].sort_key())
    position = {i: j for j, i in enumerate(order)}
    by_source: dict[str, list[int]] = {v: [] for v in g.vertices}
    col_to_row: dict[str, dict[int, int]] = {e.id: {} for e in g.finite_edges()}
    for j, i in enumerate(order):
        a, e, tail = grown[i]
        by_source[a.source].append(j)
        if e is not None:
            col_to_row[e][position[tail]] = j
    return MatrixRep(
        g, spec, tuple(grown[i][0] for i in order),
        {v: IntMatrix.from_diag(idxs, size) for v, idxs in by_source.items()},
        {e: IntMatrix.from_partial_perm(m, size) for e, m in col_to_row.items()})


# --- generator maps ---------------------------------------------------------

def _generator_map(name: str, m: IntMatrix) -> dict[int, int]:
    cols = m.partial_permutation_map()
    if cols is None:
        raise InternalCheckError(f"generator {name} is not a partial permutation")
    return cols


class PathMaps:
    """Col -> row maps of a model's path operators, with the out-edges'
    covers and the relation pass (``report``) read off them.

    Each generator's map is read once from its matrix, which must be a
    partial permutation.  A trivial path's map is its vertex projection's;
    any other path's map composes its edges' maps, memoised on the edge
    tuple, so a path extends the map of its longest memoised suffix.
    """

    def __init__(self, rep: MatrixRep):
        self.vertex = {v: _generator_map(f"p_{v}", m)
                       for v, m in rep.vertex_projections.items()}
        self._edges = {(e,): _generator_map(f"s_{e}", m)
                       for e, m in rep.edge_isometries.items()}
        self.covers = _covers(rep.graph, self.edge)
        self.report = _relations(rep, self)

    def edge(self, e: str) -> dict[int, int]:
        return self._edges[(e,)]

    def checked(self) -> "PathMaps":
        """These maps, for a certificate that needs every relation: the
        relation pass's first failure, if any, is raised instead."""
        if self.report.failures:
            raise InternalCheckError(self.report.failures[0])
        return self

    def __call__(self, path: Path) -> dict[int, int]:
        if path.is_trivial:
            return self.vertex[path.source]
        edges, memo = path.edges, self._edges
        k = 0
        while k < len(edges) - 1 and edges[k:] not in memo:
            k += 1
        m = memo[edges[k:]]
        for j in reversed(range(k)):
            first = memo[edges[j:j + 1]]
            m = {c: first[r] for c, r in m.items() if r in first}
            memo[edges[j:]] = m
        return m


# --- verification ---------------------------------------------------------


@dataclass
class CkReport:
    """Outcome of the exact identity checks, listing every failure."""

    ck1: bool                      # s*th s = range projection, per edge
    ck2: bool                      # range projection under source projection
    ck3_at: dict[str, bool]        # summation identity per regular vertex
    mutual_orthogonality: bool
    failures: list[str]

    def ck3_exactly_at(self, imposed: frozenset[str]) -> bool:
        return all(held == (v in imposed) for v, held in self.ck3_at.items())

    @property
    def all_imposed_hold(self) -> bool:
        return self.ck1 and self.ck2 and self.mutual_orthogonality


def _is_diagonal(m: dict[int, int]) -> bool:
    return list(m) == list(m.values())


def _covers(g: Graph, edge_map) -> dict[str, tuple[set[int], bool]]:
    """Per vertex, the union of its out-edges' ranges and whether those
    are pairwise disjoint (their sizes add up to the union's size)."""
    covered: dict[str, set[int]] = {v: set() for v in g.vertices}
    sizes = dict.fromkeys(g.vertices, 0)
    for e in g.finite_edges():
        rows = edge_map(e.id).values()
        covered[e.src].update(rows)
        sizes[e.src] += len(rows)
    return {v: (c, sizes[v] == len(c)) for v, c in covered.items()}


def _meeting_pairs(names: list[str], domains: list, ranges: list
                   ) -> list[tuple[str, str]]:
    """Pairs (a, b) of ``names``, a listed before b, where a's domain meets
    b's range: exactly the pairs whose product a @ b is nonzero.  One owner
    table over basis positions names the domains holding each position."""
    owner: dict[int, list[int]] = {}
    for i, dom in enumerate(domains):
        for pos in dom:
            owner.setdefault(pos, []).append(i)
    pairs = {(i, j) for j, rng in enumerate(ranges)
             for pos in rng for i in owner.get(pos, ()) if i < j}
    return [(names[i], names[j]) for i, j in sorted(pairs)]


def _relations(rep: MatrixRep, maps: PathMaps) -> CkReport:
    g = rep.graph
    vertex, edges = maps.vertex, g.finite_edges()
    diagonal = {v: _is_diagonal(vertex[v]) for v in g.vertices}
    failures = [f"vertex projection p_{v} is not diagonal"
                for v in g.vertices if not diagonal[v]]
    ck1_ok = ck2_ok = True
    for e in edges:
        m = maps.edge(e.id)
        if not (diagonal[e.dst] and m.keys() == vertex[e.dst].keys()):
            ck1_ok = False
            failures.append(f"ck1 fails at edge {e.id}")
        rows = list(m.values())
        if list(map(vertex[e.src].get, rows)) != rows:
            ck2_ok = False
            failures.append(f"ck2 fails at edge {e.id}")

    ids = [e.id for e in edges]
    ranges = [maps.edge(a).values() for a in ids]
    clashes = [f"vertex projections {v}, {w} not orthogonal"
               for v, w in _meeting_pairs(
                   g.vertices, [vertex[v] for v in g.vertices],
                   [vertex[v].values() for v in g.vertices])]
    clashes += [f"edge ranges {a}, {b} not orthogonal"
                for a, b in _meeting_pairs(ids, ranges, ranges)]
    failures += clashes

    ck3: dict[str, bool] = {}
    for v in regular_vertices(g):
        covered, disjoint = maps.covers[v]
        held = diagonal[v] and disjoint and covered == vertex[v].keys()
        ck3[v] = held
        if held != (v in rep.spec.imposed):
            failures.append(
                f"ck3 at {v}: held={held}, imposed={v in rep.spec.imposed}")
    return CkReport(ck1_ok, ck2_ok, ck3, not clashes, failures)


def verify_ck(rep: MatrixRep) -> CkReport:
    """Check every Cuntz-Krieger identity exactly, on the generators'
    maps: each p_v is diagonal; s_e* s_e = p_r(e) (domain = support);
    s_e s_e* <= p_s(e) (range within the support); vertex projections and
    edge ranges are mutually orthogonal; and, per regular vertex v,
    whether the out-edges' ranges cover p_v disjointly (the summation
    identity)."""
    return rep.maps.report


@dataclass(frozen=True)
class GapEntry:
    matrix: IntMatrix
    nonzero: bool


def gap_projections(rep: MatrixRep) -> dict[str, GapEntry]:
    """The defect of the summation identity at each regular vertex outside
    the imposed set: p_v minus its out-edges' range projections.  That is
    a projection exactly when p_v is diagonal and the out-edges' ranges
    lie disjointly in its support, and then it is the diagonal on the
    support's uncovered positions; with the path basis it is the rank-one
    projection onto the vertex's own trivial path."""
    maps = rep.maps
    out: dict[str, GapEntry] = {}
    for v in regular_vertices(rep.graph):
        if v in rep.spec.imposed:
            continue
        p = maps.vertex[v]
        covered, disjoint = maps.covers[v]
        if not (_is_diagonal(p) and disjoint and covered <= p.keys()):
            raise RelativeSpecError(f"gap at {v} is not a projection")
        gap = p.keys() - covered
        out[v] = GapEntry(IntMatrix.from_diag(gap, rep.dim), bool(gap))
    return out


# --- dimensions, blocks, corners -------------------------------------------


def _certified_rank(rep: MatrixRep, source: str | None) -> int:
    """Exact rank of the span of every unit S_a S_b* with a, b sharing a
    range (and both starting at ``source``, unless it is None).

    Upper bound: the relation pass (``verify_ck``'s) must find no failure.
    Then each p_v is diagonal, s_e* s_e = p_r(e) for every edge, and
    p_v = sum of s_e s_e* over the edges out of each imposed vertex v, so
    S_a S_b* = S_a p_v S_b* = sum_e S_ae S_be* whenever a and b share the
    imposed range v.  The graph is acyclic, so repeating this ends in
    pairs with a terminal range, which are pairs of basis paths: their
    units span every unit.

    Lower bound: every basis path a into t sends the trivial path at t to
    a itself, as its least row, so (index a, index b) is the least
    position of S_a S_b*.  Distinct pairs lead at distinct positions, so
    their units are independent.  With the basis holding every path into
    each terminal t (checked against the path-count DP), the rank is the
    sum of n_t squared, n_t the number of basis paths into t.  Cost:
    the size of the path maps; no pair is formed.
    """
    g, maps = rep.graph, rep.maps.checked()
    # positions of the basis's trivial paths, found in one scan: a
    # hand-built basis need not be sorted
    at = {p: i for i, p in enumerate(rep.basis) if not p.edges}
    trivial: dict[str, int] = {}
    for t in terminal_vertices(g, rep.spec):
        i = at.get(Path(t, t, ()))
        if i is None:
            raise InternalCheckError(
                f"basis has no trivial path at terminal {t}")
        trivial[t] = i
    counts = dict.fromkeys(trivial, 0)
    for i, a in enumerate(rep.basis):
        if source is not None and a.source != source:
            continue
        t = a.target
        m = maps(a)
        if m.get(trivial.get(t)) != i or min(m.values()) != i:
            raise InternalCheckError(
                f"path {a.label()} does not send {t} to itself "
                "as its least row")
        counts[t] += 1
    expected = (count_paths_ending(g) if source is None
                else count_paths_from(g, source))
    total = 0
    for t, n in counts.items():
        if n != expected[t]:
            raise InternalCheckError(
                f"basis holds {n} of the {expected[t]} paths into {t}")
        total += n * n
    return total


def algebra_dimension(rep: MatrixRep) -> int:
    """Linear dimension of the span of all path-pair operators S_a S_b*
    (a, b with a common range): the exact rank over the rationals, certified
    from the path maps as the sum over terminal vertices of the squared
    count of basis paths ending there (one full matrix block each)."""
    return _certified_rank(rep, None)


@dataclass(frozen=True)
class Block:
    terminal: str
    size: int


def block_decomposition(rep: MatrixRep) -> list[Block]:
    """One full matrix block per sink; sizes count basis paths into each
    sink.  Only defined for the full relative spec — excluded regular
    vertices leave gap summands that mix into the blocks, so refuse."""
    full = frozenset(regular_vertices(rep.graph))
    if rep.spec.imposed != full:
        raise RelativeSpecError(
            "block decomposition needs the summation identity at every "
            "regular vertex")
    counts: dict[str, int] = {}
    for p in rep.basis:
        counts[p.target] = counts.get(p.target, 0) + 1
    return [Block(v, counts.get(v, 0)) for v in sorted(sinks(rep.graph))]


@dataclass(frozen=True)
class CornerSummary:
    vertex: str
    dimension: int
    full: bool


def corner(rep: MatrixRep, v: str) -> CornerSummary:
    """The compression of the model by one vertex projection.

    Its dimension is the exact rank of the span of path-pair operators
    with both paths starting at the vertex, certified from the path maps
    as the sum of squared counts of basis paths from ``v`` into each
    terminal vertex.  The corner is full exactly when the vertex
    projection meets every matrix block, i.e. when every terminal vertex
    is the range of some path from ``v``.
    """
    rep.graph.require_vertex(v)
    dim = _certified_rank(rep, v)
    terminals = set(terminal_vertices(rep.graph, rep.spec))
    reached = {p.target for p in rep.basis if p.source == v}
    return CornerSummary(v, dim, reached == terminals)


def export_model(rep: MatrixRep) -> dict:
    """JSON-ready form: basis path labels plus sparse triples for every
    generator."""
    return {
        "basis": [p.label() for p in rep.basis],
        "p": {v: m.to_triples() for v, m in sorted(rep.vertex_projections.items())},
        "s": {e: m.to_triples() for e, m in sorted(rep.edge_isometries.items())},
    }
