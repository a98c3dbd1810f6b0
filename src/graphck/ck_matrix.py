"""Exact finite-dimensional Cuntz-Krieger matrix models on path bases.

For a finite acyclic graph and a chosen set S of regular vertices, the
model acts on the free basis of all paths whose range is a sink or a
regular vertex outside S.  Vertex projections are diagonal idempotents
(paths starting at the vertex); each edge acts as the partial permutation
prepending itself to a basis path.  With this basis rule the three
Cuntz-Krieger identities hold exactly, the summation identity holds at
precisely the vertices of S, and every vertex projection and every gap
projection is nonzero — so the model is a faithful copy of the relative
algebra whenever every cycle has an exit (vacuous here: no cycles at all).

All arithmetic is integer-exact; no float ever decides a dimension.
Dimensions, corners and the Bratteli embedding check never multiply
general matrices: every generator is a partial permutation, so each path
operator is the composition of its edges' col -> row maps (``PathMaps``),
and the matrix unit S_a S_b* of two paths has a one at (S_a c, S_b c) for
every basis vector c in both maps' domains.

A dimension is the exact rank over the rationals of the span of those
units, certified from the maps in time linear in their size
(``_certified_rank``): the relations in map form put every unit in the
span of the units of basis-path pairs, which lead at distinct positions,
so the rank is the sum over terminal vertices of the squared number of
basis paths into each.  Elimination over every path-pair unit
(``exactmat.exact_rank``) is the test suite's oracle route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CyclicGraphError,
    InfiniteBundleError,
    InternalCheckError,
    RelativeSpecError,
    UnknownVertexError,
)
from .exactmat import IntMatrix
from .graph_model import (
    Graph,
    Path,
    count_paths_ending,
    count_paths_from,
    enumerate_paths,
    has_cycle,
    regular_vertices,
    sinks,
)


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


@dataclass
class MatrixRep:
    """The assembled model: basis paths, one diagonal idempotent per vertex,
    one partial permutation per edge."""

    graph: Graph
    spec: RelativeSpec
    basis: tuple[Path, ...]
    vertex_projections: dict[str, IntMatrix]
    edge_isometries: dict[str, IntMatrix]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, path: Path) -> int:
        return self._index[path]

    def __post_init__(self) -> None:
        self._index = {p: i for i, p in enumerate(self.basis)}


def build_ck_family(g: Graph, spec: RelativeSpec,
                    all_paths: list[Path] | None = None) -> MatrixRep:
    """Assemble the model for a finite acyclic graph with finite bundles."""
    basis = path_basis(g, spec, all_paths)
    index: dict[Path, int] = {p: i for i, p in enumerate(basis)}
    dim = len(basis)

    by_source: dict[str, list[int]] = {v: [] for v in g.vertices}
    for i, p in enumerate(basis):
        by_source[p.source].append(i)
    projections = {v: IntMatrix.from_diag(idxs, dim)
                   for v, idxs in by_source.items()}

    isometries: dict[str, IntMatrix] = {}
    for e in g.finite_edges():
        col_to_row: dict[int, int] = {}
        for i in by_source[e.dst]:
            tail = basis[i]
            extended = Path(e.src, tail.target, (e.id,) + tail.edges,
                            (e.src,) + tail.vertex_seq)
            col_to_row[i] = index[extended]
        isometries[e.id] = IntMatrix.from_partial_perm(col_to_row, dim)
    return MatrixRep(g, spec, tuple(basis), projections, isometries)


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


def verify_ck(rep: MatrixRep) -> CkReport:
    """Check every Cuntz-Krieger identity by honest matrix arithmetic."""
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
            if not (pv @ rep.vertex_projections[w]).is_zero():
                mutual = False
                failures.append(f"vertex projections {v}, {w} not orthogonal")
    ids = [e.id for e in edges]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if not (range_proj[a] @ range_proj[b]).is_zero():
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


@dataclass(frozen=True)
class GapEntry:
    matrix: IntMatrix
    nonzero: bool


def gap_projections(rep: MatrixRep) -> dict[str, GapEntry]:
    """The defect of the summation identity at each regular vertex outside
    the imposed set.  Every entry is an idempotent; with the path basis it
    is the rank-one projection onto the vertex's own trivial path."""
    g = rep.graph
    out: dict[str, GapEntry] = {}
    for v in regular_vertices(g):
        if v in rep.spec.imposed:
            continue
        q = rep.vertex_projections[v]
        for e in g.finite_edges():
            if e.src == v:
                s = rep.edge_isometries[e.id]
                q = q - (s @ s.transpose())
        if not q.is_idempotent():
            raise RelativeSpecError(f"gap at {v} is not a projection")
        out[v] = GapEntry(q, not q.is_zero())
    return out


# --- dimensions, blocks, corners -------------------------------------------


def _generator_map(name: str, m: IntMatrix) -> dict[int, int]:
    if not m.is_partial_permutation():
        raise InternalCheckError(f"generator {name} is not a partial permutation")
    return {c: r for r, c in m.entries}


class PathMaps:
    """Col -> row maps of a model's path operators.

    Each generator's map is read once from its matrix, which must be a
    partial permutation.  A trivial path's map is its vertex projection's;
    any other path's map composes its edges' maps, memoised on the edge
    tuple, so a path extends the map of its longest memoised prefix.
    """

    def __init__(self, rep: MatrixRep):
        self.vertex = {v: _generator_map(f"p_{v}", m)
                       for v, m in rep.vertex_projections.items()}
        self._edges = {(e,): _generator_map(f"s_{e}", m)
                       for e, m in rep.edge_isometries.items()}

    def edge(self, e: str) -> dict[int, int]:
        return self._edges[(e,)]

    def __call__(self, path: Path) -> dict[int, int]:
        if path.is_trivial:
            return self.vertex[path.source]
        edges, memo = path.edges, self._edges
        k = len(edges)
        while k > 1 and edges[:k] not in memo:
            k -= 1
        m = memo[edges[:k]]
        for j in range(k, len(edges)):
            last = memo[edges[j:j + 1]]
            m = {c: m[r] for c, r in last.items() if r in m}
            memo[edges[:j + 1]] = m
        return m


def matrix_unit(ma: dict[int, int], mb: dict[int, int],
                dim: int) -> dict[int, int]:
    """``(S_a S_b*).vectorize()`` from the col -> row maps of two paths."""
    return {r * dim + mb[c]: 1 for c, r in ma.items() if c in mb}


def _check_spanning(rep: MatrixRep, maps: PathMaps) -> None:
    """Upper bound: the units of pairs of basis paths span every unit.

    With each p_v diagonal, s_e* s_e = p_r(e) for every edge, and
    p_v = sum of s_e s_e* over the edges out of each imposed vertex v,
    S_a S_b* = S_a p_v S_b* = sum_e S_ae S_be* whenever a and b share the
    imposed range v.  The graph is acyclic, so repeating this ends in
    pairs with a terminal range, which are pairs of basis paths.
    """
    for v, m in maps.vertex.items():
        if any(c != r for c, r in m.items()):
            raise InternalCheckError(
                f"vertex projection p_{v} is not diagonal")
    covered: dict[str, set[int]] = {v: set() for v in rep.spec.imposed}
    for e in rep.graph.finite_edges():
        m = maps.edge(e.id)
        if m.keys() != maps.vertex[e.dst].keys():
            raise InternalCheckError(
                f"edge {e.id}: domain differs from the support of p_{e.dst}")
        seen = covered.get(e.src)
        if seen is not None:
            if not seen.isdisjoint(m.values()):
                raise InternalCheckError(
                    f"edges out of {e.src} overlap in range")
            seen.update(m.values())
    for v, seen in sorted(covered.items()):
        if seen != maps.vertex[v].keys():
            raise InternalCheckError(f"edges out of {v} do not cover p_{v}")


def _certified_rank(rep: MatrixRep, source: str | None) -> int:
    """Exact rank of the span of every unit S_a S_b* with a, b sharing a
    range (and both starting at ``source``, unless it is None).

    ``_check_spanning`` bounds the rank above by the units of basis-path
    pairs.  Below: every basis path a into t sends the trivial path at t
    to a itself, as its least row, so (index a, index b) is the least
    position of S_a S_b*.  Distinct pairs lead at distinct positions, so
    their units are independent.  With the basis holding every path into
    each terminal t (checked against the path-count DP), the rank is the
    sum of n_t squared, n_t the number of basis paths into t.  Cost:
    the size of the path maps; no pair is formed.
    """
    g = rep.graph
    maps = PathMaps(rep)
    _check_spanning(rep, maps)
    trivial = {t: rep.index_of(Path(t, t, (), (t,)))
               for t in terminal_vertices(g, rep.spec)}
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
