"""Exact finite-dimensional Cuntz-Krieger matrix models on path bases.

For a finite acyclic graph and a chosen set S of regular vertices, the
model acts on the free basis of all paths into a terminal vertex (a sink
or a regular vertex outside S), grown backwards from the terminals: each
path a yields e.a for every edge e into its source, and s_e sends a to
e.a.  No other path is made, and a basis of more than ``BASIS_SIZE_BOUND``
paths (counted by the path-count DP) is refused before it is grown.  The
growth runs level by level, edges in id order, which lays the basis out in
(length, edge ids, source) order without sorting it.
Vertex projections are diagonal idempotents (paths starting at the
vertex).  With this basis rule the three Cuntz-Krieger identities hold
exactly, the summation identity holds at precisely the vertices of S,
and every vertex projection and every gap projection is nonzero — so the
model is a faithful copy of the relative algebra whenever every cycle
has an exit (vacuous here: no cycles at all).

All arithmetic is integer-exact; no float ever decides a dimension, and
no matrix is ever multiplied.  A model stores each vertex projection as
its support and each edge isometry as its col -> row map (a partial
permutation), and runs one relation pass over them (``MatrixRep.report``)
in time linear in their size: ``verify_ck`` reports it, and the gaps, the
dimension certificate (``_certified_rank``) and the stage embedding
certificate (``bratteli.embed_check``) require it.  A path operator
composes its edges' maps.  The certified rank is the sum over terminal
vertices of the squared number of basis paths into each; no unit S_a S_b*
is formed.  ``IntMatrix`` is a view for outside readers; elimination over
every path-pair unit, and the relations as its products, are test oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import (
    BoundExceededError,
    CyclicGraphError,
    InfiniteBundleError,
    InternalCheckError,
    RelativeSpecError,
)
from .exactmat import IntMatrix
from .graph_model import (
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
    """The assembled model: basis paths, each vertex's support, each edge's
    col -> row map.  Every check reads the one relation pass (``report``),
    cached on first use, so a model is not edited after its first check.
    ``vertex_projections`` and ``edge_isometries`` are ``IntMatrix`` views,
    built on first access."""

    graph: Graph
    spec: RelativeSpec
    basis: tuple[Path, ...]
    supports: dict[str, frozenset[int]]
    edge_maps: dict[str, dict[int, int]]
    # composed path maps of two or more edges, keyed by the edge tuple
    _composed: dict[tuple[str, ...], dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def covers(self) -> dict[str, tuple[set[int], bool]]:
        """Per vertex, the union of its out-edges' ranges and whether those
        are pairwise disjoint (their sizes add up to the union's size)."""
        g = self.graph
        covered: dict[str, set[int]] = {v: set() for v in g.vertices}
        sizes = dict.fromkeys(g.vertices, 0)
        for e in g.finite_edges():
            rows = self.edge_maps[e.id].values()
            covered[e.src].update(rows)
            sizes[e.src] += len(rows)
        return {v: (c, sizes[v] == len(c)) for v, c in covered.items()}

    @functools.cached_property
    def report(self) -> "CkReport":
        """The relation pass, after each edge's map is found injective."""
        for e, m in self.edge_maps.items():
            if len(set(m.values())) != len(m):
                raise InternalCheckError(
                    f"generator s_{e} is not a partial permutation")
        return _relations(self)

    def checked(self) -> "MatrixRep":
        """This model, for a certificate that needs every relation: the
        relation pass's first failure, if any, is raised instead."""
        if self.report.failures:
            raise InternalCheckError(self.report.failures[0])
        return self

    def path_map(self, path: Path) -> dict[int, int]:
        """The col -> row map of a path operator.  A trivial path's map is
        the identity on its vertex's support; any other path's is its first
        edge's map after the map of the rest, memoised on the edge tuple.
        The recursion on suffixes runs on a list, not the call stack, so a
        path may be longer than the interpreter's recursion limit."""
        if path.is_trivial:
            return {i: i for i in self.supports[path.source]}
        edges, maps, memo = path.edges, self.edge_maps, self._composed
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

    @functools.cached_property
    def vertex_projections(self) -> dict[str, IntMatrix]:
        return {v: IntMatrix.from_diag(sorted(s), self.dim)
                for v, s in self.supports.items()}

    @functools.cached_property
    def edge_isometries(self) -> dict[str, IntMatrix]:
        return {e: IntMatrix.from_partial_perm(m, self.dim)
                for e, m in self.edge_maps.items()}


def build_ck_family(g: Graph, spec: RelativeSpec) -> MatrixRep:
    """Assemble the model, growing the basis level by level.

    Level 0 is the trivial paths at the sorted terminals; level L+1 is
    e.a for each edge e in id order and each level-L path a starting at
    e's range, in level order.  That is ``Path.sort_key`` order, so no
    path is compared, and s_e's map gets each entry as e.a is appended."""
    _check_model_graph(g)
    terms = terminal_vertices(g, spec)
    ending = count_paths_ending(g)
    size = sum(ending[t] for t in terms)
    if size > BASIS_SIZE_BOUND:
        raise BoundExceededError(
            f"model basis would hold more than {BASIS_SIZE_BOUND} paths")
    edges = g.finite_edges()
    into: dict[str, list[int]] = {v: [] for v in g.vertices}
    for i, e in enumerate(edges):
        into[e.dst].append(i)
    col_to_row: dict[str, dict[int, int]] = {e.id: {} for e in edges}
    by_source: dict[str, list[int]] = {v: [] for v in g.vertices}
    basis = [Path(t, t, ()) for t in terms]
    # each source's paths of the last level, by basis position
    level = {t: [i] for i, t in enumerate(terms)}
    while level:
        grown: dict[str, list[int]] = {}
        for i in sorted(i for v in level for i in into[v]):
            e = edges[i]
            first, row, m = (e.id,), len(basis), col_to_row[e.id]
            for a in level[e.dst]:
                tail = basis[a]
                m[a] = len(basis)
                basis.append(Path(e.src, tail.target, first + tail.edges))
            grown.setdefault(e.src, []).extend(range(row, len(basis)))
        for v, rows in level.items():
            by_source[v] += rows
        level = grown
    if len(basis) != size:
        raise InternalCheckError(
            f"grown basis holds {len(basis)} paths; the path count is {size}")
    return MatrixRep(g, spec, tuple(basis),
                     {v: frozenset(idxs) for v, idxs in by_source.items()},
                     col_to_row)


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


def _relations(rep: MatrixRep) -> CkReport:
    g = rep.graph
    support, edges = rep.supports, g.finite_edges()
    failures = []
    ck1_ok = ck2_ok = True
    for e in edges:
        m = rep.edge_maps[e.id]
        if m.keys() != support[e.dst]:
            ck1_ok = False
            failures.append(f"ck1 fails at edge {e.id}")
        if not support[e.src].issuperset(m.values()):
            ck2_ok = False
            failures.append(f"ck2 fails at edge {e.id}")

    # supports are sets and ranges injective (``report`` checks that
    # first), so each family is pairwise disjoint exactly when its sizes
    # add up to the size of its union; only a clash is looked for
    ids = [e.id for e in edges]
    ranges = [rep.edge_maps[a].values() for a in ids]
    supports = [support[v] for v in g.vertices]
    clashes = []
    if sum(map(len, supports)) != len(set().union(*supports)):
        clashes += [f"vertex projections {v}, {w} not orthogonal"
                    for v, w in _meeting_pairs(g.vertices, supports, supports)]
    if sum(map(len, ranges)) != len(set().union(*ranges)):
        clashes += [f"edge ranges {a}, {b} not orthogonal"
                    for a, b in _meeting_pairs(ids, ranges, ranges)]
    failures += clashes

    ck3: dict[str, bool] = {}
    for v in regular_vertices(g):
        covered, disjoint = rep.covers[v]
        held = disjoint and covered == support[v]
        ck3[v] = held
        if held != (v in rep.spec.imposed):
            failures.append(
                f"ck3 at {v}: held={held}, imposed={v in rep.spec.imposed}")
    return CkReport(ck1_ok, ck2_ok, ck3, not clashes, failures)


def verify_ck(rep: MatrixRep) -> CkReport:
    """Check every Cuntz-Krieger identity exactly, on the generators'
    maps: s_e* s_e = p_r(e) (domain = support); s_e s_e* <= p_s(e) (range
    within the support); vertex projections and edge ranges are mutually
    orthogonal; and, per regular vertex v, whether the out-edges' ranges
    cover p_v disjointly (the summation identity)."""
    return rep.report


@dataclass(frozen=True)
class GapEntry:
    """A gap projection, stored as the basis positions it covers;
    ``matrix`` is its ``IntMatrix`` view, built on first access."""

    positions: frozenset[int]
    dim: int

    @property
    def nonzero(self) -> bool:
        return bool(self.positions)

    @functools.cached_property
    def matrix(self) -> IntMatrix:
        return IntMatrix.from_diag(sorted(self.positions), self.dim)


def gap_projections(rep: MatrixRep) -> dict[str, GapEntry]:
    """The defect of the summation identity at each regular vertex outside
    the imposed set: p_v minus its out-edges' range projections.  The
    relation pass must find no failure; then the ranges lie disjointly in
    p_v's support, and the gap is the diagonal on the support's uncovered
    positions.  With the path basis it is the rank-one projection onto
    the vertex's own trivial path."""
    rep.checked()
    return {v: GapEntry(rep.supports[v] - rep.covers[v][0], rep.dim)
            for v in regular_vertices(rep.graph) if v not in rep.spec.imposed}


# --- dimensions, blocks, corners -------------------------------------------


def _certified_rank(rep: MatrixRep, source: str | None) -> int:
    """Exact rank of the span of every unit S_a S_b* with a, b sharing a
    range (and both starting at ``source``, unless it is None).

    Upper bound: the relation pass (``verify_ck``'s) must find no failure.
    Then s_e* s_e = p_r(e) for every edge, and p_v = sum of s_e s_e* over
    the edges out of each imposed vertex v, so S_a S_b* = S_a p_v S_b* =
    sum_e S_ae S_be* whenever a and b share the imposed range v.  The graph
    is acyclic, so repeating this ends in pairs with a terminal range,
    which are pairs of basis paths: their units span every unit.

    Lower bound: every basis path a into t sends the trivial path at t to
    a itself, as its least row, so (index a, index b) is the least
    position of S_a S_b*.  Distinct pairs lead at distinct positions, so
    their units are independent.  With the basis holding every path into
    each terminal t (checked against the path-count DP), the rank is the
    sum of n_t squared, n_t the number of basis paths into t.  Cost:
    the size of the path maps; no pair is formed.
    """
    g = rep.checked().graph
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
        m = rep.path_map(a)
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
        "p": {v: [[i, i, 1] for i in sorted(s)]
              for v, s in sorted(rep.supports.items())},
        "s": {e: sorted([r, c, 1] for c, r in m.items())
              for e, m in sorted(rep.edge_maps.items())},
    }
