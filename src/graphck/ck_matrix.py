"""Exact finite-dimensional Cuntz-Krieger matrix models on path bases.

For a finite acyclic graph and a chosen set S of regular vertices, the
model has one basis position per path into a terminal vertex (a sink or
a regular vertex outside S), assigned level by level backwards from the
terminals (``build_ck_family``); a basis of more than
``BASIS_SIZE_BOUND`` positions (counted by the path-count DP) is refused
before it is grown.  A model stores each vertex projection as its
support and each edge isometry as its col -> row map (a partial
permutation), and nothing else; the path labels (``MatrixRep.basis``)
are a view for ``--export`` and the tests, rebuilt from the maps.  With
this basis the three Cuntz-Krieger identities hold exactly, the
summation identity holds at precisely the vertices of S, and every
vertex projection and every gap projection is nonzero — so the model is
a faithful copy of the relative algebra whenever every cycle has an exit
(vacuous here: no cycles at all).

All arithmetic is integer-exact; no float ever decides a dimension, and
no matrix is ever multiplied.  One relation pass over the maps
(``MatrixRep.report``), linear in their size, backs ``verify_ck``, the
gaps and the stage embedding certificate (``bratteli.embed_check``); it
certifies by counts, and walks the maps one by one only to word a
failure.  One certificate pass (``MatrixRep.leads``) then checks that
every map keeps the basis order, that each terminal's least support
position (its lead) lies outside its out-edges' ranges, and that the
paths into the terminals number the positions.  Dimensions, corners
and blocks read the path counts n_t the graph caches: no path map is
composed and no unit S_a S_b* is formed.  ``IntMatrix`` is a view for outside
readers; composed path maps, elimination over every path-pair unit, and
the relations as matrix products are test oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

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
    regular_set,
    regular_vertices,
    sinks,
    topological_order,
)
from .ideal_lattice import BASIS_SIZE_BOUND

# edge ids over every path label one export writes: the labels of a model
# within BASIS_SIZE_BOUND can hold far more, up to about n^3/6 on an
# n-vertex line
EXPORT_LABEL_BOUND = 1 << 22


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
        return RelativeSpec(regular_set(g))

    @staticmethod
    def of(vertices) -> "RelativeSpec":
        return RelativeSpec(frozenset(vertices))

    def validate(self, g: Graph) -> None:
        regs = regular_set(g)
        if not self.imposed <= regs:
            raise RelativeSpecError(
                "relative spec must name regular vertices of this graph; "
                f"rejected: {', '.join(sorted(self.imposed - regs))}")


def _check_model_graph(g: Graph) -> None:
    if has_cycle(g):
        raise CyclicGraphError("cyclic graph: no finite-dimensional model")
    if not g.all_bundles_finite():
        raise InfiniteBundleError("matrix models need every bundle finite")


def terminal_vertices(g: Graph, spec: RelativeSpec) -> list[str]:
    """Sinks plus regular vertices where the summation identity is NOT
    imposed — the vertices where basis paths are allowed to end."""
    spec.validate(g)
    return sorted((regular_set(g) - spec.imposed).union(sinks(g)))


@dataclass
class MatrixRep:
    """The assembled model: each vertex's support and each edge's col -> row
    map over the basis positions 0..dim-1.  Every check reads the one
    relation pass (``report``) and the one certificate pass (``leads``),
    each cached on first use, so a model is not edited after its first
    check.  ``basis``, ``vertex_projections`` and ``edge_isometries`` are
    views, built on first access."""

    graph: Graph
    spec: RelativeSpec
    supports: dict[str, frozenset[int]]
    edge_maps: dict[str, dict[int, int]]
    dim: int

    @functools.cached_property
    def covers(self) -> dict[str, tuple[set[int], bool]]:
        """Per vertex, the union of its out-edges' ranges and whether those
        are pairwise disjoint (their sizes add up to the union's size).
        Only a gap, a lead off the spec, or a failing relation reads it."""
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
        """The relation pass (``_relations``)."""
        return _relations(self)

    def checked(self) -> "MatrixRep":
        """This model, for a certificate that needs every relation: the
        relation pass's first failure, if any, is raised instead."""
        if self.report.failures:
            raise InternalCheckError(self.report.failures[0])
        return self

    @functools.cached_property
    def leads(self) -> dict[str, int]:
        """The certificate pass, after the relation pass finds no failure;
        each terminal's lead position, by terminal.

        It checks that every edge map keeps the basis order (rows rise
        with columns); that each terminal t's least support position lies
        outside its out-edges' ranges — a nonzero p_t at a sink, or a
        nonzero gap off the spec — which makes it t's lead; and that the
        paths into the terminals, counted by the path-count DP, number
        ``dim``.  Only a map whose columns or rows do not rise as listed
        (the builder lists both rising) is sorted."""
        g = self.checked().graph
        for e, m in self.edge_maps.items():
            if len(m) > 1 and (list(m) != sorted(m)
                               or list(m.values()) != sorted(m.values())):
                rows = list(map(m.__getitem__, sorted(m)))
                if rows != sorted(rows):
                    raise InternalCheckError(
                        f"generator s_{e} does not keep the basis order")
        leads: dict[str, int] = {}
        regular = regular_set(g)  # the terminals with out-edges: off the spec
        for t in terminal_vertices(g, self.spec):
            lead = min(self.supports[t], default=None)
            if lead is None or t in regular and lead in self.covers[t][0]:
                raise InternalCheckError(
                    f"terminal {t} has no lead position outside its "
                    "out-edges' ranges")
            leads[t] = lead
        paths = sum(map(count_paths_ending(g).__getitem__, leads))
        if paths != self.dim:
            raise InternalCheckError(
                f"model has {self.dim} positions; its terminals have "
                f"{paths} paths into them")
        return leads

    @functools.cached_property
    def basis(self) -> tuple[Path, ...]:
        """Each position's path label, rebuilt from the certified maps: a
        terminal's lead position is its trivial path, and each entry
        c -> r of s_e labels r as e.label(c)."""
        into: dict[str, list] = {v: [] for v in self.graph.vertices}
        for e in self.graph.finite_edges():
            into[e.dst].append(e)
        labels: list = [None] * self.dim
        for t, i in self.leads.items():
            labels[i] = Path(t, t, ())
        todo = list(self.leads.values())
        while todo:
            c = todo.pop()
            a = labels[c]
            for e in into[a.source]:
                r = self.edge_maps[e.id][c]
                labels[r] = Path(e.src, a.target, (e.id,) + a.edges)
                todo.append(r)
        return tuple(labels)

    @functools.cached_property
    def vertex_projections(self) -> dict[str, IntMatrix]:
        return {v: IntMatrix.from_diag(sorted(s), self.dim)
                for v, s in self.supports.items()}

    @functools.cached_property
    def edge_isometries(self) -> dict[str, IntMatrix]:
        return {e: IntMatrix.from_partial_perm(m, self.dim)
                for e, m in self.edge_maps.items()}


def build_ck_family(g: Graph, spec: RelativeSpec) -> MatrixRep:
    """Assemble the model, assigning basis positions level by level.

    Level 0 is one position per sorted terminal, for its trivial path;
    level L+1 gives each edge e, in id order, a new position for each
    level-L position at e's range, in level order, and records it as s_e's
    row for that column.  That is the ``Path.sort_key`` order of the paths
    the positions stand for, so no path is made or compared."""
    _check_model_graph(g)
    terms = terminal_vertices(g, spec)
    size = sum(map(count_paths_ending(g).__getitem__, terms))
    if size > BASIS_SIZE_BOUND:
        raise BoundExceededError(
            f"model basis would hold more than {BASIS_SIZE_BOUND} paths")
    col_to_row: dict[str, dict[int, int]] = {}
    into: dict[str, list[int]] = {v: [] for v in g.vertices}
    slots = []  # each edge, in id order, as (range, source, map)
    for i, (e, src, dst) in enumerate(g.finite_edges()):
        into[dst].append(i)
        slots.append((dst, src, col_to_row.setdefault(e, {})))
    by_source: dict[str, list[int]] = {v: [] for v in g.vertices}
    dim = len(terms)
    # each source's positions on the last level
    level = {t: [i] for i, t in enumerate(terms)}
    while level:
        grown: dict[str, list[int]] = {}
        # the level's in-edges in id order, as one vertex already lists its own
        for i in (into[next(iter(level))] if len(level) == 1 else
                  sorted(chain.from_iterable(map(into.__getitem__, level)))):
            dst, src, m = slots[i]
            cols = level[dst]
            rows = range(dim, dim + len(cols))
            m.update(zip(cols, rows))
            grown.setdefault(src, []).extend(rows)
            dim = rows.stop
        for v, rows in level.items():
            by_source[v] += rows
        level = grown
    if dim != size:
        raise InternalCheckError(
            f"grown basis holds {dim} paths; the path count is {size}")
    return MatrixRep(g, spec,
                     {v: frozenset(idxs) for v, idxs in by_source.items()},
                     col_to_row, dim)


def admit_export(g: Graph, spec: RelativeSpec) -> None:
    """Refuse, before the model is built, an export whose path labels would
    hold more than ``EXPORT_LABEL_BOUND`` edge ids.  A path-length DP reads
    the graph's path counts: over a bundle of k edges, the paths into its
    range gain k times the paths into its source, each one edge longer.  A
    basis past ``BASIS_SIZE_BOUND`` is left to ``build_ck_family``, which
    refuses it with its own message."""
    _check_model_graph(g)
    terms = terminal_vertices(g, spec)
    counts = count_paths_ending(g)
    lengths = dict.fromkeys(g.vertices, 0)  # the paths' edges, summed
    for v in topological_order(g):
        for b in g._out[v]:
            lengths[b.dst] += b.cardinality.count * (lengths[v] + counts[v])
    if (sum(counts[t] for t in terms) <= BASIS_SIZE_BOUND
            and sum(lengths[t] for t in terms) > EXPORT_LABEL_BOUND):
        raise BoundExceededError(
            f"model export would write more than {EXPORT_LABEL_BOUND} edge "
            "ids in its path labels")


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
    """The relation pass.  Counts certify what holds: the size of the
    union of every map's rows that each map is injective and the ranges
    disjoint, and the sizes of the regular vertices' supports that those
    ranges fill them.  Only a failed check walks the maps one by one, to
    word its failures in order (a map that is not injective is raised)."""
    g = rep.graph
    support, maps, edges = rep.supports, rep.edge_maps, g.finite_edges()
    ranges = [m.values() for m in maps.values()]
    rows = sum(map(len, ranges))
    overlap = rows != len(set().union(*ranges))
    if overlap:
        for e, m in maps.items():
            if len(set(m.values())) != len(m):
                raise InternalCheckError(
                    f"generator s_{e} is not a partial permutation")
    failures = []
    ck1_ok = ck2_ok = True
    if not all([maps[e].keys() == support[d]
                and support[s].issuperset(maps[e].values())
                for e, s, d in edges]):
        for e, s, d in edges:
            if maps[e].keys() != support[d]:
                ck1_ok = False
                failures.append(f"ck1 fails at edge {e}")
            if not support[s].issuperset(maps[e].values()):
                ck2_ok = False
                failures.append(f"ck2 fails at edge {e}")

    # supports are sets, so they are pairwise disjoint exactly when their
    # sizes add up to the size of their union; only a clash is looked for
    supports = [support[v] for v in g.vertices]
    clashes = []
    if sum(map(len, supports)) != len(set().union(*supports)):
        clashes += [f"vertex projections {v}, {w} not orthogonal"
                    for v, w in _meeting_pairs(g.vertices, supports, supports)]
    if overlap:
        ids = [e.id for e in edges]
        ranges = [maps[a].values() for a in ids]
        clashes += [f"edge ranges {a}, {b} not orthogonal"
                    for a, b in _meeting_pairs(ids, ranges, ranges)]
    failures += clashes

    # ck3 at v: the out-edges' ranges cover p_v disjointly; disjoint ranges
    # inside their sources' supports fill them all when the sizes agree
    regular = regular_vertices(g)  # every edge's source, in a model
    if not overlap and ck2_ok and rows == sum(
            map(len, map(support.__getitem__, regular))):
        ck3 = dict.fromkeys(regular, True)
    else:
        ck3 = {v: rep.covers[v][1] and rep.covers[v][0] == support[v]
               for v in regular}
    for v, held in ck3.items():
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


def _certified_rank(rep: MatrixRep, counts: dict[str, int]) -> int:
    """Exact rank of the span of every unit S_a S_b* with a, b in a family
    of paths (every path, or every path from one vertex) sharing a range,
    where ``counts`` holds the number of the family's paths into each
    vertex: the sum over terminal vertices t of n_t squared.

    Upper bound: the relation pass (``verify_ck``'s) must find no failure.
    Then s_e* s_e = p_r(e) for every edge, and p_v = sum of s_e s_e* over
    the edges out of each imposed vertex v, so S_a S_b* = S_a p_v S_b* =
    sum_e S_ae S_be* whenever a and b share the imposed range v.  The graph
    is acyclic, so repeating this ends in pairs with a terminal range:
    their n_t**2 units per terminal t span every unit.

    Lower bound: the certificate pass (``MatrixRep.leads``) must pass too.
    Then a -> S_a(lead_t) is injective on the graph paths into the
    terminals: the maps are injective, and after their common first edges
    two distinct paths either go on by distinct edges, whose ranges are
    disjoint, or one stops at its terminal t while the other leaves t by
    an edge whose range t's lead lies outside.  S_a's domain is supp p_t,
    whose least position is lead_t, and every map keeps the basis order,
    so S_a(lead_t) is S_a's least row and (S_a(lead_t), S_b(lead_t)) the
    least entry of S_a S_b*.  Distinct pairs lead at distinct entries, so
    their units are independent.  Cost: the certificate pass; no path is
    composed and no pair is formed.
    """
    return sum(counts[t] ** 2 for t in rep.leads)


def algebra_dimension(rep: MatrixRep) -> int:
    """Linear dimension of the span of all path-pair operators S_a S_b*
    (a, b with a common range): the exact rank over the rationals,
    certified as the sum over terminal vertices of the squared count of
    paths ending there (one full matrix block each)."""
    return _certified_rank(rep, count_paths_ending(rep.graph))


@dataclass(frozen=True)
class Block:
    terminal: str
    size: int


def block_decomposition(rep: MatrixRep) -> list[Block]:
    """One full matrix block per sink; sizes count the paths into each sink,
    certified as for ``algebra_dimension``.  Only defined for the full
    relative spec — excluded regular vertices leave gap summands that mix
    into the blocks, so refuse."""
    if rep.spec.imposed != regular_set(rep.graph):
        raise RelativeSpecError(
            "block decomposition needs the summation identity at every "
            "regular vertex")
    ending = count_paths_ending(rep.graph)
    return [Block(t, ending[t]) for t in sorted(rep.leads)]


@dataclass(frozen=True)
class CornerSummary:
    vertex: str
    dimension: int
    full: bool


def corner(rep: MatrixRep, v: str) -> CornerSummary:
    """The compression of the model by one vertex projection.

    Its dimension is the exact rank of the span of path-pair operators
    with both paths starting at the vertex, certified as the sum of
    squared counts of paths from ``v`` into each terminal vertex.  The
    corner is full exactly when the vertex projection meets every matrix
    block, i.e. when every terminal vertex is the range of some path from
    ``v``.
    """
    from_v = count_paths_from(rep.graph, v)
    return CornerSummary(v, _certified_rank(rep, from_v),
                         all(from_v[t] for t in rep.leads))


def export_model(rep: MatrixRep) -> dict:
    """JSON-ready form: the basis view's path labels plus sparse triples
    for every generator."""
    return {
        "basis": [p.label() for p in rep.basis],
        "p": {v: [[i, i, 1] for i in sorted(s)]
              for v, s in sorted(rep.supports.items())},
        "s": {e: sorted([r, c, 1] for c, r in m.items())
              for e, m in sorted(rep.edge_maps.items())},
    }
