"""Structure classifiers: simplicity, AF-ness, row class, doubled-path
ladders, the sink/tail dichotomy, and the unique-irreducible-representation
verdict.

Simplicity is decided twice, by two independent characterizations that a
theorem makes equivalent:

* route 2 — every cycle has an exit, the graph is cofinal, and every vertex
  reaches every singular vertex;
* route 3 — every cycle has an exit and the only saturated hereditary
  vertex sets are empty and full.

Both routes read the strongly connected components that Tarjan's pass
caches on the graph, in one walk that marks each component bottom (no
bundle leaves it), cyclic, or holding a singular vertex.

Route 2 rests on one lemma: every vertex reaches some bottom component,
and a bottom component reaches only itself.  Proof: following bundles out
of components walks down the finite acyclic graph of components until it
stops at one that no bundle leaves; and nothing leaves a bottom component.
So a component reached from every vertex is reached from each bottom one,
hence is the unique bottom component.  The graph is cofinal exactly when
every cyclic component is that unique bottom component, and every vertex
reaches every singular vertex exactly when every singular vertex lies in
it.  No reachability search runs; the unreached-cycle witness alone is
worded by ``cofinal``'s searches.  Condition (L) follows unique out-edges
once.

Route 3 never enumerates the lattice of those sets.  Every nonempty saturated
hereditary set contains the saturated hereditary closure of a bottom
component, so the lattice is trivial exactly when each such closure is
the full vertex set.  The closures are pairwise disjoint, so computing
all of them is O(V + E).

Both routes are computed on every graph and must agree; a disagreement is
a bug, not a property of the graph.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import (
    BoundExceededError,
    CyclicGraphError,
    EmptyGraphError,
    InfiniteBundleError,
    InternalCheckError,
    decimal,
)
from .graph_model import (
    Graph,
    Path,
    StagedGraph,
    cofinal,
    count_paths_ending,
    cycles_and_condition_l,
    has_cycle,
    regular_set,
    sinks,
    strongly_connected_components,
    topological_order,
    traverse,
)
from .ideal_lattice import _close, lattice_order


# --- row class ---------------------------------------------------------------


class RowClass(Enum):
    ROW_FINITE = "RowFinite"
    ROW_COUNTABLE_NOT_FINITE = "RowCountableNotFinite"
    HAS_UNCOUNTABLE_EMITTER = "HasUncountableEmitter"


def row_class(g: Graph) -> RowClass:
    """Worst emission cardinality over all vertices."""
    worst = RowClass.ROW_FINITE
    for b in g.bundles:
        if b.cardinality.kind == "uncountable":
            return RowClass.HAS_UNCOUNTABLE_EMITTER
        if b.cardinality.kind == "aleph0":
            worst = RowClass.ROW_COUNTABLE_NOT_FINITE
    return worst


def is_af(g: Graph) -> bool:
    """The algebra is approximately finite-dimensional iff the graph has no
    cycles."""
    return not has_cycle(g)


# --- simplicity ----------------------------------------------------------------


class Witness(NamedTuple):
    """Evidence that simplicity fails: an exitless cycle, a vertex that
    misses a cycle, or a proper nontrivial saturated hereditary set."""

    kind: str  # "exitless-cycle" | "unreached-cycle" | "saturated-hereditary-set"
    cycle: Path | None = None
    vertex: str | None = None
    vertex_set: frozenset[str] | None = None

    def describe(self) -> str:
        if self.kind == "exitless-cycle":
            return f"exitless cycle {self.cycle.label()}"
        if self.kind == "unreached-cycle":
            return (f"vertex {self.vertex} cannot reach the cycle "
                    f"{self.cycle.label()}")
        return ("proper nontrivial saturated hereditary set "
                f"{{{', '.join(sorted(self.vertex_set))}}}")


class SimplicityResult(NamedTuple):
    simple: bool
    route2: bool
    route3: bool
    witness: Witness | None
    condition_l: bool
    cofinal: bool
    reaches_all_singular: bool
    lattice_trivial: bool


_EMPTY: frozenset[str] = frozenset()


def is_simple(g: Graph) -> SimplicityResult:
    """Decide simplicity over both routes and cross-check them, in one
    walk over the cached strongly connected components (see the module
    docstring): O(V + E) time and memory."""
    if not g.vertices:
        raise EmptyGraphError("simplicity is about nonempty graphs")
    cyc = cycles_and_condition_l(g)
    out, regular, n = g._out, regular_set(g), len(g.vertices)
    bottoms = 0
    cyclic_bottom = singular_bottom = False  # in some bottom component
    cyclic_above = singular_above = False    # in some other component
    proper: list[frozenset[str]] = []        # bottom closures short of V
    for comp in strongly_connected_components(g):
        if len(comp) == 1:
            v = comp[0]
            cyclic = leaves = False
            for b in out[v]:
                if b.dst == v:
                    cyclic = True
                else:
                    leaves = True
            bottom = not leaves
            singular = v not in regular
        else:
            members = set(comp)
            cyclic = True
            bottom = all(b.dst in members for v in comp for b in out[v])
            singular = not regular.issuperset(comp)
        if bottom:
            bottoms += 1
            cyclic_bottom |= cyclic
            singular_bottom |= singular
            closure = _close(g, _EMPTY, comp)
            if len(closure) != n:
                proper.append(closure)
        else:
            cyclic_above |= cyclic
            singular_above |= singular
    # every vertex reaches a bottom component, and a bottom component only
    # itself: a cycle or singular vertex is reached from everywhere exactly
    # when it lies in the unique bottom component
    unique = bottoms == 1
    cof = not cyclic_above and (unique or not cyclic_bottom)
    reach_ok = not singular_above and (unique or not singular_bottom)
    route2 = cyc.condition_l and cof and reach_ok
    lattice_trivial = not proper
    route3 = cyc.condition_l and lattice_trivial
    if route3 != route2:
        raise InternalCheckError(
            f"simplicity routes disagree: route2={route2} route3={route3}")

    witness: Witness | None = None
    if not route2:
        if not cyc.condition_l:
            witness = Witness("exitless-cycle", cyc.witness)
        elif not cof:
            # the searches run only to name the vertex and the cycle
            v, cycle = cofinal(g).witness
            witness = Witness("unreached-cycle", cycle, v)
        else:
            # condition (L) and cofinality hold but some singular vertex is
            # unreachable; the lattice then has a proper nontrivial element,
            # and the least one in (size, sorted members) order is a bottom
            # closure, since every nontrivial element contains one
            witness = Witness("saturated-hereditary-set",
                              vertex_set=min(proper, key=lattice_order))
    return SimplicityResult(route2, route2, route3, witness, cyc.condition_l,
                            cof, reach_ok, lattice_trivial)


def _reaching_set(g: Graph, target: str) -> set[str]:
    """Vertices with a (possibly trivial) path to ``target``.  Simplicity
    runs no search; the name stays bound because perfbench/tracer.py wraps
    it as part of the route-2 layer."""
    return traverse(g, [target], forward=False)


# --- doubled-path ladders --------------------------------------------------------


# steps of one ladder_length walk: vertices * (vertices + bundles)
LADDER_WORK_BOUND = 1 << 23


def ladder_length(g: Graph) -> int:
    """Longest chain of distinct vertices consecutively joined by at least
    two distinct paths.

    Computed from the doubled-reachability relation: pair (u, w) is doubled
    when at least two distinct paths run from u to w (path counts saturate
    at two during the DP).  On an acyclic graph that relation is itself
    acyclic, and the answer is its longest chain, counted in steps.  Taken
    in reverse topological order, each source meets its doubled targets
    with their chains known, so the relation is never stored.  A walk of
    more than ``LADDER_WORK_BOUND`` steps is refused before it starts.
    """
    if not g.all_bundles_finite():
        raise InfiniteBundleError("ladder length needs finite bundles")
    order = topological_order(g)  # raises CyclicGraphError on cycles
    if len(order) * (len(order) + len(g.bundles)) > LADDER_WORK_BOUND:
        raise BoundExceededError(
            f"ladder length would take more than {LADDER_WORK_BOUND} steps "
            "(vertices x (vertices + bundles))")
    best = dict.fromkeys(g.vertices, 0)  # longest chain from each vertex
    for i in reversed(range(len(order))):
        # capped path counts from order[i], by a forward DP over the rest
        counts = dict.fromkeys(order[i:], 0)
        counts[order[i]] = 1
        for v in order[i:]:
            c = counts[v]
            if not c:
                continue
            for b in g.out_bundles(v):
                counts[b.dst] = min(2, counts[b.dst] + c * b.cardinality.count)
        best[order[i]] = max((1 + best[w] for w in order[i + 1:]
                              if counts[w] >= 2), default=0)
    return max(best.values(), default=0)


# --- dichotomy ---------------------------------------------------------------------


class DichotomyTag(Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    NEITHER = "Neither"
    NEITHER_THROUGH_DEPTH = "NeitherThroughDepth"


class DichotomyResult(NamedTuple):
    tag: DichotomyTag
    sink: str | None = None
    tail_vertices: tuple[str, ...] = ()
    tail_edges: tuple[str, ...] = ()
    depth: int | None = None
    reason: str = ""


def dichotomy(subject: Graph | StagedGraph, depth: int | None = None) -> DichotomyResult:
    """Sink/tail classification of an acyclic graph or staged family.

    A finite graph is CaseI exactly when it has one sink (finite acyclic
    graphs have no infinite paths, and at least one sink when nonempty);
    an exclusive tail needs infinitely many vertices, so finite graphs are
    never CaseII.  A staged family is classified through certificates: an
    exclusive-spine profile yields CaseII with the materialized tail
    prefix; an out-degree floor of two yields Neither (no sinks and no
    exclusive edges can ever appear); otherwise the honest answer is
    NeitherThroughDepth.
    """
    if isinstance(subject, StagedGraph):
        return _dichotomy_staged(subject, depth if depth is not None else 1)
    return _dichotomy_finite(subject)


def _dichotomy_finite(g: Graph) -> DichotomyResult:
    if has_cycle(g):
        raise CyclicGraphError("dichotomy is about acyclic graphs")
    sk = sinks(g)
    if len(sk) == 1:
        return DichotomyResult(DichotomyTag.CASE_I, sink=sk[0],
                               reason="exactly one sink; finite acyclic graphs "
                                      "have no infinite paths")
    return DichotomyResult(DichotomyTag.NEITHER,
                           reason=f"{len(sk)} sinks" if sk else "empty graph")


def _dichotomy_staged(sg: StagedGraph, depth: int) -> DichotomyResult:
    if sg.constant:
        return _dichotomy_finite(sg.stage(depth))
    stage = sg.stage(depth)
    if has_cycle(stage):
        raise CyclicGraphError("dichotomy is about acyclic graphs")
    prof = sg.profile
    if prof.spine is not None and prof.spine_exclusive \
            and (prof.min_out_degree or 0) >= 1 and prof.acyclic_stages:
        spine = sg.spine_prefix(depth)
        edges = []
        for a, b in zip(spine, spine[1:]):
            outs = stage.out_bundles(a)
            # the exclusive-spine profile was checked on every delta
            edges.append(outs[0].id)
        return DichotomyResult(DichotomyTag.CASE_II,
                               tail_vertices=spine, tail_edges=tuple(edges),
                               reason="exclusive tail certified by the family "
                                      "profile and verified on every stage")
    if (prof.min_out_degree or 0) >= 2 and prof.acyclic_stages:
        return DichotomyResult(
            DichotomyTag.NEITHER,
            reason="every settled vertex emits at least two edges, so the "
                   "limit has no sinks and no exclusive tail")
    return DichotomyResult(DichotomyTag.NEITHER_THROUGH_DEPTH, depth=depth,
                           reason="no certificate; neither case exhibited "
                                  f"through stage {depth}")


# --- the verdict -------------------------------------------------------------------


class VerdictTag(Enum):
    NOT_SIMPLE = "NotSimple"
    MULTIPLE_IRREPS = "MultipleIrreps"
    OPEN_PURELY_INFINITE = "OpenPurelyInfinite"
    UNIQUE_IRREP_COMPACTS = "UniqueIrrepCompacts"
    UNKNOWN_AT_DEPTH = "UnknownAtDepth"


class Verdict(NamedTuple):
    tag: VerdictTag
    dimension: int | None = None         # finite dimension, when known
    countably_infinite: bool = False     # dimension is countably infinite
    reason: str = ""
    witness: Witness | None = None
    citations: tuple[str, ...] = ()
    depth: int | None = None             # for UnknownAtDepth
    simplicity: SimplicityResult | None = None  # set for finite graphs

    def headline(self) -> str:
        if self.tag is VerdictTag.UNIQUE_IRREP_COMPACTS:
            d = "countably-infinite" if self.countably_infinite else str(self.dimension)
            return f"UniqueIrrepCompacts dim={d}"
        if self.tag is VerdictTag.UNKNOWN_AT_DEPTH:
            return f"UnknownAtDepth({self.depth})"
        return self.tag.value


def naimark_verdict(subject: Graph | StagedGraph,
                    depth: int | None = None) -> Verdict:
    """Decide whether the graph's algebra can have a unique irreducible
    representation, and what it is when it does.

    Finite graphs always get a total answer:

    * not simple — no (an algebra with a unique irreducible representation
      is simple);
    * simple with a cycle — the algebra is not AF, so with row-finite or
      row-countable emission it cannot be the compacts, and multiple
      irreducible representations exist;
    * simple with a cycle and an uncountable emitter — open territory;
    * simple and acyclic — one sink catches every path, the algebra is a
      full matrix algebra, and the dimension counts paths into the sink.

    Staged families answer through certificates and otherwise say so.
    """
    if isinstance(subject, StagedGraph):
        return _verdict_staged(subject, depth if depth is not None else 1)
    return _verdict_finite(subject)


def _verdict_finite(g: Graph) -> Verdict:
    simp = is_simple(g)  # raises EmptyGraphError on an empty graph
    if not simp.simple:
        return Verdict(VerdictTag.NOT_SIMPLE,
                       reason=simp.witness.describe(),
                       witness=simp.witness,
                       citations=("unique-irrep-implies-simple",
                                  "simplicity-criterion"),
                       simplicity=simp)
    if has_cycle(g):
        rc = row_class(g)
        if rc is RowClass.HAS_UNCOUNTABLE_EMITTER:
            return Verdict(VerdictTag.OPEN_PURELY_INFINITE,
                           reason="simple with a cycle and an uncountable "
                                  "emitter; undecided territory",
                           citations=("purely-infinite-open-case",),
                           simplicity=simp)
        return Verdict(
            VerdictTag.MULTIPLE_IRREPS,
            reason="simple with a cycle: the algebra is not AF, but a "
                   f"{rc.value} graph algebra with a unique irreducible "
                   "representation would be the compacts, which are AF",
            citations=("row-countable-unique-irrep-compacts", "af-iff-acyclic"),
            simplicity=simp)
    dich = _dichotomy_finite(g)
    if dich.tag is not DichotomyTag.CASE_I:
        raise InternalCheckError(
            "a simple finite acyclic graph must have exactly one sink")
    dim = count_paths_ending(g)[dich.sink]
    shown = decimal(dim, "algebra dimension")
    return Verdict(VerdictTag.UNIQUE_IRREP_COMPACTS, dimension=dim,
                   reason=f"one sink {dich.sink!r}; the algebra is the full "
                          f"matrix algebra on the {shown} paths into it",
                   citations=("af-unique-irrep-compacts",
                              "sink-or-tail-dichotomy"),
                   simplicity=simp)


def _verdict_staged(sg: StagedGraph, depth: int) -> Verdict:
    if sg.constant:
        return _verdict_finite(sg.stage(depth))
    stage = sg.stage(depth)
    unknown = Verdict(VerdictTag.UNKNOWN_AT_DEPTH, depth=depth,
                      reason=f"no certificate decides the limit at stage {depth}",
                      citations=("computed",))
    # no cycle test: sg.stage refused a cyclic stage under this claim
    if not sg.profile.acyclic_stages:
        return unknown
    tag = _dichotomy_staged(sg, depth).tag
    if tag is DichotomyTag.CASE_II:
        if not stage.vertices or not is_simple(stage).simple:
            return unknown
        return Verdict(
            VerdictTag.UNIQUE_IRREP_COMPACTS, countably_infinite=True,
            reason="certified exclusive tail with no limit sinks: the "
                   "algebra is the compacts on the separable sequence space",
            citations=("af-unique-irrep-compacts", "sink-or-tail-dichotomy"))
    if tag is DichotomyTag.NEITHER:
        return Verdict(
            VerdictTag.MULTIPLE_IRREPS,
            reason="certified acyclic limit with no sinks and no exclusive "
                   "tail: an AF algebra with a unique irreducible "
                   "representation would need one of the two",
            citations=("sink-or-tail-dichotomy", "af-iff-acyclic",
                       "forbidden-doubled-ladder"))
    return unknown
