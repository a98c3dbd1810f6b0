# Core graph container, paths, traversals, staged families.

import pytest
from hypothesis import given, settings

from graphck import (
    ALEPH0,
    UNCOUNTABLE,
    Cardinality,
    CofinalityResult,
    CyclicGraphError,
    EdgeBundle,
    Graph,
    GraphBuildError,
    InfiniteBundleError,
    LassoPath,
    Path,
    StageError,
    StagedGraph,
    UniformProfile,
    UnknownVertexError,
    cofinal,
    count_paths_ending,
    count_paths_from,
    cycles_and_condition_l,
    enumerate_paths,
    finite,
    has_cycle,
    ladder_family,
    reachable_set,
    reaches,
    representative_edge_id,
    sinks,
    singular_vertices,
    regular_vertices,
    strongly_connected_components,
    topological_order,
    vertex_classes,
)
from graphck.graph_model import VertexKind

import helpers
from helpers import (
    diamond,
    disjoint_loops,
    g1,
    graph_of,
    graphs,
    line,
    rose,
    single_loop,
    two_sinks,
)


# --- cardinalities ---------------------------------------------------------


def test_cardinality_round_trip():
    for c in (finite(1), finite(7), ALEPH0, UNCOUNTABLE):
        assert Cardinality.parse(c.encode()) == c


def test_cardinality_encodings():
    assert finite(3).encode() == "finite:3"
    assert ALEPH0.encode() == "aleph0"
    assert UNCOUNTABLE.encode() == "uncountable"


def test_cardinality_rejects_garbage():
    with pytest.raises(GraphBuildError):
        Cardinality.parse("finite:0")
    with pytest.raises(GraphBuildError):
        Cardinality.parse("finite:x")
    with pytest.raises(GraphBuildError):
        Cardinality.parse("countable")  # not a recognized size
    with pytest.raises(GraphBuildError):
        Cardinality("weird")
    with pytest.raises(GraphBuildError):
        Cardinality("aleph0", count=2)
    with pytest.raises(GraphBuildError):
        finite(-1)


# --- graph construction ----------------------------------------------------


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphBuildError):
        Graph(["v", "v"], [])


def test_duplicate_bundle_id_rejected():
    with pytest.raises(GraphBuildError):
        Graph(["v", "w"], [EdgeBundle("e", "v", "w"), EdgeBundle("e", "w", "v")])


def test_dangling_endpoints_rejected():
    with pytest.raises(GraphBuildError):
        Graph(["v"], [EdgeBundle("e", "v", "nope")])
    with pytest.raises(GraphBuildError):
        Graph(["v"], [EdgeBundle("e", "nope", "v")])


def test_graph_equality_ignores_declaration_order():
    a = Graph(["v", "w"], [EdgeBundle("e", "v", "w"), EdgeBundle("f", "w", "v")])
    b = Graph(["w", "v"], [EdgeBundle("f", "w", "v"), EdgeBundle("e", "v", "w")])
    assert a == b
    assert hash(a) == hash(b)


def test_graph_inequality_on_cardinality():
    a = Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(1))])
    b = Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(2))])
    assert a != b


def test_is_subgraph_of():
    small = line(2)
    big = line(3)
    assert small.is_subgraph_of(big)
    assert not big.is_subgraph_of(small)
    # same ids but a different bundle shape is not a subgraph
    twisted = Graph(["v0", "v1", "v2"], [EdgeBundle("e0", "v0", "v2"),
                                         EdgeBundle("e1", "v1", "v2")])
    assert not small.is_subgraph_of(twisted)


# --- concrete edges and edge resolution --------------------------------------


def test_finite_edges_naming():
    g = Graph(["v", "w"], [EdgeBundle("a", "v", "w", finite(1)),
                           EdgeBundle("b", "v", "w", finite(3))])
    assert [e.id for e in g.finite_edges()] == ["a", "b#0", "b#1", "b#2"]
    assert [e.slot for e in g.finite_edges()] == [0, 0, 1, 2]


def test_finite_edges_refuses_infinite_bundles():
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", ALEPH0)])
    with pytest.raises(InfiniteBundleError):
        g.finite_edges()


def test_representative_edge_id():
    assert representative_edge_id(EdgeBundle("e", "v", "w", finite(1))) == "e"
    assert representative_edge_id(EdgeBundle("e", "v", "w", finite(4))) == "e#0"
    assert representative_edge_id(EdgeBundle("e", "v", "w", ALEPH0)) == "e#0"


def test_resolve_edge_forms():
    g = Graph(["v", "w"], [EdgeBundle("a", "v", "w", finite(1)),
                           EdgeBundle("b", "v", "w", finite(2)),
                           EdgeBundle("c", "v", "w", ALEPH0)])
    assert g.resolve_edge("a").bundle_id == "a"
    assert g.resolve_edge("b#1").slot == 1
    # infinite bundles have no slot bound
    assert g.resolve_edge("c#905").slot == 905
    with pytest.raises(UnknownVertexError):
        g.resolve_edge("b")  # multi-edge bundle needs a #slot
    with pytest.raises(UnknownVertexError):
        g.resolve_edge("a#0")  # single edges go by the bare id
    with pytest.raises(UnknownVertexError):
        g.resolve_edge("b#2")  # out of range
    with pytest.raises(UnknownVertexError):
        g.resolve_edge("b#-1")
    with pytest.raises(UnknownVertexError):
        g.resolve_edge("b#x")
    with pytest.raises(UnknownVertexError):
        g.resolve_edge("nope")


def test_out_degree_counts_slots_not_bundles():
    g = Graph(["v", "w"], [EdgeBundle("a", "v", "w", finite(3))])
    assert g.out_degree("v") == 3
    assert g.out_degree("w") == 0
    g2 = Graph(["v", "w"], [EdgeBundle("a", "v", "w", UNCOUNTABLE)])
    assert g2.out_degree("v") is None


# --- vertex classes ----------------------------------------------------------


def test_vertex_classes_on_mixed_graph():
    g = Graph(["s", "r", "i"], [EdgeBundle("e", "r", "s", finite(2)),
                                EdgeBundle("f", "i", "s", ALEPH0)])
    cls = vertex_classes(g)
    assert cls["s"].kind is VertexKind.SINK
    assert cls["r"].kind is VertexKind.REGULAR
    assert cls["i"].kind is VertexKind.INFINITE_EMITTER
    assert sinks(g) == ["s"]
    assert singular_vertices(g) == ["s", "i"]  # graph order
    assert regular_vertices(g) == ["r"]


# --- paths --------------------------------------------------------------------


def test_trivial_path():
    g = g1()
    p = Path.trivial(g, "v")
    assert p.is_trivial and len(p) == 0
    assert p.label() == "v"
    with pytest.raises(UnknownVertexError):
        Path.trivial(g, "zz")


def test_from_edges_composition():
    g = line(3)
    p = Path.from_edges(g, ["e0", "e1"])
    assert (p.source, p.target) == ("v0", "v2")
    assert p.vertex_seq == ("v0", "v1", "v2")
    assert p.label() == "e0.e1"
    with pytest.raises(GraphBuildError):
        Path.from_edges(g, [])
    with pytest.raises(GraphBuildError):
        Path.from_edges(g, ["e1", "e0"])  # doesn't compose


def test_path_validate_catches_forged_paths():
    g = line(3)
    good = Path.from_edges(g, ["e0"])
    good.validate(g)
    forged = Path("v0", "v2", ("e0",), ("v0", "v2"))
    with pytest.raises(GraphBuildError):
        forged.validate(g)


def test_lasso_validation():
    g = single_loop()
    cyc = Path.from_edges(g, ["l"])
    LassoPath(Path.trivial(g, "u"), cyc)  # fine
    with pytest.raises(GraphBuildError):
        LassoPath(Path.trivial(g, "u"), Path.trivial(g, "u"))  # empty cycle
    g2 = graph_of(3, [("v0", "v1"), ("v1", "v2"), ("v2", "v1")])
    cyc2 = Path.from_edges(g2, ["e1", "e2"])
    LassoPath(Path.from_edges(g2, ["e0"]), cyc2)
    with pytest.raises(GraphBuildError):
        LassoPath(Path.trivial(g2, "v0"), cyc2)  # stem doesn't meet the cycle


def test_enumerate_paths_ladder_stage():
    g = ladder_family(2).stage(4)
    ending = [p for p in enumerate_paths(g, end_at="w_4")]
    # trivial + 2 + 4 + 8 one-to-four-rung paths
    assert len(ending) == 15
    assert sum(1 for p in ending if p.is_trivial) == 1
    assert all(p.target == "w_4" for p in ending)


def test_enumerate_paths_bounded_on_cycles():
    g = rose(2)
    ps = enumerate_paths(g, max_len=3)
    # words of length <= 3 over two loops: 1 + 2 + 4 + 8
    assert len(ps) == 15
    with pytest.raises(CyclicGraphError):
        enumerate_paths(g)


def test_enumerate_paths_needs_finite_bundles():
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", ALEPH0)])
    with pytest.raises(InfiniteBundleError):
        enumerate_paths(g)


def test_enumerate_paths_sorted_and_unique():
    g = diamond()
    ps = enumerate_paths(g)
    assert len(set(ps)) == len(ps)
    assert ps == sorted(ps, key=Path.sort_key)


def test_count_paths_matches_enumeration():
    for g in (g1(), two_sinks(), line(4), diamond(), ladder_family(2).stage(3)):
        by_end = count_paths_ending(g)
        for v in g.vertices:
            assert by_end[v] == len(enumerate_paths(g, end_at=v))
        for base in g.vertices:
            from_base = count_paths_from(g, base)
            everything = enumerate_paths(g)
            for v in g.vertices:
                want = sum(1 for p in everything
                           if p.source == base and p.target == v)
                assert from_base[v] == want


def test_count_paths_multiplicity():
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(3))])
    assert count_paths_from(g, "v") == {"v": 1, "w": 3}
    assert count_paths_ending(g) == {"v": 1, "w": 4}


# --- traversals ----------------------------------------------------------------


def test_reachability():
    g = line(3)
    assert reachable_set(g, "v0") == {"v0", "v1", "v2"}
    assert reachable_set(g, "v2") == {"v2"}
    assert reaches(g, "v0", "v2")
    assert not reaches(g, "v2", "v0")


def test_topological_order_on_line():
    g = line(4)
    assert topological_order(g) == ["v0", "v1", "v2", "v3"]
    with pytest.raises(CyclicGraphError):
        topological_order(single_loop())


@settings(max_examples=60)
@given(graphs(acyclic=True))
def test_topological_order_property(g):
    order = topological_order(g)
    assert sorted(order) == sorted(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    for b in g.bundles:
        assert pos[b.src] < pos[b.dst]


def test_has_cycle():
    assert not has_cycle(line(3))
    assert has_cycle(single_loop())
    assert has_cycle(graph_of(2, [("v0", "v1"), ("v1", "v0")]))


def test_sccs():
    assert sorted(map(sorted, strongly_connected_components(line(3)))) == \
        [["v0"], ["v1"], ["v2"]]
    comps = strongly_connected_components(disjoint_loops())
    assert sorted(map(sorted, comps)) == [["a"], ["b"]]
    g = graph_of(3, [("v0", "v1"), ("v1", "v0"), ("v1", "v2")])
    comps = strongly_connected_components(g)
    assert sorted(map(sorted, comps)) == [["v0", "v1"], ["v2"]]


# --- cycle structure and condition (L) ------------------------------------------


def test_cycle_report_acyclic():
    rep = cycles_and_condition_l(line(3))
    assert not rep.has_cycle and rep.condition_l and rep.witness is None


def test_cycle_report_exitless_loop():
    rep = cycles_and_condition_l(single_loop())
    assert rep.has_cycle and not rep.condition_l
    assert rep.witness is not None
    assert rep.witness.edges == ("l",)
    rep.witness.validate(single_loop())


def test_cycle_report_two_cycle_without_exit():
    g = graph_of(2, [("v0", "v1"), ("v1", "v0")])
    rep = cycles_and_condition_l(g)
    assert not rep.condition_l
    w = rep.witness
    assert w.source == w.target and len(w) == 2


def test_cycle_report_rose_has_exits():
    # each loop is an exit for the other
    rep = cycles_and_condition_l(rose(2))
    assert rep.has_cycle and rep.condition_l and rep.witness is None


def test_cycle_report_chord_exit():
    g = graph_of(3, [("v0", "v1"), ("v1", "v0"), ("v0", "v2")])
    rep = cycles_and_condition_l(g)
    assert rep.has_cycle and rep.condition_l


def test_cycle_report_infinite_bundle_loop():
    g = Graph(["u"], [EdgeBundle("l", "u", "u", ALEPH0)])
    rep = cycles_and_condition_l(g)
    assert rep.has_cycle


# --- cofinality -------------------------------------------------------------------


def test_cofinal_fixed_cases():
    assert cofinal(g1()).cofinal
    # no infinite tails in an acyclic graph, so nothing to block on
    assert cofinal(two_sinks()).cofinal
    assert cofinal(single_loop()).cofinal
    assert not cofinal(disjoint_loops()).cofinal


def test_cofinal_witness_is_checkable():
    res = cofinal(disjoint_loops())
    assert isinstance(res, CofinalityResult)
    v, lasso = res.witness
    # the blocked vertex really cannot reach the lasso's vertices
    g = disjoint_loops()
    assert not any(reaches(g, v, w) for w in lasso.visited_vertices())


def test_cofinal_matches_brute_on_exhaustive_universe():
    for n, arcs in helpers.digraph_universe():
        g = graph_of(n, arcs)
        assert cofinal(g).cofinal == helpers.brute_cofinal(g), (n, arcs)


@settings(max_examples=80)
@given(graphs())
def test_cofinal_matches_brute_random(g):
    assert cofinal(g).cofinal == helpers.brute_cofinal(g)


# --- staged families ----------------------------------------------------------------


def test_ladder_stages_monotone_and_checked():
    sg = ladder_family(2)
    g3 = sg.stage(3)
    assert sg.stage(2).is_subgraph_of(g3)
    assert sg.spine_prefix(3) == ("w_1", "w_2", "w_3")


def test_stage_negative_index():
    with pytest.raises(StageError):
        ladder_family(2).stage(-1)


def test_staged_monotone_violation():
    def build(n):
        return line(n + 1) if n != 2 else rose(1)

    sg = StagedGraph("broken", build)
    sg.stage(1)
    with pytest.raises(StageError):
        sg.stage(2)


def test_staged_constancy_violation():
    sg = StagedGraph("not-constant", lambda n: line(n + 1), constant=True)
    with pytest.raises(StageError):
        sg.stage(1)


def test_staged_acyclic_claim_violation():
    def build(n):
        vs = ["u"] + [f"v{i}" for i in range(n + 1)]
        bs = [EdgeBundle("l", "u", "u")] + \
            [EdgeBundle(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n)]
        return Graph(vs, bs)

    sg = StagedGraph("loopy", build, UniformProfile(acyclic_stages=True))
    with pytest.raises(StageError):
        sg.stage(0)


def test_staged_min_out_degree_violation():
    # v0 settles as a sink, contradicting the claimed out-degree
    def build(n):
        vs = [f"v{i}" for i in range(n + 1)]
        bs = [EdgeBundle(f"e{i}", f"v{i + 1}", f"v{i}") for i in range(n)]
        return Graph(vs, bs)

    sg = StagedGraph("starved", build, UniformProfile(min_out_degree=1))
    with pytest.raises(StageError):
        sg.stage(2)


def test_staged_spine_join_violation():
    def build(n):
        vs = [f"w_{i}" for i in range(1, n + 2)]
        return Graph(vs, [])  # spine vertices never joined

    prof = UniformProfile(spine=lambda i: f"w_{i}")
    sg = StagedGraph("split-spine", build, prof)
    sg.stage(0)  # single spine vertex, nothing to join yet
    with pytest.raises(StageError):
        sg.stage(1)


def test_staged_spine_exclusive_violation():
    # ladder rungs are parallel, so the spine is not exclusive
    def build(n):
        return ladder_family(2).stage(n)

    prof = UniformProfile(spine=lambda i: f"w_{i}", spine_exclusive=True)
    sg = StagedGraph("fat-spine", build, prof)
    with pytest.raises(StageError):
        sg.stage(2)  # the first stage with a consecutive spine pair


def test_spine_prefix_without_profile():
    sg = StagedGraph("bare", lambda n: line(n + 1))
    assert sg.spine_prefix(3) == ()
