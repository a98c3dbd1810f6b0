# Core graph container, paths, traversals, staged families.

import pytest
from hypothesis import example, given, settings

from graphck import (
    ALEPH0,
    UNCOUNTABLE,
    BoundExceededError,
    Cardinality,
    CofinalityResult,
    CyclicGraphError,
    EdgeBundle,
    Graph,
    GraphBuildError,
    InfiniteBundleError,
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
    representative_edge_id,
    sinks,
    singular_vertices,
    regular_vertices,
    strongly_connected_components,
    topological_order,
)

from graphck import graph_model
from graphck.families import builtin_family

import helpers
from helpers import (
    diamond,
    disjoint_loops,
    g1,
    graph_of,
    graphs,
    line,
    line_delta,
    reaches,
    rose,
    single_loop,
    size_of,
    two_sinks,
    validate_path,
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


@pytest.mark.parametrize("text", [
    "finite: 2", "finite:1_0", "finite:\u0663", "finite:+3", "finite:2 ",
    "finite:-1", "finite:\uff13", "finite:2\n", "finite:\u00b2", "finite:",
    "finite:" + "9" * 5000,
])
def test_finite_counts_are_ascii_decimal_digits(text):
    # int() would read the first seven as 2, 10, 3, 3, 2, -1 and 3
    with pytest.raises(GraphBuildError) as ei:
        Cardinality.parse(text)
    assert str(ei.value) == f"bad finite cardinality {text!r}"


def test_finite_counts_read_every_ascii_decimal_count():
    assert Cardinality.parse("finite:007") == finite(7)
    assert Cardinality.parse("finite:12") == finite(12)
    with pytest.raises(GraphBuildError) as ei:
        Cardinality.parse("finite:0")
    assert str(ei.value) == "finite bundle cardinality must be >= 1"


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
    assert all((e.src, e.dst) == ("v", "w") for e in g.finite_edges())


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
    for eid in ("a", "b#0", "b#1", "c#0"):
        e = g.resolve_edge(eid)
        assert (e.id, e.src, e.dst) == (eid, "v", "w")
    # infinite bundles have no slot bound
    assert g.resolve_edge("c#905").id == "c#905"
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
    assert sinks(g) == ["s"]
    assert singular_vertices(g) == ["s", "i"]  # graph order
    assert regular_vertices(g) == ["r"]


def test_sinks_and_regular_vertices_are_cached():
    g = Graph(["s", "r", "i"], [EdgeBundle("e", "r", "s", finite(2)),
                                EdgeBundle("f", "i", "s", ALEPH0)])
    assert g._kinds is None
    assert (sinks(g), regular_vertices(g)) == (["s"], ["r"])
    kinds = g._kinds
    assert kinds == (("s",), ("r",))
    # later calls read the cache, and each hands out its own list
    sinks(g).append("x")
    regular_vertices(g).clear()
    assert (sinks(g), regular_vertices(g)) == (["s"], ["r"])
    assert g._kinds is kinds


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
    assert p.label() == "e0.e1"
    with pytest.raises(GraphBuildError):
        Path.from_edges(g, [])
    with pytest.raises(GraphBuildError):
        Path.from_edges(g, ["e1", "e0"])  # doesn't compose


def test_path_is_a_value():
    p, q = Path("v0", "v2", ("e0", "e1")), Path("v0", "v2", ("e0", "e1"))
    assert p == q and not p != q and hash(p) == hash(q)
    assert {p: 1}[q] == 1 and len({p, q}) == 1
    for other in (Path("v1", "v2", ("e0", "e1")), Path("v0", "v1", ("e0", "e1")),
                  Path("v0", "v2", ("e0",))):
        assert p != other and not p == other
    # not equal to the tuple of its fields, nor to anything but a Path
    assert p != ("v0", "v2", ("e0", "e1")) and p != "e0.e1" and p != None  # noqa: E711
    assert repr(p) == "Path(source='v0', target='v2', edges=('e0', 'e1'))"
    assert repr(Path("v", "v", ())) == "Path(source='v', target='v', edges=())"
    assert (p.source, p.target, p.edges, len(p)) == ("v0", "v2", ("e0", "e1"), 2)


def test_path_validate_catches_forged_paths():
    g = line(3)
    good = Path.from_edges(g, ["e0"])
    validate_path(g, good)
    forged = Path("v0", "v2", ("e0",))
    with pytest.raises(GraphBuildError):
        validate_path(g, forged)


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


def test_enumerate_paths_vertex_trails():
    # each trail equals the one rebuilt from the edge ids
    multi = Graph(["a", "b", "c"], [EdgeBundle("x", "a", "b", finite(2)),
                                    EdgeBundle("y", "b", "c", finite(3))])
    for g, ps in ((diamond(), enumerate_paths(diamond())),
                  (multi, enumerate_paths(multi)),
                  (rose(2), enumerate_paths(rose(2), max_len=3))):
        for p in ps:
            validate_path(g, p)


@settings(max_examples=100)
@given(graphs(acyclic=True))
@example(g1())
@example(two_sinks())
@example(line(4))
@example(diamond())
@example(ladder_family(2).stage(3))
def test_count_paths_matches_enumeration(g):
    # fixed graphs plus acyclic multigraphs with finite:n bundles
    by_end = count_paths_ending(g)
    for v in g.vertices:
        assert by_end[v] == len(enumerate_paths(g, end_at=v))
    everything = enumerate_paths(g)
    for base in g.vertices:
        from_base = count_paths_from(g, base)
        for v in g.vertices:
            want = sum(1 for p in everything
                       if p.source == base and p.target == v)
            assert from_base[v] == want


def test_count_paths_multiplicity():
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(3))])
    assert count_paths_from(g, "v") == {"v": 1, "w": 3}
    assert count_paths_ending(g) == {"v": 1, "w": 4}


def test_count_paths_refuse_only_reached_infinite_bundles():
    g = Graph(["u", "v", "w"], [EdgeBundle("e", "v", "w", finite(3)),
                                EdgeBundle("f", "u", "w", ALEPH0)])
    assert count_paths_from(g, "v") == {"u": 0, "v": 1, "w": 3}
    with pytest.raises(InfiniteBundleError):
        count_paths_from(g, "u")
    with pytest.raises(InfiniteBundleError):
        count_paths_ending(g)


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
@given(graphs(acyclic=True, infinite_ok=True))
def test_topological_order_property(g):
    # parallel, finite:n and infinite bundles included
    order = topological_order(g)
    assert sorted(order) == sorted(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    for b in g.bundles:
        assert pos[b.src] < pos[b.dst]


def test_has_cycle():
    assert not has_cycle(line(3))
    assert has_cycle(single_loop())
    assert has_cycle(graph_of(2, [("v0", "v1"), ("v1", "v0")]))


@settings(max_examples=150)
@given(graphs(max_vertices=5, max_bundles=8, infinite_ok=True))
def test_has_cycle_matches_topological_order(g):
    # self-loops, parallel bundles and infinite bundles included; Kahn's
    # algorithm is the independent oracle for the Tarjan-based answer
    try:
        helpers.kahn_order(g)
    except CyclicGraphError:
        assert has_cycle(g)
    else:
        assert not has_cycle(g)


def test_sccs():
    assert sorted(map(sorted, strongly_connected_components(line(3)))) == \
        [["v0"], ["v1"], ["v2"]]
    comps = strongly_connected_components(disjoint_loops())
    assert sorted(map(sorted, comps)) == [["a"], ["b"]]
    g = graph_of(3, [("v0", "v1"), ("v1", "v0"), ("v1", "v2")])
    comps = strongly_connected_components(g)
    assert sorted(map(sorted, comps)) == [["v0", "v1"], ["v2"]]
    # computed once per graph, in a shape no caller can change
    assert strongly_connected_components(g) is comps
    assert all(isinstance(c, tuple) for c in (comps, *comps))


# --- cycle structure and condition (L) ------------------------------------------


def test_cycle_report_acyclic():
    rep = cycles_and_condition_l(line(3))
    assert not rep.has_cycle and rep.condition_l and rep.witness is None


def test_cycle_report_exitless_loop():
    rep = cycles_and_condition_l(single_loop())
    assert rep.has_cycle and not rep.condition_l
    assert rep.witness is not None
    assert rep.witness.edges == ("l",)
    validate_path(single_loop(), rep.witness)


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


def assert_unreached_cycle(g, witness):
    """The witness's cycle lives in ``g``, has an edge, closes up, and the
    blocked vertex reaches none of its vertices."""
    v, cycle = witness
    validate_path(g, cycle)
    assert len(cycle) >= 1 and cycle.source == cycle.target
    assert not any(reaches(g, v, g.resolve_edge(e).src) for e in cycle.edges)


def test_cofinal_witness_is_checkable():
    g = disjoint_loops()
    res = cofinal(g)
    assert isinstance(res, CofinalityResult)
    assert_unreached_cycle(g, res.witness)


def test_cofinal_matches_brute_on_exhaustive_universe():
    for n, arcs in helpers.digraph_universe():
        g = graph_of(n, arcs)
        assert cofinal(g).cofinal == helpers.brute_cofinal(g), (n, arcs)


@settings(max_examples=80)
@given(graphs())
@example(graph_of(3, (("v0", "v1"), ("v1", "v0"))))  # a two-edge witness
def test_cofinal_matches_brute_random(g):
    res = cofinal(g)
    assert res.cofinal == helpers.brute_cofinal(g)
    if not res.cofinal:
        assert_unreached_cycle(g, res.witness)


# --- staged families ----------------------------------------------------------------


def test_ladder_stages_monotone_and_checked():
    sg = ladder_family(2)
    g3 = sg.stage(3)
    assert sg.stage(2).is_subgraph_of(g3)
    assert sg.spine_prefix(3) == ("w_1", "w_2", "w_3")


@pytest.mark.parametrize("name", sorted(helpers.STAGE_ORACLES))
def test_staged_families_match_the_from_scratch_builders(name):
    build = helpers.STAGE_ORACLES[name]
    sg = builtin_family(name)
    spine = sg.profile.spine
    for n in range(31):
        g = build(n)
        assert sg.stage(n) == g, (name, n)
        want = []
        while spine is not None and spine(len(want) + 1) in g.vertex_set:
            want.append(spine(len(want) + 1))
        assert sg.spine_prefix(n) == tuple(want), (name, n)
    assert sg.stage(30) is sg.stage(30)  # the last stage built is kept
    assert sg.stage(7) == build(7)  # an earlier one is rebuilt from the prefixes


@pytest.mark.parametrize("name", sorted(helpers.STAGE_ORACLES))
def test_delta_size_counts_the_delta(name):
    # a delta's size is the difference of two closed-form stage sizes
    sg = builtin_family(name)
    total = 0
    for n in range(61):
        vertices, bundles = sg.delta(n)
        total += len(vertices) + len(bundles)
        assert sg.stage_size(n) == total, (name, n)


@pytest.mark.parametrize("name", sorted(helpers.STAGE_ORACLES))
def test_steps_match_the_eager_plain_order(name):
    # the plain orders are worked out when a step is read; appending each
    # delta used to work them out at once
    sg = builtin_family(name)
    sg.grow(60)
    want = helpers.eager_plain_orders(sg.delta, 60)
    assert None not in want
    assert [sg.step(n).bundles for n in range(61)] == want


@pytest.mark.parametrize("extra", [
    (["v_1"], []),                                            # re-added vertex
    (["u", "u"], []),                                         # repeated vertex
    ([], [EdgeBundle("x", "v_3", "v_1")]),                    # lands on v_1
    ([], [EdgeBundle("x", "v_2", "v_3", ALEPH0)]),
    (["u"], [EdgeBundle("x", "u", "v_3"), EdgeBundle("y", "v_3", "u")]),
    ([], [EdgeBundle("x", "v_3", "v_3")]),                    # loop
    ([], [EdgeBundle("e_1", "v_2", "v_3")]),                  # re-used id
    (["u"], [EdgeBundle("x", "v_2", "u"), EdgeBundle("x", "v_2", "v_3")]),
    ([], [EdgeBundle("x", "ghost", "v_3")]),                  # unknown source
], ids=["re-added", "repeated-vertex", "older-range", "infinite", "cycle",
        "loop", "re-used-id", "repeated-id", "unknown-source"])
def test_tampered_deltas_are_not_plain(extra):
    # the ray with extra vertices and bundles in delta 3
    delta = helpers.ray_plus({3: extra})
    sg = StagedGraph("tampered", delta, size_of(delta))
    sg.grow(6)
    want = helpers.eager_plain_orders(delta, 6)
    assert want[3] is None
    assert [sg.step(n).bundles for n in range(7)] == want


def _assert_stage_like_fresh(g):
    """``g``'s cached acyclicity, order and components agree with a fresh
    graph on the same vertices and bundles."""
    fresh = Graph(g.vertices, g.bundles)
    assert has_cycle(g) == has_cycle(fresh)
    comps = strongly_connected_components(g)
    assert sorted(map(sorted, comps)) == sorted(
        map(sorted, strongly_connected_components(fresh)))
    where = {v: i for i, c in enumerate(comps) for v in c}
    # each component after every component it reaches
    assert all(where[b.src] >= where[b.dst] for b in g.bundles)
    if not has_cycle(fresh):
        order = topological_order(g)
        assert sorted(order) == sorted(g.vertices)
        place = {v: i for i, v in enumerate(order)}
        assert all(place[b.src] < place[b.dst] for b in g.bundles)


@pytest.mark.parametrize("name", sorted(helpers.STAGE_ORACLES))
def test_built_stages_agree_with_a_fresh_graph(name, monkeypatch):
    # the ladders and the ray list every rung's range after its source, so
    # their stages carry that listing as their order and run no search; a
    # forbidden ladder lists v_k before the rung path's middle vertices
    searched = []
    tarjan = graph_model.strongly_connected_components
    monkeypatch.setattr(graph_model, "strongly_connected_components",
                        lambda g: searched.append(g) or tarjan(g))
    sg = builtin_family(name)
    for n in range(61):
        searched.clear()
        g = sg.stage(n)
        assert bool(searched) == (n >= 2 and name.startswith("forbidden")), n
        _assert_stage_like_fresh(g)


@settings(max_examples=60, deadline=None)
@given(helpers.mixed_deltas())
def test_mixed_stages_agree_with_a_fresh_graph(deltas):
    def delta(k):
        return deltas[k]

    sg = StagedGraph("mixed", delta, size_of(delta))
    want = helpers.eager_plain_orders(delta, len(deltas) - 1)
    for n in range(len(deltas)):
        g = sg.stage(n)
        assert sg.step(n).bundles == want[n]
        _assert_stage_like_fresh(g)


def test_delta_that_disagrees_with_its_size_is_refused():
    sg = StagedGraph("miscounted", line_delta, lambda n: n + 1)  # 1 a delta
    sg.stage(0)
    with pytest.raises(StageError, match="miscounted: delta 1 holds 2 vertices "
                                         "and bundles, not the 1 its size "
                                         "function gives"):
        sg.stage(1)


def test_a_refused_delta_leaves_the_family_unchanged():
    # the profile checks run before the delta is appended, so asking again
    # meets the same refusal instead of a half-applied delta
    sg = StagedGraph("line", line_delta, size_of(line_delta),
                     UniformProfile(min_out_degree=2))
    for _ in range(2):
        with pytest.raises(StageError) as ei:
            sg.stage(3)
        assert str(ei.value) == ("line: vertex 'v0' settled with out-degree "
                                 "1 < 2 at stage 1")
    assert sg.stage(0).vertices == ("v0",)


def test_stage_negative_index():
    with pytest.raises(StageError):
        ladder_family(2).stage(-1)


@pytest.mark.parametrize("again, message", [
    ((["v0"], []), "duplicate vertex id"),
    ((["x"], [EdgeBundle("e0", "x", "v1")]), "duplicate bundle id 'e0'"),
    (([], [EdgeBundle("e", "v0", "nowhere")]), "unknown dst 'nowhere'"),
], ids=["vertex", "bundle", "dangling"])
def test_delta_that_re_adds_an_id_or_dangles_is_refused(again, message):
    def delta(k):
        return again if k == 2 else line_delta(k)

    sg = StagedGraph("broken", delta, size_of(delta))
    sg.stage(1)
    for n in (2, 5):  # the stage that adds it, and every later one
        with pytest.raises(GraphBuildError, match=message):
            sg.stage(n)


def test_fixed_family_is_its_graph_at_every_stage():
    g = rose(2)
    sg = StagedGraph.fixed("pair-of-loops", g)
    assert sg.constant
    for n in (0, 1, 7, 10 ** 8):
        assert sg.stage(n) is g
    with pytest.raises(StageError):
        sg.stage(-1)


def test_staged_acyclic_claim_violation():
    def delta(k):
        if k == 0:
            return ["u", "v0"], [EdgeBundle("l", "u", "u")]
        return [f"v{k}"], [EdgeBundle(f"e{k - 1}", f"v{k - 1}", f"v{k}")]

    sg = StagedGraph("loopy", delta, size_of(delta),
                     UniformProfile(acyclic_stages=True))
    with pytest.raises(StageError, match="stage 0 is cyclic"):
        sg.stage(0)
    # the cycle persists, so any later stage is refused as well
    with pytest.raises(StageError, match="stage 3 is cyclic"):
        sg.stage(3)


def test_staged_min_out_degree_violation():
    # v0 settles as a sink, contradicting the claimed out-degree
    def delta(k):
        return [f"v{k}"], [EdgeBundle(f"e{k - 1}", f"v{k}", f"v{k - 1}")] if k else []

    sg = StagedGraph("starved", delta, size_of(delta),
                     UniformProfile(min_out_degree=1))
    sg.stage(0)
    with pytest.raises(StageError, match="'v0' settled with out-degree 0 < 1 "
                                         "at stage 1"):
        sg.stage(2)


def test_staged_spine_join_violation():
    def delta(k):
        return [f"w_{k + 1}"], []  # spine vertices never joined

    prof = UniformProfile(spine=lambda i: f"w_{i}")
    sg = StagedGraph("split-spine", delta, size_of(delta), prof)
    sg.stage(0)  # single spine vertex, nothing to join yet
    with pytest.raises(StageError, match="'w_1'->'w_2' not joined at stage 1"):
        sg.stage(1)
    sg = StagedGraph("spineless", line_delta, size_of(line_delta), prof)  # never holds w_1
    sg.stage(0)
    with pytest.raises(StageError, match="stage 1 has no spine vertex"):
        sg.stage(1)


def test_staged_spine_exclusive_violation():
    # an exclusive spine vertex emits one single edge: parallel ladder
    # rungs, one finite:2 bundle and one aleph0 bundle each break that
    def spine_of(card):
        def delta(k):
            if k < 2:
                return [f"w_{k}"] if k else [], []
            return [f"w_{k}"], [EdgeBundle(f"e_{k - 1}", f"w_{k - 1}", f"w_{k}",
                                           card)]
        return delta

    prof = UniformProfile(spine=lambda i: f"w_{i}", spine_exclusive=True)
    assert StagedGraph("thin-spine", spine_of(finite(1)),
                       size_of(spine_of(finite(1))), prof).stage(3)
    for delta in (ladder_family(2).delta, spine_of(finite(2)),
                  spine_of(ALEPH0)):
        sg = StagedGraph("fat-spine", delta, size_of(delta), prof)
        with pytest.raises(StageError, match="'w_1' is not exclusive at stage 2"):
            sg.stage(2)  # the first stage with a consecutive spine pair


def test_staged_spine_exclusive_violation_after_settling():
    # w_1 settles at stage 2 with its one edge; a second edge out of it at
    # stage 3 breaks exclusivity there
    def delta(k):
        vs, bs = ladder_family(1).delta(k)
        return vs, bs + [EdgeBundle("x", "w_1", "w_3")] if k == 3 else bs

    prof = UniformProfile(spine=lambda i: f"w_{i}", spine_exclusive=True)
    sg = StagedGraph("late-branch", delta, size_of(delta), prof)
    assert sg.stage(2)
    with pytest.raises(StageError, match="'w_1' is not exclusive at stage 3"):
        sg.stage(3)


def test_stage_work_is_admitted_before_building(monkeypatch):
    monkeypatch.setattr(graph_model, "STAGE_WORK_BOUND", 20)
    message = "ladder2: stage graphs would hold more than 20 vertices and bundles"
    sg = ladder_family(2)
    sg.stage(7)  # 7 vertices and 12 bundles
    with pytest.raises(BoundExceededError, match=message):
        sg.stage(2)  # 2 vertices and 2 bundles over the 19 already built
    # a refusal makes no delta, and reads the one stage size it asks for
    made, sized, ladder = [], [], ladder_family(2)
    sg = StagedGraph("ladder2", lambda k: made.append(k) or ladder.delta(k),
                     lambda n: sized.append(n) or ladder.stage_size(n))
    with pytest.raises(BoundExceededError, match=message):
        sg.stage(10 ** 9)
    with pytest.raises(BoundExceededError, match=message):
        sg.admit(8)  # 8 vertices and 14 bundles
    assert (made, sized) == ([], [10 ** 9, 8])
    sg.admit(7)  # 7 vertices and 12 bundles fit
    assert StagedGraph.fixed("rose", rose(2)).stage(10 ** 9) == rose(2)


def test_spine_prefix_without_profile():
    sg = StagedGraph("bare", line_delta, size_of(line_delta))
    assert sg.spine_prefix(3) == ()
    assert sg.stage(3) == line(4)
