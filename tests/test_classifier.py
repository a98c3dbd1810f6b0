# Row classes, simplicity (two routes), ladders, dichotomy, and the verdict.

import json
import pathlib
import sys

import hypothesis
import pytest
from hypothesis import given, settings

from graphck import (
    ALEPH0,
    BoundExceededError,
    CyclicGraphError,
    DichotomyTag,
    EdgeBundle,
    EmptyGraphError,
    Graph,
    InfiniteBundleError,
    RowClass,
    StagedGraph,
    UNCOUNTABLE,
    UniformProfile,
    VerdictTag,
    build_graph,
    dichotomy,
    finite,
    forbidden_ladder_family,
    is_af,
    is_simple,
    ladder_family,
    ladder_length,
    naimark_verdict,
    ray_family,
    rose_family,
    row_class,
    aleph0_rose_family,
    uncountable_rose_family,
)
from graphck import classifier, graph_model
from graphck.cli_io import load_graph_file, run_command
from graphck.families import builtin_family

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

ROOT = pathlib.Path(__file__).resolve().parent.parent


# --- row classes -----------------------------------------------------------------


def test_row_class_fixed_cases():
    assert row_class(g1()) is RowClass.ROW_FINITE
    assert row_class(rose(3)) is RowClass.ROW_FINITE
    aleph = Graph(["v", "w"], [EdgeBundle("e", "v", "w", ALEPH0)])
    assert row_class(aleph) is RowClass.ROW_COUNTABLE_NOT_FINITE
    unc = Graph(["v", "w"], [EdgeBundle("e", "v", "w", UNCOUNTABLE),
                             EdgeBundle("f", "v", "w", ALEPH0)])
    assert row_class(unc) is RowClass.HAS_UNCOUNTABLE_EMITTER


def test_is_af():
    assert is_af(g1())
    assert is_af(line(5))
    assert not is_af(single_loop())
    assert not is_af(rose(2))


# --- simplicity -------------------------------------------------------------------


def test_simple_fixed_cases():
    assert is_simple(g1()).simple
    assert is_simple(rose(2)).simple
    assert is_simple(line(4)).simple
    assert not is_simple(two_sinks()).simple
    assert not is_simple(single_loop()).simple
    assert not is_simple(disjoint_loops()).simple


def test_simple_raises_on_empty_graph():
    with pytest.raises(EmptyGraphError):
        is_simple(Graph([], []))


def test_witness_exitless_cycle():
    res = is_simple(single_loop())
    assert res.witness.kind == "exitless-cycle"
    assert res.witness.describe() == "exitless cycle l"
    assert not res.condition_l


def test_witness_unreached_cycle():
    # rose with two loops satisfies condition (L); a stranded sink breaks
    # cofinality, producing the unreached-cycle witness
    g = build_graph(["u", "z"], [EdgeBundle("l_1", "u", "u"),
                                 EdgeBundle("l_2", "u", "u")])
    res = is_simple(g)
    assert res.condition_l and not res.cofinal
    assert res.witness.kind == "unreached-cycle"
    assert res.witness.vertex == "z"
    assert "cannot reach the cycle" in res.witness.describe()


def test_witness_saturated_set():
    res = is_simple(two_sinks())
    assert res.witness.kind == "saturated-hereditary-set"
    assert res.witness.vertex_set in ({"w_1"}, {"w_2"})
    assert res.witness.describe().startswith(
        "proper nontrivial saturated hereditary set {")


def test_both_routes_filled_on_small_graphs():
    res = is_simple(g1())
    assert res.route2 == res.route3 is True
    assert res.lattice_trivial


def test_routes_agree_exhaustively():
    for n, arcs in helpers.digraph_universe():
        g = graph_of(n, arcs)
        res = is_simple(g)
        assert res.route2 == res.route3, (n, arcs)


def _refuse_in_graphck(monkeypatch, name):
    """Make every graphck binding of ``name`` raise when called."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "graphck" or mod_name.startswith("graphck.")) \
                and hasattr(mod, name):
            monkeypatch.setattr(mod, name, refuse)


def test_is_simple_never_enumerates_the_lattice(monkeypatch):
    _refuse_in_graphck(monkeypatch, "enumerate_saturated_hereditary")
    for g in (g1(), two_sinks(), diamond(), disjoint_loops(),
              Graph([f"v{i}" for i in range(16)], [])):
        res = is_simple(g)
        assert res.route2 == res.route3
    assert is_simple(two_sinks()).witness.vertex_set == {"w_1"}


@settings(max_examples=120)
@given(graphs())
def test_routes_agree_random(g):
    if not g.vertices:
        return
    res = is_simple(g)
    assert res.route2 == res.route3


@settings(max_examples=300)
@given(graphs(max_vertices=7, max_bundles=10, infinite_ok=True))
def test_reaches_all_singular_matches_per_singular_oracle(g):
    assert is_simple(g).reaches_all_singular == \
        helpers.brute_reaches_all_singular(g)


def _assert_matches_the_traversal_route(g, where):
    got, want = is_simple(g), helpers.traversal_simplicity(g)
    assert got._asdict() == want._asdict(), where
    if want.witness is not None:
        assert got.witness.describe() == want.witness.describe(), where


def test_one_walk_matches_the_traversal_route_on_the_universe():
    for n, arcs in helpers.digraph_universe():
        _assert_matches_the_traversal_route(graph_of(n, arcs), (n, arcs))


@hypothesis.seed(26)
@settings(max_examples=400, deadline=None)
@given(graphs(max_vertices=7, max_bundles=10, infinite_ok=True))
def test_one_walk_matches_the_traversal_route_on_random_graphs(g):
    _assert_matches_the_traversal_route(g, g.bundles)


BUILTIN_FAMILIES = ("ladder1", "ladder2", "ladder3", "ray",
                    "forbidden_ladder", "forbidden_ladder_1_3",
                    "forbidden_ladder_2_3", "rose2", "rose3", "aleph0_rose",
                    "uncountable_rose")


def test_one_walk_matches_the_traversal_route_on_family_stages_and_scripts():
    for name in BUILTIN_FAMILIES:
        sg = builtin_family(name)
        for n in range(13):
            g = sg.stage(n)
            if g.vertices:
                _assert_matches_the_traversal_route(g, (name, n))
    docs = sorted((ROOT / "scripts" / "graphs").glob("*.json"))
    assert docs
    for path in docs:
        _assert_matches_the_traversal_route(load_graph_file(str(path)), path)


def test_route2_decides_an_aleph0_cycle_without_a_search(monkeypatch):
    # a 50-cycle of aleph0 bundles: every vertex is singular, and the one
    # component is the bottom one, so no reachability search is needed
    vs = [f"c{i}" for i in range(50)]
    g = build_graph(vs, [EdgeBundle(f"e{i}", v, vs[(i + 1) % 50], ALEPH0)
                         for i, v in enumerate(vs)])
    for name in ("traverse", "cofinal", "reachable_set", "_reaching_set"):
        _refuse_in_graphck(monkeypatch, name)
    res = is_simple(g)
    assert res.simple and res.cofinal and res.reaches_all_singular


def test_a_batch_runs_tarjan_once_per_document(monkeypatch, tmp_path):
    # cofinal's searches run only to word an unreached-cycle witness
    stranded = tmp_path / "stranded.json"
    stranded.write_text(json.dumps(
        {"vertices": ["u", "z"],
         "edges": [{"id": "l_1", "src": "u", "dst": "u"},
                   {"id": "l_2", "src": "u", "dst": "u"}]}))
    tarjan_runs, cofinal_graphs = [], []
    scc, cof = graph_model.strongly_connected_components, graph_model.cofinal

    def counted_scc(g):
        if g._components is None:
            tarjan_runs.append(g)
        return scc(g)

    def counted_cofinal(g):
        cofinal_graphs.append(g)
        return cof(g)

    for name, mod in list(sys.modules.items()):
        if name == "graphck" or name.startswith("graphck."):
            for attr, fn in (("strongly_connected_components", counted_scc),
                             ("cofinal", counted_cofinal)):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, fn)
    scripts = ROOT / "scripts" / "graphs"
    docs = len(list(scripts.glob("*.json"))) + 1
    code, text = run_command(["classify", "--batch", str(scripts),
                              str(stranded), "--json"])
    assert code == 0, text
    reports = json.loads(text)
    assert len(reports) == docs == len(tarjan_runs)
    assert len({id(g) for g in tarjan_runs}) == docs
    unreached = [r for r in reports
                 if "cannot reach the cycle" in r["claims"][0]["text"]]
    assert [r["subject"] for r in unreached] == [str(stranded)]
    assert [g.vertices for g in cofinal_graphs] == [("u", "z")]


def test_simplicity_with_unreached_sink():
    # v -> w plus an isolated sink z: z unreachable, so not simple
    g = build_graph(["v", "w", "z"], [EdgeBundle("e", "v", "w")])
    res = is_simple(g)
    assert not res.simple
    assert not res.reaches_all_singular


# --- doubled-path ladder length -----------------------------------------------------


def test_ladder_length_fixed():
    assert ladder_length(g1()) == 0
    assert ladder_length(line(5)) == 0
    assert ladder_length(diamond()) == 1
    # parallel bundle of two edges doubles immediately
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(2))])
    assert ladder_length(g) == 1


def test_ladder_length_of_ladder_stages():
    for n in range(2, 11):
        g = ladder_family(2).stage(n)
        assert ladder_length(g) == n - 1


def test_ladder_length_forbidden_ladder_stage():
    # two distinct paths join consecutive spine vertices, so every rung doubles
    g = forbidden_ladder_family(1, 2).stage(4)
    assert ladder_length(g) == 3


def test_ladder_length_errors():
    with pytest.raises(CyclicGraphError):
        ladder_length(single_loop())
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", ALEPH0)])
    with pytest.raises(InfiniteBundleError):
        ladder_length(g)


def test_ladder_length_work_is_admitted_before_the_walk(monkeypatch):
    g = ladder_family(2).stage(5)  # 5 vertices, 8 bundles: 5 * 13 steps
    monkeypatch.setattr(classifier, "LADDER_WORK_BOUND", 65)
    assert ladder_length(g) == 4
    monkeypatch.setattr(classifier, "LADDER_WORK_BOUND", 64)
    with pytest.raises(BoundExceededError, match="more than 64 steps"):
        ladder_length(g)


def test_ladder_length_matches_brute():
    for n, arcs in helpers.acyclic_universe(4, 5):
        g = graph_of(n, arcs)
        assert ladder_length(g) == helpers.brute_ladder_length(g), (n, arcs)


def test_ladder_length_matches_brute_with_multiplicities():
    import random
    rng = random.Random(7)
    for _ in range(300):
        g = helpers.random_graph(rng, max_vertices=6, max_bundles=8,
                                 infinite_ok=False)
        try:
            want = helpers.brute_ladder_length(g)
        except CyclicGraphError:
            with pytest.raises(CyclicGraphError):
                ladder_length(g)
            continue
        assert ladder_length(g) == want


# --- dichotomy ----------------------------------------------------------------------


def test_dichotomy_finite_cases():
    res = dichotomy(g1())
    assert res.tag is DichotomyTag.CASE_I and res.sink == "w"
    assert dichotomy(two_sinks()).tag is DichotomyTag.NEITHER
    with pytest.raises(CyclicGraphError):
        dichotomy(single_loop())


def test_dichotomy_ray():
    res = dichotomy(ray_family(), depth=10)
    assert res.tag is DichotomyTag.CASE_II
    assert res.tail_vertices == tuple(f"v_{i}" for i in range(1, 11))
    assert res.tail_edges == tuple(f"e_{i}" for i in range(1, 10))


def test_dichotomy_ladder_neither():
    res = dichotomy(ladder_family(2), depth=6)
    assert res.tag is DichotomyTag.NEITHER
    assert "no sinks" in res.reason


def test_dichotomy_without_certificate_is_honest():
    res = dichotomy(forbidden_ladder_family(2, 2), depth=4)
    assert res.tag is DichotomyTag.NEITHER_THROUGH_DEPTH
    assert res.depth == 4


def test_dichotomy_constant_family_goes_finite():
    with pytest.raises(CyclicGraphError):
        dichotomy(rose_family(2), depth=3)


# --- the verdict ---------------------------------------------------------------------


def test_verdict_not_simple():
    v = naimark_verdict(two_sinks())
    assert v.tag is VerdictTag.NOT_SIMPLE
    assert v.witness is not None
    assert "unique-irrep-implies-simple" in v.citations


def test_verdict_multiple_irreps_on_cycles():
    v = naimark_verdict(rose(2))
    assert v.tag is VerdictTag.MULTIPLE_IRREPS
    assert "af-iff-acyclic" in v.citations


def test_verdict_aleph0_rose():
    v = naimark_verdict(aleph0_rose_family(), depth=2)
    assert v.tag is VerdictTag.MULTIPLE_IRREPS
    assert "RowCountableNotFinite" in v.reason


def test_verdict_uncountable_rose_is_open():
    v = naimark_verdict(uncountable_rose_family(), depth=2)
    assert v.tag is VerdictTag.OPEN_PURELY_INFINITE


def test_verdict_finite_dimension():
    v = naimark_verdict(g1())
    assert v.tag is VerdictTag.UNIQUE_IRREP_COMPACTS
    assert v.dimension == 2
    assert v.headline() == "UniqueIrrepCompacts dim=2"

    v3 = naimark_verdict(line(3))
    assert v3.dimension == 3

    v1 = naimark_verdict(Graph(["v"], []))
    assert v1.dimension == 1


def test_verdict_empty_graph():
    with pytest.raises(EmptyGraphError):
        naimark_verdict(Graph([], []))


def test_verdict_ray_is_countably_infinite_compacts():
    v = naimark_verdict(ray_family(), depth=8)
    assert v.tag is VerdictTag.UNIQUE_IRREP_COMPACTS
    assert v.countably_infinite and v.dimension is None
    assert v.headline() == "UniqueIrrepCompacts dim=countably-infinite"


def test_verdict_ladder_staged():
    v = naimark_verdict(ladder_family(2), depth=6)
    assert v.tag is VerdictTag.MULTIPLE_IRREPS
    assert "forbidden-doubled-ladder" in v.citations


def test_verdict_unknown_without_certificates():
    v = naimark_verdict(forbidden_ladder_family(2, 2), depth=5)
    assert v.tag is VerdictTag.UNKNOWN_AT_DEPTH
    assert v.depth == 5
    assert v.headline() == "UnknownAtDepth(5)"


def test_verdict_profileless_staged_is_honest():
    sg = StagedGraph("mystery", helpers.line_delta,
                     helpers.size_of(helpers.line_delta))
    v = naimark_verdict(sg, depth=4)
    assert v.tag is VerdictTag.UNKNOWN_AT_DEPTH


def test_verdict_exclusive_tail_needs_stage_simplicity():
    # two parallel rays; the profile certifies the v-spine but stages are
    # disconnected, so no certificate should be honored
    def delta(k):
        vs = [f"v_{k + 1}", f"u_{k + 1}"]
        if k == 0:
            return vs, []
        return vs, [EdgeBundle(f"e_{k}", f"v_{k}", f"v_{k + 1}"),
                    EdgeBundle(f"f_{k}", f"u_{k}", f"u_{k + 1}")]

    prof = UniformProfile(min_out_degree=1, spine=lambda i: f"v_{i}",
                          spine_exclusive=True, acyclic_stages=True)
    sg = StagedGraph("two-rays", delta, helpers.size_of(delta), prof)
    v = naimark_verdict(sg, depth=5)
    assert v.tag is VerdictTag.UNKNOWN_AT_DEPTH


def test_verdict_headline_plain_tags():
    assert naimark_verdict(two_sinks()).headline() == "NotSimple"
    assert naimark_verdict(rose(2)).headline() == "MultipleIrreps"


# --- exhaustive acyclic coherence ------------------------------------------------------


def test_acyclic_simple_implies_single_sink():
    from graphck import sinks
    for n, arcs in helpers.acyclic_universe(4, 5):
        g = graph_of(n, arcs)
        if is_simple(g).simple:
            assert len(sinks(g)) == 1, (n, arcs)
            assert dichotomy(g).tag is DichotomyTag.CASE_I
