# Finite-dimensional matrix models and their exactly-verified relations.

import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphck import (
    ALEPH0,
    CyclicGraphError,
    EdgeBundle,
    Graph,
    InfiniteBundleError,
    InternalCheckError,
    IntMatrix,
    Path,
    RelativeSpec,
    RelativeSpecError,
    algebra_dimension,
    block_decomposition,
    build_ck_family,
    corner,
    emit_graph_document,
    enumerate_paths,
    export_model,
    finite,
    forbidden_ladder_family,
    gap_projections,
    ladder_family,
    ray_family,
    regular_vertices,
    run_command,
    sinks,
    terminal_vertices,
    verify_ck,
)

from graphck import ck_matrix, cli_io
from graphck.ck_matrix import MatrixRep

import helpers
from helpers import (
    diamond,
    fraction_rank,
    g1,
    graph_of,
    graphs,
    line,
    product_gap_projections,
    product_path_matrix,
    product_unit_vectors,
    product_verify_ck,
    rank_dimension,
    single_loop,
    two_sinks,
)


def all_specs(g):
    # every subset of the regular vertices
    regs = regular_vertices(g)
    for mask in range(1 << len(regs)):
        yield RelativeSpec.of(v for i, v in enumerate(regs) if mask >> i & 1)


# --- specs and bases --------------------------------------------------------------


def test_relative_spec_constructors():
    g = g1()
    assert RelativeSpec.toeplitz().imposed == frozenset()
    assert RelativeSpec.full(g).imposed == {"v"}
    assert RelativeSpec.of(["v"]).imposed == {"v"}


def test_relative_spec_rejects_non_regular():
    g = g1()
    with pytest.raises(RelativeSpecError):
        RelativeSpec.of(["w"]).validate(g)  # a sink
    with pytest.raises(RelativeSpecError):
        RelativeSpec.of(["zz"]).validate(g)  # not even a vertex


def test_terminal_vertices():
    g = g1()
    assert terminal_vertices(g, RelativeSpec.toeplitz()) == ["v", "w"]
    assert terminal_vertices(g, RelativeSpec.full(g)) == ["w"]


def test_path_basis_order_g1():
    g = g1()
    toeplitz = build_ck_family(g, RelativeSpec.toeplitz()).basis
    assert [p.label() for p in toeplitz] == ["v", "w", "e"]
    full = build_ck_family(g, RelativeSpec.full(g)).basis
    assert [p.label() for p in full] == ["w", "e"]


# --- the grown basis against the enumerate-then-filter builder ------------------------


def _assert_builders_agree(g, spec, paths=None):
    rep = build_ck_family(g, spec)
    enumerated = helpers.enumerated_ck_family(g, spec, paths)
    # the labels rebuilt from the maps are the enumerated path list
    assert list(rep.basis) == helpers.path_basis(g, spec, paths)
    assert rep.dim == enumerated.dim
    doc = export_model(rep)
    assert doc == export_model(enumerated)
    # the sorted entries of the IntMatrix views: the route export_model
    # replaced
    assert doc["p"] == {v: _triples(m)
                        for v, m in enumerated.vertex_projections.items()}
    assert doc["s"] == {e: _triples(m)
                        for e, m in enumerated.edge_isometries.items()}


def _triples(m):
    return [[r, c, x] for (r, c), x in sorted(m.entries.items())]


def test_grown_model_matches_enumerated_builder_on_universe_slice():
    # every spec of one graph in 20 of acceptance criterion 4's universe
    for n, arcs in helpers.acyclic_universe(5, 6)[::20]:
        g = graph_of(n, arcs)
        paths = enumerate_paths(g)
        for spec in all_specs(g):
            _assert_builders_agree(g, spec, paths)


@settings(max_examples=100, deadline=None)
@given(graphs(acyclic=True, max_vertices=6, max_bundles=8), st.data())
def test_grown_model_matches_enumerated_builder_on_multigraphs(g, data):
    regs = regular_vertices(g)
    imposed = data.draw(st.sets(st.sampled_from(regs))) if regs else set()
    _assert_builders_agree(g, RelativeSpec.of(imposed))


@pytest.mark.parametrize("sg, depth", [
    (ladder_family(2), 10),
    (ladder_family(3), 5),
    (forbidden_ladder_family(), 6),
    (ray_family(), 40),
], ids=["ladder2", "ladder3", "forbidden_ladder", "ray"])
def test_grown_model_matches_enumerated_builder_on_family_stages(sg, depth):
    for n in range(1, depth + 1):
        g = sg.stage(n)
        for spec in (RelativeSpec.full(g), RelativeSpec.toeplitz()):
            _assert_builders_agree(g, spec)


def test_basis_is_grown_in_sort_key_order_with_no_comparison(monkeypatch):
    # edge ids whose order is neither bundle order nor numeric order, and
    # paths of up to three edges
    g = Graph(["d", "a", "b", "c", "s"],
              [EdgeBundle("z", "a", "b"), EdgeBundle("m", "b", "s", finite(11)),
               EdgeBundle("b", "c", "s"), EdgeBundle("k", "a", "c", finite(2)),
               EdgeBundle("a", "d", "a")])

    def refuse(self):
        raise AssertionError("the builder compared paths")

    monkeypatch.setattr(Path, "sort_key", refuse)
    rep = build_ck_family(g, RelativeSpec.full(g))
    monkeypatch.undo()
    assert list(rep.basis) == sorted(rep.basis, key=Path.sort_key)
    assert [p.label() for p in rep.basis[:5]] == ["s", "b", "m#0", "m#1", "m#10"]
    _assert_builders_agree(g, RelativeSpec.full(g))
    _assert_builders_agree(g, RelativeSpec.toeplitz())


def test_grown_basis_must_match_the_path_count(monkeypatch):
    g = ladder_family(2).stage(4)
    count = ck_matrix.count_paths_ending

    def one_more(g):
        out = count(g)
        out["w_4"] += 1
        return out

    monkeypatch.setattr(ck_matrix, "count_paths_ending", one_more)
    with pytest.raises(InternalCheckError) as ei:
        build_ck_family(g, RelativeSpec.full(g))
    assert str(ei.value) == "grown basis holds 15 paths; the path count is 16"


def test_model_rejects_cycles_and_infinite_bundles():
    with pytest.raises(CyclicGraphError) as ei:
        build_ck_family(single_loop(), RelativeSpec.toeplitz())
    assert str(ei.value) == "cyclic graph: no finite-dimensional model"
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", ALEPH0)])
    with pytest.raises(InfiniteBundleError) as ei2:
        build_ck_family(g, RelativeSpec.toeplitz())
    assert str(ei2.value) == "matrix models need every bundle finite"


# --- explicit small models -----------------------------------------------------------


def test_g1_full_model_matrices():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.full(g))
    # basis [w, e]; the edge maps the sink's trivial path to the edge path
    assert rep.dim == 2
    assert rep.supports == {"w": {0}, "v": {1}}
    assert rep.edge_maps == {"e": {0: 1}}
    assert rep.vertex_projections["w"].entries == {(0, 0): 1}
    assert rep.vertex_projections["v"].entries == {(1, 1): 1}
    assert rep.edge_isometries["e"].entries == {(1, 0): 1}


def test_g1_toeplitz_gap():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.toeplitz())
    gaps = gap_projections(rep)
    assert set(gaps) == {"v"}
    assert gaps["v"].nonzero
    i_v = rep.basis.index(Path.trivial(g, "v"))
    assert gaps["v"].positions == {i_v}
    assert gaps["v"].matrix.entries == {(i_v, i_v): 1}


def test_g1_full_has_no_gaps():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.full(g))
    assert gap_projections(rep) == {}


def test_path_matrix_products():
    # a path's composed col -> row map is the product of its edge isometries
    g = line(3)
    rep = build_ck_family(g, RelativeSpec.full(g))
    compose = helpers.path_composer(rep)
    p = Path.from_edges(g, ["e0", "e1"])
    assert IntMatrix.from_partial_perm(compose(p), rep.dim) == \
        rep.edge_isometries["e0"] @ rep.edge_isometries["e1"]
    trivial = Path.trivial(g, "v0")
    assert IntMatrix.from_partial_perm(compose(trivial), rep.dim) == \
        rep.vertex_projections["v0"]


def test_verify_ck_passes_on_fixtures():
    for g in (g1(), two_sinks(), diamond(), line(4),
              ladder_family(2).stage(4)):
        for spec in all_specs(g):
            rep = build_ck_family(g, spec)
            report = verify_ck(rep)
            assert report.all_imposed_hold, (g, spec, report.failures)
            assert report.ck3_exactly_at(spec.imposed)
            assert not report.failures
            gaps = gap_projections(rep)
            assert set(gaps) == set(regular_vertices(g)) - spec.imposed
            assert all(e.nonzero for e in gaps.values())


def test_verify_ck_detects_sabotage():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.full(g))
    rep.edge_maps["e"] = {}
    report = verify_ck(rep)
    assert not report.ck1
    assert any("ck1" in f for f in report.failures)


def test_vertex_projections_that_overlap_fail():
    # two isolated vertices, a's support widened to hold b's index: every
    # other relation holds
    g = Graph(["a", "b"], [])
    rep = build_ck_family(g, RelativeSpec.toeplitz())
    rep.supports["a"] = frozenset(range(rep.dim))
    message = "vertex projections a, b not orthogonal"
    report = verify_ck(rep)
    assert report.failures == [message]
    assert report == product_verify_ck(rep)
    with pytest.raises(InternalCheckError) as ei:
        algebra_dimension(rep)
    assert str(ei.value) == message


# --- dimensions and blocks -------------------------------------------------------------


def test_algebra_dimension_g1():
    g = g1()
    assert algebra_dimension(build_ck_family(g, RelativeSpec.toeplitz())) == 5
    assert algebra_dimension(build_ck_family(g, RelativeSpec.full(g))) == 4


def test_algebra_dimension_two_sinks_full():
    g = two_sinks()
    rep = build_ck_family(g, RelativeSpec.full(g))
    assert algebra_dimension(rep) == 8  # M2 + M2
    blocks = block_decomposition(rep)
    assert [(b.terminal, b.size) for b in blocks] == [("w_1", 2), ("w_2", 2)]


def test_block_decomposition_needs_full_spec():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.toeplitz())
    with pytest.raises(RelativeSpecError):
        block_decomposition(rep)


def test_block_sizes_square_sum_to_dimension():
    for g in (g1(), two_sinks(), diamond(), line(5)):
        rep = build_ck_family(g, RelativeSpec.full(g))
        blocks = block_decomposition(rep)
        assert sum(b.size ** 2 for b in blocks) == algebra_dimension(rep)


def test_diamond_full_dimension():
    g = diamond()
    rep = build_ck_family(g, RelativeSpec.full(g))
    # single sink, 4 paths in (trivial, e3, e4, and two length-2... no:
    # t->l->b and t->r->b, l->b, r->b, b itself: 5 paths
    assert rep.dim == 5
    assert algebra_dimension(rep) == 25


# --- corners ------------------------------------------------------------------------


def test_corner_two_sinks():
    g = two_sinks()
    rep = build_ck_family(g, RelativeSpec.full(g))
    summary = corner(rep, "v")
    assert summary.dimension == 2
    assert summary.full  # paths from v reach both sinks
    corner_w = corner(rep, "w_1")
    assert corner_w.dimension == 1
    assert not corner_w.full


def test_corner_ladder_stage():
    sg = ladder_family(2)
    for n in (2, 3, 4):
        g = sg.stage(n)
        rep = build_ck_family(g, RelativeSpec.full(g))
        summary = corner(rep, "w_1")
        assert summary.dimension == (2 ** (n - 1)) ** 2
        assert summary.full


def test_corner_unknown_vertex():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.full(g))
    with pytest.raises(Exception):
        corner(rep, "zz")


# --- export ---------------------------------------------------------------------------


def test_export_model_shape():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.full(g))
    doc = export_model(rep)
    assert doc["basis"] == ["w", "e"]
    assert doc["p"]["w"] == [[0, 0, 1]]
    assert doc["p"]["v"] == [[1, 1, 1]]
    assert doc["s"]["e"] == [[1, 0, 1]]
    # the triples are sorted, whatever order a map was filled in
    rep = build_ck_family(line(3), RelativeSpec.toeplitz())
    doc = export_model(rep)
    rep.edge_maps["e0"] = dict(reversed(rep.edge_maps["e0"].items()))
    assert export_model(rep) == doc


def test_export_model_slot_named_edges():
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(2))])
    rep = build_ck_family(g, RelativeSpec.full(g))
    doc = export_model(rep)
    assert set(doc["s"]) == {"e#0", "e#1"}


# --- randomized coherence ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graphs(acyclic=True, max_vertices=5, max_bundles=7))
def test_random_acyclic_models_verify(g):
    if not g.vertices:
        return
    rng = random.Random(hash(g) & 0xFFFF)
    regs = regular_vertices(g)
    chosen = [v for v in regs if rng.random() < 0.5]
    spec = RelativeSpec.of(chosen)
    rep = build_ck_family(g, spec)
    report = verify_ck(rep)
    assert report.all_imposed_hold
    assert report.ck3_exactly_at(spec.imposed)
    gaps = gap_projections(rep)
    assert all(e.matrix @ e.matrix == e.matrix for e in gaps.values())
    assert all(e.nonzero for e in gaps.values())


@settings(max_examples=40, deadline=None)
@given(graphs(acyclic=True, max_vertices=5, max_bundles=6))
def test_random_full_models_block_structure(g):
    if not g.vertices:
        return
    rep = build_ck_family(g, RelativeSpec.full(g))
    blocks = block_decomposition(rep)
    assert sum(b.size for b in blocks) == rep.dim
    assert sum(b.size ** 2 for b in blocks) == algebra_dimension(rep)


# --- composed path maps against the general-product route ---------------------------


def _by_target(paths):
    out: dict[str, list[Path]] = {}
    for p in paths:
        out.setdefault(p.target, []).append(p)
    return out.values()


@settings(max_examples=60, deadline=None)
@given(graphs(acyclic=True, max_vertices=5, max_bundles=5))
def test_dimension_matches_product_route_under_every_spec(g):
    paths = enumerate_paths(g)
    for spec in all_specs(g):
        rep = build_ck_family(g, spec)
        compose = helpers.path_composer(rep)
        for p in paths:
            assert IntMatrix.from_partial_perm(compose(p), rep.dim) == \
                product_path_matrix(rep, p)
        units = product_unit_vectors(rep, _by_target(paths))
        assert algebra_dimension(rep) == fraction_rank(units)


@settings(max_examples=60, deadline=None)
@given(graphs(acyclic=True, max_vertices=5, max_bundles=5))
def test_corner_matches_product_route_at_every_vertex(g):
    rep = build_ck_family(g, RelativeSpec.full(g))
    paths = enumerate_paths(g)
    for v in g.vertices:
        from_v = [p for p in paths if p.source == v]
        units = product_unit_vectors(rep, _by_target(from_v))
        assert corner(rep, v).dimension == fraction_rank(units)


def test_generator_that_is_not_a_partial_permutation_is_refused():
    # a second column sent to s_e1's one row: the map is not injective
    g = line(3)
    rep = build_ck_family(g, RelativeSpec.full(g))
    m = rep.edge_maps["e1"]
    (col, row), = m.items()
    m[(col + 1) % rep.dim] = row
    with pytest.raises(InternalCheckError) as ei:
        algebra_dimension(rep)
    assert str(ei.value) == "generator s_e1 is not a partial permutation"


# --- relations in map form against the product route -------------------------------


def _gaps_or_error(route, rep):
    try:
        return route(rep)
    except InternalCheckError as exc:
        return str(exc)


def _assert_routes_agree(rep):
    report = verify_ck(rep)
    assert report == product_verify_ck(rep)
    assert _gaps_or_error(gap_projections, rep) == \
        _gaps_or_error(product_gap_projections, rep)
    return report


def test_relations_match_product_route_on_universe_slice():
    # every spec of one graph in 50 of acceptance criterion 4's universe
    for n, arcs in helpers.acyclic_universe(5, 6)[::50]:
        g = graph_of(n, arcs)
        for spec in all_specs(g):
            report = _assert_routes_agree(build_ck_family(g, spec))
            assert not report.failures


@settings(max_examples=80, deadline=None)
@given(graphs(acyclic=True, max_vertices=5, max_bundles=7), st.data())
def test_relations_match_product_route_on_multigraphs(g, data):
    regs = regular_vertices(g)
    imposed = data.draw(st.sets(st.sampled_from(regs))) if regs else set()
    report = _assert_routes_agree(build_ck_family(g, RelativeSpec.of(imposed)))
    assert not report.failures


@settings(max_examples=150, deadline=None)
@given(graphs(acyclic=True, max_vertices=4, max_bundles=5), st.data())
def test_relations_match_product_route_on_tampered_models(g, data):
    regs = regular_vertices(g)
    imposed = data.draw(st.sets(st.sampled_from(regs))) if regs else set()
    rep = build_ck_family(g, RelativeSpec.of(imposed))
    # the tamper comes before the first check or view: both read it
    generators = ([(rep.supports, v) for v in rep.supports]
                  + [(rep.edge_maps, e) for e in rep.edge_maps])
    family, name = data.draw(st.sampled_from(generators))
    cols = sorted(data.draw(st.sets(st.integers(0, rep.dim - 1))))
    if family is rep.supports:
        family[name] = frozenset(cols)
    else:
        rows = data.draw(st.permutations(range(rep.dim)))
        family[name] = dict(zip(cols, rows))
    report = _assert_routes_agree(rep)
    if report.failures:
        with pytest.raises(InternalCheckError) as ei:
            algebra_dimension(rep)
        assert str(ei.value) == report.failures[0]


def test_bratteli_tampers_fail_the_same_relations_on_both_routes():
    # the tampers of test_bratteli, on ladder2's stage-4 model
    from test_bratteli import (
        _empty_edge_domain,
        _overlap_out_ranges,
        _widen_vertex_projection,
    )
    for tamper in (_empty_edge_domain, _overlap_out_ranges,
                   _widen_vertex_projection):
        g = ladder_family(2).stage(4)
        rep = build_ck_family(g, RelativeSpec.full(g))
        tamper(rep)
        assert _assert_routes_agree(rep).failures, tamper.__name__


def _double_a_position(rng, rep):
    # a vertex's support takes a position another vertex holds
    names = sorted(rep.supports)
    v, w = rng.sample(names, 2)
    if rep.supports[w]:
        pos = rng.choice(sorted(rep.supports[w]))
        rep.supports[v] = rep.supports[v] | {pos}


def _share_a_row(rng, rep):
    # an edge sends one column to a row another edge's range holds,
    # keeping its own map injective
    a, b = rng.sample(sorted(rep.edge_maps), 2)
    ma, rows = rep.edge_maps[a], set(rep.edge_maps[a].values())
    free = sorted(set(rep.edge_maps[b].values()) - rows)
    if ma and free:
        col = rng.choice(sorted(ma))
        ma[col] = rng.choice(free)


def test_relation_pass_lists_what_the_always_listing_route_lists():
    # seeded tampers that make supports or ranges meet, one or several at
    # once; product_verify_ck multiplies every pair and lists every clash,
    # and the one-count pass must give the same lines in the same order
    rng = random.Random(19)
    clashed = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        pairs = [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 8))]
        g = Graph(helpers.vertex_names(n),
                  [EdgeBundle(f"e{i}", f"v{a}", f"v{b}", finite(rng.randint(1, 3)))
                   for i, (a, b) in enumerate(pairs)])
        if len(g.finite_edges()) < 2:
            continue
        regs = regular_vertices(g)
        rep = build_ck_family(g, RelativeSpec.of(
            v for v in regs if rng.random() < 0.5))
        for _ in range(rng.choice([1, 1, 2, 3, 5])):
            rng.choice([_double_a_position, _share_a_row])(rng, rep)
        report = _assert_routes_agree(rep)
        clashed += not report.mutual_orthogonality
    assert clashed >= 250


def test_ck_reads_each_generator_once_and_runs_one_relation_pass(
        monkeypatch, tmp_path):
    # each model command runs its model's one relation pass, once, and
    # builds no IntMatrix: the stored supports and maps are what every
    # check reads
    calls = {"relations": 0, "matrices": 0}
    relations, init = ck_matrix._relations, IntMatrix.__init__

    def counted_relations(*args):
        calls["relations"] += 1
        return relations(*args)

    def counted_init(self, *args, **kwargs):
        calls["matrices"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ck_matrix, "_relations", counted_relations)
    monkeypatch.setattr(IntMatrix, "__init__", counted_init)
    stage = ["--family", "ladder2", "--depth", "6"]
    export = ["--export", str(tmp_path / "m.json")]
    for argv in (["ck", *stage, "--relative", "all"],
                 ["ck", *stage, "--relative", "none"],
                 ["ck", *stage, "--relative", "w_1,w_3"],
                 ["ck", *stage, "--relative", "all", *export],
                 ["ck", *stage, "--relative", "none", *export],
                 ["ck", *stage, "--relative", "w_1,w_3", *export],
                 ["corner", *stage, "--vertex", "w_1"],
                 ["bratteli", *stage, "--verify-embedding"]):
        calls.update(relations=0, matrices=0)
        code, text = run_command(argv)
        assert code == 0, (argv, text)
        assert calls == {"relations": 1, "matrices": 0}, argv


def test_model_views_are_cached_and_match_the_maps():
    g = ladder_family(2).stage(4)
    rep = build_ck_family(g, RelativeSpec.toeplitz())
    assert rep.report is rep.report
    assert verify_ck(rep) is rep.report
    assert rep.covers is rep.covers
    assert rep.vertex_projections is rep.vertex_projections
    assert rep.edge_isometries is rep.edge_isometries
    assert rep.vertex_projections == {
        v: IntMatrix.from_diag(s, rep.dim) for v, s in rep.supports.items()}
    assert rep.edge_isometries == {
        e: IntMatrix.from_partial_perm(m, rep.dim)
        for e, m in rep.edge_maps.items()}
    for gap in gap_projections(rep).values():
        assert gap.matrix is gap.matrix
        assert gap.matrix == IntMatrix.from_diag(gap.positions, rep.dim)


def test_runtime_does_no_intmatrix_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("IntMatrix algebra at runtime")

    for op in ("__matmul__", "__add__", "__sub__", "transpose"):
        monkeypatch.setattr(IntMatrix, op, refuse)
    stage = ["--family", "ladder2", "--depth", "8"]
    for argv in (["ck", *stage, "--relative", "all"],
                 ["ck", *stage, "--relative", "none"],
                 ["ck", *stage, "--relative", "w_1,w_3,w_5"],
                 ["corner", *stage, "--vertex", "w_1"],
                 ["bratteli", *stage, "--verify-embedding"]):
        code, text = run_command(argv)
        assert code == 0, (argv, text)


# --- the rank certificate against the elimination route ---------------------------


# (family, deepest stage, partial spec): the stages and specs of the
# benchmark's model commands, every stage up to the deepest; ladder3 runs
# only under the full spec there, and the Toeplitz spec stands in
_RANK_ORACLE_STAGES = (
    (ladder_family(2), 8, {"w_1", "w_3", "w_5"}),
    (ladder_family(3), 5, set()),
    (forbidden_ladder_family(), 7, {"v_1", "v_2", "v_3", "v_4", "v_5"}),
)


@pytest.mark.parametrize("sg, depth, partial", _RANK_ORACLE_STAGES,
                         ids=["ladder2", "ladder3", "forbidden_ladder"])
def test_certificate_matches_elimination_route_on_family_stages(sg, depth,
                                                                partial):
    for n in range(1, depth + 1):
        g = sg.stage(n)
        full = RelativeSpec.full(g)
        specs = {full, RelativeSpec.of(partial & full.imposed)}
        for spec in specs:
            rep = build_ck_family(g, spec)
            assert algebra_dimension(rep) == rank_dimension(rep, None), \
                (n, spec)
            for v in g.vertices:
                assert corner(rep, v).dimension == rank_dimension(rep, v), \
                    (n, spec, v)


def _assert_certificate_matches_oracles(g, spec):
    # the dimension, the corner at every vertex and, under the full spec,
    # the block sizes against elimination and the composed least-row route
    rep = build_ck_family(g, spec)
    for source in (None, *g.vertices):
        got = (algebra_dimension(rep) if source is None
               else corner(rep, source).dimension)
        assert got == rank_dimension(rep, source), (spec, source)
        assert got == helpers.least_row_dimension(rep, source), (spec, source)
    if spec == RelativeSpec.full(g):
        sizes = {b.terminal: b.size for b in block_decomposition(rep)}
        assert sizes == {t: sum(p.target == t for p in rep.basis)
                         for t in sinks(g)}
        assert sum(n * n for n in sizes.values()) == rank_dimension(rep, None)


def test_certificate_matches_both_oracles_on_universe_slice():
    # every spec of one graph in 40 of acceptance criterion 4's universe
    for n, arcs in helpers.acyclic_universe(5, 6)[::40]:
        g = graph_of(n, arcs)
        for spec in all_specs(g):
            _assert_certificate_matches_oracles(g, spec)


@settings(max_examples=60, deadline=None)
@given(graphs(acyclic=True, max_vertices=5, max_bundles=6), st.data())
def test_certificate_matches_both_oracles_on_multigraphs(g, data):
    regs = regular_vertices(g)
    imposed = data.draw(st.sets(st.sampled_from(regs))) if regs else set()
    _assert_certificate_matches_oracles(g, RelativeSpec.of(imposed))


def _swap_parallel_ranges(rng, rep):
    # two parallel edges trade maps: same domain, ranges in the same support
    g = rep.graph
    twins = [(a.id, b.id) for a in g.finite_edges() for b in g.finite_edges()
             if a.id < b.id and (a.src, a.dst) == (b.src, b.dst)]
    if twins:
        a, b = rng.choice(twins)
        rep.edge_maps[a], rep.edge_maps[b] = rep.edge_maps[b], rep.edge_maps[a]


def _shuffle_a_range(rng, rep):
    # one edge's rows permuted among themselves
    m = rep.edge_maps[rng.choice(sorted(rep.edge_maps))]
    rows = list(m.values())
    rng.shuffle(rows)
    m.update(zip(list(m), rows))


def _relabel_positions(rng, rep):
    # the whole model conjugated by a permutation of its positions
    perm = list(range(rep.dim))
    rng.shuffle(perm)
    for v, s in rep.supports.items():
        rep.supports[v] = frozenset(perm[i] for i in s)
    for e, m in rep.edge_maps.items():
        rep.edge_maps[e] = {perm[c]: perm[r] for c, r in m.items()}


def test_relation_preserving_tampers_never_mislead_the_certificate():
    # tampers that keep every relation: the certificate may refuse, but a
    # value it returns is the elimination route's
    rng = random.Random(20)
    answered = refused = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        pairs = [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 6))]
        g = Graph(helpers.vertex_names(n),
                  [EdgeBundle(f"e{i}", f"v{a}", f"v{b}", finite(rng.randint(1, 3)))
                   for i, (a, b) in enumerate(pairs)])
        regs = regular_vertices(g)
        spec = RelativeSpec.of(v for v in regs if rng.random() < 0.5)
        for source in (None, rng.choice(g.vertices)):
            rep = build_ck_family(g, spec)
            for _ in range(rng.choice([1, 1, 2])):
                rng.choice([_swap_parallel_ranges, _shuffle_a_range,
                            _relabel_positions])(rng, rep)
            assert verify_ck(rep).failures == []
            try:
                got = (algebra_dimension(rep) if source is None
                       else corner(rep, source).dimension)
            except InternalCheckError:
                refused += 1
                continue
            answered += 1
            assert got == rank_dimension(rep, source)
    assert answered >= 200 and refused >= 100, (answered, refused)


# --- each certificate check fails on a tampered model ----------------------------


def _parallel_pair() -> Graph:
    # basis w, e#0, e#1; s_e#0 sends w to row 1, s_e#1 sends it to row 2
    return Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(2))])


def _drop_edge_entry(rep):
    rep.edge_maps["e"].clear()


def _overlap_ranges(rep):
    rep.edge_maps["e#1"] = {0: 1}


def _miss_part_of_pv(rep):
    rep.edge_maps["e#1"] = {0: 0}


def _widen_projection(rep):
    rep.supports["v"] = frozenset({0, 1, 2})


# the Toeplitz basis of line(3) is v0, v1, v2, e0, e1, e0.e1, and s_e0
# sends v1 to e0 and e1 to e0.e1


def _swap_isometry_rows(rep):
    rep.edge_maps["e0"] = {1: 5, 4: 3}


def _lower_a_row(rep):
    rep.edge_maps["e0"] = {1: 3, 4: 0}


# every relation still holds after each tamper below; only the certificate
# pass refuses


def _map_onto_a_lead(rep):
    # g1's Toeplitz model (v, w, e): s_e sends w onto v's own position, so
    # v's least support position is in an out-edge's range; position 2 is
    # left uncovered, so the summation identity still fails at v
    rep.edge_maps["e"] = {1: 0}


def _isolated_sink() -> Graph:
    return Graph(["u", "v", "w"], [EdgeBundle("e", "v", "w")])


def _empty_isolated_sink(rep):
    # no edge reads u's support, so emptying it breaks no relation
    rep.supports["u"] = frozenset()


def _stray_position(rep):
    # g1's Toeplitz model with a fourth position, in p_v and in the size
    rep.supports["v"] = rep.supports["v"] | {3}
    rep.dim = 4


_NO_LEAD = "has no lead position outside its out-edges' ranges"


_TAMPERED = [
    (g1, "all", _drop_edge_entry, "ck1 fails at edge e"),
    (_parallel_pair, "all", _overlap_ranges,
     "edge ranges e#0, e#1 not orthogonal"),
    (_parallel_pair, "all", _miss_part_of_pv, "ck2 fails at edge e#1"),
    (_parallel_pair, "all", _widen_projection,
     "vertex projections v, w not orthogonal"),
    (lambda: line(3), "none", _swap_isometry_rows,
     "generator s_e0 does not keep the basis order"),
    (lambda: line(3), "none", _lower_a_row,
     "generator s_e0 does not keep the basis order"),
    (g1, "none", _map_onto_a_lead, f"terminal v {_NO_LEAD}"),
    (_isolated_sink, "all", _empty_isolated_sink, f"terminal u {_NO_LEAD}"),
    (_isolated_sink, "none", _empty_isolated_sink, f"terminal u {_NO_LEAD}"),
    (g1, "none", _stray_position,
     "model has 4 positions; its terminals have 3 paths into them"),
]


_TAMPERED_IDS = ["domain", "overlap", "cover", "support", "lead", "least_row",
                 "lead_in_range", "empty_sink", "empty_sink_toeplitz", "stray"]


def _tampered(make, relative, tamper):
    g = make()
    spec = RelativeSpec.full(g) if relative == "all" else RelativeSpec.toeplitz()
    rep = build_ck_family(g, spec)
    tamper(rep)
    return g, rep


@pytest.mark.parametrize("make, relative, tamper, message", _TAMPERED,
                         ids=_TAMPERED_IDS)
def test_tampered_model_fails_the_same_relations_on_both_routes(
        make, relative, tamper, message):
    _assert_routes_agree(_tampered(make, relative, tamper)[1])


@pytest.mark.parametrize("make, relative, tamper, message", _TAMPERED,
                         ids=_TAMPERED_IDS)
def test_tampered_model_fails_its_certificate(make, relative, tamper, message,
                                              tmp_path, monkeypatch):
    g, rep = _tampered(make, relative, tamper)
    assert all(len(set(m.values())) == len(m) for m in rep.edge_maps.values())
    with pytest.raises(InternalCheckError) as ei:
        algebra_dimension(rep)
    assert str(ei.value) == message
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        corner(rep, g.vertices[0])

    build = cli_io.build_ck_family

    def tampered_build(*args):
        out = build(*args)
        tamper(out)
        return out

    monkeypatch.setattr(cli_io, "build_ck_family", tampered_build)
    doc = tmp_path / "g.json"
    doc.write_text(json.dumps(emit_graph_document(g)))
    code, text = run_command(["ck", "--graph", str(doc), "--relative", relative])
    assert (code, text) == (4, f"error: internal check failed: {message}")


@pytest.mark.parametrize("make", [g1, diamond, lambda: ladder_family(2).stage(3),
                                  _isolated_sink],
                         ids=["g1", "diamond", "ladder2", "isolated"])
@pytest.mark.parametrize("relative", ["all", "none"])
def test_ck_exits_4_when_a_vertex_projection_is_zero(make, relative, tmp_path,
                                                    monkeypatch):
    # ck's "every vertex projection ... is nonzero" line rests on the
    # relation pass and the dimension certificate: emptying any vertex's
    # support fails one of them
    g = make()
    doc = tmp_path / "g.json"
    doc.write_text(json.dumps(emit_graph_document(g)))
    build = cli_io.build_ck_family
    for v in g.vertices:
        def emptied(*args, v=v):
            rep = build(*args)
            rep.supports[v] = frozenset()
            return rep

        monkeypatch.setattr(cli_io, "build_ck_family", emptied)
        code, text = run_command(["ck", "--graph", str(doc),
                                  "--relative", relative])
        assert code == 4, (v, text)
        assert text.startswith("error: internal check failed: "), (v, text)


def test_basis_missing_a_path_fails_its_certificate():
    # g1's Toeplitz model without the basis path e: the units of (w, e),
    # (e, w) and (e, e) would be missed; s_e then fills p_v, so the
    # summation identity holds where it is not imposed
    g = g1()
    rep = MatrixRep(g, RelativeSpec.toeplitz(),
                    {"v": frozenset({0}), "w": frozenset({1})}, {"e": {1: 0}}, 2)
    with pytest.raises(InternalCheckError,
                       match=re.escape("ck3 at v: held=True, imposed=False")):
        algebra_dimension(rep)


# --- deep models -------------------------------------------------------------------


def test_deep_ladder_dimensions_neither_eliminate_nor_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("models must not eliminate or enumerate")

    for name, mod in list(sys.modules.items()):
        if name == "graphck" or name.startswith("graphck."):
            for attr in ("exact_rank", "enumerate_paths"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    code, text = run_command(["ck", "--family", "ladder2", "--depth", "12",
                              "--relative", "all", "--json"])
    assert code == 0
    assert json.loads(text)["dimension"] == (2 ** 12 - 1) ** 2
    code, text = run_command(["corner", "--family", "ladder2", "--depth", "12",
                              "--vertex", "w_1", "--json"])
    assert code == 0
    assert json.loads(text)["dimension"] == (2 ** 11) ** 2
    code, text = run_command(["bratteli", "--family", "ladder2", "--depth",
                              "12", "--verify-embedding", "--json"])
    assert code == 0
    assert json.loads(text)["embedding_ok"] is True
