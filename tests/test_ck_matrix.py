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
    terminal_vertices,
    verify_ck,
)

from graphck import ck_matrix, cli_io
from graphck.ck_matrix import MatrixRep, PathMaps

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
    assert rep.basis == enumerated.basis
    assert export_model(rep) == export_model(enumerated)


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
    assert gaps["v"].matrix.entries == {(i_v, i_v): 1}


def test_g1_full_has_no_gaps():
    g = g1()
    rep = build_ck_family(g, RelativeSpec.full(g))
    assert gap_projections(rep) == {}


def test_path_matrix_products():
    # a path's composed col -> row map is the product of its edge isometries
    g = line(3)
    rep = build_ck_family(g, RelativeSpec.full(g))
    maps = PathMaps(rep)
    p = Path.from_edges(g, ["e0", "e1"])
    assert IntMatrix.from_partial_perm(maps(p), rep.dim) == \
        rep.edge_isometries["e0"] @ rep.edge_isometries["e1"]
    trivial = Path.trivial(g, "v0")
    assert IntMatrix.from_partial_perm(maps(trivial), rep.dim) == \
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
    rep.edge_isometries["e"] = IntMatrix.zero(rep.dim)
    report = verify_ck(rep)
    assert not report.ck1
    assert any("ck1" in f for f in report.failures)


def test_vertex_projection_that_is_not_diagonal_fails():
    # two isolated vertices, p_a sending a's index to b's: a partial
    # permutation orthogonal to p_b, and every other relation holds
    g = Graph(["a", "b"], [])
    rep = build_ck_family(g, RelativeSpec.toeplitz())
    i_a, i_b = (rep.basis.index(Path.trivial(g, v)) for v in ("a", "b"))
    rep.vertex_projections["a"] = IntMatrix.from_partial_perm({i_a: i_b},
                                                              rep.dim)
    message = "vertex projection p_a is not diagonal"
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
        maps = PathMaps(rep)
        for p in paths:
            assert IntMatrix.from_partial_perm(maps(p), rep.dim) == \
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
    g = line(3)
    rep = build_ck_family(g, RelativeSpec.full(g))
    (pos, _), *_ = sorted(rep.edge_isometries["e1"].entries.items())
    rep.edge_isometries["e1"].entries[pos] = 2
    with pytest.raises(InternalCheckError, match="s_e1"):
        algebra_dimension(rep)


# --- relations in map form against the product route -------------------------------


def _gaps_or_error(route, rep):
    try:
        return route(rep)
    except RelativeSpecError as exc:
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
    generators = ([(rep.vertex_projections, v) for v in rep.vertex_projections]
                  + [(rep.edge_isometries, e) for e in rep.edge_isometries])
    family, name = data.draw(st.sampled_from(generators))
    cols = sorted(data.draw(st.sets(st.integers(0, rep.dim - 1))))
    rows = data.draw(st.permutations(range(rep.dim)))
    family[name] = IntMatrix.from_partial_perm(dict(zip(cols, rows)), rep.dim)
    report = _assert_routes_agree(rep)
    if report.failures:
        with pytest.raises(InternalCheckError) as ei:
            algebra_dimension(rep)
        assert str(ei.value) == report.failures[0]


def test_ck_reads_each_generator_once_and_runs_one_relation_pass(
        monkeypatch):
    # verify_ck, gap_projections, the projection line and the dimension
    # certificate all read the model's one PathMaps
    calls = {"maps": 0, "relations": 0}
    read, relations = IntMatrix.partial_permutation_map, ck_matrix._relations

    def counted_read(self):
        calls["maps"] += 1
        return read(self)

    def counted_relations(*args):
        calls["relations"] += 1
        return relations(*args)

    monkeypatch.setattr(IntMatrix, "partial_permutation_map", counted_read)
    monkeypatch.setattr(ck_matrix, "_relations", counted_relations)
    g = ladder_family(2).stage(4)
    code, text = run_command(["ck", "--family", "ladder2", "--depth", "4",
                              "--relative", "all"])
    assert code == 0, text
    assert calls == {"maps": len(g.vertices) + len(g.finite_edges()),
                     "relations": 1}


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


# --- each certificate check fails on a tampered model ----------------------------


def _parallel_pair() -> Graph:
    # basis w, e#0, e#1; s_e#0 sends w to row 1, s_e#1 sends it to row 2
    return Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(2))])


def _drop_edge_entry(rep):
    rep.edge_isometries["e"].entries.clear()


def _overlap_ranges(rep):
    rep.edge_isometries["e#1"].entries = {(1, 0): 1}


def _miss_part_of_pv(rep):
    rep.edge_isometries["e#1"].entries = {(0, 0): 1}


def _twist_projection(rep):
    rep.vertex_projections["v"].entries = {(1, 2): 1, (2, 1): 1}


# the Toeplitz basis of line(3) is v0, v1, v2, e0, e1, e0.e1, and s_e0
# sends v1 to e0 and e1 to e0.e1


def _swap_isometry_rows(rep):
    rep.edge_isometries["e0"].entries = {(5, 1): 1, (3, 4): 1}


def _lower_a_row(rep):
    rep.edge_isometries["e0"].entries = {(3, 1): 1, (0, 4): 1}


_TAMPERED = [
    (g1, "all", _drop_edge_entry, "ck1 fails at edge e"),
    (_parallel_pair, "all", _overlap_ranges,
     "edge ranges e#0, e#1 not orthogonal"),
    (_parallel_pair, "all", _miss_part_of_pv, "ck2 fails at edge e#1"),
    (_parallel_pair, "all", _twist_projection,
     "vertex projection p_v is not diagonal"),
    (lambda: line(3), "none", _swap_isometry_rows,
     "path e0 does not send v1 to itself as its least row"),
    (lambda: line(3), "none", _lower_a_row,
     "path e0 does not send v1 to itself as its least row"),
]


_TAMPERED_IDS = ["domain", "overlap", "cover", "diagonal", "lead", "least_row"]


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
    assert all(m.is_partial_permutation()
               for m in rep.edge_isometries.values())
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


def test_basis_missing_a_path_fails_its_certificate():
    # g1's Toeplitz model without the basis path e: the units of (w, e),
    # (e, w) and (e, e) would be missed; s_e then fills p_v, so the
    # summation identity holds where it is not imposed
    g = g1()
    v, w = Path.trivial(g, "v"), Path.trivial(g, "w")
    rep = MatrixRep(g, RelativeSpec.toeplitz(), (v, w),
                    {"v": IntMatrix.from_diag([0], 2),
                     "w": IntMatrix.from_diag([1], 2)},
                    {"e": IntMatrix.from_partial_perm({1: 0}, 2)})
    with pytest.raises(InternalCheckError,
                       match=re.escape("ck3 at v: held=True, imposed=False")):
        algebra_dimension(rep)


def test_corner_basis_missing_a_path_fails_its_certificate():
    # g1's Toeplitz model with basis path e recorded as a path from w: every
    # relation holds and the whole basis passes its least-row check, so the
    # algebra's dimension is still right, but the corner at v reads the
    # sources and finds no basis path from v into w
    g = g1()
    v, w = Path.trivial(g, "v"), Path.trivial(g, "w")
    stray = Path("w", "w", ("e",))
    rep = MatrixRep(g, RelativeSpec.toeplitz(), (v, w, stray),
                    {"v": IntMatrix.from_diag([0, 2], 3),
                     "w": IntMatrix.from_diag([1], 3)},
                    {"e": IntMatrix.from_partial_perm({1: 2}, 3)})
    assert verify_ck(rep).failures == []
    assert algebra_dimension(rep) == 5
    with pytest.raises(InternalCheckError,
                       match=re.escape("basis holds 0 of the 1 paths into w")):
        corner(rep, "v")


def test_basis_without_a_terminal_trivial_path_fails_its_certificate(
        tmp_path, monkeypatch):
    # g1's full model with its basis path w relabelled as the non-path
    # e.e from v: the generators are untouched, so every relation holds,
    # but the certificate finds no trivial path at the terminal w
    g = g1()
    rep = build_ck_family(g, RelativeSpec.full(g))
    stray = Path("v", "w", ("e", "e"))
    tampered = MatrixRep(g, rep.spec, (stray, rep.basis[1]),
                         rep.vertex_projections, rep.edge_isometries)
    assert verify_ck(tampered).failures == []
    message = "basis has no trivial path at terminal w"
    with pytest.raises(InternalCheckError) as ei:
        algebra_dimension(tampered)
    assert str(ei.value) == message

    monkeypatch.setattr(cli_io, "build_ck_family", lambda *args: tampered)
    doc = tmp_path / "g1.json"
    doc.write_text(json.dumps(emit_graph_document(g)))
    code, text = run_command(["ck", "--graph", str(doc), "--relative", "all"])
    assert (code, text) == (4, f"error: internal check failed: {message}")


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
