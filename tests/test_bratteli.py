# Chains of single matrix blocks, their limits, and the embedding check.

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphck import (
    ALEPH0,
    BoundExceededError,
    BratteliChain,
    ChainError,
    CyclicGraphError,
    EdgeBundle,
    Graph,
    GraphAlgebraError,
    GraphBuildError,
    InfiniteBundleError,
    InternalCheckError,
    RelativeSpec,
    SpineError,
    StageError,
    StagedGraph,
    build_ck_family,
    build_graph,
    corner_chain,
    finite,
    direct_limit_summary,
    embed_check,
    forbidden_ladder_family,
    ladder_family,
    ray_family,
    rose_family,
    run_command,
    tail_chain,
    verify_ck,
)
from graphck import cli_io, graph_model
from graphck.bratteli import CORNER, TAIL, EmbedReport
from graphck.families import builtin_family

import helpers
from helpers import graphs, product_embed_check, size_of, two_sinks


# --- chain construction -------------------------------------------------------


def test_corner_chain_doubled_ladder():
    chain = corner_chain(ladder_family(2), 5)
    assert chain.kind == CORNER
    assert chain.d == (1, 2, 4, 8, 16)
    assert chain.m == (2, 2, 2, 2)
    assert chain.corner == "w_1"
    assert chain.label == "ladder2"


def test_corner_chain_tripled_ladder():
    chain = corner_chain(ladder_family(3), 4)
    assert chain.d == (1, 3, 9, 27)
    assert chain.m == (3, 3, 3)


def test_corner_chain_forbidden_ladder():
    # two distinct paths per rung double the count just like parallel edges
    chain = corner_chain(forbidden_ladder_family(1, 2), 4)
    assert chain.d == (1, 2, 4, 8)
    assert chain.m == (2, 2, 2)


def test_corner_chain_requires_corner_in_every_stage():
    # w_2 only enters at stage 2, so a depth-3 chain at w_2 has no stage-1 node
    with pytest.raises(ChainError):
        corner_chain(ladder_family(2), 3, corner_vertex="w_2")


def test_corner_chain_needs_spine_or_corner():
    sg = StagedGraph("anon", ladder_family(2).delta,
                     ladder_family(2).delta_size)
    with pytest.raises(ChainError):
        corner_chain(sg, 3)
    chain = corner_chain(sg, 3, corner_vertex="w_1")
    assert chain.d == (1, 2, 4)


def test_corner_chain_rejects_multiple_sinks():
    sg = StagedGraph.fixed("pair", two_sinks())
    with pytest.raises(ChainError):
        corner_chain(sg, 2, corner_vertex="v")


def test_corner_chain_depth_guard():
    with pytest.raises(ChainError):
        corner_chain(ladder_family(2), 0)


def _count_graphs(monkeypatch) -> list[int]:
    """Record the vertex count of every ``Graph`` built from now on."""
    built = []
    init = Graph.__init__

    def counting(self, vertices, bundles):
        built.append(len(vertices))
        init(self, vertices, bundles)

    monkeypatch.setattr(Graph, "__init__", counting)
    return built


def test_chains_are_admitted_before_any_stage_is_built(monkeypatch):
    # stage n of ladder2 holds 3n - 2 vertices and bundles, of the ray 2n - 1
    monkeypatch.setattr(graph_model, "STAGE_WORK_BOUND", 21)
    built = _count_graphs(monkeypatch)
    # stages 1..4 of ladder2 sum to 22 and 1..5 of the ray to 25, but the
    # last stages hold 10 and 9
    assert corner_chain(ladder_family(2), 4).d == (1, 2, 4, 8)
    assert tail_chain(ray_family(), 5).d == (1, 2, 3, 4, 5)
    # stage 8 of ladder2 holds 22, stage 12 of the ray 23
    for chain, sg, depth in ((corner_chain, ladder_family(2), 8),
                             (tail_chain, ray_family(), 12)):
        with pytest.raises(BoundExceededError, match="more than 21 vertices"):
            chain(sg, depth)
    assert built == []


def test_chains_on_plain_deltas_build_no_graph(monkeypatch):
    built = _count_graphs(monkeypatch)
    assert len(tail_chain(ray_family(), 40)) == 40
    assert len(corner_chain(ladder_family(3), 40)) == 40
    assert len(corner_chain(forbidden_ladder_family(2, 3), 40,
                            corner_vertex="v_1")) == 40
    assert built == []


def test_tail_chain_ray():
    chain = tail_chain(ray_family(), 5)
    assert chain.kind == TAIL
    assert chain.d == (1, 2, 3, 4, 5)
    assert chain.m == (1, 1, 1, 1)


def test_tail_chain_rejects_branching_spine():
    with pytest.raises(SpineError):
        tail_chain(ladder_family(2), 3)


def test_tail_chain_rejects_misdirected_tail_edge():
    # old sink emits one edge, but onto a side vertex instead of the new sink
    with pytest.raises(ChainError):
        tail_chain(_custom("forked", _forked)(), 2)


def test_chain_law_validation():
    with pytest.raises(ChainError):
        BratteliChain(CORNER, (1, 2, 5), (2, 2))  # 5 != 2 * 2
    with pytest.raises(ChainError):
        BratteliChain(TAIL, (1, 2, 4), (1, 2))  # tail multiplicity must be 1
    with pytest.raises(ChainError):
        BratteliChain(TAIL, (2, 1), (1,))  # shrinking
    with pytest.raises(ChainError):
        BratteliChain("weird", (1,), ())
    with pytest.raises(ChainError):
        BratteliChain(CORNER, (), ())
    with pytest.raises(ChainError):
        BratteliChain(CORNER, (1, 2), (2, 2))  # one multiplicity too many
    with pytest.raises(ChainError):
        BratteliChain(CORNER, (1, 0), (0,))  # sizes must be positive


# --- the stage-by-stage oracle -------------------------------------------------------


def _outcome(chain, sg, depth, *corner):
    """A chain, or the type and text of the error it raised."""
    try:
        return chain(sg, depth, *corner)
    except GraphAlgebraError as e:
        return type(e), str(e)


_ROUTES = {corner_chain: helpers.stagewise_corner_chain,
           tail_chain: helpers.stagewise_tail_chain}


@pytest.mark.parametrize("name, chain", [
    ("ladder1", corner_chain), ("ladder2", corner_chain),
    ("ladder3", corner_chain), ("ray", tail_chain),
], ids=["ladder1", "ladder2", "ladder3", "ray"])
def test_chains_match_the_stagewise_route(name, chain):
    for depth in range(1, 61):
        want = _ROUTES[chain](builtin_family(name), depth)
        assert chain(builtin_family(name), depth) == want, depth


@pytest.mark.parametrize("name", sorted(helpers.STAGE_ORACLES))
def test_chains_match_the_stagewise_route_in_every_pairing(name):
    # each builtin family through both chains, at the corner of its first
    # spine vertex or v_1: some answer, some refuse
    corner = builtin_family(name).profile.spine or (lambda i: f"v_{i}")
    for depth in (*range(1, 13), 20, 40):
        for chain, args in ((corner_chain, (corner(1),)), (tail_chain, ())):
            want = _outcome(_ROUTES[chain], builtin_family(name), depth, *args)
            assert _outcome(chain, builtin_family(name), depth, *args) == want, \
                (chain.__name__, depth)


def _ray_plus(extra):
    """The ray's deltas, with ``extra[k]``'s vertices and bundles added to
    delta k."""
    ray = ray_family()

    def delta(k):
        vs, bs = ray.delta(k)
        more_vs, more_bs = extra.get(k, ([], []))
        return vs + more_vs, bs + more_bs

    return delta


def _custom(name, delta, profile=None):
    return lambda: StagedGraph(name, delta, size_of(delta), profile)


_LATE_SOURCE = _custom("ray-plus-source", _ray_plus(
    {3: (["u"], [EdgeBundle("f", "u", "v_3")])}))


def _forked(k):
    # the old sink v_1 also feeds a side sink
    if k == 0:
        return ["v_1"], []
    vs, bs = [f"v_{k + 1}"], [EdgeBundle(f"e_{k}", f"v_{k}", f"v_{k + 1}")]
    if k == 1:
        return vs + ["z_sink"], bs + [EdgeBundle("z", "v_1", "z_sink")]
    return vs, bs


def _rungs_backwards(k):
    # forbidden_ladder_2_3's deltas, each path's hops listed last to first,
    # so counting in the given order would miss paths
    vertices, bundles = forbidden_ladder_family(2, 3).delta(k)
    return vertices, bundles[::-1]


def _double_rungs(k):
    # ladder1 with each rung one finite:2 bundle
    vertices, bundles = ladder_family(1).delta(k)
    return vertices, [EdgeBundle(b.id, b.src, b.dst, finite(2)) for b in bundles]


def _two_hop_tail(k):
    # the old sink's one edge lands on a vertex that feeds the new sink
    if k < 2:
        return [f"v_{k}"] if k else [], []
    return [f"x_{k}", f"v_{k}"], [EdgeBundle(f"e_{k}", f"v_{k - 1}", f"x_{k}"),
                                  EdgeBundle(f"f_{k}", f"x_{k}", f"v_{k}")]


def _stray_base(k):
    # delta 0 already holds an infinite bundle, so stage 1 is built
    if k == 0:
        return ["a", "v_1"], [EdgeBundle("i", "a", "v_1", ALEPH0)]
    return ray_family().delta(k + 1)


# (id, family, chain, depth, corner args, what both routes give)
_CUSTOM = [
    ("line-from-stage-0", _custom("line", helpers.line_delta), tail_chain, 5,
     (), BratteliChain),
    ("line-from-stage-0-corner", _custom("line", helpers.line_delta),
     corner_chain, 5, ("v0",), BratteliChain),
    ("finite-2-bundles", _custom("double", _double_rungs), corner_chain, 6,
     ("w_1",), BratteliChain),
    ("finite-2-bundles-tail", _custom("double", _double_rungs), tail_chain, 6,
     (), SpineError),
    ("bypass", _custom("bypass", _ray_plus(
        {3: ([], [EdgeBundle("x", "v_1", "v_3")])})), corner_chain, 5,
     ("v_1",), ChainError),
    ("two-hop-tail", _custom("two-hop", _two_hop_tail), tail_chain, 4, (),
     ChainError),
    ("infinite-stage-0", _custom("stray", _stray_base), tail_chain, 4, (),
     InfiniteBundleError),
    ("infinite-stage-0-corner", _custom("stray", _stray_base), corner_chain, 4,
     ("v_1",), BratteliChain),
    ("re-added-vertex", _custom("ray-again", _ray_plus(
        {3: (["v_1"], [])})), tail_chain, 4, (), GraphBuildError),
    ("unknown-source", _custom("ray-ghost", _ray_plus(
        {3: ([], [EdgeBundle("x", "ghost", "v_3")])})), tail_chain, 4, (),
     GraphBuildError),
    ("bundles-out-of-order", _custom("backwards", _rungs_backwards),
     corner_chain, 8, ("v_1",), BratteliChain),
    ("multiple-sinks", lambda: StagedGraph.fixed("pair", two_sinks()),
     corner_chain, 2, ("v",), ChainError),
    ("multiple-sinks-tail", lambda: StagedGraph.fixed("pair", two_sinks()),
     tail_chain, 2, (), ChainError),
    ("no-spine-or-corner", _custom("anon", ladder_family(2).delta),
     corner_chain, 3, (), ChainError),
    ("no-spine-given-corner", _custom("anon", ladder_family(2).delta),
     corner_chain, 3, ("w_1",), BratteliChain),
    ("corner-missing", lambda: ladder_family(2), corner_chain, 3, ("w_2",),
     ChainError),
    ("branching-spine", lambda: ladder_family(2), tail_chain, 3, (), SpineError),
    ("misdirected-tail-edge", _custom("forked", _forked), tail_chain, 2, (),
     ChainError),
    ("late-extra-source", _LATE_SOURCE, tail_chain, 5, (), BratteliChain),
    ("late-extra-source-corner", _LATE_SOURCE, corner_chain, 5, ("v_1",),
     BratteliChain),
    ("lands-on-older", _custom("ray-fed-late", _ray_plus(
        {3: (["u"], [EdgeBundle("f", "u", "v_1")])})), tail_chain, 6, (),
     BratteliChain),
    ("lands-on-older-corner", _custom("ray-fed-late", _ray_plus(
        {3: (["u"], [EdgeBundle("f", "u", "v_1")])})), corner_chain, 6,
     ("v_1",), BratteliChain),
    ("infinite-side-bundle", _custom("ray-infinite", _ray_plus(
        {2: (["s"], [EdgeBundle("s", "s", "v_2", ALEPH0)])})), tail_chain, 4,
     (), InfiniteBundleError),
    ("infinite-side-bundle-corner", _custom("ray-infinite", _ray_plus(
        {2: (["s"], [EdgeBundle("s", "s", "v_2", ALEPH0)])})), corner_chain, 4,
     ("v_1",), BratteliChain),
    ("cyclic-delta", _custom("ray-looped", _ray_plus(
        {2: (["c"], [EdgeBundle("l", "c", "c")])})), tail_chain, 4, (),
     CyclicGraphError),
    ("cyclic-delta-claimed", _custom("ray-looped", _ray_plus(
        {2: (["c"], [EdgeBundle("l", "c", "c")])}), ray_family().profile),
     tail_chain, 4, (), StageError),
    ("dangling-bundle", _custom("ray-dangling", _ray_plus(
        {3: ([], [EdgeBundle("x", "v_3", "nowhere")])})), tail_chain, 4, (),
     GraphBuildError),
    ("re-added-bundle-id", _custom("ray-twice", _ray_plus(
        {3: (["y"], [EdgeBundle("e_1", "v_3", "y")])})), corner_chain, 4,
     ("v_1",), GraphBuildError),
]


@pytest.mark.parametrize("make, chain, depth, corner, gives",
                         [case[1:] for case in _CUSTOM],
                         ids=[case[0] for case in _CUSTOM])
def test_custom_families_match_the_stagewise_route(make, chain, depth, corner,
                                                    gives):
    want = _outcome(_ROUTES[chain], make(), depth, *corner)
    got = _outcome(chain, make(), depth, *corner)
    assert got == want
    assert isinstance(got, BratteliChain) if gives is BratteliChain \
        else got[0] is gives


def test_a_delta_landing_on_an_older_vertex_builds_only_its_stage(monkeypatch):
    # u -> v_1 arrives in delta 3: paths ending at v_1 and past it change, so
    # stage 3 is built and counted afresh; the stages around it are read
    make = _custom("ray-fed-late", _ray_plus(
        {3: (["u"], [EdgeBundle("f", "u", "v_1")])}))
    want = helpers.stagewise_tail_chain(make(), 6)
    built = _count_graphs(monkeypatch)
    chain = tail_chain(make(), 6)
    assert chain == want
    assert chain.d == (1, 2, 4, 5, 6, 7)  # f.e_1.e_2 joins at stage 3
    assert built == [4]  # stage 3 alone: v_1, v_2, v_3 and u


# --- direct limits ---------------------------------------------------------------


def test_limit_uhf_doubled():
    chain = corner_chain(ladder_family(2), 6)
    lim = direct_limit_summary(chain)
    assert lim.kind == "UHF"
    assert lim.supernatural == {2: None}
    assert lim.render() == "UHF 2^infinity"


def test_limit_uhf_tripled():
    lim = direct_limit_summary(corner_chain(ladder_family(3), 5))
    assert lim.render() == "UHF 3^infinity"


def test_limit_uhf_after_transient_prefix():
    chain = BratteliChain(CORNER, (1, 1, 2, 4), (1, 2, 2))
    lim = direct_limit_summary(chain)
    assert lim.render() == "UHF 2^infinity"


def test_limit_uhf_keeps_finite_prime_residue():
    chain = BratteliChain(CORNER, (3, 6, 12, 24), (2, 2, 2))
    lim = direct_limit_summary(chain)
    assert lim.supernatural == {2: None, 3: 1}
    assert lim.render() == "UHF 2^infinity 3^1"


def test_limit_compacts_for_ray():
    lim = direct_limit_summary(tail_chain(ray_family(), 5))
    assert lim.kind == "Compacts"
    assert lim.render() == "Compacts"


def test_limit_compacts_with_blunt_start():
    # flat start, strictly increasing afterwards
    chain = BratteliChain(TAIL, (1, 1, 2, 3), (1, 1, 1))
    assert direct_limit_summary(chain).kind == "Compacts"


def test_limit_other_when_sizes_stall():
    lim = direct_limit_summary(corner_chain(ray_family(), 4))
    assert lim.kind == "Other"
    assert "sizes not strictly increasing" in lim.failed
    assert lim.render().startswith("Other: ")


def test_limit_other_when_multiplicities_wobble():
    chain = BratteliChain(CORNER, (1, 2, 6, 12), (2, 3, 2))
    lim = direct_limit_summary(chain)
    assert lim.kind == "Other"
    assert "not constant" in lim.failed


def test_limit_needs_three_nodes():
    with pytest.raises(ChainError):
        direct_limit_summary(BratteliChain(CORNER, (1, 2), (2,)))


# --- joined-late tails --------------------------------------------------------------


def test_tail_chain_with_late_extra_source():
    # a side vertex u feeds the spine at stage 3; multiplicity stays one
    # but the sizes jump by two across that stage
    chain = tail_chain(_LATE_SOURCE(), 5)
    assert chain.d == (1, 2, 4, 5, 6)
    assert direct_limit_summary(chain).kind == "Compacts"


# --- embedding checks -----------------------------------------------------------------


def rep_of(g, spec=None):
    return build_ck_family(g, RelativeSpec.full(g) if spec is None else spec)


def test_embed_check_ladder_stages():
    sg = ladder_family(2)
    report = embed_check(sg.stage(3), rep_of(sg.stage(4)))
    assert report.ok
    assert report.pairs_checked == 49  # 1+2+4 paths into w_3, squared
    assert report.failures == []


def test_embed_check_ray_stages():
    sg = ray_family()
    for n in (2, 3, 4):
        report = embed_check(sg.stage(n), rep_of(sg.stage(n + 1)))
        assert report.ok


def test_embed_check_requires_subgraph():
    sg = ladder_family(2)
    with pytest.raises(StageError):
        embed_check(sg.stage(4), rep_of(sg.stage(3)))


def test_embed_check_persistent_sink():
    # the small sink stays a sink: units must persist verbatim
    def delta(k):
        return {0: (["a", "b"], [EdgeBundle("e", "a", "b")]),
                1: (["c"], [EdgeBundle("f", "a", "c")])}.get(k, ([], []))

    sg = StagedGraph("side-growth", delta, size_of(delta))
    report = embed_check(sg.stage(0), rep_of(sg.stage(1)))
    assert report.ok


def test_embed_check_honest_failure():
    # embedding a stage into one where the summation identity is dropped
    # at the joint really fails, and the report says where: once for all
    # four units of the paths w and e into w
    small = build_graph(["v", "w"], [EdgeBundle("e", "v", "w")])
    big_g = build_graph(["v", "w", "x"], [EdgeBundle("e", "v", "w"),
                                          EdgeBundle("f", "w", "x")])
    big = rep_of(big_g, RelativeSpec.toeplitz())
    report = embed_check(small, big)
    assert not report.ok
    assert report.failures == ["4 units at w"]
    assert (report.ok, report.pairs_checked, report.failures) == \
        product_embed_check(small, big)


@st.composite
def stage_pairs(draw):
    """A random acyclic multigraph and a subgraph of it: some of its
    bundles, and the vertices they touch plus a random subset of the rest."""
    big = draw(graphs(acyclic=True, max_vertices=5, max_bundles=6))
    kept = [b for b in big.bundles if draw(st.booleans())]
    touched = {v for b in kept for v in (b.src, b.dst)}
    vs = [v for v in big.vertices if v in touched or draw(st.booleans())]
    return build_graph(vs or big.vertices[:1], kept), big


@settings(max_examples=100, deadline=None)
@given(stage_pairs())
def test_embed_check_matches_product_route(pair):
    small, big_g = pair
    for big_spec in (RelativeSpec.full(big_g), RelativeSpec.toeplitz()):
        big = build_ck_family(big_g, big_spec)
        report = embed_check(small, big)
        assert (report.ok, report.pairs_checked, report.failures) == \
            product_embed_check(small, big)


# (family, deepest stage): every consecutive pair of full-spec stages up to
# the deepest; the product route takes seconds for ladder2's 7 -> 8
_EMBED_ORACLE_STAGES = (
    (ladder_family(2), 7),
    (ladder_family(3), 5),
    (forbidden_ladder_family(), 7),
    (ray_family(), 12),
)


@pytest.mark.parametrize("sg, depth", _EMBED_ORACLE_STAGES,
                         ids=["ladder2", "ladder3", "forbidden_ladder", "ray"])
def test_embed_check_matches_product_route_on_family_stages(sg, depth):
    for n in range(1, depth):
        small, big = sg.stage(n), rep_of(sg.stage(n + 1))
        report = embed_check(small, big)
        assert (report.ok, report.pairs_checked, report.failures) == \
            product_embed_check(small, big), n


# each tamper keeps every edge map of ladder2's stage-4 model injective
# but breaks one relation the certificate rests on


def _empty_edge_domain(rep):
    rep.edge_maps["e_2"] = {}


def _overlap_out_ranges(rep):
    rep.edge_maps["f_2"] = dict(rep.edge_maps["e_2"])


def _widen_vertex_projection(rep):
    rep.supports["w_1"] = rep.supports["w_1"] | rep.supports["w_2"]


@pytest.mark.parametrize("tamper, expected", [
    (_empty_edge_domain, "ck1 fails at edge e_2"),
    (_overlap_out_ranges, "edge ranges e_2, f_2 not orthogonal"),
    (_widen_vertex_projection, "vertex projections w_1, w_2 not orthogonal"),
], ids=["domain", "overlap", "support"])
def test_embed_check_refuses_a_tampered_bigger_model(tamper, expected):
    sg = ladder_family(2)
    small, big = sg.stage(3), rep_of(sg.stage(4))
    tamper(big)
    assert all(len(set(m.values())) == len(m) for m in big.edge_maps.values())
    assert verify_ck(big).failures[0] == expected
    with pytest.raises(InternalCheckError) as ei:
        embed_check(small, big)
    assert str(ei.value) == expected


def test_deep_embedding_composes_no_path_and_forms_no_unit(monkeypatch):
    # the embedding, dimension and corner certificates on a deep stage, with
    # the path composer and the unit former of the oracles refusing
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate composed a path or formed a unit")

    monkeypatch.setattr(helpers, "path_composer", refuse)
    monkeypatch.setattr(helpers, "matrix_unit", refuse)
    stage = ["--family", "ladder2", "--depth", "12"]
    code, text = run_command(["bratteli", *stage, "--verify-embedding"])
    assert code == 0, text
    assert "pass (4190209 matrix units, exact)" in text
    code, text = run_command(["ck", *stage, "--relative", "all"])
    assert code == 0, text
    assert f"algebra dimension: {(2 ** 12 - 1) ** 2} " in text
    code, text = run_command(["corner", *stage, "--vertex", "w_1"])
    assert code == 0, text
    assert f"dimension {(2 ** 11) ** 2} " in text


def test_verify_embedding_builds_only_the_bigger_stage(monkeypatch):
    built = []
    build = cli_io.build_ck_family

    def counted_build(g, spec):
        built.append(len(g.vertices))
        return build(g, spec)

    monkeypatch.setattr(cli_io, "build_ck_family", counted_build)
    code, text = run_command(["bratteli", "--family", "ladder2", "--depth",
                              "6", "--verify-embedding"])
    assert code == 0, text
    # 1+2+4+8+16 paths into stage 5's sink, squared
    assert "pass (961 matrix units, exact)" in text
    assert built == [len(ladder_family(2).stage(6).vertices)]


def test_failed_embedding_exits_4(monkeypatch):
    # a failed certificate is a bug in the package, not an answer to print
    def failing(small, rep_big):
        return EmbedReport(False, 9, ["9 units at w_5"])

    monkeypatch.setattr(cli_io, "embed_check", failing)
    for json_flag in ([], ["--json"]):
        code, text = run_command(["bratteli", "--family", "ladder2",
                                  "--depth", "6", "--verify-embedding",
                                  *json_flag])
        assert (code, text) == (
            4, "error: internal check failed: embedding of stage 5 into "
               "stage 6 fails: 9 units at w_5")


def test_chain_sizes_past_the_digit_limit_exit_3(monkeypatch):
    huge = 10 ** (sys.get_int_max_str_digits() + 1)
    chain = BratteliChain(CORNER, (1, 10, huge), (10, huge // 10),
                          corner="w_1", label="ladder10")
    monkeypatch.setattr(cli_io, "corner_chain", lambda sg, depth: chain)
    for json_flag in ([], ["--json"]):
        code, text = run_command(["bratteli", "--family", "ladder10",
                                  "--depth", "3", *json_flag])
        assert (code, text) == (
            3, "error: chain size has more than "
               f"{sys.get_int_max_str_digits()} digits")
