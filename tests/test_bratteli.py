# Chains of single matrix blocks, their limits, and the embedding check.

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphck import (
    BratteliChain,
    ChainError,
    EdgeBundle,
    InternalCheckError,
    IntMatrix,
    RelativeSpec,
    SpineError,
    StageError,
    StagedGraph,
    build_ck_family,
    build_graph,
    corner_chain,
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
from graphck import cli_io
from graphck.bratteli import CORNER, TAIL
from graphck.ck_matrix import PathMaps

import helpers
from helpers import graphs, product_embed_check, two_sinks


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
    sg = StagedGraph("anon", lambda n: ladder_family(2).stage(n))
    with pytest.raises(ChainError):
        corner_chain(sg, 3)
    chain = corner_chain(sg, 3, corner_vertex="w_1")
    assert chain.d == (1, 2, 4)


def test_corner_chain_rejects_multiple_sinks():
    sg = StagedGraph("pair", lambda n: two_sinks(), constant=True)
    with pytest.raises(ChainError):
        corner_chain(sg, 2, corner_vertex="v")


def test_corner_chain_depth_guard():
    with pytest.raises(ChainError):
        corner_chain(ladder_family(2), 0)


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
    def build(n):
        vs = [f"v_{i}" for i in range(1, n + 2)]
        bs = [EdgeBundle(f"e_{i}", f"v_{i}", f"v_{i + 1}") for i in range(1, n + 1)]
        if n >= 1:
            vs.append("z_sink")  # a second sink appears
            bs.append(EdgeBundle("z", "v_1", "z_sink"))
        return build_graph(vs, bs)

    sg = StagedGraph("forked", build)
    with pytest.raises(ChainError):
        tail_chain(sg, 2)


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
    def build(n):
        vs = [f"v_{i}" for i in range(1, n + 1)]
        bs = [EdgeBundle(f"e_{i}", f"v_{i}", f"v_{i + 1}") for i in range(1, n)]
        if n >= 3:
            vs.append("u")
            bs.append(EdgeBundle("f", "u", "v_3"))
        return build_graph(vs, bs)

    sg = StagedGraph("ray-plus-source", build)
    chain = tail_chain(sg, 5)
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
    def build(n):
        vs = ["a", "b"] + (["c"] if n >= 1 else [])
        bs = [EdgeBundle("e", "a", "b")] + \
            ([EdgeBundle("f", "a", "c")] if n >= 1 else [])
        return build_graph(vs, bs)

    sg = StagedGraph("side-growth", build)
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


# each tamper keeps every generator of ladder2's stage-4 model a partial
# permutation but breaks one relation the certificate rests on


def _empty_edge_domain(rep):
    rep.edge_isometries["e_2"] = IntMatrix.zero(rep.dim)


def _overlap_out_ranges(rep):
    rep.edge_isometries["f_2"] = IntMatrix.from_partial_perm(
        PathMaps(rep).edge("e_2"), rep.dim)


def _twist_vertex_projection(rep):
    i, j, *_ = PathMaps(rep).vertex["w_3"]
    rep.vertex_projections["w_3"] = IntMatrix.from_partial_perm(
        {i: j, j: i}, rep.dim)


@pytest.mark.parametrize("tamper, expected", [
    (_empty_edge_domain, "ck1 fails at edge e_2"),
    (_overlap_out_ranges, "edge ranges e_2, f_2 not orthogonal"),
    (_twist_vertex_projection, "vertex projection p_w_3 is not diagonal"),
], ids=["domain", "overlap", "diagonal"])
def test_embed_check_refuses_a_tampered_bigger_model(tamper, expected):
    sg = ladder_family(2)
    small, big = sg.stage(3), rep_of(sg.stage(4))
    tamper(big)
    assert all(m.is_partial_permutation()
               for m in [*big.vertex_projections.values(),
                         *big.edge_isometries.values()])
    assert verify_ck(big).failures[0] == expected
    with pytest.raises(InternalCheckError) as ei:
        embed_check(small, big)
    assert str(ei.value) == expected


def test_deep_embedding_composes_no_path_and_forms_no_unit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the embedding certificate composed a path "
                             "or formed a unit")

    monkeypatch.setattr(PathMaps, "__call__", refuse)
    monkeypatch.setattr(helpers, "matrix_unit", refuse)
    code, text = run_command(["bratteli", "--family", "ladder2", "--depth",
                              "12", "--verify-embedding"])
    assert code == 0, text
    assert "pass (4190209 matrix units, exact)" in text


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
