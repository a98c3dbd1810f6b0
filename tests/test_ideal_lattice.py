# Hereditary/saturated sets, closures, and the induced ideal lattice.

import itertools

import pytest
from hypothesis import given, settings

from graphck import (
    BoundExceededError,
    EdgeBundle,
    Graph,
    NotHereditaryError,
    UNCOUNTABLE,
    UnknownVertexError,
    downstream,
    enumerate_saturated_hereditary,
    finite,
    hereditary_closure,
    is_hereditary,
    is_saturated,
    restrict_to,
    saturate,
    saturated_hereditary_closure,
)

import helpers
from helpers import diamond, g1, graph_of, graph_and_subset, line, two_sinks


def brute_saturated_hereditary(g):
    # powerset filter — the definition, unoptimized
    out = []
    for r in range(len(g.vertices) + 1):
        for combo in itertools.combinations(g.vertices, r):
            s = frozenset(combo)
            if is_hereditary(g, s) and is_saturated(g, s):
                out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


# --- predicates -----------------------------------------------------------------


def test_hereditary_hand_cases():
    g = two_sinks()
    assert is_hereditary(g, {"w_1"})
    assert is_hereditary(g, {"w_1", "w_2"})
    assert not is_hereditary(g, {"v"})
    assert is_hereditary(g, set())
    assert is_hereditary(g, {"v", "w_1", "w_2"})


def test_saturated_hand_cases():
    g = two_sinks()
    assert is_saturated(g, {"w_1"})
    # both sinks inside forces the emitter in
    assert not is_saturated(g, {"w_1", "w_2"})
    g2 = g1()
    assert not is_saturated(g2, {"w"})
    assert is_saturated(g2, set())


def test_saturation_never_forces_singular_vertices():
    # infinite emitter with every listed successor inside stays outside
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", UNCOUNTABLE)])
    assert is_saturated(g, {"w"})
    assert saturate(g, frozenset({"w"})) == {"w"}


def test_predicates_reject_unknown_vertices():
    with pytest.raises(UnknownVertexError):
        is_hereditary(g1(), {"zz"})


# --- closures ---------------------------------------------------------------------


def test_hereditary_closure_hand_cases():
    g = diamond()
    assert hereditary_closure(g, {"t"}) == {"t", "l", "r", "b"}
    assert hereditary_closure(g, {"l"}) == {"l", "b"}
    assert hereditary_closure(g, set()) == set()


def test_saturate_requires_hereditary():
    with pytest.raises(NotHereditaryError):
        saturate(g1(), {"v"})


def test_saturate_two_sinks():
    g = two_sinks()
    assert saturate(g, frozenset({"w_1"})) == {"w_1"}
    assert saturate(g, frozenset({"w_1", "w_2"})) == {"v", "w_1", "w_2"}


def test_saturated_closure_composes():
    # diamond: {l} -> {l, b} hereditary, then b alone satisfies r, r and l
    # together satisfy t — saturation climbs all the way up
    g = diamond()
    assert saturated_hereditary_closure(g, {"l"}) == {"t", "l", "r", "b"}
    # two sinks: nothing above w_1 is forced (v still exits to w_2)
    assert saturated_hereditary_closure(two_sinks(), {"w_1"}) == {"w_1"}


@settings(max_examples=100)
@given(graph_and_subset())
def test_closure_laws(gs):
    g, sub = gs
    for close in (hereditary_closure, saturated_hereditary_closure):
        c = close(g, sub)
        assert c >= sub  # extensive
        assert close(g, c) == c  # idempotent
        assert is_hereditary(g, c)
    assert is_saturated(g, saturated_hereditary_closure(g, sub))


@settings(max_examples=300)
@given(graph_and_subset(max_vertices=7, max_bundles=12, infinite_ok=True))
def test_worklist_closure_matches_fixpoint(gs):
    g, sub = gs
    assert saturated_hereditary_closure(g, sub) == \
        saturate(g, hereditary_closure(g, sub))


@settings(max_examples=100)
@given(graph_and_subset())
def test_closures_monotone(gs):
    g, sub = gs
    for v in sub:
        smaller = sub - {v}
        assert hereditary_closure(g, smaller) <= hereditary_closure(g, sub)
        assert saturated_hereditary_closure(g, smaller) <= \
            saturated_hereditary_closure(g, sub)


@settings(max_examples=60)
@given(graph_and_subset())
def test_downstream_is_singleton_closure(gs):
    g, _ = gs
    for v in g.vertices:
        assert downstream(g, v) == hereditary_closure(g, [v])


# --- restriction --------------------------------------------------------------------


def test_restrict_keeps_ids_and_order():
    g = diamond()
    h = restrict_to(g, {"l", "b"})
    assert h.vertices == ("l", "b")
    assert [b.id for b in h.bundles] == ["e3"]
    with pytest.raises(NotHereditaryError):
        restrict_to(g, {"t"})


def test_restrict_to_whole_graph_is_identity():
    g = diamond()
    assert restrict_to(g, g.vertices) == g


def test_restrict_keeps_bundle_cardinalities():
    g = Graph(["v", "w"], [EdgeBundle("e", "v", "w", finite(3))])
    h = restrict_to(g, {"v", "w"})
    assert h.bundles[0].cardinality == finite(3)


# --- enumeration ---------------------------------------------------------------------


def test_enumerate_two_sinks():
    got = enumerate_saturated_hereditary(two_sinks())
    assert got == [frozenset(), frozenset({"w_1"}), frozenset({"w_2"}),
                   frozenset({"v", "w_1", "w_2"})]


def test_enumerate_matches_powerset_filter_exhaustively():
    for n, arcs in helpers.digraph_universe():
        g = graph_of(n, arcs)
        assert enumerate_saturated_hereditary(g) == \
            brute_saturated_hereditary(g), (n, arcs)


def test_enumerate_respects_vertex_bound():
    g = line(4)
    with pytest.raises(BoundExceededError):
        enumerate_saturated_hereditary(g, bound=3)
    big = Graph([f"v{i}" for i in range(21)], [])
    with pytest.raises(BoundExceededError):
        enumerate_saturated_hereditary(big)  # default bound is 20


def test_enumerate_empty_graph():
    assert enumerate_saturated_hereditary(Graph([], [])) == [frozenset()]


# --- ideal generator sets --------------------------------------------------------------


def test_ideal_generators_are_saturated_hereditary():
    g = two_sinks()
    for generators in ({"w_1"}, set(), g.vertices):
        assert is_hereditary(g, generators) and is_saturated(g, generators)
    assert not is_hereditary(g, {"v"})
    # hereditary, not saturated: v's successors all lie inside
    assert is_hereditary(g, {"w_1", "w_2"})
    assert not is_saturated(g, {"w_1", "w_2"})
