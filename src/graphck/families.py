"""Builtin staged families: ladders, the ray, doubled-path ladders, roses.

Family names accepted by :func:`builtin_family`:

* ``ladder<k>``       — spine w_1, w_2, ... with k parallel edges per rung
                        (``ladder2`` is the doubled ladder; rung i edges are
                        named e_i, f_i, g_i, ... in alphabet order)
* ``ray``             — v_1 -> v_2 -> ... single exclusive edges e_i
* ``forbidden_ladder[_a_b]`` — spine v_1, v_2, ... joined by two distinct
                        paths per rung, of lengths a and b (default 1 and 2)
* ``rose<n>``         — one vertex with n loops (constant family)
* ``uncountable_rose`` — one vertex with one uncountable loop bundle
"""

from __future__ import annotations

import re

from .errors import FamilyError
from .graph_model import (
    ALEPH0,
    UNCOUNTABLE,
    EdgeBundle,
    StagedGraph,
    UniformProfile,
    build_graph,
)

# letters used to name parallel rung edges, starting at 'e' as is customary
_RUNG_LETTERS = "efghijklmnopqrstuvwxyz"


def _rung_delta(vertex: str, parallel: int):
    """Deltas of a line <vertex>_1, <vertex>_2, ...: stage k adds
    <vertex>_k and, for k >= 2, ``parallel`` rung edges into it from
    <vertex>_{k-1}, named e_{k-1}, f_{k-1}, ..."""

    def delta(k: int) -> tuple[list[str], list[EdgeBundle]]:
        if k < 2:
            return [f"{vertex}_{k}"] if k else [], []
        src, dst = f"{vertex}_{k - 1}", f"{vertex}_{k}"
        return [dst], [EdgeBundle(f"{_RUNG_LETTERS[j]}_{k - 1}", src, dst)
                       for j in range(parallel)]

    return delta


def _rung_size(parallel: int):
    """``delta_size`` of ``_rung_delta(vertex, parallel)``."""
    return lambda k: 1 + parallel if k >= 2 else k


def ladder_family(parallel: int) -> StagedGraph:
    """Stage n: vertices w_1..w_n, with ``parallel`` edges from each w_i to
    w_{i+1}."""
    if parallel < 1:
        raise FamilyError("ladder needs at least one edge per rung")
    if parallel > len(_RUNG_LETTERS):
        raise FamilyError(f"ladder supports at most {len(_RUNG_LETTERS)} parallel edges")
    profile = UniformProfile(min_out_degree=parallel,
                             spine=lambda i: f"w_{i}",
                             acyclic_stages=True)
    return StagedGraph(f"ladder{parallel}", _rung_delta("w", parallel),
                       _rung_size(parallel), profile, chain_kind="corner")


def ray_family() -> StagedGraph:
    """Stage n: v_1 -> v_2 -> ... -> v_n, each edge its source's only one."""
    profile = UniformProfile(min_out_degree=1,
                             spine=lambda i: f"v_{i}",
                             spine_exclusive=True,
                             acyclic_stages=True)
    return StagedGraph("ray", _rung_delta("v", 1), _rung_size(1), profile,
                       chain_kind="tail")


def forbidden_ladder_family(len_a: int = 1, len_b: int = 2) -> StagedGraph:
    """Spine v_1, v_2, ... where consecutive vertices are joined by two
    distinct paths of lengths ``len_a`` and ``len_b`` through fresh
    intermediate vertices.  Stage k adds v_k, then the intermediate
    vertices and the edges of rung k-1 (path a before path b)."""
    if len_a < 1 or len_b < 1:
        raise FamilyError("forbidden_ladder path lengths must be >= 1")

    def delta(k: int) -> tuple[list[str], list[EdgeBundle]]:
        if k < 2:
            return [f"v_{k}"] if k else [], []
        vertices, bundles = [f"v_{k}"], []
        for tag, length in (("a", len_a), ("b", len_b)):
            mids = [f"{tag}{k - 1}_{j}" for j in range(1, length)]
            hops = [f"v_{k - 1}"] + mids + [f"v_{k}"]
            vertices += mids
            bundles += [EdgeBundle(f"{tag}{k - 1}_{j}e", hops[j], hops[j + 1])
                        for j in range(length)]
        return vertices, bundles

    def delta_size(k: int) -> int:
        # v_k, then len - 1 intermediate vertices and len edges per path
        return 2 * (len_a + len_b) - 1 if k >= 2 else k

    # the spine is only edge-joined when one of the two rung paths is direct
    spine = (lambda i: f"v_{i}") if min(len_a, len_b) == 1 else None
    profile = UniformProfile(min_out_degree=1, spine=spine, acyclic_stages=True)
    return StagedGraph(f"forbidden_ladder_{len_a}_{len_b}", delta, delta_size,
                       profile)


def rose_family(loops: int) -> StagedGraph:
    """One vertex with ``loops`` loops; every stage is the same graph."""
    if loops < 1:
        raise FamilyError("rose needs at least one loop")
    g = build_graph(["u"], [EdgeBundle(f"l_{j}", "u", "u")
                            for j in range(1, loops + 1)])
    return StagedGraph.fixed(f"rose{loops}", g)


def uncountable_rose_family() -> StagedGraph:
    """One vertex with a single uncountable loop bundle."""
    g = build_graph(["u"], [EdgeBundle("l", "u", "u", UNCOUNTABLE)])
    return StagedGraph.fixed("uncountable_rose", g)


def aleph0_rose_family() -> StagedGraph:
    """One vertex with one countably infinite loop bundle."""
    g = build_graph(["u"], [EdgeBundle("l", "u", "u", ALEPH0)])
    return StagedGraph.fixed("aleph0_rose", g)


_FAMILY_SPECS = [
    ("ladder<k>", "doubled/k-fold ladder; corner chain from w_1"),
    ("ray", "single infinite tail v_1 -> v_2 -> ...; tail chain"),
    ("forbidden_ladder[_a_b]", "spine joined by two distinct paths per rung"),
    ("rose<n>", "one vertex, n loops (constant)"),
    ("uncountable_rose", "one vertex, one uncountable loop bundle (constant)"),
    ("aleph0_rose", "one vertex, one countably infinite loop bundle (constant)"),
]


def family_catalog() -> list[tuple[str, str]]:
    return list(_FAMILY_SPECS)


def builtin_family(name: str) -> StagedGraph:
    """Parse a family spec string like ``ladder2`` or ``forbidden_ladder_1_2``."""
    m = re.fullmatch(r"ladder(\d+)", name)
    if m:
        return ladder_family(int(m.group(1)))
    if name == "ray":
        return ray_family()
    if name == "forbidden_ladder":
        return forbidden_ladder_family()
    m = re.fullmatch(r"forbidden_ladder_(\d+)_(\d+)", name)
    if m:
        return forbidden_ladder_family(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"rose(\d+)", name)
    if m:
        return rose_family(int(m.group(1)))
    if name == "uncountable_rose":
        return uncountable_rose_family()
    if name == "aleph0_rose":
        return aleph0_rose_family()
    raise FamilyError(f"unknown family {name!r}; see `family --list`")
