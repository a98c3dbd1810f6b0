"""Seeded input generators.  Every function takes a ``random.Random`` and
returns plain documents and argument lists; nothing here imports graphck,
so graphck only ever sees what these functions produce."""

from __future__ import annotations

import random

from . import oracles


def _card(rng: random.Random, infinite_share: float) -> str:
    r = rng.random()
    if r < infinite_share:
        return "aleph0" if rng.random() < 0.6 else "uncountable"
    return "finite:1" if rng.random() < 0.8 else rng.choice(("finite:2", "finite:3"))


def _doc(vertices: list[str], arcs: list[tuple[str, str, str]]) -> dict:
    return {"vertices": list(vertices),
            "edges": [{"id": f"e{i}", "src": s, "dst": t, "cardinality": c}
                      for i, (s, t, c) in enumerate(arcs)]}


def random_doc(rng: random.Random, n: int, density: float, shape: str,
               infinite_share: float = 0.08) -> dict:
    """One graph document on ``n`` vertices with about ``density`` edge
    bundles per vertex.

    Shapes: ``dag`` (random acyclic), ``one_sink`` (acyclic, every vertex
    reaches the single sink, finite bundles), ``strong`` (a Hamiltonian
    cycle plus extra bundles) and ``cyclic`` (random bundles, loops
    allowed, plus one planted cycle).
    """
    vs = [f"v{i}" for i in range(n)]
    order = vs[:]
    rng.shuffle(order)
    m = max(1, round(density * n))
    arcs: list[tuple[str, str, str]] = []
    if shape in ("dag", "one_sink"):
        inf = infinite_share if shape == "dag" else 0.0
        if shape == "one_sink":
            for i in range(n - 1):
                arcs.append((order[i], order[rng.randrange(i + 1, n)], _card(rng, 0.0)))
        while len(arcs) < m and n > 1:
            i, j = sorted(rng.sample(range(n), 2))
            arcs.append((order[i], order[j], _card(rng, inf)))
    elif shape == "strong":
        for i in range(n):
            arcs.append((order[i], order[(i + 1) % n], _card(rng, infinite_share)))
        while len(arcs) < m:
            arcs.append((rng.choice(vs), rng.choice(vs), _card(rng, infinite_share)))
    elif shape == "cyclic":
        k = rng.randint(1, min(4, n))
        ring = rng.sample(vs, k)
        for i in range(k):
            arcs.append((ring[i], ring[(i + 1) % k], _card(rng, infinite_share)))
        while len(arcs) < m:
            arcs.append((rng.choice(vs), rng.choice(vs), _card(rng, infinite_share)))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    rng.shuffle(arcs)
    return _doc(vs, arcs)


# --- survey ------------------------------------------------------------------

SHAPES = ("dag", "one_sink", "strong", "cyclic")

# Sparse stratum: (vertices, edge probability within a component, least
# lattice size).  Enumeration costs about lattice size x vertices, so the
# floors fall with the vertex count and every slot costs about the same;
# each document is redrawn until its saturated hereditary lattice lands
# within 10% above the floor (the probabilities make that common).  Every
# seed thus carries the same exponential load, spread evenly.
SPARSE_SLOTS = ((12, 0.25, 1536), (14, 0.4, 1440), (16, 0.5, 1024),
                (13, 0.3, 1536), (15, 0.45, 1152))
SPARSE_EVERY = 5          # one chunk in five carries a sparse document
SMALL_SIZES = (2, 3, 5, 6, 8, 9, 11)
SMALL_LATTICE_CAP = 16


def sparse_doc(rng: random.Random, n: int, p: float, floor: int) -> dict:
    """A graph on ``n`` vertices made of small components (1 to 4
    vertices, each forward pair joined with probability ``p``), whose
    lattice has between ``floor`` and 1.1 * ``floor`` elements."""
    best: tuple[float, dict] | None = None
    for _ in range(4000):
        vs = [f"v{i}" for i in range(n)]
        rng.shuffle(vs)
        arcs: list[tuple[str, str, str]] = []
        i = 0
        while i < n:
            comp = vs[i:i + min(n - i, rng.choice((1, 2, 2, 3, 3, 4)))]
            i += len(comp)
            for a in range(len(comp)):
                for b in range(a + 1, len(comp)):
                    if rng.random() < p:
                        arcs.append((comp[a], comp[b], _card(rng, 0.1)))
            if len(comp) > 1 and rng.random() < 0.15:     # a cycle now and then
                arcs.append((comp[-1], comp[0], "finite:1"))
        doc = _doc(sorted(vs, key=lambda v: int(v[1:])), arcs)
        size = oracles.lattice_size(doc)
        if floor <= size <= floor * 1.1:
            return doc
        miss = abs(size - floor * 1.05)
        if best is None or miss < best[0]:
            best = (miss, doc)
    return best[1]


def survey_corpus(rng: random.Random, chunks: int) -> list[list[tuple[str, dict]]]:
    """Chunks of 8 (stratum, document) pairs.  Every chunk holds one
    document of 21 to 30 vertices; every ``SPARSE_EVERY``-th chunk holds
    one sparse-stratum document; the rest are small documents, one of each
    size in ``SMALL_SIZES``, whose lattices stay within
    ``SMALL_LATTICE_CAP``.  Shapes rotate, densities are drawn."""
    out = []
    for c in range(chunks):
        chunk = [("large", random_doc(rng, rng.randint(21, 30), rng.uniform(0.3, 2.5),
                                      SHAPES[c % len(SHAPES)]))]
        sizes = list(SMALL_SIZES)
        if c % SPARSE_EVERY == 0:
            slot = SPARSE_SLOTS[c // SPARSE_EVERY % len(SPARSE_SLOTS)]
            chunk.append(("sparse", sparse_doc(rng, *slot)))
            sizes.pop(rng.randrange(len(sizes)))
        for i, n in enumerate(sizes):
            while True:
                doc = random_doc(rng, n, rng.uniform(0.3, 2.5),
                                 SHAPES[(c + i) % len(SHAPES)])
                if oracles.lattice_size(doc) <= SMALL_LATTICE_CAP:
                    break
            chunk.append(("small", doc))
        rng.shuffle(chunk)
        out.append(chunk)
    return out


# --- relfam ------------------------------------------------------------------

# (vertices, regular vertices) per slot; each graph is redrawn until its
# Toeplitz basis (every path) holds between 3n and 4n paths, so every seed
# sweeps models of the same sizes.
RELFAM_SLOTS = ((4, 3), (5, 3), (5, 4), (6, 4), (6, 5), (7, 5))


def relfam_doc(rng: random.Random, n: int, regular: int) -> dict:
    """An acyclic graph on ``n`` vertices with finite (multi-edge) bundles
    and exactly ``regular`` non-sink vertices."""
    while True:
        doc = random_doc(rng, n, rng.uniform(0.9, 1.6), "dag", infinite_share=0.0)
        d = oracles.Doc(doc)
        if len(d.regular()) != regular:
            continue
        paths = oracles.basis_size(doc, frozenset())
        if 3 * n <= paths <= 4 * n:
            return doc


def relfam_corpus(rng: random.Random, graphs: int) -> list[dict]:
    return [relfam_doc(rng, *RELFAM_SLOTS[i % len(RELFAM_SLOTS)])
            for i in range(graphs)]


# --- models ------------------------------------------------------------------


def model_doc(rng: random.Random) -> dict:
    """A single-sink acyclic multigraph of 6 to 8 vertices whose
    rank-based dimension forms between 4,000 and 8,000 path pairs."""
    while True:
        doc = random_doc(rng, rng.randint(6, 8), rng.uniform(1.2, 2.0), "one_sink")
        if 4000 <= oracles.pairs_formed(doc) <= 8000:
            return doc


def partial_spec(rng: random.Random, regular: list[str]) -> list[str]:
    """A nonempty proper subset of the regular vertices, sorted."""
    k = rng.randint(1, len(regular) - 1)
    return sorted(rng.sample(regular, k))


def models_round(rng: random.Random,
                 docs: list[tuple[str, dict]]) -> list[list[str]]:
    """One round of model commands.  The family commands are fixed, so
    every round costs the same; the seed draws the two documents, a corner
    vertex and a partial spec on them.  ``docs`` are two (path, document)
    pairs.

    The round is short (about 2.5 s on a 2-vCPU x86 host), so a run
    holds hundreds of samples.  Its costs are spread so that the median
    falls among three family commands of about equal cost (``ck`` on
    ``ladder3`` depth 5 and on ``forbidden_ladder`` depth 6), and the two
    costliest commands (``ck`` on ``forbidden_ladder`` depth 7 and
    ``bratteli`` on ``ladder2`` depth 7, about 0.5 s each) stand well
    clear of the rest, so the tail percentile (p95 at these sample counts)
    lands within their samples."""
    (path_a, doc_a), (path_b, doc_b) = docs
    sources_a = [v for v in doc_a["vertices"] if not oracles.Doc(doc_a).into[v]]
    return [
        ["ck", "--family", "forbidden_ladder", "--depth", "7", "--relative", "all"],
        ["ck", "--graph", path_a, "--relative", "all"],
        ["corner", "--family", "ladder2", "--depth", "8", "--vertex", "w_1"],
        ["ck", "--family", "forbidden_ladder", "--depth", "6", "--relative",
         "v_1,v_2,v_3,v_4,v_5"],
        ["bratteli", "--family", "ladder2", "--depth", "7", "--verify-embedding"],
        ["corner", "--graph", path_a, "--vertex", rng.choice(sources_a)],
        ["ck", "--family", "ladder3", "--depth", "5", "--relative", "all"],
        ["bratteli", "--family", "ray", "--depth", "40", "--verify-embedding"],
        ["ck", "--family", "ladder2", "--depth", "7", "--relative", "w_1,w_3,w_5"],
        ["bratteli", "--family", "ladder3", "--depth", "5", "--verify-embedding"],
        ["ck", "--graph", path_b, "--relative",
         ",".join(partial_spec(rng, oracles.Doc(doc_b).regular()))],
        ["corner", "--family", "ladder3", "--depth", "5", "--vertex", "w_1"],
        ["ck", "--family", "forbidden_ladder", "--depth", "6", "--relative", "all"],
        ["corner", "--family", "forbidden_ladder", "--depth", "6", "--vertex", "v_1"],
        ["corner", "--graph", path_b, "--vertex", rng.choice(doc_b["vertices"])],
    ]


# --- staged ------------------------------------------------------------------

# (family, command, depth): every family with every command it supports
# (the forbidden ladder has no chain shape), at depths spread over 50..400.
STAGED_COMMANDS = (
    ("ladder2", "classify", 400), ("ray", "ladder", 150),
    ("forbidden_ladder", "classify", 250), ("ladder3", "analyze", 50),
    ("ray", "analyze", 300), ("ladder2", "ladder", 100),
    ("ladder3", "bratteli", 250), ("forbidden_ladder", "analyze", 100),
    ("ray", "classify", 300), ("ladder3", "classify", 200),
    ("forbidden_ladder", "ladder", 150), ("ladder2", "bratteli", 150),
    ("ladder3", "ladder", 200), ("ray", "bratteli", 250),
    ("ladder2", "analyze", 200),
)


def staged_round(rng: random.Random) -> list[list[str]]:
    """One round of staged commands, each depth jittered by up to 2%."""
    out = []
    for fam, cmd, depth in STAGED_COMMANDS:
        depth += rng.randint(-depth // 50, depth // 50)
        out.append([cmd, "--family", fam, "--depth", str(depth)])
    return out
