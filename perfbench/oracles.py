"""Independent answer oracles.

Every expected answer the benchmark compares graphck's output against is
computed here, from the benchmark's own document dicts, by plain BFS/DFS
written for this file.  Nothing here imports graphck.

A document is the JSON shape graphck reads:
``{"vertices": [...], "edges": [{"id", "src", "dst", "cardinality"}]}``.
"""

from __future__ import annotations

from collections import deque


class Doc:
    """Adjacency view of a graph document."""

    def __init__(self, doc: dict):
        self.vertices: list[str] = list(doc["vertices"])
        self.out: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        self.into: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        for e in doc.get("edges", []):
            card = e.get("cardinality", "finite:1")
            self.out[e["src"]].append((e["dst"], card))
            self.into[e["dst"]].append((e["src"], card))

    def is_sink(self, v: str) -> bool:
        return not self.out[v]

    def is_infinite_emitter(self, v: str) -> bool:
        return any(not c.startswith("finite:") for _, c in self.out[v])

    def is_singular(self, v: str) -> bool:
        return self.is_sink(v) or self.is_infinite_emitter(v)

    def regular(self) -> list[str]:
        return [v for v in self.vertices if not self.is_singular(v)]

    def sinks(self) -> list[str]:
        return [v for v in self.vertices if self.is_sink(v)]

    def edge_count(self, v: str) -> int | None:
        """Edges out of ``v``; None when one of its bundles is infinite."""
        total = 0
        for _, c in self.out[v]:
            if not c.startswith("finite:"):
                return None
            total += int(c[len("finite:"):])
        return total


def _bfs(adj: dict[str, list[tuple[str, str]]], start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w, _ in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def reach_sets(d: Doc) -> dict[str, set[str]]:
    return {v: _bfs(d.out, v) for v in d.vertices}


def on_cycle(d: Doc, reach: dict[str, set[str]]) -> set[str]:
    """Vertices lying on some cycle: those a successor reaches back."""
    return {v for v in d.vertices
            if any(v in reach[w] for w, _ in d.out[v])}


def is_acyclic(d: Doc) -> bool:
    return not on_cycle(d, reach_sets(d))


def condition_l(d: Doc, reach: dict[str, set[str]]) -> bool:
    """Every cycle has an exit.  A cycle without one runs only through
    vertices that emit exactly one edge; follow those edges and look for
    a return to the start."""
    single = {v: d.out[v][0][0] for v in d.vertices if d.edge_count(v) == 1}
    for v0 in single:
        v, steps = single[v0], 0
        while v in single and v != v0 and steps <= len(d.vertices):
            v, steps = single[v], steps + 1
        if v == v0:
            return False
    return True


def simple(doc: dict) -> bool:
    """Condition (L), cofinality (every vertex reaches every vertex on a
    cycle) and every vertex reaching every singular vertex."""
    d = Doc(doc)
    reach = reach_sets(d)
    if not condition_l(d, reach):
        return False
    targets = on_cycle(d, reach) | {v for v in d.vertices if d.is_singular(v)}
    return all(t in reach[v] for v in d.vertices for t in targets)


def paths_into(d: Doc, target: str, source: str | None = None) -> int:
    """Number of paths ending at ``target`` (trivial path included), from
    ``source`` only when given.  Depth-first over out-edges, memoizing the
    paths from each vertex to ``target``; the graph must be acyclic with
    finite bundles."""
    memo: dict[str, int] = {}   # v -> paths from v to target

    def paths_from(v: str) -> int:
        # iterative post-order DFS over out-edges
        if v in memo:
            return memo[v]
        work = [(v, 0)]
        while work:
            u, i = work[-1]
            outs = d.out[u]
            if i < len(outs):
                work[-1] = (u, i + 1)
                w = outs[i][0]
                if w not in memo:
                    work.append((w, 0))
                continue
            work.pop()
            total = 1 if u == target else 0
            for w, c in outs:
                total += int(c[len("finite:"):]) * memo[w]
            memo[u] = total
        return memo[v]

    if source is not None:
        return paths_from(source)
    return sum(paths_from(v) for v in d.vertices)


def verdict(doc: dict) -> tuple[str, int | None]:
    """(verdict tag, finite dimension or None) for a finite graph."""
    d = Doc(doc)
    if not simple(doc):
        return "NotSimple", None
    if not is_acyclic(d):
        if any(e.get("cardinality") == "uncountable" for e in doc.get("edges", [])):
            return "OpenPurelyInfinite", None
        return "MultipleIrreps", None
    (sink,) = d.sinks()   # a simple finite acyclic graph has one sink
    return "UniqueIrrepCompacts", paths_into(d, sink)


def terminals(d: Doc, imposed: frozenset[str]) -> list[str]:
    return sorted(set(d.sinks()) | (set(d.regular()) - imposed))


def basis_size(doc: dict, imposed: frozenset[str]) -> int:
    d = Doc(doc)
    return sum(paths_into(d, t) for t in terminals(d, imposed))


def ck_dimension(doc: dict, imposed: frozenset[str]) -> int:
    """Relative algebra of a finite acyclic graph: one full matrix block
    per terminal vertex, of size the number of paths into it."""
    d = Doc(doc)
    return sum(paths_into(d, t) ** 2 for t in terminals(d, imposed))


def corner_dimension(doc: dict, v: str) -> tuple[int, bool]:
    """(dimension, full) of the corner at ``v`` of the full model."""
    d = Doc(doc)
    counts = [paths_into(d, t, v) for t in d.sinks()]
    return sum(c * c for c in counts), all(counts)


def pairs_formed(doc: dict, source: str | None = None) -> int:
    """Path pairs with a common range, over every range vertex, from
    ``source`` only when given: the operator count a rank-based dimension
    route forms."""
    d = Doc(doc)
    return sum(paths_into(d, t, source) ** 2 for t in d.vertices)


def lattice_size(doc: dict) -> int:
    """Number of saturated hereditary vertex sets, as the product over
    weakly connected components of a brute-force count per component
    (heredity and saturation never cross components).  Meant for graphs
    whose components are small."""
    d = Doc(doc)
    undirected = {v: [(w, "") for w, _ in d.out[v]] + [(w, "") for w, _ in d.into[v]]
                  for v in d.vertices}
    seen: set[str] = set()
    total = 1
    for v in d.vertices:
        if v in seen:
            continue
        comp = sorted(_bfs(undirected, v))
        seen.update(comp)
        bit = {u: 1 << i for i, u in enumerate(comp)}
        succ = [0] * len(comp)
        for i, u in enumerate(comp):
            for w, _ in d.out[u]:
                succ[i] |= bit[w]
        forced = [not d.is_singular(u) for u in comp]
        count = 0
        for mask in range(1 << len(comp)):
            ok = True
            for i in range(len(comp)):
                inside = mask >> i & 1
                if inside and succ[i] & ~mask:
                    ok = False      # an edge leaves the set
                    break
                if not inside and forced[i] and not succ[i] & ~mask:
                    ok = False      # a regular vertex it should absorb
                    break
            count += ok
        total *= count
    return total


# --- relative matrix models --------------------------------------------------


def _signed_partial_perm(entries: dict) -> tuple[set[int], set[int]] | None:
    """(column support, row support) of a matrix given as {(r, c): v}
    when every entry is +-1 and no row or column repeats; else None."""
    rows: set[int] = set()
    cols: set[int] = set()
    for (r, c), v in entries.items():
        if v not in (1, -1) or r in rows or c in cols:
            return None
        rows.add(r)
        cols.add(c)
    return cols, rows


def _diagonal_support(entries: dict) -> set[int] | None:
    """Support of a diagonal 0/1 projection, or None if it is not one."""
    out = set()
    for (r, c), v in entries.items():
        if r != c or v != 1:
            return None
        out.add(r)
    return out


def check_relative_model(doc: dict, imposed: frozenset[str], basis_dim: int,
                         projections: dict[str, dict],
                         isometries: dict[str, tuple[str, str, dict]],
                         gaps: dict[str, dict]) -> str | None:
    """Check a relative Cuntz-Krieger model given as sparse entry dicts.

    ``isometries`` maps edge id to (source, range, entries).  Returns None
    when every relation holds exactly, the summation identity holds at
    precisely the imposed vertices, every gap off that set is nonzero and
    equals ``p_v`` minus the edge ranges out of ``v``, and the basis has
    the path-count size; otherwise a description of the first failure.
    """
    d = Doc(doc)
    want_dim = basis_size(doc, imposed)
    if basis_dim != want_dim:
        return f"basis {basis_dim}, expected {want_dim}"
    proj: dict[str, set[int]] = {}
    for v in d.vertices:
        sup = _diagonal_support(projections[v])
        if sup is None or not sup:
            return f"p_{v} is not a nonzero diagonal projection"
        proj[v] = sup
    seen: set[int] = set()
    for v in d.vertices:
        if seen & proj[v]:
            return f"p_{v} is not orthogonal to the other vertex projections"
        seen |= proj[v]
    ranges: dict[str, set[int]] = {v: set() for v in d.vertices}
    for eid, (src, dst, entries) in isometries.items():
        form = _signed_partial_perm(entries)
        # s*s is a diagonal projection only for a signed partial permutation
        if form is None:
            return f"s_{eid}* s_{eid} is not a projection"
        cols, rows = form
        if cols != proj[dst]:
            return f"s_{eid}* s_{eid} != p_{dst}"
        if not rows <= proj[src]:
            return f"s_{eid} s_{eid}* is not under p_{src}"
        if ranges[src] & rows:
            return f"range of s_{eid} overlaps another edge range"
        ranges[src] |= rows
    for v in d.regular():
        held = ranges[v] == proj[v]
        if held != (v in imposed):
            return f"summation at {v}: held={held}, imposed={v in imposed}"
    want_gaps = set(d.regular()) - imposed
    if set(gaps) != want_gaps:
        return f"gaps at {sorted(gaps)}, expected {sorted(want_gaps)}"
    for v, entries in gaps.items():
        sup = _diagonal_support(entries)
        if sup is None or sup != proj[v] - ranges[v]:
            return f"gap at {v} is not p_{v} minus its edge ranges"
        if not sup:
            return f"gap at {v} is zero"
    return None


# --- staged families ----------------------------------------------------------

_RUNG_LETTERS = "efghijklmnopqrstuvwxyz"


def family_stage_doc(family: str, n: int) -> dict:
    """Stage ``n`` of a builtin family, built from the family's published
    definition: ``ladder<k>``, ``ray`` or ``forbidden_ladder`` (rungs of
    lengths 1 and 2)."""
    if family.startswith("ladder"):
        k = int(family[len("ladder"):])
        vs = [f"w_{i}" for i in range(1, n + 1)]
        edges = [(f"{_RUNG_LETTERS[j]}_{i}", f"w_{i}", f"w_{i + 1}")
                 for i in range(1, n) for j in range(k)]
    elif family == "ray":
        vs = [f"v_{i}" for i in range(1, n + 1)]
        edges = [(f"e_{i}", f"v_{i}", f"v_{i + 1}") for i in range(1, n)]
    elif family == "forbidden_ladder":
        vs = [f"v_{i}" for i in range(1, n + 1)]
        edges = []
        for i in range(1, n):
            vs.append(f"b{i}_1")
            edges += [(f"a{i}_0e", f"v_{i}", f"v_{i + 1}"),
                      (f"b{i}_0e", f"v_{i}", f"b{i}_1"),
                      (f"b{i}_1e", f"b{i}_1", f"v_{i + 1}")]
    else:
        raise ValueError(f"no stage oracle for family {family!r}")
    return {"vertices": vs,
            "edges": [{"id": e, "src": s, "dst": t, "cardinality": "finite:1"}
                      for e, s, t in edges]}


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def chain(family: str, depth: int) -> dict:
    """Known Bratteli chain over stages 1..depth: sizes ``d``,
    multiplicities ``m`` and the named limit.  A k-fold ladder's corner at
    w_1 has k^(i-1) paths at stage i; the ray's whole algebra at stage i is
    M_i."""
    if family.startswith("ladder"):
        k = int(family[len("ladder"):])
        d = [k ** i for i in range(depth)]
        m = [k] * (depth - 1)
        limit = "UHF " + " ".join(f"{p}^infinity" for p in _prime_factors(k))
    elif family == "ray":
        d = list(range(1, depth + 1))
        m = [1] * (depth - 1)
        limit = "Compacts"
    else:
        raise ValueError(f"{family!r} has no chain shape")
    return {"d": d, "m": m, "limit": limit}


def ladder_length(family: str, depth: int) -> int:
    """Longest doubled-path chain at stage ``depth``: every pair of spine
    vertices of a k-fold ladder (k >= 2) or of the forbidden ladder is
    joined by at least two paths; the ray has single paths only."""
    if family == "ray" or family == "ladder1":
        return 0
    return depth - 1


def staged_verdict(family: str) -> str:
    """Verdict the family's certificate supports at any depth."""
    if family == "ray":
        return "UniqueIrrepCompacts"        # countably infinite dimension
    if family.startswith("ladder"):
        return "MultipleIrreps"             # no sinks, no exclusive tail
    return "UnknownAtDepth"                 # no certificate either way
