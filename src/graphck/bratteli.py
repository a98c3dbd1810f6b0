"""Bratteli chains of single full matrix blocks read off a staged family,
their direct limits, and an exact certificate of the stage-to-stage
embedding, read off the bigger model's Cuntz-Krieger relations; the
smaller stage enters only through its path counts.

Two chain shapes are supported:

* a **corner chain** — the compression of each stage's algebra to a fixed
  corner vertex; sizes are path counts from that vertex into the stage's
  sink, and consecutive sizes are related by the multiplication law
  ``d[i+1] == m[i] * d[i]``;
* a **tail chain** — the whole algebra of each stage of a family growing
  along an exclusive tail; every inclusion has multiplicity one and sizes
  are total path counts into the stage's sink.

Both chains are read off the family's deltas: one running count of paths
per vertex, extended over each plain delta (``graph_model.Step``) in time
proportional to it, so a chain of depth n costs the size of stage n and
builds no graph.  A delta that is not plain (a bundle landing on an older
vertex, an infinite bundle, a cycle, a bad id) builds its stage, with every
check a stage build makes, and the counts restart from it.  A chain is
admitted on the size of its last stage.

The limit is only named when the chain's own numbers certify it (constant
multiplicities at least two, or strictly increasing sizes); anything else
comes back ``Other`` with the failed criterion spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ChainError, SpineError, StageError
from .graph_model import (
    Graph,
    StagedGraph,
    Step,
    count_paths_ending,
    count_paths_from,
    sinks,
)
from .ck_matrix import MatrixRep

CORNER = "corner"
TAIL = "tail"


@dataclass(frozen=True)
class BratteliChain:
    """Sizes ``d`` and inclusion multiplicities ``m`` (``len(m) == len(d)-1``)
    of a chain of single full matrix blocks."""

    kind: str  # CORNER or TAIL
    d: tuple[int, ...]
    m: tuple[int, ...]
    corner: str | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (CORNER, TAIL):
            raise ChainError(f"unknown chain kind {self.kind!r}")
        if not self.d or any(x < 1 for x in self.d):
            raise ChainError("chain sizes must be positive")
        if len(self.m) != len(self.d) - 1:
            raise ChainError("need exactly one multiplicity per inclusion")
        if self.kind == CORNER:
            for i, mult in enumerate(self.m):
                if self.d[i + 1] != mult * self.d[i]:
                    raise ChainError(
                        f"corner law broken at step {i}: "
                        f"{self.d[i + 1]} != {mult} * {self.d[i]}")
        else:
            for i, mult in enumerate(self.m):
                if mult != 1:
                    raise ChainError("tail chains have multiplicity one")
                if self.d[i + 1] < self.d[i]:
                    raise ChainError(f"tail sizes must not shrink (step {i})")

    def __len__(self) -> int:
        return len(self.d)


def _spread(step: Step, counts: dict[str, int], fresh: int) -> dict[str, int]:
    """Extend path counts over one plain delta: each new vertex starts at
    ``fresh`` unless it is counted already, then each bundle, in the step's
    order, adds its source's count times its cardinality to its range.
    No count at an older vertex changes, so this is the whole update."""
    for v in step.vertices:
        counts.setdefault(v, fresh)
    for b in step.bundles:
        if c := counts.get(b.src):
            counts[b.dst] += c * b.cardinality.count
    return counts


def _built_unless_plain(sg: StagedGraph, n: int, step: Step) -> Graph | None:
    """None when stage n reads off its plain delta; otherwise stage n,
    built (with its checks).  Stage 0 is never built, so stage 1 is read
    only when stage 0's delta is plain too."""
    if step.bundles is None or n == 1 and sg.step(0).bundles is None:
        return sg.stage(n)
    return None


def corner_chain(sg: StagedGraph, depth: int,
                 corner_vertex: str | None = None) -> BratteliChain:
    """Chain of corner dimensions at a fixed vertex over stages 1..depth.

    Each stage must have a single sink.  The size at stage n is the literal
    number of paths from the corner vertex into that sink — the first stage
    contributes the trivial path, so the doubled ladder yields sizes 1, 2,
    4, 8, ... with every multiplicity 2.  Multiplicities are path counts
    from the old sink to the new one; if the product law fails, paths
    bypass the spine and the corner compressions do not form a chain of
    single blocks.

    Admitted on stage ``depth``'s size.  Counts from the corner are kept
    delta by delta, and the old sink's paths to the new one all lie in the
    new delta, so a plain delta costs its own size and builds nothing; a
    delta that is not plain builds its stage and counts afresh there.
    """
    if depth < 1:
        raise ChainError("corner chain needs depth >= 1")
    sg.grow(depth)
    if corner_vertex is None:
        prefix = sg.spine_prefix(1)
        if not prefix:
            raise ChainError(f"{sg.name}: no spine; pass corner_vertex")
        corner_vertex = prefix[0]
    counts = {corner_vertex: 1}  # paths from the corner, as far as read
    if (first := sg.step(0)).bundles is not None:
        _spread(first, counts, 0)
    d: list[int] = []
    mults: list[int] = []
    prev_sink: str | None = None
    for n in range(1, depth + 1):
        step = sg.step(n)
        g = _built_unless_plain(sg, n, step)
        if step.sinks != 1:
            raise ChainError(
                f"{sg.name}: stage {n} has {step.sinks} sinks; corner chains "
                "need exactly one")
        t = step.sink
        if n == 1 and corner_vertex not in sg.vertices(1):  # stages only grow
            raise ChainError(f"{sg.name}: corner vertex {corner_vertex!r} "
                             f"missing from stage {n}")
        if g is None:
            d.append(_spread(step, counts, 0)[t])
        else:
            counts = count_paths_from(g, corner_vertex)
            d.append(counts[t])
        if prev_sink is not None:
            mults.append(_spread(step, {prev_sink: 1}, 0)[t] if g is None
                         else count_paths_from(g, prev_sink)[t])
            if d[-1] != mults[-1] * d[-2]:
                raise ChainError(
                    f"{sg.name}: stage {n} corner size {d[-1]} is not "
                    f"{mults[-1]} * {d[-2]}; paths bypass the spine")
        prev_sink = t
    return BratteliChain(CORNER, tuple(d), tuple(mults),
                         corner=corner_vertex, label=sg.name)


def tail_chain(sg: StagedGraph, depth: int) -> BratteliChain:
    """Chain of whole-algebra dimensions of a family growing along an
    exclusive tail, over stages 1..depth.

    Each stage must have a single sink, and each old sink must emit exactly
    one single edge in the next stage, landing on the new sink — that is
    what makes every inclusion have multiplicity one.

    Admitted on stage ``depth``'s size.  Paths ending at each vertex are
    counted delta by delta, and an old sink's edges all lie in the new
    delta, so a plain delta costs its own size and builds nothing; a delta
    that is not plain builds its stage and counts afresh there.
    """
    if depth < 1:
        raise ChainError("tail chain needs depth >= 1")
    sg.grow(depth)
    counts: dict[str, int] = {}  # paths ending at each vertex, as far as read
    if (first := sg.step(0)).bundles is not None:
        _spread(first, counts, 1)
    d: list[int] = []
    prev_sink: str | None = None
    for n in range(1, depth + 1):
        step = sg.step(n)
        g = _built_unless_plain(sg, n, step)
        if step.sinks != 1:
            raise ChainError(
                f"{sg.name}: stage {n} has {step.sinks} sinks; tail chains "
                "need exactly one")
        t = step.sink
        if prev_sink is not None:
            if g is None:  # the old sink's bundles all lie in the delta
                edges = 0
                for b in step.bundles:
                    if b.src == prev_sink:
                        edges, out = edges + b.cardinality.count, b
            else:
                edges = g.out_degree(prev_sink)
                out = g.out_bundles(prev_sink)[0] if edges == 1 else None
            # a bundle holds at least one edge, so one edge is one bundle
            if edges != 1:
                raise SpineError(
                    f"{sg.name}: old sink {prev_sink!r} emits "
                    f"{edges if edges is not None else 'infinitely many'} "
                    f"edges at stage {n}; a tail extends by exactly one")
            if out.dst != t:
                raise ChainError(
                    f"{sg.name}: tail edge {out.id!r} lands on "
                    f"{out.dst!r}, not the stage-{n} sink {t!r}")
        # the stage's cached counts are read-only; later deltas extend a copy
        counts = (_spread(step, counts, 1) if g is None
                  else dict(count_paths_ending(g)))
        d.append(counts[t])
        prev_sink = t
    return BratteliChain(TAIL, tuple(d), tuple([1] * (len(d) - 1)),
                         label=sg.name)


# --- direct limits ------------------------------------------------------------


@dataclass(frozen=True)
class LimitSummary:
    """Named direct limit of a chain.

    ``kind`` is ``"UHF"``, ``"Compacts"``, or ``"Other"``.  For UHF limits
    ``supernatural`` maps each prime to its exponent, ``None`` standing for
    infinity.  ``Other`` names the certification that failed.
    """

    kind: str
    supernatural: dict[int, int | None] | None = None
    failed: str = ""

    def render(self) -> str:
        if self.kind == "UHF":
            parts = " ".join(
                f"{p}^{'infinity' if e is None else e}"
                for p, e in sorted(self.supernatural.items()))
            return f"UHF {parts}"
        if self.kind == "Compacts":
            return "Compacts"
        return f"Other: {self.failed}"


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def direct_limit_summary(chain: BratteliChain) -> LimitSummary:
    """Name the direct limit when the chain's numbers certify it.

    * Constant multiplicity m >= 2 over a suffix of at least two steps:
      UHF.  The supernatural number takes every prime of m to infinity,
      plus the leftover finite primes of the size where the constant
      suffix starts.
    * Multiplicity one throughout with sizes strictly increasing over a
      suffix of at least two steps: the compact operators.
    * Anything else: Other, with the failed criterion named.  Extrapolation
      from finitely many stages is only honest under one of the two
      regularity certificates above.
    """
    if len(chain.d) < 3:
        raise ChainError("need at least three chain nodes to extrapolate")
    m = chain.m
    # constant multiplicity >= 2 on a suffix of >= 2 steps
    for k in range(len(m) - 1):
        suffix = m[k:]
        if suffix[0] >= 2 and all(x == suffix[0] for x in suffix):
            sup: dict[int, int | None] = {p: None for p in _factor(suffix[0])}
            for p, e in _factor(chain.d[k]).items():
                if p not in sup:
                    sup[p] = e
            return LimitSummary("UHF", sup)
    if all(x == 1 for x in m):
        for k in range(len(m) - 1):
            tail = chain.d[k:]
            if all(a < b for a, b in zip(tail, tail[1:])):
                return LimitSummary("Compacts")
        return LimitSummary(
            "Other", failed="sizes not strictly increasing over at least "
                            "two consecutive steps")
    return LimitSummary(
        "Other", failed="multiplicities not constant (>= 2) over at least "
                        "two consecutive steps")


# --- exact embedding certificate ----------------------------------------------


@dataclass
class EmbedReport:
    ok: bool
    pairs_checked: int
    failures: list[str] = field(default_factory=list)


def embed_check(small: Graph, rep_big: MatrixRep) -> EmbedReport:
    """Certify the chain's inclusion law exactly, from the bigger model's
    relations and the smaller stage's path counts.

    The law: for every pair of paths a, b into a sink v of the smaller
    stage, the bigger model satisfies

        S_a S_b* == sum over edges e out of v of S_ae S_be*

    whenever v became regular, and keeps the unit unchanged whenever v
    stayed a sink.  ``pairs_checked`` counts the n_v**2 pairs at each v.

    Certificate: the relation pass (``verify_ck``'s) must find no failure
    in the bigger model.  Then p_v is diagonal, the domain of each s_e is
    the support of p_r(e) (ck1), and its range lies in the support of
    p_s(e) (ck2).  So every path a into v has domain supp p_v, and S_a is
    injective there: S_a S_b* = {(S_a c, S_b c) : c in supp p_v}.  The
    right-hand side is the same set taken over c in the out-edges' ranges,
    each position counted once per range holding c.  The two are equal
    exactly when those ranges cover supp p_v disjointly, which is the
    summation identity at v (``ck3_at``) and does not depend on (a, b):
    at v every pair holds, or every pair fails (one failure line per v).
    No smaller model is built, no path map composed, no unit formed.
    """
    big = rep_big.graph
    if not small.is_subgraph_of(big):
        raise StageError("embedding check needs the smaller model's graph "
                         "to be a subgraph of the bigger one")
    ck3_at = rep_big.checked().report.ck3_at
    ending = count_paths_ending(small)
    checked = 0
    failures: list[str] = []
    for v in sorted(sinks(small)):
        units = ending[v] ** 2
        checked += units
        if not (big.is_sink(v) or ck3_at[v]):
            failures.append(f"{units} units at {v}")
    return EmbedReport(not failures, checked, failures)
