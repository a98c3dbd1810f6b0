"""Graph documents and the command-line front end.

A graph document is JSON::

    {
      "name": "optional label",
      "vertices": ["v", "w"],
      "edges": [
        {"id": "e", "src": "v", "dst": "w", "cardinality": "finite:1"}
      ]
    }

``cardinality`` is ``finite:<n>`` (n >= 1 in ASCII decimal digits),
``aleph0``, or ``uncountable`` and defaults to ``finite:1``.  Parsing
builds the graph in one pass over the entries; only a document that pass
or the ``Graph`` constructor refuses is walked field by field, to report
the first offence by path (``edges[3].src``).  Emission is canonical, so
parse/emit round-trips.

Every line a report prints carries a bracketed tag: either ``computed``
(this run checked it directly) or the name of a registered structure fact;
the registry lives in :mod:`graphck.citations`.  ``--json`` reports are
written by ``render_json``, one recursive pass that gives the bytes of
``json.dumps(obj, indent=2, sort_keys=True)``: with an indent, ``json``
leaves its C encoder for a generator per container, and on a batch that
was a fair share of the command.  Emitted documents (the ``restrict`` and
``family`` trailers and ``--out`` files) and ``--export`` files still go
through ``json.dumps``.

Exit codes: 0 for an answer (including honest "unknown"), 2 for a
malformed document or command line, 3 for an operation used outside its
contract (cyclic graph where acyclic is needed, unknown vertex, blown
enumeration bound, ...), 4 for a failed internal cross-check (a bug in
the package, not in the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys
# graphck no longer uses a thread pool; the name stays bound because
# perfbench/tracer.py swaps cli_io.ThreadPoolExecutor while it traces
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

from .bratteli import (
    CORNER,
    TAIL,
    corner_chain,
    direct_limit_summary,
    embed_check,
    tail_chain,
)
from .citations import citation_text
from .ck_matrix import (
    RelativeSpec,
    algebra_dimension,
    block_decomposition,
    build_ck_family,
    corner,
    export_model,
    gap_projections,
    verify_ck,
)
from .classifier import is_af, ladder_length, naimark_verdict, row_class
from .errors import (
    ChainError,
    DocumentError,
    GraphBuildError,
    InternalCheckError,
    PreconditionError,
    decimal,
)
from .families import builtin_family, family_catalog
from .graph_model import (
    Cardinality,
    EdgeBundle,
    Graph,
    StagedGraph,
    cofinal,
    cycles_and_condition_l,
    singular_vertices,
    sinks,
)
from .ideal_lattice import (
    downstream,
    enumerate_saturated_hereditary,
    is_saturated,
    restrict_to,
)

# --- graph documents --------------------------------------------------------


_DOC_KEYS = frozenset(("name", "vertices", "edges"))
_EDGE_KEYS = frozenset(("id", "src", "dst", "cardinality"))
# a Cardinality is immutable, so one parse of each text is shared
_cardinality = functools.lru_cache(maxsize=256)(Cardinality.parse)


def parse_graph_document(doc: object) -> Graph:
    """Build a graph from a parsed JSON document in one pass.

    The pass checks each entry's keys and types and reads each cardinality
    text through a cache; the ``Graph`` constructor checks ids and
    endpoints.  A document either refuses goes to ``_walk_document``,
    which names the first offence by field path."""
    try:
        if type(doc) is dict and doc.keys() <= _DOC_KEYS:
            verts, edges = doc.get("vertices"), doc.get("edges", [])
            if (type(doc.get("name")) in (str, type(None))
                    and type(verts) is list and type(edges) is list
                    and all(type(v) is str and v for v in verts)):
                bundles = []
                for e in edges:
                    if type(e) is not dict or not e.keys() <= _EDGE_KEYS:
                        break
                    i, src, dst = e.get("id"), e.get("src"), e.get("dst")
                    text = e.get("cardinality", "finite:1")
                    if not (type(i) is str and i and type(src) is str and src
                            and type(dst) is str and dst and type(text) is str):
                        break
                    bundles.append(EdgeBundle(i, src, dst, _cardinality(text)))
                else:
                    return Graph(verts, bundles)
    except GraphBuildError:
        pass
    return _walk_document(doc)


def _walk_document(doc: object) -> Graph:
    """Validate and build a graph field by field, reporting the first
    offence by path; words the refusals of ``parse_graph_document``."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    stray = sorted(set(doc) - {"name", "vertices", "edges"})
    if stray:
        raise DocumentError(f"unknown document keys: {', '.join(stray)}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: must be a string")
    verts = doc.get("vertices")
    if not isinstance(verts, list):
        raise DocumentError("vertices: must be a list of vertex ids")
    seen: set[str] = set()
    for i, v in enumerate(verts):
        if not isinstance(v, str) or not v:
            raise DocumentError(f"vertices[{i}]: must be a nonempty string")
        if v in seen:
            raise DocumentError(f"vertices[{i}]: duplicate vertex {v!r}")
        seen.add(v)
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise DocumentError("edges: must be a list of edge objects")
    bundles: list[EdgeBundle] = []
    edge_ids: set[str] = set()
    for i, e in enumerate(edges):
        where = f"edges[{i}]"
        if not isinstance(e, dict):
            raise DocumentError(f"{where}: must be an object")
        estray = sorted(set(e) - {"id", "src", "dst", "cardinality"})
        if estray:
            raise DocumentError(f"{where}: unknown keys: {', '.join(estray)}")
        for k in ("id", "src", "dst"):
            val = e.get(k)
            if not isinstance(val, str) or not val:
                raise DocumentError(f"{where}.{k}: must be a nonempty string")
        if e["id"] in edge_ids:
            raise DocumentError(f"{where}.id: duplicate edge {e['id']!r}")
        edge_ids.add(e["id"])
        for k in ("src", "dst"):
            if e[k] not in seen:
                raise DocumentError(f"{where}.{k}: unknown vertex {e[k]!r}")
        card_text = e.get("cardinality", "finite:1")
        if not isinstance(card_text, str):
            raise DocumentError(f"{where}.cardinality: must be a string")
        try:
            card = Cardinality.parse(card_text)
        except GraphBuildError as exc:
            raise DocumentError(f"{where}.cardinality: {exc}") from None
        bundles.append(EdgeBundle(e["id"], e["src"], e["dst"], card))
    return Graph(verts, bundles)  # the checks above cover the constructor's


def emit_graph_document(g: Graph, name: str | None = None) -> dict:
    """Canonical JSON-ready form; ``parse_graph_document`` inverts it."""
    doc: dict = {}
    if name:
        doc["name"] = name
    doc["vertices"] = list(g.vertices)
    doc["edges"] = [{"id": b.id, "src": b.src, "dst": b.dst,
                     "cardinality": b.cardinality.encode()}
                    for b in g.bundles]
    return doc


def _check_target(path: str) -> None:
    """Refuse an output path whose directory is missing, before any work
    is spent on what would be written there."""
    try:
        pathlib.Path(path).parent.stat()
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None


def _write_file(path: str, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None


def load_graph_file(path: str) -> Graph:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: undecodable text: {exc}") from None
    try:
        doc = json.loads(text)
    except RecursionError:
        raise DocumentError(f"{path}: invalid JSON: nesting too deep") from None
    except ValueError as exc:  # a decode error, or an integer too long to read
        raise DocumentError(f"{path}: invalid JSON: {exc}") from None
    return parse_graph_document(doc)


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class ClaimLine:
    """One output line and the tag justifying it."""

    text: str
    tag: str = "computed"

    def __post_init__(self) -> None:
        citation_text(self.tag)  # unknown tags are bugs; fail loudly


@dataclass
class Report:
    command: str
    subject: str
    claims: list[ClaimLine] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    trailer: str = ""  # verbatim block (an emitted document) after the claims

    def say(self, text: str, tag: str = "computed") -> None:
        self.claims.append(ClaimLine(text, tag))

    def cite(self, tag: str) -> None:
        self.say(f"using: {citation_text(tag)}", tag)

    def to_obj(self) -> dict:
        obj: dict = {"command": self.command, "subject": self.subject,
                     "claims": [{"text": c.text, "tag": c.tag}
                                for c in self.claims]}
        obj.update(self.data)
        return obj

    def render_text(self) -> str:
        lines = [f"{self.command}: {self.subject}"]
        lines += [f"  {c.text}  [{c.tag}]" for c in self.claims]
        body = "\n".join(lines)
        return body + ("\n" + self.trailer if self.trailer else "")


def _fmt_set(items) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


_quote = json.encoder.encode_basestring_ascii


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(obj, out: list[str], pad: str) -> None:
    """Append the indented text of ``obj``; ``pad`` opens its own lines.
    Strings, ints, bools, None, lists, tuples and dicts with str keys are
    written here; anything else (a float, a dict with other keys, a type
    json refuses) goes to ``json.dumps``, indented to fit."""
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif obj is None or t is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        out.append("[")
        for i, item in enumerate(obj):
            out.append("," + inner if i else inner)
            _write_json(item, out, inner)
        out.append(pad + "]")
    elif t is dict and all(type(k) is str for k in obj):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            out.append(("," + inner if i else inner) + _quote(k) + ": ")
            _write_json(obj[k], out, inner)
        out.append(pad + "}")
    else:
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace(
            "\n", pad))


# --- subcommand bodies --------------------------------------------------------


def _cmd_analyze(g: Graph, label: str) -> Report:
    r = Report("analyze", label)
    total = (decimal(sum(b.cardinality.count for b in g.bundles), "edge count")
             if g.all_bundles_finite() else "infinitely many")
    r.say(f"vertices: {len(g.vertices)}; edge bundles: {len(g.bundles)}; "
          f"edges: {total}")
    rc = row_class(g)
    r.say(f"row class: {rc.value}")
    sk = sinks(g)
    emitters = set(singular_vertices(g)).difference(sk)
    r.say(f"sinks: {_fmt_set(sk)}; infinite emitters: {_fmt_set(emitters)}")
    cyc = cycles_and_condition_l(g)
    if not cyc.has_cycle:
        r.say("cycles: none")
    elif cyc.condition_l:
        r.say("cycles: present; every cycle has an exit")
    else:
        r.say(f"cycles: present; exitless cycle {cyc.witness.label()}")
    cof = cofinal(g)
    r.say(f"cofinal: {_yesno(cof.cofinal)}")
    af = is_af(g)
    r.say(f"approximately finite-dimensional: {_yesno(af)} "
          f"(the graph is {'acyclic' if af else 'cyclic'})", "af-iff-acyclic")
    r.data.update(vertices=len(g.vertices), bundles=len(g.bundles),
                  row_class=rc.value, af=af,
                  condition_l=cyc.condition_l, cofinal=cof.cofinal)
    return r


def _cmd_classify(subject: Graph | StagedGraph, label: str, depth: int) -> Report:
    r = Report("classify", label)
    verdict = naimark_verdict(subject, depth)
    if isinstance(subject, Graph):
        simp = verdict.simplicity
        if simp.simple:
            r.say("simple: yes — every cycle has an exit, the graph is "
                  "cofinal, and every vertex reaches every singular vertex",
                  "simplicity-criterion")
        else:
            r.say(f"simple: no — {simp.witness.describe()}",
                  "simplicity-criterion")
        r.say("routes agree: the reachability criterion and the "
              "ideal-lattice criterion both say "
              f"{_yesno(simp.simple)}")
        r.data["simple"] = simp.simple
    r.say(f"verdict: {verdict.headline()}",
          verdict.citations[0] if verdict.citations else "computed")
    r.say(f"reason: {verdict.reason}")
    for tag in verdict.citations[1:]:
        r.cite(tag)
    r.data.update(verdict=verdict.tag.value, dimension=verdict.dimension,
                  countably_infinite=verdict.countably_infinite)
    if verdict.depth is not None:
        r.data["depth"] = verdict.depth
    return r


def _cmd_ideals(g: Graph, label: str) -> Report:
    r = Report("ideals", label)
    sets = enumerate_saturated_hereditary(g)
    r.say(f"saturated hereditary vertex sets: {len(sets)}")
    shown = sets if len(sets) <= 64 else sets[:64]
    for s in shown:
        r.say(f"  {_fmt_set(s)}")
    if len(sets) > len(shown):
        r.say(f"  ... and {len(sets) - len(shown)} more (full list in --json)")
    r.cite("hereditary-restriction-ideal")
    r.data["sets"] = [sorted(s) for s in sets]
    return r


def _cmd_restrict(g: Graph, label: str, vertex: str, out: str | None) -> Report:
    r = Report("restrict", label)
    down = downstream(g, vertex)
    sub = restrict_to(g, down)
    r.say(f"downstream closure of {vertex!r}: {_fmt_set(down)}")
    r.say(f"restricted graph: {len(sub.vertices)} vertices, "
          f"{len(sub.bundles)} edge bundles")
    saturated = is_saturated(g, down)
    r.say(f"closure is saturated: {_yesno(saturated)}")
    if saturated:
        r.cite("hereditary-restriction-ideal")
    r.cite("downstream-restriction-countable")
    doc = emit_graph_document(sub, name=f"{label} downstream of {vertex}")
    r.data["graph"] = doc
    if out:
        _write_file(out, json.dumps(doc, indent=2) + "\n")
        r.say(f"wrote {out}")
    else:
        r.trailer = json.dumps(doc, indent=2)
    return r


def _cmd_ladder(g: Graph, label: str) -> Report:
    r = Report("ladder", label)
    n = ladder_length(g)
    r.say(f"doubled-path ladder length: {n}")
    r.cite("forbidden-doubled-ladder")
    r.data["ladder_length"] = n
    return r


def _parse_relative(text: str, g: Graph) -> RelativeSpec:
    if text == "all":
        spec = RelativeSpec.full(g)
    elif text == "none":
        spec = RelativeSpec.toeplitz()
    else:
        parts = [p.strip() for p in text.split(",")]
        if not all(parts):
            raise DocumentError(
                "--relative takes 'all', 'none', or a comma-separated "
                "vertex list")
        spec = RelativeSpec.of(parts)
    spec.validate(g)
    return spec


def _cmd_ck(g: Graph, label: str, relative: str, export_path: str | None) -> Report:
    r = Report("ck", label)
    spec = _parse_relative(relative, g)
    rep = build_ck_family(g, spec)
    imposed = _fmt_set(spec.imposed)
    r.say(f"relative spec: summation identity imposed at {imposed}")
    r.say(f"basis: {rep.dim} paths into sinks and off-list regular vertices")
    # the report prints only if every relation holds: gap_projections
    # raises the relation pass's first failure (exit 4), and a zero vertex
    # or gap projection fails that pass or the dimension certificate below
    held = sorted(v for v, ok in verify_ck(rep).ck3_at.items() if ok)
    r.say("relations hold exactly: s*s = p at the range, ss* <= p at the "
          "source, vertex projections and edge ranges mutually orthogonal; "
          f"the summation identity holds at {_fmt_set(held)} and nowhere else")
    gaps = gap_projections(rep)
    if gaps:
        r.say(f"gap projections at off-list regular vertices: "
              f"{_fmt_set(gaps)}")
    else:
        r.say("no gap projections: the summation identity is imposed at "
              "every regular vertex")
    r.say("every vertex projection and every gap projection is nonzero, "
          "so this model is faithful on the relative algebra",
          "relative-uniqueness")
    dim = algebra_dimension(rep)
    r.say(f"algebra dimension: {dim} (exact rank over the rationals)")
    blocks = None
    if spec.imposed == RelativeSpec.full(g).imposed:
        blocks = block_decomposition(rep)
        r.say("blocks: " + ", ".join(f"{b.terminal}: M_{b.size}"
                                     for b in blocks))
        if sum(b.size ** 2 for b in blocks) != dim:
            raise InternalCheckError(
                "block sizes disagree with the exact-rank dimension")
    r.data.update(basis=rep.dim, dimension=dim, relations_verified=True,
                  imposed=sorted(spec.imposed),
                  gaps={v: e.nonzero for v, e in sorted(gaps.items())})
    if blocks is not None:
        r.data["blocks"] = {b.terminal: b.size for b in blocks}
    if export_path:
        _write_file(export_path, json.dumps(export_model(rep), indent=2,
                                            sort_keys=True) + "\n")
        r.say(f"wrote model to {export_path}")
    return r


def _cmd_corner(g: Graph, label: str, vertex: str) -> Report:
    r = Report("corner", label)
    g.require_vertex(vertex)
    rep = build_ck_family(g, RelativeSpec.full(g))
    cs = corner(rep, vertex)
    r.say(f"corner at {vertex!r}: dimension {cs.dimension} "
          "(exact rank over the rationals)")
    r.say(f"corner is full: {_yesno(cs.full)}")
    if cs.full:
        r.cite("full-corner-morita")
    r.data.update(vertex=vertex, dimension=cs.dimension, full=cs.full)
    return r


def _cmd_bratteli(family_name: str, depth: int, verify_embedding: bool) -> Report:
    sg = builtin_family(family_name)
    r = Report("bratteli", f"family {family_name}, stages 1..{depth}")
    if sg.chain_kind == CORNER:
        chain = corner_chain(sg, depth)
        r.say(f"chain kind: corner at {chain.corner!r}")
    elif sg.chain_kind == TAIL:
        chain = tail_chain(sg, depth)
        r.say("chain kind: tail (whole algebras along the exclusive tail)")
    else:
        raise ChainError(f"family {family_name!r} does not define a chain shape")
    r.say(f"sizes d: {' '.join(decimal(x, 'chain size') for x in chain.d)}")
    r.say("multiplicities m: "
          f"{' '.join(decimal(x, 'chain multiplicity') for x in chain.m)}")
    limit = direct_limit_summary(chain)
    tag = {"UHF": "uniform-multiplicity-chain-uhf",
           "Compacts": "multiplicity-one-chain-compacts"}.get(limit.kind,
                                                              "computed")
    r.say(f"limit: {limit.render()}", tag)
    if chain.label == "ladder2" and chain.kind == CORNER:
        r.cite("doubled-ladder-corner-uhf")
    if verify_embedding:  # the limit above needs depth >= 3
        big = sg.stage(depth)
        emb = embed_check(sg.stage(depth - 1),
                          build_ck_family(big, RelativeSpec.full(big)))
        step = f"embedding of stage {depth - 1} into stage {depth}"
        if not emb.ok:
            raise InternalCheckError(
                f"{step} fails: {'; '.join(emb.failures)}")
        r.say(f"{step}: pass ({emb.pairs_checked} matrix units, exact)")
        r.data["embedding_ok"] = emb.ok
    r.data.update(kind=chain.kind, d=list(chain.d), m=list(chain.m),
                  limit=limit.render())
    if chain.corner is not None:
        r.data["corner"] = chain.corner
    return r


def _cmd_family(name: str | None, list_them: bool, depth: int,
                out: str | None) -> Report:
    if list_them or name is None:
        r = Report("family", "builtin staged families")
        for fam, blurb in family_catalog():
            r.say(f"{fam}: {blurb}")
        return r
    sg = builtin_family(name)
    g = sg.stage(depth)
    r = Report("family", f"{name}, stage {depth}")
    r.say(f"stage {depth}: {len(g.vertices)} vertices, "
          f"{len(g.bundles)} edge bundles")
    doc = emit_graph_document(g, name=f"{name} stage {depth}")
    r.data["graph"] = doc
    if out:
        _write_file(out, json.dumps(doc, indent=2) + "\n")
        r.say(f"wrote {out}")
    else:
        r.trailer = json.dumps(doc, indent=2)
    return r


# --- argument parsing and dispatch ---------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise DocumentError(message)


def _add_source(sp: argparse.ArgumentParser, batch: bool = False) -> None:
    sp.add_argument("--graph", metavar="FILE",
                    help="graph document (JSON file)")
    sp.add_argument("--family", metavar="NAME",
                    help="builtin staged family (see: family --list)")
    sp.add_argument("--depth", type=int, default=6, metavar="N",
                    help="stage to materialize for --family (default 6)")
    if batch:
        sp.add_argument("--batch", nargs="+", metavar="PATH",
                        help="run over several graph documents, one after "
                             "another; a directory stands for its .json files")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args``
    keeps no state between calls."""
    p = _Parser(prog="graphck",
                description="Decide simplicity, AF-ness, and unique-"
                            "irreducible-representation questions for "
                            "graph algebras, and build exact matrix models.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("analyze", help="structural overview")
    _add_source(sp, batch=True)

    sp = sub.add_parser("classify",
                        help="simplicity and the representation verdict")
    _add_source(sp, batch=True)

    sp = sub.add_parser("ideals", help="saturated hereditary vertex sets")
    _add_source(sp)

    sp = sub.add_parser("restrict",
                        help="restrict to the downstream closure of a vertex")
    _add_source(sp)
    sp.add_argument("--vertex", required=True, metavar="V")
    sp.add_argument("--out", metavar="FILE",
                    help="write the restricted document here")

    sp = sub.add_parser("ladder", help="longest doubled-path chain")
    _add_source(sp)

    sp = sub.add_parser("ck", help="build and verify the exact matrix model")
    _add_source(sp)
    sp.add_argument("--relative", default="all", metavar="SPEC",
                    help="'all', 'none', or comma-separated regular vertices "
                         "where the summation identity is imposed "
                         "(default: all)")
    sp.add_argument("--export", metavar="FILE",
                    help="write the model's matrices here (JSON)")

    sp = sub.add_parser("corner", help="compression by one vertex projection")
    _add_source(sp)
    sp.add_argument("--vertex", required=True, metavar="V")

    sp = sub.add_parser("bratteli",
                        help="finite-block chain of a staged family")
    sp.add_argument("--family", required=True, metavar="NAME")
    sp.add_argument("--depth", type=int, default=6, metavar="N")
    sp.add_argument("--verify-embedding", action="store_true",
                    help="certify the last inclusion exactly from the "
                         "bigger stage's relations; no unit is formed")

    sp = sub.add_parser("family",
                        help="materialize a builtin family stage as a document")
    sp.add_argument("name", nargs="?", metavar="NAME")
    sp.add_argument("--list", action="store_true", dest="list_them",
                    help="list the builtin families")
    sp.add_argument("--depth", type=int, default=6, metavar="N")
    sp.add_argument("--out", metavar="FILE")

    for cmd in sub.choices.values():
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output")
    return p


def _resolve_finite(args) -> tuple[Graph, str]:
    if getattr(args, "graph", None) and getattr(args, "family", None):
        raise DocumentError("pass only one of --graph and --family")
    if getattr(args, "graph", None):
        return load_graph_file(args.graph), args.graph
    if getattr(args, "family", None):
        sg = builtin_family(args.family)
        return sg.stage(args.depth), f"family {args.family}, stage {args.depth}"
    raise DocumentError("pass --graph FILE or --family NAME")


def _resolve_subject(args) -> tuple[Graph | StagedGraph, str]:
    """Graph file -> finite graph; family -> the staged family itself."""
    if getattr(args, "family", None) and not getattr(args, "graph", None):
        sg = builtin_family(args.family)
        if sg.constant:  # one fixed graph: classify it directly
            return sg.stage(0), f"family {args.family} (constant)"
        return sg, f"family {args.family}, depth {args.depth}"
    return _resolve_finite(args)


def _expand_batch(paths: list[str]) -> list[str]:
    """Directories expand to their .json files (sorted); files pass through."""
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            found = sorted(str(q) for q in pathlib.Path(p).glob("*.json"))
            if not found:
                raise DocumentError(f"{p}: no .json documents in directory")
            out.extend(found)
        else:
            out.append(p)
    return out


_FAILURES = (DocumentError, PreconditionError, InternalCheckError)


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and message for an error that ends a command or one
    document of a batch."""
    if isinstance(exc, InternalCheckError):
        return 4, f"internal check failed: {exc}"
    return (2 if isinstance(exc, DocumentError) else 3), str(exc)


def _run_batch(paths: list[str], body) -> tuple[int, list[Report]]:
    paths = _expand_batch(paths)

    def one(path: str) -> tuple[int, Report]:
        try:
            return 0, body(load_graph_file(path), path)
        except _FAILURES as exc:
            code, message = _failure(exc)
            bad = Report("error", path)
            bad.say(f"error: {message}")
            bad.data["error"] = message
            return code, bad

    # a plain loop: the documents are pure-Python CPU work, which threads
    # only serialize on the interpreter lock
    results = [one(path) for path in paths]
    return max(code for code, _ in results), [r for _, r in results]


def _dispatch(args) -> tuple[int, list[Report]]:
    cmd = args.command
    target = getattr(args, "export", None) or getattr(args, "out", None)
    if target:
        _check_target(target)
    if cmd == "analyze":
        if args.batch:
            return _run_batch(args.batch, _cmd_analyze)
        g, label = _resolve_finite(args)
        return 0, [_cmd_analyze(g, label)]
    if cmd == "classify":
        if args.batch:
            return _run_batch(args.batch,
                              lambda g, p: _cmd_classify(g, p, args.depth))
        subject, label = _resolve_subject(args)
        return 0, [_cmd_classify(subject, label, args.depth)]
    if cmd == "ideals":
        g, label = _resolve_finite(args)
        return 0, [_cmd_ideals(g, label)]
    if cmd == "restrict":
        g, label = _resolve_finite(args)
        return 0, [_cmd_restrict(g, label, args.vertex, args.out)]
    if cmd == "ladder":
        g, label = _resolve_finite(args)
        return 0, [_cmd_ladder(g, label)]
    if cmd == "ck":
        g, label = _resolve_finite(args)
        return 0, [_cmd_ck(g, label, args.relative, args.export)]
    if cmd == "corner":
        g, label = _resolve_finite(args)
        return 0, [_cmd_corner(g, label, args.vertex)]
    if cmd == "bratteli":
        return 0, [_cmd_bratteli(args.family, args.depth,
                                 args.verify_embedding)]
    if cmd == "family":
        return 0, [_cmd_family(args.name, args.list_them, args.depth,
                               args.out)]
    raise DocumentError(f"unknown command {cmd!r}")


def run_command(argv) -> tuple[int, str]:
    """Parse and run one command line; return (exit code, output text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # --help prints and exits on its own
        code = exc.code
        return (code if isinstance(code, int) else 0), ""
    except DocumentError as exc:
        return 2, f"error: {exc}"
    try:
        code, reports = _dispatch(args)
    except _FAILURES as exc:
        code, message = _failure(exc)
        return code, f"error: {message}"
    if getattr(args, "json", False):
        objs = [r.to_obj() for r in reports]
        text = render_json(objs[0] if len(objs) == 1 else objs)
    else:
        text = "\n\n".join(r.render_text() for r in reports)
    return code, text


def main() -> None:
    code, text = run_command(sys.argv[1:])
    if text:
        out = sys.stderr if code else sys.stdout
        enc = out.encoding or "utf-8"  # lone surrogates print escaped
        text = text.encode(enc, "backslashreplace").decode(enc)
        try:
            print(text, file=out)
            out.flush()
        except OSError as exc:  # the reader went away, as in `... | head`
            # what is still buffered goes to devnull at exit, quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            code = 2
    raise SystemExit(code)
