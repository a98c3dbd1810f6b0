"""The workloads: how each builds its inputs from the seed, what one
operation is, and how its answer is checked against ``oracles``.

An operation calls graphck through module attributes looked up at call
time (``lib.cli_io.run_command``), so the traced run sees the wrapped
functions.  graphck receives only the generated documents and argv.
"""

from __future__ import annotations

import importlib
import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from . import corpus, oracles


@dataclass
class Op:
    """One closed-loop operation: ``run`` calls graphck and is timed;
    ``check`` returns None for a correct answer, else the reason."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    units: int = 1


@dataclass
class Plan:
    ops: list[Op]
    warmup: list[Op]
    round_len: int          # a run ends only after a whole round of ops
    trace_ops: int          # length of the op prefix the traced run covers
    notes: dict = field(default_factory=dict)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class _Wrong(Exception):
    """A CLI answer that cannot be checked: nonzero exit code."""


def _cli_json(result) -> object:
    code, text = result
    if code != 0:
        raise _Wrong(f"exit code {code}: {text[:200]}")
    return json.loads(text)


def _checked(fn: Callable[[object], str | None]) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        try:
            return fn(result)
        except _Wrong as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
    return check


def _cli_op(lib, kind: str, argv: list[str], expect: Callable[[object], str | None],
            units: int = 1) -> Op:
    argv = list(argv) + ["--json"]
    return Op(kind, lambda: lib.cli_io.run_command(argv),
              _checked(lambda result: expect(_cli_json(result))), units)


def _compare(got: dict, want: dict) -> str | None:
    for k, v in want.items():
        if got.get(k) != v:
            return f"{k}: got {str(got.get(k))[:80]}, expected {str(v)[:80]}"
    return None


# --- survey ------------------------------------------------------------------

SURVEY_CHUNKS = 120


def expected_classification(doc: dict) -> dict:
    tag, dim = oracles.verdict(doc)
    return {"simple": oracles.simple(doc), "verdict": tag, "dimension": dim}


def _survey_check(paths: list[str], docs: list[dict]):
    memo: list[dict] = []

    def expect(objs) -> str | None:
        if not memo:
            memo.extend(expected_classification(d) for d in docs)
        if not isinstance(objs, list) or len(objs) != len(paths):
            return "batch output is not one report per document"
        by_subject = {o.get("subject"): o for o in objs}
        for path, want in zip(paths, memo):
            got = by_subject.get(path)
            if got is None or got.get("command") != "classify":
                return f"{path}: no classify report"
            bad = _compare(got, want)
            if bad:
                return f"{path}: {bad}"
        return None
    return expect


def setup_survey(seed: int, workdir: Path, lib, chunks: int = SURVEY_CHUNKS) -> Plan:
    """One op is ``classify --batch`` over a chunk of 8 documents.  The
    verdict path users run over many graphs: simplicity route 3 (lattice
    enumeration) dominates, and the batch thread pool is exercised."""
    rng = random.Random(seed)
    ops = []
    strata: dict[str, int] = {}
    for ci, chunk in enumerate(corpus.survey_corpus(rng, chunks)):
        paths = [_write(workdir / f"c{ci:03d}_{k}.json", doc)
                 for k, (_, doc) in enumerate(chunk)]
        docs = [doc for _, doc in chunk]
        kind = "sparse_chunk" if any(s == "sparse" for s, _ in chunk) else "chunk"
        for s, _ in chunk:
            strata[s] = strata.get(s, 0) + 1
        ops.append(_cli_op(lib, kind, ["classify", "--batch", *paths],
                           _survey_check(paths, docs), units=len(paths)))
    warmup = [op for op in ops if op.kind == "chunk"][:1]
    return Plan(ops, warmup, round_len=corpus.SPARSE_EVERY,
                trace_ops=min(len(ops), 40),
                notes={"documents_per_stratum": strata})


# --- relfam ------------------------------------------------------------------

RELFAM_GRAPHS = 480


def _expand_edges(doc: dict) -> dict[str, tuple[str, str]]:
    """Edge id -> (source, range), by the document naming convention:
    a one-edge bundle's edge is the bundle id, else ``<bundle>#<k>``."""
    out = {}
    for e in doc["edges"]:
        n = int(e["cardinality"][len("finite:"):])
        ids = [e["id"]] if n == 1 else [f"{e['id']}#{k}" for k in range(n)]
        for eid in ids:
            out[eid] = (e["src"], e["dst"])
    return out


def _relfam_check(doc: dict, imposed: frozenset[str], edges: dict):
    def check(result) -> str | None:
        rep, report, gaps = result
        if report.failures or not report.ck3_exactly_at(imposed):
            return f"graphck reports failed relations: {report.failures[:3]}"
        if set(rep.edge_isometries) != set(edges):
            return "edge isometries do not match the document's edges"
        return oracles.check_relative_model(
            doc, imposed, rep.dim,
            {v: m.entries for v, m in rep.vertex_projections.items()},
            {eid: (s, t, rep.edge_isometries[eid].entries)
             for eid, (s, t) in edges.items()},
            {v: g.matrix.entries for v, g in gaps.items()})
    return _checked(check)


def _relfam_run(lib, g, imposed: frozenset[str]):
    ck = lib.ck_matrix
    rep = ck.build_ck_family(g, ck.RelativeSpec.of(imposed))
    return rep, ck.verify_ck(rep), ck.gap_projections(rep)


def setup_relfam(seed: int, workdir: Path, lib, graphs: int = RELFAM_GRAPHS) -> Plan:
    """One op is one relative model: ``build_ck_family``, ``verify_ck``,
    ``gap_projections``, for every subset of regular vertices of small
    acyclic multigraphs (the shape of acceptance criterion 4, with paths
    enumerated per model as the CLI does).  Model build and relation
    checks dominate; ``algebra_dimension`` is never called."""
    rng = random.Random(seed)
    ops = []
    for doc in corpus.relfam_corpus(rng, graphs):
        g = lib.cli_io.parse_graph_document(doc)
        regs = oracles.Doc(doc).regular()
        edges = _expand_edges(doc)
        for mask in range(1 << len(regs)):
            imposed = frozenset(v for i, v in enumerate(regs) if mask >> i & 1)
            ops.append(Op("model",
                          lambda g=g, imposed=imposed: _relfam_run(lib, g, imposed),
                          _relfam_check(doc, imposed, edges)))
    rng.shuffle(ops)
    return Plan(ops, ops[:20], round_len=1, trace_ops=min(len(ops), 3000),
                notes={"graphs": graphs, "models": len(ops)})


# --- models ------------------------------------------------------------------

MODELS_ROUNDS = 10
_UNITS = re.compile(r"\((\d+) matrix units, exact\)")


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _subject_doc(argv: list[str], docs: dict[str, dict]) -> dict:
    if "--graph" in argv:
        return docs[_arg(argv, "--graph")]
    return oracles.family_stage_doc(_arg(argv, "--family"), int(_arg(argv, "--depth")))


def expect_ck(argv: list[str], doc: dict):
    d = oracles.Doc(doc)
    rel = _arg(argv, "--relative")
    imposed = frozenset(d.regular() if rel == "all" else rel.split(","))

    def expect(obj) -> str | None:
        want = {"basis": oracles.basis_size(doc, imposed),
                "dimension": oracles.ck_dimension(doc, imposed),
                "relations_verified": True,
                "imposed": sorted(imposed),
                "gaps": {v: True for v in sorted(set(d.regular()) - imposed)}}
        if rel == "all":
            want["blocks"] = {t: oracles.paths_into(d, t) for t in d.sinks()}
        return _compare(obj, want)
    return expect


def expect_corner(argv: list[str], doc: dict):
    v = _arg(argv, "--vertex")

    def expect(obj) -> str | None:
        dim, full = oracles.corner_dimension(doc, v)
        return _compare(obj, {"vertex": v, "dimension": dim, "full": full})
    return expect


def expect_bratteli(argv: list[str]):
    fam, depth = _arg(argv, "--family"), int(_arg(argv, "--depth"))

    def expect(obj) -> str | None:
        want = oracles.chain(fam, depth)
        want["kind"] = "tail" if fam == "ray" else "corner"
        if "--verify-embedding" in argv:
            want["embedding_ok"] = True
            small = oracles.Doc(oracles.family_stage_doc(fam, depth - 1))
            units = sum(oracles.paths_into(small, t) ** 2 for t in small.sinks())
            texts = [c["text"] for c in obj.get("claims", [])]
            found = [int(m.group(1)) for t in texts for m in [_UNITS.search(t)] if m]
            if found != [units]:
                return f"embedding checked {found} matrix units, expected {units}"
        return _compare(obj, want)
    return expect


def _model_op(lib, argv: list[str], docs: dict[str, dict]) -> Op:
    cmd = argv[0]
    if cmd == "bratteli":
        expect = expect_bratteli(argv)
    else:
        doc = _subject_doc(argv, docs)
        expect = (expect_ck if cmd == "ck" else expect_corner)(argv, doc)
    subject = ("graph" if "--graph" in argv
               else f"{_arg(argv, '--family')}@{_arg(argv, '--depth')}")
    return _cli_op(lib, f"{cmd}:{subject}", argv, expect)


def setup_models(seed: int, workdir: Path, lib, rounds: int = MODELS_ROUNDS) -> Plan:
    """One op is one ``ck``, ``corner`` or ``bratteli --verify-embedding``
    command.  A few large full-spec models, where exact-rank dimensions,
    corners and embedding checks dominate and build/verify are minor."""
    rng = random.Random(seed)
    docs: dict[str, dict] = {}
    ops = []
    for r in range(rounds):
        pair = []
        for k in range(2):
            doc = corpus.model_doc(rng)
            path = _write(workdir / f"m{r:02d}_{k}.json", doc)
            docs[path] = doc
            pair.append((path, doc))
        ops += [_model_op(lib, argv, docs) for argv in corpus.models_round(rng, pair)]
    warm = [_model_op(lib, ["ck", "--family", "ladder2", "--depth", "4",
                            "--relative", "all"], docs)]
    per_round = len(ops) // rounds
    return Plan(ops, warm, round_len=per_round, trace_ops=per_round,
                notes={"ops_per_round": per_round})


# --- staged ------------------------------------------------------------------

STAGED_ROUNDS = 8
STAGE_DOCS = (("ladder2", 150), ("ray", 300), ("forbidden_ladder", 120))


def expect_staged(argv: list[str]):
    cmd, fam, depth = argv[0], _arg(argv, "--family"), int(_arg(argv, "--depth"))

    def expect(obj) -> str | None:
        if cmd == "classify":
            tag = oracles.staged_verdict(fam)
            want = {"verdict": tag, "dimension": None,
                    "countably_infinite": tag == "UniqueIrrepCompacts"}
            if tag == "UnknownAtDepth":
                want["depth"] = depth
            return _compare(obj, want)
        if cmd == "ladder":
            return _compare(obj, {"ladder_length": oracles.ladder_length(fam, depth)})
        if cmd == "analyze":
            doc = oracles.family_stage_doc(fam, depth)
            return _compare(obj, {"vertices": len(doc["vertices"]),
                                  "bundles": len(doc["edges"]),
                                  "row_class": "RowFinite", "af": True,
                                  "condition_l": True, "cofinal": True})
        return expect_bratteli(argv)(obj)
    return expect


def setup_staged(seed: int, workdir: Path, lib, rounds: int = STAGED_ROUNDS) -> Plan:
    """One op is one ``classify``, ``ladder``, ``analyze`` or ``bratteli``
    command on a family stage.  Stage materialization and its profile
    checks, quadratic in depth, dominate; ``classify --graph`` on stage
    documents runs ``is_simple`` on hundreds of vertices."""
    rng = random.Random(seed)
    stage_ops = []
    for fam, depth in STAGE_DOCS:
        depth += rng.randint(-depth // 20, depth // 20)
        doc = oracles.family_stage_doc(fam, depth)
        path = _write(workdir / f"{fam}_{depth}.json", doc)
        want = expected_classification(doc)
        stage_ops.append(_cli_op(lib, f"classify:graph:{fam}",
                                 ["classify", "--graph", path],
                                 lambda obj, want=want: _compare(obj, want)))
    ops = []
    for r in range(rounds):
        ops += [_cli_op(lib, f"{argv[0]}:{argv[2]}", argv, expect_staged(argv))
                for argv in corpus.staged_round(rng)]
        # two stage documents per round: an odd round length puts the
        # median and the tail percentile inside one command's samples
        ops += [stage_ops[(2 * r + k) % len(stage_ops)] for k in range(2)]
    warm = [_cli_op(lib, "analyze:ray", ["analyze", "--family", "ray", "--depth", "20"],
                    expect_staged(["analyze", "--family", "ray", "--depth", "20"]))]
    per_round = len(ops) // rounds
    return Plan(ops, warm, round_len=per_round, trace_ops=per_round,
                notes={"ops_per_round": per_round})


WORKLOADS = {
    "survey": setup_survey,
    "relfam": setup_relfam,
    "models": setup_models,
    "staged": setup_staged,
}


def graphck_modules() -> SimpleNamespace:
    """Import graphck afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == "graphck" or m.startswith("graphck.")]:
        del sys.modules[name]
    importlib.import_module("graphck")
    names = ("cli_io", "graph_model", "families", "ideal_lattice", "classifier",
             "ck_matrix", "exactmat", "bratteli", "errors")
    return SimpleNamespace(**{n: sys.modules[f"graphck.{n}"] for n in names})
