# Graph documents and the CLI: parsing diagnostics, reports, exit codes.

import contextlib
import io
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphck import (
    DocumentError,
    EdgeBundle,
    Graph,
    InternalCheckError,
    Report,
    build_graph,
    emit_graph_document,
    is_simple,
    load_graph_file,
    parse_graph_document,
    run_command,
)
from graphck import cli_io, ideal_lattice
from graphck.cli_io import ClaimLine
from graphck.citations import known_tags
from graphck.classifier import LADDER_WORK_BOUND
from graphck.graph_model import STAGE_WORK_BOUND
from graphck.ideal_lattice import BASIS_SIZE_BOUND

from helpers import g1, graphs, line, two_sinks

GRAPH_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "graphs"


def doc_of(**kw):
    base = {"vertices": ["v", "w"],
            "edges": [{"id": "e", "src": "v", "dst": "w"}]}
    base.update(kw)
    return base


# --- document parsing --------------------------------------------------------------


def test_round_trip_fixed():
    for g in (g1(), two_sinks()):
        assert parse_graph_document(emit_graph_document(g)) == g


def test_round_trip_with_name_and_infinite_bundles():
    doc = {"name": "demo", "vertices": ["v", "w"],
           "edges": [{"id": "e", "src": "v", "dst": "w",
                      "cardinality": "aleph0"},
                     {"id": "f", "src": "v", "dst": "w",
                      "cardinality": "uncountable"},
                     {"id": "g", "src": "w", "dst": "w",
                      "cardinality": "finite:3"}]}
    g = parse_graph_document(doc)
    assert emit_graph_document(g, name="demo") == doc


@settings(max_examples=80)
@given(graphs(infinite_ok=True))
def test_round_trip_property(g):
    assert parse_graph_document(emit_graph_document(g)) == g


def test_default_cardinality_is_single_edge():
    g = parse_graph_document(doc_of())
    assert g.bundles[0].cardinality.encode() == "finite:1"


@pytest.mark.parametrize("doc,needle", [
    ([1, 2], "document root"),
    (doc_of(extra=1), "unknown document keys: extra"),
    (doc_of(name=7), "name: must be a string"),
    ({"edges": []}, "vertices: must be a list"),
    ({"vertices": "vw"}, "vertices: must be a list"),
    ({"vertices": ["v", ""]}, "vertices[1]: must be a nonempty string"),
    ({"vertices": ["v", "v"]}, "vertices[1]: duplicate vertex 'v'"),
    (doc_of(edges={}), "edges: must be a list"),
    (doc_of(edges=["e"]), "edges[0]: must be an object"),
    (doc_of(edges=[{"id": "e", "src": "v", "dst": "w", "flavor": 1}]),
     "edges[0]: unknown keys: flavor"),
    (doc_of(edges=[{"id": "", "src": "v", "dst": "w"}]),
     "edges[0].id: must be a nonempty string"),
    (doc_of(edges=[{"id": "e", "src": "v"}]),
     "edges[0].dst: must be a nonempty string"),
    (doc_of(edges=[{"id": "e", "src": "v", "dst": "w"},
                   {"id": "e", "src": "w", "dst": "v"}]),
     "edges[1].id: duplicate edge 'e'"),
    (doc_of(edges=[{"id": "e", "src": "zz", "dst": "w"}]),
     "edges[0].src: unknown vertex 'zz'"),
    (doc_of(edges=[{"id": "e", "src": "v", "dst": "zz"}]),
     "edges[0].dst: unknown vertex 'zz'"),
    (doc_of(edges=[{"id": "e", "src": "v", "dst": "w", "cardinality": 3}]),
     "edges[0].cardinality: must be a string"),
    (doc_of(edges=[{"id": "e", "src": "v", "dst": "w",
                    "cardinality": "finite:0"}]),
     "edges[0].cardinality:"),
])
def test_parse_diagnostics(doc, needle):
    with pytest.raises(DocumentError) as ei:
        parse_graph_document(doc)
    assert needle in str(ei.value)


@pytest.mark.parametrize("text", ["finite: 2", "finite:1_0", "finite:\u0663",
                                  "finite:+3", "finite:2 ", "finite:-1"])
def test_finite_counts_other_than_ascii_decimal_exit_2(tmp_path, text):
    # each read as a count by int(); the fast pass, the walk, a single
    # document and a batch all refuse it with the walk's line
    doc = doc_of(edges=[{"id": "e", "src": "v", "dst": "w"},
                        {"id": "f", "src": "v", "dst": "w", "cardinality": text}])
    message = f"edges[1].cardinality: bad finite cardinality {text!r}"
    cli_io._cardinality.cache_clear()
    for parse in (parse_graph_document, cli_io._walk_document):
        with pytest.raises(DocumentError) as ei:
            parse(doc)
        assert str(ei.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_command(["classify", "--graph", str(path)]) == \
        (2, f"error: {message}")
    code, out = run_command(["classify", "--batch", str(path),
                             str(GRAPH_DIR / "g1.json"), "--json"])
    bad, good = json.loads(out)
    assert (code, bad["error"], good["verdict"]) == \
        (2, message, "UniqueIrrepCompacts")


def test_load_graph_file_errors(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_graph_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_graph_file(str(bad))


# documents the JSON reader refuses with something other than a decode error
UNREADABLE = {
    "undecodable": (b'{"vertices": ["v\xe9"], "edges": []}', "undecodable text: "),
    "deep": (b"[" * 200000 + b"]" * 200000, "invalid JSON: nesting too deep"),
    "long-int": (b'{"name": ' + b"7" * 5000 + b', "vertices": ["v"]}',
                 "invalid JSON: Exceeds the limit (4300 digits)"),
}


def _graphck(*argv):
    """Run the CLI in a fresh interpreter that reads and writes UTF-8."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "graphck", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src,
                               "PYTHONUTF8": "1"})


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_documents_exit_2_without_a_traceback(tmp_path, kind):
    raw, needle = UNREADABLE[kind]
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    alone = _graphck("classify", "--graph", str(bad))
    assert alone.returncode == 2 and alone.stdout == ""
    assert alone.stderr.startswith(f"error: {bad}: {needle}")
    assert alone.stderr.count("\n") == 1 and "Traceback" not in alone.stderr
    good = tmp_path / "good.json"
    good.write_text(json.dumps(emit_graph_document(g1())))
    batch = _graphck("classify", "--batch", str(bad), str(good), "--json")
    assert batch.returncode == 2 and "Traceback" not in batch.stderr
    refused, answered = json.loads(batch.stderr)
    assert refused["command"] == "error"
    assert refused["error"].startswith(f"{bad}: {needle}")
    assert answered["verdict"] == "UniqueIrrepCompacts"


def test_lone_surrogate_names_print_escaped(tmp_path):
    # a \u escape can name a vertex no output stream can encode
    p = tmp_path / "surrogate.json"
    p.write_text('{"vertices": ["\\ud800", "w"], "edges": '
                 '[{"id": "e", "src": "w", "dst": "\\ud800"}, '
                 '{"id": "f", "src": "w", "dst": "w"}]}')
    done = _graphck("classify", "--graph", str(p))
    assert (done.returncode, done.stderr) == (0, "")
    assert "vertex \\ud800 cannot reach the cycle f" in done.stdout


# --- the one-pass intake against the field-by-field walk -----------------------------

_JUNK = [None, 0, 7, 1.5, True, "", "x", [], ["v0"], {}, {"id": "e"}]
_BAD_CARDS = ["finite:0", "finite:-1", "finite:x", "finite:", "finite:1.5",
              "finite: 2", "finite:1_0", "finite:\u0663", "finite:" + "9" * 5000,
              "aleph1", "", "FINITE:1", "Aleph0"]


def _objects(doc):
    """The root and every edge object a mutation can edit."""
    if not isinstance(doc, dict):
        return []
    edges = doc.get("edges")
    if not isinstance(edges, list):
        return [doc]
    return [doc] + [e for e in edges if isinstance(e, dict)]


def _ids(doc, draw):
    """A list of ids in the document and an index into it, or None."""
    lists = [doc[k] for k in ("vertices", "edges")
             if isinstance(doc, dict) and isinstance(doc.get(k), list) and doc[k]]
    if not lists:
        return None
    ids = draw(st.sampled_from(lists))
    return ids, draw(st.integers(0, len(ids) - 1))


def _drop_key(draw, doc):
    if objs := [o for o in _objects(doc) if o]:
        o = draw(st.sampled_from(objs))
        del o[draw(st.sampled_from(sorted(o)))]


def _extra_key(draw, doc):
    if objs := _objects(doc):
        key = draw(st.sampled_from(["flavor", "weight", "edge", "src"]))
        draw(st.sampled_from(objs))[key] = draw(st.sampled_from(_JUNK))


def _wrong_type(draw, doc):
    if draw(st.booleans()) and (at := _ids(doc, draw)) is not None:
        ids, i = at
        ids[i] = draw(st.sampled_from(_JUNK))  # a vertex or edge entry
    elif objs := _objects(doc):
        o = draw(st.sampled_from(objs))
        keys = ["name", "vertices", "edges"] if o is doc else \
            ["id", "src", "dst", "cardinality"]
        o[draw(st.sampled_from(keys))] = draw(st.sampled_from(_JUNK))


def _empty_or_duplicate_id(draw, doc):
    if (at := _ids(doc, draw)) is not None:
        ids, i = at
        j = draw(st.integers(0, len(ids) - 1))
        if isinstance(ids[i], dict) and isinstance(ids[j], dict):
            ids[i]["id"] = draw(st.sampled_from(["", ids[j].get("id")]))
        else:
            ids[i] = draw(st.sampled_from(["", ids[j]]))


def _unknown_endpoint(draw, doc):
    if edges := _objects(doc)[1:]:
        e = draw(st.sampled_from(edges))
        e[draw(st.sampled_from(["src", "dst"]))] = "zz"


def _bad_cardinality(draw, doc):
    if edges := _objects(doc)[1:]:
        draw(st.sampled_from(edges))["cardinality"] = draw(
            st.sampled_from(_BAD_CARDS))


_MUTATIONS = [_drop_key, _extra_key, _wrong_type, _empty_or_duplicate_id,
              _unknown_endpoint, _bad_cardinality]


@st.composite
def mutated_documents(draw):
    g = draw(graphs(infinite_ok=True))
    doc = emit_graph_document(g, name=draw(st.sampled_from(["", "demo"])))
    for mutate in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1,
                                max_size=3)):
        mutate(draw, doc)
    if draw(st.sampled_from(range(10))) == 9:  # a root that is not an object
        doc = draw(st.sampled_from([[doc], [], "doc", 3, None]))
    return doc


def _intake(parse, doc):
    try:
        g = parse(doc)
    except DocumentError as exc:
        return "refused", str(exc)
    return "built", g.vertices, g.bundles


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
@example(doc_of(name=7))
@example(doc_of(edges={}))
@example({"vertices": ["v", 7]})
@example(doc_of(edges=[{"id": 7, "src": "v", "dst": "w"}]))
def test_one_pass_intake_agrees_with_the_walk(doc):
    assert _intake(parse_graph_document, doc) == \
        _intake(cli_io._walk_document, doc)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "doc.json")


@settings(max_examples=100, deadline=None)
@given(raw=st.one_of(
    st.binary(max_size=80),
    st.text(max_size=80),
    mutated_documents().map(lambda d: json.dumps(d).encode()),
    mutated_documents().map(
        lambda d: json.dumps(d, ensure_ascii=False).encode("utf-8")[:-1]),
))
def test_classify_ends_every_document_with_an_exit_code(fuzz_file, raw):
    # raw text and bytes, whole mutated documents, and truncated ones
    if isinstance(raw, str):
        raw = raw.encode("utf-8", "surrogatepass")
    with open(fuzz_file, "wb") as f:
        f.write(raw)
    code, text = run_command(["classify", "--graph", fuzz_file])
    assert code in (0, 2, 3) and "Traceback" not in text


# --- the --json writer against json.dumps ---------------------------------------------

# text with non-ASCII characters, lone surrogates and control characters
_JSON_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(["\ud800", "\udfff x", "\x00\x1f\x7f\n\t\"\\", "\u2014\u00e9",
                     "\U0001f600"]))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10 ** 4299, 10 ** 4299),  # within the int digit limit
    _JSON_TEXT)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_JSON_TEXT, kids, max_size=4)),
    max_leaves=24)


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
@example({"b": [], "a": {}, "c": [[], {}, ()], "": [None, True, False, 0]})
@example([1.5, float("nan"), {"x": -0.0}])  # floats go to json.dumps
@example({"k": {2: "a", 1: "b", True: None}, "j": [{None: 1}]})  # other keys too
@example(-(10 ** 4299))
def test_json_writer_writes_the_bytes_json_dumps_writes(obj):
    assert cli_io.render_json(obj) == _dumps(obj)


def test_json_writer_refuses_what_json_dumps_refuses():
    for obj in ([{"a": object()}], {"a": 1, 2: "b"}, [10 ** 5000]):
        with pytest.raises((TypeError, ValueError)) as want:
            _dumps(obj)
        with pytest.raises(want.type) as got:
            cli_io.render_json(obj)
        assert str(got.value) == str(want.value)


def _every_json_command():
    for path in sorted(GRAPH_DIR.glob("*.json")):
        g = ["--graph", str(path)]
        yield from (["analyze", *g], ["classify", *g], ["ideals", *g],
                    ["ladder", *g], ["ck", *g], ["ck", *g, "--relative", "none"])
        for v in json.loads(path.read_text())["vertices"]:
            yield from (["restrict", *g, "--vertex", v],
                        ["corner", *g, "--vertex", v])
    for cmd in ("analyze", "classify"):
        yield [cmd, "--batch", str(GRAPH_DIR)]
    yield from (["classify", "--family", "ladder2", "--depth", "7"],
                ["bratteli", "--family", "ladder2", "--depth", "5",
                 "--verify-embedding"],
                ["bratteli", "--family", "ray", "--depth", "6"],
                ["family", "forbidden_ladder", "--depth", "3"],
                ["family", "--list"])


def test_every_json_report_is_the_bytes_json_dumps_writes(monkeypatch):
    render, seen = cli_io.render_json, []
    monkeypatch.setattr(cli_io, "render_json",
                        lambda obj: seen.append(obj) or render(obj))
    answered = 0
    for argv in _every_json_command():
        seen.clear()
        code, text = run_command([*argv, "--json"])
        if code == 0:
            obj, = seen
            assert text == _dumps(obj), argv
            answered += 1
        else:  # a refused model (a cyclic graph) renders no report
            assert not seen and text.startswith("error: "), argv
    assert answered >= 40


# --- reports and claim lines -----------------------------------------------------------


def test_claim_lines_reject_unknown_tags():
    with pytest.raises(KeyError):
        ClaimLine("text", "made-up-tag")


def test_report_render_shape():
    r = Report("analyze", "demo")
    r.say("plain fact")
    r.say("tagged fact", "af-iff-acyclic")
    text = r.render_text()
    lines = text.splitlines()
    assert lines[0] == "analyze: demo"
    assert lines[1] == "  plain fact  [computed]"
    assert lines[2] == "  tagged fact  [af-iff-acyclic]"


def test_every_rendered_claim_carries_a_registered_tag():
    code, text = run_command(["analyze", "--graph", str(GRAPH_DIR / "g1.json")])
    assert code == 0
    tags = set(known_tags())
    for line in text.splitlines()[1:]:
        m = re.fullmatch(r"  .*  \[([a-z0-9-]+)\]", line)
        assert m, line
        assert m.group(1) in tags


# --- run_command: answers ------------------------------------------------------------


def test_classify_g1_text():
    code, text = run_command(["classify", "--graph", str(GRAPH_DIR / "g1.json")])
    assert code == 0
    assert "UniqueIrrepCompacts dim=2" in text
    assert "[af-unique-irrep-compacts]" in text
    assert "simple: yes" in text


def test_classify_loop_text():
    code, text = run_command(["classify", "--graph", str(GRAPH_DIR / "loop.json")])
    assert code == 0
    assert "NotSimple" in text
    assert "exitless cycle" in text


def test_classify_family_unknown_depth():
    code, text = run_command(["classify", "--family", "forbidden_ladder_2_2",
                              "--depth", "4"])
    assert code == 0
    assert "UnknownAtDepth(4)" in text


def test_classify_constant_family_goes_finite():
    code, text = run_command(["classify", "--family", "rose2"])
    assert code == 0
    assert "family rose2 (constant)" in text
    assert "MultipleIrreps" in text


def test_classify_cross_checks_routes_above_twenty_vertices(tmp_path):
    # a 22-vertex line plus an isolated sink: route 3 is computed on every
    # graph, whatever its size
    line = [f"v{i}" for i in range(22)]
    g = build_graph(line + ["z"], [EdgeBundle(f"e{i}", a, b)
                                   for i, (a, b) in enumerate(zip(line, line[1:]))])
    res = is_simple(g)
    assert res.route3 is False and res.route2 is False
    assert res.witness.vertex_set == {"z"}
    path = tmp_path / "line22.json"
    path.write_text(json.dumps(emit_graph_document(g)))
    code, text = run_command(["classify", "--graph", str(path)])
    assert code == 0
    assert "routes agree: the reachability criterion and the ideal-lattice " \
           "criterion both say no" in text
    assert "proper nontrivial saturated hereditary set {z}" in text
    assert "skipped" not in text


def test_bratteli_ladder2_json():
    code, text = run_command(["bratteli", "--family", "ladder2",
                              "--depth", "5", "--json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["d"] == [1, 2, 4, 8, 16]
    assert obj["m"] == [2, 2, 2, 2]
    assert obj["limit"] == "UHF 2^infinity"
    assert obj["corner"] == "w_1"
    assert obj["kind"] == "corner"


def test_bratteli_embedding_flag():
    code, text = run_command(["bratteli", "--family", "ladder2", "--depth", "4",
                              "--verify-embedding", "--json"])
    assert code == 0
    assert json.loads(text)["embedding_ok"] is True


def test_bratteli_ray_compacts():
    code, text = run_command(["bratteli", "--family", "ray", "--depth", "6"])
    assert code == 0
    assert "limit: Compacts" in text
    assert "[multiplicity-one-chain-compacts]" in text


def test_chains_are_admitted_on_their_last_stage():
    # the stages of ladder3 at depth 720 sum past the bound, the last one
    # (2,877 vertices and bundles) does not
    code, text = run_command(["bratteli", "--family", "ladder3", "--depth",
                              "720", "--json"])
    assert code == 0, text
    obj = json.loads(text)
    assert obj["d"][-1] == 3 ** 719 and obj["m"] == [3] * 719
    code, text = run_command(["bratteli", "--family", "ray", "--depth", "700",
                              "--verify-embedding"])
    assert code == 0, text
    assert "sizes d: 1 2 3 " in text and " 699 700 " in text
    # 699 paths into stage 699's sink, squared
    assert "pass (488601 matrix units, exact)" in text
    code, text = run_command(["bratteli", "--family", "ladder3", "--depth",
                              "100000"])
    assert (code, text) == (3, "error: ladder3: stage graphs would hold more "
                               f"than {STAGE_WORK_BOUND} vertices and bundles")


def test_analyze_uncountable_rose():
    code, text = run_command(["analyze", "--graph",
                              str(GRAPH_DIR / "uncountable_rose.json")])
    assert code == 0
    assert "row class: HasUncountableEmitter" in text
    assert "infinitely many" in text


def test_analyze_lists_sinks_and_infinite_emitters_apart(tmp_path):
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps({"vertices": ["s", "r", "i"], "edges": [
        {"id": "e", "src": "r", "dst": "s", "cardinality": "finite:2"},
        {"id": "f", "src": "i", "dst": "s", "cardinality": "aleph0"}]}))
    code, text = run_command(["analyze", "--graph", str(p)])
    assert code == 0
    assert "  sinks: {s}; infinite emitters: {i}  [computed]" in text.splitlines()


def test_ideals_two_sinks():
    code, text = run_command(["ideals", "--graph",
                              str(GRAPH_DIR / "two_sinks.json"), "--json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["sets"] == [[], ["w_1"], ["w_2"], ["v", "w_1", "w_2"]]


def test_ladder_subcommand():
    code, text = run_command(["ladder", "--family", "ladder2", "--depth", "5"])
    assert code == 0
    assert "doubled-path ladder length: 4" in text


def test_ck_text_report():
    code, text = run_command(["ck", "--graph", str(GRAPH_DIR / "g1.json")])
    assert code == 0
    assert "algebra dimension: 4" in text
    assert "blocks: w: M_2" in text
    assert ("relations hold exactly: s*s = p at the range, ss* <= p at the "
            "source, vertex projections and edge ranges mutually orthogonal; "
            "the summation identity holds at {v} and nowhere else  [computed]"
            in text)


def test_ck_toeplitz_gaps():
    code, text = run_command(["ck", "--graph", str(GRAPH_DIR / "g1.json"),
                              "--relative", "none", "--json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["dimension"] == 5
    assert obj["imposed"] == []
    assert obj["gaps"] == {"v": True}
    assert obj["relations_verified"] is True
    assert obj["claims"][2]["text"].endswith(
        "; the summation identity holds at {} and nowhere else")
    assert "blocks" not in obj


def test_corner_subcommand():
    code, text = run_command(["corner", "--graph",
                              str(GRAPH_DIR / "two_sinks.json"),
                              "--vertex", "v", "--json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["dimension"] == 2 and obj["full"] is True


def test_family_list():
    code, text = run_command(["family", "--list"])
    assert code == 0
    for name in ("ladder<k>", "ray", "forbidden_ladder[_a_b]", "rose<n>",
                 "uncountable_rose", "aleph0_rose"):
        assert name in text


def test_family_stage_document_round_trips():
    code, text = run_command(["family", "ray", "--depth", "4"])
    assert code == 0
    # the trailer after the claims is the document itself
    start = text.index("{")
    doc = json.loads(text[start:])
    g = parse_graph_document(doc)
    assert len(g.vertices) == 4
    from graphck import ray_family
    assert g == ray_family().stage(4)


def test_restrict_out_file(tmp_path):
    out = tmp_path / "sub.json"
    code, text = run_command(["restrict", "--graph",
                              str(GRAPH_DIR / "two_sinks.json"),
                              "--vertex", "w_1", "--out", str(out)])
    assert code == 0
    g = load_graph_file(str(out))
    assert g.vertices == ("w_1",)
    assert "closure is saturated: yes" in text


def test_ck_export_writes_model(tmp_path):
    out = tmp_path / "model.json"
    code, _ = run_command(["ck", "--graph", str(GRAPH_DIR / "g1.json"),
                           "--export", str(out)])
    assert code == 0
    model = json.loads(out.read_text())
    assert model["basis"] == ["w", "e"]
    assert set(model["p"]) == {"v", "w"}
    assert model["s"]["e"] == [[1, 0, 1]]


def test_output_is_deterministic():
    argv = ["classify", "--graph", str(GRAPH_DIR / "two_sinks.json"), "--json"]
    a = run_command(argv)
    b = run_command(argv)
    assert a == b


# --- run_command: failures -------------------------------------------------------------


def test_missing_source_is_usage_error():
    code, text = run_command(["classify"])
    assert code == 2
    assert "pass --graph FILE or --family NAME" in text


def test_both_sources_is_usage_error():
    code, text = run_command(["classify", "--graph", "x.json",
                              "--family", "ray"])
    assert code == 2
    assert "only one of" in text


def test_unknown_family():
    code, text = run_command(["classify", "--family", "moebius"])
    assert code == 2
    assert "unknown family 'moebius'" in text


def test_unknown_subcommand():
    code, text = run_command(["frobnicate"])
    assert code == 2
    assert "invalid choice" in text


def test_ck_on_cyclic_graph_is_precondition_error():
    code, text = run_command(["ck", "--graph", str(GRAPH_DIR / "loop.json")])
    assert code == 3
    assert text == "error: cyclic graph: no finite-dimensional model"


def test_restrict_unknown_vertex():
    code, text = run_command(["restrict", "--graph",
                              str(GRAPH_DIR / "g1.json"), "--vertex", "zz"])
    assert code == 3
    assert "zz" in text


def test_ck_bad_relative_spec():
    code, text = run_command(["ck", "--graph", str(GRAPH_DIR / "g1.json"),
                              "--relative", "w"])
    assert code == 3
    assert "must name regular vertices" in text


def test_ideals_bound_exceeded(monkeypatch):
    # two_sinks has four saturated hereditary sets
    monkeypatch.setattr(ideal_lattice, "LATTICE_SIZE_BOUND", 3)
    code, text = run_command(["ideals", "--graph",
                              str(GRAPH_DIR / "two_sinks.json")])
    assert code == 3
    assert text == "error: lattice exceeded 3 elements"
    # there is no vertex-count guard to set
    code, text = run_command(["ideals", "--graph",
                              str(GRAPH_DIR / "two_sinks.json"),
                              "--bound", "2"])
    assert code == 2
    assert text == "error: unrecognized arguments: --bound 2"


def _chain_doc(n: int, cardinality: str) -> dict:
    chain = [f"v{i}" for i in range(n)]
    return {"vertices": chain,
            "edges": [{"id": f"e{i}", "src": a, "dst": b,
                       "cardinality": cardinality}
                      for i, (a, b) in enumerate(zip(chain, chain[1:]))]}


def _stress_doc(shape: str) -> dict:
    if shape == "edgeless25":
        return {"vertices": [f"v{i}" for i in range(25)]}
    if shape == "edgeless100000":
        return {"vertices": [f"v{i}" for i in range(100_000)]}
    if shape == "comb1000":  # spine s0 -> ... -> s999, tooth si -> ti
        spine = [f"s{i}" for i in range(1000)]
        teeth = [f"t{i}" for i in range(1000)]
        arcs = list(zip(spine, spine[1:])) + list(zip(spine, teeth))
        return {"vertices": spine + teeth,
                "edges": [{"id": f"e{i}", "src": a, "dst": b}
                          for i, (a, b) in enumerate(arcs)]}
    if shape == "aleph0_chain2000":
        return _chain_doc(2000, "aleph0")
    if shape == "line2000":
        return _chain_doc(2000, "finite:1")
    doc = _chain_doc(2000, "finite:1")  # cycle2000
    doc["edges"].append({"id": "back", "src": "v1999", "dst": "v0"})
    return doc


@pytest.mark.parametrize("shape", ["edgeless25", "edgeless100000", "comb1000",
                                   "aleph0_chain2000", "line2000",
                                   "cycle2000"])
def test_ideals_on_large_graphs_answers_or_refuses_promptly(tmp_path, shape):
    doc = tmp_path / f"{shape}.json"
    doc.write_text(json.dumps(_stress_doc(shape)))
    t0 = time.perf_counter()
    code, text = run_command(["ideals", "--graph", str(doc)])
    assert time.perf_counter() - t0 < 5.0
    assert code in (0, 3), text
    assert "Traceback" not in text and "RecursionError" not in text
    if shape == "edgeless25":  # 2**25 sets
        assert text == "error: lattice exceeded 100000 elements"
    if shape in ("line2000", "cycle2000"):
        # saturation pulls the whole line in from its sink
        assert "saturated hereditary vertex sets: 2" in text


def test_dimension_past_the_int_string_limit_is_refused(tmp_path):
    # 2**14999 paths into the sink: 4,516 digits, past the interpreter's
    # default limit on converting an int to a string
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps(_chain_doc(15_000, "finite:2")))
    for argv in (["classify"], ["classify", "--json"], ["ck"]):
        code, text = run_command([*argv, "--graph", str(doc)])
        assert code in (0, 3), (argv, text)
        assert "Traceback" not in text
    assert text == (f"error: model basis would hold more than "
                    f"{BASIS_SIZE_BOUND} paths")


def test_analyze_refuses_an_unprintable_edge_count(tmp_path):
    # two bundles of 4,300 nines: a 4,301-digit edge count
    nines = "9" * 4300
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps(doc_of(edges=[
        {"id": "e", "src": "v", "dst": "w", "cardinality": f"finite:{nines}"},
        {"id": "f", "src": "v", "dst": "w", "cardinality": f"finite:{nines}"},
    ])))
    for argv in (["analyze"], ["analyze", "--json"]):
        code, text = run_command([*argv, "--graph", str(doc)])
        assert (code, text) == (
            3, f"error: edge count has more than "
               f"{sys.get_int_max_str_digits()} digits"), argv


def test_corner_checks_its_vertex_before_building_the_model(monkeypatch):
    def no_build(*args):
        raise AssertionError("the model was built before --vertex was checked")

    monkeypatch.setattr(cli_io, "build_ck_family", no_build)
    code, text = run_command(["corner", "--family", "ladder2", "--depth",
                              "18", "--vertex", "nope"])
    assert (code, text) == (3, "error: unknown vertex 'nope'")


def _run_capped(argv):
    """Run the CLI in a child process capped at 1 GiB of address space and
    30 s of CPU time."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (30, 30))

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "graphck", *argv],
                          capture_output=True, text=True, preexec_fn=limit,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})


def test_model_basis_past_the_bound_is_refused_before_it_is_built(tmp_path):
    # 3,000,001 basis paths do not fit in the 1 GiB the process is given
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps(doc_of(edges=[
        {"id": "e", "src": "v", "dst": "w", "cardinality": "finite:3000000"}])))
    message = f"error: model basis would hold more than {BASIS_SIZE_BOUND} paths"
    for argv in (["ck"], ["corner", "--vertex", "v"]):
        run = _run_capped([*argv, "--graph", str(doc)])
        assert run.returncode == 3, run.stderr
        assert run.stderr.strip() == message
        assert "Traceback" not in run.stderr + run.stdout


def test_long_line_models_are_certified_in_linear_space(tmp_path):
    # a 15,000-vertex line: the corner at its top and the full model's
    # dimension read the path counts, with no path map composed (composing
    # every suffix from the top would keep about n^2/2 edge ids)
    n = 15_000
    doc = tmp_path / "line.json"
    doc.write_text(json.dumps(emit_graph_document(line(n))))
    for argv, dimension in ((["corner", "--vertex", "v0"], 1),
                            (["ck", "--relative", "all"], n * n)):
        run = _run_capped([*argv, "--graph", str(doc), "--json"])
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["dimension"] == dimension


@pytest.mark.parametrize("argv, code, bound", [
    (["family", "forbidden_ladder", "--depth", "1000000000"], 3, STAGE_WORK_BOUND),
    (["classify", "--family", "ladder2", "--depth", "1000000000"], 3,
     STAGE_WORK_BOUND),
    (["bratteli", "--family", "ladder3", "--depth", "100000"], 3, STAGE_WORK_BOUND),
    (["ladder", "--family", "ray", "--depth", "1000000"], 3, STAGE_WORK_BOUND),
    (["ladder", "--family", "ray", "--depth", "3000"], 3, LADDER_WORK_BOUND),
    (["analyze", "--family", "rose2", "--depth", "100000000"], 0, None),
], ids=["family", "classify", "bratteli", "ladder", "ladder-walk", "rose"])
def test_deep_family_commands_end_with_their_exit_code(argv, code, bound):
    t0 = time.perf_counter()
    run = _run_capped(argv)
    assert time.perf_counter() - t0 < 20
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr + run.stdout
    if code:
        assert re.fullmatch(r"error: [^\n]*\n", run.stderr), run.stderr
        assert f"more than {bound} " in run.stderr  # names the bound
        assert run.stdout == ""
    else:
        assert run.stderr == "" and "row class" in run.stdout


def test_staged_classify_builds_one_stage_graph(monkeypatch):
    built = []
    init = Graph.__init__

    def counting(self, vertices, bundles):
        built.append(len(vertices))
        init(self, vertices, bundles)

    monkeypatch.setattr(Graph, "__init__", counting)
    code, text = run_command(["classify", "--family", "ladder2", "--depth", "400"])
    assert code == 0 and "verdict: MultipleIrreps" in text
    assert len(built) <= 2


@pytest.mark.parametrize("argv", [
    ["ck", "--graph", str(GRAPH_DIR / "g1.json"), "--export"],
    ["restrict", "--graph", str(GRAPH_DIR / "g1.json"), "--vertex", "v",
     "--out"],
    ["family", "ray", "--depth", "3", "--out"],
], ids=["ck", "restrict", "family"])
def test_unwritable_output_path_is_a_document_error(tmp_path, argv):
    out = tmp_path / "missing" / "out.json"
    code, text = run_command([*argv, str(out)])
    assert code == 2
    assert text.startswith(f"error: cannot write {out}: ")
    assert "No such file or directory" in text
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [
    ["ck", "--family", "ladder2", "--depth", "16", "--export"],
    ["ck", "--graph", str(GRAPH_DIR / "g1.json"), "--export"],
    ["restrict", "--graph", str(GRAPH_DIR / "g1.json"), "--vertex", "v",
     "--out"],
    ["family", "ray", "--depth", "3", "--out"],
], ids=["ck-family", "ck", "restrict", "family"])
def test_missing_output_directory_is_refused_before_any_work(
        tmp_path, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("work began before the output path was checked")

    for name in ("load_graph_file", "builtin_family"):
        monkeypatch.setattr(cli_io, name, no_work)
    out = tmp_path / "missing" / "out.json"
    code, text = run_command([*argv, str(out)])
    assert code == 2
    assert text == (f"error: cannot write {out}: [Errno 2] No such file or "
                    f"directory: '{out.parent}'")


def test_malformed_graph_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"vertices": ["v"],
                             "edges": [{"id": "e", "src": "v", "dst": "zz"}]}))
    code, text = run_command(["analyze", "--graph", str(p)])
    assert code == 2
    assert "edges[0].dst: unknown vertex 'zz'" in text


def test_help_exits_zero():
    code, text = run_command(["--help"])
    assert code == 0
    assert text == ""


def test_consecutive_commands_share_no_parser_state(monkeypatch):
    # each command line answered in a row, in one process, must answer as
    # it does alone in a fresh interpreter; --help wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["classify", "--bogus"],
             ["classify", "--graph", str(GRAPH_DIR / "g1.json")],
             ["--help"]]
    script = ("import contextlib, io, json, sys\n"
              "from graphck import run_command\n"
              "out = io.StringIO()\n"
              "with contextlib.redirect_stdout(out):\n"
              "    code, text = run_command(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, text, out.getvalue()]))\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    for argv in argvs:
        in_process = io.StringIO()
        with contextlib.redirect_stdout(in_process):
            code, text = run_command(argv)
        fresh = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert [code, text, in_process.getvalue()] == \
            json.loads(fresh.stdout), argv
    # --help exits through SystemExit; a usage error after it still reports
    assert run_command(argvs[0])[0] == 2


def _run_with_closed(stream, argv):
    """Run the CLI with one output pipe closed before it writes; return
    the exit code and what the other pipe received."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphck", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    closed, other = ((proc.stdout, proc.stderr) if stream == "stdout"
                     else (proc.stderr, proc.stdout))
    closed.close()  # the reader goes away before anything is written
    received = other.read().decode()
    other.close()
    return proc.wait(timeout=60), received


@pytest.mark.parametrize("argv", [
    ["family", "ladder2", "--depth", "300"],
    ["ck", "--family", "ladder2", "--depth", "8", "--json"],
], ids=["family", "ck-json"])
def test_closed_stdout_exits_2_without_a_traceback(argv):
    assert _run_with_closed("stdout", argv) == (
        2, "error: cannot write output: [Errno 32] Broken pipe\n")


def test_closed_stderr_exits_2():
    # the refusal goes to the closed stderr, and so would the write error
    argv = ["corner", "--graph", str(GRAPH_DIR / "g1.json"), "--vertex", "nope"]
    assert _run_with_closed("stderr", argv) == (2, "")


# --- batch mode -----------------------------------------------------------------------


def test_batch_over_directory(tmp_path):
    for name, g in (("a_first", g1()), ("b_second", two_sinks())):
        (tmp_path / f"{name}.json").write_text(
            json.dumps(emit_graph_document(g)))
    (tmp_path / "c_broken.json").write_text("{nope")
    code, text = run_command(["classify", "--batch", str(tmp_path), "--json"])
    assert code == 2  # worst per-file outcome wins
    objs = json.loads(text)
    assert [o["subject"].rsplit("/", 1)[-1] for o in objs] == \
        ["a_first.json", "b_second.json", "c_broken.json"]
    assert objs[0]["verdict"] == "UniqueIrrepCompacts"
    assert objs[1]["verdict"] == "NotSimple"
    assert objs[2]["command"] == "error"
    assert "invalid JSON" in objs[2]["error"]


def test_batch_explicit_files_keep_order(tmp_path):
    p1 = tmp_path / "z_late.json"
    p2 = tmp_path / "a_early.json"
    p1.write_text(json.dumps(emit_graph_document(g1())))
    p2.write_text(json.dumps(emit_graph_document(two_sinks())))
    code, text = run_command(["analyze", "--batch", str(p1), str(p2), "--json"])
    assert code == 0
    objs = json.loads(text)
    assert [o["subject"] for o in objs] == [str(p1), str(p2)]


def test_batch_empty_directory(tmp_path):
    code, text = run_command(["classify", "--batch", str(tmp_path)])
    assert code == 2
    assert "no .json documents" in text


def test_batch_reports_precondition_per_file(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "edges": []}))
    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps(emit_graph_document(g1())))
    code, text = run_command(["classify", "--batch", str(empty), str(fine),
                              "--json"])
    assert code == 3
    objs = json.loads(text)
    assert objs[0]["command"] == "error"
    assert objs[1]["verdict"] == "UniqueIrrepCompacts"


def _broken_check(*args):
    raise InternalCheckError("routes disagree")


def test_internal_check_failure_exits_4(tmp_path, monkeypatch):
    doc = tmp_path / "g1.json"
    doc.write_text(json.dumps(emit_graph_document(g1())))
    monkeypatch.setattr(cli_io, "algebra_dimension", _broken_check)
    code, text = run_command(["ck", "--graph", str(doc)])
    assert code == 4
    assert text == "error: internal check failed: routes disagree"


def test_batch_contains_internal_check_failure_per_file(tmp_path, monkeypatch):
    broken = tmp_path / "a_broken.json"
    broken.write_text(json.dumps(emit_graph_document(two_sinks())))
    fine = tmp_path / "b_fine.json"
    fine.write_text(json.dumps(emit_graph_document(g1())))
    verdict = cli_io.naimark_verdict

    def fails_on_two_sinks(subject, depth):
        if subject == two_sinks():
            _broken_check()
        return verdict(subject, depth)

    monkeypatch.setattr(cli_io, "naimark_verdict", fails_on_two_sinks)
    code, text = run_command(["classify", "--batch", str(tmp_path), "--json"])
    assert code == 4
    objs = json.loads(text)
    assert objs[0]["command"] == "error"
    assert objs[0]["error"] == "internal check failed: routes disagree"
    assert objs[1]["verdict"] == "UniqueIrrepCompacts"
