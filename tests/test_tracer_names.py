# The benchmark's tracer wraps graphck functions by module and name; a
# rename that would break `perfbench/run.py --trace 1` fails here.

import contextlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402

G1 = str(ROOT / "scripts" / "graphs" / "g1.json")


@contextlib.contextmanager
def _fresh_graphck():
    """A fresh graphck import for the test; later tests keep the graphck
    their modules imported."""
    saved = {k: m for k, m in sys.modules.items()
             if k == "graphck" or k.startswith("graphck.")}
    try:
        yield workloads.graphck_modules()
    finally:
        for k in [k for k in sys.modules
                  if k == "graphck" or k.startswith("graphck.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def test_tracer_installs_and_uninstalls_on_a_fresh_import():
    with _fresh_graphck() as lib:
        parse = lib.cli_io.parse_graph_document
        t = tracer.Tracer()
        t.install(lib)  # every traced name must exist where it is looked up
        try:
            assert lib.cli_io.parse_graph_document is not parse
            code, _ = lib.cli_io.run_command(["classify", "--graph", G1])
        finally:
            t.uninstall()
        assert code == 0
        assert {"cli_io.parse", "classifier.is_simple",
                "graph_model.route2"} <= {s[0] for s in t.spans}
        assert t.counts["cli_io.docs_parsed"] == 1
        assert lib.cli_io.parse_graph_document is parse


def test_tracer_sees_every_model_layer():
    # the per-layer numbers of the model commands read these spans and
    # this count; a rename would zero them without failing a run
    with _fresh_graphck() as lib:
        t = tracer.Tracer()
        t.install(lib)
        try:
            code, text = lib.cli_io.run_command(
                ["ck", "--graph", G1, "--relative", "all", "--json"])
            assert code == 0, text
            basis = json.loads(text)["basis"]
            assert t.counts["ck_matrix.basis_total"] == basis
            code, text = lib.cli_io.run_command(
                ["corner", "--graph", G1, "--vertex", "v"])
            assert code == 0, text
            assert t.counts["ck_matrix.basis_total"] == 2 * basis
            code, text = lib.cli_io.run_command(
                ["bratteli", "--family", "ladder2", "--depth", "5",
                 "--verify-embedding"])
            assert code == 0, text
        finally:
            t.uninstall()
        # stage 5's model: the 2^5 - 1 paths into w_5
        assert t.counts["ck_matrix.basis_total"] == 2 * basis + 31
        assert {"ck_matrix.build", "ck_matrix.verify", "ck_matrix.dimension",
                "ck_matrix.corner", "bratteli.embed"} <= {s[0] for s in t.spans}
