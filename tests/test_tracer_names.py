# The benchmark's tracer wraps graphck functions by module and name; a
# rename that would break `perfbench/run.py --trace 1` fails here.

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402

G1 = str(ROOT / "scripts" / "graphs" / "g1.json")


def test_tracer_installs_and_uninstalls_on_a_fresh_import():
    saved = {k: m for k, m in sys.modules.items()
             if k == "graphck" or k.startswith("graphck.")}
    try:
        lib = workloads.graphck_modules()  # a fresh graphck import
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
    finally:  # later tests keep the graphck their modules imported
        for k in [k for k in sys.modules
                  if k == "graphck" or k.startswith("graphck.")]:
            del sys.modules[k]
        sys.modules.update(saved)
