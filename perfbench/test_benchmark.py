"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_benchmark.py
    python3 perfbench/test_benchmark.py

A miniature of each workload must report every named metric, untraced
and traced; every oracle must count a deliberately wrong answer as a
failure; and the oracles must reproduce answers known by hand.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import oracles, run, workloads  # noqa: E402

MINIATURE = {
    "survey": {"chunks": 4},
    "relfam": {"graphs": 6},
    "models": {"rounds": 1},
    "staged": {"rounds": 1},
}


def _json_edit(edit):
    """Wrap an op's run so its CLI JSON answer is altered by ``edit``."""
    def perturb(result):
        code, text = result
        obj = json.loads(text)
        edit(obj)
        return code, json.dumps(obj)
    return perturb


def _wrong(op: workloads.Op, perturb) -> workloads.Op:
    return workloads.Op(op.kind, lambda: perturb(op.run()), op.check, op.units)


def _first(plan, prefix: str) -> workloads.Op:
    return next(op for op in plan.ops if op.kind.startswith(prefix))


def _tamper_isometry(result):
    rep, report, gaps = result
    eid = sorted(rep.edge_isometries)[0]
    m = rep.edge_isometries[eid]
    (pos, _), *_ = sorted(m.entries.items())
    m.entries[pos] = 2
    return rep, report, gaps


def _drop_gap(result):
    rep, report, gaps = result
    gaps = dict(gaps)
    gaps.pop(sorted(gaps)[0])
    return rep, report, gaps


class MiniatureRuns(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.results = Path(self.tmp.name)

    def tearDown(self) -> None:
        self.tmp.cleanup()

    def _run(self, workload: str, trace: int) -> dict:
        rec = run.execute(workload, 7, 0.3, trace, self.results,
                          sizes=MINIATURE[workload])
        self.assertEqual(rec["ops"]["failed"], 0, rec["failures"])
        self.assertGreaterEqual(rec["ops"]["attempted"], 1)
        return rec

    def test_every_end_to_end_metric(self) -> None:
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                rec = self._run(w, 0)
                self.assertEqual(set(rec["metrics"]), set(run.END_TO_END))
                for name, m in rec["metrics"].items():
                    self.assertEqual(m["unit"], run.END_TO_END[name])
                    self.assertGreater(m["value"], 0, name)

    def test_every_per_layer_metric(self) -> None:
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                rec = self._run(w, 1)
                self.assertEqual(set(rec["metrics"]), set(run.PER_LAYER))
                self.assertGreater(rec["metrics"]["trace_overhead_ratio"]["value"], 0)
                self.assertTrue(any(v["value"] > 0 for k, v in rec["metrics"].items()
                                    if k.endswith("_ms")))


class WrongAnswersFail(unittest.TestCase):
    """Each oracle, fed a deliberately wrong answer, counts the op failed."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = tempfile.TemporaryDirectory()
        cls.lib = workloads.graphck_modules()
        cls.plans = {}
        for w, sizes in MINIATURE.items():
            d = Path(cls.tmp.name) / w
            d.mkdir()
            cls.plans[w] = workloads.WORKLOADS[w](3, d, cls.lib, **sizes)

    @classmethod
    def tearDownClass(cls) -> None:
        cls.tmp.cleanup()

    def assertFails(self, op: workloads.Op) -> None:
        tally = run.Tally()
        tally.run(op)
        self.assertEqual(tally.attempted, 1)
        self.assertEqual(len(tally.failures), 1, "wrong answer counted correct")
        self.assertEqual(tally.units_ok, 0)

    def assertPasses(self, op: workloads.Op) -> None:
        tally = run.Tally()
        tally.run(op)
        self.assertEqual(tally.failures, [])

    def test_survey(self) -> None:
        op = self.plans["survey"].ops[0]
        self.assertPasses(op)

        def flip_verdict(objs):
            objs[0]["verdict"] = ("NotSimple" if objs[0]["verdict"] != "NotSimple"
                                  else "MultipleIrreps")

        def flip_simple(objs):
            objs[1]["simple"] = not objs[1]["simple"]

        def bump_dimension(objs):
            for o in objs:
                o["dimension"] = (o["dimension"] or 0) + 1

        for edit in (flip_verdict, flip_simple, bump_dimension):
            with self.subTest(edit=edit.__name__):
                self.assertFails(_wrong(op, _json_edit(edit)))

    def test_relfam(self) -> None:
        op = self.plans["relfam"].ops[0]
        self.assertPasses(op)
        self.assertFails(_wrong(op, _tamper_isometry))
        gapped = next(o for o in self.plans["relfam"].ops if o.run()[2])
        self.assertFails(_wrong(gapped, _drop_gap))

    def test_models(self) -> None:
        plan = self.plans["models"]

        def bump(key):
            def edit(obj):
                obj[key] = obj[key] + 1
            return edit

        def first_size(obj):
            obj["d"][0] += 1

        def embedding_units(obj):
            for c in obj["claims"]:
                c["text"] = c["text"].replace("matrix units", "units")

        cases = [("ck:ladder2", bump("dimension")), ("ck:graph", bump("basis")),
                 ("corner:", bump("dimension")), ("bratteli:", first_size),
                 ("bratteli:", embedding_units)]
        for prefix, edit in cases:
            with self.subTest(kind=prefix, edit=edit.__name__):
                op = _first(plan, prefix)
                self.assertPasses(op)
                self.assertFails(_wrong(op, _json_edit(edit)))

    def test_staged(self) -> None:
        plan = self.plans["staged"]

        def set_key(key, value):
            def edit(obj):
                obj[key] = value
            edit.__name__ = f"set_{key}"
            return edit

        cases = [("classify:ladder2", set_key("verdict", "UniqueIrrepCompacts")),
                 ("classify:graph", set_key("dimension", 3)),
                 ("ladder:", set_key("ladder_length", 1)),
                 ("analyze:", set_key("vertices", 1)),
                 ("bratteli:", set_key("limit", "Compacts"))]
        for prefix, edit in cases:
            with self.subTest(kind=prefix, edit=edit.__name__):
                op = _first(plan, prefix)
                self.assertPasses(op)
                self.assertFails(_wrong(op, _json_edit(edit)))

    def test_nonzero_exit_and_exceptions_fail(self) -> None:
        op = self.plans["staged"].ops[0]
        self.assertFails(_wrong(op, lambda r: (3, "error: refused")))

        def boom():
            raise RuntimeError("traceback out of graphck")
        self.assertFails(workloads.Op("x", boom, op.check))


class OraclesKnownAnswers(unittest.TestCase):
    """Oracle answers worked out by hand, independent of graphck."""

    def doc(self, vertices, edges):
        return {"vertices": vertices,
                "edges": [{"id": f"e{i}", "src": s, "dst": t, "cardinality": c}
                          for i, (s, t, c) in enumerate(edges)]}

    def test_simplicity_and_verdict(self) -> None:
        one_edge = self.doc(["v", "w"], [("v", "w", "finite:1")])
        self.assertEqual(oracles.verdict(one_edge), ("UniqueIrrepCompacts", 2))
        loop = self.doc(["u"], [("u", "u", "finite:1")])
        self.assertFalse(oracles.simple(loop))          # exitless cycle
        rose = self.doc(["u"], [("u", "u", "finite:2")])
        self.assertEqual(oracles.verdict(rose), ("MultipleIrreps", None))
        big = self.doc(["u"], [("u", "u", "uncountable")])
        self.assertEqual(oracles.verdict(big), ("OpenPurelyInfinite", None))
        two_sinks = self.doc(["a", "b", "c"], [("a", "b", "finite:1"),
                                               ("a", "c", "finite:1")])
        self.assertEqual(oracles.verdict(two_sinks), ("NotSimple", None))
        multi = self.doc(["a", "b", "c"], [("a", "b", "finite:2"),
                                           ("b", "c", "finite:3"),
                                           ("a", "c", "finite:1")])
        # paths into c: c, b->c (3), a->c (1 + 2 * 3)
        self.assertEqual(oracles.verdict(multi), ("UniqueIrrepCompacts", 11))

    def test_lattice(self) -> None:
        edgeless = self.doc(["a", "b", "c"], [])
        self.assertEqual(oracles.lattice_size(edgeless), 8)
        fork = self.doc(["a", "b", "c"], [("a", "b", "finite:1"),
                                          ("a", "c", "finite:1")])
        # {}, {b}, {c}, and {b, c} saturated up to everything
        self.assertEqual(oracles.lattice_size(fork), 4)

    def test_models_and_chains(self) -> None:
        l2 = oracles.family_stage_doc("ladder2", 3)
        self.assertEqual(oracles.ck_dimension(l2, frozenset({"w_1", "w_2"})), 7 ** 2)
        self.assertEqual(oracles.basis_size(l2, frozenset()), 1 + 3 + 7)
        self.assertEqual(oracles.corner_dimension(l2, "w_1"), (16, True))
        self.assertEqual(oracles.chain("ladder2", 4),
                         {"d": [1, 2, 4, 8], "m": [2, 2, 2], "limit": "UHF 2^infinity"})
        self.assertEqual(oracles.chain("ray", 3)["limit"], "Compacts")
        fl = oracles.family_stage_doc("forbidden_ladder", 3)
        self.assertEqual((len(fl["vertices"]), len(fl["edges"])), (5, 6))


if __name__ == "__main__":
    unittest.main()
