# The example scripts run end to end against the package's public API.

import importlib.util
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import graphck

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_scripts_run_end_to_end():
    ladder = _run_script("run_ladder_chain.py", "--max-depth", "5", "--verify")
    assert ladder.returncode == 0, ladder.stderr
    assert "embedding: ok" in ladder.stdout
    survey = _run_script("survey_small_graphs.py", "--vertices", "3",
                         "--arcs", "3")
    assert survey.returncode == 0, survey.stderr
    assert "dimension distribution" in survey.stdout


def test_ladder_chain_script_at_its_documented_size():
    # the docstring's usage line: 96,845,281 units certified at depth 10
    ladder = _run_script("run_ladder_chain.py", "--parallel", "3",
                         "--max-depth", "10", "--verify")
    assert ladder.returncode == 0, ladder.stderr
    assert "embedding: ok" in ladder.stdout
    assert "dimension 387420489" in ladder.stdout


def test_ladder_chain_script_builds_one_model_per_check(monkeypatch, capsys):
    built = []
    build = graphck.build_ck_family

    def counted_build(g, spec):
        built.append(g)
        return build(g, spec)

    monkeypatch.setattr(graphck, "build_ck_family", counted_build)
    monkeypatch.setattr(sys, "argv", ["run_ladder_chain.py", "--max-depth",
                                      "5", "--verify"])
    runpy.run_path(str(ROOT / "scripts" / "run_ladder_chain.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("embedding: ok") == 3  # depths 3, 4 and 5
    # one bigger stage per check, then stage 5 once more for its corner
    assert len(built) == 4


def test_bench_snapshot_writes_its_keys(tmp_path):
    # a copy of the tree, so the runs' own records do not replace this
    # checkout's perfbench/results
    junk = shutil.ignore_patterns("__pycache__", "results", ".work")
    for d in ("src", "perfbench", "scripts"):
        shutil.copytree(ROOT / d, tmp_path / d, ignore=junk)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    run = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "bench_snapshot.py"),
         "--tag", "smoke", "--seeds", "1", "--seconds", "0.2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    snap = json.loads((out / "BENCH_smoke.json").read_text())
    assert {"tag", "command", "run_command", "seeds", "seconds", "git_head",
            "nproc", "platform", "python", "workloads"} <= snap.keys()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert snap["workloads"].keys() == {w["name"] for w in bench["workloads"]}
    for w in snap["workloads"].values():
        assert w["ops_attempted"][0] > 0
        metrics = w["metrics"]
        assert {"throughput_per_s", "latency_p50_ms", "latency_tail_ms",
                "peak_rss_mb", "setup_s", "failed_share"} <= metrics.keys()
        for m in metrics.values():
            assert {"unit", "median", "iqr", "values"} <= m.keys()


def test_bench_snapshot_alternates_the_parent_and_this_tree(
        tmp_path, monkeypatch, capsys):
    # run_once is patched, so no benchmark runs: the test checks the
    # pairing, the order of each pair and the two snapshots written
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", ROOT / "scripts" / "bench_snapshot.py")
    snap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snap)
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    calls = []

    def fake_run_once(tree, workload, seed, seconds):
        side = "parent" if tree == parent else "change"
        calls.append((side, workload, seed))
        p50 = {"parent": 2.0, "change": 1.5}[side] + seed / 100
        return {"attempted": 10, "failed": 0, "metrics": {
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "throughput_per_s": {"value": 100.0, "unit": "1/s"}}}

    monkeypatch.setattr(snap, "run_once", fake_run_once)
    out = tmp_path / "out"
    out.mkdir()
    args = ["--tag", "t", "--seeds", "3", "--seconds", "1", "--out", str(out),
            "--against", str(parent)]
    monkeypatch.setattr(sys, "argv", ["bench_snapshot.py", *args])
    assert snap.main(args) == 0
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    pairs = [(w, s) for w in workloads for s in (1, 2, 3)]
    assert calls[0::2] == [(("parent", "change")[i % 2], *ws)
                           for i, ws in enumerate(pairs)]
    assert calls[1::2] == [(("change", "parent")[i % 2], *ws)
                           for i, ws in enumerate(pairs)]
    before = json.loads((out / "BENCH_t_parent.json").read_text())
    after = json.loads((out / "BENCH_t.json").read_text())
    assert before["tag"] == "t_parent" and after["tag"] == "t"
    assert str(parent) not in json.dumps(before["command"])
    assert str(out) not in json.dumps(after["command"])
    for w in workloads:
        p50 = before["workloads"][w]["metrics"]["latency_p50_ms"]
        assert p50["values"] == [2.01, 2.02, 2.03]
        assert p50["median"] == 2.02
        assert after["workloads"][w]["metrics"]["latency_p50_ms"]["median"] \
            == 1.52
    printed = capsys.readouterr().out
    assert f"{workloads[0]:8s} latency_p50_ms     change won 3/3 pairs" in printed
    assert "(0.752x)" in printed and "beyond parent iqr" in printed
    assert "throughput_per_s   change won 0/3 pairs" in printed
