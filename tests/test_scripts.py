# The example scripts run end to end against the package's public API.

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
