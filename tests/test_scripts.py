# The example scripts run end to end against the package's public API.

import os
import runpy
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
