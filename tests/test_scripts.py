# The example scripts run end to end against the package's public API.

import os
import subprocess
import sys
from pathlib import Path

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
