"""Every script under ``scripts/`` starts: its imports resolve and its
argument parser builds, so a script that names a deleted function fails
here rather than for the first user who runs it."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_zero(script):
    done = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout


@pytest.mark.parametrize("questions", ["0", "1"])
def test_experiment_script_rejects_fewer_than_two_questions(questions, tmp_path):
    # Half the questions train and half evaluate, so fewer than two leaves
    # nothing to train on: a usage error, not a traceback from training.
    script = SCRIPTS[0].parent / "run_policy_experiments.py"
    done = subprocess.run(
        [sys.executable, str(script), "--questions", questions, "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "--questions: must be at least 2" in done.stderr
