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


EXPERIMENT_SCRIPT = SCRIPTS[0].parent / "run_policy_experiments.py"


@pytest.mark.parametrize("questions", ["0", "1"])
def test_experiment_script_rejects_fewer_than_two_questions(questions, tmp_path):
    # Half the questions train and half evaluate, so fewer than two leaves
    # nothing to train on: a usage error, not a traceback from training.
    done = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), "--questions", questions, "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "--questions: must be at least 2" in done.stderr


BAD_ARGUMENTS = [
    (["--redundancy", "0"], "--redundancy: must be at least 1"),
    (["--redundancy", "-1"], "--redundancy: must be at least 1"),
    (["--distractors", "-1"], "--distractors: must be at least 0"),
    (["--k", "0"], "--k: must be above 0"),
    (["--c", "-2"], "--c: must be above 0"),
    (["--seeds", "x"], "--seeds: not a comma-separated list of integers"),
    (["--seeds", ","], "--seeds: needs at least one seed"),
    (["--questions", "500"], "questions + distractors must be at most 480 entity pairs, got 500 + 40"),
    (["--distractors", "100000"], "questions + distractors must be at most 480 entity pairs, got 400 + 100000"),
]


@pytest.mark.parametrize(
    "args, message", BAD_ARGUMENTS, ids=[" ".join(args) for args, _ in BAD_ARGUMENTS]
)
def test_experiment_script_rejects_out_of_range_arguments(args, message, tmp_path):
    # A usage error before any work, not a traceback after training.
    done = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), *args, "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert message in done.stderr
    assert done.stdout == ""
