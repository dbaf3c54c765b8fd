"""Every script under ``scripts/`` starts: its imports resolve and its
argument parser builds, so a script that names a deleted function fails
here rather than for the first user who runs it."""

import importlib.util
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
    (["--k", "inf"], "--k: must be above 0 and finite"),
    (["--k", "nan"], "--k: must be above 0 and finite"),
    (["--c", "inf"], "--c: must be above 0 and finite"),
    (["--redundancy", "6"], "redundancy must be between 1 and 5, got 6"),
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


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code leaves its line a code line

# a comment line


class Box:
    """A class docstring."""

    text = """a string that is
not a docstring"""


def wrap(x):
    """A function docstring."""
    return max(
        x,
        1,
    )
'''


def test_code_lines_counts_code_only(tmp_path):
    # import, class, the two-line string, def and the four-line call: 9.
    module = tmp_path / "fixture.py"
    module.write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "code_lines.py"), str(module)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "     9  fixture.py\n     9  total\n"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS[0].parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_exactly_once():
    # A mutant whose old text moved would be reported stale, not run.
    mutants = _load_script("mutants")
    root = SCRIPTS[0].parent.parent
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert not mutants.is_stale(mutant, root), mutant.name
        assert mutant.new != mutant.old, mutant.name
        assert mutant.killers and all((root / k).is_file() for k in mutant.killers), mutant.name


def test_mutant_runner_on_a_fixture(tmp_path, capsys):
    mutants = _load_script("mutants")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "calc.py").write_text(
        "def double(x):\n    return x * 2\n\n\ndef unused():\n    return 0\n", encoding="utf-8"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_calc.py").write_text(
        "from calc import double\n\n\ndef test_double():\n    assert double(3) == 6\n", encoding="utf-8"
    )
    Mutant = mutants.Mutant
    fixture = [
        Mutant("times-three", "src/calc.py", "return x * 2", "return x * 3", ("tests/test_calc.py",)),
        Mutant("unused-one", "src/calc.py", "return 0", "return 1", ("tests/test_calc.py",)),
        Mutant("moved", "src/calc.py", "return x * 4", "return x * 5", ("tests/test_calc.py",)),
        Mutant("no-killer-file", "src/calc.py", "return x * 2", "return x * 3", ("tests/test_gone.py",)),
    ]
    assert mutants.run(fixture, tmp_path) == ["killed", "survived", "stale", "error 4"]
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["outcome", "mutant", "killers"]
    assert rows[1].split() == ["killed", "times-three", "tests/test_calc.py"]
    assert rows[3].split() == ["stale", "moved", "tests/test_calc.py"]
    assert rows[-1] == "1 error 4, 1 killed, 1 stale, 1 survived"
    # The tree itself is never mutated.
    assert "return x * 2" in (tmp_path / "src" / "calc.py").read_text(encoding="utf-8")
