"""Every script under ``scripts/`` starts: its imports resolve and its
argument parser builds, so a script that names a deleted function fails
here rather than for the first user who runs it. The experiment script is
``budgetqa reproduce``; its refusals run in-process through ``cli.main``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from budgetqa import bench
from budgetqa.cli import main

from stubs import must_not_run

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_zero(script):
    done = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout.lower()  # argparse writes usage:, click Usage:


EXPERIMENT_SCRIPT = SCRIPTS[0].parent / "run_policy_experiments.py"


def test_experiment_script_is_the_reproduce_command(tmp_path):
    # The script adds src/ to the path and hands its arguments to
    # ``budgetqa reproduce``, so it refuses what the command refuses.
    done = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), "--questions", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "usage error: Invalid value for '--questions': 1 is not in the range x>=2." in done.stderr
    assert done.stdout == ""


def _refused(args, capsys):
    """``budgetqa reproduce`` on ``args``: a usage error (exit 1) with no
    traceback and no output, and the message it wrote to stderr."""
    assert main(["reproduce", *args]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("questions", ["0", "1"])
def test_experiment_script_rejects_fewer_than_two_questions(questions, tmp_path, capsys):
    # Half the questions train and half evaluate, so fewer than two leaves
    # nothing to train on: a usage error, not a traceback from training.
    err = _refused(["--questions", questions, "--out-dir", str(tmp_path)], capsys)
    assert f"'--questions': {questions} is not in the range x>=2." in err


BAD_ARGUMENTS = [
    (["--redundancy", "0"], "'--redundancy': 0 is not in the range 1<=x<=5."),
    (["--redundancy", "-1"], "'--redundancy': -1 is not in the range 1<=x<=5."),
    (["--distractors", "-1"], "'--distractors': -1 is not in the range x>=0."),
    (["--k", "0"], "'--k': k must be a positive finite number, not 0.0"),
    (["--k", "inf"], "'--k': k must be a positive finite number, not inf"),
    (["--k", "nan"], "'--k': k must be a positive finite number, not nan"),
    (["--redundancy", "6"], "'--redundancy': 6 is not in the range 1<=x<=5."),
    (["--seeds", "x"], "'--seeds': 'x' is not a valid integer."),
    (["--seeds", ","], "'--seeds': needs at least one value"),
    (["--questions", "500"], "questions + distractors must be at most 480 entity pairs, got 500 + 40"),
    (["--distractors", "100000"], "questions + distractors must be at most 480 entity pairs, got 400 + 100000"),
]


@pytest.mark.parametrize(
    "args, message", BAD_ARGUMENTS, ids=[" ".join(args) for args, _ in BAD_ARGUMENTS]
)
def test_experiment_script_rejects_out_of_range_arguments(args, message, tmp_path, capsys, monkeypatch):
    # A usage error before any work, not a traceback after training.
    monkeypatch.setattr(bench, "generate_benchmark", must_not_run("a benchmark was generated"))
    assert message in _refused([*args, "--out-dir", str(tmp_path)], capsys)


@pytest.mark.parametrize("value", ["2", "-2", "inf"])
def test_experiment_script_has_no_c_option(value, tmp_path, capsys):
    # No decision and no table reads the cost per query, so the command runs
    # at c = 1 and refuses --c as an unknown option before any work. Click
    # words an unknown option differently across versions.
    err = _refused(["--c", value, "--out-dir", str(tmp_path)], capsys)
    assert "No such option" in err and "--c" in err


def test_experiment_script_rejects_an_out_dir_it_cannot_create(tmp_path, capsys):
    # A usage error before any work, not a traceback after training.
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    err = _refused(["--questions", "10", "--out-dir", str(taken)], capsys)
    assert f"'--out-dir': cannot create {taken}" in err


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
