"""The README's examples run as written: Python examples print what they
say, and command lines name real subcommands and options."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from budgetqa.cli import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks(lang=""):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_examples_print_their_comments():
    blocks = _fenced_blocks("python")
    assert blocks, "README has no python example"
    for block in blocks:
        # ``print(...)  # text`` documents the line the call prints.
        expected = re.findall(r"^print\(.*\)\s*#\s*(.*)$", block, re.M)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
        assert out.getvalue().splitlines() == expected


def test_readme_command_lines_use_real_options():
    lines = [
        line.strip()
        for block in _fenced_blocks()
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("budgetqa ")
    ]
    assert lines, "README shows no budgetqa command line"
    for line in lines:
        args = shlex.split(line)
        command = cli.commands.get(args[1])
        assert command is not None, f"unknown subcommand: {line}"
        options = {opt for param in command.params for opt in param.opts + param.secondary_opts}
        for arg in args[2:]:
            if arg.startswith("--"):
                assert arg.split("=")[0] in options, f"{arg} is not a {args[1]} option: {line}"
