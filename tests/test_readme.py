"""The README's Python examples run as written and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_examples_print_their_comments():
    blocks = _python_blocks()
    assert blocks, "README has no python example"
    for block in blocks:
        # ``print(...)  # text`` documents the line the call prints.
        expected = re.findall(r"^print\(.*\)\s*#\s*(.*)$", block, re.M)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
        assert out.getvalue().splitlines() == expected
