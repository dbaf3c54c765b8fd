#!/usr/bin/env python3
"""Count the code lines of Python modules, per module and in total.

A code line is a line that some token other than a comment, a newline, an
indent or a dedent touches, and that is not part of a module, class or
function docstring (``ast.get_docstring``). So blank lines, comment-only
lines and docstrings do not count, and a call spread over four lines counts
four. With no arguments it counts ``src/budgetqa/*.py``:

    python scripts/code_lines.py [FILE ...]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "budgetqa"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="Modules to count (default: src/budgetqa/*.py).")
    files = parser.parse_args().files or sorted(SOURCE.glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:>6}  {path.name}")
    print(f"{total:>6}  total")


if __name__ == "__main__":
    main()
