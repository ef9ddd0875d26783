"""Count the code lines of each module of src/morcam and their total.

A code line is a physical line that holds a Python token other than a
comment, a line break, an indent or a dedent, and that lies outside
every docstring (the string that opens a module, class or function).
Blank lines therefore do not count either.  Run from anywhere:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "morcam"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at path."""
    source = path.read_text(encoding="utf-8")
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20s} {count:5d}")
    print(f"{'total':20s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
