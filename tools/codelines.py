"""Code lines of each ``src/fomc`` module and their total.

    python3 tools/codelines.py

A code line is a line of the source that holds a token of code: blank
lines, lines holding only a comment, and the lines of docstrings (the
string that opens a module, class or function body) are not counted. A
string or bracket spread over several lines counts every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "fomc").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: python3 tools/codelines.py (it takes no options)")
    main()
