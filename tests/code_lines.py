"""Count the code lines of Python modules.

A code line is a line that holds a token other than a comment, outside the
docstring that opens a module, class or function; blank lines, comment-only
lines and those docstrings count nothing.  A token over several lines, such
as a string that is no docstring, counts each line it spans.

Run from the root of a checkout (stdlib only):

    python tests/code_lines.py src/arcperm          # each module, then the total
    python tests/code_lines.py src/arcperm/poly.py  # one file

Not part of tier-1: pytest collects only test_*.py files.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of a module, class or
    function starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    docstrings = _docstrings(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/code_lines.py PATH ...", file=sys.stderr)
        return 2
    files = []
    for arg in argv:
        path = Path(arg)
        if not path.exists():
            print(f"error: no such file or directory: {arg}", file=sys.stderr)
            return 2
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6}  {path}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
