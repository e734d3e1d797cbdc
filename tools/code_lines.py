"""Count the lines of Python source that carry code.

    python tools/code_lines.py PATH...

Each PATH is a ``.py`` file or a directory, whose ``.py`` files are read
recursively.  A line carries code when some token on it is neither a
comment nor a docstring: blank lines, comment-only lines and the lines of
module, class and function docstrings are not counted, while every line of
any other statement, a string spanning several lines included, is.  Prints
the physical and code line counts of each file, then their totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code on their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of the first token of each docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry code."""
    skip = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.start in skip:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    total_lines = total_code = 0
    for path in python_files(argv):
        source = path.read_text(encoding="utf-8")
        n_lines, n_code = len(source.splitlines()), code_lines(source)
        total_lines, total_code = total_lines + n_lines, total_code + n_code
        print(f"{n_lines:7d} {n_code:7d}  {path}")
    print(f"{total_lines:7d} {total_code:7d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
