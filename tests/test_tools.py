import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """Docstring."""
    s = """not a
docstring"""
    "a string statement, not first"
    return x + 1  # comment


class C:
    \'\'\'One line.\'\'\'

    y = (1,
         2)
'''


def test_code_lines_skips_blank_comment_and_docstring_lines(tmp_path, capsys):
    # code: import, def, the two lines of s, the string statement, return,
    # class, and the two lines of y
    code_lines = load("code_lines")
    assert code_lines.code_lines(FIXTURE) == 9
    assert code_lines.code_lines("") == 0
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[:2] == [str(len(FIXTURE.splitlines()) + 2), "10"]
