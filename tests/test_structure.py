"""Module boundaries of the package, read from its source."""

import ast
from pathlib import Path

import treegibbs

SRC = Path(treegibbs.__file__).parent

#: Names of the profile lattice and its cut, which stay behind
#: ``partition.log_mass``, ``partition.log_partition_value`` and the samplers.
LATTICE_NAMES = {
    "CUT_SLACK",
    "ProfileCut",
    "integer_lattice",
    "lattice_blocks",
    "lattice_rows",
    "profile_log_weights",
}


def imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) per name of every ``from module import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_no_module_imports_a_private_name_of_another():
    private = [
        (path.name, module, name)
        for path in sorted(SRC.glob("*.py"))
        for module, name in imports(path)
        if name.startswith("_")
    ]
    assert private == []


def test_ldp_imports_nothing_of_the_lattice():
    names = {name for _, name in imports(SRC / "ldp.py")}
    assert names & LATTICE_NAMES == set()
