"""Module boundaries of the package, and what its code is for, read from
its source."""

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
    "lattice_rows",
    "profile_log_weights",
}

#: Definitions that no command reaches but the benchmark harness imports, by
#: the perfbench file that pins each one; every other definition is reached
#: from ``cli``.
PINNED = {
    "partition.build_dp",  # perfbench/tracer.py (LAYERS), perfbench/test_perfbench.py
    "partition.DpTable",  # perfbench/tracer.py (the build_dp counters read its W)
    "partition.enumerate_profiles",  # perfbench/tracer.py (LAYERS)
    "partition.integer_lattice",  # perfbench/tracer.py, behind enumerate_profiles
    "partition.MAX_LATTICE_BYTES",  # perfbench/tracer.py, behind integer_lattice
    "errors.LatticeTooLarge",  # perfbench/tracer.py, behind integer_lattice
    "rate.manifold_grid",  # perfbench/tracer.py (LAYERS)
    "treegen.prufer_decode",  # perfbench/tracer.py (LAYERS)
    "kernels.BACKEND",  # perfbench/run.py (probe)
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


def definitions() -> dict[str, set[str]]:
    """Per top-level definition of the package, ``module.name``, the
    definitions that its code names, directly or through a ``from .module
    import``.  Module metadata (``__version__``) is not code."""
    uses: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        imported = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        defined = {}
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        for name, node in defined.items():
            if name.startswith("__"):
                continue
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} - {name}
            uses[f"{path.stem}.{name}"] = {
                f"{path.stem}.{n}" if n in defined else imported[n]
                for n in names
                if n in defined or n in imported
            }
    return uses


def reached(uses: dict[str, set[str]], roots) -> set[str]:
    seen, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(uses.get(name, ()))
    return seen


def test_every_definition_is_reached_from_a_command_or_pinned():
    uses = definitions()
    commands = [name for name in uses if name.startswith("cli.")]
    assert PINNED <= set(uses)
    assert set(uses) - reached(uses, [*commands, *PINNED]) == set()
    # a pinned name that a command reaches needs no pin
    assert PINNED & reached(uses, commands) == set()
