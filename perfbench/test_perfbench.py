"""Self-tests of the benchmark: the output checks reject corrupted outputs,
the tracer leaves the program's results unchanged, and every metric name is
well formed and matches BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import checks
import pytest
import run
import tracer
import workloads as wl

from treegibbs import cli, partition

REFERENCE = wl.load_reference()
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def cli_text(tmp_path: Path, argv: list[str], name: str = "out.txt") -> str:
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="ascii")


@pytest.fixture
def labeled(tmp_path):
    n, samples = 12, 30
    text = cli_text(tmp_path, ["sample", "--kind", "labeled", "--bound", "3", "--n", str(n),
                               "--samples", str(samples), "--seed", "5"])
    check = lambda t: checks.check_labeled_sample(  # noqa: E731
        t, n=n, bound=3, samples=samples, pstar=REFERENCE["pstar"]["labeled-3"],
        l1_bound=float("inf"))
    return text, check, n


def replace_first_tree(text: str, edges: list[tuple[int, int]]) -> str:
    rest = text.split("\n\n", 1)[1]
    return "".join(f"{u} {v}\n" for u, v in edges) + "\n" + rest


def first_tree(text: str) -> list[tuple[int, int]]:
    block = text.split("\n\n", 1)[0]
    return [tuple(int(x) for x in line.split()) for line in block.splitlines()]


def test_labeled_checker_accepts_cli_output(labeled):
    text, check, _ = labeled
    assert check(text) == []


def test_labeled_checker_rejects_cycle(labeled):
    text, check, n = labeled
    edges = first_tree(text)
    degree = {v: 0 for v in range(1, n + 1)}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    # Detach a leaf and spend its edge on a chord between two other vertices
    # with spare degree: still N-1 edges and max degree <= D, but a cycle.
    leaf = next(v for v in degree if degree[v] == 1)
    kept = [e for e in edges if leaf not in e]
    for u, v in edges:
        if leaf in (u, v):
            degree[u] -= 1
            degree[v] -= 1
    adjacent = {frozenset(e) for e in kept}
    a, b = next(
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if leaf not in (a, b) and degree[a] < 3 and degree[b] < 3
        and frozenset((a, b)) not in adjacent
    )
    problems = check(replace_first_tree(text, kept + [(a, b)]))
    assert any("not connected" in p for p in problems), problems


def test_labeled_checker_rejects_degree_above_bound(labeled):
    text, check, n = labeled
    # Vertex 1 joined to 2..5 (degree 4 > D=3), then a path 5-6-...-N.
    edges = [(1, 2), (1, 3), (1, 4), (1, 5)] + [(v, v + 1) for v in range(5, n)]
    problems = check(replace_first_tree(text, edges))
    assert any("degree 4 > D=3" in p for p in problems), problems


def test_plane_checker_rejects_broken_lukasiewicz_row(tmp_path):
    n, samples = 15, 40
    text = cli_text(tmp_path, ["sample", "--kind", "plane", "--bound", "3", "--n", str(n),
                               "--samples", str(samples), "--seed", "9"])
    check = lambda t: checks.check_plane_sample(  # noqa: E731
        t, n=n, bound=3, samples=samples, pstar=REFERENCE["pstar"]["plane-3"],
        l1_bound=float("inf"))
    assert check(text) == []
    first, rest = text.split("\n", 1)
    row = first.split()
    # By the cycle lemma no other rotation of a valid word is valid.
    rotated = " ".join(row[1:] + row[:1])
    problems = check(rotated + "\n" + rest)
    assert any("Lukasiewicz" in p for p in problems), problems


@pytest.mark.parametrize("key", sorted(wl.EXACT_ARGV))
def test_table_checker_rejects_relative_perturbation(key):
    reference = REFERENCE["tables"][key]
    assert checks.check_table(reference, reference) == []
    lines = reference.splitlines()
    perturbed_any = False
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        for j in range(1, len(fields)):
            value = float(fields[j])
            if value == 0.0:
                continue
            bad = fields[:j] + [repr(value * (1 + 1e-6))] + fields[j + 1:]
            text = "\n".join(lines[:i] + [",".join(bad)] + lines[i + 1:]) + "\n"
            assert checks.check_table(text, reference), (key, i, j)
            perturbed_any = True
    assert perturbed_any


TRACED_COMMANDS = [
    ["sample", "--kind", "labeled", "--bound", "3", "--n", "30", "--samples", "20", "--seed", "3"],
    ["sample", "--kind", "plane", "--bound", "3", "--n", "30", "--samples", "20", "--seed", "3"],
    ["ldp-table", "--kind", "labeled", "--bound", "3", "--n-list", "40,80", "--eps", "0.05"],
    ["lln", "--kind", "labeled", "--bound", "4", "--n-list", "40,80", "--delta", "0.1"],
]


@pytest.mark.parametrize("argv", TRACED_COMMANDS, ids=lambda a: "-".join(a[:3]))
def test_tracer_leaves_results_unchanged(tmp_path, argv):
    original = partition.build_dp
    plain = cli_text(tmp_path, argv, "plain.txt")
    with tracer.Tracer() as t:
        traced = cli_text(tmp_path, argv, "traced.txt")
    assert traced == plain
    assert partition.build_dp is original and cli._COMMANDS["sample"] is cli.cmd_sample
    assert t.absent == [] and t.counter_errors == []
    totals = tracer.layer_totals(t.record())
    command = "cli.cmd_" + argv[0].replace("-", "_")
    assert totals[f"{command}.calls"] == 1
    assert totals["rate.solve_pstar.calls"] >= 1


def test_absent_layer_is_reported_not_an_error(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (tracer.Layer(
        "partition.no_such_function", ("self_s",), "nothing"),))
    with tracer.Tracer() as t:
        pass
    assert t.absent == ["partition.no_such_function"]
    stats = tracer.published_stats(tracer.layer_totals(t.record()))
    assert stats["partition.no_such_function.self_s"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((wl.HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    catalog = run.per_layer_catalog()
    assert per_layer == {name: (unit, better) for name, unit, better in catalog}
    assert len(catalog) == len(per_layer)
    defined = wl.workloads(REFERENCE)
    for w in spec["workloads"]:
        assert w["why"] == defined[w["name"]].why
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME_RE.fullmatch(name), name
