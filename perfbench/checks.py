"""Output checks for the benchmark's CLI operations.

Every checker takes the text a command wrote and returns a list of problems;
an empty list means the output is correct.  The checks run outside the
timed region.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

#: Relative tolerance for exact table fields against the recorded reference.
#: A perturbation of 1e-6 relative must be caught; rounding differences of
#: another exact engine (ln Z to ~1e-14 relative) must not be.
TABLE_RTOL = 1e-7
#: Absolute slack, only relevant for fields that are exactly zero.
TABLE_ATOL = 1e-15
#: Tolerance for the printed frequencies against a recount from the trees
#: (the CLI prints 12 significant digits).
FREQ_RTOL = 1e-11


def _ints(text: str, dtype) -> np.ndarray | None:
    """Whitespace-separated integers, or None when some token is not one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.fromstring(text, dtype=dtype, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


def _split_summary(text: str, n_classes: int) -> tuple[str, list[str], list[str]]:
    """Split sample output into (body, summary rows, problems)."""
    body, sep, summary = text.partition("# summary\n")
    if not sep:
        return body, [], ["missing '# summary' section"]
    lines = summary.splitlines()
    if len(lines) != n_classes + 2 or lines[0] != "class,frequency,pstar":
        return body, [], [f"malformed summary section: {lines[:3]!r}"]
    return body, lines, []


def _check_summary(
    lines: list[str],
    classes: np.ndarray,
    totals: np.ndarray,
    n_vertices: int,
    pstar: list[float],
    l1_bound: float,
) -> list[str]:
    problems = []
    freq = totals / float(n_vertices)
    printed_p = []
    for row, k, f in zip(lines[1:-1], classes, freq):
        fields = row.split(",")
        if len(fields) != 3 or fields[0] != str(k):
            problems.append(f"bad summary row {row!r}")
            continue
        got_f, got_p = float(fields[1]), float(fields[2])
        printed_p.append(got_p)
        if not math.isclose(got_f, f, rel_tol=FREQ_RTOL, abs_tol=1e-15):
            problems.append(f"class {k}: printed frequency {got_f} != recount {f!r}")
    for k, got, ref in zip(classes, printed_p, pstar):
        if not math.isclose(got, ref, rel_tol=TABLE_RTOL):
            problems.append(f"class {k}: printed pstar {got} != reference {ref}")
    prefix = "# l1_distance_to_pstar = "
    if not lines[-1].startswith(prefix):
        return problems + [f"missing l1 line, got {lines[-1]!r}"]
    l1 = float(lines[-1][len(prefix):])
    recount = float(np.abs(freq - np.asarray(pstar)).sum())
    if not math.isclose(l1, recount, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"printed l1 {l1} != recount {recount}")
    if not l1 <= l1_bound:
        problems.append(f"l1_distance_to_pstar {l1} above the statistical bound {l1_bound}")
    return problems


def check_labeled_sample(
    text: str, *, n: int, bound: int, samples: int, pstar: list[float], l1_bound: float
) -> list[str]:
    """Trees are blank-line separated blocks of ``u v`` edge lines.

    Each must have N-1 edges on labels 1..N, be connected (hence, with N-1
    edges, acyclic) and have max degree <= D.
    """
    body, lines, problems = _split_summary(text, bound)
    if problems:
        return problems
    blocks = body.split("\n\n")
    if len(blocks) != samples + 1 or blocks[-1] != "":
        return [f"expected {samples} trees, found {len(blocks) - 1} blank-line blocks"]
    bad_blocks = [i for i, b in enumerate(blocks[:-1]) if b.count("\n") != n - 2]
    if bad_blocks:
        return [f"tree {bad_blocks[0]} does not have {n - 1} edge lines"]
    values = _ints(body, np.int64)
    if values is None:
        return ["non-integer edge entry"]
    if values.size != samples * (n - 1) * 2:
        return [f"expected {samples * (n - 1)} edges of two labels, got {values.size} labels"]
    edges = values.reshape(samples, n - 1, 2)
    if edges.min() < 1 or edges.max() > n:
        return [f"edge label outside 1..{n}"]
    # One graph holding every tree, vertex (t, v) at t*N + v - 1.
    offset = (np.arange(samples, dtype=np.int64) * n)[:, None]
    u = (edges[:, :, 0] - 1 + offset).ravel()
    v = (edges[:, :, 1] - 1 + offset).ravel()
    graph = coo_matrix((np.ones(u.size, dtype=np.int8), (u, v)), shape=(samples * n,) * 2)
    _, comp = connected_components(graph, directed=False)
    comp = comp.reshape(samples, n)
    split = (comp != comp[:, :1]).any(axis=1)
    if split.any():
        problems.append(
            f"tree {int(np.argmax(split))} is not connected, so its {n - 1} edges hold a cycle"
        )
    degrees = np.bincount(np.concatenate([u, v]), minlength=samples * n)
    if degrees.max() > bound:
        tree = int(np.argmax(degrees)) // n
        problems.append(f"tree {tree} has a vertex of degree {degrees.max()} > D={bound}")
    if problems:
        return problems
    totals = np.bincount(degrees - 1, minlength=bound)
    return _check_summary(
        lines, np.arange(1, bound + 1), totals, samples * n, pstar, l1_bound
    )


def check_plane_sample(
    text: str, *, n: int, bound: int, samples: int, pstar: list[float], l1_bound: float
) -> list[str]:
    """One row per tree; each must be a Lukasiewicz word over 0..D: the
    partial sums of (c_i - 1) stay >= 0 before the last entry and end at -1.
    """
    body, lines, problems = _split_summary(text, bound + 1)
    if problems:
        return problems
    rows = body.split("\n")
    if len(rows) != samples + 1 or rows[-1] != "":
        return [f"expected {samples} rows, found {len(rows) - 1}"]
    bad = [i for i, r in enumerate(rows[:-1]) if r.count(" ") != n - 1]
    if bad:
        return [f"row {bad[0]} does not have {n} entries"]
    counts = _ints(body, np.int32)
    if counts is None or counts.size != samples * n:
        return ["non-integer child count"]
    counts = counts.reshape(samples, n)
    if counts.min() < 0 or counts.max() > bound:
        return [f"child count outside 0..{bound}"]
    walk = np.cumsum(counts - 1, axis=1, dtype=np.int32)
    broken = (walk[:, -1] != -1) | (walk[:, :-1] < 0).any(axis=1)
    if broken.any():
        return [f"row {int(np.argmax(broken))} is not a Lukasiewicz word"]
    totals = np.bincount(counts.ravel(), minlength=bound + 1)
    return _check_summary(
        lines, np.arange(0, bound + 1), totals, samples * n, pstar, l1_bound
    )


def _close(got: str, ref: str) -> bool:
    a, b = float(got), float(ref)
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return got == ref
    return abs(a - b) <= TABLE_RTOL * abs(b) + TABLE_ATOL


def check_table(text: str, reference: str) -> list[str]:
    """CSV output of ``ldp-table``/``lln`` against the recorded reference:
    the header and the N column exactly, every other field to TABLE_RTOL."""
    got_lines = text.splitlines()
    ref_lines = reference.splitlines()
    if len(got_lines) != len(ref_lines) or got_lines[:1] != ref_lines[:1]:
        return [f"table shape differs: {got_lines[:1]!r} with {len(got_lines)} lines"]
    header = ref_lines[0].split(",")
    problems = []
    for got_line, ref_line in zip(got_lines[1:], ref_lines[1:]):
        got, ref = got_line.split(","), ref_line.split(",")
        if len(got) != len(ref) or got[0] != ref[0]:
            problems.append(f"row {got_line!r} does not match {ref_line!r}")
            continue
        for name, g, r in zip(header[1:], got[1:], ref[1:]):
            try:
                ok = _close(g, r)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"N={ref[0]} {name}: {g} != reference {r}")
    return problems


def check_pstar(text: str, reference: list[float]) -> list[str]:
    """``pstar`` output: the printed minimizer matches the reference."""
    for line in text.splitlines():
        if line.startswith("pstar = "):
            got = [float(v) for v in line[len("pstar = "):].split()]
            if len(got) == len(reference) and all(
                math.isclose(g, r, rel_tol=TABLE_RTOL) for g, r in zip(got, reference)
            ):
                return []
            return [f"pstar {got} != reference {reference}"]
    return ["no 'pstar = ' line"]


def check_oracle(text: str) -> list[str]:
    """``oracle-check`` output ends with the OK verdict."""
    lines = text.splitlines()
    return [] if lines and lines[-1] == "oracle-check OK" else [f"oracle-check: {lines[-1:]!r}"]
