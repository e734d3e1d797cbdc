"""Concrete tree construction: exact Gibbs samplers, codecs, enumerators.

Labeled trees are stored as canonical sorted edge lists over labels 1..N and
are in bijection with Prufer codes (vertex v appears deg(v) - 1 times in the
code).  Plane trees are stored as preorder child-count sequences: a sequence
c_1..c_N is valid exactly when the partial sums of (c_i - 1) stay >= 0
before the last position and end at -1 (a Lukasiewicz path).

Exact sampling pipelines (both start from an exact class sequence,
``partition.sample_class_sequences``: a profile drawn from the tilted
multinomial, laid out and uniformly permuted):

* labeled: read the sequence as the degrees of vertices 1..N, lay out the
  multiset word with vertex i repeated deg(i) - 1 times, permute it
  uniformly, read the result as a Prufer code.  Trees sharing a degree
  sequence are equally likely, which is exactly the multinomial tree count,
  so the composite law is the Gibbs measure.
* plane: rotate the child-count sequence, already uniformly permuted, to
  its unique valid Lukasiewicz rotation (cycle lemma).  Each valid word has
  exactly N distinct rotations, so conditional uniformity is preserved and
  the composite law is again exactly Gibbs.

Text serialization: a labeled tree is its sorted edge list, one ``u v`` line
per edge; a plane tree is one line of space-separated child counts.  Both are
newline-terminated ASCII.  ``write_sample`` writes sampled batches without
tree objects: it takes ``WRITE_BLOCK`` rows at a time, decodes labeled rows
to canonical edge arrays with the one Prufer decoder (``prufer_edges``),
formats each tree with a single ``%``-format of a per-N template (the
labeled template ends in a blank line that separates trees) and writes the
sub-block's text before the next one is made.  ``to_text`` is the
single-tree form of the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import kernels
from .ensembles import CountVector, EnsembleSpec, Kind
from .errors import (
    BadLabel,
    BadStepSum,
    DegreeBoundExceeded,
    KindMismatch,
    NotATree,
    TooLarge,
)
from .partition import sample_class_sequences

MAX_ENUM_LABELED = 8
MAX_ENUM_PLANE = 12


@dataclass(frozen=True)
class LabeledTree:
    """Labeled tree on vertices 1..N as a canonical sorted edge list."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        for u, v in norm:
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise BadLabel(f"edge ({u}, {v}) outside labels 1..{self.n_vertices}")
            if u == v:
                raise NotATree(f"self loop at vertex {u}")
        object.__setattr__(self, "edges", norm)

    def degrees(self) -> np.ndarray:
        ends = np.asarray(self.edges, dtype=np.int64).reshape(-1)
        return np.bincount(ends - 1, minlength=self.n_vertices)

    def to_text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    @classmethod
    def from_text(cls, text: str) -> "LabeledTree":
        edges = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
        n = max(max(e) for e in edges) if edges else 2
        return cls(n, tuple(edges))


@dataclass(frozen=True)
class PlaneTree:
    """Plane (ordered rooted) tree as its preorder child-count sequence."""

    child_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(v) for v in self.child_counts)
        object.__setattr__(self, "child_counts", counts)
        walk = 0
        for i, c in enumerate(counts):
            if c < 0:
                raise ValueError("child counts must be nonnegative")
            walk += c - 1
            if walk < 0 and i < len(counts) - 1:
                raise ValueError("invalid preorder sequence: walk hits -1 early")
        if walk != -1:
            raise ValueError("invalid preorder sequence: walk must end at -1")

    @property
    def n_vertices(self) -> int:
        return len(self.child_counts)

    def to_text(self) -> str:
        return " ".join(str(c) for c in self.child_counts) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PlaneTree":
        return cls(tuple(int(v) for v in text.split()))


# ---------------------------------------------------------------------------
# Prufer codec


def code_occurrences(codes: np.ndarray) -> np.ndarray:
    """Occurrences of each label in each row of a (B, N-2) code matrix.

    Column v of the (B, N+1) result counts label v (column 0 is zero), so
    for 1 <= v <= N it is deg(v) - 1, the shifted class of vertex v.
    """
    B, N = codes.shape[0], codes.shape[1] + 2
    base = np.arange(B, dtype=np.int64)[:, None] * (N + 1)
    flat = np.bincount((codes + base).ravel(), minlength=B * (N + 1))
    return flat.reshape(B, N + 1)


def _prufer_parents(codes: np.ndarray) -> np.ndarray:
    """Parent of each vertex in the tree of each code row, rooted at N.

    ``codes`` is a (B, N-2) matrix of labels in 1..N.  Column u of the
    (B, N+1) result is the parent of vertex u for 1 <= u < N; columns 0
    and N are 0.  Each row runs the linear-time decoder: ``ptr`` scans
    upward for the next leaf, and a vertex that becomes a leaf below
    ``ptr`` is removed at once.
    """
    B, N = codes.shape[0], codes.shape[1] + 2
    parent = np.zeros((B, N + 1), dtype=np.int64)
    degrees = code_occurrences(codes) + 1
    for r in range(B):
        deg = degrees[r].tolist()
        par = [0] * (N + 1)
        ptr = leaf = deg.index(1, 1)
        for v in codes[r].tolist():
            par[leaf] = v
            deg[v] -= 1
            if deg[v] == 1 and v < ptr:
                leaf = v
            else:
                ptr = leaf = deg.index(1, ptr + 1)
        par[leaf] = N
        parent[r] = par
    return parent


def prufer_edges(codes: np.ndarray) -> np.ndarray:
    """Canonical edge arrays of the trees of a (B, N-2) code matrix.

    Row r of the (B, N-1, 2) result lists the edges of row r's tree as
    (min, max) pairs in increasing order, as ``LabeledTree`` stores them.
    """
    B, N = codes.shape[0], codes.shape[1] + 2
    child = np.arange(1, N, dtype=np.int64)
    parent = _prufer_parents(codes)[:, 1:N]
    key = np.minimum(child, parent) * (N + 1) + np.maximum(child, parent)
    key.sort(axis=1)
    return np.stack((key // (N + 1), key % (N + 1)), axis=2)


def prufer_decode(seq) -> LabeledTree:
    """Decode a Prufer code of length N-2 into its labeled tree.

    The empty code decodes to the single edge {1, 2}.  Vertex v ends up
    with degree 1 + (occurrences of v in the code).
    """
    code = np.asarray([int(v) for v in seq], dtype=np.int64)
    N = code.size + 2
    bad = code[(code < 1) | (code > N)]
    if bad.size:
        raise BadLabel(f"code entry {int(bad[0])} outside 1..{N}")
    edges = prufer_edges(code[None, :])[0]
    return LabeledTree(N, tuple(map(tuple, edges.tolist())))


def prufer_encode(tree: LabeledTree) -> tuple[int, ...]:
    """Inverse of prufer_decode; raises NotATree for invalid edge lists."""
    N = tree.n_vertices
    if len(tree.edges) != N - 1:
        raise NotATree(f"{len(tree.edges)} edges for {N} vertices")
    adj: list[set[int]] = [set() for _ in range(N + 1)]
    for u, v in tree.edges:
        if v in adj[u]:
            raise NotATree(f"duplicate edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
    # connectivity via union-find
    parent = list(range(N + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise NotATree(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
    if N == 2:
        return ()
    deg = [len(adj[v]) for v in range(N + 1)]
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    code = []
    for _ in range(N - 2):
        nb = next(iter(adj[leaf]))
        code.append(nb)
        adj[nb].discard(leaf)
        adj[leaf].clear()
        deg[nb] -= 1
        deg[leaf] = 0
        if deg[nb] == 1 and nb < ptr:
            leaf = nb
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return tuple(code)


# ---------------------------------------------------------------------------
# cycle lemma


def cycle_lemma_rotation(word) -> int:
    """Start index of the unique rotation of ``word`` that is a valid
    Lukasiewicz path.

    ``word`` is a sequence of integer steps >= -1 summing to -1; the valid
    rotation starts right after the first position attaining the minimal
    prefix sum.  Already-valid words return 0.
    """
    steps = np.asarray([int(v) for v in word], dtype=np.int64)
    if steps.size == 0:
        raise BadStepSum("empty step word")
    if steps.min() < -1:
        raise ValueError("steps must be >= -1")
    if int(steps.sum()) != -1:
        raise BadStepSum(f"steps sum to {int(steps.sum())}, expected -1")
    start = int(kernels.lukasiewicz_starts(steps[None, :])[0])
    rotated = np.roll(steps, -start)
    walk = np.cumsum(rotated)
    assert walk[-1] == -1 and (walk[:-1] >= 0).all(), "cycle lemma rotation invalid"
    return start


# ---------------------------------------------------------------------------
# exact samplers


def _require_kind(spec: EnsembleSpec, kind: Kind, what: str) -> None:
    if spec.kind is not kind:
        raise KindMismatch(f"{what} needs a {kind.value} spec, got {spec.kind.value}")


def sample_prufer_codes(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of ``size`` Prufer codes drawn exactly from the Gibbs measure.

    Codes identify trees bijectively, so row counts over this output are
    tree-level statistics.
    """
    _require_kind(spec, Kind.LABELED, "labeled sampling")
    degrees = sample_class_sequences(spec, N, size, rng)
    degrees -= 1
    labels = np.tile(np.arange(1, N + 1, dtype=np.int64), size)
    codes = np.repeat(labels, degrees.ravel()).reshape(size, N - 2)
    return rng.permuted(codes, axis=1, out=codes)


def sample_labeled_tree(spec: EnsembleSpec, N: int, rng: np.random.Generator) -> LabeledTree:
    """One exact draw from the labeled-tree Gibbs measure."""
    return prufer_decode(sample_prufer_codes(spec, N, 1, rng)[0])


def sample_plane_child_counts(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of ``size`` plane trees as preorder child-count rows."""
    _require_kind(spec, Kind.PLANE, "plane sampling")
    counts = sample_class_sequences(spec, N, size, rng)
    starts = kernels.lukasiewicz_starts(counts - 1)
    return kernels.rotate_rows(counts, starts)


def sample_plane_tree(spec: EnsembleSpec, N: int, rng: np.random.Generator) -> PlaneTree:
    """One exact draw from the plane-tree Gibbs measure."""
    row = sample_plane_child_counts(spec, N, 1, rng)[0]
    return PlaneTree(tuple(int(v) for v in row))


# ---------------------------------------------------------------------------
# batch text writer

#: Trees decoded and formatted per ``write`` by ``write_sample``: enough to
#: amortize the per-call cost of the array steps, few enough that a
#: sub-block's arrays and text stay a few MB at N = 1000 (whole 2000-tree
#: blocks raised the peak RSS of ``sample`` by about 60 MB there).
WRITE_BLOCK = 256


def write_sample(spec: EnsembleSpec, rows: np.ndarray, out) -> np.ndarray:
    """Write sampled trees to ``out`` as text; return their summed chi.

    ``rows`` are Prufer codes (labeled) or preorder child-count rows
    (plane), as the samplers return them.  The text of tree r equals
    ``prufer_decode(rows[r]).to_text() + "\n"`` (labeled) or
    ``PlaneTree(rows[r]).to_text()`` (plane).  The result counts vertices
    per shifted class over all rows; every class must be within the bound.
    """
    if spec.kind is Kind.LABELED:
        template = "%d %d\n" * (rows.shape[1] + 1) + "\n"  # N - 1 edges
    else:
        template = "%d " * (rows.shape[1] - 1) + "%d\n"
    totals = np.zeros(spec.n_classes, dtype=np.int64)
    for start in range(0, rows.shape[0], WRITE_BLOCK):
        part = rows[start : start + WRITE_BLOCK]
        if spec.kind is Kind.LABELED:
            classes = code_occurrences(part)[:, 1:]
            flat = prufer_edges(part).reshape(part.shape[0], -1)
        else:
            classes = flat = part
        out.write("".join([template % tuple(row.tolist()) for row in flat]))
        totals += np.bincount(classes.ravel(), minlength=spec.n_classes)
    return totals


# ---------------------------------------------------------------------------
# exhaustive enumerators (oracles for small N)


def enumerate_labeled_trees(N: int) -> Iterator[LabeledTree]:
    """Every labeled tree on N vertices exactly once, via all N^{N-2} codes."""
    if not 2 <= N <= MAX_ENUM_LABELED:
        raise TooLarge(f"labeled enumeration supports 2 <= N <= {MAX_ENUM_LABELED}")
    # Every code in lexicographic order: digit j of row i in base N.
    place = N ** np.arange(N - 3, -1, -1, dtype=np.int64)
    codes = np.arange(N ** (N - 2), dtype=np.int64)[:, None] // place % N + 1
    for edges in prufer_edges(codes):
        yield LabeledTree(N, tuple(map(tuple, edges.tolist())))


def enumerate_plane_trees(N: int, D: int) -> Iterator[PlaneTree]:
    """Every plane tree on N vertices with branching <= D exactly once.

    Depth-first over Lukasiewicz words with steps in {-1, ..., D-1}.
    """
    if not 1 <= N <= MAX_ENUM_PLANE:
        raise TooLarge(f"plane enumeration supports 1 <= N <= {MAX_ENUM_PLANE}")
    if D < 1:
        raise ValueError("plane enumeration needs D >= 1")
    prefix: list[int] = []

    def rec(pos: int, walk: int) -> Iterator[PlaneTree]:
        if pos == N:
            if walk == -1:
                yield PlaneTree(tuple(prefix))
            return
        remaining = N - pos
        for c in range(min(D, N - 1) + 1):
            new_walk = walk + c - 1
            if pos < N - 1 and new_walk < 0:
                continue
            # the remaining steps can lose at most 1 per vertex
            if new_walk - (remaining - 1) > -1:
                continue
            prefix.append(c)
            yield from rec(pos + 1, new_walk)
            prefix.pop()

    yield from rec(0, 0)


# ---------------------------------------------------------------------------
# per-tree statistics


def chi_of(tree, spec: EnsembleSpec) -> CountVector:
    """Class-count vector of a tree; raises DegreeBoundExceeded past D."""
    if isinstance(tree, LabeledTree):
        _require_kind(spec, Kind.LABELED, "chi of a labeled tree")
        values = tree.degrees()
    elif isinstance(tree, PlaneTree):
        _require_kind(spec, Kind.PLANE, "chi of a plane tree")
        values = np.asarray(tree.child_counts, dtype=np.int64)
    else:
        raise TypeError(f"not a tree: {tree!r}")
    if values.size and int(values.max()) > spec.D:
        raise DegreeBoundExceeded(
            f"tree has class {int(values.max())}, spec bound is {spec.D}"
        )
    counts = np.bincount(values - spec.k_min, minlength=spec.n_classes)
    return CountVector(spec.kind, tuple(int(v) for v in counts))


def energy_of(tree, spec: EnsembleSpec) -> float:
    """Gibbs energy H(T) = sum_k c(k) chi_k(T)."""
    chi = chi_of(tree, spec)
    return float(chi.as_array() @ spec.energies())
