"""Concrete tree construction: exact Gibbs samplers, codecs, enumerators.

Labeled trees are stored as canonical sorted edge lists over labels 1..N.
They are built from words of length N-2 over 1..N in which vertex v
appears deg(v) - 1 times, by the Foata-Fuchs-type bijection ``word_edges``
(D. Foata & A. Fuchs, "Rearrangements de fonctions et denombrement",
J. Combin. Theory 8, 1970), which decodes a whole block of words in a fixed
number of array passes.  ``prufer_decode`` and ``prufer_encode`` are the
single-tree Prufer codec, another bijection with the same degree rule.
Plane trees are stored as preorder child-count sequences: a sequence
c_1..c_N is valid exactly when the partial sums of (c_i - 1) stay >= 0
before the last position and end at -1 (a Lukasiewicz path).

Exact sampling pipelines (both start from an exact class sequence,
``partition.sample_class_sequences``: a profile drawn from the tilted
multinomial, laid out and uniformly permuted):

* labeled: read the sequence as the degrees of vertices 1..N, lay out the
  multiset word with vertex i repeated deg(i) - 1 times, permute it
  uniformly, map the word to its tree.  Each tree with those degrees has
  exactly one word, so trees sharing a degree sequence are equally likely,
  which is exactly the multinomial tree count, and the composite law is the
  Gibbs measure (whichever such bijection maps words to trees).
* plane: rotate the child-count sequence, already uniformly permuted, to
  its unique valid Lukasiewicz rotation (cycle lemma).  Each valid word has
  exactly N distinct rotations, so conditional uniformity is preserved and
  the composite law is again exactly Gibbs.

Text serialization: a labeled tree is its sorted edge list, one ``u v`` line
per edge; a plane tree is one line of space-separated child counts.  Both are
newline-terminated ASCII.  ``write_sample`` writes sampled batches without
tree objects or per-tree formatting: per sub-block of rows, labeled words
are decoded to edge arrays by ``word_edges``, and the values are encoded
with one gather from a table of digit-and-separator cells (the labeled
separators end each tree in a blank line), one compress and one
``tobytes``.  ``to_text`` is the single-tree form of the same text.
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
# word -> tree map and Prufer codec


def code_occurrences(codes: np.ndarray) -> np.ndarray:
    """Occurrences of each label in each row of a (B, N-2) code matrix.

    Column v of the (B, N+1) result counts label v (column 0 is zero), so
    for 1 <= v <= N it is deg(v) - 1, the shifted class of vertex v.
    """
    B, N = codes.shape[0], codes.shape[1] + 2
    base = np.arange(B, dtype=np.int64)[:, None] * (N + 1)
    flat = np.bincount((codes + base).ravel(), minlength=B * (N + 1))
    return flat.reshape(B, N + 1)


def word_edges(words: np.ndarray) -> np.ndarray:
    """Canonical edge arrays of the trees of a (B, N-2) word matrix.

    This is the Foata-Fuchs-type bijection from words over 1..N to labeled
    trees (D. Foata & A. Fuchs, "Rearrangements de fonctions et
    denombrement", J. Combin. Theory 8, 1970).  With s = (N, w_1, ...,
    w_{N-2}), edge i for i = 1..N-1 joins s_i to its child c_i, which is
    s_{i+1} when i < N-1 and s_{i+1} is absent from s_1..s_i, and otherwise
    the next unused label among those absent from s, in increasing order.
    Vertex v ends up with degree 1 + (occurrences of v in the word).  No
    child depends on an earlier one, so a whole block decodes in a fixed
    number of array passes.  Row r of the (B, N-1, 2) result lists the edges
    as (min, max) pairs in increasing order, as ``LabeledTree`` stores them.
    """
    B, N = words.shape[0], words.shape[1] + 2
    s = np.empty((B, N - 1), dtype=np.int64)
    s[:, 0] = N
    s[:, 1:] = words
    # first[r, v]: first position of label v in row r of s, N - 1 if absent
    flat = s + np.arange(B, dtype=np.int64)[:, None] * (N + 1)
    first = np.full(B * (N + 1), N - 1, dtype=np.int64)
    np.minimum.at(first, flat.ravel(), np.tile(np.arange(N - 1), B))
    take_leaf = np.ones((B, N - 1), dtype=bool)
    take_leaf[:, :-1] = first[flat[:, 1:]] != np.arange(1, N - 1)
    child = np.empty_like(s)
    child[:, :-1] = s[:, 1:]
    first[:: N + 1] = 0  # label 0 is no vertex
    # the absent labels, row by row in increasing order, fill the leaf slots
    child[take_leaf] = np.flatnonzero(first == N - 1) % (N + 1)
    key = np.minimum(s, child)
    key *= N + 1
    key += np.maximum(s, child)
    key.sort(axis=1)
    edges = np.empty((B, N - 1, 2), dtype=np.int64)
    np.divmod(key, N + 1, out=(edges[:, :, 0], edges[:, :, 1]))
    return edges


def prufer_decode(seq) -> LabeledTree:
    """Decode a Prufer code of length N-2 into its labeled tree.

    The empty code decodes to the single edge {1, 2}.  Vertex v ends up
    with degree 1 + (occurrences of v in the code).  This is the textbook
    linear-time decoder, one tree at a time: ``ptr`` scans upward for the
    next leaf, and a vertex that becomes a leaf below ``ptr`` is taken at
    once.  The samplers and enumerators build trees with ``word_edges``.
    """
    code = [int(v) for v in seq]
    N = len(code) + 2
    bad = [v for v in code if not 1 <= v <= N]
    if bad:
        raise BadLabel(f"code entry {bad[0]} outside 1..{N}")
    deg = [1] * (N + 1)
    for v in code:
        deg[v] += 1
    edges = []
    ptr = leaf = deg.index(1, 1)
    for v in code:
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr = leaf = deg.index(1, ptr + 1)
    edges.append((leaf, N))
    return LabeledTree(N, tuple(edges))


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
    """Batch of ``size`` tree words drawn exactly from the Gibbs measure.

    Row m is a word of length N-2 over 1..N in which vertex v appears
    deg(v) - 1 times, uniformly permuted; ``word_edges`` maps it to its
    tree.  That map is a bijection with deg(v) = 1 + occurrences(v), as the
    Prufer code is, so any such map gives the same tree law, and row counts
    over this output are tree-level statistics.  (The rows are also
    Prufer codes of trees with the same law, hence the name.)
    """
    _require_kind(spec, Kind.LABELED, "labeled sampling")
    degrees = sample_class_sequences(spec, N, size, rng)
    degrees -= 1
    labels = np.tile(np.arange(1, N + 1, dtype=np.int64), size)
    codes = np.repeat(labels, degrees.ravel()).reshape(size, N - 2)
    return rng.permuted(codes, axis=1, out=codes)


def sample_labeled_tree(spec: EnsembleSpec, N: int, rng: np.random.Generator) -> LabeledTree:
    """One exact draw from the labeled-tree Gibbs measure."""
    edges = word_edges(sample_prufer_codes(spec, N, 1, rng))[0]
    return LabeledTree(N, tuple(map(tuple, edges.tolist())))


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

#: Ceiling on the bytes that one ``write_sample`` sub-block spends on its
#: values: eight per value for its int64 form and one per text cell of its
#: digits and separator.  2 MB holds about 75 labeled trees at N = 1000,
#: enough to amortize the per-call cost of the array steps (larger budgets
#: ran no faster there); past N of about 7*10^4 (labeled) or 2*10^5 (plane)
#: a sub-block is one tree.
WRITE_BLOCK_BYTES = 2**21

#: Separators written after a value, by kind: labeled rows are ``u v`` edge
#: lines with a blank line after the last edge, plane rows are one
#: space-separated line; the last one ends a tree.
_SEPARATORS = {Kind.LABELED: (b" ", b"\n", b"\n\n"), Kind.PLANE: (b" ", b"\n")}


def _text_table(top: int, seps: tuple[bytes, ...]) -> np.ndarray:
    """Text cells of every (separator, value) pair, one fixed-width item each.

    Item j * (top + 1) + v holds the ASCII digits of v (0 <= v <= top),
    right-aligned, then ``seps[j]``; the other cells hold 0, so that
    dropping the zero bytes of a gathered row leaves its ``%d`` text.
    """
    digits = len(str(top))
    sep_width = max(map(len, seps))
    table = np.zeros((len(seps), top + 1, digits + sep_width), dtype=np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for col in range(digits):
        # the digit at ``place`` runs through 0..9 in runs of ``place`` values
        place = 10 ** (digits - 1 - col)
        cycles = top // (10 * place) + 1
        column = np.tile(np.repeat(ascii_digits, place), cycles)[: top + 1]
        if place > 1:
            column[:place] = 0  # leading zeros
        table[:, :, col] = column
    for j, sep in enumerate(seps):
        table[j, :, digits : digits + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    return table.reshape(-1).view(f"V{digits + sep_width}")


def write_sample(spec: EnsembleSpec, blocks, out) -> np.ndarray:
    """Write sampled trees to ``out`` as text; return their summed chi.

    ``blocks`` is a nonempty iterable of row arrays of one N, each of tree
    words (labeled) or preorder child-count rows (plane), as the samplers
    return them; a lazy iterable is drawn one block at a time, and one text
    table, sized by the first block, serves all of them.  Labeled rows are
    decoded by ``word_edges``.  The text of tree r equals
    ``LabeledTree(N, edges).to_text() + "\n"`` (labeled) or
    ``PlaneTree(rows[r]).to_text()`` (plane).  Sub-blocks of rows are
    encoded without per-tree formatting: one gather of each value's digits
    and separator from ``_text_table``, one boolean compress of the padding
    and one ``tobytes``.  A sub-block spends at most ``WRITE_BLOCK_BYTES``
    over its values (or holds one row), and its text is written before the
    next one is made.  The result counts vertices per shifted class over all
    rows; every class must be within the bound.
    """
    blocks = iter(blocks)
    rows = next(blocks)
    labeled = spec.kind is Kind.LABELED
    N = rows.shape[1] + 2 if labeled else rows.shape[1]
    n_values = 2 * (N - 1) if labeled else N
    top = N if labeled else spec.D
    seps = _SEPARATORS[spec.kind]
    table = _text_table(top, seps)
    offsets = np.zeros(n_values, dtype=np.int64)
    if labeled:
        offsets[1::2] = top + 1  # a newline after each edge
    offsets[-1] = (len(seps) - 1) * (top + 1)
    step = max(1, WRITE_BLOCK_BYTES // (n_values * (8 + table.itemsize)))

    def encode(part: np.ndarray) -> np.ndarray:
        # a frame of its own: a sub-block's arrays die before the next draw
        if labeled:
            classes = code_occurrences(part)[:, 1:]
            values = word_edges(part).reshape(part.shape[0], n_values)
        else:
            classes = values = part
        cells = table[values + offsets].view(np.uint8)
        out.write(cells[cells != 0].tobytes().decode("ascii"))
        return np.bincount(classes.ravel(), minlength=spec.n_classes)

    totals = np.zeros(spec.n_classes, dtype=np.int64)
    while rows is not None:
        for start in range(0, rows.shape[0], step):
            totals += encode(rows[start : start + step])
        rows = next(blocks, None)
    return totals


# ---------------------------------------------------------------------------
# exhaustive enumerators (oracles for small N)


def enumerate_labeled_trees(N: int) -> Iterator[LabeledTree]:
    """Every labeled tree on N vertices exactly once, via ``word_edges`` of
    all N^{N-2} words in lexicographic order."""
    if not 2 <= N <= MAX_ENUM_LABELED:
        raise TooLarge(f"labeled enumeration supports 2 <= N <= {MAX_ENUM_LABELED}")
    # Every word in lexicographic order: digit j of row i in base N.
    place = N ** np.arange(N - 3, -1, -1, dtype=np.int64)
    codes = np.arange(N ** (N - 2), dtype=np.int64)[:, None] // place % N + 1
    for edges in word_edges(codes):
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
