"""Concrete tree construction: exact Gibbs samplers, word -> tree maps, enumerators.

Trees are arrays, a block of them at a time.  A labeled tree is its
canonical sorted edge list over labels 1..N, a (N-1, 2) slice of a block.
Labeled trees are built from words of length N-2 over 1..N in which vertex
v appears deg(v) - 1 times, by the Foata-Fuchs-type bijection
``word_edges`` (D. Foata & A. Fuchs, "Rearrangements de fonctions et
denombrement", J. Combin. Theory 8, 1970), which decodes a whole block of
words in a fixed number of array passes.  ``prufer_decode`` is the
single-tree Prufer decoder, another bijection with the same degree rule,
and returns one ``LabeledTree`` object.  A plane tree is a row of preorder
child counts: c_1..c_N is valid exactly when the partial sums of (c_i - 1)
stay >= 0 before the last position and end at -1 (a Lukasiewicz path).

The exhaustive enumerators, the oracles of ``oracle-check`` for small N,
return every tree in these forms: ``enumerate_labeled_trees`` the
``word_edges`` of all N^(N-2) words, ``enumerate_plane_trees`` every
Lukasiewicz row with counts up to D, both in lexicographic order.  The
classes of a block are counts along its rows (``row_counts``): a labeled
tree's degrees are the occurrences of each label among its edge ends, a
plane tree's row is its classes.

Exact sampling pipelines (both start from the exact profiles of
``partition.sample_profiles``, drawn from the tilted multinomial; each
profile is laid out as a class sequence and uniformly permuted by
``partition.sample_class_sequences``):

* labeled: read the sequence as the degrees of vertices 1..N, lay out the
  multiset word with vertex i repeated deg(i) - 1 times, permute it
  uniformly, map the word to its tree.  Each tree with those degrees has
  exactly one word, so trees sharing a degree sequence are equally likely,
  which is exactly the multinomial tree count, and the composite law is the
  Gibbs measure (whichever such bijection maps words to trees).
* plane: rotate the child-count sequence, already uniformly permuted, to
  its unique valid Lukasiewicz rotation (cycle lemma), which starts right
  after the first minimum of its prefix sums (``_lukasiewicz_starts``).
  Each valid word has exactly N distinct rotations, so conditional
  uniformity is preserved and the composite law is again exactly Gibbs.

The profiles of a batch are drawn at once, (trees, classes) int64; the
samplers then yield its trees in row groups of ``group_rows``, each laid
out from its profiles, permuted, and made into words or rotations when it
is taken, and freed before the next is made.  A group comes with the sum of
its profiles, its class totals.  ``rng.permuted`` draws row after row, and
the labeled words are permuted on a second stream, the batch stream jumped
ahead once after the profiles, so no draw depends on the group size.

Text serialization: a labeled tree is its sorted edge list, one ``u v`` line
per edge, then a blank line; a plane tree is one line of space-separated
child counts.  Both are newline-terminated ASCII.  ``write_sample`` writes
the row groups without tree objects or per-tree formatting: per group,
labeled words are decoded to int32 edge arrays by ``word_edges``, and the
values are encoded, in pieces of at most a quarter of
``WRITE_BLOCK_BYTES``, with one gather from a table of cells of a value's
digits and one separator (and one cell of a lone newline, each labeled
tree's blank line), one ``tobytes`` and one deletion of the padding bytes.
``WRITE_BLOCK_BYTES`` bounds in bytes all that a group holds, from its class
rows to its text, at the bytes per cell that were traced for each stage
(``group_rows``).  One tree larger than that holds about 30 (labeled) or 9
(plane) bytes per vertex, beside a text table of two cells per label.
``LabeledTree.to_text`` is the single-tree form of the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ensembles import EnsembleSpec, Kind
from .errors import BadLabel, KindMismatch, NotATree, TooLarge
from .partition import sample_class_sequences, sample_profiles

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


# ---------------------------------------------------------------------------
# word -> tree map and Prufer decoder


def row_counts(rows: np.ndarray, width: int) -> np.ndarray:
    """For each row of a (B, n) array of values 0..width-1, the count of
    each value: column v of the (B, width) result counts value v."""
    B = rows.shape[0]
    base = np.arange(B, dtype=np.int64)[:, None] * width
    flat = np.bincount((rows + base).ravel(), minlength=B * width)
    return flat.reshape(B, width)


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
    Labels, positions and the result are int32 while B (N+1) < 2^31 (int64
    beyond), and the edges are sorted as unsigned keys min << 16 | max while
    N < 2^16 (shifted by 32 in 64 bits beyond): at most 22 bytes per vertex
    at the peak.
    """
    B, N = words.shape[0], words.shape[1] + 2
    index = np.int32 if B * (N + 1) < 2**31 else np.int64  # labels, positions
    s = np.empty((B, N - 1), dtype=index)
    s[:, 0] = N
    s[:, 1:] = words
    # first[r, v]: first position of label v in row r of s, N - 1 if absent
    flat = s + (np.arange(B, dtype=index) * (N + 1))[:, None]
    first = np.full(B * (N + 1), N - 1, dtype=index)
    np.minimum.at(first, flat.ravel(), np.tile(np.arange(N - 1, dtype=index), B))
    take_leaf = np.ones((B, N - 1), dtype=bool)
    take_leaf[:, :-1] = first[flat[:, 1:]] != np.arange(1, N - 1, dtype=index)
    del flat
    child = np.empty_like(s)
    child[:, :-1] = s[:, 1:]
    first[:: N + 1] = 0  # label 0 is no vertex
    # the absent labels, row by row in increasing order, fill the leaf slots
    leaves = np.flatnonzero(first == N - 1)
    del first
    leaves %= N + 1
    child[take_leaf] = leaves
    del take_leaf, leaves
    # sort keys min << shift | max, unsigned: 32 bits while labels fit in 16
    unsigned, shift = (np.uint32, 16) if N < 2**16 and index is np.int32 else (np.uint64, 32)
    key = np.minimum(s, child, dtype=unsigned, casting="unsafe")
    np.maximum(s, child, out=s)
    del child
    key <<= shift
    np.bitwise_or(key, s, out=key, dtype=unsigned, casting="unsafe")
    del s
    key.sort(axis=1)
    edges = np.empty((B, N - 1, 2), dtype=index)
    np.right_shift(key, shift, out=edges[:, :, 0], casting="unsafe")
    np.bitwise_and(key, (1 << shift) - 1, out=edges[:, :, 1], casting="unsafe")
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


# ---------------------------------------------------------------------------
# cycle lemma


def _lukasiewicz_starts(counts: np.ndarray) -> np.ndarray:
    """Per row of child counts whose steps c - 1 sum to -1, the start of the
    unique rotation that is a Lukasiewicz path: right after the first
    position attaining the minimal prefix sum of the steps."""
    walks = counts.astype(np.int32)  # |prefix sums| < N
    walks -= 1
    np.cumsum(walks, axis=1, out=walks)
    return (walks.argmin(axis=1) + 1) % counts.shape[1]


# ---------------------------------------------------------------------------
# exact samplers


def _require_kind(spec: EnsembleSpec, kind: Kind, what: str) -> None:
    if spec.kind is not kind:
        raise KindMismatch(f"{what} needs a {kind.value} spec, got {spec.kind.value}")


def sample_prufer_codes(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``size`` tree words drawn exactly from the Gibbs measure, in
    groups of ``group_rows`` rows, each with its class totals.

    Row m is a word of length N-2 over 1..N in which vertex v appears
    deg(v) - 1 times, uniformly permuted; ``word_edges`` maps it to its
    tree.  That map is a bijection with deg(v) = 1 + occurrences(v), as the
    Prufer code is, so any such map gives the same tree law, and row counts
    over this output are tree-level statistics.  (The rows are also
    Prufer codes of trees with the same law, hence the name.)

    The degree profiles of all ``size`` draws are drawn first
    (``sample_profiles``); a group's degree rows are laid out and permuted
    on ``rng`` (``sample_class_sequences``), and its words on a second
    stream, ``rng`` jumped ahead once after the profiles (its bit generator
    must have ``jumped``, as the PCG64 of ``rng_stream`` has), only when the
    group is taken.  ``rng.permuted`` draws row after row, so neither
    depends on the group size.  A group comes with the summed profiles of
    its rows: its count of vertices per shifted class.
    """
    _require_kind(spec, Kind.LABELED, "labeled sampling")
    profiles = sample_profiles(spec, N, size, rng)
    word_rng = np.random.Generator(rng.bit_generator.jumped())
    step = group_rows(spec, N)
    for start in range(0, size, step):
        group = profiles[start : start + step]
        occurrences = sample_class_sequences(spec, group, rng)
        occurrences -= 1  # of each vertex in the word
        words = np.repeat(np.tile(np.arange(1, N + 1), group.shape[0]), occurrences.ravel())
        del occurrences
        words = words.reshape(group.shape[0], N - 2)
        yield word_rng.permuted(words, axis=1, out=words), group.sum(axis=0)
        del words  # freed before the next group is made


def sample_plane_child_counts(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``size`` plane trees as preorder child-count rows, in groups of
    ``group_rows`` rows, each with its class totals: the profiles of all of
    them, drawn first by ``sample_profiles``, and a group's class sequences,
    laid out and permuted by ``sample_class_sequences`` and rotated by the
    cycle lemma, when it is taken.  The rows have the smallest signed
    integer type that holds D (one byte per vertex below D = 128)."""
    _require_kind(spec, Kind.PLANE, "plane sampling")
    profiles = sample_profiles(spec, N, size, rng)
    small = np.min_scalar_type(-spec.D - 1)  # holds -1..D
    step = group_rows(spec, N)
    for start in range(0, size, step):
        group = profiles[start : start + step]
        counts = sample_class_sequences(spec, group, rng).astype(small)
        starts = _lukasiewicz_starts(counts)
        # row r of the doubled rows, read from starts[r] on, is its rotation
        doubled = sliding_window_view(np.concatenate([counts, counts], axis=1), N, axis=1)
        rotated = doubled[np.arange(group.shape[0]), starts]
        del counts, doubled
        yield rotated, group.sum(axis=0)
        del rotated  # freed before the next group is made


# ---------------------------------------------------------------------------
# batch text writer

#: Ceiling on the bytes that one row group of the samplers holds at its
#: peak, from laying out its class rows to writing its text, the text table
#: included (``group_rows``).  At N = 1000 a group holds 32 labeled or 72
#: plane trees; from N of about 1.3*10^4 (labeled) or 3.7*10^4 (plane) it is
#: one tree, whose text is still written in pieces of a quarter of the budget.
WRITE_BLOCK_BYTES = 2**20

#: Bytes that a row group's arrays hold at their peak per text cell, by
#: kind, with two cells more per tree for its per-row arrays, traced with
#: tracemalloc over N = 2..20000 and budgets of 2^12..2^22 B: the words'
#: decode by ``word_edges`` and their int32 table indices, after the int64
#: class rows and their layout into int64 words (labeled), or the int64
#: class rows and their int8 copy, before the rotation and the int32 table
#: indices (plane).  A plane group's peak holds no text, so it fills about
#: 0.62 of the budget; a labeled group about 0.84.
_VALUE_BYTES = {Kind.LABELED: 10, Kind.PLANE: 9}

#: Copies of a text cell that ``write_sample`` holds at once per cell of a
#: text piece: the gathered cells, their bytes, the text without padding
#: and its encoding by ``out``, of which at most three live together.
_CELL_COPIES = 3

#: Bytes that ``write_sample`` holds per call beside its arrays' data:
#: numpy's casting and indexing buffers and the array objects.
_CALL_BYTES = 2**17


def _text_shape(spec: EnsembleSpec, N: int) -> tuple[int, int, int]:
    """Text cells per tree, the largest value written, and the bytes of a
    cell: the 2(N-1) edge ends over labels up to N and the blank line that
    ends the tree (labeled), or the N child counts up to D (plane); a cell
    holds a value's digits and one separator."""
    n_cells, top = (2 * N - 1, N) if spec.kind is Kind.LABELED else (N, spec.D)
    return n_cells, top, len(str(top)) + 1


def _piece_values(spec: EnsembleSpec, N: int) -> int:
    """Cells whose text ``write_sample`` gathers at once: a quarter of
    ``WRITE_BLOCK_BYTES`` at ``_CELL_COPIES`` copies per cell."""
    return max(1, WRITE_BLOCK_BYTES // (4 * _CELL_COPIES * _text_shape(spec, N)[2]))


def group_rows(spec: EnsembleSpec, N: int) -> int:
    """Trees per row group of the samplers: as many as hold at most
    ``WRITE_BLOCK_BYTES`` at ``_VALUE_BYTES``, beside what ``write_sample``
    holds once: the text table, one text piece and ``_CALL_BYTES``; and at
    least one."""
    n_cells, top, cell = _text_shape(spec, N)
    once = _CALL_BYTES + cell * (2 * (top + 1) + 1 + _CELL_COPIES * _piece_values(spec, N))
    return max(1, (WRITE_BLOCK_BYTES - once) // (_VALUE_BYTES[spec.kind] * (n_cells + 2)))


def _text_table(top: int) -> np.ndarray:
    """Text cells, one fixed-width item each: item v (0 <= v <= top) holds
    the ASCII digits of v, right-aligned, then a space, item top + 1 + v the
    same digits then a newline, and the last item a lone newline, the blank
    line after a labeled tree.  The other bytes are 0, so that dropping the
    zero bytes of gathered cells leaves their ``%d`` text.
    """
    digits = len(str(top))
    table = np.zeros((2 * (top + 1) + 1, digits + 1), dtype=np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    numbers = table[:-1].reshape(2, top + 1, digits + 1)  # a view
    for col in range(digits):
        # the digit at ``place`` runs through 0..9 in runs of ``place``
        # values: top // place + 1 runs reach ``top``, no more are made
        place = 10 ** (digits - 1 - col)
        runs = np.tile(ascii_digits, top // (10 * place) + 1)[: top // place + 1]
        column = np.repeat(runs, place)[: top + 1]
        if place > 1:
            column[:place] = 0  # leading zeros
        numbers[:, :, col] = column
    numbers[0, :, digits] = ord(" ")
    table[top + 1 :, digits] = ord("\n")
    return table.reshape(-1).view(f"V{digits + 1}")


def write_sample(spec: EnsembleSpec, groups, out) -> np.ndarray:
    """Write sampled trees to ``out`` as text; return their summed chi.

    ``groups`` is a nonempty iterable of (rows, class totals) pairs of one
    N, as the samplers yield them: rows of tree words (labeled) or preorder
    child counts (plane), and the count of their vertices per shifted
    class.  A lazy iterable is drawn one group at a time, and one text
    table, sized by the first group, serves all of them.  Labeled rows are
    decoded by ``word_edges``.  The text of tree r equals
    ``LabeledTree(N, edges).to_text() + "\n"`` (labeled) or its counts
    joined by spaces and ended by a newline (plane).  Each group is encoded
    without per-tree formatting: one gather of each value's digits and
    separator, and of each labeled tree's blank line, from ``_text_table``,
    one ``tobytes`` and one deletion of the padding bytes, which no digit or
    separator contains.  Its text is written before the next group is
    drawn, so the working arrays are those of one group, bounded by
    ``WRITE_BLOCK_BYTES`` when the samplers made it (``group_rows``).  The
    result sums the class totals of the groups.
    """
    groups = iter(groups)
    rows, counts = next(groups)
    labeled = spec.kind is Kind.LABELED
    N = rows.shape[1] + 2 if labeled else rows.shape[1]
    n_cells, top, _ = _text_shape(spec, N)
    table = _text_table(top)
    piece = _piece_values(spec, N)

    def encode(part: np.ndarray) -> None:
        # a frame of its own: a group's arrays die before the next draw
        if labeled:
            edges = word_edges(part)
            index = np.empty((part.shape[0], n_cells), dtype=edges.dtype)
            index[:, :-1] = edges.reshape(part.shape[0], n_cells - 1)
            del edges
            index[:, 1::2] += top + 1  # a newline after each edge
            index[:, -1] = 2 * (top + 1)  # the blank line that ends a tree
        else:
            index = part.astype(np.int32)
            index[:, -1] += top + 1  # the newline that ends a tree
        # the text in pieces of the group's cells, row after row
        index = index.reshape(-1)
        for start in range(0, index.size, piece):
            text = table[index[start : start + piece]].tobytes()
            out.write(text.translate(None, b"\0").decode("ascii"))
            del text  # freed before the next piece is gathered

    totals = np.zeros(spec.n_classes, dtype=np.int64)
    for rows, counts in chain([(rows, counts)], groups):
        encode(rows)
        totals += counts
        del rows  # freed before the next group is drawn
    return totals


# ---------------------------------------------------------------------------
# exhaustive enumerators (oracles for small N)


def enumerate_labeled_trees(N: int) -> np.ndarray:
    """Every labeled tree on N vertices exactly once: the (N^{N-2}, N-1, 2)
    ``word_edges`` of all words, in lexicographic order."""
    if not 2 <= N <= MAX_ENUM_LABELED:
        raise TooLarge(f"labeled enumeration supports 2 <= N <= {MAX_ENUM_LABELED}")
    # Every word in lexicographic order: digit j of row i in base N.
    place = N ** np.arange(N - 3, -1, -1, dtype=np.int64)
    return word_edges(np.arange(N ** (N - 2), dtype=np.int64)[:, None] // place % N + 1)


def enumerate_plane_trees(N: int, D: int) -> np.ndarray:
    """Every plane tree on N vertices with branching <= D exactly once: the
    (M, N) int8 preorder child-count rows, in lexicographic (depth-first)
    order.

    Each prefix of a Lukasiewicz word is extended by every count up to
    min(D, N - 1) in turn, keeping those whose walk stays >= 0 before the
    last vertex and can still reach -1, losing at most 1 per vertex left.
    """
    if not 1 <= N <= MAX_ENUM_PLANE:
        raise TooLarge(f"plane enumeration supports 1 <= N <= {MAX_ENUM_PLANE}")
    if D < 1:
        raise ValueError("plane enumeration needs D >= 1")
    counts = np.arange(min(D, N - 1) + 1, dtype=np.int8)
    rows, walks = np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int8)
    for pos in range(N):
        rows = np.column_stack([np.repeat(rows, counts.size, axis=0), np.tile(counts, len(rows))])
        walks = np.repeat(walks, counts.size) + rows[:, -1] - 1
        keep = (walks >= (0 if pos < N - 1 else -1)) & (walks <= N - pos - 2)
        rows, walks = rows[keep], walks[keep]
    return rows
