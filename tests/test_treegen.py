import io
import itertools
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_text,
    chi_square_check,
    class_rows,
    gibbs_tree_law,
    joined,
    tree_key,
    word_tree,
)
from oracles import (
    BadStepSum,
    DegreeBoundExceeded,
    PlaneTree,
    chi_of,
    cycle_lemma_rotation,
    energy_of,
    labeled_trees,
    plane_trees,
    prufer_encode,
)
from treegibbs import (
    BadLabel,
    EnsembleSpec,
    Kind,
    KindMismatch,
    LabeledTree,
    NotATree,
    TooLarge,
    enumerate_labeled_trees,
    enumerate_plane_trees,
    prufer_decode,
    rng_stream,
    sample_plane_child_counts,
    sample_prufer_codes,
)
from treegibbs import partition, treegen
from treegibbs.treegen import word_edges, write_sample


def test_prufer_decode_examples():
    assert prufer_decode(()).edges == ((1, 2),)
    star = prufer_decode((4, 4))
    assert star.edges == ((1, 4), (2, 4), (3, 4))
    path = prufer_decode((2, 3))
    assert path.edges == ((1, 2), (2, 3), (3, 4))


def test_prufer_encode_examples():
    assert prufer_encode(LabeledTree(2, ((1, 2),))) == ()
    assert prufer_encode(LabeledTree(4, ((1, 4), (2, 4), (3, 4)))) == (4, 4)
    assert prufer_encode(LabeledTree(4, ((1, 2), (2, 3), (3, 4)))) == (2, 3)


def test_prufer_decode_bad_label():
    with pytest.raises(BadLabel):
        prufer_decode((5, 1))  # N = 4, labels must be 1..4


def test_prufer_encode_rejects_non_trees():
    with pytest.raises(NotATree):
        prufer_encode(LabeledTree(4, ((1, 2), (2, 3))))  # too few edges
    with pytest.raises(NotATree):
        prufer_encode(LabeledTree(4, ((1, 2), (2, 3), (1, 3))))  # cycle
    with pytest.raises(NotATree):
        LabeledTree(3, ((1, 1), (2, 3)))  # self loop


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
def test_prufer_round_trip_exhaustive(N):
    count = 0
    for code in itertools.product(range(1, N + 1), repeat=N - 2):
        tree = prufer_decode(code)
        assert prufer_encode(tree) == code
        degrees = tree.degrees()
        for v in range(1, N + 1):
            assert degrees[v - 1] == 1 + code.count(v)
        count += 1
    assert count == N ** max(N - 2, 0)


prufer_codes = st.integers(2, 60).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2)
)


@settings(max_examples=300, deadline=None)
@given(prufer_codes)
def test_prufer_round_trip_property(code):
    tree = prufer_decode(code)
    assert prufer_encode(tree) == tuple(code)
    assert len(tree.edges) == len(code) + 1


def test_enumerate_labeled_matches_per_code_decode():
    N = 5
    codes = itertools.product(range(1, N + 1), repeat=N - 2)
    assert list(labeled_trees(N)) == [word_tree(c) for c in codes]


def _all_words(N):
    place = N ** np.arange(N - 3, -1, -1, dtype=np.int64)
    return np.arange(N ** (N - 2), dtype=np.int64)[:, None] // place % N + 1


@pytest.mark.parametrize("N", range(2, 9))
def test_word_map_is_a_bijection_exhaustive(N):
    # every word gives a distinct tree, with deg(v) = 1 + occurrences(v);
    # N^(N-2) distinct trees are all the labeled trees (Cayley)
    words = _all_words(N)
    edges = word_edges(words)
    assert edges.shape == (words.shape[0], N - 1, 2)
    assert (edges[:, :, 0] < edges[:, :, 1]).all()
    keys = (edges[:, :, 0] * (N + 1) + edges[:, :, 1])
    assert (np.diff(keys, axis=1) > 0).all()  # canonical order
    assert np.unique(keys, axis=0).shape[0] == N ** (N - 2)
    rows = np.arange(words.shape[0])[:, None]
    degrees = np.zeros((words.shape[0], N + 1), dtype=np.int64)
    np.add.at(degrees, (np.broadcast_to(rows, (rows.size, N - 1)), edges[:, :, 0]), 1)
    np.add.at(degrees, (np.broadcast_to(rows, (rows.size, N - 1)), edges[:, :, 1]), 1)
    occurrences = treegen.row_counts(words, N + 1)
    np.testing.assert_array_equal(degrees[:, 1:], occurrences[:, 1:] + 1)
    # each is a tree (prufer_encode raises NotATree on a cycle); every row
    # up to N = 7, every 7th of the 262,144 at N = 8
    for row in edges[:: 1 if N <= 7 else 7].tolist():
        assert len(prufer_encode(LabeledTree(N, tuple(map(tuple, row))))) == N - 2


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40).flatmap(
    lambda n: st.lists(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2),
                       min_size=1, max_size=6)))
def test_word_map_matches_per_row_reference(words):
    N = len(words[0]) + 2
    edges = word_edges(np.array(words, dtype=np.int64).reshape(len(words), N - 2))
    assert [tuple(map(tuple, e)) for e in edges.tolist()] == [word_tree(w).edges for w in words]


BATCH_CASES = [(2, 517), (3, 517), (4, 517), (10, 517), (257, 259)]


@pytest.mark.parametrize("N, count", BATCH_CASES)
def test_write_sample_labeled_matches_per_tree(N, count):
    # groups of 100 rows and a shorter last one, through one text table
    rng = rng_stream(41, N)
    codes = rng.integers(1, N + 1, size=(count, N - 2))
    spec = EnsembleSpec.labeled(max(N - 1, 2))  # every code's degrees fit
    out = io.StringIO()
    write_sample(spec, untallied(codes[i : i + 100] for i in range(0, count, 100)), out)
    trees = [word_tree(row) for row in codes]
    occurrences = [np.bincount(row, minlength=N + 1)[1:] for row in codes]
    assert [t.degrees().tolist() for t in trees] == [(o + 1).tolist() for o in occurrences]
    assert_same_text(out.getvalue(), "".join(tree.to_text() + "\n" for tree in trees))


@pytest.mark.parametrize("N, count", [(1, 517), (2, 517), (9, 517), (300, 259)])
def test_write_sample_plane_matches_per_tree(N, count, monkeypatch):
    # 4 KB per group: every case spans several groups, of one row (N = 300)
    # up to a few hundred (N = 1, 2)
    monkeypatch.setattr(treegen, "WRITE_BLOCK_BYTES", 2**12)
    spec = EnsembleSpec.plane(3)
    groups = list(sample_plane_child_counts(spec, N, count, rng_stream(43, N)))
    step = treegen.group_rows(spec, N)
    assert len(groups) > 1 and [g.shape[0] for g, _ in groups] == [
        min(step, count - start) for start in range(0, count, step)
    ]
    rows = joined(groups)
    out = io.StringIO()
    totals = write_sample(spec, groups, out)
    trees = [PlaneTree(tuple(row)) for row in rows]
    assert_same_text(out.getvalue(), "".join(tree.to_text() for tree in trees))
    recount = sum(chi_of(tree, spec) for tree in trees)
    assert totals.tolist() == recount.tolist()


def untallied(groups):
    """Row arrays as the (rows, class totals) pairs that ``write_sample``
    reads, with totals of 0: the tests that use it check the text alone."""
    return ((rows, 0) for rows in groups)


def _percent_d_text(spec, rows):
    """The text of ``write_sample`` by per-value ``%d`` formatting."""
    if spec.kind is Kind.PLANE:
        return "".join(" ".join("%d" % v for v in row) + "\n" for row in rows.tolist())
    trees = word_edges(rows).tolist()
    return "".join("".join("%d %d\n" % (u, v) for u, v in tree) + "\n" for tree in trees)


@pytest.mark.parametrize("top", [9, 10, 99, 100, 999, 1000])
def test_text_encoder_matches_percent_d_at_digit_boundaries(top):
    # ``top`` is the largest value the digit table holds: the label N of a
    # labeled tree (every label 1..N is written) or the plane bound D
    words = rng_stream(7, top).integers(1, top + 1, size=(3, top - 2))
    out = io.StringIO()
    write_sample(EnsembleSpec.labeled(top - 1), untallied([words]), out)
    assert out.getvalue() == _percent_d_text(EnsembleSpec.labeled(top - 1), words)
    rows = np.stack([np.arange(top + 1), np.arange(top, -1, -1)])
    out = io.StringIO()
    write_sample(EnsembleSpec.plane(top), untallied([rows]), out)
    assert out.getvalue() == _percent_d_text(EnsembleSpec.plane(top), rows)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_text_encoder_on_the_smallest_trees(N):
    plane = EnsembleSpec.plane(2)
    rows = enumerate_plane_trees(N, 2)
    out = io.StringIO()
    write_sample(plane, untallied([rows]), out)
    assert out.getvalue() == _percent_d_text(plane, rows)
    if N >= 2:  # labeled trees need two vertices
        labeled = EnsembleSpec.labeled(2)
        words = _all_words(N)
        out = io.StringIO()
        write_sample(labeled, untallied([words]), out)
        assert out.getvalue() == _percent_d_text(labeled, words)
        assert out.getvalue() == "".join(word_tree(w).to_text() + "\n" for w in words)


def test_cycle_lemma_examples():
    assert cycle_lemma_rotation((-1,)) == 0
    assert cycle_lemma_rotation((-1, 1, -1, 0)) == 1
    assert cycle_lemma_rotation((1, -1, 0, -1)) == 0  # already valid
    with pytest.raises(BadStepSum):
        cycle_lemma_rotation((0, 0))
    with pytest.raises(ValueError):
        cycle_lemma_rotation((-2, 1))


def _rotation_is_valid(word, start):
    rotated = word[start:] + word[:start]
    walk = 0
    for i, step in enumerate(rotated):
        walk += step
        if i < len(rotated) - 1 and walk < 0:
            return False
    return walk == -1


def test_cycle_lemma_uniqueness_random_words():
    rng = rng_stream(99)
    for _ in range(10_000):
        length = int(rng.integers(2, 24))
        counts = rng.multinomial(length - 1, np.full(length, 1.0 / length))
        word = tuple(int(c) - 1 for c in counts)
        valid = [s for s in range(length) if _rotation_is_valid(word, s)]
        assert len(valid) == 1
        assert cycle_lemma_rotation(word) == valid[0]


def test_enumerate_labeled_counts():
    assert sum(1 for _ in enumerate_labeled_trees(3)) == 3
    assert sum(1 for _ in enumerate_labeled_trees(4)) == 16
    assert sum(1 for _ in enumerate_labeled_trees(5)) == 125
    with pytest.raises(TooLarge):
        list(enumerate_labeled_trees(9))


def test_enumerate_plane_counts():
    assert sum(1 for _ in enumerate_plane_trees(4, 3)) == 5
    assert sum(1 for _ in enumerate_plane_trees(4, 5)) == 5
    assert sum(1 for _ in enumerate_plane_trees(4, 2)) == 4
    assert sum(1 for _ in enumerate_plane_trees(1, 1)) == 1
    with pytest.raises(TooLarge):
        list(enumerate_plane_trees(13, 2))


@pytest.mark.parametrize("N", range(1, 9))
def test_enumerate_plane_catalan(N):
    total = sum(1 for _ in enumerate_plane_trees(N, max(N - 1, 1)))
    assert total == math.comb(2 * (N - 1), N - 1) // N


def test_enumerate_plane_unique_and_valid():
    seen = set()
    for tree in plane_trees(6, 3):
        assert max(tree.child_counts) <= 3
        assert tree.child_counts not in seen
        seen.add(tree.child_counts)


@pytest.mark.parametrize("N, D", [(1, 1), (2, 1), (5, 2), (6, 5), (8, 3)])
def test_enumerate_plane_is_every_valid_row_in_order(N, D):
    # itertools.product runs through the rows in lexicographic order, the
    # depth-first order of the enumerator
    valid = []
    for row in itertools.product(range(min(D, N - 1) + 1), repeat=N):
        try:
            valid.append(list(PlaneTree(row).child_counts))
        except ValueError:  # not a Lukasiewicz path
            pass
    assert enumerate_plane_trees(N, D).tolist() == valid


def test_chi_and_energy_examples():
    lab = EnsembleSpec(Kind.LABELED, 2, 1.0, (0.4, -0.1))
    path = LabeledTree(4, ((1, 2), (2, 3), (3, 4)))
    assert chi_of(path, lab).tolist() == [2, 2]
    assert abs(energy_of(path, lab) - (2 * 0.4 + 2 * -0.1)) <= 1e-12
    lab3 = EnsembleSpec.labeled(3)
    star = LabeledTree(4, ((1, 4), (2, 4), (3, 4)))
    assert chi_of(star, lab3).tolist() == [3, 0, 1]
    plane = EnsembleSpec.plane(2)
    plane_path = PlaneTree((1, 1, 1, 0))
    assert chi_of(plane_path, plane).tolist() == [1, 3, 0]


def test_chi_degree_bound():
    with pytest.raises(DegreeBoundExceeded):
        chi_of(LabeledTree(4, ((1, 4), (2, 4), (3, 4))), EnsembleSpec.labeled(2))
    with pytest.raises(DegreeBoundExceeded):
        chi_of(PlaneTree((3, 0, 0, 0)), EnsembleSpec.plane(2))


def test_plane_tree_validation():
    with pytest.raises(ValueError):
        PlaneTree((0, 1))  # walk hits -1 before the end
    with pytest.raises(ValueError):
        PlaneTree((1, 1))  # walk does not end at -1


def test_serialization_round_trip():
    tree = prufer_decode((2, 3, 2))
    assert LabeledTree.from_text(tree.to_text()) == tree
    assert tree.to_text().endswith("\n")
    ptree = PlaneTree((2, 0, 1, 0))
    assert PlaneTree.from_text(ptree.to_text()) == ptree
    assert ptree.to_text() == "2 0 1 0\n"


def test_labeled_sampler_degenerate_d2():
    spec = EnsembleSpec.labeled(2)
    rng = rng_stream(5)
    for _ in range(10):
        [(words, _)] = sample_prufer_codes(spec, 5, 1, rng)
        tree = LabeledTree(5, tuple(map(tuple, word_edges(words)[0].tolist())))
        degs = sorted(tree.degrees())
        assert degs == [1, 1, 2, 2, 2]  # always a path


def test_plane_sampler_degenerate_d1():
    spec = EnsembleSpec.plane(1)
    rng = rng_stream(5)
    for N in (1, 4, 7):
        [(rows, _)] = sample_plane_child_counts(spec, N, 1, rng)
        tree = PlaneTree(tuple(int(v) for v in rows[0]))
        assert tree.child_counts == (1,) * (N - 1) + (0,)


@pytest.mark.parametrize(
    "sampler, spec",
    [
        (sample_prufer_codes, EnsembleSpec.plane(3)),
        (sample_plane_child_counts, EnsembleSpec.labeled(3)),
    ],
    ids=["labeled-sampler-plane-spec", "plane-sampler-labeled-spec"],
)
def test_sampler_refuses_the_other_kind(sampler, spec):
    # a generator: the check runs when the first group is taken
    with pytest.raises(KindMismatch, match="needs a"):
        next(sampler(spec, 10, 5, rng_stream(1)))


def test_plane_sample_rows_are_valid_trees():
    spec = EnsembleSpec(Kind.PLANE, 3, 0.7, (0.1, 0.0, 0.2, -0.3))
    rows = joined(sample_plane_child_counts(spec, 9, 500, rng_stream(17)))
    for row in rows[:50]:
        PlaneTree(tuple(int(v) for v in row))  # validates the walk
    steps = rows - 1
    walks = np.cumsum(steps, axis=1)
    assert (walks[:, :-1] >= 0).all()
    assert (walks[:, -1] == -1).all()


def test_labeled_codes_respect_bound():
    spec = EnsembleSpec(Kind.LABELED, 3, 0.4, (0.0, 0.2, 0.5))
    codes = joined(sample_prufer_codes(spec, 7, 400, rng_stream(23)))
    for row in codes:
        degrees = np.bincount(row, minlength=8)[1:] + 1
        assert degrees.max() <= 3


SAMPLER_SPECS = [
    EnsembleSpec.labeled(3),
    EnsembleSpec(Kind.LABELED, 4, 0.9, (0.3, 0.0, -0.2, 0.5)),
    EnsembleSpec.plane(2),
    EnsembleSpec(Kind.PLANE, 3, 0.8, (0.1, 0.0, 0.4, -0.2)),
]


@pytest.mark.parametrize("spec", SAMPLER_SPECS)
def test_sampler_tree_level_exactness(spec):
    # quick tree-level goodness of fit; the acceptance suite runs the
    # full-size version at 10^6 draws
    N, draws = 6, 60_000
    law = gibbs_tree_law(spec, N)
    rng = rng_stream(314)
    observed: dict[tuple[int, ...], int] = {}
    if spec.kind is Kind.LABELED:
        rows = joined(sample_prufer_codes(spec, N, draws, rng))
    else:
        rows = joined(sample_plane_child_counts(spec, N, draws, rng))
    for row in rows:
        key = tuple(int(v) for v in row)
        observed[key] = observed.get(key, 0) + 1
    stat, critical = chi_square_check(observed, law, draws)
    assert stat < critical, f"chi-square {stat:.1f} >= {critical:.1f}"


@pytest.mark.parametrize("spec", [s for s in SAMPLER_SPECS if s.kind is Kind.LABELED])
def test_decoded_labeled_trees_follow_the_gibbs_law(spec):
    # the sampled words decoded by ``word_edges``, keyed by canonical edge
    # list, against the enumerated tree law keyed the same way
    N, draws = 6, 60_000
    law = {prufer_decode(code).edges: p for code, p in gibbs_tree_law(spec, N).items()}
    edges = word_edges(joined(sample_prufer_codes(spec, N, draws, rng_stream(271))))
    observed = Counter(tuple(map(tuple, tree)) for tree in edges.tolist())
    stat, critical = chi_square_check(observed, law, draws)
    assert stat < critical, f"chi-square {stat:.1f} >= {critical:.1f}"


END_SPECS = [
    (EnsembleSpec(Kind.LABELED, 3, 0.7, (0.2, -0.1, 0.4)), 2),  # budget 0
    (EnsembleSpec(Kind.LABELED, 3, 0.7, (0.2, -0.1, 0.4)), 3),
    (EnsembleSpec(Kind.LABELED, 2, 0.7, (0.2, -0.1)), 5),
    (EnsembleSpec(Kind.PLANE, 3, 0.7, (0.2, -0.1, 0.4, 0.0)), 1),  # budget 0
    (EnsembleSpec(Kind.PLANE, 3, 0.7, (0.2, -0.1, 0.4, 0.0)), 2),
    (EnsembleSpec(Kind.PLANE, 1, 0.7, (0.2, -0.1)), 6),
]


@pytest.mark.parametrize("spec,N", END_SPECS)
def test_samplers_at_the_ends_of_the_tilt(spec, N):
    # Budget 0 tilts to the point mass at k_min; labeled D = 2 and plane D = 1
    # have one feasible profile.  The draws must match the enumerated law.
    draws = 3000
    law = gibbs_tree_law(spec, N)
    if spec.kind is Kind.LABELED:
        rows = joined(sample_prufer_codes(spec, N, draws, rng_stream(55)))
    else:
        rows = joined(sample_plane_child_counts(spec, N, draws, rng_stream(55)))
    assert rows.shape == (draws, N - 2 if spec.kind is Kind.LABELED else N)
    observed = Counter(tuple(int(v) for v in row) for row in rows)
    if len(law) == 1:
        assert observed == {next(iter(law)): draws}
    else:
        stat, critical = chi_square_check(observed, law, draws)
        assert stat < critical, f"chi-square {stat:.1f} >= {critical:.1f}"


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(Kind)), data=st.data())
def test_sampler_rows_property(kind, data):
    D = data.draw(st.integers(kind.mean, 6), label="D")
    N = data.draw(st.integers(kind.mean, 40), label="N")
    beta = data.draw(st.floats(-3.0, 3.0), label="beta")
    energies = data.draw(
        st.lists(st.floats(-2.0, 2.0), min_size=D - kind.k_min + 1, max_size=D - kind.k_min + 1),
        label="energies",
    )
    spec = EnsembleSpec(kind, D, beta, tuple(energies))
    seed, size = data.draw(st.integers(0, 2**32), label="seed"), 5
    classes = class_rows(spec, N, size, rng_stream(seed))
    assert classes.shape == (size, N)
    assert classes.min() >= spec.k_min and classes.max() <= D
    assert (classes.sum(axis=1) == kind.class_sum(N)).all()
    # The tree samplers draw the same class rows from the same stream first,
    # and their groups come with the class totals of their rows.
    draw = sample_prufer_codes if kind is Kind.LABELED else sample_plane_child_counts
    groups = list(draw(spec, N, size, rng_stream(seed)))
    rows = joined(groups)
    totals = sum(group_totals for _, group_totals in groups)
    tally = np.bincount((classes - spec.k_min).ravel(), minlength=spec.n_classes)
    assert totals.tolist() == tally.tolist()
    if kind is Kind.LABELED:
        for code, degrees in zip(rows, classes):
            assert prufer_decode(code).degrees().tolist() == degrees.tolist()
    else:
        walks = np.cumsum(rows - 1, axis=1)
        assert (walks[:, :-1] >= 0).all() and (walks[:, -1] == -1).all()
        np.testing.assert_array_equal(np.sort(rows, axis=1), np.sort(classes, axis=1))


def test_tree_key_is_the_prufer_bijection():
    spec = EnsembleSpec.labeled(5)
    trees = list(labeled_trees(6))
    keys = {tree_key(t, spec) for t in trees}
    assert len(keys) == len(trees) == 6**4


def traced_group_peak(spec, N, size, budget=None):
    """Peak bytes that ``write_sample`` allocates while it draws and writes
    ``size`` trees from the samplers, from each group's class rows to its
    text, their profiles drawn beforehand, at a ``WRITE_BLOCK_BYTES`` of
    ``budget`` (the default when None)."""
    draw = sample_prufer_codes if spec.kind is Kind.LABELED else sample_plane_child_counts
    profiles = partition.sample_profiles(spec, N, size, rng_stream(1))
    saved = treegen.sample_profiles, treegen.WRITE_BLOCK_BYTES
    treegen.sample_profiles = lambda spec, N, size, rng: profiles[:size]
    treegen.WRITE_BLOCK_BYTES = budget or saved[1]
    try:
        with open(os.devnull, "w", encoding="ascii") as out:
            write_sample(spec, draw(spec, N, min(size, 2), rng_stream(3)), out)  # warmed
            groups = draw(spec, N, size, rng_stream(2))
            tracemalloc.start()
            try:
                write_sample(spec, groups, out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        treegen.sample_profiles, treegen.WRITE_BLOCK_BYTES = saved


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(Kind)), N=st.integers(2, 2000),
       budget=st.integers(2**12, 2**22))
def test_a_row_group_holds_at_most_the_write_budget(kind, N, budget):
    # From the words or rotations of a group of several trees to their
    # text, everything that write_sample allocates, its text table
    # included, stays within WRITE_BLOCK_BYTES (group_rows).
    spec = EnsembleSpec.labeled(3) if kind is Kind.LABELED else EnsembleSpec.plane(3)
    saved = treegen.WRITE_BLOCK_BYTES
    treegen.WRITE_BLOCK_BYTES = budget
    try:
        rows = treegen.group_rows(spec, N)
    finally:
        treegen.WRITE_BLOCK_BYTES = saved
    assume(rows > 1)
    peak = traced_group_peak(spec, N, rows, budget)
    assert peak <= budget, f"{rows} trees: peak {peak} B > {budget} B"


#: Bytes per vertex that one tree past the write budget holds at its peak,
#: beside its text table (``treegen.WRITE_BLOCK_BYTES``), from its words or
#: rotation on: the int64 word and its decode by ``word_edges`` (labeled),
#: or the rotated int8 row with its int32 table indices and one text piece,
#: 7.65 B traced at N = 10^5 (5.27 B at 10^6), where a rotation gathered
#: through an int32 index matrix holds 8.02 B (plane).
ONE_TREE_BYTES = {Kind.LABELED: 32, Kind.PLANE: 8}

#: Bytes per vertex that one tree holds before: the int64 class row that
#: ``partition.sample_class_sequences`` lays out and permutes, and its int8
#: copy for the rotation, 9 B traced for a plane tree at N = 10^5 and 10^6
#: beside 888 B of array objects (a labeled tree's row and its layout into
#: words hold 24 B).
CLASS_ROW_BYTES = 8 + 1


@pytest.mark.parametrize("kind", list(Kind))
def test_one_large_tree_is_bounded_per_vertex(kind):
    # N = 10^5: one tree is a group of its own, and its text is written in
    # pieces; the text table holds two cells per value up to the largest, N
    # or D, and the blank line cell.
    N = 100_000
    spec = EnsembleSpec.labeled(3) if kind is Kind.LABELED else EnsembleSpec.plane(3)
    assert treegen.group_rows(spec, N) == 1
    n_cells, top, cell = treegen._text_shape(spec, N)
    table = (2 * (top + 1) + 1) * cell
    peak = traced_group_peak(spec, N, 1)
    objects = 2**10  # the headers of the tree's arrays
    bound = max(ONE_TREE_BYTES[kind], CLASS_ROW_BYTES) * N + table + objects
    assert peak <= bound, f"peak {peak} B > {bound} B"
