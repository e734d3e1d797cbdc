import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_log_partition,
    chi_square_check,
    class_rows,
    dp_log_partition,
    gibbs_profile_law,
    iter_feasible_profiles,
    iter_profiles,
)
import oracles
from oracles import chi_law
from treegibbs import (
    BadEnergyTable,
    EnsembleSpec,
    Kind,
    NoFeasibleTree,
    SumMismatch,
    lln_tail,
    log_partition_value,
    log_prob_ball,
    log_prob_profile,
    log_sum,
    rng_stream,
    sample_profiles,
    solve_pstar,
)
from treegibbs import cli, partition
from treegibbs.partition import (
    build_dp,
    class_log_weights,
    enumerate_profiles,
    integer_lattice,
    lattice_rows,
    tilt,
    tilt_probs,
)

NEG_INF = float("-inf")


def test_dp_cayley_example():
    assert abs(dp_log_partition(EnsembleSpec.labeled(3), 4) - math.log(16)) <= 1e-12


def test_dp_catalan_example():
    assert abs(dp_log_partition(EnsembleSpec.plane(3), 4) - math.log(5)) <= 1e-12


def test_dp_labeled_path_profile():
    beta, c = 0.7, (0.3, -0.2)
    lnz = dp_log_partition(EnsembleSpec(Kind.LABELED, 2, beta, c), 5)
    expected = math.log(60) - beta * (2 * c[0] + 3 * c[1])
    assert abs(lnz - expected) <= 1e-12


def test_dp_gibbs_example():
    lnz = dp_log_partition(EnsembleSpec(Kind.LABELED, 3, 1.0, (0.0, 0.0, 1.0)), 4)
    assert abs(lnz - math.log(12 + 4 * math.exp(-1))) <= 1e-12


@pytest.mark.parametrize("N", [5, 6, 7, 8])
def test_uniform_partition_closed_forms(N):
    # beta = 0 with a full bound: Cayley for labeled, Catalan for plane
    lnz = dp_log_partition(EnsembleSpec.labeled(N - 1), N)
    assert abs(lnz - (N - 2) * math.log(N)) <= 1e-9
    lnz = dp_log_partition(EnsembleSpec.plane(N - 1), N)
    catalan = math.comb(2 * (N - 1), N - 1) // N
    assert abs(lnz - math.log(catalan)) <= 1e-9


BRUTE_SPECS = [
    EnsembleSpec.labeled(3),
    EnsembleSpec(Kind.LABELED, 3, 0.5, (0.1, 0.0, 0.7)),
    EnsembleSpec(Kind.LABELED, 4, 2.0, (0.5, -0.3, 0.8, 0.1)),
    EnsembleSpec.plane(2),
    EnsembleSpec(Kind.PLANE, 2, 0.5, (0.0, 0.6, -0.4)),
    EnsembleSpec(Kind.PLANE, 3, 2.0, (0.3, -0.1, 0.4, 0.2)),
]


@pytest.mark.parametrize("spec", BRUTE_SPECS)
@pytest.mark.parametrize("N", [3, 5, 7])
def test_log_partition_matches_brute_force(spec, N):
    expected = brute_force_log_partition(spec, N)
    got = dp_log_partition(spec, N)
    assert abs(got - expected) <= 1e-9
    assert abs(log_partition_value(spec, N) - expected) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(list(Kind)),
    D=st.integers(1, 6),
    beta=st.floats(0.0, 30.0),
    c_raw=st.lists(st.floats(-1.0, 2.0), min_size=7, max_size=7),
    N_raw=st.integers(0, 400),
)
# degree 2 suppressed at odd N
@example(kind=Kind.LABELED, D=3, beta=30.0, c_raw=[0.0, 1.0, 0.0] + [0.0] * 4, N_raw=7)
def test_cut_fold_log_partition_matches_the_dp(kind, D, beta, c_raw, N_raw):
    # The cut fold against the DP, over both kinds, at a tolerance scaled by
    # the terms both sum: ln N! for the counts and N beta max|c| for the
    # energies.  N runs to 400 on lattices of at most 4 classes, to 100
    # above.  Where one engine finds no tree, so must the other.
    D = max(D, kind.k_min + 1)
    n_classes = D - kind.k_min + 1
    c = c_raw[:n_classes]
    N = N_raw if n_classes <= 4 else N_raw // 4
    spec = EnsembleSpec(kind, D, beta, c)
    try:
        expected = dp_log_partition(spec, N)
    except NoFeasibleTree:
        with pytest.raises(NoFeasibleTree):
            log_partition_value(spec, N)
        return
    scale = 1.0 + math.lgamma(N + 1) + N * beta * max(abs(v) for v in c)
    assert abs(log_partition_value(spec, N) - expected) <= 1e-13 * scale


def test_log_prob_profile_examples():
    spec = EnsembleSpec.labeled(3)
    paths = np.array((2, 2, 0))
    stars = np.array((3, 0, 1))
    assert abs(log_prob_profile(spec, 4, paths) - math.log(12 / 16)) <= 1e-12
    assert abs(log_prob_profile(spec, 4, stars) - math.log(4 / 16)) <= 1e-12
    infeasible = np.array((2, 1, 1))
    assert log_prob_profile(spec, 4, infeasible) == NEG_INF
    with pytest.raises(SumMismatch):
        log_prob_profile(spec, 5, paths)


def test_chi_law_degenerate_labeled_d2():
    for N in (2, 5, 9):
        law = chi_law(EnsembleSpec.labeled(2), N)
        assert list(law) == [(2, N - 2)]
        assert abs(law[(2, N - 2)] - 1.0) <= 1e-12


def test_chi_law_small_examples():
    law = chi_law(EnsembleSpec.labeled(3), 4)
    assert set(law) == {(2, 2, 0), (3, 0, 1)}
    assert abs(law[(2, 2, 0)] - 0.75) <= 1e-12
    assert abs(law[(3, 0, 1)] - 0.25) <= 1e-12
    law = chi_law(EnsembleSpec.plane(2), 4)
    assert set(law) == {(2, 1, 1), (1, 3, 0)}
    assert abs(law[(2, 1, 1)] - 0.75) <= 1e-12
    assert abs(law[(1, 3, 0)] - 0.25) <= 1e-12


@pytest.mark.parametrize("spec", BRUTE_SPECS)
def test_chi_law_matches_enumeration(spec):
    N = 6
    expected = gibbs_profile_law(spec, N)
    got = chi_law(spec, N)
    assert set(got) == set(expected)
    for key, prob in expected.items():
        assert abs(got[key] - prob) <= 1e-9


@pytest.mark.parametrize(
    "spec,N",
    [
        (EnsembleSpec(Kind.LABELED, 3, 1.5, (0.2, 0.0, -0.4)), 400),
        (EnsembleSpec(Kind.PLANE, 3, 0.8, (0.1, 0.0, 0.3, -0.2)), 300),
    ],
)
def test_chi_law_normalizes_at_scale(spec, N):
    # the lattice sum that normalizes the chi law against the DP reference
    profiles = enumerate_profiles(spec, N)
    lattice = log_sum(partition.profile_log_weights(spec, N, profiles))
    assert abs(lattice - dp_log_partition(spec, N)) <= 1e-9


def test_dp_symmetry_reversed_class_order():
    # processing classes in reversed order inside each vertex step must
    # leave the final log-weight unchanged up to roundoff
    for spec, N in [
        (EnsembleSpec(Kind.LABELED, 4, 1.2, (0.4, -0.2, 0.0, 0.9)), 60),
        (EnsembleSpec(Kind.PLANE, 3, 0.6, (0.0, 0.5, -0.1, 0.2)), 45),
    ]:
        dp = build_dp(spec, N)
        logw = class_log_weights(spec)
        budget = dp.budget
        prev = np.full(budget + 1, NEG_INF)
        prev[0] = 0.0
        for _ in range(N):
            cur = np.full(budget + 1, NEG_INF)
            for s in range(budget + 1):
                acc = NEG_INF
                for k in reversed(range(min(logw.size - 1, s) + 1)):
                    v = prev[s - k] + logw[k]
                    if v == NEG_INF:
                        continue
                    acc = v if acc == NEG_INF else max(acc, v) + math.log1p(
                        math.exp(-abs(acc - v))
                    )
                cur[s] = acc
            prev = cur
        assert abs(prev[budget] - dp.W[dp.n_vertices, dp.budget]) <= 1e-10


def test_spec_refuses_an_overflowing_class_weight():
    # beta * c(2) overflows, which would weigh every labeled path at 0
    with pytest.raises(BadEnergyTable, match="overflows"):
        EnsembleSpec(Kind.LABELED, 2, 1e300, (0.0, 1e300))


def test_every_lattice_entry_point_refuses_overflowing_log_weights(capsys):
    # every beta * c(k) is finite, but a profile log weight, up to
    # N * 1e306, is not: unchecked, ln Z and the ball and tail masses come
    # out nan, and the draw fails inside numpy
    spec = EnsembleSpec(Kind.LABELED, 3, -1e306, (0.0, 1.0, 0.0))
    N = 1001
    calls = [
        lambda: log_partition_value(spec, N),
        lambda: log_prob_ball(spec, N, (0.3, 0.4, 0.3), 0.05),
        lambda: lln_tail(spec, N, 0.1),
        lambda: sample_profiles(spec, N, 10, rng_stream(1)),
    ]
    for call in calls:
        with pytest.raises(BadEnergyTable, match="overflow at N=1001"):
            call()
    argv = ["ldp-table", "--kind", "labeled", "--bound", "3", "--beta=-1e306",
            "--energy", "0,1,0", "--n-list", "1001"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: profile log weights overflow at N=1001")


def test_integer_lattice_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k_min = int(rng.integers(0, 2))
        k_max = k_min + int(rng.integers(1, 4))
        total = int(rng.integers(0, 9))
        weighted = int(rng.integers(0, 2 * k_max * max(total, 1) + 1))
        got = {tuple(row) for row in integer_lattice(k_min, k_max, total, weighted)}
        expected = set()
        for combo in itertools.product(range(total + 1), repeat=k_max - k_min + 1):
            if sum(combo) != total:
                continue
            if sum(k * v for k, v in zip(range(k_min, k_max + 1), combo)) != weighted:
                continue
            expected.add(combo)
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    k_min=st.integers(0, 1),
    ncls=st.integers(1, 7),
    total=st.integers(0, 12),
    offset=st.integers(0, 100),
    block_rows=st.integers(1, 6),
    slack=st.integers(0, 7),
)
@example(k_min=1, ncls=1, total=5, offset=1, block_rows=1, slack=0)
@example(k_min=0, ncls=2, total=5, offset=3, block_rows=1, slack=0)
@example(k_min=0, ncls=3, total=12, offset=12, block_rows=2, slack=0)
def test_lattice_blocks_property(k_min, ncls, total, offset, block_rows, slack):
    # weighted totals from one below the feasible range to one above it;
    # the profiles of LatticeRows.pairs blocks at their own 8 * ncls bytes
    # per point, under a bound of block_rows rows plus up to one row's worth
    # of slack bytes
    k_max = k_min + ncls - 1
    low, high = k_min * total, k_max * total
    weighted = max(0, low - 1) + offset % (high + 2 - max(0, low - 1))
    bound = 8 * ncls * block_rows + slack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "LATTICE_BYTES", bound)
        blocks = [rows.profiles(i, m2) for rows in lattice_rows(k_min, k_max, total, weighted)
                  for i, m2 in rows.pairs(rows.lo, rows.hi, 8 * ncls)]
        joined = integer_lattice(k_min, k_max, total, weighted)
    assert all(b.dtype == np.int64 and b.shape[1] == ncls for b in blocks)
    assert all(0 < b.nbytes <= bound for b in blocks)
    rows = np.concatenate(blocks) if blocks else np.empty((0, ncls), dtype=np.int64)
    np.testing.assert_array_equal(rows, joined)
    # strictly ascending in (m_{K-1}, ..., m_2), which fix m_1 and m_0: in
    # order, and no row twice
    keys = [tuple(row[::-1][: max(ncls - 2, 0)]) for row in rows.tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert {tuple(row) for row in rows.tolist()} == set(
        iter_profiles(k_min, k_max, total, weighted)
    )


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(Kind)),
    ncls=st.integers(2, 7),
    total=st.integers(2, 40),
    on_grid=st.booleans(),
    weights=st.none() | st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
    point_bytes=st.integers(1, 2**10),
)
def test_distance_matches_the_profile_matrix(kind, ncls, total, on_grid, weights, point_bytes):
    # The lattice of (spec, N) at scale N or the rate grid at scale r, about
    # p* or a point of the simplex off it: LatticeRows.distance agrees bit
    # for bit with the row sums of the profile matrix.
    spec = EnsembleSpec.labeled(ncls) if kind is Kind.LABELED else EnsembleSpec.plane(ncls - 1)
    if weights is None:
        center = solve_pstar(spec).pstar
    else:
        w = np.asarray(weights[:ncls]) + 1e-3
        center = w / w.sum()
    weighted = kind.manifold_total(total) if on_grid else kind.class_sum(total)
    for rows in lattice_rows(spec.k_min, spec.D, total, weighted):
        for i, m2 in rows.pairs(rows.lo, rows.hi, point_bytes):
            want = np.abs(rows.profiles(i, m2) / total - center).sum(axis=1)
            np.testing.assert_array_equal(rows.distance(i, m2, center, total), want)


def test_a_row_batch_dies_with_the_batch(monkeypatch):
    # The walk keeps no view of a batch it has yielded: once the caller
    # drops a batch and asks for the next, the batch's arrays are freed.
    monkeypatch.setattr(partition, "LATTICE_BYTES", 2 * 8 * 6 * 50)  # 50 rows or fewer
    walk = partition.lattice_rows(0, 4, 60, 59)  # plane D=4, N=60: 165 rows
    batch = next(walk)
    freed = [weakref.ref(column if column.base is None else column.base)
             for column in (batch.upper, batch.t, batch.hi)]
    del batch
    next(walk)
    assert all(ref() is None for ref in freed)


PLANE_D4 = EnsembleSpec(Kind.PLANE, 4, 1.0, (0.0, 0.0, 0.0, 1.0, 2.0))


def traced_peak(call) -> int:
    """Peak bytes that Python and numpy allocate during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_walk_alone_is_bounded_in_bytes(monkeypatch):
    # Plane D=4 at the bytes per row of ProfileCut.  The walk makes a node's
    # children as it reaches them and cuts a leaf's m_3 range into pieces
    # that fill a batch, so its memory does not grow with N: at N = 12,800 a
    # leaf has up to 4266 rows, more than a batch holds.
    walk, args = partition.lattice_rows, []
    monkeypatch.setattr(partition, "lattice_rows", lambda *a: args.append(a) or walk(*a))
    partition.ProfileCut(PLANE_D4, 40)
    row_bytes = args[0][4]

    def walk_alone(N):
        for rows in walk(0, 4, N, N - 1, row_bytes):
            del rows

    small, large = (traced_peak(lambda: walk_alone(N)) for N in (800, 12_800))
    assert max(small, large) <= 2 * partition.LATTICE_BYTES
    assert abs(large - small) <= 0.25 * small, (small, large)


@pytest.mark.parametrize("draw", [False, True], ids=["log-partition", "cut-draw"])
def test_cut_folds_are_bounded_in_bytes(draw):
    # ln Z and a 1000-profile rare-class draw over the cut at plane D=4,
    # N=1600: each folds one block of one batch at a time and frees it
    # before the walk builds the next.
    N = 1600
    rng = rng_stream(1)  # numpy.random imported before tracing
    partition.log_partition_value(PLANE_D4, N)  # the factorial table grown
    if draw:
        peak = traced_peak(lambda: partition._sample_cut(PLANE_D4, N, 1000, rng))
    else:
        peak = traced_peak(lambda: partition.log_partition_value(PLANE_D4, N))
    assert peak <= 2 * partition.LATTICE_BYTES, f"peak {peak} B"


@settings(max_examples=200, deadline=None)
@given(
    k_min=st.integers(0, 1),
    ncls=st.integers(1, 7),
    total=st.integers(0, 12),
    offset=st.integers(0, 100),
    batch_rows=st.integers(1, 6),
)
def test_lattice_rows_property(k_min, ncls, total, offset, batch_rows):
    # batches of at most batch_rows rows; each row is one (m_{K-1}, ..., m_3)
    # with m_2 free over lo..hi, nonempty, in ascending order, and the rows'
    # points are the lattice
    k_max = k_min + ncls - 1
    low, high = k_min * total, k_max * total
    weighted = max(0, low - 1) + offset % (high + 2 - max(0, low - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "LATTICE_BYTES", 8 * (ncls + 1) * batch_rows)
        batches = list(partition.lattice_rows(k_min, k_max, total, weighted))
    assert all(0 < b.t.size <= batch_rows for b in batches)
    assert all((b.lo <= b.hi).all() for b in batches)
    keys = [tuple(row[::-1]) for b in batches for row in b.upper.tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    points = [tuple(p) for b in batches for i, m2 in b.pairs(b.lo, b.hi, 8 * (ncls + 5))
              for p in b.profiles(i, m2).tolist()]
    assert sum(b.size for b in batches) == len(points)
    assert set(points) == set(iter_profiles(k_min, k_max, total, weighted))


def test_integer_lattice_leaves_no_reference_cycle():
    # Everything the enumeration builds is freed by reference counting alone,
    # so no block list outlives the call waiting for the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        integer_lattice(0, 4, 200, 200)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "spec,N",
    [
        (EnsembleSpec.labeled(4), 9),
        (EnsembleSpec.plane(3), 8),
        (EnsembleSpec.labeled(2), 6),
        (EnsembleSpec.plane(1), 5),
    ],
)
def test_enumerate_profiles_matches_independent_enumeration(spec, N):
    got = {tuple(row) for row in enumerate_profiles(spec, N)}
    expected = set(iter_feasible_profiles(spec, N))
    assert got == expected


def test_enumerate_profiles_cap():
    # no cap: every one of the 58,089 profiles, each of N vertices and the
    # labeled class sum
    spec = EnsembleSpec.labeled(5)
    profiles = enumerate_profiles(spec, 200)
    assert profiles.shape == (58089, spec.n_classes)
    assert (profiles.sum(axis=1) == 200).all()
    assert (profiles @ spec.classes() == spec.kind.class_sum(200)).all()


def test_integer_lattice_cap_is_in_bytes(monkeypatch):
    # the blocks that integer_lattice builds, seen by a spy on
    # LatticeRows.profiles: the matrix is their concatenation
    args = (0, 3, 40, 50)
    monkeypatch.setattr(partition, "LATTICE_BYTES", 7 * 8 * 4)
    blocks, profiles = [], partition.LatticeRows.profiles
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition.LatticeRows, "profiles",
                   lambda rows, i, m2: blocks.append(profiles(rows, i, m2)) or blocks[-1])
        integer_lattice(*args)
    whole = np.concatenate(blocks)
    assert len(blocks) > 2
    np.testing.assert_array_equal(integer_lattice(*args), whole)


def test_rng_stream_reproducible_and_split():
    a = rng_stream(123).random(5)
    b = rng_stream(123).random(5)
    np.testing.assert_array_equal(a, b)
    c = rng_stream(123, block=1).random(5)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec.labeled(2),
        EnsembleSpec(Kind.LABELED, 5, 0.8, (0.3, 0.0, -0.2, 0.6, 0.1)),
        EnsembleSpec.plane(1),
        EnsembleSpec(Kind.PLANE, 3, -0.4, (0.0, 0.5, 0.2, -0.3)),
    ],
)
def test_tilt_ends_and_interior(spec):
    # the ends of the class range are point masses with no ln x
    for mean, index in ((spec.k_min, 0), (spec.D, -1)):
        q, log_x = tilt(spec, mean)
        assert log_x is None and q[index] == 1.0 and q.sum() == 1.0
    for frac in (1e-6, 0.3, 0.5, 0.97):
        mean = spec.k_min + frac * (spec.D - spec.k_min)
        q, log_x = tilt(spec, mean)
        np.testing.assert_array_equal(q, tilt_probs(spec, log_x))
        assert abs(spec.classes() @ q - mean) <= 1e-12


@pytest.mark.parametrize(
    "spec,N,profile",
    [
        # beta = 1000 underflows the tilt weight of degree 2 to 0, and degrees
        # 1 and 3 alone give an odd degree sum at N = 5
        (EnsembleSpec(Kind.LABELED, 3, 1000.0, (0.0, 1.0, 0.0)), 5, (3, 1, 1)),
        # class 1 underflows: no two of the classes 0, 2, 3 sum to 1, and the
        # only plane tree on 2 vertices has child counts (1, 0)
        (EnsembleSpec(Kind.PLANE, 3, 1.0, (0.0, 1000.0, 0.0, 0.0)), 2, (1, 1, 0, 0)),
    ],
)
def test_sampler_survives_an_underflowed_tilt(spec, N, profile):
    rows = sample_profiles(spec, N, 50, rng_stream(1))
    assert rows.tolist() == [list(profile)] * 50


def fallback_fit(monkeypatch, spec, N, draws, seed):
    """Draw through ``sample_profiles``, check that every row came from the
    row-cut fallback, and return the chi-square test against the exact law
    of chi and that law."""
    fallback = partition._sample_cut
    sizes: list[int] = []

    def spy(spec, N, size, rng):
        sizes.append(size)
        return fallback(spec, N, size, rng)

    monkeypatch.setattr(partition, "_sample_cut", spy)
    rows = sample_profiles(spec, N, draws, rng_stream(seed))
    assert sizes == [draws]
    observed: dict[tuple[int, ...], int] = {}
    for row in rows.tolist():
        observed[tuple(row)] = observed.get(tuple(row), 0) + 1
    expected = chi_law(spec, N)
    return chi_square_check(observed, expected, draws), expected


def test_sampler_falls_back_to_the_enumerated_law(monkeypatch):
    # Degrees 2 and 4 carry tilt weight e^-20.  At odd N every feasible profile
    # needs one of them, so about 1 proposal in 10^8 is kept and the sampler
    # draws from the row cut, whose law must be the exact law of chi.
    spec = EnsembleSpec(Kind.LABELED, 4, 1.0, (0.0, 20.0, 0.0, 20.0))
    (stat, critical), expected = fallback_fit(monkeypatch, spec, 9, 20_000, 31)
    assert sum(p > 1e-6 for p in expected.values()) == 2
    assert stat < critical, f"chi-square {stat:.2f} >= {critical:.2f}"


def test_plane_sampler_fallback_matches_the_chi_law(monkeypatch):
    # Classes 1 and 3 carry tilt weight e^-20, and N - 1 = 9 children need an
    # odd number of them.
    spec = EnsembleSpec(Kind.PLANE, 4, 1.0, (0.0, 20.0, 0.0, 20.0, 0.0))
    (stat, critical), expected = fallback_fit(monkeypatch, spec, 10, 20_000, 31)
    assert len(expected) == 18 and sum(p > 1e-6 for p in expected.values()) == 5
    assert stat < critical, f"chi-square {stat:.2f} >= {critical:.2f}"


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([Kind.LABELED, Kind.PLANE]),
    D=st.integers(1, 6),
    beta=st.floats(0.0, 1000.0),
    c_raw=st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7),
    N=st.integers(1, 60),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_row_cut_draws_are_feasible_profiles_above_the_cut(kind, D, beta, c_raw, N, size,
                                                           seed):
    D = max(D, kind.mean)
    N = max(N, kind.k_min + 1)
    spec = EnsembleSpec(kind, D, beta, tuple(c_raw[: D + 1 - kind.k_min]))
    rows = partition._sample_cut(spec, N, size, rng_stream(seed))
    assert rows.shape == (size, spec.n_classes) and rows.min() >= 0
    np.testing.assert_array_equal(rows.sum(axis=1), np.full(size, N))
    np.testing.assert_array_equal(rows @ spec.classes(), np.full(size, spec.kind.class_sum(N)))
    tau = partition.ProfileCut(spec, N).tau
    assert partition.profile_log_weights(spec, N, rows).min() >= tau - 1e-9 * (1 + abs(tau))


def test_sample_degree_sequence_unique_profile():
    rng = rng_stream(7)
    for _ in range(20):
        [degrees] = class_rows(EnsembleSpec.labeled(2), 5, 1, rng)
        assert sorted(degrees) == [1, 1, 2, 2, 2]


def test_sampled_sequences_respect_budget():
    spec = EnsembleSpec(Kind.PLANE, 3, 0.9, (0.2, 0.0, -0.1, 0.5))
    rows = class_rows(spec, 12, 200, rng_stream(11))
    assert rows.min() >= 0 and rows.max() <= 3
    np.testing.assert_array_equal(rows.sum(axis=1), np.full(200, 11))


MARGINAL_SPECS = [
    EnsembleSpec.labeled(3),
    EnsembleSpec(Kind.LABELED, 3, 0.8, (0.3, 0.0, 0.6)),
    EnsembleSpec(Kind.PLANE, 2, 1.1, (0.0, 0.4, -0.3)),
    EnsembleSpec(Kind.PLANE, 4, 0.5, (0.2, 0.0, 0.1, -0.2, 0.4)),
]


@pytest.mark.parametrize("spec", MARGINAL_SPECS)
def test_backward_sampling_marginal_matches_chi_law(spec):
    N, draws = 8, 100_000
    rows = class_rows(spec, N, draws, rng_stream(2024))
    observed: dict[tuple[int, ...], int] = {}
    for row in rows:
        key = tuple(np.bincount(row - spec.k_min, minlength=spec.n_classes).tolist())
        observed[key] = observed.get(key, 0) + 1
    expected = chi_law(spec, N)
    stat, critical = chi_square_check(observed, expected, draws)
    assert stat < critical, f"chi-square {stat:.2f} >= {critical:.2f}"


@pytest.mark.parametrize(
    "spec,N,size,proposal_cells",
    [
        # labeled D=3 at N=1000: 2000 profiles from a first batch of about
        # 1.4e5 proposals, drawn in chunks of 2.6e4
        (EnsembleSpec.labeled(3), 1000, 2000, None),
        # a 60-row cap on a batch, so PROPOSAL_CELLS sizes every batch
        (EnsembleSpec(Kind.PLANE, 4, 0.5, (0.2, 0.0, 0.1, -0.2, 0.4)), 300, 500, 60 * 5),
        # degrees 2 and 4 at tilt weight e^-20 and odd N: the row-cut fallback
        (EnsembleSpec(Kind.LABELED, 4, 1.0, (0.0, 20.0, 0.0, 20.0)), 9, 50, None),
    ],
    ids=["labeled-d3", "capped-batches", "cut-fallback"],
)
def test_chunked_proposals_keep_the_one_shot_stream(monkeypatch, spec, N, size,
                                                    proposal_cells):
    # rng.multinomial draws row after row, so chunks of a batch keep the
    # rows and the generator state of drawing the batch at once
    if proposal_cells:
        monkeypatch.setattr(partition, "PROPOSAL_CELLS", proposal_cells)
        monkeypatch.setattr(oracles, "PROPOSAL_CELLS", proposal_cells)
        monkeypatch.setattr(partition, "LATTICE_BYTES", 7 * (8 * spec.n_classes + 9))
    chunked, one_shot = rng_stream(5), rng_stream(5)
    rows = sample_profiles(spec, N, size, chunked)
    np.testing.assert_array_equal(rows, oracles.one_shot_sample_profiles(spec, N, size, one_shot))
    assert chunked.bit_generator.state == one_shot.bit_generator.state


def test_proposal_chunks_are_bounded_in_bytes():
    # labeled D=3, N=1000, 2000 profiles: a first batch of about 1.4e5
    # proposals, 4.5 MB with its class sums and mask at once, is drawn in
    # chunks of LATTICE_BYTES
    spec = EnsembleSpec.labeled(3)
    rng = rng_stream(1)
    sample_profiles(spec, 1000, 10, rng)  # the tilt's code warmed
    peak = traced_peak(lambda: sample_profiles(spec, 1000, 2000, rng))
    assert peak <= partition.LATTICE_BYTES + 8 * spec.n_classes * 2000 * 2, f"peak {peak} B"
