import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_log_partition,
    chi_square_check,
    gibbs_profile_law,
    iter_feasible_profiles,
    iter_profiles,
)
from treegibbs import (
    CountVector,
    EnsembleSpec,
    Kind,
    LatticeTooLarge,
    NoFeasibleTree,
    SizeOverflow,
    SumMismatch,
    build_dp,
    exact_chi_law,
    log_partition,
    log_prob_profile,
    log_sum,
    rng_stream,
    sample_class_sequences,
    sample_profiles,
)
from treegibbs import partition
from treegibbs.partition import (
    class_log_weights,
    enumerate_profiles,
    integer_lattice,
    lattice_blocks,
    tilt,
    tilt_probs,
)

NEG_INF = float("-inf")


def test_dp_cayley_example():
    dp = build_dp(EnsembleSpec.labeled(3), 4)
    assert abs(log_partition(dp) - math.log(16)) <= 1e-12


def test_dp_catalan_example():
    dp = build_dp(EnsembleSpec.plane(3), 4)
    assert abs(log_partition(dp) - math.log(5)) <= 1e-12


def test_dp_labeled_path_profile():
    beta, c = 0.7, (0.3, -0.2)
    dp = build_dp(EnsembleSpec(Kind.LABELED, 2, beta, c), 5)
    expected = math.log(60) - beta * (2 * c[0] + 3 * c[1])
    assert abs(log_partition(dp) - expected) <= 1e-12


def test_dp_gibbs_example():
    dp = build_dp(EnsembleSpec(Kind.LABELED, 3, 1.0, (0.0, 0.0, 1.0)), 4)
    assert abs(log_partition(dp) - math.log(12 + 4 * math.exp(-1))) <= 1e-12


@pytest.mark.parametrize("N", [5, 6, 7, 8])
def test_uniform_partition_closed_forms(N):
    # beta = 0 with a full bound: Cayley for labeled, Catalan for plane
    lnz = log_partition(build_dp(EnsembleSpec.labeled(N - 1), N))
    assert abs(lnz - (N - 2) * math.log(N)) <= 1e-9
    lnz = log_partition(build_dp(EnsembleSpec.plane(N - 1), N))
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
    got = log_partition(build_dp(spec, N))
    assert abs(got - expected) <= 1e-9


def test_log_prob_profile_examples():
    spec = EnsembleSpec.labeled(3)
    paths = CountVector(Kind.LABELED, (2, 2, 0))
    stars = CountVector(Kind.LABELED, (3, 0, 1))
    assert abs(log_prob_profile(spec, 4, paths) - math.log(12 / 16)) <= 1e-12
    assert abs(log_prob_profile(spec, 4, stars) - math.log(4 / 16)) <= 1e-12
    infeasible = CountVector(Kind.LABELED, (2, 1, 1))
    assert log_prob_profile(spec, 4, infeasible) == NEG_INF
    with pytest.raises(SumMismatch):
        log_prob_profile(spec, 5, paths)


def test_chi_law_degenerate_labeled_d2():
    for N in (2, 5, 9):
        law = exact_chi_law(EnsembleSpec.labeled(2), N)
        assert len(law) == 1
        ((profile, logp),) = list(law.items())
        assert profile.counts == (2, N - 2)
        assert abs(logp) <= 1e-12


def test_chi_law_small_examples():
    law = exact_chi_law(EnsembleSpec.labeled(3), 4).as_dict()
    assert set(law) == {(2, 2, 0), (3, 0, 1)}
    assert abs(law[(2, 2, 0)] - 0.75) <= 1e-12
    assert abs(law[(3, 0, 1)] - 0.25) <= 1e-12
    law = exact_chi_law(EnsembleSpec.plane(2), 4).as_dict()
    assert set(law) == {(2, 1, 1), (1, 3, 0)}
    assert abs(law[(2, 1, 1)] - 0.75) <= 1e-12
    assert abs(law[(1, 3, 0)] - 0.25) <= 1e-12


@pytest.mark.parametrize("spec", BRUTE_SPECS)
def test_chi_law_matches_enumeration(spec):
    N = 6
    expected = gibbs_profile_law(spec, N)
    got = exact_chi_law(spec, N).as_dict()
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
    assert abs(lattice - log_partition(build_dp(spec, N))) <= 1e-9


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
        assert abs(prev[budget] - dp.log_final) <= 1e-10


def test_log_partition_refuses_an_empty_table():
    # beta * c(2) overflows, so every labeled path on 5 vertices weighs 0
    spec = EnsembleSpec(Kind.LABELED, 2, 1e300, (0.0, 1e300))
    with np.errstate(over="ignore"):
        dp = build_dp(spec, 5)
    with pytest.raises(NoFeasibleTree, match="no labeled tree on 5 vertices"):
        log_partition(dp)


def test_size_overflow():
    with pytest.raises(SizeOverflow):
        build_dp(EnsembleSpec.labeled(3), 100, max_cells=50)


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
    # blocks of block_rows rows, plus up to one row's worth of slack bytes
    k_max = k_min + ncls - 1
    low, high = k_min * total, k_max * total
    weighted = max(0, low - 1) + offset % (high + 2 - max(0, low - 1))
    bound = 8 * ncls * block_rows + slack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "LATTICE_BLOCK_BYTES", bound)
        blocks = list(lattice_blocks(k_min, k_max, total, weighted))
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
    with pytest.raises(LatticeTooLarge):
        enumerate_profiles(EnsembleSpec.labeled(5), 200, max_profiles=10)


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


def test_sampler_falls_back_to_the_enumerated_law(monkeypatch):
    # Degrees 2 and 4 carry tilt weight e^-20.  At odd N every feasible profile
    # needs one of them, so about 1 proposal in 10^8 is kept and the sampler
    # draws from the enumerated law, which must be the exact law of chi.
    spec = EnsembleSpec(Kind.LABELED, 4, 1.0, (0.0, 20.0, 0.0, 20.0))
    N, draws = 9, 20_000
    fallback = partition._sample_enumerated
    sizes: list[int] = []

    def spy(spec, N, size, rng):
        sizes.append(size)
        return fallback(spec, N, size, rng)

    monkeypatch.setattr(partition, "_sample_enumerated", spy)
    rows = sample_profiles(spec, N, draws, rng_stream(31))
    assert sizes == [draws]
    observed: dict[tuple[int, ...], int] = {}
    for row in rows.tolist():
        observed[tuple(row)] = observed.get(tuple(row), 0) + 1
    expected = exact_chi_law(spec, N).as_dict()
    assert sum(p > 1e-6 for p in expected.values()) == 2
    stat, critical = chi_square_check(observed, expected, draws)
    assert stat < critical, f"chi-square {stat:.2f} >= {critical:.2f}"


def test_sample_degree_sequence_unique_profile():
    rng = rng_stream(7)
    for _ in range(20):
        [degrees] = sample_class_sequences(EnsembleSpec.labeled(2), 5, 1, rng)
        assert sorted(degrees) == [1, 1, 2, 2, 2]


def test_sampled_sequences_respect_budget():
    spec = EnsembleSpec(Kind.PLANE, 3, 0.9, (0.2, 0.0, -0.1, 0.5))
    rows = sample_class_sequences(spec, 12, 200, rng_stream(11))
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
    rows = sample_class_sequences(spec, N, draws, rng_stream(2024))
    observed: dict[tuple[int, ...], int] = {}
    for row in rows:
        key = tuple(np.bincount(row - spec.k_min, minlength=spec.n_classes).tolist())
        observed[key] = observed.get(key, 0) + 1
    expected = exact_chi_law(spec, N).as_dict()
    stat, critical = chi_square_check(observed, expected, draws)
    assert stat < critical, f"chi-square {stat:.2f} >= {critical:.2f}"
