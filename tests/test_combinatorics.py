import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gammaln

from conftest import iter_profiles, log_count_by_profile
from oracles import (
    chi_of,
    labeled_trees,
    log_labeled_count_by_degrees,
    log_multinomial,
    plane_trees,
)
from treegibbs import (
    Kind,
    SumMismatch,
    EnsembleSpec,
    log_factorial,
    log_prob_profile,
    log_sum,
)
from treegibbs.combinatorics import log_factorials

NEG_INF = float("-inf")


def test_log_factorial_examples():
    assert log_factorial(0) == 0.0
    assert abs(log_factorial(5) - math.log(120)) <= 1e-12
    assert abs(log_factorial(20) - math.log(2432902008176640000)) <= 1e-12


def test_log_factorial_matches_exact_products():
    acc = 0
    for m in range(1, 60):
        acc += math.log(m)
    assert abs(log_factorial(59) - acc) <= 1e-10
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_log_factorial_table_matches_gammaln():
    # exact integer logs below 1024, the Stirling series from there on
    m = np.arange(2**21 + 1)
    got = log_factorials(m)
    ref = gammaln(m + 1.0)
    assert got[0] == 0.0 and got[1] == 0.0
    assert (np.abs(got[2:] - ref[2:]) <= 4 * np.spacing(ref[2:])).all()


def test_import_does_not_load_scipy():
    code = "import sys, treegibbs.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_log_multinomial_examples():
    assert abs(log_multinomial(4, (2, 2)) - math.log(6)) <= 1e-12
    assert log_multinomial(4, (4, 0)) == 0.0
    assert abs(log_multinomial(6, (2, 2, 2)) - math.log(90)) <= 1e-12
    with pytest.raises(SumMismatch):
        log_multinomial(5, (2, 2))


def test_labeled_count_by_degrees_examples():
    assert log_labeled_count_by_degrees((1, 1, 1, 3)) == 0.0
    assert abs(log_labeled_count_by_degrees((1, 1, 2, 2)) - math.log(2)) <= 1e-12
    assert log_labeled_count_by_degrees((1, 1, 1, 1)) == NEG_INF


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_labeled_count_by_degrees_matches_enumeration(N):
    observed: dict[tuple[int, ...], int] = {}
    for tree in labeled_trees(N):
        key = tuple(int(d) for d in tree.degrees())
        observed[key] = observed.get(key, 0) + 1
    for degrees in itertools.product(range(1, N), repeat=N):
        expected = observed.get(degrees, 0)
        got = log_labeled_count_by_degrees(degrees)
        if expected == 0:
            assert got == NEG_INF
        else:
            assert abs(got - math.log(expected)) <= 1e-9


def test_labeled_profile_examples():
    assert abs(log_count_by_profile(Kind.LABELED, 4, (2, 2, 0)) - math.log(12)) <= 1e-12
    assert abs(log_count_by_profile(Kind.LABELED, 4, (3, 0, 1)) - math.log(4)) <= 1e-12
    # the row form takes feasible rows; the checked single-profile entry
    # point gives -inf off the class sum and raises on a wrong total
    spec = EnsembleSpec.labeled(3)
    assert log_prob_profile(spec, 4, np.array((2, 1, 1))) == NEG_INF
    with pytest.raises(SumMismatch):
        log_prob_profile(spec, 5, np.array((2, 2, 0)))


def test_plane_profile_examples():
    assert abs(log_count_by_profile(Kind.PLANE, 4, (2, 1, 1)) - math.log(3)) <= 1e-12
    assert abs(log_count_by_profile(Kind.PLANE, 4, (1, 3, 0))) <= 1e-12
    assert abs(log_count_by_profile(Kind.PLANE, 4, (3, 0, 0, 1))) <= 1e-12


@pytest.mark.parametrize("N", range(3, 11))
def test_cayley_identity(N):
    # feasible labeled profiles with D = N - 1 sum to N^{N-2}
    total = NEG_INF
    D = N - 1
    for profile in iter_profiles(1, D, N, 2 * N - 2):
        total = np.logaddexp(total, log_count_by_profile(Kind.LABELED, N, profile))
    assert abs(total - (N - 2) * math.log(N)) <= 1e-9 * max(1.0, abs(total))


@pytest.mark.parametrize("N", range(1, 13))
def test_catalan_identity(N):
    D = max(N - 1, 1)
    total = NEG_INF
    for profile in iter_profiles(0, D, N, N - 1):
        total = np.logaddexp(total, log_count_by_profile(Kind.PLANE, N, profile))
    catalan = math.comb(2 * (N - 1), N - 1) // N
    assert abs(total - math.log(catalan)) <= 1e-9 * max(1.0, abs(math.log(catalan)))


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_profile_count_equals_sum_over_degree_sequences(N):
    D = N - 1
    by_profile: dict[tuple[int, ...], float] = {}
    for degrees in itertools.product(range(1, D + 1), repeat=N):
        if sum(degrees) != 2 * N - 2:
            continue
        profile = tuple(degrees.count(k) for k in range(1, D + 1))
        lc = log_labeled_count_by_degrees(degrees)
        prev = by_profile.get(profile, NEG_INF)
        by_profile[profile] = np.logaddexp(prev, lc)
    for profile, total in by_profile.items():
        direct = log_count_by_profile(Kind.LABELED, N, profile)
        assert abs(direct - total) <= 1e-9


def test_plane_count_divisibility():
    # (1/N) C(N, n) is an integer for every feasible plane profile, N <= 30
    for N in range(1, 31):
        D = max(min(N - 1, 4), 1)
        for profile in iter_profiles(0, D, N, N - 1):
            lc = log_count_by_profile(Kind.PLANE, N, profile)
            if lc == NEG_INF:
                continue
            value = math.exp(lc)
            assert abs(value - round(value)) <= 1e-6 * max(1.0, value)


def test_log_add_properties():
    # log_sum of two values is log-domain addition: commutative, associative
    # and with -inf as its identity
    rng = np.random.default_rng(11)
    values = list(rng.normal(scale=30.0, size=200)) + [NEG_INF] * 10
    rng.shuffle(values)
    for a, b, c in zip(values[::3], values[1::3], values[2::3]):
        ab = log_sum([a, b])
        assert ab == log_sum([b, a])
        assert log_sum([a, NEG_INF]) == a
        left = log_sum([ab, c])
        right = log_sum([a, log_sum([b, c])])
        if left == NEG_INF:
            assert right == NEG_INF
        else:
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
    assert log_sum([NEG_INF, NEG_INF]) == NEG_INF
    assert log_sum([]) == NEG_INF
    assert log_sum([NEG_INF, 0.0]) == 0.0


def test_count_vector_input_accepted():
    # 12 of the 16 labeled trees on 4 vertices have degree profile (2, 2, 0)
    n = np.array((2, 2, 0))
    assert abs(log_prob_profile(EnsembleSpec.labeled(3), 4, n) - math.log(12 / 16)) <= 1e-12


@pytest.mark.parametrize("N,D", [(5, 2), (6, 3), (7, 4)])
def test_profile_counts_match_enumeration_directly(N, D):
    spec = EnsembleSpec.labeled(D)
    observed: dict[tuple[int, ...], int] = {}
    for tree in labeled_trees(N):
        if int(tree.degrees().max()) > D:
            continue
        key = tuple(chi_of(tree, spec).tolist())
        observed[key] = observed.get(key, 0) + 1
    for profile, count in observed.items():
        got = log_count_by_profile(Kind.LABELED, N, profile)
        assert abs(got - math.log(count)) <= 1e-9


@pytest.mark.parametrize("N,D", [(6, 2), (7, 3), (8, 4)])
def test_plane_profile_counts_match_enumeration(N, D):
    spec = EnsembleSpec.plane(D)
    observed: dict[tuple[int, ...], int] = {}
    for tree in plane_trees(N, D):
        key = tuple(chi_of(tree, spec).tolist())
        observed[key] = observed.get(key, 0) + 1
    for profile, count in observed.items():
        got = log_count_by_profile(Kind.PLANE, N, profile)
        assert abs(got - math.log(count)) <= 1e-9
