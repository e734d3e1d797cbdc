import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chi_square_check, iter_profiles
from oracles import chi_law, couple_samples, on_manifold, r_set
from treegibbs import (
    EnsembleSpec,
    Kind,
    convergence_table,
    lln_tail,
    log_prob_ball,
    log_sum,
    rng_stream,
    solve_pstar,
)
from treegibbs import ldp, partition
from treegibbs.rate import j_values, manifold_grid

NEG_INF = float("-inf")


def test_log_prob_ball_degenerate_labeled_d2():
    spec = EnsembleSpec.labeled(2)
    center = np.array([0.0, 1.0])
    N = 10
    assert log_prob_ball(spec, N, center, 4.0 / N + 1e-12) == 0.0
    assert log_prob_ball(spec, N, center, 4.0 / N / 2) == NEG_INF


def test_log_prob_ball_small_example():
    spec = EnsembleSpec.labeled(3)
    lp = log_prob_ball(spec, 4, (0.75, 0.0, 0.25), 0.1)
    assert abs(lp - math.log(4 / 16)) <= 1e-12


def test_log_prob_ball_matches_high_precision_value():
    # The reference is the lattice sum over (n1, N - 2 n1 + 2, n1 - 2) in
    # 50-digit arithmetic.
    spec = EnsembleSpec.labeled(3)
    lp = log_prob_ball(spec, 4000, solve_pstar(spec).pstar, 0.05)
    assert abs(lp / -0.0013253993220777808301 - 1.0) <= 1e-10


def test_finite_rate_trivia():
    spec = EnsembleSpec(Kind.PLANE, 2, 0.9, (0.2, 0.0, -0.1))
    ctx = solve_pstar(spec)
    assert abs(-log_prob_ball(spec, 40, ctx.pstar, 2.0) / 40) <= 1e-12
    lab2 = EnsembleSpec.labeled(2)
    center = np.array([0.0, 1.0])
    for N in (8, 16, 32):
        assert abs(-log_prob_ball(lab2, N, center, 4.0 / N + 1e-12) / N) <= 1e-12


def test_finite_rate_vanishes_at_pstar():
    spec = EnsembleSpec.labeled(3)
    ctx = solve_pstar(spec)
    rates = [-log_prob_ball(spec, N, ctx.pstar, 0.05) / N for N in (100, 200, 400, 800)]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 0.01


def test_convergence_table_shape_and_gap():
    spec = EnsembleSpec.plane(2)
    ctx = solve_pstar(spec)
    target = np.array([0.45, 0.43, 0.12])
    # nudge onto the manifold exactly: p0 = p2 + (1 - mean) adjustments are
    # easier through the free coordinate
    target = np.array([0.12, 0.76, 0.12])
    rows = convergence_table(spec, [200, 400, 800], target, 0.02, ctx=ctx)
    assert [r.N for r in rows] == [200, 400, 800]
    for row in rows:
        assert row.log_prob <= 0.0
        assert abs(row.gap - (row.rate - row.rate_limit)) <= 1e-15
    with pytest.raises(ValueError):
        convergence_table(spec, [400, 200], target, 0.02, ctx=ctx)


def test_finite_rate_brackets_rate_function():
    # r_N lies within [inf I over the ball, I at lattice points in the ball]
    # up to a small finite-size correction
    spec = EnsembleSpec.labeled(3)
    ctx = solve_pstar(spec)
    N, eps = 2000, 0.02
    theta = 0.2
    target = np.array([theta, 1 - 2 * theta, theta])
    r = -log_prob_ball(spec, N, target, eps) / N
    grid = manifold_grid(spec, 200_000)
    rates = j_values(spec, grid) - ctx.Jstar
    dist = np.abs(grid - target[None, :]).sum(axis=1)
    inf_ball = rates[dist <= eps].min()
    assert inf_ball - 0.02 <= r <= rates[dist <= eps].max() + 0.02


def test_r_set_examples():
    spec = EnsembleSpec.labeled(3)
    members = r_set(np.array((3, 0, 1)), 4, spec)
    assert len(members) == 1
    np.testing.assert_allclose(members[0], [0.5, 0.0, 0.5])

    lab2 = EnsembleSpec.labeled(2)
    N = 7
    members = r_set(np.array((2, N - 2)), N, lab2)
    assert len(members) == 1
    np.testing.assert_allclose(members[0], [0.0, 1.0])
    x = np.array((2, N - 2))
    dist = np.abs(members[0] - x / N).sum()
    assert abs(dist - 4.0 / N) <= 1e-12

    plane1 = EnsembleSpec.plane(1)
    members = r_set(np.array((1, N - 1)), N, plane1)
    assert len(members) == 1
    np.testing.assert_allclose(members[0], [0.0, 1.0])


def test_r_set_accepts_frequency_vectors():
    spec = EnsembleSpec.labeled(3)
    x = np.array([0.75, 0.0, 0.25])
    members = r_set(x, 4, spec)
    assert len(members) == 1
    np.testing.assert_allclose(members[0], [0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        r_set(np.array([0.7, 0.1, 0.2]), 4, spec)


@pytest.mark.parametrize(
    "spec,N",
    [
        (EnsembleSpec.labeled(3), 8),
        (EnsembleSpec.labeled(4), 9),
        (EnsembleSpec.plane(2), 7),
        (EnsembleSpec.plane(3), 8),
        (EnsembleSpec.labeled(2), 6),
    ],
)
def test_r_set_is_minimal_distance_set(spec, N):
    lattice = np.array(iter_profiles(spec.k_min, spec.D, N, spec.kind.manifold_total(N)))
    for profile in chi_law(spec, N):
        got = {tuple((m * N + 0.5).astype(int)) for m in r_set(np.array(profile), N, spec)}
        dist = np.abs(lattice - np.array(profile)[None, :]).sum(axis=1)
        best = dist.min()
        expected = {tuple(row) for row in lattice[dist == best]}
        assert got == expected
        assert 1 <= len(got) <= spec.D**2


def test_couple_sample_single():
    spec = EnsembleSpec(Kind.LABELED, 3, 0.6, (0.2, 0.0, 0.4))
    [sample] = couple_samples(spec, 12, 1, rng_stream(3))
    assert on_manifold(spec, sample.y)
    assert abs(sample.distance - 2.0 / 12) <= 1e-15
    assert 1 <= sample.r_size <= 9
    y_num = np.asarray(sample.y_counts)
    assert (y_num >= 0).all() and y_num.sum() == 12


@pytest.mark.parametrize(
    "spec,N,expected_dist",
    [
        (EnsembleSpec.labeled(3), 9, 2.0 / 9),
        (EnsembleSpec(Kind.LABELED, 4, 0.8, (0.1, 0.0, -0.2, 0.3)), 10, 2.0 / 10),
        (EnsembleSpec.labeled(2), 8, 4.0 / 8),
        (EnsembleSpec.plane(2), 9, 2.0 / 9),
        (EnsembleSpec(Kind.PLANE, 3, 1.1, (0.0, 0.2, -0.1, 0.4)), 7, 2.0 / 7),
    ],
)
def test_coupling_distance_certificates(spec, N, expected_dist):
    samples = couple_samples(spec, N, 2000, rng_stream(8))
    for s in samples:
        assert abs(s.distance - expected_dist) <= 1e-15
        assert on_manifold(spec, s.y)
        assert 1 <= s.r_size <= spec.D**2


def test_coupling_marginal_matches_chi_law():
    spec = EnsembleSpec(Kind.LABELED, 3, 0.5, (0.3, 0.0, 0.6))
    N, draws = 6, 30_000
    samples = couple_samples(spec, N, draws, rng_stream(21))
    observed: dict[tuple[int, ...], int] = {}
    for s in samples:
        key = tuple(s.x_counts.tolist())
        observed[key] = observed.get(key, 0) + 1
    expected = chi_law(spec, N)
    stat, critical = chi_square_check(observed, expected, draws)
    assert stat < critical


def test_lln_tail_trivia():
    lab2 = EnsembleSpec.labeled(2)
    assert lln_tail(lab2, 12, 4.0 / 12 + 1e-9) == 0.0
    spec = EnsembleSpec(Kind.PLANE, 2, 0.7, (0.1, 0.0, 0.3))
    assert lln_tail(spec, 30, 2.0) == 0.0


def test_lln_tail_monotone_and_frozen_value():
    spec = EnsembleSpec.labeled(3)
    tails = [lln_tail(spec, N, 0.1) for N in (250, 500, 1000)]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    # frozen from an independent lattice-sum oracle (lgamma + logsumexp)
    assert abs(tails[0] - 9.467964e-02) <= 1e-7


STREAMED_SPECS = [
    (EnsembleSpec.labeled(3), 90),
    (EnsembleSpec(Kind.LABELED, 4, 0.8, (0.0, 0.3, 0.0, 1.0)), 50),
    (EnsembleSpec.labeled(5), 30),
    (EnsembleSpec(Kind.PLANE, 3, 0.5, (0.0, 0.2, 0.0, 0.7)), 40),
    (EnsembleSpec(Kind.PLANE, 4, 1.0, (0.0, 0.0, 0.0, 1.0, 2.0)), 24),
]


@pytest.mark.parametrize("spec,N", STREAMED_SPECS)
def test_streamed_sums_match_the_chi_law(monkeypatch, spec, N):
    # A byte bound of 3 profiles, so every sum folds across many blocks; the
    # reference sums the materialized law's log-probabilities.
    monkeypatch.setattr(partition, "LATTICE_BYTES", 3 * 8 * spec.n_classes)
    rows = partition.lattice_rows(spec.k_min, spec.D, N, spec.kind.class_sum(N))
    assert sum(1 for batch in rows for _ in batch.pairs(batch.lo, batch.hi, 8 * 10)) >= 10
    law = chi_law(spec, N)
    profiles, logp = np.array(list(law)), np.log(list(law.values()))
    ctx = solve_pstar(spec)
    pstar = ctx.pstar
    # off the mode along (1, -2, 1, 0, ...), which keeps sum p and sum k p
    direction = np.zeros(spec.n_classes)
    direction[:3] = (1.0, -2.0, 1.0)
    off_mode = pstar + 0.3 * pstar[1] * direction

    def dist(center):
        return np.abs(profiles / N - center[None, :]).sum(axis=1)

    for center, eps in ((pstar, 0.15), (off_mode, 0.08)):
        want = log_sum(logp[dist(center) <= eps])
        got = log_prob_ball(spec, N, center, eps)
        assert abs(got - want) <= 1e-13 * abs(want)
    assert log_prob_ball(spec, N, off_mode, 0.08) < log_prob_ball(spec, N, pstar, 0.08)
    assert not (dist(pstar + 0.5 / N) <= 1e-9).any()
    assert log_prob_ball(spec, N, pstar + 0.5 / N, 1e-9) == NEG_INF

    for delta in (0.1, 0.4):
        want = math.exp(log_sum(logp[dist(pstar) > delta]))
        got = lln_tail(spec, N, delta, ctx=ctx)
        assert 0.0 < got < 1.0 and abs(got - want) <= 1e-13 * want
    assert lln_tail(spec, N, 2.5, ctx=ctx) == 0.0


# ---------------------------------------------------------------------------
# the cut fold: only profiles within CUT_SLACK of the kept sums are folded


def full_fold(spec, N, center, select):
    """``partition.log_mass`` with nothing cut (tau = -inf): every profile
    folded.

    The walk that sets tau, ``partition.ProfileCut``, reads
    ``partition.CUT_SLACK``; a spy on the fold's points
    (``LatticeRows.pairs``, which the fold scores) checks that every
    profile of the lattice reaches it, so the oracle cannot be the cut
    itself."""
    folded = []
    pairs = partition.LatticeRows.pairs

    def fold(rows, a, b, point_bytes):
        for i, m2 in pairs(rows, a, b, point_bytes):
            folded.append(m2.size)
            yield i, m2

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "CUT_SLACK", math.inf)
        mp.setattr(partition.LatticeRows, "pairs", fold)
        got = partition.log_mass(spec, N, center, select)
    rows = partition.lattice_rows(spec.k_min, spec.D, N, spec.kind.class_sum(N))
    assert sum(folded) == sum(batch.size for batch in rows)
    return got


def make_spec(kind, D, beta, c_raw):
    n_classes = D + 1 - (1 if kind is Kind.LABELED else 0)
    return EnsembleSpec(kind, D, beta, tuple(c_raw[:n_classes]))


def pick_center(spec, mode, u, weights):
    """p*, a manifold point moved off p* along (1, -2, 1, 0, ...), or a
    point of the simplex off the manifold."""
    pstar = solve_pstar(spec).pstar
    if mode == "pstar" or (mode == "manifold" and spec.n_classes < 3):
        return pstar
    if mode == "manifold":
        center = pstar.copy()
        center[:3] += u * pstar[1] / 2 * np.array([1.0, -2.0, 1.0])
        return center
    w = np.asarray(weights[: spec.n_classes]) + 1e-3
    return w / w.sum()


KINDS = st.sampled_from([Kind.LABELED, Kind.PLANE])
ENERGIES = st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7)


@settings(max_examples=120, deadline=None)
@given(
    kind=KINDS,
    D=st.integers(1, 6),
    beta=st.floats(0.0, 30.0),
    c_raw=ENERGIES,
    N=st.integers(2, 60),
    mode=st.sampled_from(["pstar", "manifold", "simplex"]),
    u=st.floats(0.0, 1.0),
    weights=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
    radius=st.floats(1e-3, 2.5),
    tail=st.booleans(),
)
# the empty ball, the empty tail, and a tail of about e^-310
@example(kind=Kind.LABELED, D=4, beta=1.0, c_raw=[0.0] * 7, N=50, mode="simplex", u=0.0,
         weights=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], radius=1e-3, tail=False)
@example(kind=Kind.PLANE, D=3, beta=0.5, c_raw=[0.0] * 7, N=40, mode="pstar", u=0.0,
         weights=[0.0] * 7, radius=2.5, tail=True)
@example(kind=Kind.PLANE, D=2, beta=30.0, c_raw=[0.0, 0.0, 1.0, 0, 0, 0, 0], N=60,
         mode="pstar", u=0.0, weights=[0.0] * 7, radius=0.8, tail=True)
# a ball of mass 1 - e^-179, whose ln is -1.87e-78 (found by hypothesis)
@example(kind=Kind.LABELED, D=6, beta=27.66829761177601,
         c_raw=[-0.4369054384507174, -1.9561649042265197, 0.0, 0.0, 0.0, 0.0, 0.0], N=12,
         mode="pstar", u=0.0, weights=[0.0] * 7, radius=0.8519642960191595, tail=False)
def test_cut_fold_matches_the_full_fold(kind, D, beta, c_raw, N, mode, u, weights, radius,
                                        tail):
    if D < kind.mean:
        D = kind.mean
    spec = make_spec(kind, D, beta, c_raw)
    center = pick_center(spec, mode, u, weights)
    select = (lambda d: d > radius) if tail else (lambda d: d <= radius)
    want = full_fold(spec, N, center, select)
    got = partition.log_mass(spec, N, center, select)
    if want in (NEG_INF, 0.0):
        assert got == want
    else:
        # A mass e^want near 1 leaves want = ln(1 - x) with x = e^(ln x)
        # rounded at the scale of |ln x| ~ |ln |want||, not of |want|.
        assert abs(got - want) <= 1e-13 * abs(want) * (1 + abs(math.log(abs(want))))


def test_cut_fold_keeps_a_tail_below_e_minus_300():
    spec = EnsembleSpec(Kind.PLANE, 2, 30.0, (0.0, 0.0, 1.0))
    pstar = solve_pstar(spec).pstar
    want = full_fold(spec, 60, pstar, lambda d: d > 0.8)
    assert -400 < want < -300
    got = partition.log_mass(spec, 60, pstar, lambda d: d > 0.8)
    assert abs(got - want) <= 1e-13 * abs(want)


@settings(max_examples=60, deadline=None)
@given(
    kind=KINDS,
    D=st.integers(1, 6),
    beta=st.floats(0.0, 30.0),
    c_raw=ENERGIES,
    N=st.integers(1, 40),
    batch_rows=st.integers(1, 8),
    picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_row_cut_keeps_exactly_the_points_above_tau(kind, D, beta, c_raw, N, batch_rows,
                                                    picks):
    # Brute force per row: profile_log_weights of every point, against the
    # row maxima and the {lw >= tau} intervals found by bisection.  Each tau
    # lies halfway between two distinct log weights, far from rounding.
    if D < kind.mean:
        D = kind.mean
    spec = make_spec(kind, D, beta, c_raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "LATTICE_BYTES", 8 * (spec.n_classes + 1) * batch_rows)
        batches = list(partition.lattice_rows(spec.k_min, spec.D, N, spec.kind.class_sum(N)))
    for rows in batches:
        cut = partition._RowCut(spec, N, rows)
        lw = partition.profile_log_weights(spec, N, np.concatenate(
            [rows.profiles(i, m2) for i, m2 in rows.pairs(rows.lo, rows.hi, 8 * 10)]))
        per_row = np.split(lw, np.cumsum(rows.hi - rows.lo + 1)[:-1])
        scale = 1e-9 * (1.0 + np.abs(lw).max())
        for i, values in enumerate(per_row):
            assert abs(cut.top[i] - values.max()) <= scale
            assert values[cut.peak[i] - rows.lo[i]] >= values.max() - scale
        distinct = np.unique(lw)
        taus = [NEG_INF, distinct[-1] + 1.0]
        for q in picks:
            j = min(int(q * (distinct.size - 1)), distinct.size - 2)
            if j >= 0 and distinct[j + 1] - distinct[j] > scale:
                taus.append((distinct[j] + distinct[j + 1]) / 2)
        for tau in taus:
            first, last = cut.interval(tau)
            for i, values in enumerate(per_row):
                kept = rows.lo[i] + np.flatnonzero(values >= tau)
                np.testing.assert_array_equal(kept, np.arange(first[i], last[i] + 1))


@settings(max_examples=60, deadline=None)
@given(
    kind=KINDS,
    D=st.integers(1, 6),
    beta=st.floats(0.0, 30.0),
    c_raw=ENERGIES,
    N=st.integers(1, 40),
    point_bytes=st.integers(1, 2**16),
)
@example(kind=Kind.PLANE, D=4, beta=1.0, c_raw=[0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0], N=400,
         point_bytes=80)
@example(kind=Kind.LABELED, D=3, beta=0.0, c_raw=[0.0] * 7, N=4000, point_bytes=80)
def test_row_fold_log_weights_match_the_profiles(kind, D, beta, c_raw, N, point_bytes):
    # The folds score (row, m_2) pairs in closed form; the reference builds
    # each point's profile and scores it with profile_log_weights.
    if D < kind.mean:
        D = kind.mean
    spec = make_spec(kind, D, beta, c_raw)
    for rows in partition.lattice_rows(spec.k_min, spec.D, N, spec.kind.class_sum(N)):
        cut = partition._RowCut(spec, N, rows)
        for i, m2 in rows.pairs(rows.lo, rows.hi, point_bytes):
            lw = cut.log_weights(m2, i)
            want = partition.profile_log_weights(spec, N, rows.profiles(i, m2))
            assert (np.abs(lw - want) <= 1e-13 * (1 + np.abs(want))).all()


def test_cut_fold_second_pass_and_kept_share(monkeypatch):
    # Counts, not timings: the lln tail of labeled D=4 at N=2000 is small
    # enough that the certificate sends the fold below tau (a third walk of
    # the rows), and the ball of plane D=4 at N=1600 folds under 10% of the
    # lattice.  ln Z takes two walks, and the rare-class draw three.
    walks, folded = [], []
    lattice_rows, pairs = partition.lattice_rows, partition.LatticeRows.pairs

    def walk(*args):
        walks.append(args)
        return lattice_rows(*args)

    def fold(rows, a, b, point_bytes):
        for i, m2 in pairs(rows, a, b, point_bytes):
            folded.append(m2.size)
            yield i, m2

    monkeypatch.setattr(partition, "lattice_rows", walk)
    monkeypatch.setattr(partition.LatticeRows, "pairs", fold)

    spec = EnsembleSpec.labeled(4)
    assert 0 < lln_tail(spec, 2000, 0.1) < 1e-4
    assert len(walks) == 3

    walks.clear()
    folded.clear()
    spec = EnsembleSpec(Kind.PLANE, 4, 1.0, (0.0, 0.0, 0.0, 1.0, 2.0))
    log_prob_ball(spec, 1600, solve_pstar(spec).pstar, 0.05)
    assert len(walks) == 2
    points = sum(rows.size for rows in lattice_rows(*walks[0]))
    assert sum(folded) < 0.1 * points

    walks.clear()
    partition.log_partition_value(spec, 1600)
    assert len(walks) == 2

    # degrees 2 and 4 carry tilt weight e^-20, and odd N needs one of them
    walks.clear()
    spec = EnsembleSpec(Kind.LABELED, 4, 1.0, (0.0, 20.0, 0.0, 20.0))
    partition.sample_profiles(spec, 9, 50, rng_stream(5))
    assert len(walks) == 3
