import math
import warnings

import numpy as np
import pytest

from conftest import random_manifold_point
from oracles import (
    entropy,
    from_free_coordinates,
    g_term,
    grid_minimize_J,
    j_free_gradient,
    on_manifold,
)
from treegibbs import (
    EnsembleSpec,
    Kind,
    KindMismatch,
    OffManifold,
    J_value,
    rate_value,
    solve_pstar,
)
from treegibbs import partition
from treegibbs.partition import tilt_probs
from treegibbs.rate import _stationarity_residual, j_values, manifold_grid

SQRT2 = math.sqrt(2.0)


def test_entropy_examples():
    assert entropy((1.0, 0.0, 0.0)) == 0.0
    assert abs(entropy((1 / 3, 1 / 3, 1 / 3)) - math.log(3)) <= 1e-12
    assert abs(entropy((0.5, 0.25, 0.25)) - 1.5 * math.log(2)) <= 1e-12


def test_energy_mean_examples():
    # the mean energy E(p) = p . c is the beta-slope of J
    def energy_mean(p, c):
        spec = EnsembleSpec.plane(len(c) - 1, 1.0, c)
        return float(j_values(spec, p) - j_values(EnsembleSpec.plane(len(c) - 1), p))

    assert energy_mean((0.2, 0.8), (0.0, 0.0)) == 0.0
    assert energy_mean((0.0, 1.0), (5.0, 7.0)) == 7.0
    assert abs(energy_mean((0.25, 0.5, 0.25), (1.0, 2.0, 3.0)) - 2.0) <= 1e-12


def test_g_term_examples():
    assert g_term(EnsembleSpec.labeled(2), [0.3, 0.7]) == 0.0
    point = g_term(EnsembleSpec.labeled(3), [0.0, 0.0, 1.0])
    assert abs(point - math.log(2)) <= 1e-12
    mixed = g_term(EnsembleSpec.labeled(4), [0.5, 0.0, 0.25, 0.25])
    assert abs(mixed - (0.25 * math.log(2) + 0.25 * math.log(6))) <= 1e-12
    with pytest.raises(KindMismatch):
        g_term(EnsembleSpec.plane(2), [0.5, 0.0, 0.5])


def test_J_value_examples():
    plane = EnsembleSpec.plane(2)
    assert abs(J_value((1 / 3, 1 / 3, 1 / 3), plane) + math.log(3)) <= 1e-12
    lab2 = EnsembleSpec.labeled(2)
    assert abs(J_value((0.0, 1.0), lab2)) <= 1e-12
    lab3 = EnsembleSpec(Kind.LABELED, 3, 1.0, (0.0, 0.0, 0.0))
    assert abs(J_value((0.5, 0.0, 0.5), lab3) - (-0.5 * math.log(2))) <= 1e-12
    with pytest.raises(OffManifold):
        J_value((0.5, 0.5, 0.0), lab3)


def test_tilt_examples():
    lab3 = EnsembleSpec.labeled(3)
    p = tilt_probs(lab3, math.log(SQRT2))
    np.testing.assert_allclose(p, [0.292893, 0.414214, 0.292893], atol=1e-6)
    plane = EnsembleSpec.plane(2)
    np.testing.assert_allclose(tilt_probs(plane, 0.0), [1 / 3] * 3, atol=1e-12)
    tiny = tilt_probs(lab3, math.log(1e-200))
    np.testing.assert_allclose(tiny, [1.0, 0.0, 0.0], atol=1e-12)


def test_tilt_mean_examples():
    def tilt_mean(x, spec):
        return float(spec.classes() @ tilt_probs(spec, math.log(x)))

    plane = EnsembleSpec.plane(2)
    assert abs(tilt_mean(1.0, plane) - 1.0) <= 1e-12
    lab3 = EnsembleSpec.labeled(3)
    assert abs(tilt_mean(SQRT2, lab3) - 2.0) <= 1e-12
    assert abs(tilt_mean(1e200, lab3) - 3.0) <= 1e-9
    for x in (0.25, 0.7, 1.3, 2.9):
        assert tilt_mean(x, lab3) < tilt_mean(x * 1.1, lab3)


def test_solve_pstar_boundary_labeled_d2():
    ctx = solve_pstar(EnsembleSpec(Kind.LABELED, 2, 1.7, (0.4, -0.3)))
    assert ctx.boundary
    assert ctx.tilt_x is None
    np.testing.assert_allclose(ctx.pstar, [0.0, 1.0], atol=1e-15)


def test_solve_pstar_boundary_plane_d1():
    ctx = solve_pstar(EnsembleSpec(Kind.PLANE, 1, 0.3, (0.1, 0.9)))
    assert ctx.boundary
    np.testing.assert_allclose(ctx.pstar, [0.0, 1.0], atol=1e-15)


def test_solve_pstar_closed_forms():
    ctx = solve_pstar(EnsembleSpec.labeled(3))
    expected = np.array([SQRT2, 2.0, SQRT2]) / (2.0 + 2.0 * SQRT2)
    np.testing.assert_allclose(ctx.pstar, expected, atol=1e-9)
    assert abs(ctx.tilt_x - SQRT2) <= 1e-9
    assert ctx.stationarity_residual <= 1e-8
    assert on_manifold(ctx.spec, ctx.pstar)
    ctx = solve_pstar(EnsembleSpec.plane(2))
    np.testing.assert_allclose(ctx.pstar, [1 / 3] * 3, atol=1e-9)
    assert abs(ctx.tilt_x - 1.0) <= 1e-9


def test_solve_pstar_random_specs_certificates():
    rng = np.random.default_rng(41)
    for _ in range(10):
        kind = Kind.LABELED if rng.random() < 0.5 else Kind.PLANE
        D = int(rng.integers(3, 6))
        n_classes = D if kind is Kind.LABELED else D + 1
        spec = EnsembleSpec(
            kind, D, float(rng.uniform(-1, 2)), tuple(rng.uniform(-1, 1, n_classes))
        )
        ctx = solve_pstar(spec)
        assert not ctx.boundary
        assert on_manifold(ctx.spec, ctx.pstar)
        assert ctx.stationarity_residual <= 1e-8
        assert abs(rate_value(ctx.pstar, ctx)) <= 1e-10


@pytest.mark.parametrize(
    "D,beta,energy,bound",
    [
        (5, 1000.0, (0, 1, 0, 1, 0), 1e-12),  # degrees 2 and 4 underflow
        (3, 1.0, (1000, 0, 1000), 0.0),  # only degree 2 is positive
    ],
)
def test_stationarity_residual_over_positive_classes(D, beta, energy, bound):
    spec = EnsembleSpec(Kind.LABELED, D, beta, energy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = solve_pstar(spec)
    assert 0.0 <= ctx.stationarity_residual <= bound


def test_stationarity_residual_matches_a_least_squares_fit():
    # off the tilt family the deviation from the line is O(1); the closed
    # form and numpy's least-squares fit agree up to rounding
    rng = np.random.default_rng(5)
    for kind, D in [(Kind.LABELED, 3), (Kind.LABELED, 6), (Kind.PLANE, 4)]:
        spec = EnsembleSpec(kind, D, 0.7, tuple(rng.uniform(-1, 1, D - kind.k_min + 1)))
        p = rng.dirichlet(np.ones(spec.n_classes))
        ks = spec.classes().astype(np.float64)
        y = np.log(p) + spec.beta * spec.energies() + spec.kind.word_log_weights(spec.D)
        want = float(np.abs(y - np.polyval(np.polyfit(ks, y, 1), ks)).max())
        assert abs(_stationarity_residual(spec, p) - want) <= 1e-12 * want


def test_solve_pstar_calls_no_least_squares_solver(monkeypatch):
    # the residual's line is fitted in closed form, so that no command
    # loads LAPACK for it
    def refuse(*args, **kwargs):
        raise AssertionError("least-squares solver called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    for spec in (EnsembleSpec.labeled(3), EnsembleSpec(Kind.PLANE, 4, 1.0, (0, 0, 0, 1, 2))):
        assert solve_pstar(spec).stationarity_residual <= 1e-8


def test_rate_value_examples():
    lab3 = EnsembleSpec.labeled(3)
    ctx = solve_pstar(lab3)
    assert abs(rate_value(ctx.pstar, ctx)) <= 1e-12
    got = rate_value((0.5, 0.0, 0.5), ctx)
    expected = -0.5 * math.log(2) - ctx.Jstar
    assert abs(got - expected) <= 1e-12
    plane = EnsembleSpec.plane(2)
    ctx = solve_pstar(plane)
    got = rate_value((0.5, 0.0, 0.5), ctx)
    assert abs(got - (math.log(3) - math.log(2))) <= 1e-9


def test_grid_minimizer_examples():
    ctx = solve_pstar(EnsembleSpec.plane(2))
    best = grid_minimize_J(EnsembleSpec.plane(2), 300)
    assert np.abs(best - ctx.pstar).sum() <= 0.01
    ctx = solve_pstar(EnsembleSpec.labeled(3))
    best = grid_minimize_J(EnsembleSpec.labeled(3), 300)
    assert np.abs(best - ctx.pstar).sum() <= 0.01
    best = grid_minimize_J(EnsembleSpec.labeled(2), 300)
    np.testing.assert_array_equal(best, [0.0, 1.0])


def test_grid_cap():
    manifold_grid(EnsembleSpec.labeled(5), 20)


@pytest.mark.parametrize(
    "spec",
    [EnsembleSpec.labeled(2), EnsembleSpec.plane(1), EnsembleSpec.labeled(3),
     EnsembleSpec(Kind.LABELED, 5, 0.5, (0.0, 0.3, 0.0, 1.0, 0.2)),
     EnsembleSpec(Kind.PLANE, 4, 1.0, (0.0, 0.0, 0.0, 1.0, 2.0))],
)
def test_streamed_grid_minimizer_is_the_first_argmin(monkeypatch, spec):
    # blocks of 3 grid points; the oracle is np.argmin, the first minimum,
    # over the whole materialized grid
    monkeypatch.setattr(partition, "LATTICE_BYTES", 3 * 8 * spec.n_classes)
    grid = manifold_grid(spec, 60)
    want = grid[int(np.argmin(j_values(spec, grid)))]
    np.testing.assert_array_equal(grid_minimize_J(spec, 60), want)


def _box_filter_grid(spec, resolution):
    """Reference grid: the whole free-coordinate box, filtered down to M."""
    n_free = spec.n_classes - 2
    if n_free == 0:
        u = np.zeros((1, 0))
    else:
        axes = [np.arange(resolution + 1) / resolution] * n_free
        mesh = np.meshgrid(*axes, indexing="ij")
        u = np.stack([m.ravel() for m in mesh], axis=1)
    pts = from_free_coordinates(spec, u)
    return pts[(pts[:, 0] >= -1e-12) & (pts[:, 1] >= -1e-12)]


def _point_set(grid, resolution):
    return {tuple(row) for row in np.rint(grid * resolution).astype(np.int64)}


@pytest.mark.parametrize(
    "spec,resolution",
    [(EnsembleSpec.labeled(D), r) for D, r in ((2, 10), (3, 50), (4, 40), (5, 20))]
    + [(EnsembleSpec.plane(D), r) for D, r in ((1, 10), (2, 50), (3, 40), (4, 20))],
)
def test_manifold_grid_matches_box_filter(spec, resolution):
    grid = manifold_grid(spec, resolution)
    ref = _box_filter_grid(spec, resolution)
    assert grid.shape == ref.shape
    assert _point_set(grid, resolution) == _point_set(ref, resolution)
    np.testing.assert_allclose(grid.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grid @ spec.classes(), spec.kind.mean, rtol=0, atol=1e-12)


def test_tilt_consistency_with_grid():
    specs = [
        EnsembleSpec(Kind.LABELED, 3, 0.7, (0.2, 0.0, -0.4)),
        EnsembleSpec(Kind.LABELED, 4, 1.1, (0.5, -0.2, 0.1, 0.6)),
        EnsembleSpec(Kind.PLANE, 2, 1.4, (0.3, 0.0, -0.5)),
        EnsembleSpec(Kind.PLANE, 3, 0.4, (0.1, 0.2, -0.3, 0.4)),
    ]
    for spec in specs:
        ctx = solve_pstar(spec)
        best = grid_minimize_J(spec, 1000)
        assert np.abs(best - ctx.pstar).sum() <= 5e-3


def test_convexity_of_rate_function():
    rng = np.random.default_rng(7)
    for spec in (
        EnsembleSpec(Kind.LABELED, 4, 0.8, (0.3, 0.0, -0.2, 0.4)),
        EnsembleSpec(Kind.PLANE, 3, 1.2, (0.2, -0.1, 0.0, 0.5)),
    ):
        ctx = solve_pstar(spec)
        for _ in range(500):
            p = random_manifold_point(spec, rng)
            q = random_manifold_point(spec, rng)
            ip = rate_value(p, ctx)
            iq = rate_value(q, ctx)
            assert ip >= -1e-10 and iq >= -1e-10
            for lam in (0.25, 0.5, 0.75):
                mid = lam * p + (1 - lam) * q
                imid = rate_value(mid, ctx)
                assert imid <= lam * ip + (1 - lam) * iq + 1e-10


def test_strict_positivity_away_from_pstar():
    spec = EnsembleSpec.labeled(3)
    ctx = solve_pstar(spec)
    grid = manifold_grid(spec, 400)
    rates = j_values(spec, grid) - ctx.Jstar
    dist = np.abs(grid - ctx.pstar[None, :]).sum(axis=1)
    away = dist >= 0.01
    assert rates[away].min() > 0.0


def test_gradient_matches_finite_differences():
    specs = [
        EnsembleSpec(Kind.LABELED, 4, 0.9, (0.2, 0.0, -0.3, 0.5)),
        EnsembleSpec(Kind.PLANE, 3, 1.3, (0.1, 0.0, 0.4, -0.2)),
    ]
    rng = np.random.default_rng(13)
    step = 1e-6
    for spec in specs:
        for _ in range(5):
            p = random_manifold_point(spec, rng, interior_floor=0.02)
            u = p[2:]
            grad = j_free_gradient(spec, p)
            for j in range(u.size):
                up, down = u.copy(), u.copy()
                up[j] += step
                down[j] -= step
                fd = (
                    j_values(spec, from_free_coordinates(spec, up))
                    - j_values(spec, from_free_coordinates(spec, down))
                ) / (2 * step)
                assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j]))


def test_energy_minimizer_differs_from_pstar():
    spec = EnsembleSpec(Kind.LABELED, 3, 1.0, (0.0, 0.0, -1.0))
    ctx = solve_pstar(spec)
    grid = manifold_grid(spec, 1000)
    energies = grid @ np.asarray(spec.c)
    argmin_energy = grid[int(np.argmin(energies))]
    np.testing.assert_allclose(argmin_energy, [0.5, 0.0, 0.5], atol=1e-9)
    assert np.abs(argmin_energy - ctx.pstar).sum() >= 0.05
