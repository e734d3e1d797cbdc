import math

import numpy as np
import pytest

from oracles import chi_of, labeled_trees, plane_trees
from treegibbs import (
    BadEnergyTable,
    BoundTooSmall,
    EnsembleSpec,
    J_value,
    Kind,
    OffManifold,
    SumMismatch,
    log_prob_ball,
    log_prob_profile,
    solve_pstar,
    validate_spec,
)
from treegibbs.ensembles import frequency_array

LAB2, LAB3, PLANE2 = EnsembleSpec.labeled(2), EnsembleSpec.labeled(3), EnsembleSpec.plane(2)


def test_validate_spec_minimal_labeled():
    spec = EnsembleSpec(Kind.LABELED, 2, 1.0, (0.0, 0.0))
    assert validate_spec(spec) is spec


def test_validate_spec_bound_too_small():
    with pytest.raises(BoundTooSmall):
        validate_spec(EnsembleSpec(Kind.LABELED, 1, 1.0, (0.0,)))
    with pytest.raises(BoundTooSmall):
        validate_spec(EnsembleSpec(Kind.PLANE, 0, 1.0, (0.0,)))


def test_validate_spec_plane_ok():
    spec = EnsembleSpec(Kind.PLANE, 2, 0.5, (0.0, 1.0, 2.0))
    assert validate_spec(spec) is spec


def test_validate_spec_energy_table():
    with pytest.raises(BadEnergyTable):
        validate_spec(EnsembleSpec(Kind.LABELED, 3, 1.0, (0.0, 0.0)))
    with pytest.raises(BadEnergyTable):
        validate_spec(EnsembleSpec(Kind.PLANE, 2, 1.0, (0.0, 0.0)))
    with pytest.raises(BadEnergyTable):
        validate_spec(EnsembleSpec(Kind.LABELED, 2, 1.0, (0.0, float("inf"))))


def test_validate_spec_beta_any_sign():
    validate_spec(EnsembleSpec.labeled(3, beta=-2.5))
    with pytest.raises(ValueError):
        validate_spec(EnsembleSpec.labeled(3, beta=float("nan")))


def test_freq_from_counts_examples():
    for spec, chi, want in (
        (LAB2, (2, 2), [0.5, 0.5]),
        (LAB3, (2, 0, 2), [0.5, 0.0, 0.5]),
        (PLANE2, (1, 3, 0), [0.25, 0.75, 0.0]),
    ):
        np.testing.assert_allclose(frequency_array(spec, np.array(chi) / sum(chi)), want)


def assert_tree_profile(spec: EnsembleSpec, chi: np.ndarray, N: int) -> None:
    """chi has a tree's class sum, and chi/N its mass 1 and mean class
    ``mean - mean/N`` (2 - 2/N labeled, 1 - 1/N plane)."""
    assert chi.dtype == np.int64 and chi.sum() == N
    assert int(spec.classes() @ chi) == spec.kind.class_sum(N)
    assert math.isfinite(log_prob_profile(spec, N, chi))
    f = frequency_array(spec, chi / N)
    assert abs(f.sum() - 1.0) <= 1e-15
    assert abs(spec.classes() @ f - spec.mean_target * (1.0 - 1.0 / N)) <= 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_every_enumerated_labeled_chi_is_feasible(N):
    spec = EnsembleSpec.labeled(max(N - 1, 2))
    for tree in labeled_trees(N):
        assert_tree_profile(spec, chi_of(tree, spec), N)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_every_enumerated_plane_chi_is_feasible(N):
    spec = EnsembleSpec.plane(max(N - 1, 1))
    for tree in plane_trees(N, spec.D):
        assert_tree_profile(spec, chi_of(tree, spec), N)


def write_to_pstar():
    solve_pstar(LAB3).pstar[0] = 0.9


#: One row per check that a profile or frequency vector meets where it
#: enters, with the error class it raises (exactly that class) or the value
#: it returns.
ENTRY_CHECKS = {
    "profile-length": (lambda: log_prob_profile(LAB3, 4, (2, 2)), ValueError),
    "profile-shape": (lambda: log_prob_profile(LAB3, 4, [(2, 2, 0)]), ValueError),
    "profile-negative": (lambda: log_prob_profile(LAB3, 4, (-1, 3, 2)), ValueError),
    "profile-fractional": (lambda: log_prob_profile(LAB3, 4, (2.7, 2.9, 0.0)), ValueError),
    "profile-fractional-sum-n": (
        lambda: log_prob_profile(LAB3, 4, (2.5, 1.5, 0.0)), ValueError
    ),
    "profile-sum": (lambda: log_prob_profile(LAB3, 5, (2, 2, 0)), SumMismatch),
    "profile-infeasible": (lambda: log_prob_profile(LAB2, 4, (4, 0)), -math.inf),
    "profile-feasible-labeled": (
        lambda: log_prob_profile(LAB2, 4, (2, 2)), pytest.approx(0.0, abs=1e-12)
    ),
    "profile-feasible-plane": (
        lambda: log_prob_profile(PLANE2, 4, (2, 1, 1)), pytest.approx(math.log(3 / 4))
    ),
    "centre-outside": (lambda: log_prob_ball(PLANE2, 10, (-0.5, 1.5, 0.0), 0.1), ValueError),
    "centre-length": (lambda: log_prob_ball(PLANE2, 10, (0.5, 0.5), 0.1), ValueError),
    "centre-shape": (lambda: log_prob_ball(PLANE2, 10, [(0.5, 0.0, 0.5)], 0.1), ValueError),
    "centre-nan": (lambda: log_prob_ball(LAB3, 50, (math.nan, 0.5, 0.5), 0.1), ValueError),
    "off-manifold": (lambda: J_value((0.5, 0.5, 0.0), LAB3), OffManifold),
    "manifold-nan": (lambda: J_value((math.nan, 0.5, 0.5), LAB3), ValueError),
    "on-manifold": (lambda: J_value((1 / 3,) * 3, PLANE2), pytest.approx(-math.log(3))),
    "pstar-read-only": (write_to_pstar, ValueError),
}


@pytest.mark.parametrize("call, expected", ENTRY_CHECKS.values(), ids=ENTRY_CHECKS)
def test_entry_checks(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected) as info:
            call()
        assert type(info.value) is expected
    else:
        assert call() == expected


def test_spec_class_ranges():
    lab = EnsembleSpec.labeled(3)
    assert list(lab.classes()) == [1, 2, 3]
    assert lab.mean_target == 2.0
    plane = EnsembleSpec.plane(3)
    assert list(plane.classes()) == [0, 1, 2, 3]
    assert plane.mean_target == 1.0


def test_immutability():
    spec = EnsembleSpec.labeled(3)
    with pytest.raises(AttributeError):
        spec.D = 4
