import numpy as np
import pytest

from oracles import chi_of, labeled_trees, plane_trees
from treegibbs import (
    BadEnergyTable,
    BoundTooSmall,
    CountVector,
    EnsembleSpec,
    FrequencyVector,
    Kind,
    KindMismatch,
    OffManifold,
    is_feasible,
    validate_spec,
)


def frequencies(n: CountVector) -> FrequencyVector:
    """The empirical frequencies n / N."""
    return FrequencyVector(n.kind, n.as_array() / n.N)


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


def test_is_feasible_examples():
    lab = EnsembleSpec.labeled(2)
    assert is_feasible(CountVector(Kind.LABELED, (2, 2)), lab) is True
    assert is_feasible(CountVector(Kind.LABELED, (4, 0)), lab) is False
    plane = EnsembleSpec.plane(2)
    assert is_feasible(CountVector(Kind.PLANE, (2, 1, 1)), plane) is True


def test_is_feasible_kind_mismatch():
    with pytest.raises(KindMismatch):
        is_feasible(CountVector(Kind.PLANE, (2, 1, 1)), EnsembleSpec.labeled(3))


def test_freq_from_counts_examples():
    f = frequencies(CountVector(Kind.LABELED, (2, 2)))
    np.testing.assert_allclose(f.p, [0.5, 0.5])
    f = frequencies(CountVector(Kind.LABELED, (2, 0, 2)))
    np.testing.assert_allclose(f.p, [0.5, 0.0, 0.5])
    f = frequencies(CountVector(Kind.PLANE, (1, 3, 0)))
    np.testing.assert_allclose(f.p, [0.25, 0.75, 0.0])


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_every_enumerated_labeled_chi_is_feasible(N):
    spec = EnsembleSpec.labeled(max(N - 1, 2))
    for tree in labeled_trees(N):
        chi = chi_of(tree, spec)
        assert is_feasible(chi, spec)
        f = frequencies(chi)
        assert abs(f.mass() - 1.0) <= 1e-15
        assert abs(f.mean_class() - (2.0 - 2.0 / N)) <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_every_enumerated_plane_chi_is_feasible(N):
    spec = EnsembleSpec.plane(max(N - 1, 1))
    for tree in plane_trees(N, spec.D):
        chi = chi_of(tree, spec)
        assert is_feasible(chi, spec)
        f = frequencies(chi)
        assert abs(f.mass() - 1.0) <= 1e-15
        assert abs(f.mean_class() - (1.0 - 1.0 / N)) <= 1e-12


def test_frequency_vector_manifold_check():
    on = FrequencyVector(Kind.LABELED, np.array([0.25, 0.5, 0.25]))
    assert on.on_manifold()
    off = FrequencyVector(Kind.LABELED, np.array([0.5, 0.5, 0.0]))
    assert not off.on_manifold()
    with pytest.raises(OffManifold):
        off.require_on_manifold()
    uniform = FrequencyVector(Kind.PLANE, np.array([1 / 3, 1 / 3, 1 / 3]))
    assert uniform.on_manifold()


def test_frequency_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        FrequencyVector(Kind.PLANE, np.array([-0.5, 1.5, 0.0]))


def test_count_vector_rejects_negative():
    with pytest.raises(ValueError):
        CountVector(Kind.LABELED, (-1, 3))


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
    f = frequencies(CountVector(Kind.LABELED, (2, 2)))
    with pytest.raises(ValueError):
        f.p[0] = 0.9
