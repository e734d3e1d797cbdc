"""Domain types for Gibbs ensembles of degree-bounded trees.

Two ensemble kinds are supported:

* ``Kind.LABELED``: labeled trees on N vertices, every vertex degree in
  ``1..D``.  Vertex classes are degrees, the feasible degree sum is
  ``2N - 2`` and frequency vectors concentrate on the manifold
  ``{sum p_k = 1, sum k p_k = 2}``.
* ``Kind.PLANE``: rooted ordered trees, every branching (child count) in
  ``0..D``.  Classes are child counts, the feasible class sum is
  ``N - 1`` and the manifold constraint is ``sum k p_k = 1``.

All types are immutable value objects and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadEnergyTable, BoundTooSmall, KindMismatch, OffManifold

#: Absolute tolerance for both linear manifold constraints.
MANIFOLD_TOL = 1e-12


class Kind(Enum):
    """Tree family, and the constants that follow from it.

    Classes start at ``k_min`` (degree 1 for labeled trees, 0 children for
    plane trees) and the manifold mean class is ``mean = k_min + 1``.  A tree
    on N vertices has class sum ``mean * (N - 1)`` (its N - 1 edges counted
    at both ends or at the parent only), while the manifold lattice at
    denominator N has class sum ``mean * N``.  The mean is reachable only
    when the bound D is at least ``mean``.
    """

    LABELED = "labeled"
    PLANE = "plane"

    @property
    def k_min(self) -> int:
        return 1 if self is Kind.LABELED else 0

    @property
    def mean(self) -> int:
        return self.k_min + 1

    def class_sum(self, N: int) -> int:
        """Class sum of every tree on N vertices."""
        return self.mean * (N - 1)

    def manifold_total(self, N: int) -> int:
        """Class sum of the manifold lattice points with denominator N."""
        return self.mean * N


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble parameters: kind, class bound D, inverse temperature, energies.

    ``c[i]`` is the energy of class ``k_min + i``, i.e. degrees ``1..D`` for
    labeled trees and child counts ``0..D`` for plane trees.  A spec
    validates itself on construction (``validate_spec``), so every
    ``EnsembleSpec`` in hand is valid and no consumer checks it again.
    """

    kind: Kind
    D: int
    beta: float
    c: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", int(self.D))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        validate_spec(self)

    @property
    def k_min(self) -> int:
        return self.kind.k_min

    @property
    def n_classes(self) -> int:
        return self.D - self.k_min + 1

    @property
    def mean_target(self) -> float:
        """Manifold mean-class constraint: 2 for labeled, 1 for plane."""
        return float(self.kind.mean)

    def classes(self) -> np.ndarray:
        return np.arange(self.k_min, self.D + 1)

    def energies(self) -> np.ndarray:
        return np.asarray(self.c, dtype=np.float64)

    @classmethod
    def labeled(cls, D: int, beta: float = 0.0, c=None) -> "EnsembleSpec":
        if c is None:
            c = (0.0,) * D
        return cls(Kind.LABELED, D, beta, tuple(c))

    @classmethod
    def plane(cls, D: int, beta: float = 0.0, c=None) -> "EnsembleSpec":
        if c is None:
            c = (0.0,) * (D + 1)
        return cls(Kind.PLANE, D, beta, tuple(c))


def validate_spec(spec: EnsembleSpec) -> EnsembleSpec:
    """Check all EnsembleSpec invariants, returning the spec unchanged.

    Raises BoundTooSmall when D is below the minimum for the kind (2 for
    labeled, 1 for plane) and BadEnergyTable when the energy table has the
    wrong length or non-finite entries.  beta may have either sign but must
    be finite.
    """
    if not isinstance(spec.kind, Kind):
        raise KindMismatch(f"unknown ensemble kind: {spec.kind!r}")
    d_min = spec.kind.mean
    if spec.D < d_min:
        raise BoundTooSmall(
            f"{spec.kind.value} ensembles need D >= {d_min}, got D={spec.D}"
        )
    if len(spec.c) != spec.n_classes:
        raise BadEnergyTable(
            f"energy table must have {spec.n_classes} entries for "
            f"{spec.kind.value} D={spec.D}, got {len(spec.c)}"
        )
    if not all(math.isfinite(v) for v in spec.c):
        raise BadEnergyTable("energy table entries must be finite")
    if not math.isfinite(spec.beta):
        raise ValueError("beta must be finite")
    return spec


@dataclass(frozen=True)
class CountVector:
    """Integer vertex counts per class (degree or child count)."""

    kind: Kind
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(v) for v in self.counts)
        if any(v < 0 for v in counts):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def N(self) -> int:
        return sum(self.counts)

    @property
    def k_min(self) -> int:
        return self.kind.k_min

    def classes(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_min + len(self.counts))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    def weighted_sum(self) -> int:
        """sum_k k * counts_k, in exact integer arithmetic."""
        return sum(int(k) * v for k, v in zip(self.classes(), self.counts))


def is_feasible(n: CountVector, spec: EnsembleSpec) -> bool:
    """True iff ``n`` can be the class profile of a tree under ``spec``.

    Labeled trees need ``sum k n_k = 2N - 2``; plane trees need
    ``sum k n_k = N - 1``.  The total-count constraint holds by
    construction of CountVector.
    """
    if n.kind is not spec.kind:
        raise KindMismatch(
            f"count vector kind {n.kind.value} does not match spec {spec.kind.value}"
        )
    if len(n.counts) != spec.n_classes:
        raise ValueError(
            f"count vector has {len(n.counts)} classes, spec needs {spec.n_classes}"
        )
    return n.weighted_sum() == spec.kind.class_sum(n.N)


@dataclass(frozen=True, eq=False)
class FrequencyVector:
    """Real class-frequency vector; entries in [0, 1].

    Not necessarily on the manifold: empirical frequencies ``chi/N`` miss
    the mean constraint by exactly ``2/N`` (labeled) or ``1/N`` (plane).
    """

    kind: Kind
    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=np.float64, copy=True)
        if p.ndim != 1:
            raise ValueError("frequency vector must be one-dimensional")
        if np.any(p < -MANIFOLD_TOL) or np.any(p > 1.0 + 1e-9):
            raise ValueError("frequencies must lie in [0, 1]")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def k_min(self) -> int:
        return self.kind.k_min

    @property
    def D(self) -> int:
        return self.k_min + self.p.size - 1

    def classes(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_min + self.p.size)

    def mean_class(self) -> float:
        return float(self.classes() @ self.p)

    def mass(self) -> float:
        return float(self.p.sum())

    def l1(self, other: "FrequencyVector") -> float:
        return float(np.abs(self.p - other.p).sum())

    def on_manifold(self, tol: float = MANIFOLD_TOL) -> bool:
        return (
            abs(self.mass() - 1.0) <= tol
            and abs(self.mean_class() - self.kind.mean) <= tol
        )

    def require_on_manifold(self, tol: float = MANIFOLD_TOL) -> "FrequencyVector":
        if not self.on_manifold(tol):
            raise OffManifold(
                f"frequency vector off manifold: mass={self.mass()!r}, "
                f"mean={self.mean_class()!r} (target {float(self.kind.mean)})"
            )
        return self


def freq_from_counts(n: CountVector) -> FrequencyVector:
    """Empirical frequencies ``n / N``.  Requires N >= 1."""
    N = n.N
    if N < 1:
        raise ValueError("count vector is empty")
    return FrequencyVector(n.kind, n.as_array() / float(N))


def as_frequency(spec: EnsembleSpec, p) -> FrequencyVector:
    """Coerce an array-like (or pass through a FrequencyVector) for ``spec``."""
    fv = p if isinstance(p, FrequencyVector) else FrequencyVector(spec.kind, p)
    if fv.kind is not spec.kind:
        raise KindMismatch("frequency vector kind does not match spec")
    if fv.p.size != spec.n_classes:
        raise ValueError("frequency vector length does not match spec")
    return fv
