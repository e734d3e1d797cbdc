"""Domain types for Gibbs ensembles of degree-bounded trees.

Two ensemble kinds are supported:

* ``Kind.LABELED``: labeled trees on N vertices, every vertex degree in
  ``1..D``.  Vertex classes are degrees, the feasible degree sum is
  ``2N - 2`` and frequency vectors concentrate on the manifold
  ``{sum p_k = 1, sum k p_k = 2}``.
* ``Kind.PLANE``: rooted ordered trees, every branching (child count) in
  ``0..D``.  Classes are child counts, the feasible class sum is
  ``N - 1`` and the manifold constraint is ``sum k p_k = 1``.

A spec is an immutable value object.  A degree profile chi is an int64
array of ``n_classes`` counts and a frequency vector an array of as many
floats, class ``k_min`` first; each function that takes one checks it
where it enters (``frequency_array`` for frequencies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadEnergyTable, BoundTooSmall, KindMismatch

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
    wrong length or non-finite entries, or when some beta c(k) overflows,
    which keeps every class weight finite.  beta may have either sign but
    must be finite.
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
    if not all(math.isfinite(spec.beta * v) for v in spec.c):
        raise BadEnergyTable(f"beta * c(k) overflows at beta={spec.beta!r}")
    return spec


def frequency_array(spec: EnsembleSpec, p) -> np.ndarray:
    """``p`` as a fresh float64 array of class frequencies for ``spec``.

    Raises ValueError unless ``p`` has one entry per class, each in
    [-MANIFOLD_TOL, 1 + 1e-9].  The point need not lie on the manifold:
    empirical frequencies ``chi/N`` miss the mean constraint by exactly
    ``2/N`` (labeled) or ``1/N`` (plane).
    """
    p = np.array(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("frequency vector must be one-dimensional")
    if not np.all((p >= -MANIFOLD_TOL) & (p <= 1.0 + 1e-9)):  # NaN fails too
        raise ValueError("frequencies must lie in [0, 1]")
    if p.size != spec.n_classes:
        raise ValueError("frequency vector length does not match spec")
    return p
