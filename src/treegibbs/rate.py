"""The explicit rate function and its minimizer.

On the constrained manifold M (probability vectors with mean class 2 for
labeled trees, 1 for plane trees) define

    J(p) = -h(p) + beta * E(p) + G(p)        (labeled)
    J(p) = -h(p) + beta * E(p)               (plane)

with entropy h(p) = -sum p_k ln p_k, mean energy E(p) = sum p_k c(k), and
the combinatorial term G(p) = sum p_k ln((k-1)!) that only labeled trees
carry.  J is strictly convex on M, so it has a unique minimizer p*, and the
rate function is I(p) = J(p) - J(p*).

p* is found through the exponential tilt family p_k(x) ~ w_k x^k with
w_k = exp(-beta c(k)) / (k-1)! (labeled) or exp(-beta c(k)) (plane): the
stationarity conditions of J under the two linear constraints are solved
exactly by some member of this family, and the mean class is strictly
increasing in x, so the constraint reduces to monotone one-dimensional
root finding in ln x.  When the target mean sits on the closed end of the
achievable range (labeled D = 2, plane D = 1, where M degenerates to a
single point) the minimizer is the boundary vertex of M and the context
carries a boundary flag instead of a tilt parameter.

The rate grid is the lattice of M at free-coordinate spacing
1/resolution: the class profiles of ``resolution`` nodes on M, divided by
``resolution``.  ``grid_inf_rate`` gives the ``inf_I`` column of ``lln``
from it at ``GRID_RESOLUTION`` in one walk of ``partition.lattice_rows``,
in (row, m_2) blocks within ``partition.LATTICE_BYTES``: it builds the
profiles of the points farther than delta from p* alone.  ``manifold_grid``
materializes the grid, under ``partition.MAX_LATTICE_BYTES``; no command
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import MANIFOLD_TOL, EnsembleSpec, frequency_array
from .errors import OffManifold
from .partition import integer_lattice, lattice_rows, tilt, word_log_weights

#: Free-coordinate spacing 1/GRID_RESOLUTION of the rate grid behind the
#: ``inf_I`` column of ``lln``.
GRID_RESOLUTION = 1000


def _xlogx(v: np.ndarray) -> np.ndarray:
    """v ln v elementwise, 0 where v <= 0; one temporary of v's size."""
    mask = v > 0.0
    out = np.zeros_like(v)
    np.log(v, out=out, where=mask)
    np.multiply(out, v, out=out, where=mask)
    return out


def j_values(spec: EnsembleSpec, pmat: np.ndarray) -> np.ndarray:
    """Vectorized J over rows of ``pmat`` (no manifold checks); a row's value
    depends on it alone (BLAS would round it by its place in ``pmat``)."""
    pmat = np.asarray(pmat, dtype=np.float64)
    single = pmat.ndim == 1
    if single:
        pmat = pmat[None, :]
    vals = (
        _xlogx(pmat).sum(axis=1)
        + spec.beta * np.einsum("ij,j->i", pmat, spec.energies())
        + np.einsum("ij,j->i", pmat, word_log_weights(spec))
    )
    return vals[0] if single else vals


def manifold_point(spec: EnsembleSpec, p) -> np.ndarray:
    """``frequency_array(spec, p)``, which must lie on M within
    ``MANIFOLD_TOL``; raises OffManifold otherwise."""
    p = frequency_array(spec, p)
    mass, mean = float(p.sum()), float(spec.classes() @ p)
    if not (abs(mass - 1.0) <= MANIFOLD_TOL and abs(mean - spec.kind.mean) <= MANIFOLD_TOL):
        raise OffManifold(
            f"frequency vector off manifold: mass={mass!r}, "
            f"mean={mean!r} (target {spec.mean_target})"
        )
    return p


def J_value(p, spec: EnsembleSpec) -> float:
    """J(p) for an on-manifold frequency vector; raises OffManifold otherwise."""
    return float(j_values(spec, manifold_point(spec, p)))


@dataclass(frozen=True, eq=False)
class RateContext:
    """Solved minimizer: p* (a read-only array), J(p*), and the tilt
    parameter, None at a boundary minimizer."""

    spec: EnsembleSpec
    pstar: np.ndarray
    Jstar: float
    tilt_x: float | None
    stationarity_residual: float

    @property
    def boundary(self) -> bool:
        return self.tilt_x is None


def _stationarity_residual(spec: EnsembleSpec, p: np.ndarray) -> float:
    """Max deviation of ln p_k + beta c(k) + ln (k-1)! from its least-squares
    line in k, over the classes with p_k > 0 (underflowed classes have no
    logarithm); 0 when fewer than two classes are positive.  The line is
    fitted in closed form about the mean class, without LAPACK."""
    pos = p > 0
    if pos.sum() < 2:
        return 0.0
    ks = spec.classes()[pos].astype(np.float64)
    y = (np.log(p[pos]) + spec.beta * spec.energies()[pos]
         + word_log_weights(spec)[pos])
    ks -= ks.mean()
    y -= y.mean()
    slope = (ks * y).sum() / (ks * ks).sum()
    return float(np.abs(y - slope * ks).max())


def solve_pstar(spec: EnsembleSpec) -> RateContext:
    """Minimize J over M via the tilt family.

    p* is the tilt member at the manifold mean (``partition.tilt``: ln x by
    bisection to a mean-class residual of 1e-13).  When the target mean is
    the bound itself (labeled D = 2, plane D = 1) the minimizer is the
    boundary point mass at class D and ``tilt_x`` is None (``boundary``).
    """
    p, t = tilt(spec, spec.mean_target)
    p.setflags(write=False)
    return RateContext(
        spec=spec,
        pstar=p,
        Jstar=float(j_values(spec, p)),
        tilt_x=None if t is None else float(np.exp(t)),
        stationarity_residual=float("nan") if t is None else _stationarity_residual(spec, p),
    )


def rate_value(p, ctx: RateContext) -> float:
    """I(p) = J(p) - J(p*); requires p on-manifold."""
    return J_value(p, ctx.spec) - ctx.Jstar


# ---------------------------------------------------------------------------
# the rate grid


def manifold_grid(spec: EnsembleSpec, resolution: int) -> np.ndarray:
    """Lattice of M at free-coordinate spacing 1/resolution, materialized.

    Only points of M are enumerated.  Returns an (M, n_classes) float matrix
    whose rows come in ``partition.integer_lattice`` order, the order in
    which ``grid_inf_rate`` walks them; raises LatticeTooLarge when the
    int64 lattice passes ``partition.MAX_LATTICE_BYTES``.
    """
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    total = spec.kind.manifold_total(resolution)
    return integer_lattice(spec.k_min, spec.D, resolution, total) / resolution


def grid_inf_rate(ctx: RateContext, delta: float) -> float:
    """inf I over the points of the rate grid at ``GRID_RESOLUTION`` farther
    than ``delta`` (l1) from p*; +inf when there are none."""
    spec, r, best = ctx.spec, GRID_RESOLUTION, np.inf
    ncls, total = spec.n_classes, spec.kind.manifold_total(GRID_RESOLUTION)
    # a row: its ncls + 1 columns, the four of pairs; a point: its pair, its
    # distance and two temporaries, its profile, grid point and J temporary
    for rows in lattice_rows(spec.k_min, spec.D, r, total, 8 * (ncls + 5)):
        for i, m2 in rows.pairs(rows.lo, rows.hi, 8 * (3 * ncls + 5)):
            far = rows.distance(i, m2, ctx.pstar, r) > delta
            if far.any():
                best = min(best, float(j_values(spec, rows.profiles(i[far], m2[far]) / r).min()))
            del i, m2, far  # freed before the next block is built
        del rows  # freed before the walk builds the next batch
    return best - ctx.Jstar
