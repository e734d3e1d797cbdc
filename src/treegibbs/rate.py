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

A brute-force lattice oracle (grid_minimize_J) cross-checks the tilt
solution by direct minimization over a fine grid on M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import log_factorials
from .ensembles import (
    EnsembleSpec,
    FrequencyVector,
    Kind,
    as_frequency,
)
from .errors import KindMismatch
from .partition import integer_lattice, tilt, tilt_probs, word_log_weights

#: Default ceiling on the points of M enumerated by the lattice oracle
#: (the lattice on M itself, not the free-coordinate box around it).
DEFAULT_MAX_GRID = 20_000_000


def _xlogx(v: np.ndarray) -> np.ndarray:
    """v ln v elementwise, 0 where v <= 0; one temporary of v's size."""
    mask = v > 0.0
    out = np.zeros_like(v)
    np.log(v, out=out, where=mask)
    np.multiply(out, v, out=out, where=mask)
    return out


def entropy(p) -> float:
    """Shannon entropy -sum p_k ln p_k with the 0 ln 0 = 0 convention."""
    arr = p.p if isinstance(p, FrequencyVector) else np.asarray(p, dtype=np.float64)
    if np.any(arr < -1e-12):
        raise ValueError("entropy needs nonnegative entries")
    return float(-_xlogx(np.clip(arr, 0.0, None)).sum())


def energy_mean(p, c) -> float:
    """Mean energy E(p) = sum p_k c(k)."""
    arr = p.p if isinstance(p, FrequencyVector) else np.asarray(p, dtype=np.float64)
    cv = np.asarray(c, dtype=np.float64)
    if arr.size != cv.size:
        raise ValueError("frequency and energy vectors differ in length")
    return float(arr @ cv)


def g_term(p: FrequencyVector) -> float:
    """Combinatorial term G(p) = sum p_k ln((k-1)!), labeled kind only.

    Identically zero when D <= 2 since ln 0! = ln 1! = 0.
    """
    if p.kind is not Kind.LABELED:
        raise KindMismatch("G(p) is only defined for labeled ensembles")
    return float(p.p @ log_factorials(p.classes() - 1))


def j_values(spec: EnsembleSpec, pmat: np.ndarray) -> np.ndarray:
    """Vectorized J over rows of ``pmat`` (no manifold checks)."""
    pmat = np.asarray(pmat, dtype=np.float64)
    single = pmat.ndim == 1
    if single:
        pmat = pmat[None, :]
    vals = (
        _xlogx(pmat).sum(axis=1)
        + spec.beta * (pmat @ spec.energies())
        + pmat @ word_log_weights(spec)
    )
    return vals[0] if single else vals


def J_value(p, spec: EnsembleSpec) -> float:
    """J(p) for an on-manifold frequency vector; raises OffManifold otherwise."""
    fv = as_frequency(spec, p)
    fv.require_on_manifold()
    return float(j_values(spec, fv.p))


def tilt_frequencies(x: float, spec: EnsembleSpec) -> FrequencyVector:
    """Normalized tilt member p_k(x) ~ w_k x^k; generally off-manifold."""
    if not x > 0:  # NaN fails too
        raise ValueError(f"tilt parameter must be positive, got {x!r}")
    return FrequencyVector(spec.kind, tilt_probs(spec, float(np.log(x))))


def tilt_mean(x: float, spec: EnsembleSpec) -> float:
    """Mean class under p(x); strictly increasing in x."""
    return tilt_frequencies(x, spec).mean_class()


@dataclass(frozen=True, eq=False)
class RateContext:
    """Solved minimizer: p*, J(p*), and the tilt parameter or boundary flag."""

    spec: EnsembleSpec
    pstar: FrequencyVector
    Jstar: float
    tilt_x: float | None
    boundary: bool
    stationarity_residual: float


def _stationarity_residual(spec: EnsembleSpec, p: np.ndarray) -> float:
    """Max deviation of ln p_k + beta c(k) + ln (k-1)! from an affine law in
    k, over the classes with p_k > 0 (underflowed classes have no logarithm);
    0 when fewer than two classes are positive."""
    pos = p > 0
    if pos.sum() < 2:
        return 0.0
    ks = spec.classes()[pos].astype(np.float64)
    y = (np.log(p[pos]) + spec.beta * spec.energies()[pos]
         + word_log_weights(spec)[pos])
    coef = np.polyfit(ks, y, 1)
    return float(np.abs(y - np.polyval(coef, ks)).max())


def solve_pstar(spec: EnsembleSpec) -> RateContext:
    """Minimize J over M via the tilt family.

    p* is the tilt member at the manifold mean (``partition.tilt``: ln x by
    bisection to a mean-class residual of 1e-13).  When the target mean is
    the bound itself (labeled D = 2, plane D = 1) the minimizer is the
    boundary point mass at class D and the boundary flag is set.
    """
    p, t = tilt(spec, spec.mean_target)
    boundary = t is None
    return RateContext(
        spec=spec,
        pstar=FrequencyVector(spec.kind, p),
        Jstar=float(j_values(spec, p)),
        tilt_x=None if boundary else float(np.exp(t)),
        boundary=boundary,
        stationarity_residual=float("nan") if boundary else _stationarity_residual(spec, p),
    )


def rate_value(p, ctx: RateContext) -> float:
    """I(p) = J(p) - J(p*); requires p on-manifold."""
    return J_value(p, ctx.spec) - ctx.Jstar


# ---------------------------------------------------------------------------
# manifold parameterization and the grid oracle

# M is parameterized by the free coordinates p_k for k >= k_min + 2; the two
# lowest classes follow from the constraints:
#   p_{k_min} = sum (k - k_min - 1) u_k,   p_{k_min+1} = 1 - sum (k - k_min) u_k


def free_classes(spec: EnsembleSpec) -> np.ndarray:
    return np.arange(spec.k_min + 2, spec.D + 1)


def _pinned_coefficients(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """d p_{k_min} / d u_k and d p_{k_min+1} / d u_k over the free classes."""
    shifted = (free_classes(spec) - spec.k_min).astype(np.float64)
    return shifted - 1.0, -shifted


def from_free_coordinates(spec: EnsembleSpec, u: np.ndarray) -> np.ndarray:
    """Manifold points from free coordinates; rows may have negative pinned
    entries when u leaves the feasible polytope."""
    u = np.asarray(u, dtype=np.float64)
    single = u.ndim == 1
    if single:
        u = u[None, :]
    a_low, a_next = _pinned_coefficients(spec)
    out = np.empty((u.shape[0], spec.n_classes))
    out[:, 0] = u @ a_low
    out[:, 1] = 1.0 + u @ a_next
    out[:, 2:] = u
    return out[0] if single else out


def j_free_gradient(spec: EnsembleSpec, p) -> np.ndarray:
    """Analytic gradient of J in the free-coordinate chart of M.

    Requires an interior point (all p_k > 0).  dJ/du_j collects the chain
    rule through the two pinned coordinates.
    """
    fv = as_frequency(spec, p)
    fv.require_on_manifold()
    arr = fv.p
    if np.any(arr <= 0.0):
        raise ValueError("gradient needs an interior point (all p_k > 0)")
    dJdp = np.log(arr) + 1.0 + spec.beta * spec.energies() + word_log_weights(spec)
    a_low, a_next = _pinned_coefficients(spec)
    return a_low * dJdp[0] + a_next * dJdp[1] + dJdp[2:]


def manifold_grid(
    spec: EnsembleSpec, resolution: int, *, max_points: int = DEFAULT_MAX_GRID
) -> np.ndarray:
    """Lattice of M at free-coordinate spacing 1/resolution.

    The points are the class profiles of ``resolution`` nodes at mean class
    ``spec.mean_target``, divided by ``resolution``; only points of M are
    enumerated.  Returns an (M, n_classes) float matrix whose rows come in
    ``integer_lattice`` order (``grid_minimize_J`` keeps the first of tied
    rows); raises LatticeTooLarge when the lattice on M exceeds
    ``max_points``.
    """
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    weighted_total = round(spec.mean_target * resolution)
    lattice = integer_lattice(
        spec.k_min, spec.D, resolution, weighted_total, max_points=max_points
    )
    return lattice / resolution


def grid_minimize_J(
    spec: EnsembleSpec, resolution: int, *, max_points: int = DEFAULT_MAX_GRID
) -> FrequencyVector:
    """Brute-force oracle for p*: best grid point of M at 1/resolution."""
    pts = manifold_grid(spec, resolution, max_points=max_points)
    vals = j_values(spec, pts)
    return FrequencyVector(spec.kind, pts[int(np.argmin(vals))])
