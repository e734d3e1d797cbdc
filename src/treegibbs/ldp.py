"""Numerical verification of the LDP and LLN at finite N.

Everything here is an exact lattice computation (no Monte Carlo): ball and
tail probabilities are log-sum-exp reductions of exact profile
probabilities over the feasible lattice, and finite-size rates
``r_N = -(1/N) ln P(ball)`` are compared against the rate function.  The
expected discrepancy decays like O(ln N / N) plus an O(eps) smearing from
the ball radius.

The coupling construction pairs the off-manifold empirical vector
``x = chi/N`` with an on-manifold lattice point ``y = m/N`` drawn uniformly
from the set R(x) of manifold lattice points at minimal l1 distance from x.
For labeled ensembles with D >= 3 that distance is exactly 2/N (move one
vertex up two classes); integer-lattice parity forces 2/N for plane
ensembles as well, and for labeled D = 2 the manifold is a single point at
distance 4/N.  The set size always satisfies 1 <= |R(x)| <= D^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import NEG_INF, log_sum
from .ensembles import (
    CountVector,
    EnsembleSpec,
    FrequencyVector,
    as_frequency,
    freq_from_counts,
    is_feasible,
    validate_spec,
)
from .errors import NoFeasibleTree
from .partition import (
    DEFAULT_MAX_PROFILES,
    DpTable,
    build_dp,
    exact_chi_law,
    integer_lattice,
    profile_of_classes,
    sample_class_sequences,
)
from .rate import RateContext, rate_value, solve_pstar


def log_prob_ball(
    spec: EnsembleSpec,
    N: int,
    center,
    eps: float,
    *,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> float:
    """ln P_N{ |chi/N - center|_1 <= eps } over the closed l1 ball.

    The center may be any vector in [0,1]^K, on or off the manifold.
    Returns -inf when no feasible profile falls inside the ball.
    """
    validate_spec(spec)
    if eps <= 0:
        raise ValueError("eps must be positive")
    center_arr = as_frequency(spec, center).p
    law = exact_chi_law(spec, N, max_profiles=max_profiles)
    dist = np.abs(law.profiles / N - center_arr[None, :]).sum(axis=1)
    inside = dist <= eps
    if not inside.any():
        return NEG_INF
    return log_sum(law.logp[inside])


def finite_rate(spec: EnsembleSpec, N: int, p, eps: float, **kwargs) -> float:
    """Finite-size rate -(1/N) ln P(ball); +inf when the ball has no mass."""
    lp = log_prob_ball(spec, N, p, eps, **kwargs)
    if lp == NEG_INF:
        return float("inf")
    return -lp / N


@dataclass(frozen=True, eq=False)
class RateTableRow:
    """One convergence-table row: exact ball mass against the rate function."""

    N: int
    eps: float
    target: FrequencyVector
    log_prob: float
    rate: float
    rate_limit: float  # I(target)
    gap: float  # rate - I(target)


def convergence_table(
    spec: EnsembleSpec,
    n_values,
    p,
    eps: float,
    *,
    ctx: RateContext | None = None,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> list[RateTableRow]:
    """Exact finite-N rates at a fixed on-manifold target for increasing N."""
    n_values = [int(v) for v in n_values]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("N values must be strictly increasing")
    if ctx is None:
        ctx = solve_pstar(spec)
    target = as_frequency(spec, p)
    limit = rate_value(target, ctx)
    rows = []
    for N in n_values:
        lp = log_prob_ball(spec, N, target, eps, max_profiles=max_profiles)
        rate = float("inf") if lp == NEG_INF else -lp / N
        rows.append(
            RateTableRow(
                N=N,
                eps=eps,
                target=target,
                log_prob=lp,
                rate=rate,
                rate_limit=limit,
                gap=rate - limit,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# coupling


def r_set_counts(n: CountVector, spec: EnsembleSpec) -> list[np.ndarray]:
    """Integer numerators m of the minimal-distance manifold lattice set R(n/N).

    The manifold lattice at denominator N consists of integer vectors m >= 0
    with ``sum m = N`` and ``sum k m_k`` equal to 2N (labeled) or N (plane).
    A feasible profile n misses the weighted total by g = 2 (labeled) or 1
    (plane), so candidates at l1 distance 2/N are single-unit transfers from
    class b to class b + g; when none exists (labeled D = 2) the search
    falls back to the full manifold lattice.
    """
    if not is_feasible(n, spec):
        raise ValueError("r_set needs a feasible profile")
    N = n.N
    counts = n.as_array()
    manifold_total = spec.kind.manifold_total(N)
    gap = manifold_total - spec.kind.class_sum(N)
    moves = []
    n_classes = spec.n_classes
    for b in range(n_classes - gap):
        if counts[b] >= 1:
            m = counts.copy()
            m[b] -= 1
            m[b + gap] += 1
            moves.append(m)
    if moves:
        return moves
    lattice = integer_lattice(spec.k_min, spec.D, N, manifold_total)
    if lattice.shape[0] == 0:
        raise NoFeasibleTree("manifold lattice is empty")
    dist = np.abs(lattice - counts[None, :]).sum(axis=1)
    best = dist.min()
    return [row.copy() for row in lattice[dist == best]]


def r_set(x, N: int, spec: EnsembleSpec) -> list[FrequencyVector]:
    """R(x) for x = n/N: manifold lattice points at minimal l1 distance.

    ``x`` may be a FrequencyVector or the profile counts themselves.
    """
    validate_spec(spec)
    if isinstance(x, CountVector):
        n = x
    else:
        arr = as_frequency(spec, x).p * N
        rounded = np.rint(arr)
        if np.abs(arr - rounded).max() > 1e-6:
            raise ValueError("x must be a lattice point n/N")
        n = CountVector(spec.kind, tuple(int(v) for v in rounded))
    members = r_set_counts(n, spec)
    members.sort(key=lambda m: tuple(m))
    return [FrequencyVector(spec.kind, m / float(N)) for m in members]


@dataclass(frozen=True, eq=False)
class CouplingSample:
    """One draw of the coupled pair (x, y) = (chi/N, nearest manifold point)."""

    spec: EnsembleSpec
    N: int
    x_counts: CountVector
    y_counts: tuple[int, ...]
    distance: float
    r_size: int

    @property
    def x(self) -> FrequencyVector:
        return freq_from_counts(self.x_counts)

    @property
    def y(self) -> FrequencyVector:
        return FrequencyVector(
            self.spec.kind, np.asarray(self.y_counts, dtype=np.float64) / self.N
        )


def couple_sample(
    spec: EnsembleSpec, N: int, rng: np.random.Generator, dp: DpTable | None = None
) -> CouplingSample:
    """Draw chi/N from the Gibbs measure and y uniformly from R(chi/N)."""
    validate_spec(spec)
    if dp is None:
        dp = build_dp(spec, N)
    classes = sample_class_sequences(dp, 1, rng)[0]
    n = profile_of_classes(spec, classes)
    members = r_set_counts(n, spec)
    members.sort(key=lambda m: tuple(m))
    pick = members[int(rng.integers(len(members)))]
    dist = int(np.abs(pick - n.as_array()).sum())
    return CouplingSample(
        spec=spec,
        N=N,
        x_counts=n,
        y_counts=tuple(int(v) for v in pick),
        distance=dist / N,
        r_size=len(members),
    )


def couple_samples(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> list[CouplingSample]:
    """Batch coupling draws sharing one DP table and R(x) cache."""
    validate_spec(spec)
    dp = build_dp(spec, N)
    rows = sample_class_sequences(dp, size, rng)
    picks = rng.random(size)
    cache: dict[tuple[int, ...], list[np.ndarray]] = {}
    out = []
    for row, u in zip(rows, picks):
        n = profile_of_classes(spec, row)
        members = cache.get(n.counts)
        if members is None:
            members = r_set_counts(n, spec)
            members.sort(key=lambda m: tuple(m))
            cache[n.counts] = members
        pick = members[min(int(u * len(members)), len(members) - 1)]
        dist = int(np.abs(pick - n.as_array()).sum())
        out.append(
            CouplingSample(
                spec=spec,
                N=N,
                x_counts=n,
                y_counts=tuple(int(v) for v in pick),
                distance=dist / N,
                r_size=len(members),
            )
        )
    return out


# ---------------------------------------------------------------------------
# law of large numbers


def lln_tail(
    spec: EnsembleSpec,
    N: int,
    delta: float,
    *,
    ctx: RateContext | None = None,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> float:
    """Exact tail P_N{ |chi/N - p*|_1 > delta } by lattice summation."""
    validate_spec(spec)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if ctx is None:
        ctx = solve_pstar(spec)
    law = exact_chi_law(spec, N, max_profiles=max_profiles)
    dist = np.abs(law.profiles / N - ctx.pstar.p[None, :]).sum(axis=1)
    outside = dist > delta
    if not outside.any():
        return 0.0
    return float(np.exp(log_sum(law.logp[outside])))
