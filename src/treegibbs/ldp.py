"""Numerical verification of the LDP and LLN at finite N.

Everything here is an exact lattice computation (no Monte Carlo): ball and
tail probabilities are ratios of two log-sum-exps of the profiles' log
weights, both folded block by block over ``partition.lattice_blocks`` (the
whole lattice for ln Z_N, the ball or tail for the numerator), so memory
is bounded by the block size and time grows like the lattice, N^(D-2) for
labeled and N^(D-1) for plane profiles.  Finite-size rates
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

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import NEG_INF
from .ensembles import (
    CountVector,
    EnsembleSpec,
    FrequencyVector,
    as_frequency,
    freq_from_counts,
    is_feasible,
)
from .errors import NoFeasibleTree
from .partition import (
    integer_lattice,
    lattice_blocks,
    profile_log_weights,
    sample_profiles,
)
from .rate import RateContext, rate_value, solve_pstar


class _RunningLogSum:
    """ln sum e^v over arrays folded in one at a time.

    The sum is kept as ``total`` times e^``top``, ``top`` the largest value
    seen so far, and rescaled when a larger one arrives, so no term
    overflows and a sum far below another's scale keeps its digits.
    """

    def __init__(self) -> None:
        self.top = NEG_INF
        self.total = 0.0

    def add(self, values: np.ndarray) -> None:
        top = float(values.max()) if values.size else NEG_INF
        if top == NEG_INF:
            return
        if top > self.top:
            self.total *= math.exp(self.top - top)
            self.top = top
        self.total += float(np.exp(values - self.top).sum())


def _log_mass(spec: EnsembleSpec, N: int, center: np.ndarray, select) -> float:
    """ln P_N{select(|chi/N - center|_1)}, ``select`` mapping the distances
    of a block's profiles to a mask, streamed over ``lattice_blocks``.

    Raises NoFeasibleTree when no profile is feasible; -inf when none is
    selected.
    """
    s, c = _RunningLogSum(), _RunningLogSum()  # the selected profiles, the rest
    for block in lattice_blocks(spec.k_min, spec.D, N, spec.kind.class_sum(N)):
        lw = profile_log_weights(spec, N, block)
        chosen = select(np.abs(block / N - center).sum(axis=1))
        s.add(lw[chosen])
        c.add(lw[~chosen])
    if s.top == NEG_INF:
        if c.top == NEG_INF:
            raise NoFeasibleTree(
                f"no feasible {spec.kind.value} profile at N={N} with D={spec.D}"
            )
        return NEG_INF
    if c.top == NEG_INF:
        return 0.0
    # ln S - ln(S + C) = -ln(1 + C/S): exact to rounding whether the
    # selected mass is near 1 or tiny.  The tops are profile log weights, of
    # order N; their difference is taken first so that no rounding at that
    # scale enters the result.
    log_ratio = (c.top - s.top) + math.log(c.total / s.total)
    return -float(np.logaddexp(0.0, log_ratio))


def log_prob_ball(spec: EnsembleSpec, N: int, center, eps: float) -> float:
    """ln P_N{ |chi/N - center|_1 <= eps } over the closed l1 ball.

    The center may be any vector in [0,1]^K, on or off the manifold.
    Returns -inf when no feasible profile falls inside the ball.  The
    lattice is streamed, never held: memory stays within a few blocks of
    ``partition.LATTICE_BLOCK_BYTES`` at any N.
    """
    if not eps > 0:  # NaN fails too
        raise ValueError(f"eps must be positive, got {eps!r}")
    center_arr = as_frequency(spec, center).p
    return _log_mass(spec, N, center_arr, lambda dist: dist <= eps)


def finite_rate(spec: EnsembleSpec, N: int, p, eps: float) -> float:
    """Finite-size rate -(1/N) ln P(ball); +inf when the ball has no mass."""
    lp = log_prob_ball(spec, N, p, eps)
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
        lp = log_prob_ball(spec, N, target, eps)
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
    # never empty: the profile with all N vertices in class k_min + 1 is on M
    lattice = integer_lattice(spec.k_min, spec.D, N, manifold_total)
    dist = np.abs(lattice - counts[None, :]).sum(axis=1)
    best = dist.min()
    return [row.copy() for row in lattice[dist == best]]


def r_set(x, N: int, spec: EnsembleSpec) -> list[FrequencyVector]:
    """R(x) for x = n/N: manifold lattice points at minimal l1 distance.

    ``x`` may be a FrequencyVector or the profile counts themselves.
    """
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


def couple_samples(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> list[CouplingSample]:
    """Draw ``size`` coupled pairs: chi/N from the Gibbs measure, y uniformly
    from R(chi/N); R(x) is computed once per distinct profile."""
    profiles = sample_profiles(spec, N, size, rng)
    picks = rng.random(size)
    cache: dict[tuple[int, ...], list[np.ndarray]] = {}
    out = []
    for counts, u in zip(profiles, picks):
        n = CountVector(spec.kind, tuple(int(v) for v in counts))
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
) -> float:
    """Exact tail P_N{ |chi/N - p*|_1 > delta } by lattice summation.

    Streamed like ``log_prob_ball``; 0.0 when no feasible profile lies
    outside the ball.
    """
    if not delta > 0:  # NaN fails too
        raise ValueError(f"delta must be positive, got {delta!r}")
    if ctx is None:
        ctx = solve_pstar(spec)
    lp = _log_mass(spec, N, ctx.pstar.p, lambda dist: dist > delta)
    return 0.0 if lp == NEG_INF else math.exp(lp)
