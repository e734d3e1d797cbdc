"""Numerical verification of the LDP and LLN at finite N.

Everything here is an exact lattice computation (no Monte Carlo): ball and
tail probabilities are ratios of two log-sum-exps of the profiles' log
weights (the ball or tail, and the rest), folded block by block over the
rows of ``partition.lattice_rows``, so memory is bounded by the block and
batch sizes.  By the LDP almost none of the lattice carries measurable
mass at finite N, so only the profiles within ``CUT_SLACK`` nats (and the
log of the lattice size) of the largest log weight are folded, and the
fold certifies that what it cut lies below the rounding of both sums
(``_log_mass``).  The log weight is concave along each row, so the kept
part of a row is one interval, found by bisection.  Time grows like the
kept profiles, about (N ln N)^(d/2) on a lattice of dimension d (D-2 for
labeled, D-1 for plane profiles), plus the N^(d-1) rows.  Finite-size rates
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

from .combinatorics import NEG_INF, log_factorial, log_factorials
from .ensembles import (
    CountVector,
    EnsembleSpec,
    FrequencyVector,
    Kind,
    as_frequency,
    freq_from_counts,
    is_feasible,
)
from .errors import NoFeasibleTree
from .partition import (
    LatticeRows,
    class_log_weights,
    integer_lattice,
    lattice_rows,
    profile_log_weights,
    sample_profiles,
)
from .rate import RateContext, rate_value, solve_pstar

#: Nats by which the profiles cut from a ball or tail sum stay below each
#: kept sum: e^-40 < 2^-57, under the rounding of a double.
CUT_SLACK = 40.0


class _RunningLogSum:
    """ln sum e^v over arrays folded in one at a time.

    The sum is kept as ``total`` times e^``top``, ``top`` the largest value
    seen so far, and rescaled when a larger one arrives, so no term
    overflows and a sum far below another's scale keeps its digits.
    """

    def __init__(self) -> None:
        self.top = NEG_INF
        self.total = 0.0

    def log(self) -> float:
        """ln of the sum; -inf while it is empty."""
        return self.top + math.log(self.total) if self.total else NEG_INF

    def add(self, values: np.ndarray) -> None:
        top = float(values.max()) if values.size else NEG_INF
        if top == NEG_INF:
            return
        if top > self.top:
            self.total *= math.exp(self.top - top)
            self.top = top
        self.total += float(np.exp(values - self.top).sum())


class _RowCut:
    """The profile log weights along the rows of one ``LatticeRows`` batch,
    their maxima, and the interval of each row where they are >= tau.

    Along a row m_0 and m_1 are affine in m_2, and ln Gamma(x + 1) is
    convex, so the log weight, const - sum ln m_k! + m . ``class_log_weights``,
    is discretely concave in m_2: its forward difference falls, and
    {lw >= tau} is one interval around the row's maximum.  Both are found by
    vectorized bisection over the rows of the batch.
    """

    def __init__(self, spec: EnsembleSpec, N: int, rows: LatticeRows) -> None:
        self.rows = rows
        a = np.zeros(max(spec.n_classes, 3))
        a[: spec.n_classes] = class_log_weights(spec)
        self.a = a
        const = log_factorial(N) + (
            log_factorial(N - 2) if spec.kind is Kind.LABELED else -math.log(N)
        )
        self.base = const - log_factorials(rows.upper).sum(axis=1) + rows.upper @ a[3:]
        # first m_2 whose forward difference is <= 0; never evaluated at hi,
        # where m_1 < 2
        step = a[0] - 2.0 * a[1] + a[2]

        def falls(m2, i):
            m0, m1 = rows.t[i] - rows.r[i] + m2, rows.r[i] - 2 * m2
            return np.log(m1 * (m1 - 1.0)) - np.log((m0 + 1.0) * (m2 + 1.0)) + step <= 0

        self.peak = _first(falls, rows.lo, rows.hi)
        self.top = self.log_weights(self.peak, slice(None))

    def log_weights(self, m2: np.ndarray, i) -> np.ndarray:
        """Log weights of the points m_2 = ``m2`` on rows ``i``: those of
        ``profile_log_weights``, to rounding."""
        t, r, a = self.rows.t[i], self.rows.r[i], self.a
        m0, m1 = t - r + m2, r - 2 * m2
        return (
            self.base[i] - log_factorials(m0) - log_factorials(m1) - log_factorials(m2)
            + a[0] * m0 + a[1] * m1 + a[2] * m2
        )

    def interval(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the ends (first, last) of {m_2 : lw >= tau}; a row whose
        maximum is below tau gets the empty interval (peak + 1, peak)."""
        rows, peak = self.rows, self.peak
        if tau == NEG_INF:
            return rows.lo, rows.hi
        first, last = peak + 1, peak.copy()
        sel = np.flatnonzero(self.top >= tau)
        first[sel] = _first(
            lambda m2, i: self.log_weights(m2, sel[i]) >= tau, rows.lo[sel], peak[sel]
        )
        last[sel] = _first(
            lambda m2, i: self.log_weights(m2, sel[i]) < tau, peak[sel] + 1, rows.hi[sel] + 1
        ) - 1
        return first, last


def _first(holds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row i, the least m in [lo[i], hi[i]] at which ``holds(m, i)``, a
    vectorized predicate that is false and then true along each row; it is
    taken to hold at hi[i], where it is never evaluated."""
    lo, hi = lo.copy(), hi.copy()
    idx = np.flatnonzero(lo < hi)
    while idx.size:
        mid = (lo[idx] + hi[idx]) // 2
        ok = holds(mid, idx)
        hi[idx] = np.where(ok, mid, hi[idx])
        lo[idx] = np.where(ok, lo[idx], mid + 1)
        idx = idx[lo[idx] < hi[idx]]
    return lo


def _log_mass(spec: EnsembleSpec, N: int, center: np.ndarray, select) -> float:
    """ln P_N{select(|chi/N - center|_1)}, ``select`` mapping the distances
    of a block's profiles to a mask.

    Only profiles whose log weight is at least tau are folded, tau =
    L - ln(lattice points) - ``CUT_SLACK``, L the largest profile log
    weight: three walks of ``lattice_rows`` find L, fold each row's interval
    above tau, and, if needed, fold the shell below it.  Every profile left
    out has log weight below tau, so the cut is certified when dropped e^tau
    <= e^-CUT_SLACK of both the selected sum S and the rest C.  If not, tau
    falls to min(ln S, ln C) - ln(dropped) - CUT_SLACK (-inf when a side is
    empty: the full fold), which certifies the sums that result.  The
    result is exact to rounding.

    Raises NoFeasibleTree when no profile is feasible; -inf when none is
    selected.
    """

    def cuts():
        for rows in lattice_rows(spec.k_min, spec.D, N, spec.kind.class_sum(N)):
            yield _RowCut(spec, N, rows)

    points, top = 0, NEG_INF
    for cut in cuts():
        points += cut.rows.size
        top = max(top, float(cut.top.max()))
    if not points:
        raise NoFeasibleTree(
            f"no feasible {spec.kind.value} profile at N={N} with D={spec.D}"
        )
    s, c = _RunningLogSum(), _RunningLogSum()  # the selected profiles, the rest
    dropped = points

    def fold(rows, first, last):
        nonlocal dropped
        dropped -= int(np.maximum(last - first + 1, 0).sum())
        for block in rows.points(first, last):
            lw = profile_log_weights(spec, N, block)
            dist = block / N
            dist -= center
            chosen = select(np.abs(dist, out=dist).sum(axis=1))
            s.add(lw[chosen])
            c.add(lw[~chosen])

    tau = top - math.log(points) - CUT_SLACK
    for cut in cuts():
        fold(cut.rows, *cut.interval(tau))
    floor = min(s.log(), c.log()) - CUT_SLACK
    if dropped and not math.log(dropped) + tau <= floor:
        low = floor - math.log(dropped) if floor > NEG_INF else NEG_INF
        for cut in cuts():
            first, last = cut.interval(tau)
            low_first, low_last = cut.interval(low)
            fold(cut.rows, low_first, first - 1)
            fold(cut.rows, last + 1, low_last)
    if s.top == NEG_INF:
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
    ``partition.LATTICE_BLOCK_BYTES`` and row batches of
    ``partition.ROW_BATCH_BYTES`` at any N.
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
