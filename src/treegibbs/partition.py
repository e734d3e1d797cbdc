"""Exact partition functions, profile laws, and degree-sequence sampling.

Writing ``w_k`` for the per-vertex Gibbs weight of class k,

* labeled:  ``w_k = exp(-beta c(k)) / (k-1)!``  (the factorial absorbs the
  word-multiplicity of the degree in the underlying code),
* plane:    ``w_k = exp(-beta c(k))``,

Z_N sums ``prod_i w_{k_i}`` over all class sequences with the feasible class
sum.  Classes are stored shifted by their minimum (degree-1 for labeled), so
the feasible shifted class sum (the budget) is ``N-2`` for labeled trees
(degree sum 2N-2) and ``N-1`` for plane trees.

The feasible profiles form an integer lattice of dimension K-2 (K the
number of classes).  ``lattice_rows`` walks it in batches of rows, on each
of which the classes above 2 are fixed and m_2 runs over an interval, and
every consumer reads the points as blocks of (row, m_2) of
``LatticeRows.pairs``, with their l1 distance to a center (``distance``)
and the ``profiles`` of those it needs, a batch and a block holding at most
``LATTICE_BYTES`` at the bytes per row and point that the caller states.
By the LDP almost none of the lattice carries measurable mass at finite N.
``ProfileCut`` keeps each row's interval within ``CUT_SLACK`` nats and
ln(points) of the largest log weight, and every exact sum over the lattice
folds only that, scoring each (row, m_2) in closed form: ln Z_N
(``log_partition_value``), the ball and tail masses behind ``ldp``
(``log_mass``, which certifies the cut against both of its sums and widens
it when it must), the law of chi (``log_prob_profile``) and the draw of
rare-class profiles (``_sample_cut``), each after ``check_log_weights``
refuses log weights that overflow at N.  ``integer_lattice`` builds all
the profiles into one matrix under ``MAX_LATTICE_BYTES``; no command calls it.

``build_dp``, which no library path calls, keeps the per-vertex dynamic
program as the tests' independent reference: ``W[i][s]`` is the log weight
of the length-i class words with shifted class sum s, and ln Z_N is
``W[N][N-2] + ln (N-2)!`` (labeled) or ``W[N][N-1] - ln N`` (plane).

Sampling needs no table.  Under Multinomial(N, q) at the tilt q_k ~ w_k x^k
(``tilt``) a profile n weighs its Gibbs weight times x^S, S its class sum,
so conditioning on S = budget leaves the Gibbs law of chi at any x
(Devroye, "Simulating size-constrained Galton-Watson trees", SIAM J.
Comput. 41(1), 2012).  ``sample_profiles`` draws at the x whose mean class
is budget/N and keeps the proposals that hit the budget, or, when hardly
any do, draws by inverse CDF over the row cut, exact up to the
e^-CUT_SLACK of mass that it drops, and holds at most ``LATTICE_BYTES`` of
int64 beside its result.  ``sample_class_sequences`` lays some of those
profiles out as class rows and permutes each uniformly; the tree samplers
call it on one row group at a time, as the group is taken.

Randomness contract: every sampler takes a ``numpy.random.Generator``, and
``rng_stream(seed, block)`` derives independent, reproducible streams from
a 64-bit seed and a block index, so all draws are determined by
``(seed, block, draw index)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import NEG_INF, log_factorial, log_factorials
from .ensembles import EnsembleSpec, Kind
from .errors import BadEnergyTable, LatticeTooLarge, NoFeasibleTree, SumMismatch

#: Ceiling on what one batch of ``lattice_rows`` and one block of its points
#: hold at once, temporaries included: 1 MB, half for each, at the bytes per
#: row and per point that the caller states.
LATTICE_BYTES = 2**20

#: Ceiling on the bytes of the int64 matrix that ``integer_lattice``
#: materializes for ``enumerate_profiles`` and ``rate.manifold_grid``:
#: 256 MB.  The streamed sums and the rate grid of the commands have no cap.
MAX_LATTICE_BYTES = 2**28

#: Ceiling on the cells (rows times classes) of one batch of proposals in
#: ``sample_profiles``.  It shapes the stream, not the memory: a batch is
#: drawn and filtered in chunks of ``LATTICE_BYTES``.
PROPOSAL_CELLS = 2**22

#: Proposals per kept profile past which ``sample_profiles`` stops rejecting
#: and draws from the row cut of the profile lattice.
MAX_PROPOSALS_PER_HIT = 2**16

_TILT_TOL = 1e-13
_TILT_MAX_ITER = 200
_BRACKET = 60.0


def rng_stream(seed: int, block: int = 0) -> np.random.Generator:
    """Deterministic 64-bit seeded stream, split by block index ``block``.

    Streams for distinct ``block`` values are statistically independent;
    the pair ``(seed, block)`` fully determines the stream.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(int(block),)))
    )


def shifted_budget(spec: EnsembleSpec, N: int) -> int:
    """Shifted class-sum budget: N-2 for labeled trees, N-1 for plane trees.

    Raises NoFeasibleTree (exit 3 in the CLI) below the smallest tree.
    """
    budget = spec.kind.class_sum(N) - spec.k_min * N
    if budget < 0:
        raise NoFeasibleTree(
            f"no {spec.kind.value} tree on {N} vertices: "
            f"{spec.kind.value} ensembles need N >= {spec.k_min + 1}"
        )
    return budget


def check_log_weights(spec: EnsembleSpec, N: int) -> None:
    """Raise BadEnergyTable when a profile log weight, up to
    N * |beta| * max |c(k)| in size, or the energy sum chi . c behind it,
    overflows at N."""
    if not math.isfinite(N * max(map(abs, spec.c)) * max(1.0, abs(spec.beta))):
        raise BadEnergyTable(f"profile log weights overflow at N={N}, beta={spec.beta!r}")


def word_log_weights(spec: EnsembleSpec) -> np.ndarray:
    """ln (k-1)! per class for labeled trees, zero for plane trees.

    A labeled vertex of degree k fills k - 1 places of the tree's word, and
    the number of such words divides by (k-1)! per vertex; plane trees carry
    no such factor.  Indexed by shifted class.
    """
    if spec.kind is Kind.LABELED:
        return log_factorials(spec.classes() - 1)
    return np.zeros(spec.n_classes)


def class_log_weights(spec: EnsembleSpec) -> np.ndarray:
    """Per-class log Gibbs weights ln w_k = -beta c(k) - ln (k-1)! (the
    factorial for labeled trees only), indexed by shifted class."""
    return -spec.beta * spec.energies() - word_log_weights(spec)


def tilt_probs(spec: EnsembleSpec, log_x: float) -> np.ndarray:
    """The tilt member q_k ~ w_k x^k at ln x = ``log_x``, normalized."""
    lp = class_log_weights(spec) + spec.classes() * log_x
    lp -= lp.max()
    p = np.exp(lp)
    return p / p.sum()


def tilt(spec: EnsembleSpec, mean: float) -> tuple[np.ndarray, float | None]:
    """The tilt member whose mean class is ``mean``, and its ln x.

    The mean class is strictly increasing in x, so ln x is found by
    bisection on [-60, 60] (expanded geometrically when needed) until the
    mean residual drops below 1e-13.  At the ends of the class range
    (``mean`` at k_min or at D) the member is the point mass there, a limit
    of the family rather than a member, and ln x is None.
    """
    if mean <= spec.k_min or mean >= spec.D:
        q = np.zeros(spec.n_classes)
        q[0 if mean <= spec.k_min else -1] = 1.0
        return q, None

    def mean_at(t: float) -> float:
        return float(spec.classes() @ tilt_probs(spec, t))

    lo, hi = -_BRACKET, _BRACKET
    for _ in range(60):
        if mean_at(lo) < mean:
            break
        lo *= 2.0
    for _ in range(60):
        if mean_at(hi) > mean:
            break
        hi *= 2.0

    t = 0.5 * (lo + hi)
    for _ in range(_TILT_MAX_ITER):
        t = 0.5 * (lo + hi)
        mu = mean_at(t)
        if abs(mu - mean) <= _TILT_TOL:
            break
        if mu < mean:
            lo = t
        else:
            hi = t
    return tilt_probs(spec, t), t


@dataclass(frozen=True, eq=False)
class DpTable:
    """Immutable forward DP table over (vertices processed, budget consumed).

    ``W[i, s]`` is the log-weight of all length-i class words with shifted
    class sum s; ``W[0, 0] = 0`` and ``W[0, s>0] = -inf``.
    """

    n_vertices: int
    budget: int
    W: np.ndarray

    @property
    def log_final(self) -> float:
        return float(self.W[self.n_vertices, self.budget])


def build_dp(spec: EnsembleSpec, N: int) -> DpTable:
    """Build the forward table in O(D * N * budget) time, O(N * budget) space."""
    budget = shifted_budget(spec, N)
    logw = class_log_weights(spec)
    W = np.full((N + 1, budget + 1), NEG_INF)
    W[0, 0] = 0.0
    shifted = np.empty(budget + 1)
    for i in range(1, N + 1):
        for k in range(min(logw.size - 1, budget) + 1):
            shifted[:k] = NEG_INF
            shifted[k:] = W[i - 1, : budget + 1 - k] + logw[k]
            np.logaddexp(W[i], shifted, out=W[i])
    W.setflags(write=False)
    return DpTable(n_vertices=N, budget=budget, W=W)


def profile_log_weights(spec: EnsembleSpec, N: int, profiles: np.ndarray) -> np.ndarray:
    """Unnormalized log-mass ln(count(n) e^{-beta H(n)}) per profile row.

    ``profiles`` is an (M, n_classes) integer matrix of class counts; rows
    are assumed feasible.  Subtracting ln Z_N yields exact log-probabilities.
    """
    profiles = np.asarray(profiles, dtype=np.int64)
    lnc = log_factorial(N) - log_factorials(profiles).sum(axis=1)
    gibbs = -spec.beta * (profiles @ spec.energies())
    if spec.kind is Kind.LABELED:
        word = log_factorial(N - 2) - profiles @ word_log_weights(spec)
        return lnc + word + gibbs
    return lnc - np.log(N) + gibbs


def log_prob_profile(spec: EnsembleSpec, N: int, n, log_z=None) -> float:
    """Exact ln P_N{chi = n} for the profile ``n``, ``n_classes`` integer
    counts with class ``k_min`` first, against ``log_z`` when given and
    otherwise ``log_partition_value``; -inf for a profile whose class sum
    no tree has.

    Raises ValueError when ``n`` has the wrong shape or a negative count and
    SumMismatch when it does not account for all N vertices.
    """
    n = np.array(n, dtype=np.int64)
    if n.ndim != 1:
        raise ValueError("count vector must be one-dimensional")
    if n.size != spec.n_classes:
        raise ValueError(f"count vector has {n.size} classes, spec needs {spec.n_classes}")
    counts = n.tolist()  # Python ints: the sums below are exact
    if min(counts) < 0:
        raise ValueError("counts must be nonnegative")
    if sum(counts) != N:
        raise SumMismatch(f"profile sums to {sum(counts)}, expected {N}")
    if sum(k * v for k, v in enumerate(counts, spec.k_min)) != spec.kind.class_sum(N):
        return NEG_INF
    lw = profile_log_weights(spec, N, n[None, :])[0]
    return float(lw - (log_partition_value(spec, N) if log_z is None else log_z))


@dataclass(frozen=True, eq=False)
class LatticeRows:
    """One batch of rows of the profile lattice (see ``lattice_rows``).

    On row i the shifted classes j >= 3 hold ``upper[i]`` (class 3 first),
    m_2 runs over ``lo[i]..hi[i]``, and m_1 = r[i] - 2 m_2 and
    m_0 = t[i] - r[i] + m_2 follow from the two constraints.  Lattices of
    one or two classes have at most one point, a row with m_2 (and m_1 for
    one class) pinned to 0.
    """

    ncls: int
    upper: np.ndarray
    t: np.ndarray
    r: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def size(self) -> int:
        """Lattice points on the rows."""
        return int((self.hi - self.lo + 1).sum())

    def pairs(self, a: np.ndarray, b: np.ndarray, point_bytes: int):
        """Yield the points with a[i] <= m_2 <= b[i] on each row i (none
        where b[i] < a[i]), row by row with m_2 ascending, as blocks of row
        indices i and m_2 values, each of at most LATTICE_BYTES / 2 at the
        caller's ``point_bytes`` per point."""
        size = max(1, LATTICE_BYTES // (2 * point_bytes))
        counts = np.maximum(b - a + 1, 0)
        ends = np.cumsum(counts)
        starts = ends - counts
        offset = starts - a  # m_2 = (point index in the batch) - offset[row]
        for start in range(0, int(ends[-1]), size):
            stop = min(start + size, int(ends[-1]))
            # the rows of points start..stop-1, and their points in it
            r0, r1 = np.searchsorted(ends, (start, stop - 1), side="right")
            n = np.minimum(ends[r0 : r1 + 1], stop) - np.maximum(starts[r0 : r1 + 1], start)
            i = np.repeat(np.arange(r0, r1 + 1), n)
            yield i, np.arange(start, stop, dtype=np.int64) - offset[i]

    def columns(self, i, m2: np.ndarray):
        """m_0, m_1 and m_2 of the points m_2 = ``m2`` on rows ``i``."""
        t, r = self.t[i], self.r[i]
        return t - r + m2, r - 2 * m2, m2

    def profiles(self, i: np.ndarray, m2: np.ndarray) -> np.ndarray:
        """The (m2.size, ncls) int64 profiles of the points m_2 = ``m2`` on
        rows ``i``."""
        block = np.empty((m2.size, self.ncls), dtype=np.int64)
        for k, col in enumerate(self.columns(i, m2)[: self.ncls]):
            block[:, k] = col
        block[:, 3:] = self.upper[i]
        return block

    def distance(self, i: np.ndarray, m2: np.ndarray, center: np.ndarray, scale) -> np.ndarray:
        """|m/scale - center|_1 of the ``profiles`` m, summed in class order:
        below 8 classes that of ``ndarray.sum(axis=1)`` over their rows."""
        dist = np.zeros(m2.size)
        for k, m in enumerate(self.columns(i, m2)[: self.ncls]):
            dist += np.abs(m / scale - center[k])
        for k in range(3, self.ncls):
            dist += np.abs(self.upper[i, k - 3] / scale - center[k])
        return dist


def _leaves(j: int, total: int, r: int, suffix: tuple):
    """Depth-first over the shifted classes j, j-1, ..., 4 with m_j
    ascending, each node's children made as the walk reaches them: per leaf,
    the vertices and shifted class sum left for the classes <= 3, and the
    counts (m_{K-1}, ..., m_4) that lead to it."""
    if j <= 3:
        yield total, r, suffix
        return
    for m in range(min(total, r // j) + 1):
        yield from _leaves(j - 1, total - m, r - j * m, suffix + (m,))


def lattice_rows(
    k_min: int, k_max: int, total: int, weighted_total: int, row_bytes: int | None = None
):
    """Yield the rows of the lattice of integer m >= 0 over classes
    k_min..k_max with ``sum m = total`` and ``sum k m_k = weighted_total``
    in batches (``LatticeRows``) of at most LATTICE_BYTES / 2 at the
    ``row_bytes`` that the caller holds per row (by default a row's own
    ncls + 1 columns), empty rows left out.

    Writing j for the shifted class k - k_min, the walk is depth-first over
    the classes j >= 4 (``_leaves``); each of its leaves is a range of rows,
    one per m_3, built in pieces that fill the batch and no more.  Rows come
    in ascending lexicographic order of (m_{K-1}, ..., m_3), K the number of
    classes.  Besides the batch, the walk holds its rows' pieces and one
    node per class.
    """
    ncls = k_max - k_min + 1
    R = weighted_total - k_min * total  # shifted weighted sum
    if total < 0 or R < 0:
        return
    cap = max(1, LATTICE_BYTES // (2 * (row_bytes or 8 * (ncls + 1))))
    parts: list[tuple] = []
    count = 0
    for rem_total, rem_r, suffix in _leaves(ncls - 1, total, R, ()):
        # With three classes or fewer m_3 is absent, and the leaf is one row;
        # below three m_2 is pinned to 0, and with one class m_1 too.
        top = min(rem_total, rem_r // 3) if ncls > 3 else 0
        start = 0
        while start <= top:
            m3 = np.arange(start, min(top + 1, start + cap - count), dtype=np.int64)
            start += m3.size
            t, r = rem_total - m3, rem_r - 3 * m3
            lo = np.maximum(r - t, r if ncls == 1 else 0)
            hi = r // 2 if ncls > 2 else 0 * r
            keep = lo <= hi
            if keep.any():
                upper = np.empty((int(keep.sum()), max(ncls - 3, 0)), dtype=np.int64)
                if ncls > 3:
                    upper[:, 0] = m3[keep]
                    upper[:, 1:] = suffix[::-1]
                parts.append((upper, t[keep], r[keep], lo[keep], hi[keep]))
                count += upper.shape[0]
                del upper
            del m3, t, r, lo, hi, keep  # none held while a batch is out
            if count == cap:
                yield _joined(ncls, parts)
                count = 0
    if count:
        yield _joined(ncls, parts)


def _joined(ncls: int, parts: list[tuple]) -> LatticeRows:
    """One batch of rows from its pieces, in their order, emptying
    ``parts``: the walk keeps no piece of a batch it has yielded, and the
    batch's columns are new arrays, which die with it."""
    columns = [np.concatenate(c) for c in zip(*parts)]
    parts.clear()
    return LatticeRows(ncls, *columns)


#: Nats by which the profiles that ``ProfileCut`` drops from a sum stay
#: below it: e^-40 < 2^-57, under the rounding of a double.
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
        self.lf_n = log_factorial(N)
        self.const = log_factorial(N - 2) if spec.kind is Kind.LABELED else -math.log(N)
        # per row, the terms of the classes >= 3 in sum ln m_k! and in m . a
        self.lf_upper = log_factorials(rows.upper).sum(axis=1)
        self.a_upper = rows.upper @ a[3:]
        # first m_2 whose forward difference is <= 0; never evaluated at hi,
        # where m_1 < 2
        step = a[0] - 2.0 * a[1] + a[2]

        def falls(m2, i):
            m0, m1, _ = rows.columns(i, m2)
            return np.log(m1 * (m1 - 1.0)) - np.log((m0 + 1.0) * (m2 + 1.0)) + step <= 0

        self.peak = _first(falls, rows.lo, rows.hi)
        self.top = self.log_weights(self.peak, slice(None))

    def log_weights(self, m2: np.ndarray, i) -> np.ndarray:
        """Log weights of the points m_2 = ``m2`` on rows ``i``: those of
        ``profile_log_weights``, to rounding.  As there, the ln m_k! are
        summed first and taken from ln N! once: one rounding at the scale of
        ln N!, where taking them one by one would round at each step."""
        m0, m1, m2 = self.rows.columns(i, m2)
        a = self.a
        lf = log_factorials(m0) + log_factorials(m1) + log_factorials(m2) + self.lf_upper[i]
        linear = a[0] * m0 + a[1] * m1 + a[2] * m2 + self.a_upper[i]
        return (self.lf_n - lf) + self.const + linear

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


class ProfileCut:
    """The feasible profiles of (spec, N) whose log weight reaches the cut
    tau = L - ln(points) - ``CUT_SLACK``, L the largest profile log weight.

    Construction is one walk of ``lattice_rows``, which sets ``points`` (the
    lattice size), ``top`` (L) and ``tau``; all the profiles below tau
    together weigh under points e^tau = e^(L - CUT_SLACK).  Each call of
    ``blocks`` is one more walk.  Raises BadEnergyTable when the log
    weights overflow at N (``check_log_weights``) and NoFeasibleTree when no
    profile is feasible.
    """

    def __init__(self, spec: EnsembleSpec, N: int) -> None:
        check_log_weights(spec, N)
        self.spec, self.N = spec, N
        points, top = 0, NEG_INF
        for cut in self._rows():
            points += cut.rows.size
            top = max(top, float(cut.top.max()))
        if not points:
            raise NoFeasibleTree(f"no feasible {spec.kind.value} profile at N={N} with D={spec.D}")
        self.points, self.top = points, top
        self.tau = top - math.log(points) - CUT_SLACK

    def _rows(self):
        spec, N = self.spec, self.N
        # per row: its ncls + 1 columns twice (the walk joins its leaves),
        # then at most ncls + 4 arrays of the bisections or of a fold
        row_bytes = 8 * (3 * spec.n_classes + 6)
        for rows in lattice_rows(spec.k_min, spec.D, N, spec.kind.class_sum(N), row_bytes):
            yield _RowCut(spec, N, rows)

    def blocks(self, low: float | None = None):
        """Yield (row cut, i, m2) per block of ``LatticeRows.pairs`` of the
        profiles with lw >= tau or, given ``low``, of the shell low <= lw < tau
        (per batch, the lower part of its rows first), the ``_RowCut`` being
        their batch's.  A fold holds at most ten arrays of a block's length."""
        for cut in self._rows():
            first, last = cut.interval(self.tau)
            if low is None:
                spans = [(first, last)]
            else:
                low_first, low_last = cut.interval(low)
                spans = [(low_first, first - 1), (last + 1, low_last)]
            for a, b in spans:
                for i, m2 in cut.rows.pairs(a, b, 8 * 10):
                    yield cut, i, m2
            del cut, first, last, spans  # freed before the walk builds the next batch


def log_partition_value(spec: EnsembleSpec, N: int) -> float:
    """ln Z_N, the log-sum-exp of the profile log weights above the cut of
    ``ProfileCut``: two walks of the rows.  The profiles it drops weigh
    under e^(L - CUT_SLACK) <= e^-CUT_SLACK Z_N together, below the
    rounding of the result.  Raises NoFeasibleTree when no profile is
    feasible."""
    total = _RunningLogSum()
    for cut, i, m2 in ProfileCut(spec, N).blocks():
        total.add(cut.log_weights(m2, i))
        del cut, i, m2  # freed before the next block is built
    return total.log()


def log_mass(spec: EnsembleSpec, N: int, center: np.ndarray, select) -> float:
    """ln P_N{select(|chi/N - center|_1)}, ``select`` mapping the distances
    of a block's profiles to a mask.

    Two walks of the rows fold the profiles above the cut of ``ProfileCut``
    into the selected sum S and the rest C.  Every profile left out has log
    weight below tau, so the cut is certified when dropped e^tau <=
    e^-CUT_SLACK of both S and C.  If not, a third walk folds the shell down
    to min(ln S, ln C) - ln(dropped) - CUT_SLACK (-inf when a side is
    empty: the full fold), which certifies the sums that result.  The
    result is exact to rounding.

    Raises NoFeasibleTree when no profile is feasible; -inf when none is
    selected.
    """
    cut = ProfileCut(spec, N)
    dropped = cut.points  # every profile, until folded
    s, c = _RunningLogSum(), _RunningLogSum()  # the selected profiles, the rest

    def fold(blocks):
        nonlocal dropped
        for rows_cut, i, m2 in blocks:
            dropped -= m2.size
            lw = rows_cut.log_weights(m2, i)
            chosen = select(rows_cut.rows.distance(i, m2, center, N))
            s.add(lw[chosen])
            c.add(lw[~chosen])
            del rows_cut, i, m2, lw, chosen  # freed before the next block is built

    fold(cut.blocks())
    floor = min(s.log(), c.log()) - CUT_SLACK
    if dropped and not math.log(dropped) + cut.tau <= floor:
        fold(cut.blocks(floor - math.log(dropped) if floor > NEG_INF else NEG_INF))
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


def integer_lattice(k_min: int, k_max: int, total: int, weighted_total: int) -> np.ndarray:
    """The profiles of ``lattice_rows`` as one (M, ncls) int64 matrix in
    walk order, ascending in (m_{K-1}, ..., m_2), K = ncls the class count.

    Raises LatticeTooLarge when the matrix would pass ``MAX_LATTICE_BYTES``.
    The lattice has dimension D-2 for labeled profiles and D-1 for plane
    profiles, so its size grows like N^(D-2) or N^(D-1).
    """
    ncls = k_max - k_min + 1
    # a point: its profile and the five columns that build it; a row: its
    # ncls + 1 columns and the four of pairs
    point_bytes = row_bytes = 8 * (ncls + 5)
    blocks: list[np.ndarray] = []
    nbytes = 0
    for rows in lattice_rows(k_min, k_max, total, weighted_total, row_bytes):
        for i, m2 in rows.pairs(rows.lo, rows.hi, point_bytes):
            block = rows.profiles(i, m2)
            nbytes += block.nbytes
            if nbytes > MAX_LATTICE_BYTES:
                raise LatticeTooLarge(
                    f"profile lattice exceeds the cap of {MAX_LATTICE_BYTES} bytes")
            blocks.append(block)
    if not blocks:
        return np.empty((0, ncls), dtype=np.int64)
    return np.concatenate(blocks)


def enumerate_profiles(spec: EnsembleSpec, N: int) -> np.ndarray:
    """All feasible class profiles for (spec, N) as an (M, n_classes) matrix."""
    return integer_lattice(spec.k_min, spec.D, N, spec.kind.class_sum(N))


def sample_profiles(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` class profiles exactly from the Gibbs law of chi.

    Row m of the (size, n_classes) result counts the vertices per shifted
    class in draw m.  Proposals are Multinomial(N, q) at the tilt q whose
    mean shifted class is budget/N, kept when their shifted class sum is the
    budget: by the local CLT about 1/(sigma sqrt(2 pi N)) of them, sigma^2
    the class variance under q.  That guess sizes the first batch, then
    counts as one hit among 1/guess proposals in the running acceptance
    estimate that sizes the later ones.  A batch is drawn and filtered in
    chunks of ``LATTICE_BYTES``; ``rng.multinomial`` draws row after row, so
    neither the kept rows nor the stream after them depend on the chunks.

    The guess fails when the tilt's classes cannot make up the budget alone
    and every kept row needs a class of tiny (or underflowed) weight:
    labeled D=3 with degree 2 suppressed at odd N, say.  Once the estimate
    falls below 1 in ``MAX_PROPOSALS_PER_HIT``, the remaining rows are drawn
    by ``_sample_cut``, exact up to the e^-CUT_SLACK of mass that the row
    cut drops, below the resolution of a double uniform.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    check_log_weights(spec, N)
    budget = shifted_budget(spec, N)
    q, _ = tilt(spec, spec.kind.class_sum(N) / N)
    shifted = np.arange(spec.n_classes)
    var = float(q @ (shifted - q @ shifted) ** 2)
    guess = min(1.0, 1.0 / math.sqrt(2.0 * math.pi * N * var)) if var > 0 else 1.0
    chunk = max(1, LATTICE_BYTES // (8 * spec.n_classes + 9))  # rows, sums, mask
    kept, need, drawn, hits = [], size, 0, 0
    while need:
        accept = guess * (hits + 1) / (guess * drawn + 1)
        if accept * MAX_PROPOSALS_PER_HIT < 1:
            kept.append(_sample_cut(spec, N, need, rng))
            break
        rows = min(max(1, PROPOSAL_CELLS // spec.n_classes), math.ceil(1.2 * need / accept) + 16)
        for start in range(0, rows, chunk):
            found = rng.multinomial(N, q, size=min(chunk, rows - start))
            found = found[found @ shifted == budget]
            kept.append(found[:need])
            hits, need = hits + found.shape[0], need - kept[-1].shape[0]
        drawn += rows
    return np.concatenate(kept)


def _sample_cut(spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` profiles by inverse CDF over the profiles above the cut
    of ``ProfileCut``: two more walks fold their weights e^(lw - L) into
    running sums, first for the total and then to place the sorted uniforms
    block by block, whose argsort undoes the sort.  Only the drawn points
    are built into profiles."""
    cut = ProfileCut(spec, N)

    def cdf():  # the kept points and the running sums of e^(lw - L)
        seen = 0.0
        for rows_cut, i, m2 in cut.blocks():
            cum = seen + np.cumsum(np.exp(rows_cut.log_weights(m2, i) - cut.top))
            seen = cum[-1]
            yield rows_cut.rows, i, m2, cum
            del rows_cut, i, m2, cum  # freed before the next block is built

    for block in cdf():
        total = block[-1][-1]  # the last running sum
        del block
    u = rng.random(size)
    targets = np.sort(u) * total  # each below total, as u < 1
    drawn, placed = [], 0
    for rows, i, m2, cum in cdf():
        below = np.searchsorted(targets, cum)  # targets below each running sum
        pick = np.repeat(np.arange(m2.size), np.diff(below, prepend=placed))
        drawn.append(rows.profiles(i[pick], m2[pick]))
        placed = below[-1]
        del rows, i, m2, cum, below, pick
    return np.concatenate(drawn)[np.argsort(np.argsort(u))]


def sample_class_sequences(
    spec: EnsembleSpec, profiles: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The class sequences (unshifted classes) of the rows of ``profiles``,
    drawn by ``sample_profiles``: row m laid out in class order and permuted
    uniformly, so that its law is the product of per-class Gibbs weights
    conditioned on the feasible class sum.  ``rng.permuted`` draws row after
    row, so the rows of one call are those of the calls on its parts in
    order.  The (rows, N) result is int64, on which ``rng.permuted`` runs
    fastest; it draws the same permutation at any dtype."""
    rows = np.repeat(np.tile(spec.classes(), profiles.shape[0]), profiles.ravel())
    rows = rows.reshape(profiles.shape[0], -1)
    return rng.permuted(rows, axis=1, out=rows)
