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
number of classes): ``lattice_blocks`` yields it in int64 blocks of at most
``LATTICE_BLOCK_BYTES``, and the ball and tail sums of ``ldp`` fold those
blocks into running log-sum-exps, so their memory does not grow with N.
``integer_lattice`` joins the blocks into one matrix, under a cap of
``DEFAULT_MAX_PROFILES`` rows, for the callers that need every profile at
once.  Among them is the exact law of chi, which normalizes itself:
``exact_chi_law`` enumerates the feasible profiles, and the log-sum-exp of
their log weights is ln Z_N.

``log_partition_value`` gives ln Z_N alone, for ``log_prob_profile`` and the
``partition`` suite of ``oracle-check``, from a per-vertex dynamic program
over the remaining budget; the tests use it as the reference for the
lattice sum.  ``W[i][s]`` is the log weight of the length-i class words
with shifted class sum s, stored on ``0..budget``, which halves the labeled
table.  Reading the final cell ``W[N][budget]`` (``DpTable.log_final``)
gives

* labeled:  ``ln Z_N = W[N][N-2] + ln (N-2)!``
* plane:    ``ln Z_N = W[N][N-1] - ln N``.

Sampling needs no table.  The tilt ``q_k ~ w_k x^k`` (``tilt``) turns the
per-vertex weights into a probability vector; under Multinomial(N, q) the
weight of a profile n is its Gibbs weight times ``x^S``, with S the class
sum, so conditioning on S = budget leaves exactly the Gibbs law of chi at
any x.  ``sample_profiles`` draws at the x whose mean class is budget/N and
keeps the proposals that hit the budget; ``sample_class_sequences`` lays
each kept profile out as a class row and permutes it uniformly, which is
the entry point of both tree samplers.  This is Devroye's reduction
("Simulating size-constrained Galton-Watson trees", SIAM J. Comput. 41(1),
2012).  When a class the budget needs has so small a tilt weight that
hardly any proposal is kept, the profiles are drawn from ``exact_chi_law``
instead.

Randomness contract: every sampler takes a ``numpy.random.Generator``.
``rng_stream(seed, block)`` derives independent, reproducible streams from
a 64-bit seed and a block index; all draws are then determined by
``(seed, block, draw index)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .combinatorics import NEG_INF, log_factorial, log_factorials, log_sum
from .ensembles import CountVector, EnsembleSpec, Kind
from .errors import (
    LatticeTooLarge,
    NoFeasibleTree,
    SizeOverflow,
    SumMismatch,
)

#: Default ceiling on DP table cells, sized to admit N = 20000 for either kind.
DEFAULT_MAX_CELLS = 20_001 * 20_000

#: Default ceiling on the profiles that ``integer_lattice`` materializes for
#: ``exact_chi_law``, ``rate.manifold_grid`` and ``ldp.r_set_counts``; the
#: ball and tail sums of ``ldp`` stream ``lattice_blocks`` and have no cap.
DEFAULT_MAX_PROFILES = 10_000_000

#: Ceiling on the bytes of one int64 block of ``lattice_blocks``: 8 MB.
LATTICE_BLOCK_BYTES = 2**23

#: Ceiling on the cells of one proposal matrix in ``sample_profiles``
#: (rows times classes, int64): 32 MB whatever the size of the request.
PROPOSAL_CELLS = 2**22

#: Proposals per kept profile past which ``sample_profiles`` stops rejecting
#: and draws from the enumerated profile law.
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

    spec: EnsembleSpec
    n_vertices: int
    budget: int
    W: np.ndarray

    @property
    def feasible(self) -> bool:
        return self.W[self.n_vertices, self.budget] > NEG_INF

    @property
    def log_final(self) -> float:
        return float(self.W[self.n_vertices, self.budget])


def build_dp(spec: EnsembleSpec, N: int, *, max_cells: int = DEFAULT_MAX_CELLS) -> DpTable:
    """Build the forward table in O(D * N * budget) time, O(N * budget) space.

    Raises SizeOverflow when the table would exceed ``max_cells`` cells.
    """
    budget = shifted_budget(spec, N)
    cells = (N + 1) * (budget + 1)
    if cells > max_cells:
        raise SizeOverflow(
            f"DP table needs {cells} cells, exceeding the budget of {max_cells}"
        )
    W = kernels.dp_forward(class_log_weights(spec), N, budget)
    W.setflags(write=False)
    return DpTable(spec=spec, n_vertices=N, budget=budget, W=W)


def log_partition(dp: DpTable) -> float:
    """ln Z_N from a built table; raises NoFeasibleTree when Z_N = 0."""
    if not dp.feasible:
        raise NoFeasibleTree(
            f"no {dp.spec.kind.value} tree on {dp.n_vertices} vertices fits D={dp.spec.D}"
        )
    if dp.spec.kind is Kind.LABELED:
        return dp.log_final + log_factorial(dp.n_vertices - 2)
    return dp.log_final - float(np.log(dp.n_vertices))


@lru_cache(maxsize=128)
def log_partition_value(spec: EnsembleSpec, N: int) -> float:
    """Cached ln Z_N; builds (and discards) the DP table on first use."""
    return log_partition(build_dp(spec, N))


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


def log_prob_profile(spec: EnsembleSpec, N: int, n: CountVector) -> float:
    """Exact ln P_N{chi = n}; -inf for infeasible profiles.

    Raises SumMismatch when the profile does not account for all N vertices.
    """
    counts = n.as_array()
    if counts.size != spec.n_classes:
        raise ValueError("profile length does not match spec")
    if counts.sum() != N:
        raise SumMismatch(f"profile sums to {counts.sum()}, expected {N}")
    if int((spec.classes() * counts).sum()) != spec.kind.class_sum(N):
        return NEG_INF
    lw = profile_log_weights(spec, N, counts[None, :])[0]
    return float(lw - log_partition_value(spec, N))


def lattice_blocks(k_min: int, k_max: int, total: int, weighted_total: int):
    """Yield all integer vectors m >= 0 indexed by classes k_min..k_max with
    ``sum m = total`` and ``sum k m_k = weighted_total``, in int64 blocks.

    Each block is an (M, k_max - k_min + 1) matrix of at most
    ``LATTICE_BLOCK_BYTES`` bytes.  Writing j for the shifted class k - k_min,
    the walk is depth-first over the classes j >= 4; within each of its
    leaves, the pairs (m_3, m_2) form one vectorized 2-D block, and m_1 and
    m_0 are solved from the two constraints.  Rows come in ascending
    lexicographic order of (m_{K-1}, ..., m_2), K the number of classes.
    """
    ncls = k_max - k_min + 1
    R = weighted_total - k_min * total  # shifted weighted sum
    if total < 0 or R < 0:
        return
    if ncls == 1:
        if R == 0:
            yield np.array([[total]], dtype=np.int64)
        return
    if ncls == 2:
        # m1 = R, m0 = total - R
        if R <= total:
            yield np.array([[total - R, R]], dtype=np.int64)
        return
    max_rows = max(1, LATTICE_BLOCK_BYTES // (8 * ncls))
    # Children are pushed in reverse so that they pop in increasing order.
    stack = [(ncls - 1, total, R, ())]
    while stack:
        j, rem_total, rem_r, suffix = stack.pop()
        if j <= 3:
            yield from _leaf_blocks(ncls, rem_total, rem_r, suffix, max_rows)
            continue
        top = min(rem_total, rem_r // j)
        for m in range(top, -1, -1):
            stack.append((j - 1, rem_total - m, rem_r - j * m, suffix + (m,)))


def _leaf_blocks(ncls: int, rem_total: int, rem_r: int, suffix: tuple, max_rows: int):
    """The rows of one leaf of ``lattice_blocks``: every (m_3, m_2) left once
    the classes above 3 are fixed to ``suffix`` (top class first), cut into
    blocks of at most ``max_rows`` rows.  With three classes m_3 is 0."""
    # For each m3: m1 = r - 2*m2 >= 0 and m0 = t - r + m2 >= 0, where
    # t = rem_total - m3 and r = rem_r - 3*m3.
    top3 = min(rem_total, rem_r // 3) if ncls > 3 else 0
    m3 = np.arange(top3 + 1, dtype=np.int64)
    r = rem_r - 3 * m3
    lo = np.maximum(0, r - (rem_total - m3))
    counts = np.maximum(r // 2 - lo + 1, 0)
    ends = np.cumsum(counts)
    offset = ends - counts - lo  # m2 = (row index in the leaf) - offset[m3]
    for start in range(0, int(ends[-1]), max_rows):
        flat = np.arange(start, min(start + max_rows, int(ends[-1])), dtype=np.int64)
        col3 = np.searchsorted(ends, flat, side="right")
        col2 = flat - offset[col3]
        col1 = r[col3] - 2 * col2
        block = np.empty((flat.size, ncls), dtype=np.int64)
        block[:, 0] = rem_total - col3 - col2 - col1
        block[:, 1] = col1
        block[:, 2] = col2
        if ncls > 3:
            block[:, 3] = col3
        for off, v in enumerate(suffix):
            block[:, ncls - 1 - off] = v
        yield block


def integer_lattice(
    k_min: int,
    k_max: int,
    total: int,
    weighted_total: int,
    *,
    max_points: int = DEFAULT_MAX_PROFILES,
) -> np.ndarray:
    """The blocks of ``lattice_blocks`` joined into one (M, k_max - k_min + 1)
    int64 matrix, in the same order.

    Raises LatticeTooLarge when there are more than ``max_points`` rows.
    The lattice has dimension D-2 for labeled profiles and D-1 for plane
    profiles, so its size grows like N^(D-2) or N^(D-1).
    """
    blocks: list[np.ndarray] = []
    count = 0
    for block in lattice_blocks(k_min, k_max, total, weighted_total):
        count += block.shape[0]
        if count > max_points:
            raise LatticeTooLarge(
                f"profile lattice exceeds the cap of {max_points} points"
            )
        blocks.append(block)
    if not blocks:
        return np.empty((0, k_max - k_min + 1), dtype=np.int64)
    return np.concatenate(blocks)


def enumerate_profiles(
    spec: EnsembleSpec, N: int, *, max_profiles: int = DEFAULT_MAX_PROFILES
) -> np.ndarray:
    """All feasible class profiles for (spec, N) as an (M, n_classes) matrix."""
    return integer_lattice(
        spec.k_min, spec.D, N, spec.kind.class_sum(N), max_points=max_profiles
    )


@dataclass(frozen=True, eq=False)
class ChiLaw:
    """Exact law of the class-count vector chi under the Gibbs measure.

    ``profiles`` holds every feasible profile; ``logp`` the matching exact
    log-probabilities.  The law normalizes itself: ``logp`` is each
    profile's log weight less the log-sum-exp of all of them, which is
    ln Z_N.
    """

    spec: EnsembleSpec
    N: int
    profiles: np.ndarray
    logp: np.ndarray

    def __len__(self) -> int:
        return self.profiles.shape[0]

    def items(self):
        for row, lp in zip(self.profiles, self.logp):
            yield CountVector(self.spec.kind, tuple(int(v) for v in row)), float(lp)

    def as_dict(self) -> dict[tuple[int, ...], float]:
        """Map profile tuple -> probability."""
        return {
            tuple(int(v) for v in row): float(np.exp(lp))
            for row, lp in zip(self.profiles, self.logp)
        }


def exact_chi_law(
    spec: EnsembleSpec, N: int, *, max_profiles: int = DEFAULT_MAX_PROFILES
) -> ChiLaw:
    """Exact finite-N law of chi: every feasible profile with its log-probability.

    Raises NoFeasibleTree when no profile is feasible and LatticeTooLarge
    when there are more than ``max_profiles``.
    """
    profiles = enumerate_profiles(spec, N, max_profiles=max_profiles)
    if profiles.shape[0] == 0:
        raise NoFeasibleTree(
            f"no feasible {spec.kind.value} profile at N={N} with D={spec.D}"
        )
    lw = profile_log_weights(spec, N, profiles)
    # The shift is exact near the max, where the mass is, and leaves a
    # normalizer of order ln(profiles): logp has no rounding at the scale of
    # ln Z_N.
    lw -= lw.max()
    return ChiLaw(spec=spec, N=N, profiles=profiles, logp=lw - log_sum(lw))


def sample_profiles(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` class profiles exactly from the Gibbs law of chi.

    Row m of the (size, n_classes) result counts the vertices per shifted
    class in draw m.  Proposals are Multinomial(N, q) at the tilt q whose
    mean shifted class is budget/N, and a proposal is kept when its shifted
    class sum is the budget.  By the local CLT about 1/(sigma sqrt(2 pi N)) of
    them are kept (sigma^2 the class variance under q).  That guess sizes the
    first batch and then counts as one hit among 1/guess proposals in the
    running acceptance estimate that sizes the later ones.

    The guess fails when the classes that carry the tilt cannot make up the
    budget alone, so every kept row needs a class of tiny (or underflowed)
    weight: labeled D=3 with degree 2 suppressed at odd N, say.  Once the
    estimate falls below 1 in ``MAX_PROPOSALS_PER_HIT``, the remaining rows
    are drawn from ``exact_chi_law`` instead, which is exact in the log
    domain; LatticeTooLarge is raised when it has more than
    ``PROPOSAL_CELLS // n_classes`` profiles.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    budget = shifted_budget(spec, N)
    q, _ = tilt(spec, spec.kind.class_sum(N) / N)
    shifted = np.arange(spec.n_classes)
    var = float(q @ (shifted - q @ shifted) ** 2)
    guess = min(1.0, 1.0 / math.sqrt(2.0 * math.pi * N * var)) if var > 0 else 1.0
    max_rows = max(1, PROPOSAL_CELLS // spec.n_classes)
    kept, need, drawn, hits = [], size, 0, 0
    while need:
        accept = guess * (hits + 1) / (guess * drawn + 1)
        if accept * MAX_PROPOSALS_PER_HIT < 1:
            kept.append(_sample_enumerated(spec, N, need, rng))
            break
        rows = min(max_rows, math.ceil(1.2 * need / accept) + 16)
        proposals = rng.multinomial(N, q, size=rows)
        found = proposals[proposals @ shifted == budget]
        kept.append(found[:need])
        drawn, hits = drawn + rows, hits + found.shape[0]
        need -= kept[-1].shape[0]
    return np.concatenate(kept)


def _sample_enumerated(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` profiles from ``exact_chi_law`` (see ``sample_profiles``)."""
    try:
        law = exact_chi_law(spec, N, max_profiles=PROPOSAL_CELLS // spec.n_classes)
    except LatticeTooLarge as exc:
        raise LatticeTooLarge(
            f"fewer than 1 in {MAX_PROPOSALS_PER_HIT} tilted proposals hit the "
            f"class sum, and the {exc}"
        ) from None
    return law.profiles[rng.choice(len(law), size=size, p=np.exp(law.logp))]


def sample_class_sequences(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` class sequences (unshifted classes) exactly.

    Entry (m, i) is the class of vertex i in draw m.  Each row is the
    profile of ``sample_profiles`` laid out in class order and then permuted
    uniformly, so it is distributed proportionally to the product of
    per-class Gibbs weights conditioned on the feasible class sum.
    """
    profiles = sample_profiles(spec, N, size, rng)
    rows = np.repeat(np.tile(spec.classes(), size), profiles.ravel()).reshape(size, N)
    return rng.permuted(rows, axis=1, out=rows)

