"""Exact partition functions, profile laws, and degree-sequence sampling.

The partition function is computed by a per-vertex dynamic program over the
remaining class-sum budget.  Writing ``w_k`` for the per-vertex Gibbs weight
of class k,

* labeled:  ``w_k = exp(-beta c(k)) / (k-1)!``  (the factorial absorbs the
  word-multiplicity of the degree in the underlying code),
* plane:    ``w_k = exp(-beta c(k))``,

the sum of ``prod_i w_{k_i}`` over all class sequences with the feasible
class sum factors through ``W[i][s]`` and yields

* labeled:  ``ln Z_N = W[N][2N-2] + ln (N-2)!``
* plane:    ``ln Z_N = W[N][N-1] - ln N``.

Internally classes are shifted by their minimum (degree-1 for labeled), so
the stored budget axis is ``0..N-2`` (labeled) or ``0..N-1`` (plane), which
halves the labeled table.  The same table supports exact backward sampling
of class sequences, which is the entry point of both tree samplers.

Randomness contract: every sampler takes a ``numpy.random.Generator``.
``rng_stream(seed, worker)`` derives independent, reproducible streams from
a 64-bit seed and a worker/block index; all draws are then determined by
``(seed, worker, draw index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .combinatorics import NEG_INF, log_factorial, log_factorials, log_sum
from .ensembles import CountVector, EnsembleSpec, Kind, validate_spec
from .errors import (
    LatticeTooLarge,
    NoFeasibleTree,
    SizeOverflow,
    SumMismatch,
)

#: Default ceiling on DP table cells, sized to admit N = 20000 for either kind.
DEFAULT_MAX_CELLS = 20_001 * 20_000

#: Default ceiling on enumerated feasible profiles.
DEFAULT_MAX_PROFILES = 10_000_000


def rng_stream(seed: int, worker: int = 0) -> np.random.Generator:
    """Deterministic 64-bit seeded stream, split by worker index.

    Streams for distinct ``worker`` values are statistically independent;
    the pair ``(seed, worker)`` fully determines the stream.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(int(worker),)))
    )


def shifted_budget(spec: EnsembleSpec, N: int) -> int:
    """Shifted class-sum budget: N-2 for labeled trees, N-1 for plane trees."""
    budget = spec.kind.class_sum(N) - spec.k_min * N
    if budget < 0:
        raise ValueError(f"{spec.kind.value} ensembles need N >= {spec.k_min + 1}")
    return budget


def word_log_weights(spec: EnsembleSpec) -> np.ndarray:
    """ln (k-1)! per class for labeled trees, zero for plane trees.

    A labeled vertex of degree k fills k - 1 places of the Prufer code, and
    the code's word count divides by (k-1)! per vertex; plane trees carry no
    such factor.  Indexed by shifted class.
    """
    if spec.kind is Kind.LABELED:
        return log_factorials(spec.classes() - 1)
    return np.zeros(spec.n_classes)


def class_log_weights(spec: EnsembleSpec) -> np.ndarray:
    """Per-class log Gibbs weights ln w_k = -beta c(k) - ln (k-1)! (the
    factorial for labeled trees only), indexed by shifted class."""
    return -spec.beta * spec.energies() - word_log_weights(spec)


@dataclass(frozen=True, eq=False)
class DpTable:
    """Immutable forward DP table over (vertices processed, budget consumed).

    ``W[i, s]`` is the log-weight of all length-i class words with shifted
    class sum s; ``W[0, 0] = 0`` and ``W[0, s>0] = -inf``.
    """

    spec: EnsembleSpec
    n_vertices: int
    budget: int
    logw: np.ndarray
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
    validate_spec(spec)
    budget = shifted_budget(spec, N)
    cells = (N + 1) * (budget + 1)
    if cells > max_cells:
        raise SizeOverflow(
            f"DP table needs {cells} cells, exceeding the budget of {max_cells}"
        )
    logw = np.ascontiguousarray(class_log_weights(spec))
    W = kernels.dp_forward(logw, N, budget)
    W.setflags(write=False)
    logw.setflags(write=False)
    return DpTable(spec=spec, n_vertices=N, budget=budget, logw=logw, W=W)


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
    validate_spec(spec)
    counts = n.as_array()
    if counts.size != spec.n_classes:
        raise ValueError("profile length does not match spec")
    if counts.sum() != N:
        raise SumMismatch(f"profile sums to {counts.sum()}, expected {N}")
    if int((spec.classes() * counts).sum()) != spec.kind.class_sum(N):
        return NEG_INF
    lw = profile_log_weights(spec, N, counts[None, :])[0]
    return float(lw - log_partition_value(spec, N))


def integer_lattice(
    k_min: int,
    k_max: int,
    total: int,
    weighted_total: int,
    *,
    max_points: int = DEFAULT_MAX_PROFILES,
) -> np.ndarray:
    """All integer vectors m >= 0 indexed by classes k_min..k_max with
    ``sum m = total`` and ``sum k m_k = weighted_total``.

    Returns an (M, k_max - k_min + 1) int64 matrix in a deterministic order.
    The two lowest classes are eliminated through the constraints, so the
    search runs over the remaining coordinates only (dimension D-2 for
    labeled profiles, D-1 for plane profiles).
    """
    ncls = k_max - k_min + 1
    R = weighted_total - k_min * total  # shifted weighted sum
    if total < 0 or R < 0:
        return np.empty((0, ncls), dtype=np.int64)
    if ncls == 1:
        if R == 0:
            return np.array([[total]], dtype=np.int64)
        return np.empty((0, 1), dtype=np.int64)
    if ncls == 2:
        # m1 = R, m0 = total - R
        if R <= total:
            return np.array([[total - R, R]], dtype=np.int64)
        return np.empty((0, 2), dtype=np.int64)

    blocks: list[np.ndarray] = []
    count = 0

    def emit(rem_total: int, rem_r: int, suffix: list[int]) -> None:
        # Vectorize the lowest free class (shifted class 2):
        #   m1 = rem_r - 2*m2 >= 0,  m0 = rem_total - rem_r + m2 >= 0.
        nonlocal count
        lo = max(0, rem_r - rem_total)
        hi = rem_r // 2
        if hi < lo:
            return
        m2 = np.arange(lo, hi + 1, dtype=np.int64)
        m1 = rem_r - 2 * m2
        m0 = rem_total - m1 - m2
        block = np.empty((m2.size, ncls), dtype=np.int64)
        block[:, 0] = m0
        block[:, 1] = m1
        block[:, 2] = m2
        for off, v in enumerate(suffix):
            block[:, ncls - 1 - off] = v
        count += m2.size
        if count > max_points:
            raise LatticeTooLarge(
                f"profile lattice exceeds the cap of {max_points} points"
            )
        blocks.append(block)

    def descend(j: int, rem_total: int, rem_r: int, suffix: list[int]) -> None:
        # j is the shifted class index, walked from the top down to 3.
        if j == 2:
            emit(rem_total, rem_r, suffix)
            return
        top = min(rem_total, rem_r // j)
        for m in range(top + 1):
            descend(j - 1, rem_total - m, rem_r - j * m, suffix + [m])

    descend(ncls - 1, total, R, [])
    if not blocks:
        return np.empty((0, ncls), dtype=np.int64)
    return np.vstack(blocks)


def enumerate_profiles(
    spec: EnsembleSpec, N: int, *, max_profiles: int = DEFAULT_MAX_PROFILES
) -> np.ndarray:
    """All feasible class profiles for (spec, N) as an (M, n_classes) matrix."""
    validate_spec(spec)
    return integer_lattice(
        spec.k_min, spec.D, N, spec.kind.class_sum(N), max_points=max_profiles
    )


@dataclass(frozen=True, eq=False)
class ChiLaw:
    """Exact law of the class-count vector chi under the Gibbs measure.

    ``profiles`` holds every feasible profile; ``logp`` the matching exact
    log-probabilities (normalized by the DP partition function, so their
    log-sum-exp doubles as a DP-vs-lattice consistency check).
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

    def total_log_mass(self) -> float:
        return log_sum(self.logp)


@lru_cache(maxsize=16)
def exact_chi_law(
    spec: EnsembleSpec, N: int, *, max_profiles: int = DEFAULT_MAX_PROFILES
) -> ChiLaw:
    """Exact finite-N law of chi: every feasible profile with its log-probability.

    Cached per (spec, N, max_profiles) as the call spells them; the law is
    immutable and its arrays are read-only, so callers share it.
    """
    profiles = enumerate_profiles(spec, N, max_profiles=max_profiles)
    if profiles.shape[0] == 0:
        raise NoFeasibleTree(
            f"no feasible {spec.kind.value} profile at N={N} with D={spec.D}"
        )
    logp = profile_log_weights(spec, N, profiles) - log_partition_value(spec, N)
    logp.setflags(write=False)
    profiles.setflags(write=False)
    return ChiLaw(spec=spec, N=N, profiles=profiles, logp=logp)


def sample_class_sequences(
    dp: DpTable, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` class sequences (unshifted classes) from the DP.

    Entry (m, i) is the class of vertex i in draw m; each row is distributed
    proportionally to the product of per-class Gibbs weights conditioned on
    the feasible class sum, hence exchangeably in i.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if not dp.feasible:
        raise NoFeasibleTree(
            f"no {dp.spec.kind.value} tree on {dp.n_vertices} vertices fits D={dp.spec.D}"
        )
    uniforms = rng.random((size, dp.n_vertices))
    shifted = kernels.backward_sample(dp.W, dp.logw, dp.budget, uniforms)
    if dp.spec.k_min:
        shifted += dp.spec.k_min
    return shifted


def sample_degree_sequence(dp: DpTable, rng: np.random.Generator) -> np.ndarray:
    """Single exact draw of the per-vertex class sequence (degrees for
    labeled specs, child counts for plane specs)."""
    return sample_class_sequences(dp, 1, rng)[0]


def profile_of_classes(spec: EnsembleSpec, classes: np.ndarray) -> CountVector:
    """Class counts of one sampled sequence."""
    counts = np.bincount(
        np.asarray(classes, dtype=np.int64) - spec.k_min, minlength=spec.n_classes
    )
    return CountVector(spec.kind, tuple(int(v) for v in counts))
