"""Shared test helpers: enumeration-based Gibbs oracles, the DP reference
for ln Z_N, the whole-block reference of the ``sample`` text, and
chi-square checks.

The enumeration oracles deliberately avoid the library's lattice and
closed-form paths: tree laws come from exhaustive enumeration plus per-tree
energies, so they stay independent of the code they verify.  The DP sums
class words vertex by vertex, never touching the profile lattice that the
library's ln Z_N folds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

from oracles import (
    PlaneTree,
    chi_of,
    cycle_lemma_rotation,
    energy_of,
    from_free_coordinates,
    labeled_trees,
    plane_trees,
    prufer_encode,
)
from treegibbs import (
    EnsembleSpec,
    Kind,
    LabeledTree,
    NoFeasibleTree,
    rng_stream,
)
from treegibbs.combinatorics import log_factorial
from treegibbs.partition import (
    build_dp,
    profile_log_weights,
    sample_class_sequences,
    sample_profiles,
)


def word_tree(word) -> LabeledTree:
    """The Foata-Fuchs-type word -> tree map of ``treegen.word_edges``, one
    position at a time: with s = (N, w_1, ..., w_{N-2}), s_i's child is
    s_{i+1} when that label is new, else the next label absent from s."""
    word = [int(v) for v in word]
    N = len(word) + 2
    s = [N] + word
    absent = iter(sorted(set(range(1, N + 1)) - set(s)))
    seen: set[int] = set()
    edges = []
    for i, parent in enumerate(s):
        seen.add(parent)
        new = i + 1 < len(s) and s[i + 1] not in seen
        edges.append((parent, s[i + 1] if new else next(absent)))
    return LabeledTree(N, tuple(edges))


def joined(groups) -> np.ndarray:
    """The rows of the row groups that a sampler yields, as one array."""
    return np.concatenate([rows for rows, _ in groups])


def class_rows(spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator):
    """The class rows of ``size`` draws, all at once: the profiles of
    ``sample_profiles`` laid out and permuted by ``sample_class_sequences``."""
    return sample_class_sequences(spec, sample_profiles(spec, N, size, rng), rng)


def whole_block_draw(spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator):
    """The ``size`` trees of one RNG block, every step over the whole block
    in int64: the profiles of ``sample_profiles``, laid out as class rows and
    permuted on ``rng``, then (labeled) each row's vertex labels repeated
    deg - 1 times and permuted on ``rng`` jumped ahead once after the
    profiles, or (plane) each row rotated by the cycle lemma.  Returns the
    word rows (labeled) or the child-count rows (plane)."""
    profiles = sample_profiles(spec, N, size, rng)
    word_rng = np.random.Generator(rng.bit_generator.jumped())
    classes = np.repeat(np.tile(spec.classes(), size), profiles.ravel()).reshape(size, N)
    rng.permuted(classes, axis=1, out=classes)
    if spec.kind is Kind.PLANE:
        return np.array([np.roll(row, -cycle_lemma_rotation(row - 1)) for row in classes])
    labels = np.tile(np.arange(1, N + 1, dtype=np.int64), size)
    words = np.repeat(labels, (classes - 1).ravel()).reshape(size, N - 2)
    return word_rng.permuted(words, axis=1, out=words)


def reference_sample_text(
    spec: EnsembleSpec, N: int, samples: int, seed: int, block: int
) -> str:
    """The tree text of ``sample``: blocks of ``block`` trees, block i drawn
    by ``whole_block_draw`` from ``rng_stream(seed, i)``, printed one tree at
    a time (``word_tree`` for labeled words)."""
    text = []
    for index, start in enumerate(range(0, samples, block)):
        rows = whole_block_draw(spec, N, min(block, samples - start), rng_stream(seed, index))
        if spec.kind is Kind.LABELED:
            text += [word_tree(word).to_text() + "\n" for word in rows]
        else:
            text += [PlaneTree(tuple(row)).to_text() for row in rows]
    return "".join(text)


def tree_key(tree, spec: EnsembleSpec) -> tuple[int, ...]:
    """Canonical hashable identity: the Prufer code or the child-count row."""
    if spec.kind is Kind.LABELED:
        return prufer_encode(tree)
    return tree.child_counts


def gibbs_tree_law(spec: EnsembleSpec, N: int) -> dict[tuple[int, ...], float]:
    """Exact Gibbs law over individual trees by exhaustive enumeration."""
    if spec.kind is Kind.LABELED:
        trees = [t for t in labeled_trees(N) if int(t.degrees().max()) <= spec.D]
    else:
        trees = list(plane_trees(N, spec.D))
    weights = {tree_key(t, spec): math.exp(-spec.beta * energy_of(t, spec)) for t in trees}
    z = sum(weights.values())
    return {k: w / z for k, w in weights.items()}


def gibbs_profile_law(spec: EnsembleSpec, N: int) -> dict[tuple[int, ...], float]:
    """Exact law of the class profile by exhaustive enumeration."""
    if spec.kind is Kind.LABELED:
        trees = [t for t in labeled_trees(N) if int(t.degrees().max()) <= spec.D]
    else:
        trees = list(plane_trees(N, spec.D))
    weights: dict[tuple[int, ...], float] = {}
    for t in trees:
        key = tuple(chi_of(t, spec).tolist())
        weights[key] = weights.get(key, 0.0) + math.exp(-spec.beta * energy_of(t, spec))
    z = sum(weights.values())
    return {k: w / z for k, w in weights.items()}


def brute_force_log_partition(spec: EnsembleSpec, N: int) -> float:
    """ln sum_T exp(-beta H(T)) by exhaustive enumeration."""
    if spec.kind is Kind.LABELED:
        trees = [t for t in labeled_trees(N) if int(t.degrees().max()) <= spec.D]
    else:
        trees = list(plane_trees(N, spec.D))
    energies = np.array([energy_of(t, spec) for t in trees])
    scaled = -spec.beta * energies
    m = scaled.max()
    return float(m + np.log(np.exp(scaled - m).sum()))


def dp_log_partition(spec: EnsembleSpec, N: int) -> float:
    """ln Z_N read off the final cell of the forward DP (``build_dp``);
    raises NoFeasibleTree when Z_N = 0."""
    dp = build_dp(spec, N)
    if dp.log_final == -math.inf:
        raise NoFeasibleTree(f"no {spec.kind.value} tree on {N} vertices fits D={spec.D}")
    if spec.kind is Kind.LABELED:
        return dp.log_final + log_factorial(N - 2)
    return dp.log_final - math.log(N)


def iter_profiles(k_min: int, D: int, total: int, weighted: int):
    """Independent enumeration of class profiles with the two linear
    constraints sum n = total and sum k n_k = weighted (pruned recursion)."""
    results: list[tuple[int, ...]] = []

    def rec(k: int, rem_t: int, rem_w: int, acc: list[int]) -> None:
        if k == k_min:
            if rem_w == k_min * rem_t and rem_t >= 0 and rem_w >= 0:
                results.append(tuple([rem_t] + acc))
            return
        top = rem_t if k == 0 else min(rem_t, rem_w // k)
        for m in range(top + 1):
            rec(k - 1, rem_t - m, rem_w - k * m, [m] + acc)

    rec(D, total, weighted, [])
    return results


def log_count_by_profile(kind: Kind, N: int, profile) -> float:
    """ln of the number of trees with class profile ``profile`` (one count
    per class from k_min): the library's row form at beta = 0."""
    counts = np.asarray(profile, dtype=np.int64)
    spec = EnsembleSpec(kind, counts.size - 1 + kind.k_min, 0.0, (0.0,) * counts.size)
    return float(profile_log_weights(spec, N, counts[None, :])[0])


def iter_feasible_profiles(spec: EnsembleSpec, N: int):
    return iter_profiles(spec.k_min, spec.D, N, spec.kind.class_sum(N))


def assert_same_text(got: str, expected: str) -> None:
    """Equality of two long texts, reporting the first differing line
    (pytest's own diff of multi-megabyte strings takes minutes)."""
    if got == expected:
        return
    got_lines, exp_lines = got.splitlines(True), expected.splitlines(True)
    for i, (a, b) in enumerate(zip(got_lines, exp_lines)):
        if a != b:
            raise AssertionError(f"line {i + 1} differs: {a!r} != {b!r}")
    raise AssertionError(f"{len(got_lines)} lines != {len(exp_lines)} expected lines")


def chi_square_check(
    observed: dict, expected_probs: dict, total: int, significance: float = 0.001
) -> tuple[float, float]:
    """Goodness-of-fit statistic and its rejection threshold.

    Categories with expected count below 5 are pooled into one bin so the
    asymptotic chi-square distribution applies.  Returns (statistic,
    critical value at the given significance); the test passes when
    statistic < critical.
    """
    keys = sorted(expected_probs)
    exp = np.array([expected_probs[k] * total for k in keys])
    obs = np.array([observed.get(k, 0) for k in keys], dtype=np.float64)
    unseen = set(observed) - set(keys)
    assert not unseen, f"observed categories outside the support: {sorted(unseen)[:3]}"
    big = exp >= 5.0
    if big.all():
        exp_bins, obs_bins = exp, obs
    else:
        exp_bins = np.append(exp[big], exp[~big].sum())
        obs_bins = np.append(obs[big], obs[~big].sum())
    assert exp_bins.min() > 0
    stat = float(((obs_bins - exp_bins) ** 2 / exp_bins).sum())
    dof = exp_bins.size - 1
    critical = float(chi2.ppf(1.0 - significance, dof))
    return stat, critical


def random_manifold_point(
    spec: EnsembleSpec, rng: np.random.Generator, interior_floor: float = 0.0
) -> np.ndarray:
    """Rejection-sample a point of M through the free-coordinate chart."""
    n_free = spec.n_classes - 2
    if n_free == 0:
        p = np.zeros(spec.n_classes)
        p[-1] = 1.0
        return p
    while True:
        u = rng.random(n_free) * (0.9 / max(1, n_free))
        p = from_free_coordinates(spec, u)
        if p.min() >= interior_floor:
            return p
