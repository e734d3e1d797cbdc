import math

import numpy as np

from treegibbs import kernels


def _reference_dp(logw, n, budget):
    # straightforward python reference, independent of both backends
    K = len(logw) - 1
    W = [[float("-inf")] * (budget + 1) for _ in range(n + 1)]
    W[0][0] = 0.0
    for i in range(1, n + 1):
        for s in range(budget + 1):
            terms = []
            for k in range(min(K, s) + 1):
                v = W[i - 1][s - k] + logw[k]
                if v > float("-inf"):
                    terms.append(v)
            if terms:
                m = max(terms)
                W[i][s] = m + math.log(sum(math.exp(t - m) for t in terms))
    return np.array(W)


def test_dp_forward_matches_reference():
    rng = np.random.default_rng(0)
    logw = rng.normal(size=4)
    got = kernels.dp_forward(logw, 12, 11)
    ref = _reference_dp(list(logw), 12, 11)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_backward_sample_rows_sum_to_budget():
    rng = np.random.default_rng(2)
    logw = rng.normal(size=4)
    W = kernels.dp_forward(logw, 15, 14)
    uniforms = np.random.default_rng(3).random((200, 15))
    rows = kernels.backward_sample(W, logw, 14, uniforms)
    np.testing.assert_array_equal(rows.sum(axis=1), np.full(200, 14))


def test_fisher_yates_rows_are_permutations():
    rng = np.random.default_rng(4)
    rows = np.tile(np.arange(9, dtype=np.int64), (50, 1))
    kernels.fisher_yates_rows(rows, rng.random((50, 8)))
    np.testing.assert_array_equal(np.sort(rows, axis=1), np.tile(np.arange(9), (50, 1)))


def test_fisher_yates_is_uniform():
    rng = np.random.default_rng(5)
    rows = np.tile(np.arange(3, dtype=np.int64), (60_000, 1))
    kernels.fisher_yates_rows(rows, rng.random((60_000, 2)))
    _, counts = np.unique(rows, axis=0, return_counts=True)
    assert counts.size == 6
    expected = 10_000.0
    stat = (((counts - expected) ** 2) / expected).sum()
    assert stat < 20.5  # chi2.ppf(0.999, 5)


def test_rotation_gives_lukasiewicz_paths():
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 3, size=(300, 9))
    counts[:, -1] = 0
    # force each row's steps to sum to -1 by adjusting the first column
    deficit = counts.sum(axis=1) - (counts.shape[1] - 1)
    counts[:, 0] = np.maximum(counts[:, 0] - deficit, 0)
    keep = counts.sum(axis=1) == counts.shape[1] - 1
    counts = np.ascontiguousarray(counts[keep], dtype=np.int64)
    assert counts.shape[0] > 0
    starts = kernels.lukasiewicz_starts(counts - 1)
    walks = np.cumsum(kernels.rotate_rows(counts, starts) - 1, axis=1)
    assert (walks[:, :-1] >= 0).all()
    np.testing.assert_array_equal(walks[:, -1], -1)


def test_backend_selection_reported():
    assert kernels.BACKEND == "numpy"
