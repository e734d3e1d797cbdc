import math

import numpy as np

from treegibbs import EnsembleSpec, kernels, treegen
from treegibbs.partition import build_dp


def _reference_dp(logw, n, budget):
    # straightforward python reference
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
    # plane D=3 at beta=1 has class log weights -c(k), and budget N-1
    got = build_dp(EnsembleSpec.plane(3, 1.0, tuple(-logw)), 12).W
    ref = _reference_dp(list(logw), 12, 11)
    np.testing.assert_allclose(got, ref, atol=1e-12)


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
    starts = treegen._lukasiewicz_starts(counts)
    cols = (starts[:, None] + np.arange(counts.shape[1])) % counts.shape[1]
    walks = np.cumsum(np.take_along_axis(counts, cols, axis=1) - 1, axis=1)
    assert (walks[:, :-1] >= 0).all()
    np.testing.assert_array_equal(walks[:, -1], -1)


def test_backend_selection_reported():
    assert kernels.BACKEND == "numpy"
