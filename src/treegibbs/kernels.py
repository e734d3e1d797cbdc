"""Numeric kernels, vectorized with numpy: the cycle-lemma rotation of the
plane sampler, and the forward DP behind ``partition.build_dp``, the tests'
reference for ln Z_N.  None of them draws random numbers.

Kernel conventions: class values are already shifted to ``0..K`` (degree
minus one for labeled trees, raw child count for plane trees) and ``budget``
is the shifted class sum (``N - 2`` labeled, ``N - 1`` plane).
"""

from __future__ import annotations

import numpy as np

#: Name of the kernel implementation; ``perfbench/run.py:probe`` reads it for
#: the provenance record.
BACKEND = "numpy"

_NEG_INF = -np.inf


def dp_forward(logw: np.ndarray, n_vertices: int, budget: int) -> np.ndarray:
    """Forward DP table W[i, s] = ln sum over class words of length i with
    shifted class sum s of the product of per-class weights."""
    K = logw.size - 1
    W = np.full((n_vertices + 1, budget + 1), _NEG_INF)
    W[0, 0] = 0.0
    shifted = np.empty(budget + 1)
    for i in range(1, n_vertices + 1):
        prev = W[i - 1]
        acc = np.full(budget + 1, _NEG_INF)
        for k in range(min(K, budget) + 1):
            if logw[k] == _NEG_INF:
                continue
            shifted[:k] = _NEG_INF
            shifted[k:] = prev[: budget + 1 - k] + logw[k]
            np.logaddexp(acc, shifted, out=acc)
        W[i] = acc
    return W


def lukasiewicz_starts(steps: np.ndarray) -> np.ndarray:
    """Rotation start index per row making the row a Lukasiewicz path.

    For a step word summing to -1 the unique valid rotation starts right
    after the first position attaining the minimal prefix sum.
    """
    prefix = np.cumsum(steps, axis=1)
    first_min = prefix.argmin(axis=1)
    return (first_min + 1) % steps.shape[1]


def rotate_rows(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Row m of the result is ``rows[m]`` rotated left by ``starts[m]``."""
    n_samples, length = rows.shape
    cols = (starts[:, None] + np.arange(length)[None, :]) % length
    return rows[np.arange(n_samples)[:, None], cols]
