"""Hot numeric kernels, vectorized with numpy.

The kernels consume pre-drawn uniforms rather than generating randomness
internally, so a sampling run is reproducible from the seed alone.

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


def backward_sample(
    W: np.ndarray, logw: np.ndarray, budget: int, uniforms: np.ndarray
) -> np.ndarray:
    """Sample shifted class sequences from the DP factorization.

    Row m of the result is drawn with probability proportional to
    ``prod_i exp(logw[c_i])`` over words with class sum ``budget``, using
    one uniform per vertex: at step ``i`` (vertices remaining) class k is
    picked with probability W[i-1, s-k] * w_k / W[i, s].
    """
    n_samples, n_vertices = uniforms.shape
    K = logw.size - 1
    ks = np.arange(K + 1)
    out = np.empty((n_samples, n_vertices), dtype=np.int64)
    s = np.full(n_samples, budget, dtype=np.int64)
    for step in range(n_vertices):
        i = n_vertices - step
        idx = s[:, None] - ks[None, :]
        valid = idx >= 0
        gw = np.where(valid, W[i - 1][np.where(valid, idx, 0)] + logw[None, :], _NEG_INF)
        mx = gw.max(axis=1, keepdims=True)
        probs = np.exp(gw - mx)
        cum = np.cumsum(probs, axis=1)
        r = uniforms[:, step] * cum[:, -1]
        choice = (cum < r[:, None]).sum(axis=1)
        np.clip(choice, 0, K, out=choice)
        out[:, step] = choice
        s -= choice
    return out


def fisher_yates_rows(rows: np.ndarray, uniforms: np.ndarray) -> None:
    """In-place Fisher-Yates shuffle of each row; uniforms has L-1 columns."""
    n_samples, length = rows.shape
    if length < 2:
        return
    ridx = np.arange(n_samples)
    for col, j in enumerate(range(length - 1, 0, -1)):
        r = (uniforms[:, col] * (j + 1)).astype(np.int64)
        tmp = rows[ridx, j].copy()
        rows[ridx, j] = rows[ridx, r]
        rows[ridx, r] = tmp


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
