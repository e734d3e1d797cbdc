"""Exact log-domain counting for labeled and plane trees.

Tree counts overflow 64-bit integers long before the sizes we care about
(N ~ a few thousand), so every count lives in log space from the start.
A quantity ``x >= 0`` is represented by ``ln x`` as a plain float, with
``-inf`` encoding zero; the ``LogReal`` alias marks that convention in
signatures.

The two closed-form counts:

* labeled trees with degree sequence d_1..d_N:
  ``multinomial(N - 2; d_1 - 1, ..., d_N - 1)`` when ``sum d = 2N - 2``,
  zero otherwise;
* labeled trees with degree profile n (n_k vertices of degree k):
  ``(N-2)! / prod_k ((k-1)!)^{n_k} * multinomial(N; n)``;
* plane trees with child-count profile n:
  ``(1/N) * multinomial(N; n_0, n_1, ...)`` when ``sum k n_k = N - 1``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .ensembles import CountVector, Kind
from .errors import SumMismatch

LogReal = float

NEG_INF = float("-inf")

# Table of ln(m!) for m = 0..len-1, grown geometrically on demand.  Entries
# come from lgamma, accurate to a few ulp each; at m ~ 1e6 the value itself
# is ~1.3e7, so absolute accuracy is bounded below by its ulp (~2e-9) while
# relative accuracy stays at ~1e-15.
_lfact_table = gammaln(np.arange(1, 1025, dtype=np.float64))


def _ensure_table(m: int) -> None:
    global _lfact_table
    if m >= _lfact_table.size:
        size = max(m + 1, 2 * _lfact_table.size)
        _lfact_table = gammaln(np.arange(1, size + 1, dtype=np.float64))


def log_factorial(m: int) -> LogReal:
    """ln(m!) for a nonnegative integer m."""
    m = int(m)
    if m < 0:
        raise ValueError("factorial argument must be nonnegative")
    _ensure_table(m)
    return float(_lfact_table[m])


def log_factorials(values) -> np.ndarray:
    """Vectorized ln(m!) over an integer array."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError("factorial argument must be nonnegative")
    _ensure_table(int(arr.max()) if arr.size else 0)
    return _lfact_table[arr]


def log_add(a: LogReal, b: LogReal) -> LogReal:
    """ln(e^a + e^b), stable, with -inf as the additive identity."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    return float(np.logaddexp(a, b))


def log_sum(values) -> LogReal:
    """ln sum(e^v) over an array, max-shifted; -inf for an empty/zero sum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return NEG_INF
    m = arr.max()
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.exp(arr - m).sum()))


def _counts_array(n) -> np.ndarray:
    if isinstance(n, CountVector):
        return n.as_array()
    return np.asarray(n, dtype=np.int64)


def log_multinomial(N: int, n) -> LogReal:
    """ln of the multinomial coefficient N! / prod_k n_k!.

    Raises SumMismatch when the parts do not sum to N.
    """
    counts = _counts_array(n)
    if counts.sum() != N:
        raise SumMismatch(f"parts sum to {counts.sum()}, expected {N}")
    return float(log_factorial(N) - log_factorials(counts).sum())


def log_labeled_count_by_degrees(degrees) -> LogReal:
    """ln of the number of labeled trees with the given degree sequence.

    Returns -inf when the degree sum is not 2N - 2 (no such tree).
    """
    d = np.asarray(degrees, dtype=np.int64)
    N = d.size
    if N < 2:
        raise ValueError("need at least 2 vertices")
    if d.min() < 1:
        raise ValueError("degrees must be >= 1")
    if d.sum() != 2 * N - 2:
        return NEG_INF
    return float(log_factorial(N - 2) - log_factorials(d - 1).sum())


def log_labeled_count_by_profile(N: int, n) -> LogReal:
    """ln of the number of labeled N-trees with degree profile n.

    ``n[k-1]`` counts vertices of degree k.  Returns -inf for infeasible
    profiles (degree sum != 2N - 2); raises SumMismatch when the profile
    does not account for all N vertices.
    """
    counts = _counts_array(n)
    if counts.sum() != N:
        raise SumMismatch(f"profile sums to {counts.sum()}, expected {N}")
    ks = np.arange(1, counts.size + 1)
    if (ks * counts).sum() != 2 * N - 2:
        return NEG_INF
    word_part = log_factorial(N - 2) - (counts * log_factorials(ks - 1)).sum()
    return float(word_part + log_multinomial(N, counts))


def log_plane_count_by_profile(N: int, n) -> LogReal:
    """ln of the number of plane trees of order N with child-count profile n.

    ``n[k]`` counts vertices with k children.  Returns -inf when
    ``sum k n_k != N - 1``.
    """
    counts = _counts_array(n)
    if counts.sum() != N:
        raise SumMismatch(f"profile sums to {counts.sum()}, expected {N}")
    ks = np.arange(counts.size)
    if (ks * counts).sum() != N - 1:
        return NEG_INF
    return float(log_multinomial(N, counts) - np.log(N))


def log_count_by_profile(kind: Kind, N: int, n) -> LogReal:
    """Dispatch on ensemble kind."""
    if kind is Kind.LABELED:
        return log_labeled_count_by_profile(N, n)
    return log_plane_count_by_profile(N, n)
