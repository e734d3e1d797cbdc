"""Exact log-domain counting for labeled and plane trees.

Tree counts overflow 64-bit integers long before the sizes we care about
(N ~ a few thousand), so every count lives in log space from the start.
A quantity ``x >= 0`` is represented by ``ln x`` as a plain float, with
``-inf`` encoding zero.  The counts by profile are
``partition.profile_log_weights`` at beta = 0, for whole rows of profiles.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

NEG_INF = float("-inf")

#: Below this m the table holds the log of the exact integer m!; from it on,
#: the Stirling series to 1/m^3, whose truncation error 1/(1260 m^5) is there
#: below 1e-18, far under the ulp of ln m! (about 1e-12).
_EXACT_BELOW = 1024

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_log_factorials(start: int, stop: int) -> np.ndarray:
    """ln(m!) for m = start..stop-1 (start >= _EXACT_BELOW) by the Stirling
    series, within a few ulp of the exact value."""
    x = np.arange(start, stop, dtype=np.float64)
    series = (1 / 12 - 1 / (360 * x * x)) / x
    return (x + 0.5) * np.log(x) - x + _HALF_LOG_2PI + series


# Table of ln(m!) for m = 0..len-1, grown geometrically on demand.  At
# m ~ 1e6 the value itself is ~1.3e7, so absolute accuracy is bounded below
# by its ulp (~2e-9) while relative accuracy stays at ~1e-15.
_lfact_table = np.array(
    [math.log(f) for f in itertools.accumulate(range(1, _EXACT_BELOW), operator.mul, initial=1)]
)


def _ensure_table(m: int) -> None:
    global _lfact_table
    if m >= _lfact_table.size:
        size = max(m + 1, 2 * _lfact_table.size)
        _lfact_table = np.concatenate(
            [_lfact_table, _stirling_log_factorials(_lfact_table.size, size)]
        )


def log_factorial(m: int) -> float:
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


def log_sum(values) -> float:
    """ln sum(e^v) over an array, max-shifted; -inf for an empty/zero sum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return NEG_INF
    m = arr.max()
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.exp(arr - m).sum()))
