"""Numerical verification of the LDP and LLN at finite N.

Everything here is an exact lattice computation (no Monte Carlo): ball and
tail probabilities are ratios of two log-sum-exps of the profiles' log
weights (the ball or tail, and the rest), which ``partition.log_mass``
folds block by block over the cut of the profile lattice that ln Z_N and
the lattice's size place with no walk (``partition.ProfileCut``), and
again at a lower cut when the first does not certify both sums.  Memory is
bounded by ``partition.LATTICE_BYTES``.  Time grows like the kept
profiles, about (N ln N)^(d/2) on a lattice of dimension d (D-2 for
labeled, D-1 for plane profiles), plus the N^(d-1) rows, per fold.
Finite-size rates ``r_N = -(1/N) ln P(ball)`` are compared against the
rate function, with a discrepancy that decays like O(ln N / N) plus an
O(eps) smearing from the ball radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import NEG_INF
from .ensembles import EnsembleSpec, frequency_array
from .partition import log_mass
from .rate import RateContext, rate_value, solve_pstar


def log_prob_ball(spec: EnsembleSpec, N: int, center, eps: float) -> float:
    """ln P_N{ |chi/N - center|_1 <= eps } over the closed l1 ball.

    The center may be any vector in [0,1]^K (``frequency_array``), on or
    off the manifold.  Returns -inf when no feasible profile falls inside the ball.  The
    lattice is streamed, never held: one batch of its rows and one block of
    their points hold at most ``partition.LATTICE_BYTES`` at any N.
    """
    if not eps > 0:  # NaN fails too
        raise ValueError(f"eps must be positive, got {eps!r}")
    return log_mass(spec, N, frequency_array(spec, center), lambda dist: dist <= eps)


@dataclass(frozen=True, eq=False)
class RateTableRow:
    """One convergence-table row: exact ball mass against the rate function."""

    N: int
    eps: float
    log_prob: float
    rate: float
    rate_limit: float  # I(p)
    gap: float  # rate - I(p)


def convergence_table(
    spec: EnsembleSpec,
    n_values,
    p,
    eps: float,
    *,
    ctx: RateContext | None = None,
) -> list[RateTableRow]:
    """Exact finite-N rates at a fixed on-manifold target ``p`` for
    increasing N; raises ValueError (``frequency_array``) or OffManifold
    when ``p`` is not a point of the manifold."""
    n_values = [int(v) for v in n_values]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("N values must be strictly increasing")
    if ctx is None:
        ctx = solve_pstar(spec)
    target = frequency_array(spec, p)
    limit = rate_value(target, ctx)
    rows = []
    for N in n_values:
        lp = log_prob_ball(spec, N, target, eps)
        rate = float("inf") if lp == NEG_INF else -lp / N
        rows.append(
            RateTableRow(
                N=N,
                eps=eps,
                log_prob=lp,
                rate=rate,
                rate_limit=limit,
                gap=rate - limit,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# law of large numbers


def lln_tail(
    spec: EnsembleSpec,
    N: int,
    delta: float,
    *,
    ctx: RateContext | None = None,
) -> float:
    """Exact tail P_N{ |chi/N - p*|_1 > delta } by lattice summation.

    Streamed like ``log_prob_ball``; 0.0 when no feasible profile lies
    outside the ball.
    """
    if not delta > 0:  # NaN fails too
        raise ValueError(f"delta must be positive, got {delta!r}")
    if ctx is None:
        ctx = solve_pstar(spec)
    lp = log_mass(spec, N, ctx.pstar, lambda dist: dist > delta)
    return 0.0 if lp == NEG_INF else math.exp(lp)
