"""Reference constructions that the tests compare the library against.

None of these is on a command's path.  They are the materialized law of
chi, ln Z_N folded over the lattice's row cut, the closed-form tree counts,
the Prufer encoder, the cycle lemma for one step word, the enumerated trees
as objects (and read back from their text) with the profile and energy of
one tree, the brute-force minimizer of J on the rate grid, the
free-coordinate chart of the manifold M with the analytic gradient of J,
the coupling of the LDP proof, and the profile sampler's rejection loop
with each batch of proposals drawn as one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from treegibbs import (
    EnsembleSpec,
    Kind,
    KindMismatch,
    LabeledTree,
    NoFeasibleTree,
    NotATree,
    OffManifold,
    SumMismatch,
    TreeGibbsError,
    enumerate_labeled_trees,
    enumerate_plane_trees,
    j_values,
    log_factorial,
    log_sum,
    sample_profiles,
)
from treegibbs.combinatorics import log_factorials
from treegibbs.ensembles import frequency_array
from treegibbs.partition import (
    CUT_SLACK,
    MAX_PROPOSALS_PER_HIT,
    PROPOSAL_CELLS,
    _RowCut,
    _RunningLogSum,
    _sample_cut,
    check_log_weights,
    enumerate_profiles,
    lattice_rows,
    profile_log_weights,
    shifted_budget,
    tilt,
)
from treegibbs.rate import manifold_point
from treegibbs.treegen import _lukasiewicz_starts

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# the law of chi and closed-form counts


def chi_law(spec: EnsembleSpec, N: int) -> dict[tuple[int, ...], float]:
    """Exact law of chi, profile -> probability, normalized by itself: every
    feasible profile's log weight less the log-sum-exp of all of them, which
    is ln Z_N.  Raises NoFeasibleTree when no profile is feasible."""
    profiles = enumerate_profiles(spec, N)
    if profiles.shape[0] == 0:
        raise NoFeasibleTree(f"no feasible {spec.kind.value} profile at N={N} with D={spec.D}")
    lw = profile_log_weights(spec, N, profiles)
    lw -= lw.max()  # exact near the max, where the mass is
    return dict(zip(map(tuple, profiles.tolist()), np.exp(lw - log_sum(lw)).tolist()))


def walk_points(spec: EnsembleSpec, N: int) -> int:
    """The number of feasible profiles, counted row by row over the walk."""
    rows = lattice_rows(spec.n_classes, N, spec.kind.budget(N))
    return sum(int((batch.hi - batch.lo + 1).sum()) for batch in rows)


def fold_log_partition(spec: EnsembleSpec, N: int) -> float:
    """ln Z_N as the log-sum-exp of the profile log weights of the lattice,
    folded over the row cut at tau = L - ln(points) - CUT_SLACK: a first
    walk of the rows finds L, the largest log weight, and the point count,
    and a second folds the profiles above tau, which leaves out under
    e^(L - CUT_SLACK) <= e^-CUT_SLACK Z_N.  No Miller recurrence: the second
    reference for ln Z beside the DP.  Raises NoFeasibleTree when no
    profile is feasible."""
    check_log_weights(spec, N)

    def row_cuts():
        for rows in lattice_rows(spec.n_classes, N, spec.kind.budget(N)):
            yield _RowCut(spec, N, rows)

    points, top = 0, NEG_INF
    for cut in row_cuts():
        points += int((cut.rows.hi - cut.rows.lo + 1).sum())
        top = max(top, float(cut.top.max()))
    if not points:
        raise NoFeasibleTree(f"no feasible {spec.kind.value} profile at N={N} with D={spec.D}")
    tau = top - math.log(points) - CUT_SLACK
    total = _RunningLogSum()
    for cut in row_cuts():
        first, last = cut.interval(tau)
        for i, m2 in cut.rows.pairs(first, last, 8 * 10):
            total.add(cut.log_weights(m2, i))
    return total.log()


def log_multinomial(N: int, n) -> float:
    """ln of the multinomial coefficient N! / prod_k n_k!.

    Raises SumMismatch when the parts do not sum to N.
    """
    counts = np.asarray(n, dtype=np.int64)
    if counts.sum() != N:
        raise SumMismatch(f"parts sum to {counts.sum()}, expected {N}")
    return float(log_factorial(N) - log_factorials(counts).sum())


def log_labeled_count_by_degrees(degrees) -> float:
    """ln of the number of labeled trees with the given degree sequence,
    ``multinomial(N - 2; d_1 - 1, ..., d_N - 1)``; -inf when the degree sum
    is not 2N - 2 (no such tree)."""
    d = np.asarray(degrees, dtype=np.int64)
    N = d.size
    if N < 2:
        raise ValueError("need at least 2 vertices")
    if d.min() < 1:
        raise ValueError("degrees must be >= 1")
    if d.sum() != 2 * N - 2:
        return NEG_INF
    return float(log_factorial(N - 2) - log_factorials(d - 1).sum())


# ---------------------------------------------------------------------------
# single-tree codecs


def prufer_encode(tree: LabeledTree) -> tuple[int, ...]:
    """Inverse of ``prufer_decode``; raises NotATree for invalid edge lists."""
    N = tree.n_vertices
    if len(tree.edges) != N - 1:
        raise NotATree(f"{len(tree.edges)} edges for {N} vertices")
    adj: list[set[int]] = [set() for _ in range(N + 1)]
    for u, v in tree.edges:
        if v in adj[u]:
            raise NotATree(f"duplicate edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
    # connectivity via union-find
    parent = list(range(N + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise NotATree(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
    if N == 2:
        return ()
    deg = [len(adj[v]) for v in range(N + 1)]
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    code = []
    for _ in range(N - 2):
        nb = next(iter(adj[leaf]))
        code.append(nb)
        adj[nb].discard(leaf)
        adj[leaf].clear()
        deg[nb] -= 1
        deg[leaf] = 0
        if deg[nb] == 1 and nb < ptr:
            leaf = nb
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return tuple(code)


class BadStepSum(TreeGibbsError, ValueError):
    """Step word does not sum to -1."""


def cycle_lemma_rotation(word) -> int:
    """Start index of the unique rotation of ``word`` that is a valid
    Lukasiewicz path, by the samplers' ``treegen._lukasiewicz_starts``.

    ``word`` is a sequence of integer steps >= -1 summing to -1; the valid
    rotation starts right after the first position attaining the minimal
    prefix sum.  Already-valid words return 0.
    """
    steps = np.asarray([int(v) for v in word], dtype=np.int64)
    if steps.size == 0:
        raise BadStepSum("empty step word")
    if steps.min() < -1:
        raise ValueError("steps must be >= -1")
    if int(steps.sum()) != -1:
        raise BadStepSum(f"steps sum to {int(steps.sum())}, expected -1")
    start = int(_lukasiewicz_starts(steps[None, :] + 1)[0])
    walk = np.cumsum(np.roll(steps, -start))
    assert walk[-1] == -1 and (walk[:-1] >= 0).all(), "cycle lemma rotation invalid"
    return start


# ---------------------------------------------------------------------------
# per-tree objects and statistics, built from the enumerators' arrays


class DegreeBoundExceeded(TreeGibbsError, ValueError):
    """Tree contains a vertex whose degree/branching exceeds the bound."""


@dataclass(frozen=True)
class PlaneTree:
    """Plane (ordered rooted) tree as its preorder child-count sequence."""

    child_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(v) for v in self.child_counts)
        object.__setattr__(self, "child_counts", counts)
        walk = 0
        for i, c in enumerate(counts):
            if c < 0:
                raise ValueError("child counts must be nonnegative")
            walk += c - 1
            if walk < 0 and i < len(counts) - 1:
                raise ValueError("invalid preorder sequence: walk hits -1 early")
        if walk != -1:
            raise ValueError("invalid preorder sequence: walk must end at -1")

    @property
    def n_vertices(self) -> int:
        return len(self.child_counts)

    def to_text(self) -> str:
        return " ".join(str(c) for c in self.child_counts) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PlaneTree":
        return cls(tuple(int(v) for v in text.split()))


def labeled_tree_from_text(text: str) -> LabeledTree:
    """The ``LabeledTree`` of the "u v" edge lines of ``LabeledTree.to_text``;
    N is the largest label."""
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    n = max(max(e) for e in edges) if edges else 2
    return LabeledTree(n, tuple(edges))


def labeled_trees(N: int) -> Iterator[LabeledTree]:
    """The rows of ``enumerate_labeled_trees(N)`` as ``LabeledTree`` objects,
    in its order."""
    trees = enumerate_labeled_trees(N).tolist()
    return (LabeledTree(N, tuple(map(tuple, edges))) for edges in trees)


def plane_trees(N: int, D: int) -> Iterator[PlaneTree]:
    """The rows of ``enumerate_plane_trees(N, D)`` as ``PlaneTree`` objects,
    in its order."""
    return (PlaneTree(tuple(row)) for row in enumerate_plane_trees(N, D).tolist())


def chi_of(tree, spec: EnsembleSpec) -> np.ndarray:
    """Class-count vector (int64) of one tree object; raises
    DegreeBoundExceeded past D."""
    if isinstance(tree, LabeledTree):
        kind, values = Kind.LABELED, tree.degrees()
    elif isinstance(tree, PlaneTree):
        kind, values = Kind.PLANE, np.asarray(tree.child_counts, dtype=np.int64)
    else:
        raise TypeError(f"not a tree: {tree!r}")
    if spec.kind is not kind:
        raise KindMismatch(f"chi of a {kind.value} tree needs a {kind.value} spec")
    if values.size and int(values.max()) > spec.D:
        raise DegreeBoundExceeded(
            f"tree has class {int(values.max())}, spec bound is {spec.D}"
        )
    return np.bincount(values - spec.k_min, minlength=spec.n_classes).astype(np.int64)


def energy_of(tree, spec: EnsembleSpec) -> float:
    """Gibbs energy H(T) = sum_k c(k) chi_k(T)."""
    return float(chi_of(tree, spec) @ spec.energies())


# ---------------------------------------------------------------------------
# the rate function: its terms, the grid minimizer and the free-coordinate chart


def entropy(p) -> float:
    """Shannon entropy -sum p_k ln p_k with the 0 ln 0 = 0 convention."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < -1e-12):
        raise ValueError("entropy needs nonnegative entries")
    pos = arr[arr > 0]
    return float(-(pos * np.log(pos)).sum())


def g_term(spec: EnsembleSpec, p) -> float:
    """Combinatorial term G(p) = sum p_k ln((k-1)!), labeled kind only.

    Identically zero when D <= 2 since ln 0! = ln 1! = 0.
    """
    if spec.kind is not Kind.LABELED:
        raise KindMismatch("G(p) is only defined for labeled ensembles")
    return float(frequency_array(spec, p) @ log_factorials(spec.classes() - 1))


def on_manifold(spec: EnsembleSpec, p) -> bool:
    """True iff ``rate.manifold_point`` accepts ``p`` as a point of M."""
    try:
        manifold_point(spec, p)
    except OffManifold:
        return False
    return True


def grid_minimize_J(spec: EnsembleSpec, resolution: int) -> np.ndarray:
    """Brute-force minimizer of J: the first point of the rate grid at
    1/resolution (in ``rate.manifold_grid`` order) with the least J,
    streamed over the walk of ``rate.grid_inf_rate`` in blocks of
    ``LatticeRows.pairs``, each built into its grid points whole."""
    best, point = np.inf, None
    for rows in lattice_rows(spec.n_classes, resolution, resolution):
        for i, m2 in rows.pairs(rows.lo, rows.hi, 4 * 8 * spec.n_classes):
            grid = rows.profiles(i, m2) / resolution
            vals = j_values(spec, grid)
            k = int(np.argmin(vals))
            if vals[k] < best:
                best, point = vals[k], grid[k]
    return point


# M is parameterized by the free coordinates p_k for k >= k_min + 2; the two
# lowest classes follow from the constraints:
#   p_{k_min} = sum (k - k_min - 1) u_k,   p_{k_min+1} = 1 - sum (k - k_min) u_k


def free_classes(spec: EnsembleSpec) -> np.ndarray:
    return np.arange(spec.k_min + 2, spec.D + 1)


def _pinned_coefficients(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """d p_{k_min} / d u_k and d p_{k_min+1} / d u_k over the free classes."""
    shifted = (free_classes(spec) - spec.k_min).astype(np.float64)
    return shifted - 1.0, -shifted


def from_free_coordinates(spec: EnsembleSpec, u: np.ndarray) -> np.ndarray:
    """Manifold points from free coordinates; rows may have negative pinned
    entries when u leaves the feasible polytope."""
    u = np.asarray(u, dtype=np.float64)
    single = u.ndim == 1
    if single:
        u = u[None, :]
    a_low, a_next = _pinned_coefficients(spec)
    out = np.empty((u.shape[0], spec.n_classes))
    out[:, 0] = u @ a_low
    out[:, 1] = 1.0 + u @ a_next
    out[:, 2:] = u
    return out[0] if single else out


def j_free_gradient(spec: EnsembleSpec, p) -> np.ndarray:
    """Analytic gradient of J in the free-coordinate chart of M.

    Requires an interior point (all p_k > 0).  dJ/du_j collects the chain
    rule through the two pinned coordinates.
    """
    arr = manifold_point(spec, p)
    if np.any(arr <= 0.0):
        raise ValueError("gradient needs an interior point (all p_k > 0)")
    dJdp = np.log(arr) + 1.0 + spec.beta * spec.energies() + spec.kind.word_log_weights(spec.D)
    a_low, a_next = _pinned_coefficients(spec)
    return a_low * dJdp[0] + a_next * dJdp[1] + dJdp[2:]


# ---------------------------------------------------------------------------
# coupling
#
# The coupling of the LDP proof pairs the off-manifold empirical vector
# x = chi/N with an on-manifold lattice point y = m/N drawn uniformly from
# the set R(x) of manifold lattice points at minimal l1 distance from x.
# For labeled ensembles with D >= 3 that distance is exactly 2/N (move one
# vertex up two classes); integer-lattice parity forces 2/N for plane
# ensembles as well, and for labeled D = 2 the manifold is a single point at
# distance 4/N.  The set size always satisfies 1 <= |R(x)| <= D^2.


def r_set_counts(n, spec: EnsembleSpec) -> list[np.ndarray]:
    """Integer numerators m of the minimal-distance manifold lattice set R(n/N).

    The manifold lattice at denominator N consists of integer vectors m >= 0
    with ``sum m = N`` and ``sum k m_k`` equal to 2N (labeled) or N (plane).
    A feasible profile n misses the weighted total by g = 2 (labeled) or 1
    (plane), so candidates at l1 distance 2/N are single-unit transfers from
    class b to class b + g.  Every tree has a vertex of the lowest class, so
    the transfer from b = 0 exists whenever class g does; only labeled D = 2
    has no class g, and its manifold lattice is the one point (0, N).
    """
    counts = np.array(n, dtype=np.int64)
    if counts.shape != (spec.n_classes,) or counts.min() < 0:
        raise ValueError(f"r_set needs {spec.n_classes} nonnegative counts, got {n!r}")
    N = int(counts.sum())
    gap = spec.kind.mean  # the manifold's class sum mean * N less a tree's
    if int(spec.classes() @ counts) != gap * (N - 1):
        raise ValueError("r_set needs a feasible profile")
    moves = []
    for b in range(spec.n_classes - gap):
        if counts[b] >= 1:
            m = counts.copy()
            m[b] -= 1
            m[b + gap] += 1
            moves.append(m)
    return moves or [np.array([0, N], dtype=np.int64)]


def r_set(x, N: int, spec: EnsembleSpec) -> list[np.ndarray]:
    """R(x) for x = n/N: manifold lattice points at minimal l1 distance.

    ``x`` may be the frequencies n/N (floats) or the profile counts n
    themselves (integers).
    """
    if np.issubdtype(np.asarray(x).dtype, np.integer):
        n = x
    else:
        arr = frequency_array(spec, x) * N
        n = np.rint(arr)
        if np.abs(arr - n).max() > 1e-6:
            raise ValueError("x must be a lattice point n/N")
    members = r_set_counts(n, spec)
    members.sort(key=lambda m: tuple(m))
    return [m / float(N) for m in members]


@dataclass(frozen=True, eq=False)
class CouplingSample:
    """One draw of the coupled pair (x, y) = (chi/N, nearest manifold point)."""

    spec: EnsembleSpec
    N: int
    x_counts: np.ndarray
    y_counts: tuple[int, ...]
    distance: float
    r_size: int

    @property
    def y(self) -> np.ndarray:
        return np.asarray(self.y_counts, dtype=np.float64) / self.N


def couple_samples(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> list[CouplingSample]:
    """Draw ``size`` coupled pairs: chi/N from the Gibbs measure, y uniformly
    from R(chi/N); R(x) is computed once per distinct profile."""
    profiles = sample_profiles(spec, N, size, rng)
    picks = rng.random(size)
    cache: dict[tuple[int, ...], list[np.ndarray]] = {}
    out = []
    for counts, u in zip(profiles, picks):
        key = tuple(counts.tolist())
        members = cache.get(key)
        if members is None:
            members = r_set_counts(counts, spec)
            members.sort(key=lambda m: tuple(m))
            cache[key] = members
        pick = members[min(int(u * len(members)), len(members) - 1)]
        dist = int(np.abs(pick - counts).sum())
        out.append(
            CouplingSample(
                spec=spec,
                N=N,
                x_counts=counts,
                y_counts=tuple(int(v) for v in pick),
                distance=dist / N,
                r_size=len(members),
            )
        )
    return out


def one_shot_sample_profiles(
    spec: EnsembleSpec, N: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``partition.sample_profiles`` with each batch of proposals drawn and
    filtered as one matrix: the rejection loop before its batches were cut
    into chunks of ``LATTICE_BYTES``, which must keep the same rows and
    leave ``rng`` in the same state."""
    check_log_weights(spec, N)
    budget = shifted_budget(spec, N)
    q, _ = tilt(spec, spec.kind.mean * (N - 1) / N)
    shifted = np.arange(spec.n_classes)
    var = float(q @ (shifted - q @ shifted) ** 2)
    guess = min(1.0, 1.0 / math.sqrt(2.0 * math.pi * N * var)) if var > 0 else 1.0
    max_rows = max(1, PROPOSAL_CELLS // spec.n_classes)
    kept, need, drawn, hits = [], size, 0, 0
    while need:
        accept = guess * (hits + 1) / (guess * drawn + 1)
        if accept * MAX_PROPOSALS_PER_HIT < 1:
            kept.append(_sample_cut(spec, N, need, rng))
            break
        rows = min(max_rows, math.ceil(1.2 * need / accept) + 16)
        proposals = rng.multinomial(N, q, size=rows)
        found = proposals[proposals @ shifted == budget]
        kept.append(found[:need])
        drawn, hits = drawn + rows, hits + found.shape[0]
        need -= kept[-1].shape[0]
    return np.concatenate(kept)
