"""Gibbs ensembles of degree-bounded random trees.

Exact partition functions and profile laws via log-domain dynamic
programming, exact tree samplers (Prufer codes for labeled trees, the cycle
lemma for plane trees), the explicit large-deviation rate function with its
minimizer p*, and exact finite-N verification of the LDP and the law of
large numbers.
"""

from .combinatorics import (
    LogReal,
    log_add,
    log_factorial,
    log_labeled_count_by_degrees,
    log_labeled_count_by_profile,
    log_multinomial,
    log_plane_count_by_profile,
    log_sum,
)
from .ensembles import (
    CountVector,
    EnsembleSpec,
    FrequencyVector,
    Kind,
    freq_from_counts,
    is_feasible,
    validate_spec,
)
from .errors import (
    BadEnergyTable,
    BadLabel,
    BadStepSum,
    BoundTooSmall,
    DegreeBoundExceeded,
    KindMismatch,
    LatticeTooLarge,
    NoFeasibleTree,
    NotATree,
    OffManifold,
    SizeOverflow,
    SumMismatch,
    TooLarge,
    TreeGibbsError,
)
from .kernels import BACKEND
from .ldp import (
    CouplingSample,
    RateTableRow,
    convergence_table,
    couple_sample,
    couple_samples,
    finite_rate,
    lln_tail,
    log_prob_ball,
    r_set,
)
from .partition import (
    ChiLaw,
    DpTable,
    build_dp,
    exact_chi_law,
    log_partition,
    log_partition_value,
    log_prob_profile,
    rng_stream,
    sample_class_sequences,
    sample_degree_sequence,
)
from .rate import (
    RateContext,
    energy_mean,
    entropy,
    g_term,
    grid_minimize_J,
    j_free_gradient,
    J_value,
    j_values,
    manifold_grid,
    rate_value,
    solve_pstar,
    tilt_frequencies,
    tilt_mean,
)
from .treegen import (
    LabeledTree,
    PlaneTree,
    chi_of,
    cycle_lemma_rotation,
    energy_of,
    enumerate_labeled_trees,
    enumerate_plane_trees,
    prufer_decode,
    prufer_encode,
    sample_labeled_tree,
    sample_plane_child_counts,
    sample_plane_tree,
    sample_prufer_codes,
)

__version__ = "0.1.0"
