"""Gibbs ensembles of degree-bounded random trees.

Exact profile laws normalized by their own sum over the profile lattice,
ln Z_N from that lattice cut to the profiles that carry mass, exact tree
samplers (profiles from the tilted multinomial conditioned on the class
sum, then a Foata-Fuchs word -> tree map for labeled trees and the cycle
lemma for plane trees), the explicit large-deviation rate function with
its minimizer p*, and exact finite-N verification of the LDP and the law of
large numbers.
"""

from .combinatorics import (
    LogReal,
    log_add,
    log_factorial,
    log_labeled_count_by_degrees,
    log_multinomial,
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
    SumMismatch,
    TooLarge,
    TreeGibbsError,
)
from .kernels import BACKEND
from .ldp import (
    CouplingSample,
    RateTableRow,
    convergence_table,
    couple_samples,
    finite_rate,
    lln_tail,
    log_prob_ball,
    r_set,
)
from .partition import (
    ChiLaw,
    exact_chi_law,
    log_partition_value,
    log_prob_profile,
    rng_stream,
    sample_class_sequences,
    sample_profiles,
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
    word_edges,
)

__version__ = "0.1.0"
