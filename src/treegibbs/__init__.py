"""Gibbs ensembles of degree-bounded random trees.

ln Z_N and the exact law of the degree profile chi from the profile lattice
cut to the profiles that carry mass, exact tree samplers (profiles from the
tilted multinomial conditioned on the class sum, then a Foata-Fuchs word ->
tree map for labeled trees and the cycle lemma for plane trees), the
explicit large-deviation rate function with its minimizer p*, and exact
finite-N verification of the LDP and the law of large numbers.  Degree
profiles are int64 arrays and class frequencies float64 arrays, one entry
per class of the spec.
"""

from .combinatorics import log_factorial, log_sum
from .ensembles import EnsembleSpec, Kind, validate_spec
from .errors import (
    BadEnergyTable,
    BadLabel,
    BoundTooSmall,
    KindMismatch,
    NoFeasibleTree,
    NotATree,
    OffManifold,
    SumMismatch,
    TooLarge,
    TreeGibbsError,
)
from .kernels import BACKEND
from .ldp import RateTableRow, convergence_table, lln_tail, log_prob_ball
from .partition import (
    log_partition_value,
    log_prob_profile,
    rng_stream,
    sample_class_sequences,
    sample_profiles,
)
from .rate import (
    RateContext,
    J_value,
    j_values,
    manifold_grid,
    rate_value,
    solve_pstar,
)
from .treegen import (
    LabeledTree,
    enumerate_labeled_trees,
    enumerate_plane_trees,
    prufer_decode,
    sample_plane_child_counts,
    sample_prufer_codes,
    word_edges,
)

__version__ = "0.1.0"
