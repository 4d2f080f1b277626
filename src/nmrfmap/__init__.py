"""Exact MAP inference on discrete MRFs via weighted conflict-graph stable sets.

The pipeline: validate a binary pairwise model, read off its signed
topology, classify each 2-connected block, rewrite every edge to one
conflict node and solve each block's stable set by a min cut, conditioned
on cut-vertex labels. Higher-order potentials get a supermodularity and
indicator-representation analysis; only capped branch and bound solves them.
"""

from .errors import (
    BadIndicesError,
    InconsistentCompletionError,
    IntractableTopologyError,
    ModelFormatError,
    NmrfmapError,
    NotBinaryPairwiseError,
    NotSupermodularError,
    ObjectiveMismatchError,
    SignMismatchError,
    TooLargeError,
    ZeroAssociativityError,
)
from .model import (
    ASSOCIATIVE,
    DEFAULT_EPS,
    Model,
    Potential,
    REPULSIVE,
    SignedGraph,
    associativity,
    energy,
    flip_variables,
    is_binary_pairwise,
    model_from_json_file,
    model_to_json,
    signed_view,
    validate_model,
)
from .nmrf import (
    Nmrf,
    NmrfNode,
    PrunedNmrf,
    apply_enode_plan,
    build_nmrf,
    nmrf_from_json,
    nmrf_to_dot,
    nmrf_to_json,
    nodes_conflict,
    prune,
)
from .structure import (
    Block,
    BlockClass,
    BlockTree,
    TractabilityReport,
    block_decompose,
    classify_block,
    classify_graph,
    classify_model,
    plan_by_names,
    report_to_json,
)
from .perfection import (
    PerfectionVerdict,
    PlainGraph,
    binary_pairwise_perfection,
    cycle_to_induced_hole,
    find_odd_hole,
    is_perfect_small,
    pruned_to_plain,
)
from .mwss import (
    MapSolution,
    StableSetSolution,
    decode_map,
    map_solution_to_json,
    mmwss_complete,
    mwss_branch_bound,
    objective_tolerance,
    solve_map,
    solve_map_bnb,
)
from .submodular import (
    FeasibilityVerdict,
    HighOrderPotential,
    IndicatorRepresentation,
    alpha,
    construct_k3,
    is_supermodular,
    representation_feasible,
    representation_to_model,
    supermodularity,
)
from .oracle import brute_force_map, brute_force_mwss

__version__ = "0.1.0"
