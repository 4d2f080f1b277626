"""Exact MAP inference on discrete MRFs via weighted conflict-graph stable sets.

The pipeline: validate a binary pairwise model, read off its signed
topology, classify each 2-connected block, rewrite every edge to one
conflict node and solve each block's stable set by a min cut, conditioned
on cut-vertex labels. Higher-order potentials get a supermodularity and
indicator-representation analysis; only capped branch and bound solves them.

`import nmrfmap` loads only the modules a request runs: `errors`, `model`,
`structure` and `mwss`, which validate, classify, solve and report. The
names exported from `nmrf` (compile), `perfection`, `submodular` and
`oracle` are resolved when first used (PEP 562), so a program that never
touches them never loads those modules; `dir(nmrfmap)` lists them all.
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
    is_binary_pairwise,
    model_from_json_file,
    model_to_json,
    objective_tolerance,
    signed_view,
    validate_model,
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
    enode_forms,
    report_to_json,
)
from .mwss import (
    MapSolution,
    StableSetSolution,
    map_solution_to_json,
    mwss_branch_bound,
    solve_map,
    solve_map_bnb,
)

__version__ = "0.1.0"

# The names each module loaded on first use exports.
_LAZY = {
    "nmrf": (
        "Nmrf",
        "NmrfNode",
        "PrunedNmrf",
        "build_nmrf",
        "compile_pairwise",
        "nmrf_from_json",
        "nmrf_to_dot",
        "nmrf_to_json",
        "prune",
    ),
    "perfection": (
        "PerfectionVerdict",
        "PlainGraph",
        "cycle_to_induced_hole",
        "find_odd_hole",
        "is_perfect_small",
    ),
    "submodular": (
        "FeasibilityVerdict",
        "HighOrderPotential",
        "IndicatorRepresentation",
        "alpha",
        "construct_k3",
        "is_supermodular",
        "representation_feasible",
        "representation_to_model",
        "supermodularity",
    ),
    "oracle": ("brute_force_map", "brute_force_mwss"),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None and name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if module is None:  # the module itself
        return import_module(f"{__name__}.{name}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_SOURCE})
