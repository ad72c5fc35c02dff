"""Randomized rumor spreading on graphs: simulation, expansion measures, and
the participating-set construction.

The package is organized by concern:

- :mod:`rumorspread.graph`: immutable graphs in CSR form, set helpers,
  edge-list files.
- :mod:`rumorspread.generators`: deterministic and randomized graph families.
- :mod:`rumorspread.protocols`: push / pull / push-pull dynamics, traces,
  Monte Carlo summaries, growth and doubling diagnostics.
- :mod:`rumorspread.expansion`: vertex expansion, conductance, boundary
  expansion and its relatives, exact enumeration with rational arithmetic.
- :mod:`rumorspread.participating`: the thinning fixed point and its
  potential-based guarantees.
- :mod:`rumorspread.experiment`: sweep harness fitting completion times
  against predictors.
- :mod:`rumorspread.cli`: the ``rumorspread`` command.
"""

from .errors import (
    CapabilityError,
    ConstructionError,
    IncompleteSpreadError,
    InputError,
)
from .expansion import (
    DEFAULT_ENUMERATION_LIMIT,
    DegreeClassDecomposition,
    ExpansionReport,
    augmented_combined_expansion_set,
    boundary_expansion_due_to,
    boundary_expansion_exact,
    boundary_expansion_mc,
    combined_expansion_graph,
    combined_expansion_set,
    conductance_graph,
    conductance_set,
    degree_class_decomposition,
    regular_h_sandwich,
    regular_s_factor,
    sandwich_alpha_phi,
    vertex_expansion_graph,
    vertex_expansion_set,
)
from .experiment import (
    BOUND_MODELS,
    DRIFT_CONVENTION,
    BoundFitReport,
    ExperimentConfig,
    SweepPointResult,
    combine_point_rows,
    combined_vs_conductance_table,
    read_points_csv,
    run_experiment,
    write_points_csv,
    write_report_json,
)
from .generators import (
    FAMILY_NAMES,
    FamilySpec,
    clustered_regular,
    complete,
    cycle,
    dumbbell,
    erdos_renyi,
    greedy_dominating_set,
    hypercube,
    path,
    random_regular,
    star,
    two_cliques_shared_vertex,
)
from .graph import (
    Graph,
    NodeSet,
    boundary,
    closure,
    cut_size,
    diameter,
    edges_between,
    harmonic_mass,
    is_dominating,
    load_edge_list,
    load_node_set,
    save_edge_list,
    save_node_set,
    volume,
)
from .participating import (
    ActiveFractionReport,
    ParticipatingConfig,
    ParticipatingResult,
    active_fraction_check,
    boundary_expansion_fraction,
    compute_participating,
    compute_participating_modified,
    participating_fixed_point,
    potential,
    restricted_start,
    write_removal_log_csv,
)
from .protocols import (
    GrowthCheckReport,
    MonteCarloSummary,
    ProtocolConfig,
    SpreadTrace,
    VARIANTS,
    default_max_rounds,
    doubling_times,
    first_arrival_times,
    monte_carlo,
    pull_growth_check,
    run,
    run_restricted,
    single_round,
    write_summary_csv,
    write_trace_csv,
)
from .rng import derive_seed, stream

__version__ = "0.1.0"

# every name imported above, less the submodules they bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and type(value) is not type(errors)
)
