"""Group-fair PageRank on node-colored directed graphs.

Two families of algorithms make a PageRank allocate a chosen share
``phi`` of its mass to a protected node group: jump-vector optimization
(closest fair scores reachable by re-weighting the teleport distribution)
and locally fair transitions (every node splits its own outgoing
probability ``phi``-fairly, which also yields personalized fairness).
"""

from .analysis import (
    FairnessReport,
    PersonalizedAudit,
    converse_check,
    lower_bound_loss,
    lower_bound_vector,
    make_report,
    personalized_audit,
    red_mass,
    targeted_lower_bound_loss,
    utility_loss,
)
from .errors import (
    ConvergenceError,
    DegenerateTargetError,
    FairprError,
    GraphError,
    InfeasibleError,
)
from .fspr import (
    Feasibility,
    FsprProblem,
    FsprSolution,
    feasibility_check,
    fspr_problem,
    solve_fspr,
    solve_targeted_fspr,
    targeted_fspr_problem,
)
from .graph import ColoredGraph, GroupStats, from_edges, group_stats, load_graph, save_graph
from .lfpr import (
    OptimizedSearchResult,
    PolicyKind,
    ResidualDecomposition,
    ResidualPolicy,
    build_fair_jump,
    build_neighborhood_model,
    build_residual_model,
    lfpr_pagerank,
    make_policy,
    optimize_residuals,
    residual_decompose,
    targeted_lfpr,
)
from .pagerank import (
    DEFAULT_GAMMA,
    TransitionModel,
    absorption_vector,
    dense_q,
    pagerank,
    personalized_pagerank,
    power_iterate,
    red_absorption_vector,
    standard_transition,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"
