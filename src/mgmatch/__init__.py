"""Incomplete sparse multi-graph matching solvers.

Feasible solutions are clique partitions, which makes cycle consistency
structural. Solutions are built by chaining pairwise GM solves and
improved by two local searches: object re-matching and joint clique
swaps driven by binary energy minimization. A synchronization pipeline
projects independently solved pairwise matchings onto cycle consistency,
and the incomplete-to-complete reduction serves as a verification oracle.
"""

from .construction import (
    ConstructionTree,
    OverlapError,
    clique_clique_costs,
    construct_incremental,
    construct_parallel,
    construct_sequential,
    merge,
    rematch,
)
from .gm import (
    Effort,
    GmMatching,
    get_solver,
    register_solver,
    solve_gm,
    solve_lap,
    solver_names,
)
from .io import (
    ParseError,
    SolutionDocument,
    parse_problem,
    parse_solution,
    write_problem,
    write_solution,
)
from .local_search import (
    SwapDeltaMatrix,
    TraceRecorder,
    alternate,
    apply_multiswap,
    best_multiswap,
    gm_local_search,
    gm_local_search_parallel,
    single_swap,
    swap_deltas,
    swap_local_search,
)
from .model import (
    FORBIDDEN,
    Clique,
    CliquePartition,
    Cost,
    DuplicateVertexError,
    FeasibilityError,
    Forbidden,
    MgmProblem,
    PairwiseCosts,
    lookup_linear,
    objective,
    singleton_partition,
    validate,
)
from .qpbo import BinaryEnergy, evaluate, minimize
from .reduction import (
    CompleteProblem,
    CompletenessError,
    complete_to_incomplete,
    incomplete_to_complete,
    to_complete,
)
from .synchronization import (
    PairwiseMatchingSet,
    SyncMetrics,
    build_sync_problem,
    solve_all_pairwise,
    synchronize,
)

__version__ = "0.1.0"
