"""Synchronization: projecting independent pairwise matchings onto cycle
consistency.

All object pairs are first matched independently: the GM solver gets the
problem's own table of each pair (left p, right q, p < q), uncopied, and
its matching, a tuple of vertex pairs (i, s), is kept under (p, q). This
in general yields an inconsistent multi-matching E. A linear-only MGM
problem is then built whose optimum is the cycle-consistent
multi-matching sharing the most pairs with E, and solved with the
regular construction plus local search pipeline. Because that problem is
linear, every GM subproblem along the way is a LAP and is solved exactly.

The synchronization problem's costs depend on the mode:

* sparse: entries only where the original problem allows the match (-1 on
  E, 0 otherwise). Solutions can never contain a forbidden match.
* dense: entries on the union of the original support and E, ignoring
  forbiddenness (the classic formulation).
* soft(alpha): full vertex product; originally forbidden matches cost
  +alpha (finite, > 0) instead of being excluded.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Any

import numpy as np

from .construction import construct_sequential, derive_seed, shuffled_order
from .gm import GmSolver, Matching, solve_gm
from .local_search import TraceRecorder, alternate
from .model import (
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
    objective,
    objective_terms,
)

VertexPair = tuple[tuple[int, int], tuple[int, int]]  # ((p, i), (q, s)), p < q


def solve_all_pairwise(
    problem: MgmProblem,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    deadline: float = math.inf,
) -> dict[tuple[int, int], Matching]:
    """Independently solve all d(d-1)/2 pairwise GM problems, keyed by
    object pair (p, q), p < q; pairs not reached by the deadline are
    absent. The union of the matchings need not be cycle-consistent."""
    matchings = {}
    for (p, q), table in problem.costs.items():
        if time.monotonic() >= deadline:
            break
        matchings[(p, q)] = gm(table, derive_seed(seed, p * problem.d + q))
    return matchings


def build_sync_problem(
    problem: MgmProblem,
    matchings: dict[tuple[int, int], Matching],
    mode: str = "sparse",
    alpha: float | None = None,
) -> MgmProblem:
    """Linear-only problem whose optimum recovers the consistent projection.

    Matched pairs cost -1, other candidate pairs 0. The candidate set per
    mode is described in the module docstring; zero-cost pairs never help
    the objective, so restricting dense mode to the support union does not
    change optima. Each table is built from sorted entry codes, so its
    linear entries are stored in (i, s) order without a sort of their own.
    """
    if mode not in ("dense", "sparse", "soft"):
        raise ValueError(f"unknown synchronization mode {mode!r}")
    if mode == "soft":
        if alpha is None or not 0 < alpha < math.inf:
            raise ValueError("soft mode needs a finite alpha > 0")
    costs = {}
    for (p, q), table in problem.costs.items():
        width = problem.sizes[q]
        (i, s), *_ = table.arrays()
        allowed = i * width + s
        pairs = np.array(matchings.get((p, q), ()), np.int64).reshape(-1, 2)
        matched = pairs[:, 0] * width + pairs[:, 1]
        if mode == "sparse":
            codes = allowed
        elif mode == "dense":
            codes = np.union1d(allowed, matched)
        else:
            codes = np.arange(problem.sizes[p] * width)
        values = np.where(np.isin(codes, matched), -1.0, 0.0)
        if mode == "soft":
            values[~np.isin(codes, allowed)] = alpha
        costs[(p, q)] = PairwiseCosts._trusted(
            problem.sizes[p], width, np.stack(np.divmod(codes, width)), values
        )
    try:
        return MgmProblem(problem.sizes, costs)
    except ValueError as error:  # costs of -1 and 0 stay far below the bound
        raise ValueError(f"soft synchronization alpha {alpha:g} is too large: {error}") from None


@dataclass
class SyncMetrics:
    """Agreement and feasibility statistics of a synchronized solution;
    mgm_objective is math.inf when the solution holds a forbidden match."""

    mlap_objective: float
    hamming: int
    forbidden_count: int
    mgm_objective: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def solution_pairs(solution: CliquePartition) -> set[VertexPair]:
    """The multi-matching induced by a partition, as canonical vertex pairs."""
    pairs: set[VertexPair] = set()
    for clique in solution.cliques:
        for (p, i), (q, s) in combinations(clique, 2):
            pairs.add(((p, i), (q, s)))
    return pairs


def sync_metrics(
    problem: MgmProblem, matchings: dict[tuple[int, int], Matching], solution: CliquePartition
) -> SyncMetrics:
    """Recompute all metrics independently of the optimization path. The
    objective's terms give the forbidden matches, each a math.inf term, and
    the MGM objective."""
    target = {((p, i), (q, s)) for (p, q), matching in matchings.items() for i, s in matching}
    recovered = solution_pairs(solution)
    shared = len(target & recovered)
    hamming = len(target) + len(recovered) - 2 * shared
    terms = objective_terms(problem, solution)
    return SyncMetrics(
        mlap_objective=-float(shared),
        hamming=hamming,
        forbidden_count=int(np.count_nonzero(terms == math.inf)),
        mgm_objective=math.fsum(terms.tolist()),
    )


def synchronize(
    problem: MgmProblem,
    mode: str = "sparse",
    alpha: float | None = None,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    deadline: float = math.inf,
    trace: TraceRecorder | None = None,
) -> tuple[CliquePartition, SyncMetrics]:
    """Full synchronization pipeline: pairwise solves, projection, metrics.

    The projection problem is linear-only; its pipeline runs solve_gm,
    which solves every intermediate subproblem exactly as a LAP whatever
    solver the pairwise stage was given. The deadline bounds the pairwise
    stage and the local search; the projection's construction always
    runs, so the matchings solved before the deadline are projected.
    """
    matchings = solve_all_pairwise(problem, gm=gm, seed=seed, deadline=deadline)
    sync_problem = build_sync_problem(problem, matchings, mode=mode, alpha=alpha)
    order = shuffled_order(problem.d, derive_seed(seed, 1))
    solution = construct_sequential(sync_problem, order, gm=solve_gm, seed=derive_seed(seed, 2))
    if trace is not None:
        trace.record("sync-construct", objective(sync_problem, solution))
    solution = alternate(
        sync_problem,
        solution,
        gm=solve_gm,
        order=order,
        seed=derive_seed(seed, 3),
        deadline=deadline,
        trace=trace,
    )
    return solution, sync_metrics(problem, matchings, solution)
