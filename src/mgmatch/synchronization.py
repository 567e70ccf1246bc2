"""Synchronization: projecting independent pairwise matchings onto cycle
consistency.

All object pairs are first matched independently: the GM solver gets the
problem's own table of each pair (left p, right q, p < q), uncopied. This
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
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any

import numpy as np

from .construction import construct_sequential, derive_seed
from .gm import GmMatching, GmSolver, solve_gm
from .io import _cost_to_json
from .local_search import TraceRecorder, alternate
from .model import (
    CliquePartition,
    MgmProblem,
    ObjectiveTerms,
    PairwiseCosts,
    objective,
)

VertexPair = tuple[tuple[int, int], tuple[int, int]]  # ((p, i), (q, s)), p < q


@dataclass
class PairwiseMatchingSet:
    """One independent matching per object pair; the union need not be
    cycle-consistent."""

    d: int
    matchings: dict[tuple[int, int], GmMatching] = field(default_factory=dict)

    def pairs(self) -> set[VertexPair]:
        """The induced multi-matching as canonical vertex pairs."""
        union: set[VertexPair] = set()
        for (p, q), matching in self.matchings.items():
            for i, s in matching:
                union.add(((p, i), (q, s)))
        return union


def solve_all_pairwise(
    problem: MgmProblem,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    deadline: float | None = None,
) -> PairwiseMatchingSet:
    """Independently solve all d(d-1)/2 pairwise GM problems; pairs not
    reached by the deadline get no matching."""
    matchings = {}
    for (p, q), table in problem.costs.items():
        if deadline is not None and time.monotonic() >= deadline:
            break
        matchings[(p, q)] = gm(table, derive_seed(seed, p * problem.d + q))
    return PairwiseMatchingSet(problem.d, matchings)


def build_sync_problem(
    problem: MgmProblem,
    matchings: PairwiseMatchingSet,
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
        pairs = np.array(list(matchings.matchings.get((p, q), ())), np.int64).reshape(-1, 2)
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
    return MgmProblem(problem.sizes, costs)


@dataclass
class SyncMetrics:
    """Agreement and feasibility statistics of a synchronized solution;
    mgm_objective is math.inf when the solution holds a forbidden match,
    and to_dict writes it as a document stores a cost."""

    mlap_objective: float
    hamming: int
    forbidden_count: int
    mgm_objective: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "mlap_objective": self.mlap_objective,
            "hamming": self.hamming,
            "forbidden_count": self.forbidden_count,
            "mgm_objective": _cost_to_json(self.mgm_objective),
        }


def solution_pairs(solution: CliquePartition) -> set[VertexPair]:
    """The multi-matching induced by a partition, as canonical vertex pairs."""
    pairs: set[VertexPair] = set()
    for clique in solution.cliques:
        for (p, i), (q, s) in combinations(clique.pairs, 2):
            pairs.add(((p, i), (q, s)))
    return pairs


def sync_metrics(
    problem: MgmProblem, matchings: PairwiseMatchingSet, solution: CliquePartition
) -> SyncMetrics:
    """Recompute all metrics independently of the optimization path. The
    objective's terms give the forbidden matches, each a math.inf term, and
    the MGM objective."""
    target = matchings.pairs()
    recovered = solution_pairs(solution)
    shared = len(target & recovered)
    hamming = len(target) + len(recovered) - 2 * shared
    terms = ObjectiveTerms(problem, solution)
    return SyncMetrics(
        mlap_objective=-float(shared),
        hamming=hamming,
        forbidden_count=int(np.count_nonzero(terms.values == math.inf)),
        mgm_objective=terms.value(),
    )


def synchronize(
    problem: MgmProblem,
    mode: str = "sparse",
    alpha: float | None = None,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    ls_rounds: int | None = None,
    deadline: float | None = None,
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
    order = list(range(problem.d))
    random.Random(derive_seed(seed, 1)).shuffle(order)
    solution = construct_sequential(sync_problem, order, gm=solve_gm, seed=derive_seed(seed, 2))
    if trace is not None:
        value = objective(sync_problem, solution)
        if value < math.inf:
            trace.record("sync-construct", value)
    solution = alternate(
        sync_problem,
        solution,
        gm=solve_gm,
        order=order,
        seed=derive_seed(seed, 3),
        max_rounds=ls_rounds,
        deadline=deadline,
        trace=trace,
    )
    return solution, sync_metrics(problem, matchings, solution)
