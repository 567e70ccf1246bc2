"""Pipeline properties on tiny random problems (2 to 4 objects).

Every construction variant returns a feasible partition without a
forbidden match; every local search ends no higher than its
non-forbidden start; the reduction to a complete problem keeps a
solution's objective exactly and strips back to the same solution;
every synchronization mode returns a feasible partition, and the sparse
one matches no forbidden pair. Each property is checked on every drawn
instance.
"""

import math
import random

from hypothesis import given
from hypothesis import strategies as st

from mgmatch.construction import (
    ConstructionTree,
    construct_incremental,
    construct_parallel,
    construct_sequential,
)
from mgmatch.local_search import alternate, gm_local_search, swap_local_search
from mgmatch.model import Clique, CliquePartition, objective, validate
from mgmatch.synchronization import synchronize

from oracles import linear_cost, random_partition, random_problem, reference_objective
from reduction import complete_to_incomplete, incomplete_to_complete, to_complete


@st.composite
def problems(draw):
    """A tiny random problem plus a generator for the test's own choices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 4))
    forbidden = draw(st.sampled_from([0.0, 0.3, 0.6]))
    return random_problem(rng, d, 3, forbidden_frac=forbidden, quad_frac=0.5), rng


def allowed_start(rng, problem):
    """A random partition whose cliques drop every member that would form a
    forbidden match with an earlier one; the dropped vertices stay unmatched."""
    cliques = []
    for clique in random_partition(rng, problem):
        kept = {}
        for p, v in clique:
            if all(linear_cost(problem, q, p, w, v) != math.inf for q, w in kept.items()):
                kept[p] = v
        cliques.append(Clique(kept))
    return CliquePartition(cliques).normalized(problem.sizes)


def inner(problem, seed):
    return alternate(problem, construct_sequential(problem, seed=seed), seed=seed)


@given(problems())
def test_every_construction_is_feasible(case):
    problem, rng = case
    order = list(range(problem.d))
    rng.shuffle(order)
    seed = rng.randrange(100)
    solutions = [
        construct_sequential(problem, order, seed=seed),
        construct_parallel(problem, ConstructionTree.balanced(order), seed=seed),
        construct_incremental(problem, order, rng.randint(2, problem.d), inner, seed=seed),
    ]
    for solution in solutions:
        validate(problem, solution)
        assert objective(problem, solution) != math.inf


@given(problems())
def test_local_search_never_ends_above_its_start(case):
    problem, rng = case
    start = allowed_start(rng, problem)
    start_value = objective(problem, start)
    assert start_value != math.inf
    seed = rng.randrange(100)
    for search in (gm_local_search, swap_local_search, alternate):
        result = search(problem, start, seed=seed)
        validate(problem, result)
        assert objective(problem, result) <= start_value


@given(problems())
def test_reduction_round_trip_keeps_the_objective(case):
    problem, rng = case
    start = allowed_start(rng, problem)
    complete = to_complete(problem)
    padded = incomplete_to_complete(start, complete, seed=rng.randrange(100))
    assert len(padded.cliques) == complete.total
    assert all(len(clique) == problem.d for clique in padded.cliques)
    # exact equality: fsum over the padded side's terms, dummies' zeros included
    assert reference_objective(complete, padded) == objective(problem, start)
    back = complete_to_incomplete(complete, padded)
    assert back.normalized(problem.sizes) == start.normalized(problem.sizes)


@given(problems())
def test_sparse_sync_matches_no_forbidden_pair(case):
    problem, rng = case
    solution, metrics = synchronize(problem, mode="sparse", seed=rng.randrange(100))
    validate(problem, solution)
    assert metrics.forbidden_count == 0
    assert objective(problem, solution) != math.inf


@given(problems())
def test_every_sync_mode_is_feasible(case):
    problem, rng = case
    seed = rng.randrange(100)
    for mode, alpha in (("dense", None), ("soft", 0.5)):
        solution, metrics = synchronize(problem, mode=mode, alpha=alpha, seed=seed)
        validate(problem, solution)
        assert metrics.mgm_objective == objective(problem, solution)
