import math
import random
from functools import partial
from types import SimpleNamespace

import pytest

from mgmatch import local_search, synchronization
from mgmatch.gm import Effort, solve_gm
from mgmatch.model import objective, validate
from mgmatch.synchronization import (
    build_sync_problem,
    solution_pairs,
    solve_all_pairwise,
    sync_metrics,
    synchronize,
)

from conftest import part
from oracles import random_problem


exhaustive = partial(solve_gm, effort=Effort.EXHAUSTIVE)


class TestSolveAllPairwise:
    def test_t3_matchings(self, t3):
        result = solve_all_pairwise(t3, gm=exhaustive, seed=0)
        assert result == {(0, 1): ((0, 0), (1, 1)), (0, 2): ((0, 0),), (1, 2): ((1, 0),)}

    def test_pairs_after_the_deadline_get_no_matching(self, monkeypatch):
        problem = random_problem(random.Random(4), 5, 3)
        now = [0.0]
        monkeypatch.setattr(synchronization, "time", SimpleNamespace(monotonic=lambda: now[0]))

        def gm(sub, seed):
            now[0] += 1.0
            return solve_gm(sub, seed)

        result = solve_all_pairwise(problem, gm=gm, seed=3, deadline=3.5)
        full = solve_all_pairwise(problem, seed=3)
        solved = list(problem.costs)[:4]
        assert result == {pair: full[pair] for pair in solved}

    def test_two_objects(self, t3):
        sub = t3.restrict([0, 1])
        result = solve_all_pairwise(sub, gm=exhaustive)
        assert len(result) == 1

    def test_empty_tables(self):
        from mgmatch.model import MgmProblem

        problem = MgmProblem([2, 2, 2])
        result = solve_all_pairwise(problem)
        assert all(len(m) == 0 for m in result.values())

    def test_union_pairs(self, t3):
        result = solve_all_pairwise(t3, gm=exhaustive, seed=0)
        # Both pairs of this solution are in the union sync_metrics reads.
        metrics = sync_metrics(t3, result, part({0: 0, 1: 0}, {1: 1, 2: 0}))
        assert metrics.mlap_objective == -2.0


class TestBuildSyncProblem:
    def test_sparse_support_matches_original(self, t3):
        matchings = solve_all_pairwise(t3, gm=exhaustive, seed=0)
        sync = build_sync_problem(t3, matchings, mode="sparse")
        for (p, q), table in sync.costs.items():
            assert set(table.linear) == set(t3.costs[(p, q)].linear)
            assert not table.quadratic
        assert sync.linear_cost(0, 1, 0, 0) == -1.0
        assert sync.linear_cost(0, 1, 0, 1) == 0.0

    def test_dense_equals_sparse_without_forbidden(self):
        rng = random.Random(5)
        problem = random_problem(rng, 3, 3, forbidden_frac=0.0, quad_frac=0.0)
        matchings = solve_all_pairwise(problem, gm=exhaustive)
        dense = build_sync_problem(problem, matchings, mode="dense")
        sparse = build_sync_problem(problem, matchings, mode="sparse")
        assert dense == sparse

    def test_soft_mode_prices_forbidden_pairs(self, t3):
        matchings = solve_all_pairwise(t3, gm=exhaustive, seed=0)
        soft = build_sync_problem(t3, matchings, mode="soft", alpha=1.0)
        # (1,0) of pair (0,1) is forbidden in t3, priced at +alpha here
        assert soft.linear_cost(0, 1, 1, 0) == 1.0
        assert soft.linear_cost(0, 1, 0, 0) == -1.0

    def test_soft_requires_alpha(self, t3):
        matchings = solve_all_pairwise(t3, gm=exhaustive, seed=0)
        with pytest.raises(ValueError):
            build_sync_problem(t3, matchings, mode="soft")
        for alpha in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                build_sync_problem(t3, matchings, mode="soft", alpha=alpha)
        with pytest.raises(ValueError):
            build_sync_problem(t3, matchings, mode="nonsense")


class TestSynchronize:
    def test_t3_end_to_end(self, t3):
        solution, metrics = synchronize(t3, mode="sparse", gm=exhaustive, seed=0)
        validate(t3, solution)
        assert metrics.mgm_objective != math.inf
        assert metrics.forbidden_count == 0

    def test_sparse_mode_never_returns_forbidden_pairs(self):
        rng = random.Random(11)
        for _ in range(15):
            problem = random_problem(rng, rng.randint(3, 4), 3, forbidden_frac=0.5)
            solution, metrics = synchronize(
                problem, mode="sparse", seed=rng.randrange(100)
            )
            assert metrics.forbidden_count == 0
            assert metrics.mgm_objective != math.inf
            for (p, i), (q, s) in solution_pairs(solution):
                assert problem.linear_cost(p, q, i, s) != math.inf

    def test_consistent_input_recovered_exactly(self, t3):
        # hand the synchronizer an already cycle-consistent matching set
        matchings = {(0, 1): ((0, 0),), (0, 2): ((0, 0),), (1, 2): ((0, 0),)}
        sync_problem = build_sync_problem(t3, matchings, mode="sparse")
        # optimum of the sync problem: the clique {0:0, 1:0, 2:0}
        target = part({0: 0, 1: 0, 2: 0})
        assert objective(sync_problem, target) == pytest.approx(-3.0)
        metrics = sync_metrics(t3, matchings, target)
        assert metrics.hamming == 0
        assert metrics.mlap_objective == -3.0

    def test_mlap_objective_matches_sync_problem_objective(self):
        rng = random.Random(13)
        for _ in range(10):
            problem = random_problem(rng, 3, 3, forbidden_frac=0.3, quad_frac=0.2)
            matchings = solve_all_pairwise(problem, gm=exhaustive, seed=1)
            sync_problem = build_sync_problem(problem, matchings, mode="sparse")
            solution, metrics = synchronize(problem, mode="sparse", seed=1)
            assert objective(sync_problem, solution) == pytest.approx(
                metrics.mlap_objective
            )

    def test_hamming_identity(self):
        rng = random.Random(17)
        for _ in range(10):
            problem = random_problem(rng, 3, 3, forbidden_frac=0.2)
            matchings = solve_all_pairwise(problem, seed=2)
            solution, metrics = synchronize(problem, mode="sparse", seed=2)
            target = {
                ((p, i), (q, s)) for (p, q), pairs in matchings.items() for i, s in pairs
            }
            recovered = solution_pairs(solution)
            assert metrics.hamming == len(target | recovered) - len(target & recovered)

    def test_deadline_in_pairwise_stage_still_projects(self, monkeypatch):
        problem = random_problem(random.Random(4), 5, 3)
        now = [0.0]
        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(synchronization, "time", clock)
        monkeypatch.setattr(local_search, "time", clock)

        def gm(sub, seed):
            now[0] += 1.0
            return solve_gm(sub, seed)

        solution, metrics = synchronize(problem, gm=gm, seed=3, deadline=3.5)
        validate(problem, solution)
        # four pairs were solved before the deadline, and their matched
        # pairs are projected rather than dropped
        solved = solve_all_pairwise(problem, seed=3)
        partial = {pair: solved[pair] for pair in list(solved)[:4]}
        assert metrics == sync_metrics(problem, partial, solution)
        assert metrics.mlap_objective < 0
        assert any(len(clique) > 1 for clique in solution.cliques)

    def test_metrics_serialization(self, t3):
        _, metrics = synchronize(t3, mode="sparse", seed=0)
        data = metrics.to_dict()
        assert set(data) == {
            "mlap_objective",
            "hamming",
            "forbidden_count",
            "mgm_objective",
        }
