import math
import random

import pytest

from mgmatch.model import Clique, CliquePartition, objective, validate
from mgmatch.reduction import (
    CompletenessError,
    complete_to_incomplete,
    incomplete_to_complete,
    size_report,
    to_complete,
)

from conftest import part
from oracles import (
    brute_force_mgm,
    enumerate_complete_partitions,
    random_partition,
    random_problem,
    reference_objective,
)


class TestToComplete:
    def test_t3_sizes_and_dummies(self, t3):
        complete = to_complete(t3)
        assert complete.total == 5
        assert complete.sizes == (5, 5, 5)
        assert complete.dummy_counts() == (3, 3, 4)
        assert sum(complete.dummy_counts()) == (t3.d - 1) * complete.total

    def test_equal_sized_problem_still_padded(self):
        from mgmatch.model import MgmProblem, PairwiseCosts

        table = PairwiseCosts(2, 2, {(0, 0): -1.0, (1, 1): -1.0})
        problem = MgmProblem([2, 2, 2], {(0, 1): table, (0, 2): table, (1, 2): table})
        complete = to_complete(problem)
        # the reduction is not a no-op: every object gains (d-1)*n dummies
        assert complete.dummy_counts() == (4, 4, 4)
        assert complete.total == 6

    def test_dummy_costs_are_zero(self, t3):
        complete = to_complete(t3)
        assert complete.linear_cost(0, 1, 0, 4) == 0.0
        assert complete.linear_cost(0, 1, 2, 0) == 0.0
        assert complete.linear_cost(0, 1, 0, 0) == -2.0
        assert complete.linear_cost(0, 1, 1, 0) == math.inf  # real-real stays forbidden

    def test_size_report(self, t3):
        report = size_report(t3)
        assert report["total_dummies"] == report["expected_total_dummies"] == 10


class TestTranslation:
    def test_all_singletons_pair_with_dummies(self, t3):
        complete = to_complete(t3)
        singles = CliquePartition().normalized(t3.sizes)
        translated = incomplete_to_complete(singles, complete, seed=0)
        assert len(translated.cliques) == complete.total
        for clique in translated.cliques:
            assert len(clique) == t3.d
            real = [
                (p, v) for p, v in clique if not complete.is_dummy(p, v)
            ]
            assert len(real) <= 1

    def test_objective_preserved_exactly(self, t3):
        complete = to_complete(t3)
        solution = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})
        translated = incomplete_to_complete(solution, complete, seed=3)
        assert reference_objective(complete, translated) == objective(t3, solution)

    def test_roundtrip_identity(self, t3):
        complete = to_complete(t3)
        solution = part({0: 0, 1: 0, 2: 0}, {0: 1, 1: 1})
        translated = incomplete_to_complete(solution, complete, seed=1)
        back = complete_to_incomplete(complete, translated)
        assert back == solution

    def test_completeness_checked(self, t3):
        complete = to_complete(t3)
        with pytest.raises(CompletenessError):
            complete_to_incomplete(complete, part({0: 0, 1: 0}))

    def test_translation_deterministic_per_seed(self, t3):
        complete = to_complete(t3)
        solution = part({0: 0, 1: 0}, {2: 0})
        a = incomplete_to_complete(solution, complete, seed=7)
        b = incomplete_to_complete(solution, complete, seed=7)
        assert a.cliques == b.cliques

    def test_random_roundtrips_and_cost_equality(self):
        rng = random.Random(23)
        for _ in range(40):
            problem = random_problem(rng, rng.randint(2, 4), 3, forbidden_frac=0.2)
            solution = random_partition(rng, problem)
            complete = to_complete(problem)
            translated = incomplete_to_complete(
                solution, complete, seed=rng.randrange(100)
            )
            validate(complete, translated)
            assert len(translated.cliques) == complete.total
            incomplete_value = objective(problem, solution)
            complete_value = reference_objective(complete, translated)
            if incomplete_value == math.inf:
                assert complete_value == math.inf
            else:
                assert complete_value == incomplete_value  # exact, not approximate
            back = complete_to_incomplete(complete, translated)
            assert back == solution
            assert objective(problem, back) == incomplete_value


class TestOptimumTransfer:
    def test_complete_optimum_translates_to_incomplete_optimum(self):
        rng = random.Random(31)
        for _ in range(3):
            problem = random_problem(rng, 3, 2, forbidden_frac=0.2, quad_frac=0.3)
            complete = to_complete(problem)
            incomplete_best, _ = brute_force_mgm(problem)
            complete_best = None
            best_partition = None
            for partition in enumerate_complete_partitions(complete.total, problem.d):
                value = reference_objective(complete, partition)
                if value == math.inf:
                    continue
                if complete_best is None or value < complete_best:
                    complete_best = value
                    best_partition = partition
            assert complete_best == pytest.approx(incomplete_best, abs=1e-9)
            translated = complete_to_incomplete(complete, best_partition)
            assert objective(problem, translated) == pytest.approx(
                incomplete_best, abs=1e-9
            )
