import random

import pytest

from mgmatch.construction import (
    ConstructionTree,
    OverlapError,
    clique_clique_costs,
    construct_incremental,
    construct_parallel,
    construct_sequential,
    merge,
    merge_object,
    object_clique_costs,
)
from mgmatch.gm import Effort, GmMatching, solve_gm
from mgmatch.model import (
    Clique,
    CliquePartition,
    objective,
    singleton_partition,
    validate,
)

from conftest import part
from oracles import brute_force_mgm, random_problem

def exhaustive(sub, seed=0, effort=Effort.EXHAUSTIVE):
    """A solver pinned to exhaustive effort regardless of pipeline defaults."""
    return solve_gm(sub, seed, Effort.EXHAUSTIVE)


class TestObjectCliqueCosts:
    def test_sums_over_clique_members(self, t3):
        partial_solution = part({0: 0, 1: 0}, {0: 1, 1: 1})
        sub = object_clique_costs(t3, 2, partial_solution)
        assert sub.left_size == 1 and sub.right_size == 2
        # vertex 0 of object 2 against clique {1^1,1^2}: c02(0,0)+c12(0,0)
        assert sub.linear[(0, 0)] == pytest.approx(-1.0 + 3.0)
        # against clique {2^1,2^2}: c02(1,0)+c12(1,0)
        assert sub.linear[(0, 1)] == pytest.approx(2.0 + -1.0)

    def test_singleton_cliques_reduce_to_raw_costs(self, t3):
        singles = singleton_partition(2, 0)
        sub = object_clique_costs(t3, 1, singles)
        # left node s (vertex of object 1), right node i (singleton of object 0)
        assert sub.linear == {(0, 0): -2.0, (1, 1): -1.0, (1, 0): 1.0}
        assert sub.quadratic == {(((0, 0)), ((1, 1))): -0.5}

    def test_empty_partial(self, t3):
        sub = object_clique_costs(t3, 0, CliquePartition())
        assert sub.right_size == 0
        assert sub.linear == {} and sub.quadratic == {}

    def test_overlap_rejected(self, t3):
        with pytest.raises(OverlapError):
            object_clique_costs(t3, 0, part({0: 0}))

    def test_forbidden_absorbs_partial_sums(self, t3):
        # clique {2^1, 1^3}: c01(0,1)=+1 exists but c...(vertex 1 of object 0
        # against it) needs c02(1,0)=2 and c01 entry (1,1)... build a case
        # where one member pair is absent so the whole entry vanishes.
        partial_solution = part({1: 0, 2: 0})  # clique {1^2, 1^3}
        sub = object_clique_costs(t3, 0, partial_solution)
        # vertex 1 of object 0: c01(1,0) absent -> entry absent despite c02(1,0)=2
        assert (1, 0) not in sub.linear
        # vertex 0: c01(0,0)=-2 and c02(0,0)=-1 both exist
        assert sub.linear[(0, 0)] == pytest.approx(-3.0)


class TestCliqueCliqueCosts:
    def test_degenerates_to_pairwise_table(self, t3):
        a = singleton_partition(2, 0)
        b = singleton_partition(2, 1)
        sub = clique_clique_costs(t3, a, b)
        assert sub.linear == {(0, 0): -2.0, (1, 1): -1.0, (0, 1): 1.0}
        assert sub.quadratic == {(((0, 0)), ((1, 1))): -0.5}

    def test_multi_object_cliques(self, t3):
        a = part({0: 0, 1: 0})
        b = part({2: 0})
        sub = clique_clique_costs(t3, a, b)
        assert sub.linear[(0, 0)] == pytest.approx(-1.0 + 3.0)

    def test_disjoint_empty(self, t3):
        sub = clique_clique_costs(t3, CliquePartition(), CliquePartition())
        assert sub.left_size == 0 and sub.right_size == 0

    def test_overlap_rejected(self, t3):
        with pytest.raises(OverlapError):
            clique_clique_costs(t3, part({0: 0}), part({0: 1}))


class TestMerge:
    def test_empty_matching_is_disjoint_union(self, t3):
        a = part({0: 0}, {0: 1})
        b = part({1: 0})
        merged = merge(a, b, GmMatching())
        assert merged.cliques == a.cliques + b.cliques

    def test_single_union(self):
        a = part({0: 0})
        b = part({1: 0})
        merged = merge(a, b, GmMatching([(0, 0)]))
        assert merged.cliques == (Clique({0: 0, 1: 0}),)

    def test_object_merge(self, t3):
        partial_solution = part({0: 0, 1: 0}, {0: 1, 1: 1})
        merged = merge_object(t3, 2, partial_solution, GmMatching([(0, 1)]))
        assert merged == part({0: 0, 1: 0}, {0: 1, 1: 1, 2: 0})
        validate(t3, merged)

    def test_unknown_clique_reference(self, t3):
        a = part({0: 0})
        b = part({1: 0})
        with pytest.raises(IndexError):
            merge(a, b, GmMatching([(0, 5)]))


class TestConstructSequential:
    def test_t3_reaches_optimum(self, t3):
        solution = construct_sequential(t3, [0, 1, 2], gm=exhaustive, seed=1)
        assert objective(t3, solution) == pytest.approx(-3.5)
        assert solution == part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})

    def test_two_objects_single_solve(self, t3):
        sub = t3.restrict([0, 1])
        solution = construct_sequential(sub, [0, 1], gm=exhaustive, seed=0)
        assert objective(sub, solution) == pytest.approx(-3.5)

    def test_all_forbidden_gives_singletons(self):
        from mgmatch.model import MgmProblem

        problem = MgmProblem([2, 2, 2])
        solution = construct_sequential(problem, [0, 1, 2], seed=0)
        assert objective(problem, solution) == 0.0
        assert len(solution.canonical()) == 0

    def test_feasible_finite_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(30):
            problem = random_problem(rng, rng.randint(2, 5), 4, forbidden_frac=0.5)
            order = list(range(problem.d))
            rng.shuffle(order)
            solution = construct_sequential(problem, order, seed=rng.randrange(99))
            validate(problem, solution)
            value = objective(problem, solution)
            assert value <= 0.0  # merging is only ever accepted at negative cost

    def test_partial_restriction_property(self, t3):
        # after each chain step the accumulated solution covers a prefix
        acc = singleton_partition(t3.sizes[0], 0)
        covered = {0}
        for k, p in enumerate([1, 2], start=1):
            sub = object_clique_costs(t3, p, acc)
            matching = exhaustive(sub, 0)
            acc = merge_object(t3, p, acc, matching)
            covered.add(p)
            assert acc.objects() == covered
            validate(t3, acc)


class TestConstructParallel:
    def test_chain_tree_equals_sequential(self, t3):
        order = [0, 1, 2]
        tree = ConstructionTree.chain(order)
        a = construct_sequential(t3, order, gm=exhaustive, seed=5)
        b = construct_parallel(t3, tree, gm=exhaustive, seed=5)
        assert a.cliques == b.cliques

    def test_chain_tree_equality_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(25):
            problem = random_problem(rng, rng.randint(3, 5), 3, forbidden_frac=0.3)
            order = list(range(problem.d))
            rng.shuffle(order)
            seed = rng.randrange(1000)
            a = construct_sequential(problem, order, seed=seed)
            b = construct_parallel(problem, ConstructionTree.chain(order), seed=seed)
            assert a.cliques == b.cliques

    def test_balanced_tree_has_two_levels_for_four_objects(self):
        tree = ConstructionTree.balanced([0, 1, 2, 3])
        assert len(tree.schedule()) == 2
        chain = ConstructionTree.chain([0, 1, 2, 3])
        assert len(chain.schedule()) == 3

    def test_balanced_tree_feasible(self):
        rng = random.Random(31)
        for _ in range(2):
            problem = random_problem(rng, 5, 3, forbidden_frac=0.3)
            tree = ConstructionTree.balanced(range(5))
            solution = construct_parallel(problem, tree, seed=2)
            validate(problem, solution)
            assert objective(problem, solution) <= 0.0

    def test_two_leaf_tree(self, t3):
        sub = t3.restrict([0, 1])
        tree = ConstructionTree.chain([0, 1])
        solution = construct_parallel(sub, tree, gm=exhaustive, seed=0)
        assert objective(sub, solution) == pytest.approx(-3.5)

    def test_malformed_tree(self):
        with pytest.raises(ValueError):
            ConstructionTree((0, (1, 1)), 3)
        with pytest.raises(ValueError):
            ConstructionTree((0, (1, 2, 3)), 4)

    def test_deep_chain_builds_and_schedules(self):
        # tree walks are iterative: no recursion limit on long chains
        tree = ConstructionTree.chain(range(3000))
        levels = tree.schedule()
        assert len(levels) == 2999
        assert [seq for level in levels for seq, _ in level] == list(range(1, 3000))

    def test_schedule_numbers_each_level_left_to_right(self):
        tree = ConstructionTree(((0, 1), ((2, 3), 4)), 5)
        numbered = [[(seq, node) for seq, node in level] for level in tree.schedule()]
        assert numbered == [
            [(1, (0, 1)), (2, (2, 3))],
            [(3, ((2, 3), 4))],
            [(4, ((0, 1), ((2, 3), 4)))],
        ]


class TestConstructIncremental:
    def _inner(self, problem, seed):
        return construct_sequential(problem, None, gm=exhaustive, seed=seed)

    def test_warm_start_equals_inner_when_s_is_d(self, t3):
        solution = construct_incremental(t3, [0, 1, 2], 3, self._inner, seed=4)
        validate(t3, solution)
        assert objective(t3, solution) <= 0.0

    def test_minimal_warm_start(self, t3):
        solution = construct_incremental(
            t3, [0, 1, 2], 2, self._inner, gm=exhaustive, seed=4
        )
        validate(t3, solution)
        # warm-started pair {0,1} solved exactly, then object 2 chained on
        assert objective(t3, solution) == pytest.approx(-3.5)

    def test_warm_start_restriction_is_optimal(self, t3):
        restricted = t3.restrict([0, 1])
        want, _ = brute_force_mgm(restricted)
        solution = self._inner(restricted, 0)
        assert objective(restricted, solution) == pytest.approx(want)

    def test_out_of_range_s(self, t3):
        with pytest.raises(ValueError):
            construct_incremental(t3, [0, 1, 2], 1, self._inner)
        with pytest.raises(ValueError):
            construct_incremental(t3, [0, 1, 2], 4, self._inner)


class TestGraspStyleRestarts:
    def test_distinct_orders_best_of_runs(self):
        rng = random.Random(41)
        problem = random_problem(rng, 3, 3, forbidden_frac=0.2)
        values = []
        for run in range(5):
            order = list(range(problem.d))
            random.Random(run).shuffle(order)
            solution = construct_sequential(problem, order, gm=exhaustive, seed=run)
            values.append(objective(problem, solution))
        assert min(values) <= values[0]
