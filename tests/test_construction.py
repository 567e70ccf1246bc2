import math
import random
from functools import partial
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mgmatch import construction, gm
from mgmatch.construction import (
    ConstructionTree,
    OverlapError,
    clique_clique_costs,
    construct_incremental,
    construct_parallel,
    construct_sequential,
    derive_seed,
    merge,
    rematch,
)
from mgmatch.gm import Effort, _Ids, solve_gm, solve_lap
from mgmatch.io import parse_problem
from mgmatch.model import (
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
    objective,
    singleton_partition,
    validate,
)
from mgmatch.synchronization import build_sync_problem, solve_all_pairwise

from conftest import part
from oracles import (
    brute_force_mgm,
    dict_clique_clique_costs,
    linear_cost,
    quad_cost,
    random_partition,
    random_problem,
    reference_tree_steps,
)

exhaustive = partial(solve_gm, effort=Effort.EXHAUSTIVE)


def object_clique_costs(problem, p, solution):
    """The instance rematch solves: object p lifted to singletons against solution."""
    return clique_clique_costs(problem, singleton_partition(problem.sizes[p], p), solution)


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
            rematch(t3, 0, part({0: 0}), solve_gm, 0)

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

    def test_vertex_outside_its_object_rejected(self, t3):
        with pytest.raises(IndexError):
            clique_clique_costs(t3, part({0: 9}), part({1: 0}))


@st.composite
def split_problems(draw):
    """A random problem and a partition of part of its vertices, some
    cliques dropped so that covered objects keep unmatched vertices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    forbidden = draw(st.sampled_from([0.0, 0.3, 0.6]))
    problem = random_problem(rng, d, 3, forbidden_frac=forbidden, quad_frac=0.5)
    cliques = [c for c in random_partition(rng, problem) if rng.random() < 0.85]
    return problem, cliques, rng


def restricted(cliques, objects):
    return CliquePartition(Clique({p: v for p, v in c if p in objects}) for c in cliques)


def reference_costs(problem, a, b):
    """Aggregated table entry by entry from pointwise lookups; an absent
    quadratic entry counts as 0."""
    linear = {}
    for k, ca in enumerate(a.cliques):
        for l, cb in enumerate(b.cliques):
            costs = [linear_cost(problem, p, q, i, s) for p, i in ca for q, s in cb]
            if math.inf not in costs:
                linear[(k, l)] = sum(costs)
    quadratic = {}
    for x, y in combinations(sorted(linear), 2):
        c1, c2 = a.cliques[x[0]], a.cliques[y[0]]
        d1, d2 = b.cliques[x[1]], b.cliques[y[1]]
        quadratic[(x, y)] = sum(
            quad_cost(problem, p, q, (c1.get(p), d1.get(q)), (c2.get(p), d2.get(q)))
            for p in set(c1.objects()) & set(c2.objects())
            for q in set(d1.objects()) & set(d2.objects())
        )
    return linear, quadratic


def assert_passes_checks(table):
    """table equals the validating constructor's rebuild of it, entry
    order, stored arrays and partner lists included: the rebuild stores
    the linear entries sorted and each quadratic entry as the positions
    x < y of its assignments among them, so the table must too."""
    rebuilt = PairwiseCosts(table.left_size, table.right_size, table.linear, table.quadratic)
    assert table == rebuilt
    assert list(table.linear) == list(rebuilt.linear)
    assert list(table.quadratic) == list(rebuilt.quadratic)
    for got, want in zip(table.arrays(), rebuilt.arrays(), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert _Ids(table).partners == _Ids(rebuilt).partners


def assert_built_right(problem, table, a, b):
    """table passes the constructor's checks and equals the pointwise
    reference aggregation."""
    assert_passes_checks(table)
    linear, quadratic = reference_costs(problem, a, b)
    assert table.linear.keys() == linear.keys()
    for key, value in linear.items():
        assert table.linear[key] == pytest.approx(value, abs=1e-9)
    assert table.quadratic.keys() <= quadratic.keys()
    for key, value in quadratic.items():
        assert table.quadratic.get(key, 0.0) == pytest.approx(value, abs=1e-9)


class TestTrustedTables:
    """Tables built without the constructor's checks would pass them."""

    @given(split_problems())
    def test_clique_clique_costs(self, case):
        problem, cliques, rng = case
        objects = list(range(problem.d))
        rng.shuffle(objects)
        cut = rng.randint(1, problem.d - 1)
        # Either side may hold the larger objects: stored tables are read
        # in both orientations.
        a = restricted(cliques, set(objects[:cut]))
        b = restricted(cliques, set(objects[cut:]))
        assert_built_right(problem, clique_clique_costs(problem, a, b), a, b)

    @given(split_problems())
    def test_object_clique_costs(self, case):
        problem, cliques, rng = case
        p = rng.randrange(problem.d)
        partial = restricted(cliques, set(range(problem.d)) - {p})
        lifted = singleton_partition(problem.sizes[p], p)
        assert_built_right(problem, object_clique_costs(problem, p, partial), lifted, partial)

    @given(split_problems())
    def test_transposed(self, case):
        problem, _, _ = case
        for table in problem.costs.values():
            transposed = table.transposed()
            assert_passes_checks(transposed)
            assert transposed.linear == {(s, i): v for (i, s), v in table.linear.items()}
            # The keys swapped, made canonical again and sorted.
            swapped = {
                tuple(sorted(((b, a), (d, c)))): v
                for ((a, b), (c, d)), v in table.quadratic.items()
            }
            assert list(transposed.quadratic.items()) == sorted(swapped.items())
            assert transposed.transposed() == table

    @given(split_problems())
    def test_parsed(self, case):
        problem, _, rng = case
        parsed = parse_problem(shuffled_dd(problem, rng))
        assert parsed == problem
        for table in parsed.costs.values():
            assert_passes_checks(table)

    @given(split_problems())
    def test_restricted(self, case):
        # A restriction transposes the tables of the object pairs it reverses.
        problem, _, rng = case
        objects = list(range(problem.d))
        rng.shuffle(objects)
        for table in problem.restrict(objects).costs.values():
            assert_passes_checks(table)

    @given(split_problems())
    def test_linear_part_of_solve_gm(self, case):
        problem, _, _ = case
        checked = []

        def checking_lap(sub):
            assert_passes_checks(sub)
            checked.append(sub)
            return solve_lap(sub)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gm, "solve_lap", checking_lap)
            for table in problem.costs.values():
                solve_gm(table)
        assert len(checked) == len(problem.costs)

    @pytest.mark.parametrize("mode", ["sparse", "dense", "soft"])
    @given(case=split_problems(), at=st.integers(0, 5))
    def test_sync_problem(self, mode, case, at):
        # An object of size 0 gives tables of width 0 and of height 0.
        problem = with_empty_object(case[0], min(at, case[0].d))
        sync = build_sync_problem(problem, solve_all_pairwise(problem), mode=mode, alpha=0.5)
        for table in sync.costs.values():
            assert_passes_checks(table)


def shuffled_dd(problem, rng):
    """The problem in dd format, each block's 'a' lines in random order."""
    lines = []
    for (p, q), table in problem.costs.items():
        entries = list(table.linear.items())
        rng.shuffle(entries)
        ids = {key: aid for aid, (key, _) in enumerate(entries)}
        lines.append(f"gm {p} {q}")
        lines.append(f"p {table.left_size} {table.right_size} {len(ids)} {len(table.quadratic)}")
        lines += [f"a {ids[i, s]} {i} {s} {value!r}" for (i, s), value in entries]
        lines += [f"e {ids[x]} {ids[y]} {value!r}" for (x, y), value in table.quadratic.items()]
    return "\n".join(lines) + "\n"


def with_empty_object(problem, at):
    """The problem with an object of size 0 inserted before object ``at``."""
    def shift(p):
        return p + (p >= at)

    sizes = [*problem.sizes[:at], 0, *problem.sizes[at:]]
    return MgmProblem(sizes, {(shift(p), shift(q)): t for (p, q), t in problem.costs.items()})


def assert_matches_dict_loops(problem, a, b):
    """clique_clique_costs equals the dict-loop reference bit for bit: the
    same keys in the same order, the same float bits, Python ints and
    floats only."""
    table = clique_clique_costs(problem, a, b)
    linear, quadratic = dict_clique_clique_costs(problem, a, b)
    for got, want in ((table.linear, linear), (table.quadratic, quadratic)):
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        assert all(type(v) is float for v in got.values())
    assert all(type(k) is int for key in table.linear for k in key)
    assert all(type(k) is int for x, y in table.quadratic for k in x + y)


class TestArrayAggregation:
    @given(split_problems())
    def test_split_partitions(self, case):
        problem, cliques, rng = case
        objects = list(range(problem.d))
        rng.shuffle(objects)
        cut = rng.randint(0, problem.d)  # 0 or d leaves one side empty
        a = restricted(cliques, set(objects[:cut]))
        b = restricted(cliques, set(objects[cut:]))
        # Both orientations: each side reads stored tables as left and right.
        assert_matches_dict_loops(problem, a, b)
        assert_matches_dict_loops(problem, b, a)

    @given(split_problems())
    def test_lifted_object(self, case):
        problem, cliques, rng = case
        p = rng.randrange(problem.d)
        partial = restricted(cliques, set(range(problem.d)) - {p})
        lifted = singleton_partition(problem.sizes[p], p)
        assert_matches_dict_loops(problem, lifted, partial)
        assert_matches_dict_loops(problem, partial, lifted)


class TestMerge:
    def test_empty_matching_is_disjoint_union(self, t3):
        a = part({0: 0}, {0: 1})
        b = part({1: 0})
        merged = merge(a, b, ())
        assert merged.cliques == a.cliques + b.cliques

    def test_single_union(self):
        a = part({0: 0})
        b = part({1: 0})
        merged = merge(a, b, ((0, 0),))
        assert merged.cliques == (Clique({0: 0, 1: 0}),)

    def test_object_merge(self, t3):
        partial_solution = part({0: 0, 1: 0}, {0: 1, 1: 1})
        matching = ((0, 1),)
        sub, found, merged = rematch(t3, 2, partial_solution, lambda sub, seed: matching, 0)
        assert sub == object_clique_costs(t3, 2, partial_solution)
        assert found == matching
        assert merged == part({0: 0, 1: 0}, {0: 1, 1: 1, 2: 0})
        validate(t3, merged)

    def test_unknown_clique_reference(self, t3):
        a = part({0: 0})
        b = part({1: 0})
        with pytest.raises(IndexError):
            merge(a, b, ((0, 5),))

    def test_uniqueness_enforced(self):
        a = part({0: 0}, {0: 1})
        b = part({1: 0}, {1: 1})
        with pytest.raises(ValueError):
            merge(a, b, ((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            merge(a, b, ((0, 0), (1, 0)))


class TestConstructSequential:
    def test_t3_reaches_optimum(self, t3):
        solution = construct_sequential(t3, [0, 1, 2], gm=exhaustive, seed=1)
        assert objective(t3, solution) == pytest.approx(-3.5)
        assert solution == part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})

    def test_two_objects_single_solve(self, t3):
        sub = t3.restrict([0, 1])
        solution = construct_sequential(sub, [0, 1], gm=exhaustive, seed=0)
        assert objective(sub, solution) == pytest.approx(-3.5)

    @pytest.mark.parametrize("order", [[0, 1], [0, 1, 1], [0, 1, 2, 3], [1, 2, 3]])
    def test_order_must_be_a_permutation(self, t3, order):
        with pytest.raises(ValueError, match="order must be a permutation of the objects"):
            construct_sequential(t3, order)

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
            *_, acc = rematch(t3, p, acc, exhaustive, 0)
            covered.add(p)
            assert acc.objects() == covered
            validate(t3, acc)


def step_nodes(tree):
    """Each step as the nodes (node, left child, right child)."""
    return [tuple(tree.nodes[at] for at in step) for step in tree.steps]


def step_heights(tree):
    """The height of each step's node, computed along the steps in order."""
    height = [0] * len(tree.nodes)
    for node, left, right in tree.steps:
        height[node] = 1 + max(height[left], height[right])
    return [height[node] for node, _, _ in tree.steps]


def leaves(node):
    return {node} if isinstance(node, int) else leaves(node[0]) | leaves(node[1])


@st.composite
def construction_trees(draw):
    """A random binary tree over a random order of 2 to 8 objects."""
    order = draw(st.permutations(range(draw(st.integers(2, 8)))))

    def build(part):
        if len(part) == 1:
            return part[0]
        cut = draw(st.integers(1, len(part) - 1))
        return (build(part[:cut]), build(part[cut:]))

    return ConstructionTree(build(order), len(order))


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
        assert step_heights(ConstructionTree.balanced([0, 1, 2, 3])) == [1, 1, 2]
        assert step_heights(ConstructionTree.chain([0, 1, 2, 3])) == [1, 2, 3]

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

    @pytest.mark.parametrize("objects", [[0, 1], [0, 1, 2, 3]])
    def test_tree_must_cover_the_problem(self, t3, objects):
        with pytest.raises(ValueError, match="tree does not cover the problem's objects"):
            construct_parallel(t3, ConstructionTree.chain(objects))

    def test_deep_chain_builds_and_schedules(self):
        # tree walks are iterative: no recursion limit on long chains
        tree = ConstructionTree.chain(range(3000))
        assert step_heights(tree) == list(range(1, 3000))
        # step k matches object k against step k - 1's node
        nodes, lefts, rights = zip(*tree.steps)
        assert [tree.nodes[left] for left in lefts] == list(range(1, 3000))
        assert rights[1:] == nodes[:-1]

    def test_schedule_numbers_each_level_left_to_right(self):
        tree = ConstructionTree(((0, 1), ((2, 3), 4)), 5)
        assert step_nodes(tree) == [
            ((0, 1), 0, 1),
            ((2, 3), 2, 3),
            (((2, 3), 4), (2, 3), 4),
            (((0, 1), ((2, 3), 4)), (0, 1), ((2, 3), 4)),
        ]
        assert step_heights(tree) == [1, 1, 2, 3]

    @given(tree=construction_trees(), seed=st.integers(0, 2**32 - 1))
    @example(tree=ConstructionTree.balanced(range(6)), seed=0)  # level order != post-order
    def test_merges_follow_the_reference_steps(self, tree, seed):
        want = reference_tree_steps(tree.root)
        assert step_nodes(tree) == [(node, *node) for node in want]
        problem = random_problem(random.Random(tree.d), tree.d, 2)
        sides, solves = [], []

        def recording_costs(problem, a, b):
            sides.append((a.objects(), b.objects()))
            return clique_clique_costs(problem, a, b)

        def recording_gm(sub, step_seed):
            solves.append((*sides.pop(), step_seed))
            return solve_gm(sub, step_seed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(construction, "clique_clique_costs", recording_costs)
            construct_parallel(problem, tree, gm=recording_gm, seed=seed)
        assert solves == [
            (leaves(left), leaves(right), derive_seed(seed, k))
            for k, (left, right) in enumerate(want, 1)
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


@pytest.fixture
def clocked_gm(monkeypatch):
    """solve_gm on a construction clock that advances one second per solve."""
    now = [0.0]
    monkeypatch.setattr(construction, "time", SimpleNamespace(monotonic=lambda: now[0]))

    def gm(sub, seed):
        now[0] += 1.0
        return solve_gm(sub, seed)

    gm.solves = lambda: int(now[0])
    return gm


class TestDeadline:
    def test_chain_leaves_objects_after_the_deadline_unmatched(self, clocked_gm):
        problem = random_problem(random.Random(8), 6, 3, forbidden_frac=0.1)
        order = [3, 1, 5, 0, 2, 4]
        full = construct_sequential(problem, order, seed=2)
        cut = construct_sequential(problem, order, gm=clocked_gm, seed=2, deadline=2.5)
        assert clocked_gm.solves() == 3
        head = set(order[:4])
        assert cut.objects() == head
        assert cut == CliquePartition(
            Clique({p: v for p, v in c if p in head}) for c in full
        )

    def test_tree_merges_unmatched_after_the_deadline(self, clocked_gm):
        problem = random_problem(random.Random(9), 6, 3, forbidden_frac=0.1)
        tree = ConstructionTree.balanced([2, 0, 5, 1, 4, 3])
        solution = construct_parallel(problem, tree, gm=clocked_gm, deadline=1.5)
        assert clocked_gm.solves() == 2
        validate(problem, solution)
        assert solution.objects() == set(range(6))

    def test_expired_deadline_solves_nothing(self, clocked_gm, t3):
        order = [2, 0, 1]
        seq = construct_sequential(t3, order, gm=clocked_gm, deadline=0.0)
        tree = ConstructionTree.balanced(order)
        par = construct_parallel(t3, tree, gm=clocked_gm, deadline=0.0)
        inc = construct_incremental(
            t3, order, 2, lambda sub, seed: CliquePartition(), gm=clocked_gm, deadline=0.0
        )
        assert clocked_gm.solves() == 0
        assert seq == par == inc == CliquePartition()


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
