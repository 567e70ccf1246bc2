import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgmatch.construction import clique_clique_costs
from mgmatch.gm import _Ids
from mgmatch.model import (
    Clique,
    CliquePartition,
    DuplicateVertexError,
    MgmProblem,
    PairwiseCosts,
    entry_arrays,
    objective,
    singleton_partition,
    validate,
)

from conftest import part
from oracles import (
    linear_cost,
    quad_cost,
    quad_get,
    random_partition,
    random_problem,
    reference_objective,
)


class TestForbidden:
    def test_compares_as_plus_infinity(self, t3):
        # (1, 0) of pair (0, 1) is forbidden in t3.
        forbidden = objective(t3, part({0: 1, 1: 0}))
        assert forbidden == math.inf
        assert objective(t3, part({0: 0, 1: 0})) < forbidden


class TestLookupLinear:
    def test_direct_read(self, t3):
        assert linear_cost(t3, 0, 1, 0, 0) == -2.0

    def test_symmetric_read(self, t3):
        assert linear_cost(t3, 1, 0, 0, 0) == -2.0

    def test_absent_is_forbidden(self, t3):
        assert linear_cost(t3, 0, 1, 1, 0) == math.inf


class TestObjective:
    def test_mixed_clique(self, t3):
        solution = part({0: 0, 1: 0, 2: 0}, {0: 1, 1: 1})
        assert objective(t3, solution) == pytest.approx(-1.5)

    def test_global_optimum(self, t3):
        solution = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})
        assert objective(t3, solution) == pytest.approx(-3.5)

    def test_all_singletons(self, t3):
        singles = part({0: 0}, {0: 1}, {1: 0}, {1: 1}, {2: 0})
        assert objective(t3, singles) == 0.0

    def test_forbidden_pair(self, t3):
        solution = part({0: 1, 1: 0})
        assert objective(t3, solution) == math.inf

    def test_infeasible_raises(self, t3):
        bad = part({0: 0, 1: 0}, {0: 0, 1: 1})
        with pytest.raises(DuplicateVertexError):
            objective(t3, bad)


class TestValidate:
    def test_ok(self, t3):
        validate(t3, part({0: 0, 1: 0}, {2: 0}))

    def test_duplicate_vertex(self, t3):
        with pytest.raises(DuplicateVertexError):
            validate(t3, part({0: 0}, {0: 0, 1: 0}))
        with pytest.raises(DuplicateVertexError):
            clique_clique_costs(t3, part({0: 0}, {0: 0, 1: 0}), part({2: 0}))

    def test_bad_index(self, t3):
        with pytest.raises(IndexError):
            validate(t3, part({0: 2}))

    @pytest.mark.parametrize("clique", [{0: 2}, {3: 0}, {0: -1}, {-1: 0}])
    def test_index_outside_sizes(self, t3, clique):
        # A negative index must not wrap around to the last object or vertex.
        with pytest.raises(IndexError):
            validate(t3, part(clique))
        with pytest.raises(IndexError):
            clique_clique_costs(t3, part(clique), part({1: 0}))

    def test_columns_follow_the_sizes_asked(self):
        partition = part({0: 1, 1: 0})
        columns = partition.columns((2, 1))
        assert as_lists(columns) == {0: [-1, 0], 1: [0]}
        assert all(column.dtype == np.int64 for column in columns.values())
        assert partition.columns([2, 1]) is columns  # equal sizes: the cached index
        assert as_lists(partition.columns((3, 1))) == {0: [-1, 0, -1], 1: [0]}
        with pytest.raises(IndexError):
            partition.columns((1, 1))

    def test_clique_rejects_two_per_object(self):
        with pytest.raises(DuplicateVertexError):
            Clique([(0, 0), (0, 1)])


class TestClique:
    def test_members_are_the_sorted_pairs(self):
        clique = Clique([(2, 0), (0, 1), (1, 1)])
        assert isinstance(clique, tuple) and clique == ((0, 1), (1, 1), (2, 0))
        assert Clique({2: 0, 0: 1, 1: 1}) == clique
        assert repr(clique) == "Clique{0:1, 1:1, 2:0}"
        with pytest.raises(DuplicateVertexError):
            Clique([(1, 0), (0, 0), (1, 0)])
        with pytest.raises(ValueError):
            Clique([(0, 0, 1)])

    @given(st.lists(st.dictionaries(st.integers(0, 4), st.integers(0, 3)), max_size=6))
    def test_hashes_compares_and_sorts_like_its_member_tuple(self, members):
        cliques = [Clique(m) for m in members]
        pairs = [tuple(sorted(m.items())) for m in members]
        assert [hash(c) for c in cliques] == [hash(t) for t in pairs]
        assert [tuple(c) for c in sorted(cliques)] == sorted(pairs)
        for (a, x), (b, y) in zip(zip(cliques, pairs), zip(cliques[1:], pairs[1:])):
            assert ((a == b), (a < b), (a <= b)) == ((x == y), (x < y), (x <= y))
        assert len(set(cliques)) == len(set(pairs))

    def test_lookups(self):
        clique = Clique({0: 2, 3: 1})
        assert [clique.get(p) for p in range(5)] == [2, None, None, 1, None]
        assert [clique.covers(p) for p in range(5)] == [True, False, False, True, False]
        assert clique.objects() == (0, 3) and len(clique) == 2
        assert (3, 1) in clique and (3, 0) not in clique and (1, None) not in clique

    def test_without_object(self):
        clique = Clique({0: 2, 1: 0, 3: 1})
        rest = clique.without_object(1)
        assert type(rest) is Clique and rest == Clique({0: 2, 3: 1})
        assert clique.without_object(2) is clique
        assert Clique({0: 2}).without_object(0) == Clique()

    def test_union(self):
        merged = Clique({0: 2, 3: 1}).union(Clique({1: 0}))
        assert type(merged) is Clique and merged == Clique({0: 2, 1: 0, 3: 1})

    def test_union_rejects_a_shared_object(self):
        with pytest.raises(DuplicateVertexError):
            Clique({0: 2, 3: 1}).union(Clique({1: 0, 3: 1}))
        with pytest.raises(DuplicateVertexError):
            Clique({0: 2}).union(Clique({0: 1}))


def as_lists(columns):
    return {p: column.tolist() for p, column in columns.items()}


class TestVertexIndex:
    @given(st.integers(0, 2**32 - 1))
    def test_views_agree(self, seed):
        """vertices[columns[p][v], p] == v for every covered vertex, and
        every other entry of the vertex table is -1; objects of size 0
        and uncovered vertices included."""
        rng = random.Random(seed)
        problem = random_problem(rng, rng.randint(2, 5), 3, min_size=0)
        full = random_partition(rng, problem)
        partition = CliquePartition(c for c in full if rng.random() < 0.7)
        columns, vertices = partition.columns(problem.sizes), partition.vertices(problem.sizes)
        assert vertices.shape == (len(partition.cliques), problem.d)
        assert vertices.dtype == np.int64
        assert sorted(columns) == sorted(partition.objects())
        expected = np.full(vertices.shape, -1)
        for p, column in columns.items():
            assert len(column) == problem.sizes[p]
            for v, k in enumerate(column.tolist()):
                if k >= 0:
                    assert vertices[k, p] == v
                    expected[k, p] = v
        assert np.array_equal(vertices, expected)
        for k, clique in enumerate(partition.cliques):
            assert dict(clique) == {p: v for p, v in enumerate(vertices[k]) if v >= 0}

    def test_views_are_read_only(self):
        partition = part({0: 1, 1: 0}, {0: 0})
        with pytest.raises(ValueError):
            partition.vertices((2, 1))[0, 0] = 5
        with pytest.raises(ValueError):
            partition.columns((2, 1))[0][0] = 5

    def test_views_are_cached_together(self):
        partition = part({0: 1, 1: 0}, {0: 0})
        vertices = partition.vertices((2, 1))
        columns = partition.columns([2, 1])
        assert partition.vertices([2, 1]) is vertices  # equal sizes, by value
        assert partition.columns((2, 1)) is columns
        wider = partition.vertices((3, 2, 1))
        assert wider is not vertices
        assert wider.tolist() == [[1, 0, -1], [0, -1, -1]]
        assert partition.columns((3, 2, 1)) is not columns
        assert as_lists(partition.columns((3, 2, 1))) == {0: [1, 0, -1], 1: [0, -1]}
        again = partition.vertices((2, 1))  # the last sizes asked are the cached ones
        assert again is not vertices and again.tolist() == [[1, 0], [0, -1]]

    def test_empty_partition(self):
        assert CliquePartition().vertices((2, 3)).shape == (0, 2)
        assert CliquePartition().columns((2, 3)) == {}

    @pytest.mark.parametrize(
        "cliques, error",
        [
            (({0: 0}, {0: 0, 1: 0}), DuplicateVertexError),
            (({0: 2},), IndexError),
            (({3: 0},), IndexError),
            (({0: -1},), IndexError),
            (({-1: 0},), IndexError),
        ],
    )
    def test_vertices_alone_raises_as_validate(self, t3, cliques, error):
        with pytest.raises(error):
            validate(t3, part(*cliques))
        partition = part(*cliques)
        for _ in range(2):  # a failed build caches nothing
            with pytest.raises(error):
                partition.vertices(t3.sizes)


class TestNormalization:
    def test_singletons_do_not_affect_equality(self, t3):
        a = part({0: 0, 1: 0})
        b = part({0: 0, 1: 0}, {0: 1}, {1: 1}, {2: 0})
        assert a == b

    def test_singletons_do_not_affect_objective(self, t3):
        a = part({0: 0, 1: 0})
        b = a.normalized(t3.sizes)
        assert objective(t3, a) == objective(t3, b)
        assert len(b.cliques) == 4

    def test_empty_cliques_dropped(self):
        p = CliquePartition([Clique(), Clique({0: 0})])
        assert len(p.cliques) == 1


class TestInvariants:
    def test_objective_matches_reference_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(60):
            problem = random_problem(rng, rng.randint(2, 4), 3)
            solution = random_partition(rng, problem)
            want = reference_objective(problem, solution)
            assert objective(problem, solution) == want  # both math.fsum: bit for bit

    def test_objective_invariant_under_clique_order(self):
        rng = random.Random(11)
        for _ in range(20):
            problem = random_problem(rng, 3, 3, forbidden_frac=0.0)
            solution = random_partition(rng, problem)
            shuffled = list(solution.cliques)
            rng.shuffle(shuffled)
            assert objective(problem, solution) == objective(
                problem, CliquePartition(shuffled)
            )

    def test_objective_additivity_over_object_split(self):
        rng = random.Random(13)
        for _ in range(30):
            d = rng.randint(3, 4)
            problem = random_problem(rng, d, 3, forbidden_frac=0.0)
            solution = random_partition(rng, problem)
            subset = sorted(rng.sample(range(d), rng.randint(1, d - 1)))
            rest = [p for p in range(d) if p not in subset]
            obj_a = _restricted_objective(problem, solution, subset)
            obj_b = _restricted_objective(problem, solution, rest)
            cross = _cross_terms(problem, solution, set(subset), set(rest))
            total = objective(problem, solution)
            assert total == pytest.approx(obj_a + obj_b + cross, abs=1e-9)

    def test_restrict_roundtrip_table_roles(self):
        rng = random.Random(17)
        problem = random_problem(rng, 4, 3, forbidden_frac=0.1)
        sub = problem.restrict([2, 0])
        assert sub.sizes == (problem.sizes[2], problem.sizes[0])
        for (i, s), v in sub.costs[(0, 1)].linear.items():
            assert linear_cost(problem, 2, 0, i, s) == v

    @pytest.mark.parametrize("objects", [[0, 0], [2, 0, 2]])
    def test_restrict_rejects_repeated_objects(self, t3, objects):
        with pytest.raises(ValueError, match="restriction objects must be distinct"):
            t3.restrict(objects)

    def test_objective_invariant_under_object_relabeling(self):
        rng = random.Random(19)
        for _ in range(15):
            problem = random_problem(rng, 3, 3, forbidden_frac=0.2)
            solution = random_partition(rng, problem)
            perm = list(range(problem.d))
            rng.shuffle(perm)
            relabeled_problem = problem.restrict(perm)
            renum = {p: k for k, p in enumerate(perm)}
            relabeled_solution = CliquePartition(
                Clique({renum[p]: v for p, v in c}) for c in solution
            )
            a = objective(problem, solution)
            b = objective(relabeled_problem, relabeled_solution)
            if a == math.inf:
                assert b == math.inf
            else:
                assert b == pytest.approx(a, abs=1e-12)


def _restricted_objective(problem, solution, objects):
    if len(objects) < 2:
        return 0.0
    renum = {p: k for k, p in enumerate(objects)}
    keep = set(objects)
    restricted = CliquePartition(
        Clique({renum[p]: v for p, v in c if p in keep})
        for c in solution.cliques
    )
    return objective(problem.restrict(objects), restricted)


def _cross_terms(problem, solution, set_a, set_b):
    total = 0.0
    cliques = [dict(c) for c in solution.cliques]
    for c in cliques:
        for p in sorted(c):
            for q in sorted(c):
                if p < q and ((p in set_a) != (q in set_a)):
                    total += linear_cost(problem, p, q, c[p], c[q])
    from itertools import combinations

    for x, y in combinations(cliques, 2):
        shared = sorted(set(x) & set(y))
        for p, q in combinations(shared, 2):
            if (p in set_a) != (q in set_a):
                total += quad_cost(problem, p, q, (x[p], x[q]), (y[p], y[q]))
    return total


class TestPairwiseCosts:
    def test_quadratic_requires_allowed_endpoints(self):
        with pytest.raises(ValueError):
            PairwiseCosts(2, 2, linear={(0, 0): 1.0}, quadratic={((0, 0), (1, 1)): 0.5})

    def test_quadratic_rejects_self_pairs(self):
        with pytest.raises(ValueError):
            PairwiseCosts(
                2,
                2,
                linear={(0, 0): 1.0, (0, 1): 1.0},
                quadratic={((0, 0), (0, 1)): 0.5},
            )

    def test_symmetric_lookup(self):
        table = PairwiseCosts(
            2,
            2,
            linear={(0, 0): 1.0, (1, 1): 1.0},
            quadratic={((1, 1), (0, 0)): 0.25},
        )
        assert quad_get(table, (0, 0), (1, 1)) == 0.25
        assert quad_get(table, (1, 1), (0, 0)) == 0.25

    def test_problem_symmetric_roles(self, t3):
        assert quad_cost(t3, 1, 0, (0, 0), (1, 1)) == -0.5
        assert quad_cost(t3, 0, 1, (0, 0), (1, 1)) == -0.5

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match="not finite"):
            PairwiseCosts(2, 2, linear={(0, 0): value})
        with pytest.raises(ValueError, match="not finite"):
            PairwiseCosts(
                2, 2, linear={(0, 0): 1.0, (1, 1): 1.0}, quadratic={((0, 0), (1, 1)): value}
            )

    def test_linear_key_out_of_range(self):
        with pytest.raises(IndexError):
            PairwiseCosts(2, 3, linear={(2, 0): 1.0})
        with pytest.raises(IndexError):
            PairwiseCosts(2, 3, linear={(0, -1): 1.0})

    def test_non_integer_index_rejected(self):
        # int64 keys would truncate 0.5 to 0 and store (0, 1) twice.
        with pytest.raises(TypeError):
            PairwiseCosts(2, 2, linear={(0.5, 1): 1.0, (0, 1): 2.0})
        with pytest.raises(TypeError):
            PairwiseCosts(2, 2, linear={(0, 1.0): 1.0})
        table = PairwiseCosts(2, 2, linear={(np.int64(1), np.int32(0)): 1.0})
        assert table.linear == {(1, 0): 1.0}

    def test_duplicate_quadratic_key_rejected(self):
        with pytest.raises(ValueError):
            PairwiseCosts(
                2,
                2,
                linear={(0, 0): 1.0, (1, 1): 1.0},
                quadratic={((0, 0), (1, 1)): 0.5, ((1, 1), (0, 0)): 0.5},
            )

    def test_missing_pairs_get_empty_tables(self):
        # The problem builds them without the checking constructor.
        problem = MgmProblem([2, 0, 3], {(0, 2): PairwiseCosts(2, 3, {(1, 2): 1.0})})
        for p, q in [(0, 1), (1, 2)]:
            table = problem.costs[(p, q)]
            built = PairwiseCosts(problem.sizes[p], problem.sizes[q])
            assert table == built
            assert table.linear == table.quadratic == {}
            for got, want in zip(table.arrays(), built.arrays(), strict=True):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert not got.flags.writeable

    def test_equality_compares_sizes(self):
        assert PairwiseCosts(2, 2) == PairwiseCosts(2, 2)
        assert PairwiseCosts(2, 2) != PairwiseCosts(2, 3)

    def test_equality_compares_entries_not_their_order(self):
        linear = {(0, 0): 1.0, (0, 2): 2.0, (1, 0): 3.0, (1, 1): 4.0, (1, 2): 5.0}
        quadratic = {((0, 0), (1, 2)): 0.5, ((0, 2), (1, 0)): -0.5}
        table = PairwiseCosts(2, 3, linear, quadratic)
        others = {
            "reordered": PairwiseCosts(
                2, 3, dict(reversed(linear.items())), dict(reversed(quadratic.items()))
            ),
            "linear value": PairwiseCosts(2, 3, {**linear, (1, 1): 4.5}, quadratic),
            "quadratic value": PairwiseCosts(
                2, 3, linear, {**quadratic, ((0, 2), (1, 0)): -0.25}
            ),
            "extra entry": PairwiseCosts(2, 3, linear, {**quadratic, ((0, 0), (1, 1)): 0.25}),
            "shape": PairwiseCosts(2, 4, linear, quadratic),
        }
        assert [name for name, other in others.items() if other == table] == ["reordered"]
        # Equality reads the arrays and builds no dict views.
        assert all(t._dicts is None for t in (table, *others.values()))

    def test_problem_rejects_table_of_wrong_shape(self):
        with pytest.raises(ValueError):
            MgmProblem([2, 3], {(0, 1): PairwiseCosts(3, 2)})

    @pytest.mark.parametrize(
        "sizes, keys, message",
        [
            ([], [], "an MGM problem needs at least 2 objects"),
            ([3], [], "an MGM problem needs at least 2 objects"),
            ([2, -1], [], "object sizes must be non-negative"),
            ([2, 2], [(1, 0)], "cost table key (1,0) is not an ordered object pair"),
            ([2, 2], [(0, 0)], "cost table key (0,0) is not an ordered object pair"),
            ([2, 2], [(0, 2)], "cost table key (0,2) is not an ordered object pair"),
            ([2, 2], [(-1, 1)], "cost table key (-1,1) is not an ordered object pair"),
        ],
    )
    def test_problem_rejects_bad_sizes_and_keys(self, sizes, keys, message):
        with pytest.raises(ValueError) as err:
            MgmProblem(sizes, {key: PairwiseCosts(2, 2) for key in keys})
        assert str(err.value) == message

    def test_arrays_sort_linear_and_quadratic_entries(self):
        table = PairwiseCosts(
            2,
            3,
            linear={(1, 2): -1.5, (0, 0): 2.0, (1, 0): 1.0, (0, 2): 3.0},
            quadratic={((0, 2), (1, 0)): -0.5, ((1, 2), (0, 0)): 0.25},
        )
        lin_keys, lin_values, quad_pos, quad_values = table.arrays()
        assert lin_keys.tolist() == [[0, 0, 1, 1], [0, 2, 0, 2]]
        assert lin_values.tolist() == [2.0, 3.0, 1.0, -1.5]
        assert list(table.linear) == [(0, 0), (0, 2), (1, 0), (1, 2)]
        # The positions of the two assignments among the sorted linear
        # entries, lower first, and the entries sorted by them.
        assert quad_pos.dtype == np.int64
        assert quad_pos.tolist() == [[0, 1], [3, 2]]
        assert quad_values.tolist() == [0.25, -0.5]
        assert list(table.quadratic) == [((0, 0), (1, 2)), ((0, 2), (1, 0))]
        assert table.arrays() is table.arrays()

    def test_transposed_sorts_linear_and_quadratic_entries(self):
        table = PairwiseCosts(
            2,
            3,
            linear={(0, 1): 1.0, (1, 0): 2.0, (1, 2): 3.0},
            quadratic={((0, 1), (1, 2)): 0.5, ((0, 1), (1, 0)): -0.5},
        ).transposed()
        lin_keys, lin_values, quad_pos, quad_values = table.arrays()
        assert lin_keys.tolist() == [[0, 1, 2], [1, 0, 1]]
        assert lin_values.tolist() == [2.0, 1.0, 3.0]
        # Re-ranked to the new linear order, lower position first, and
        # sorted again.
        assert quad_pos.dtype == np.int64
        assert quad_pos.tolist() == [[0, 1], [1, 2]]
        assert quad_values.tolist() == [-0.5, 0.5]
        assert list(table.quadratic.items()) == [
            (((0, 1), (1, 0)), -0.5), (((1, 0), (2, 1)), 0.5)
        ]

    def test_partner_lists_in_entry_order(self):
        linear = {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0, (0, 2): 1.0}
        quadratic = {((1, 1), (2, 2)): 0.5, ((0, 0), (1, 1)): -0.25, ((0, 2), (1, 1)): 2.0}
        for table in (
            PairwiseCosts(3, 3, linear, quadratic),
            PairwiseCosts._trusted(3, 3, *entry_arrays(linear, quadratic)),
        ):
            # ids follow sorted(linear): (0, 0), (0, 2), (1, 1), (2, 2), and
            # each partner list is ascending by id.
            assert _Ids(table).partners == [
                [(2, -0.25)], [(2, 2.0)], [(0, -0.25), (1, 2.0), (3, 0.5)], [(2, 0.5)]
            ]
        for view in table.arrays():
            with pytest.raises(ValueError):
                view[...] = 0

    @given(st.integers(0, 2**32 - 1))
    def test_arrays_do_not_depend_on_entry_order(self, seed):
        rng = random.Random(seed)
        table = random_problem(rng, 2, 5, quad_frac=0.5).costs[(0, 1)]
        shape = (table.left_size, table.right_size)
        linear, quadratic = list(table.linear.items()), list(table.quadratic.items())
        rng.shuffle(linear)
        rng.shuffle(quadratic)
        linear, quadratic = dict(linear), dict(quadratic)
        ordered = PairwiseCosts(
            *shape, dict(sorted(linear.items())), dict(sorted(quadratic.items()))
        )
        for shuffled in (
            PairwiseCosts(*shape, linear, quadratic),
            PairwiseCosts._trusted(*shape, *entry_arrays(linear, quadratic)),
        ):
            for got, want in zip(shuffled.arrays(), ordered.arrays()):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_arrays_of_an_empty_table(self):
        lin_keys, lin_values, quad_pos, quad_values = PairwiseCosts(2, 2).arrays()
        assert lin_keys.shape == quad_pos.shape == (2, 0)
        assert lin_values.shape == quad_values.shape == (0,)


class TestPairTable:
    def test_raw_tables(self, t3):
        sub = t3.pair_table(0, 1)
        assert sub.linear == {(0, 0): -2.0, (1, 1): -1.0, (0, 1): 1.0}
        assert sub.quadratic == {((0, 0), (1, 1)): -0.5}

    def test_swapped_orientation(self, t3):
        sub = t3.pair_table(1, 0)
        assert sub.linear == {(0, 0): -2.0, (1, 1): -1.0, (1, 0): 1.0}


def test_singleton_partition():
    p = singleton_partition(3, 1)
    assert list(p.cliques) == [((1, 0),), ((1, 1),), ((1, 2),)]
