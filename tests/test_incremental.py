"""Shortcuts in local search that must not change what it computes.

Swap local search prunes clique pairs with no acceptable swap and reuses
each pair's best joint swap while the owner cliques of its delta matrix
are unchanged; GM local search prices candidates with ObjectiveTerms
instead of objective(). Each is checked against a fresh computation on
small random problems, and the searches' outputs are pinned.
"""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgmatch import construction
from mgmatch.construction import construct_sequential
from mgmatch.gm import solve_gm
from mgmatch.local_search import (
    ObjectiveTerms,
    alternate,
    apply_multiswap,
    best_multiswap,
    swap_deltas,
    swap_local_search,
    swaps_all_forbidden,
)
from mgmatch.model import (
    FORBIDDEN,
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
    objective,
)

from conftest import part
from oracles import random_partition, random_problem, reference_objective


@st.composite
def problems(draw):
    """A tiny random problem plus a generator for the test's own choices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    forbidden = draw(st.sampled_from([0.0, 0.3, 0.6, 0.85]))
    return random_problem(rng, d, 3, forbidden_frac=forbidden), rng


def rematch(problem, solution, p, seed):
    """GM local search's move: split object p out, then re-match it."""
    split = CliquePartition(c.without_object(p) for c in solution)
    return construction.rematch(problem, p, split, solve_gm, seed)[1]


def connected(nodes, adjacent):
    reached = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        p = frontier.pop()
        for q in nodes:
            if q not in reached and adjacent(p, q):
                reached.add(q)
                frontier.append(q)
    return len(reached) == len(nodes)


class TestPruning:
    @given(problems())
    def test_pruned_pairs_get_no_swap(self, case):
        problem, rng = case
        solution = random_partition(rng, problem)
        no_swap = ((0,) * problem.d, 0.0)
        for first, second in combinations(sorted(solution.cliques), 2):
            deltas = swap_deltas(problem, solution, first, second)
            involved = sorted(set(first.objects()) | set(second.objects()))

            def forbidden(p, q):
                assert (deltas.get(p, q) is FORBIDDEN) == (deltas.get(q, p) is FORBIDDEN)
                assert deltas.get(p, q) == deltas.get(q, p)  # one delta per pair
                return deltas.get(p, q) is FORBIDDEN

            pruned = swaps_all_forbidden(problem, first, second)
            assert pruned == connected(involved, forbidden)
            if pruned:
                outcome = best_multiswap(
                    problem, solution, first, second, seed=rng.randrange(100)
                )
                assert outcome == no_swap


class TestDeltaCache:
    @given(problems())
    def test_reusable_matrices_equal_fresh_ones(self, case):
        """Along random swaps and GM re-matches, a matrix whose owner
        cliques are all still in the solution equals a recomputation."""
        problem, rng = case
        solution = random_partition(rng, problem)  # covers every vertex
        cache = {}
        for _ in range(6):
            live = set(solution.cliques)
            for key in combinations(sorted(solution.cliques), 2):
                fresh = swap_deltas(problem, solution, *key)
                assert fresh.owners is not None and set(key) <= set(fresh.owners)
                cached = cache.get(key)
                if cached is not None and set(cached.owners) <= live:
                    assert cached.entries == fresh.entries
                else:
                    cache[key] = fresh
            if len(solution.cliques) >= 2 and rng.random() < 0.5:
                first, second = rng.sample(sorted(solution.cliques), 2)
                bits = [rng.randint(0, 1) for _ in range(problem.d)]
                solution = apply_multiswap(solution, first, second, bits)
            else:
                p = rng.randrange(problem.d)
                solution = rematch(problem, solution, p, rng.randrange(100))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([0.0, 0.3, 0.6]))
    def test_kept_outcomes_equal_fresh_ones(self, seed, d, forbidden):
        """Every cached outcome whose owner cliques are all in a solution is
        best_multiswap's there (no-swap for a pruned pair): in the result of
        swap local search, and after a random joint swap, as when alternate
        hands the cache on. Up to 16 contracted groups it is seed-free."""
        rng = random.Random(seed)
        problem = random_problem(rng, d, 4, forbidden_frac=forbidden, quad_frac=0.5)
        cache = {}
        solution = swap_local_search(problem, random_partition(rng, problem), cache=cache)
        for _ in range(2):
            live = set(solution.cliques)
            for (first, second), (owners, outcome) in cache.items():
                if owners is not None and set(owners) <= live:
                    assert outcome == best_multiswap(problem, solution, first, second)
            if len(live) < 2:
                break
            first, second = rng.sample(sorted(live), 2)
            bits = [rng.randint(0, 1) for _ in range(d)]
            solution = apply_multiswap(solution, first, second, bits)

    def test_uncovered_vertex_makes_matrix_single_use(self, t3):
        # The quadratic entry ((0,0),(1,1)) of t3 is looked up through
        # vertex 1 of object 0, which no clique holds here.
        first, second = Clique({0: 0, 1: 0}), Clique({2: 0})
        solution = part({0: 0, 1: 0}, {1: 1}, {2: 0})
        assert swap_deltas(t3, solution, first, second).owners is None
        covered = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})
        assert set(swap_deltas(t3, covered, first, second).owners) == set(covered.cliques)


class TestObjectiveTerms:
    @given(problems())
    def test_rematch_value_is_objective(self, case):
        problem, rng = case
        current = random_partition(rng, problem)
        terms = ObjectiveTerms(problem, current)
        assert terms.value() == objective(problem, current)
        for _ in range(5):
            p = rng.randrange(problem.d)
            candidate = rematch(problem, current, p, rng.randrange(100))
            row = terms.row(p, candidate)
            value = terms.value(p, row)
            want = objective(problem, candidate)
            if want is FORBIDDEN:
                assert value is FORBIDDEN
            else:
                assert value == want  # fsum of the same terms: equal floats
                assert value == pytest.approx(
                    reference_objective(problem, candidate), abs=1e-9
                )
            if rng.random() < 0.5:
                terms.replace(p, row)
                current = candidate
                assert terms.value() == objective(problem, current)


def pinned_instance(seed):
    rng = random.Random(seed)
    d = rng.choice([4, 6, 9, 14])
    if d < 14:
        problem = random_problem(
            rng, d, 4, forbidden_frac=rng.choice([0.0, 0.1, 0.4, 0.7]), quad_frac=0.2
        )
    else:
        problem = random_problem(rng, d, 3, forbidden_frac=0.05, quad_frac=0.3, min_size=2)
        # Every match attractive: cliques span all 14 objects, so swap
        # energies have up to 14 variables.
        problem = MgmProblem(
            problem.sizes,
            {
                pair: PairwiseCosts(
                    table.left_size,
                    table.right_size,
                    {k: v - 6.0 for k, v in table.linear.items()},
                    table.quadratic,
                )
                for pair, table in problem.costs.items()
            },
        )
    order = list(range(d))
    rng.shuffle(order)
    return problem, construct_sequential(problem, order, seed=seed)


def digest(partition):
    cliques = sorted(c.pairs for c in partition.canonical())
    return hashlib.sha256(repr(cliques).encode()).hexdigest()[:16]


# (objective of alternate, digest of alternate's partition), computed by
# the implementation that recomputed every swap delta matrix and called
# objective() for every GM-LS candidate. The results of seeds 0, 9 and 17
# (d=14) come from the exact, contracted best_multiswap; a forbidden-swap
# penalty with roof duality and improve sweeps stopped at the higher
# objectives -1217.525, -1168.094 and -1310.238.
PINNED = {
    0: (-1291.498, "4129b399a3359de0"),
    1: (-68.488, "cb086876ce896d93"),
    2: (-15.234, "5c5e3286afbaca02"),
    3: (-60.946, "6808cd8e39b4aa7e"),
    4: (-24.653, "cd8ddd5ec1d33e6f"),
    5: (-42.12, "5a1de963a970b107"),
    6: (-4.618, "39f6a1b22fe11eb2"),
    7: (-49.411, "4ec13c4345e964cc"),
    8: (-21.636, "7e258f8f8ed5ba26"),
    9: (-1315.404, "884703049f504b8a"),
    10: (-9.508, "00363e8dfc72b8bf"),
    11: (-1251.198, "b938bd5fb6b8aa13"),
    12: (-1400.018, "c1410f0ad12ecb86"),
    13: (-31.67, "5f0ad8203219a477"),
    14: (-29.378999999999998, "9c3af76a1add334d"),
    15: (-30.017, "99b7e751da94ee9f"),
    16: (-43.377, "4d8fe09bd49e968a"),
    17: (-1397.841, "4ba952f855d01b1d"),
    18: (-75.04599999999999, "a0d89f8f19d3184d"),
    19: (-36.62, "cde4b29b7b19d116"),
    20: (-34.531, "90a187abf9e6bc84"),
    21: (-34.510999999999996, "ecb90b8f3d8c196d"),
    22: (-22.948, "eeb2291329f71757"),
    23: (-138.252, "65c4be2a1ec7c92c"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_outputs_pinned(seed):
    problem, start = pinned_instance(seed)
    result = alternate(problem, start, seed=seed)
    assert (objective(problem, result), digest(result)) == PINNED[seed]
