"""Shortcuts in local search that must not change what it computes.

best_multiswap returns no-swap early when no joint swap can win, and
swap local search reuses each pair's best joint swap while its delta
matrix is byte-equal; GM local search prices a re-match in the
re-match's own table (model.matching_cost) instead of calling
objective(). Each is checked against a fresh computation on small random
problems, objective_terms against an entry-by-entry oracle, and the
searches' outputs are pinned.
"""

import hashlib
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mgmatch import local_search, qpbo
from mgmatch.construction import construct_sequential
from mgmatch.gm import solve_gm
from mgmatch.local_search import (
    alternate,
    apply_multiswap,
    best_multiswap,
    swap_deltas,
    swap_local_search,
)
from mgmatch.qpbo import BinaryEnergy, evaluate, minimize
from mgmatch.model import (
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
    matching_cost,
    objective,
    objective_terms,
)

from conftest import part
from oracles import (
    linear_cost,
    matching_cost as oracle_matching_cost,
    random_partition,
    random_problem,
    reference_objective,
    reference_pair_terms,
    split_rematch,
)


@st.composite
def problems(draw):
    """A tiny random problem plus a generator for the test's own choices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    forbidden = draw(st.sampled_from([0.0, 0.3, 0.6, 0.85]))
    # Objects of size 0 are covered by no clique.
    min_size = draw(st.sampled_from([0, 1]))
    return random_problem(rng, d, 3, forbidden_frac=forbidden, min_size=min_size), rng


def random_solver(rng):
    """A GM solver that returns a random matching of the allowed pairs."""

    def solve(sub, seed):
        pairs = sorted(sub.linear)
        rng.shuffle(pairs)
        left, right, chosen = set(), set(), []
        for a, b in pairs:
            if a not in left and b not in right and rng.random() < 0.7:
                left.add(a)
                right.add(b)
                chosen.append((a, b))
        return tuple(sorted(chosen))

    return solve


def contracted_minimum(deltas, involved, d, seed):
    """best_multiswap without its early exits: contract forbidden swaps,
    add up the tables between groups in object-pair order and minimize."""
    label = {p: p for p in involved}
    for p, q in combinations(involved, 2):
        if math.isinf(deltas[p][q]) and label[p] != label[q]:
            keep, drop = sorted((label[p], label[q]))
            label = {r: keep if g == drop else g for r, g in label.items()}
    variable = {g: k for k, g in enumerate(sorted(set(label.values())))}
    group = {p: variable[label[p]] for p in involved}
    totals = {}
    for p, q in combinations(involved, 2):
        key = tuple(sorted((group[p], group[q])))
        if key[0] != key[1] and deltas[p][q] != 0.0:
            totals[key] = totals.get(key, 0.0) + deltas[p][q]
    energy = BinaryEnergy(len(variable), pairwise={k: (0.0, t, t, 0.0) for k, t in totals.items()})
    labels = minimize(energy, (0,) * energy.n, seed=seed)
    bits = tuple(labels[group[p]] if p in group else 0 for p in range(d))
    return bits, evaluate(energy, labels)


def wide_pair(d):
    """A problem of d size-2 objects without costs (best_multiswap reads
    none when given a matrix), a partition into two cliques that cover
    every object, and the two cliques."""
    problem = MgmProblem([2] * d)
    first, second = Clique({p: 0 for p in range(d)}), Clique({p: 1 for p in range(d)})
    return problem, CliquePartition([first, second]), first, second


def random_matrix(rng, d, forbidden, negative):
    """A symmetric swap-delta-like matrix: +inf with probability forbidden,
    entries below 0 with probability negative, zero diagonal."""
    matrix = np.zeros((d, d))
    for p, q in combinations(range(d), 2):
        if rng.random() < forbidden:
            value = math.inf
        else:
            low = -3.0 if rng.random() < negative else 0.0
            value = round(rng.uniform(low, low + 3.0), 3)
        matrix[p, q] = matrix[q, p] = value
    return matrix


class TestBestMultiswapShortcuts:
    def test_one_contracted_group_gives_no_swap(self, monkeypatch):
        monkeypatch.setattr(qpbo, "minimize", None)  # must not be reached
        rng = random.Random(3)
        for d in range(2, 9):
            problem, solution, first, second = wide_pair(d)
            deltas = random_matrix(rng, d, 0.0, 0.9)
            for p in range(1, d):  # a path of forbidden swaps through every object
                deltas[p - 1, p] = deltas[p, p - 1] = math.inf
            outcome = best_multiswap(problem, solution, first, second, deltas=deltas)
            assert outcome == ((0,) * d, 0.0)

    def test_no_negative_weight_gives_no_swap_without_minimizing(self, monkeypatch):
        calls = []
        real = qpbo.minimize
        monkeypatch.setattr(qpbo, "minimize", lambda *a, **k: calls.append(1) or real(*a, **k))
        rng = random.Random(4)
        for _ in range(50):
            d = rng.randint(2, 20)
            problem, solution, first, second = wide_pair(d)
            deltas = random_matrix(rng, d, rng.choice([0.0, 0.2]), 0.0)
            outcome = best_multiswap(problem, solution, first, second, seed=1, deltas=deltas)
            assert outcome == ((0,) * d, 0.0)
            assert outcome == contracted_minimum(deltas, list(range(d)), d, 1)
        assert calls == []
        deltas[0, 1] = deltas[1, 0] = -1.0  # the counter sees a real energy
        best_multiswap(problem, solution, first, second, deltas=deltas)
        assert calls == [1]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 20))
    @example(4, 17)
    @example(4, 20)  # seed 4 draws no forbidden swap: 17 and 20 groups
    def test_equal_to_full_minimization(self, seed, d):
        """Up to 20 objects, with and without forbidden swaps, so that
        17-20 groups reach the seeded sweeps."""
        rng = random.Random(seed)
        problem, solution, first, second = wide_pair(d)
        deltas = random_matrix(rng, d, rng.choice([0.0, 0.05, 0.3]), rng.choice([0.1, 0.5]))
        sweep_seed = rng.randrange(100)
        got = best_multiswap(problem, solution, first, second, seed=sweep_seed, deltas=deltas)
        want = contracted_minimum(deltas, list(range(d)), d, sweep_seed)
        assert got == want

    @given(problems())
    def test_swap_deltas_of_every_pair(self, case):
        """The same, on the matrices swap_deltas computes."""
        problem, rng = case
        solution = random_partition(rng, problem)
        pairs = list(combinations(sorted(solution.cliques), 2))
        for (first, second), deltas in zip(pairs, swap_deltas(problem, solution, pairs)):
            involved = sorted(set(first.objects()) | set(second.objects()))
            got = best_multiswap(problem, solution, first, second, seed=7, deltas=deltas)
            assert got == contracted_minimum(deltas, involved, problem.d, 7)


def upper_bytes(matrix):
    return matrix[np.triu_indices(len(matrix), 1)].tobytes()


class TestDeltaCache:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([0.0, 0.3, 0.6]))
    def test_kept_outcomes_equal_fresh_ones(self, seed, d, forbidden):
        """When swap local search returns, its last pass visited every
        pair, so the cache holds each pair of the result with its fresh
        matrix and best_multiswap's outcome there. That holds from an empty
        cache and from the cache of an earlier search after a random joint
        swap, as when alternate hands it on, and the handed-on cache does
        not change the result. Up to 16 contracted groups an outcome is
        seed-free."""
        rng = random.Random(seed)
        problem = random_problem(rng, d, 4, forbidden_frac=forbidden, quad_frac=0.5)
        cache = {}
        solution = swap_local_search(problem, random_partition(rng, problem), cache=cache)
        for round_ in range(3):
            pairs = list(combinations(sorted(solution.cliques), 2))
            assert sorted(cache) == pairs
            for key, deltas in zip(pairs, swap_deltas(problem, solution, pairs)):
                assert cache[key] == (upper_bytes(deltas), best_multiswap(problem, solution, *key))
            if len(pairs) == 0:
                break
            first, second = rng.sample(sorted(solution.cliques), 2)
            bits = [rng.randint(0, 1) for _ in range(d)]
            solution = apply_multiswap(solution, first, second, bits)
            fresh = swap_local_search(problem, solution, seed=round_)
            solution = swap_local_search(problem, solution, seed=round_, cache=cache)
            assert solution.cliques == fresh.cliques

    def test_covering_an_uncovered_vertex_recomputes(self, t3, monkeypatch):
        # The quadratic entry ((0,0),(1,1)) of t3 is realized only once
        # vertex 1 of object 0 joins vertex 1 of object 1.
        first, second = Clique({0: 0, 1: 0}), Clique({2: 0})
        uncovered = part({0: 0, 1: 0}, {1: 1}, {2: 0})
        covered = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})  # the optimum
        rows = [
            upper_bytes(swap_deltas(t3, s, [(first, second)])[0]) for s in (uncovered, covered)
        ]
        assert rows[0] != rows[1]
        cache = {(first, second): (rows[0], best_multiswap(t3, uncovered, first, second))}
        computed = []
        real = local_search.best_multiswap

        def spy(problem, solution, *pair, **kwargs):
            computed.append(pair)
            return real(problem, solution, *pair, **kwargs)

        monkeypatch.setattr(local_search, "best_multiswap", spy)
        assert swap_local_search(t3, covered, cache=cache) == covered
        assert computed.count((first, second)) == 1
        assert cache[(first, second)] == (rows[1], real(t3, covered, first, second))
        computed.clear()
        swap_local_search(t3, covered, cache=cache)
        assert computed == []  # every matrix is unchanged


def with_zero_entries(problem, rng):
    """The problem with about a third of its quadratic entries set to
    exactly 0.0: stored entries that are terms, unlike absent ones."""
    return MgmProblem(
        problem.sizes,
        {
            pair: PairwiseCosts(
                table.left_size,
                table.right_size,
                table.linear,
                {key: 0.0 if rng.random() < 1 / 3 else v for key, v in table.quadratic.items()},
            )
            for pair, table in problem.costs.items()
        },
    )


def assert_terms_match(problem, solution, terms):
    """The terms equal the oracle's over all object pairs as a multiset;
    each present assignment that is not stored adds one +inf term."""
    forbidden = sum(
        linear_cost(problem, p, q, c.get(p), c.get(q)) == math.inf
        for c in solution.cliques
        for p, q in combinations(c.objects(), 2)
    )
    got = sorted(terms.tolist())
    assert got.count(math.inf) == forbidden
    if not forbidden:
        pairs = combinations(range(problem.d), 2)
        want = [t for p, q in pairs for t in reference_pair_terms(problem, solution, p, q)]
        assert got == sorted(want)


class TestObjectiveTerms:
    @given(problems())
    def test_terms_equal_the_pointwise_oracle(self, case):
        problem, rng = case
        problem = with_zero_entries(problem, rng)
        for _ in range(3):
            solution = random_partition(rng, problem)
            assert_terms_match(problem, solution, objective_terms(problem, solution))
            # reference_objective is math.fsum too: equal floats, bit for bit
            assert objective(problem, solution) == reference_objective(problem, solution)

    @given(problems())
    def test_sub_cost_differences_are_objective_differences(self, case):
        """From a finite incumbent, re-matching object p changes the
        objective by the difference of the new and the incumbent matching's
        costs in the re-match's table, for solve_gm's matchings and for
        random ones."""
        problem, rng = case
        current = random_partition(rng, problem)
        if objective(problem, current) == math.inf:
            current = construct_sequential(problem, seed=rng.randrange(100))
        for _ in range(6):
            p = rng.randrange(problem.d)
            gm = solve_gm if rng.random() < 0.5 else random_solver(rng)
            sub, matching, candidate, incumbent = split_rematch(
                problem, current, p, gm, rng.randrange(100)
            )
            got = matching_cost(sub, matching) - matching_cost(sub, incumbent)
            want = objective(problem, candidate) - objective(problem, current)
            assert abs(got - want) <= 1e-9
            if rng.random() < 0.5:
                current = candidate

    @given(problems())
    def test_matching_cost_equals_the_oracle(self, case):
        """On the problem's tables, math.inf once a pair is not stored."""
        problem, rng = case
        for table in problem.costs.values():
            pairs = list(random_solver(rng)(table, 0))
            want = oracle_matching_cost(table, pairs)
            assert matching_cost(table, pairs) == pytest.approx(want, abs=1e-9)
            absent = [
                (a, b)
                for a in range(table.left_size)
                for b in range(table.right_size)
                if (a, b) not in table.linear
            ]
            if absent:
                assert matching_cost(table, [*pairs, rng.choice(absent)]) == math.inf


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
    cliques = sorted(tuple(c) for c in partition.canonical())
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
