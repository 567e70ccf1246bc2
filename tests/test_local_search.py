import math
import random
from functools import partial
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgmatch import local_search, qpbo
from mgmatch.gm import Effort, solve_gm
from mgmatch.local_search import (
    TraceRecorder,
    alternate,
    apply_multiswap,
    best_multiswap,
    gm_local_search,
    swap_deltas,
    swap_local_search,
)
from mgmatch.model import (
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
    matching_cost,
    objective,
)
from mgmatch.qpbo import EXACT_ENUMERATION_LIMIT

from conftest import part
from oracles import (
    brute_force_mgm,
    random_partition,
    random_problem,
    reference_swap_deltas,
    split_rematch,
)


exhaustive = partial(solve_gm, effort=Effort.EXHAUSTIVE)

TIED_COSTS = (0.1, 0.2, 0.3, -0.1, -0.2, -0.3, -0.6, 0.7)


def tie_problem(rng, d, max_size, forbidden_frac=0.2, quad_frac=0.3):
    """A random_problem whose costs all come from TIED_COSTS."""
    sizes = [rng.randint(1, max_size) for _ in range(d)]
    costs = {}
    for p, q in combinations(range(d), 2):
        linear = {
            (i, s): rng.choice(TIED_COSTS)
            for i in range(sizes[p])
            for s in range(sizes[q])
            if rng.random() >= forbidden_frac
        }
        quadratic = {
            (a, b): rng.choice(TIED_COSTS)
            for a, b in combinations(sorted(linear), 2)
            if a[0] != b[0] and a[1] != b[1] and rng.random() < quad_frac
        }
        costs[(p, q)] = PairwiseCosts(sizes[p], sizes[q], linear, quadratic)
    return MgmProblem(sizes, costs)


def pair_deltas(problem, solution, first, second):
    """The swap_deltas matrix of one clique pair."""
    return swap_deltas(problem, solution, [(first, second)])[0]


@pytest.fixture
def joint_swap_problem():
    """Two full cliques where only a joint two-object swap is profitable.

    Splitting the (0,1) or (2,3) partner pairs costs +10 per clique, so
    every single swap loses (+8 net); the crossed configurations on the
    four cross pairs gain -3 each, so swapping objects {0,1} together (or
    equivalently its complement {2,3}) wins -24.
    """
    partner = {(0, 0): 0.0, (1, 1): 0.0, (1, 0): 10.0, (0, 1): 10.0}
    cross = {(0, 0): 0.0, (1, 1): 0.0, (1, 0): -3.0, (0, 1): -3.0}
    problem = MgmProblem(
        [2, 2, 2, 2],
        {
            (0, 1): PairwiseCosts(2, 2, partner),
            (2, 3): PairwiseCosts(2, 2, partner),
            (0, 2): PairwiseCosts(2, 2, cross),
            (0, 3): PairwiseCosts(2, 2, cross),
            (1, 2): PairwiseCosts(2, 2, cross),
            (1, 3): PairwiseCosts(2, 2, cross),
        },
    )
    solution = part({0: 0, 1: 0, 2: 0, 3: 0}, {0: 1, 1: 1, 2: 1, 3: 1})
    return problem, solution


class TestSingleSwap:
    """A single swap is apply_multiswap with a one-hot bit list."""

    def test_both_cover_exchanges(self, t3):
        solution = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})
        swapped = apply_multiswap(solution, Clique({0: 0, 1: 0}), Clique({0: 1, 1: 1}), [1])
        assert swapped == part({0: 1, 1: 0}, {0: 0, 1: 1}, {2: 0})

    def test_one_covers_moves(self, t3):
        solution = part({0: 0, 1: 0}, {2: 0})
        swapped = apply_multiswap(solution, Clique({0: 0, 1: 0}), Clique({2: 0}), [0, 0, 1])
        assert swapped == part({0: 0, 1: 0, 2: 0})
        assert len(swapped.cliques) == 1  # emptied clique dropped

    def test_neither_covers_is_identity(self, t3):
        solution = part({0: 0, 1: 0}, {0: 1, 1: 1})
        swapped = apply_multiswap(
            solution, Clique({0: 0, 1: 0}), Clique({0: 1, 1: 1}), [0, 0, 1]
        )
        assert swapped.cliques == solution.cliques

    def test_unknown_clique(self, t3):
        solution = part({0: 0, 1: 0})
        with pytest.raises(ValueError):
            apply_multiswap(solution, Clique({0: 1}), Clique({0: 0, 1: 0}), [1])

    def test_same_clique_rejected(self, t3):
        solution = part({0: 0, 1: 0}, {2: 0})
        first = solution.cliques[0]
        with pytest.raises(ValueError):
            apply_multiswap(solution, first, first, [1, 0, 0])


class TestSwapDeltas:
    def test_t3_move_row(self, t3):
        solution = part({0: 0, 1: 0}, {2: 0}, {0: 1, 1: 1})
        first, second = Clique({0: 0, 1: 0}), Clique({2: 0})
        deltas = pair_deltas(t3, solution, first, second)
        assert deltas[2, 0] == pytest.approx(-1.0)
        assert deltas[2, 1] == pytest.approx(3.0)
        row = deltas[2].sum()
        after = apply_multiswap(solution, first, second, [0, 0, 1])
        assert row == pytest.approx(objective(t3, after) - objective(t3, solution))
        assert row == pytest.approx(2.0)

    def test_disjoint_cliques_zero_matrix(self, t3):
        solution = part({0: 0}, {1: 0}, {0: 1, 1: 1}, {2: 0})
        deltas = pair_deltas(t3, solution, Clique({0: 0}), Clique({1: 0}))
        # swapping object 0 moves vertex 0 into the {1^2} clique
        # but no pair covering both objects exists afterwards except (0,1)
        assert deltas[2, 0] == 0.0
        assert deltas[2, 1] == 0.0

    def test_forbidden_swap_marked(self, t3):
        solution = part({0: 1, 1: 1}, {0: 0, 1: 0}, {2: 0})
        deltas = pair_deltas(
            t3, solution, Clique({0: 1, 1: 1}), Clique({0: 0, 1: 0})
        )
        # exchanging object 0 creates pairs (0,0)x(1,1)... vertex 1 of object 0
        # with vertex 0 of object 1, whose linear entry is absent
        assert deltas[0, 1] == math.inf

    def test_row_sums_match_objective_change_randomized(self):
        rng = random.Random(99)
        samples = 0
        while samples < 200:
            problem = random_problem(rng, rng.randint(3, 4), 3, forbidden_frac=0.2)
            solution = random_partition(rng, problem)
            if objective(problem, solution) == math.inf:
                continue
            cliques = list(solution.cliques)
            if len(cliques) < 2:
                continue
            first, second = rng.sample(cliques, 2)
            deltas = pair_deltas(problem, solution, first, second)
            for p in range(problem.d):
                after = apply_multiswap(solution, first, second, [0] * p + [1])
                change = objective(problem, after)
                row = deltas[p].sum()
                if change == math.inf:
                    assert row == math.inf
                else:
                    assert row == pytest.approx(
                        change - objective(problem, solution), abs=1e-9
                    )
                samples += 1

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([0.0, 0.3, 0.6, 0.85]))
    def test_batched_rows_equal_the_oracle(self, seed, d, forbidden):
        """Every row of a batch over all clique pairs, on a partition that
        leaves some vertices uncovered, has the oracle's +inf pattern,
        finite entries within 1e-9 of it, and is symmetric."""
        rng = random.Random(seed)
        problem = random_problem(rng, d, 4, forbidden_frac=forbidden, quad_frac=0.5)
        solution = CliquePartition(
            Clique({p: v for p, v in clique if rng.random() < 0.8})
            for clique in random_partition(rng, problem).cliques
        )
        pairs = list(combinations(solution.cliques, 2))
        rows = swap_deltas(problem, solution, pairs)
        assert rows.shape == (len(pairs), d, d)
        for (first, second), row in zip(pairs, rows):
            want = np.array(reference_swap_deltas(problem, solution, first, second))
            assert np.array_equal(np.isinf(row), np.isinf(want))
            finite = ~np.isinf(want)
            assert np.allclose(row[finite], want[finite], rtol=0.0, atol=1e-9)
            assert np.array_equal(row, row.T)

    def test_unknown_or_repeated_clique(self, t3):
        solution = part({0: 0, 1: 0}, {2: 0})
        first, second = solution.cliques
        with pytest.raises(ValueError):
            swap_deltas(t3, solution, [(first, Clique({0: 1}))])
        with pytest.raises(ValueError):
            swap_deltas(t3, solution, [(first, second), (second, second)])


@st.composite
def feasible_cases(draw):
    """A tiny problem with forbidden matches, a feasible partition of it
    (random_partition with conflicting vertices split off as singletons)
    and a generator for the test's own choices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    forbidden = draw(st.sampled_from([0.3, 0.6, 0.85]))
    problem = random_problem(rng, d, 3, forbidden_frac=forbidden)
    return problem, split_conflicts(problem, random_partition(rng, problem).cliques), rng


def split_conflicts(problem, cliques):
    """The cliques with every vertex that has a forbidden match to an
    earlier member split off as a singleton: a feasible partition."""
    feasible = []
    for clique in cliques:
        kept = {}
        for p, v in clique:
            if all(problem.linear_cost(q, p, w, v) != math.inf for q, w in kept.items()):
                kept[p] = v
            else:
                feasible.append(Clique({p: v}))
        feasible.append(Clique(kept))
    return CliquePartition(feasible)


class TestBestMultiswap:
    @given(feasible_cases())
    def test_contracted_minimum_is_exact(self, case):
        """The predicted change is the least objective change over joint
        swaps whose result has no forbidden match (0 if none improves), and
        applying the returned bits realizes it."""
        problem, solution, rng = case
        base = objective(problem, solution)
        for first, second in combinations(sorted(solution.cliques), 2):
            involved = sorted(set(first.objects()) | set(second.objects()))
            best = 0.0
            for chosen in product((0, 1), repeat=len(involved)):
                bits = [0] * problem.d
                for p, bit in zip(involved, chosen):
                    bits[p] = bit
                value = objective(problem, apply_multiswap(solution, first, second, bits))
                if value != math.inf:
                    best = min(best, value - base)
            bits, predicted = best_multiswap(
                problem, solution, first, second, seed=rng.randrange(100)
            )
            assert predicted == pytest.approx(best, abs=1e-9)
            after = objective(problem, apply_multiswap(solution, first, second, bits))
            assert after - base == pytest.approx(predicted, abs=1e-9)

    def test_t3_no_profitable_swap(self, t3):
        solution = part({0: 0, 1: 0}, {2: 0}, {0: 1, 1: 1})
        bits, predicted = best_multiswap(
            t3, solution, Clique({0: 0, 1: 0}), Clique({2: 0}), seed=1
        )
        assert bits == (0, 0, 0)
        assert predicted == 0.0

    def test_joint_swap_found(self, joint_swap_problem):
        problem, solution = joint_swap_problem
        first, second = solution.cliques
        bits, predicted = best_multiswap(problem, solution, first, second, seed=2)
        assert predicted == pytest.approx(-24.0)
        # the complement labeling gives the same partition; accept either
        assert bits in {(1, 1, 0, 0), (0, 0, 1, 1)}
        after = apply_multiswap(solution, first, second, bits)
        assert objective(problem, after) == pytest.approx(-24.0)

    def test_single_swaps_all_lose(self, joint_swap_problem):
        problem, solution = joint_swap_problem
        first, second = solution.cliques
        base = objective(problem, solution)
        for p in range(4):
            after = apply_multiswap(solution, first, second, [0] * p + [1])
            assert objective(problem, after) > base

    def test_d2_matches_exhaustive(self):
        rng = random.Random(17)
        for _ in range(30):
            problem = random_problem(rng, 2, 3, forbidden_frac=0.0)
            solution = random_partition(rng, problem)
            cliques = list(solution.cliques)
            if len(cliques) < 2:
                continue
            first, second = rng.sample(cliques, 2)
            bits, predicted = best_multiswap(problem, solution, first, second, seed=0)
            base = objective(problem, solution)
            best = 0.0
            for cand in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                after = apply_multiswap(solution, first, second, cand)
                value = objective(problem, after)
                if value != math.inf:
                    best = min(best, value - base)
            assert predicted == pytest.approx(best, abs=1e-9)

    def test_swept_above_enumeration_limit(self):
        """With more than qpbo.EXACT_ENUMERATION_LIMIT contracted groups the
        energy gets seeded improve sweeps: the predicted change is realized
        and never positive. random_partition's cliques cover too few objects
        to get there, so the solution is two wide random cliques with
        conflicts split off."""
        rng = random.Random(41)
        checked = 0
        for d in range(17, 21):
            problem = random_problem(rng, d, 3, forbidden_frac=0.01, min_size=2)
            wide = [{}, {}]
            for p in range(d):
                for clique, v in zip(wide, rng.sample(range(problem.sizes[p]), 2)):
                    clique[p] = v
            solution = split_conflicts(problem, [Clique(c) for c in wide])
            base = objective(problem, solution)
            for first, second in combinations(sorted(solution.cliques), 2):
                (matrix,) = swap_deltas(problem, solution, [(first, second)])
                involved = sorted(set(first.objects()) | set(second.objects()))
                group = {p: p for p in involved}
                for p, q in combinations(involved, 2):
                    if matrix[p, q] == math.inf:
                        old, new = group[q], group[p]
                        group = {r: new if g == old else g for r, g in group.items()}
                if len(set(group.values())) <= EXACT_ENUMERATION_LIMIT:
                    continue
                bits, predicted = best_multiswap(
                    problem, solution, first, second, seed=rng.randrange(100), deltas=matrix
                )
                after = objective(problem, apply_multiswap(solution, first, second, bits))
                assert after - base == pytest.approx(predicted, abs=1e-9)
                assert predicted <= 0.0
                checked += 1
        assert checked > 0

    def test_predicted_never_positive(self):
        rng = random.Random(23)
        for _ in range(50):
            problem = random_problem(rng, 3, 3, forbidden_frac=0.3)
            solution = random_partition(rng, problem)
            if objective(problem, solution) == math.inf:
                continue
            cliques = list(solution.cliques)
            if len(cliques) < 2:
                continue
            first, second = rng.sample(cliques, 2)
            _, predicted = best_multiswap(problem, solution, first, second, seed=0)
            assert predicted <= 0.0


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_trace_drops_non_finite_values(value):
    trace = TraceRecorder()
    trace.record("x", value)
    assert trace.entries == []
    trace.record("x", -1.5)
    assert [entry[1:] for entry in trace.entries] == [("x", -1.5)]


class TestGmLocalSearch:
    def test_optimum_is_fixed_point(self, t3):
        optimum = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})
        result = gm_local_search(t3, optimum, gm=exhaustive, seed=0)
        assert result == optimum

    def test_reaches_optimum_from_singletons(self, t3):
        singles = CliquePartition().normalized(t3.sizes)
        result = gm_local_search(t3, singles, gm=exhaustive, seed=0)
        assert objective(t3, result) == pytest.approx(-3.5)

    def test_never_worsens(self):
        rng = random.Random(31)
        for _ in range(20):
            problem = random_problem(rng, rng.randint(3, 5), 3, forbidden_frac=0.3)
            start = random_partition(rng, problem)
            start_value = objective(problem, start)
            if start_value == math.inf:
                continue
            result = gm_local_search(problem, start, seed=rng.randrange(100))
            assert objective(problem, result) <= start_value

    def test_trace_strictly_decreasing(self, t3):
        trace = TraceRecorder()
        singles = CliquePartition().normalized(t3.sizes)
        gm_local_search(t3, singles, gm=exhaustive, seed=0, trace=trace)
        values = [value for _, _, value in trace.entries]
        assert values
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_trace_strictly_decreasing_under_tied_costs(self):
        """Costs from a few short decimals tie often, and the re-match's
        table sums them in another order than objective() does; a move is
        accepted only when it gains more than 1e-12 there, so no accepted
        move leaves the objective where it was."""
        rng = random.Random(2026)
        for _ in range(300):
            problem = tie_problem(rng, rng.randint(3, 6), 4)
            trace = TraceRecorder()
            start = random_partition(rng, problem)
            gm_local_search(problem, start, seed=rng.randrange(1000), trace=trace)
            values = [value for _, _, value in trace.entries]
            assert all(b < a for a, b in zip(values, values[1:])), values

    def test_fixed_point_soundness(self):
        # at termination, no single-object re-match (solved exactly) improves,
        # and the incumbent's matching is an optimum of each re-match's table
        rng = random.Random(47)
        for _ in range(10):
            problem = random_problem(rng, 3, 3, forbidden_frac=0.3)
            start = random_partition(rng, problem)
            if objective(problem, start) == math.inf:
                continue
            result = gm_local_search(problem, start, gm=exhaustive, seed=1)
            value = objective(problem, result)
            for p in range(problem.d):
                sub, matching, candidate, incumbent = split_rematch(
                    problem, result, p, exhaustive, 0
                )
                assert objective(problem, candidate) >= value - 1e-9
                assert matching_cost(sub, matching) >= matching_cost(sub, incumbent) - 1e-9

    def test_forbidden_starts_end_allowed(self):
        """The incumbent matching of an object with a forbidden match costs
        math.inf in its re-match's table, so any re-match is accepted, and
        one that stays within the table removes every forbidden match on
        that object: starts whose forbidden matches no single object
        covers end allowed too."""
        rng = random.Random(53)
        starts = 0
        while starts < 20:
            problem = random_problem(rng, 4, 3, forbidden_frac=0.6)
            start = random_partition(rng, problem)
            if objective(problem, start) < math.inf:
                continue
            starts += 1
            result = gm_local_search(problem, start, seed=rng.randrange(100))
            assert objective(problem, result) < math.inf


class TestSwapLocalSearch:
    def test_accepts_joint_swap(self, joint_swap_problem):
        problem, solution = joint_swap_problem
        result = swap_local_search(problem, solution, seed=3)
        assert objective(problem, result) == pytest.approx(-24.0)

    def test_optimum_unchanged(self, t3):
        optimum = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})
        result = swap_local_search(t3, optimum, seed=1)
        assert result == optimum

    def test_single_clique_no_pairs(self, t3):
        solution = part({0: 0, 1: 0, 2: 0})
        result = swap_local_search(t3, solution, seed=0)
        assert result == solution

    def test_never_worsens(self):
        rng = random.Random(41)
        for _ in range(15):
            problem = random_problem(rng, 4, 3, forbidden_frac=0.2)
            start = random_partition(rng, problem)
            if objective(problem, start) == math.inf:
                continue
            result = swap_local_search(problem, start, seed=7)
            assert objective(problem, result) <= objective(problem, start)

    def test_swap_energies_never_reach_the_cut(self, monkeypatch):
        """Every energy best_multiswap hands to qpbo.minimize has a table
        (0, w, w, 0) with w < 0, so it is not submodular and never takes
        the exact cut. Wide random cliques over up to 30 objects give
        energies of more than EXACT_ENUMERATION_LIMIT groups as well."""
        rng = random.Random(53)
        energies = []
        real_minimize = qpbo.minimize

        def recording_minimize(energy, init, seed=0):
            energies.append(energy)
            return real_minimize(energy, init, seed=seed)

        def no_cut(energy):
            raise AssertionError("a swap energy reached the submodular cut")

        monkeypatch.setattr(qpbo, "minimize", recording_minimize)
        monkeypatch.setattr(qpbo, "_solve_submodular", no_cut)
        for d in (6, 18, 24, 30):
            problem = random_problem(rng, d, 3, forbidden_frac=0.01, min_size=2)
            wide = [{}, {}]
            for p in range(d):
                for clique, v in zip(wide, rng.sample(range(problem.sizes[p]), 2)):
                    clique[p] = v
            start = split_conflicts(problem, [Clique(c) for c in wide])
            result = swap_local_search(problem, start, seed=d)
            assert objective(problem, result) <= objective(problem, start)
        assert max(energy.n for energy in energies) > EXACT_ENUMERATION_LIMIT
        for energy in energies:
            assert min(table[1] for table in energy.pairwise.values()) < 0.0
            assert not energy.is_submodular()

    @pytest.mark.parametrize("deadline", [3, local_search._CHUNK])
    @pytest.mark.parametrize("start", ["singletons", "optimum"])
    def test_deadline_passing_mid_pass(self, monkeypatch, deadline, start):
        """On a clock that advances one second per priced visit, the search
        stops before the first visit at the deadline and computes no delta
        matrices from then on. From a swap optimum no swap is accepted, so
        the deadline of _CHUNK seconds falls where the next chunk is due."""
        rng = random.Random(12)
        problem = random_problem(rng, 6, 6, forbidden_frac=0.5, min_size=5)
        begin = CliquePartition().normalized(problem.sizes)
        if start == "optimum":
            begin = swap_local_search(problem, begin, seed=5)
        assert math.comb(len(begin.cliques), 2) > 2 * local_search._CHUNK
        now = [0.0]
        monkeypatch.setattr(local_search, "time", SimpleNamespace(monotonic=lambda: now[0]))
        batches, visits = [], []
        real_deltas, real_best = local_search.swap_deltas, local_search.best_multiswap

        def timed_deltas(*args, **kwargs):
            batches.append(now[0])
            return real_deltas(*args, **kwargs)

        def timed_best(*args, **kwargs):
            visits.append(now[0])
            now[0] += 1.0
            return real_best(*args, **kwargs)

        monkeypatch.setattr(local_search, "swap_deltas", timed_deltas)
        monkeypatch.setattr(local_search, "best_multiswap", timed_best)
        result = swap_local_search(problem, begin, seed=5, deadline=deadline)
        assert visits == [float(t) for t in range(deadline)]
        assert batches and all(t < deadline for t in batches)
        assert objective(problem, result) <= objective(problem, begin)


class TestAlternate:
    def test_t3_reaches_optimum_in_one_round(self, t3, monkeypatch):
        singles = CliquePartition().normalized(t3.sizes)
        round_ends = []

        def recorded(*args, **kwargs):
            round_ends.append(swap_local_search(*args, **kwargs))
            return round_ends[-1]

        monkeypatch.setattr(local_search, "swap_local_search", recorded)
        alternate(t3, singles, gm=exhaustive, seed=0)
        assert objective(t3, round_ends[0]) == pytest.approx(-3.5)

    def test_fixed_point_terminates_quickly(self, t3):
        optimum = part({0: 0, 1: 0}, {0: 1, 1: 1}, {2: 0})
        result = alternate(t3, optimum, gm=exhaustive, seed=0)
        assert result == optimum

    def test_monotone_on_random_instances(self):
        rng = random.Random(43)
        for _ in range(10):
            problem = random_problem(rng, 4, 3, forbidden_frac=0.3)
            start = random_partition(rng, problem)
            if objective(problem, start) == math.inf:
                continue
            trace = TraceRecorder()
            result = alternate(problem, start, seed=3, trace=trace)
            values = [v for _, _, v in trace.entries]
            assert all(b < a for a, b in zip(values, values[1:]))
            assert objective(problem, result) <= objective(problem, start)

    def test_combined_beats_construction_on_hard_instance(self, joint_swap_problem):
        problem, solution = joint_swap_problem
        result = alternate(problem, solution, gm=exhaustive, seed=0)
        want, _ = brute_force_mgm(problem)
        assert objective(problem, result) == pytest.approx(want)
