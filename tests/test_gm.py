import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgmatch import gm
from mgmatch.gm import (
    Effort,
    GmMatching,
    get_solver,
    register_solver,
    solve_gm,
    solve_lap,
    solver_names,
)

from mgmatch.construction import clique_clique_costs
from mgmatch.io import parse_problem, write_problem
from mgmatch.model import Clique, CliquePartition, MgmProblem, PairwiseCosts

from oracles import (
    brute_force_gm,
    gm_matching_cost,
    matching_cost,
    partner_lists,
    random_partition,
    random_problem,
    reference_gm_local_search,
    reference_greedy_candidate,
    reference_solve_lap,
)


def random_lap(rng, max_side=6, forbidden_frac=0.4, shape=None, integer=False):
    """Random linear instance; shape fixes (left, right), integer costs tie often."""
    left, right = shape or (rng.randint(1, max_side), rng.randint(1, max_side))
    linear = {}
    for a in range(left):
        for b in range(right):
            if rng.random() >= forbidden_frac:
                if integer:
                    linear[(a, b)] = float(rng.randint(-3, 3))
                else:
                    linear[(a, b)] = round(rng.uniform(-5, 5), 3)
    return PairwiseCosts(left, right, linear)


def random_qap(rng, max_side=4, forbidden_frac=0.3, quad_frac=0.5):
    sub = random_lap(rng, max_side, forbidden_frac)
    quadratic = {}
    for x, y in combinations(sorted(sub.linear), 2):
        if x[0] != y[0] and x[1] != y[1] and rng.random() < quad_frac:
            quadratic[(x, y)] = round(rng.uniform(-3, 3), 3)
    return PairwiseCosts(sub.left_size, sub.right_size, sub.linear, quadratic)


class TestSolveLap:
    def test_small_instance(self):
        sub = PairwiseCosts(2, 2, {(0, 0): -2.0, (1, 1): -1.0, (0, 1): 1.0})
        matching = solve_lap(sub)
        assert matching == GmMatching([(0, 0), (1, 1)])
        assert matching_cost(sub, matching.pairs) == -3.0

    def test_all_positive_leaves_unmatched(self):
        sub = PairwiseCosts(2, 2, {(0, 0): 2.0, (1, 1): 1.0})
        assert solve_lap(sub) == GmMatching()

    def test_empty_table(self):
        assert solve_lap(PairwiseCosts(3, 3)) == GmMatching()

    def test_rejects_quadratic(self):
        sub = PairwiseCosts(
            2, 2, {(0, 0): -1.0, (1, 1): -1.0}, {((0, 0), (1, 1)): -0.5}
        )
        with pytest.raises(ValueError):
            solve_lap(sub)

    def test_exact_on_random_instances(self):
        rng = random.Random(42)
        instances = [random_lap(rng) for _ in range(200)]
        for left, right in [(1, 7), (2, 6), (3, 7), (7, 2), (6, 1), (5, 3)]:
            instances += [random_lap(rng, shape=(left, right)) for _ in range(10)]
        instances += [random_lap(rng, max_side=7, forbidden_frac=0.8) for _ in range(60)]
        instances += [random_lap(rng, integer=True) for _ in range(60)]
        instances += [
            random_lap(rng, max_side=7, forbidden_frac=0.6, integer=True) for _ in range(60)
        ]
        for sub in instances:
            matching = solve_lap(sub)
            assert all(pair in sub.linear for pair in matching)
            want, _ = brute_force_gm(sub)
            assert matching_cost(sub, matching.pairs) == pytest.approx(want, abs=1e-9)

    def test_never_uses_forbidden_pairs(self):
        rng = random.Random(1)
        for _ in range(50):
            sub = random_lap(rng, forbidden_frac=0.7)
            for pair in solve_lap(sub):
                assert pair in sub.linear

    def test_tied_optima_take_the_fewest_pairs(self):
        # Rows 1, 2 and 4 compete for column 1. Cost -3 is reached by
        # [(4, 1)] alone and by two-pair matchings that add a zero-cost arc.
        sub = PairwiseCosts(5, 2, {
            (1, 0): 0.0, (1, 1): -2.0, (2, 0): 0.0, (2, 1): -2.0,
            (3, 0): 2.0, (3, 1): 0.0, (4, 0): -1.0, (4, 1): -3.0,
        })
        assert solve_lap(sub) == GmMatching([(4, 1)])

    def test_zero_cost_arcs_stay_unmatched(self):
        sub = PairwiseCosts(2, 2, {(0, 0): 0.0, (0, 1): -1.0, (1, 1): 0.0, (1, 0): 0.0})
        assert solve_lap(sub) == GmMatching([(0, 1)])

    def test_matches_the_previous_lap_on_float_costs(self):
        # Costs with three decimals have no tied optima here, so both
        # algorithms return the one optimal matching.
        rng = random.Random(5)
        for _ in range(150):
            sub = random_lap(rng, max_side=8, forbidden_frac=rng.choice([0.0, 0.3, 0.7]))
            assert list(solve_lap(sub).pairs) == reference_solve_lap(sub)


@st.composite
def integer_laps(draw):
    """Linear instances with small integer costs, so optima tie often:
    1 x n and n x 1 shapes, rows and columns without arcs."""
    left = draw(st.integers(1, 6))
    right = draw(st.integers(1, 6))
    empty_rows = draw(st.sets(st.integers(0, left - 1)))
    empty_cols = draw(st.sets(st.integers(0, right - 1)))
    linear = {}
    for a in range(left):
        for b in range(right):
            if a not in empty_rows and b not in empty_cols and draw(st.booleans()):
                linear[(a, b)] = float(draw(st.integers(-3, 3)))
    return PairwiseCosts(left, right, linear)


@given(integer_laps())
def test_lap_reaches_the_exact_cost_with_the_fewest_pairs(sub):
    want_cost, want_pairs = brute_force_gm(sub)
    matching = solve_lap(sub)
    assert all(pair in sub.linear for pair in matching)
    assert matching_cost(sub, matching.pairs) == want_cost
    assert len(matching) == len(want_pairs)


class TestSolveGm:
    def test_delegates_to_lap_without_quadratic(self):
        sub = PairwiseCosts(2, 2, {(0, 0): -2.0, (1, 1): -1.0, (0, 1): 1.0})
        assert solve_gm(sub, seed=0) == solve_lap(sub)

    def test_single_negative_pair(self):
        sub = PairwiseCosts(
            2, 2, {(0, 0): -2.0, (1, 1): 0.5}, {((0, 0), (1, 1)): 0.25}
        )
        matching = solve_gm(sub, seed=0)
        assert matching == GmMatching([(0, 0)])

    def test_exhaustive_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            sub = random_qap(rng, max_side=4)
            matching = solve_gm(sub, seed=3, effort=Effort.EXHAUSTIVE)
            want, _ = brute_force_gm(sub)
            assert matching_cost(sub, matching.pairs) == pytest.approx(want, abs=1e-9)

    def test_cost_never_positive(self):
        rng = random.Random(15)
        for effort in (Effort.FAST, Effort.DEFAULT):
            for _ in range(40):
                sub = random_qap(rng, max_side=5)
                matching = solve_gm(sub, seed=11, effort=effort)
                assert matching_cost(sub, matching.pairs) <= 1e-12
                for pair in matching:
                    assert pair in sub.linear

    def test_deterministic(self):
        rng = random.Random(21)
        for _ in range(10):
            sub = random_qap(rng, max_side=5)
            a = solve_gm(sub, seed=5, effort=Effort.DEFAULT)
            b = solve_gm(sub, seed=5, effort=Effort.DEFAULT)
            assert a == b


def pinned_qap(seed):
    """Seeded quadratic instance, 3..9 nodes a side; every third has integer
    costs, so many moves tie."""
    rng = random.Random(seed)
    left, right = rng.randint(3, 9), rng.randint(3, 9)
    forbidden = rng.choice([0.0, 0.2, 0.5])
    quad_frac = rng.choice([0.1, 0.3, 0.6])
    integer = seed % 3 == 0

    def cost(bound):
        if integer:
            return float(rng.randint(-bound, bound))
        return round(rng.uniform(-bound, bound), 3)

    linear = {}
    for a in range(left):
        for b in range(right):
            if rng.random() >= forbidden:
                linear[(a, b)] = cost(5)
    quadratic = {}
    for x, y in combinations(sorted(linear), 2):
        if x[0] != y[0] and x[1] != y[1] and rng.random() < quad_frac:
            quadratic[(x, y)] = cost(3)
    return PairwiseCosts(left, right, linear, quadratic)


# Digest of solve_gm(pinned_qap(seed), seed, effort).pairs per Effort
# (fast, default, exhaustive), computed by the implementation that
# re-summed every move's partner lists and solved LAPs on tuple-keyed dicts.
PINNED_GM = {
    0: ("c8debea643d9", "c8debea643d9", "c8debea643d9"),
    1: ("bdac1df560f3", "bdac1df560f3", "bdac1df560f3"),
    2: ("5528d5c285dd", "2938380a7918", "2938380a7918"),
    3: ("513927812cca", "513927812cca", "eac6edcea6ae"),
    4: ("8d0d02571a13", "8d0d02571a13", "8d0d02571a13"),
    5: ("749ca96d360d", "749ca96d360d", "749ca96d360d"),
    6: ("1f722432158d", "b92c2407e5df", "b92c2407e5df"),
    7: ("010de671a043", "010de671a043", "010de671a043"),
    8: ("5d152cc2537c", "5d152cc2537c", "5d152cc2537c"),
    9: ("ac6a2f673c97", "058a3a18e8d7", "058a3a18e8d7"),
    10: ("a3d45c726c71", "a3d45c726c71", "a3d45c726c71"),
    11: ("50002020e9c9", "50002020e9c9", "50002020e9c9"),
    12: ("276aff2a1926", "276aff2a1926", "276aff2a1926"),
    13: ("ac7453d03791", "76f12403181b", "76f12403181b"),
    14: ("423f565ae73d", "930f9ee5d7aa", "930f9ee5d7aa"),
    15: ("56ed35f46b53", "56ed35f46b53", "56ed35f46b53"),
    16: ("fc6a00d9edde", "fc6a00d9edde", "908cd5cc503d"),
    17: ("bfa98d904651", "0d9074b886d0", "0d9074b886d0"),
    18: ("216edb911d2d", "216edb911d2d", "216edb911d2d"),
    19: ("5cbe993e6b6e", "5cbe993e6b6e", "5cbe993e6b6e"),
    20: ("e2160fbd3638", "601d10fc5e4c", "601d10fc5e4c"),
    21: ("62af07ccb93d", "62af07ccb93d", "0e9b75a2e973"),
    22: ("5cbe993e6b6e", "9bbbc711bd36", "9bbbc711bd36"),
    23: ("7dcb735d0ea1", "7dcb735d0ea1", "7dcb735d0ea1"),
    24: ("c04594f9f7ef", "7156fcfc9a23", "7156fcfc9a23"),
    25: ("b239ab497282", "b239ab497282", "b239ab497282"),
    26: ("5cc1e3273d66", "5cc1e3273d66", "5cc1e3273d66"),
    27: ("cc4c7b24f015", "cc4c7b24f015", "cc4c7b24f015"),
    28: ("b7d69da51a95", "b7d69da51a95", "b7d69da51a95"),
    29: ("f21def1bbfc5", "f21def1bbfc5", "f21def1bbfc5"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_GM))
def test_solve_gm_outputs_pinned(seed):
    sub = pinned_qap(seed)
    got = tuple(
        hashlib.sha256(repr(solve_gm(sub, seed=seed, effort=effort).pairs).encode()).hexdigest()[:12]
        for effort in Effort
    )
    assert got == PINNED_GM[seed]


def improving_moves(sub, pairs):
    """Every add, remove, shift and 2-swap that lowers the cost by > 1e-9."""
    current = set(pairs)
    cost = gm_matching_cost(sub, current)
    left = {a: b for a, b in current}
    right = {b: a for a, b in current}
    moves = []
    for a, b in sub.linear:
        displaced = {(a, left[a])} if a in left else set()
        if b in right:
            displaced.add((right[b], b))
        if len(displaced) < 2 and (a, b) not in current:
            moves.append(current - displaced | {(a, b)})
    moves += [current - {pair} for pair in current]
    for (a1, b1), (a2, b2) in combinations(sorted(current), 2):
        if (a1, b2) in sub.linear and (a2, b1) in sub.linear:
            moves.append(current - {(a1, b1), (a2, b2)} | {(a1, b2), (a2, b1)})
    return [m for m in moves if gm_matching_cost(sub, m) < cost - 1e-9]


def pairs_of(ids, matching):
    """The assignment pairs of ascending assignment ids."""
    return tuple(ids.pairs[x] for x in matching)


class TestLocalSearch:
    @pytest.mark.parametrize("start", ["empty", "lap", "greedy"])
    def test_no_improving_move_left(self, start):
        rng = random.Random(101)
        for k in range(40):
            sub = random_qap(rng, max_side=6, forbidden_frac=0.2, quad_frac=0.6)
            ids = gm._Ids(sub)
            if start == "empty":
                matching = []
            elif start == "lap":
                lap = solve_lap(PairwiseCosts(sub.left_size, sub.right_size, sub.linear))
                matching = [ids.pairs.index(pair) for pair in lap]
            else:
                matching = gm._greedy_candidate(ids, random.Random(k))
            result = gm._local_search(ids, matching, max_scans=1000, two_swaps=True)
            assert improving_moves(sub, pairs_of(ids, result)) == []

    @pytest.mark.parametrize("two_swaps", [True, False])
    def test_assignment_ids_match_the_tuple_keyed_search(self, two_swaps):
        """The id-based search and greedy candidate return the same
        matchings as the tuple-keyed references from identical starts and
        rng seeds."""
        rng = random.Random(303)
        for k in range(120):
            sub = random_qap(
                rng, max_side=rng.choice([4, 7]), forbidden_frac=rng.choice([0.0, 0.3]),
                quad_frac=rng.choice([0.3, 0.7]),
            )
            if k % 3 == 0:  # integer costs: many moves tie
                sub = PairwiseCosts(
                    sub.left_size, sub.right_size,
                    {x: float(round(v)) for x, v in sub.linear.items()},
                    {x: float(round(v)) for x, v in sub.quadratic.items()},
                )
            ids = gm._Ids(sub)
            greedy = gm._greedy_candidate(ids, random.Random(k))
            assert pairs_of(ids, greedy) == tuple(
                reference_greedy_candidate(sub, random.Random(k))
            )
            lap = list(solve_lap(PairwiseCosts(sub.left_size, sub.right_size, sub.linear)))
            for start in ([], [ids.pairs.index(pair) for pair in lap], greedy):
                scans = rng.choice([1, 2, 60])
                got = gm._local_search(ids, start, scans, two_swaps)
                want = reference_gm_local_search(sub, pairs_of(ids, start), scans, two_swaps)
                assert pairs_of(ids, got) == tuple(want)


def with_zero_entries(table, rng):
    """The table with about a third of its quadratic entries exactly 0.0."""
    quadratic = {key: 0.0 if rng.random() < 1 / 3 else v for key, v in table.quadratic.items()}
    return PairwiseCosts(table.left_size, table.right_size, table.linear, quadratic)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["parsed", "aggregated", "user"]))
def test_ids_equal_the_tuple_reference(seed, source):
    """_Ids reads a table's arrays; its ids, costs, nodes, ``at``, partner
    lists, quad() lookups and matching costs equal those read from the
    dict views, on parsed, aggregated and user-built tables whose
    quadratic entries include exact zeros."""
    rng = random.Random(seed)
    problem = random_problem(
        rng, rng.randint(2, 4), 4, forbidden_frac=rng.choice([0.0, 0.3]), quad_frac=0.5
    )
    problem = MgmProblem(
        problem.sizes, {pair: with_zero_entries(t, rng) for pair, t in problem.costs.items()}
    )
    if source == "parsed":
        tables = list(parse_problem(write_problem(problem)).costs.values())
    elif source == "aggregated":
        objects = list(range(problem.d))
        rng.shuffle(objects)
        cut = rng.randint(1, problem.d - 1)
        cliques = random_partition(rng, problem)
        a, b = (
            CliquePartition(Clique({p: v for p, v in c.pairs if p in side}) for c in cliques)
            for side in (set(objects[:cut]), set(objects[cut:]))
        )
        tables = [clique_clique_costs(problem, a, b), clique_clique_costs(problem, b, a)]
    else:
        tables = [with_zero_entries(random_qap(rng, max_side=6, quad_frac=0.6), rng)]
    for table in tables:
        ids = gm._Ids(table)
        pairs = sorted(table.linear)
        assert ids.pairs == pairs
        assert ids.left == [a for a, _ in pairs] and ids.right == [b for _, b in pairs]
        assert [v.hex() for v in ids.cost] == [table.linear[x].hex() for x in pairs]
        at = [-1] * (table.left_size * table.right_size)
        for k, (a, b) in enumerate(pairs):
            at[a * table.right_size + b] = k
        assert ids.at == at
        partners = partner_lists(table)
        assert ids.partners == [
            [(pairs.index(y), value) for y, value in partners.get(x, [])] for x in pairs
        ]
        for x, y in combinations(range(len(pairs)), 2):
            want = table.quadratic.get((pairs[x], pairs[y]), 0.0)
            assert ids.quad(x, y).hex() == want.hex()
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        left, right, matching = set(), set(), []
        for a, b in shuffled:
            if a not in left and b not in right:
                left.add(a), right.add(b), matching.append((a, b))
        assert gm._matching_cost(ids, matching).hex() == matching_cost(table, matching).hex()


class TestRegistry:
    def test_known_solvers(self):
        assert "default" in solver_names()

    def test_custom_registration(self, monkeypatch):
        # A private copy of the registry, so no other test sees "null".
        monkeypatch.setattr(gm, "_REGISTRY", dict(gm._REGISTRY))
        register_solver("null", lambda sub, seed=0, effort=Effort.DEFAULT: GmMatching())
        sub = PairwiseCosts(1, 1, {(0, 0): -1.0})
        assert get_solver("null")(sub, 0, Effort.DEFAULT) == GmMatching()
        assert "null" in solver_names()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_solver("no-such-solver")


class TestGmMatching:
    def test_uniqueness_enforced(self):
        with pytest.raises(ValueError):
            GmMatching([(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            GmMatching([(0, 0), (1, 0)])

    def test_maps(self):
        m = GmMatching([(1, 2), (0, 3)])
        assert m.left_map() == {0: 3, 1: 2}
        assert m.right_map() == {3: 0, 2: 1}
