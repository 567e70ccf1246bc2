import random
from itertools import combinations

import pytest

from mgmatch.gm import (
    Effort,
    GmMatching,
    get_solver,
    register_solver,
    solve_gm,
    solve_lap,
    solver_names,
)

from mgmatch.model import PairwiseCosts

from oracles import brute_force_gm


def random_lap(rng, max_side=6, forbidden_frac=0.4):
    left = rng.randint(1, max_side)
    right = rng.randint(1, max_side)
    linear = {}
    for a in range(left):
        for b in range(right):
            if rng.random() >= forbidden_frac:
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
        assert sub.matching_cost(matching.pairs) == -3.0

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
        for _ in range(200):
            sub = random_lap(rng)
            matching = solve_lap(sub)
            want, _ = brute_force_gm(sub)
            assert sub.matching_cost(matching.pairs) == pytest.approx(want, abs=1e-9)

    def test_never_uses_forbidden_pairs(self):
        rng = random.Random(1)
        for _ in range(50):
            sub = random_lap(rng, forbidden_frac=0.7)
            for pair in solve_lap(sub):
                assert pair in sub.linear


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
            assert sub.matching_cost(matching.pairs) == pytest.approx(want, abs=1e-9)

    def test_cost_never_positive(self):
        rng = random.Random(15)
        for effort in (Effort.FAST, Effort.DEFAULT):
            for _ in range(40):
                sub = random_qap(rng, max_side=5)
                matching = solve_gm(sub, seed=11, effort=effort)
                assert sub.matching_cost(matching.pairs) <= 1e-12
                for pair in matching:
                    assert pair in sub.linear

    def test_deterministic(self):
        rng = random.Random(21)
        for _ in range(10):
            sub = random_qap(rng, max_side=5)
            a = solve_gm(sub, seed=5, effort=Effort.DEFAULT)
            b = solve_gm(sub, seed=5, effort=Effort.DEFAULT)
            assert a == b


class TestRegistry:
    def test_known_solvers(self):
        assert "default" in solver_names()
        assert "lap" in solver_names()

    def test_custom_registration(self):
        register_solver("null", lambda sub, seed=0, effort=Effort.DEFAULT: GmMatching())
        sub = PairwiseCosts(1, 1, {(0, 0): -1.0})
        assert get_solver("null")(sub, 0, Effort.DEFAULT) == GmMatching()

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
