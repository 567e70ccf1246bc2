"""Edge cases cutting across modules: degenerate sizes, stale proposals,
hostile parser input, solver misconfiguration."""

import random
import string

import pytest

from mgmatch.cli import main
from mgmatch.construction import construct_sequential
from mgmatch.gm import GmMatching, solve_lap
from mgmatch.io import ParseError, parse_problem, write_problem
from mgmatch.local_search import gm_local_search_parallel
from mgmatch.model import (
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
    objective,
    validate,
)

from conftest import part


class TestZeroSizeObjects:
    def test_parser_produces_empty_object(self):
        # object 1 appears only as a block id, never in a p-line
        problem = parse_problem("gm 0 2\np 2 2 1 0\na 0 0 0 -1.0\n")
        assert problem.sizes == (2, 0, 2)

    def test_construction_skips_empty_object(self):
        problem = parse_problem("gm 0 2\np 2 2 1 0\na 0 0 0 -1.0\n")
        solution = construct_sequential(problem, [0, 1, 2], seed=0)
        validate(problem, solution)
        assert objective(problem, solution) == pytest.approx(-1.0)

    def test_roundtrip_with_empty_object(self):
        problem = parse_problem("gm 0 2\np 2 2 1 0\na 0 0 0 -1.0\n")
        assert parse_problem(write_problem(problem)) == problem

    def test_local_search_with_empty_object(self):
        problem = parse_problem("gm 0 2\np 2 2 1 0\na 0 0 0 -1.0\n")
        start = CliquePartition().normalized(problem.sizes)
        result = gm_local_search_parallel(problem, start, seed=0)
        assert objective(problem, result) == pytest.approx(-1.0)


class TestStaleParallelProposals:
    def test_stale_target_cliques_are_dropped_not_crashed(self):
        # Objects 1 and 2 both want to re-match onto object 0's cliques.
        # Applying object 1's proposal changes the split cliques object 2's
        # matching referenced, forcing the re-targeting path.
        c01 = PairwiseCosts(2, 2, {(0, 0): -5.0, (1, 1): -5.0, (0, 1): -0.5, (1, 0): -0.5})
        c02 = PairwiseCosts(2, 2, {(0, 0): -5.0, (1, 1): -5.0, (0, 1): -0.5, (1, 0): -0.5})
        c12 = PairwiseCosts(2, 2, {(0, 0): -5.0, (1, 1): -5.0, (0, 1): -0.5, (1, 0): -0.5})
        problem = MgmProblem([2, 2, 2], {(0, 1): c01, (0, 2): c02, (1, 2): c12})
        # start crossed: both objects matched to the wrong vertex of object 0
        start = part({0: 0, 1: 1, 2: 1}, {0: 1, 1: 0, 2: 0})
        result = gm_local_search_parallel(problem, start, seed=0, max_passes=6)
        validate(problem, result)
        assert objective(problem, result) <= objective(problem, start)
        # both straight full cliques at -15 each is the optimum
        assert objective(problem, result) == pytest.approx(-30.0)

    def test_parallel_search_monotone_under_many_conflicts(self):
        rng = random.Random(71)
        for _ in range(10):
            sizes = [rng.randint(2, 4) for _ in range(4)]
            costs = {}
            for p in range(4):
                for q in range(p + 1, 4):
                    linear = {
                        (i, s): round(rng.uniform(-4, 1), 3)
                        for i in range(sizes[p])
                        for s in range(sizes[q])
                    }
                    costs[(p, q)] = PairwiseCosts(sizes[p], sizes[q], linear)
            problem = MgmProblem(sizes, costs)
            start = CliquePartition().normalized(problem.sizes)
            result = gm_local_search_parallel(problem, start, seed=rng.randrange(99))
            assert objective(problem, result) <= 0.0
            validate(problem, result)


class TestParserFuzz:
    def test_garbage_lines_raise_parse_errors_only(self):
        rng = random.Random(12)
        alphabet = string.ascii_letters + string.digits + " .-$#\n"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            try:
                parse_problem(text)
            except ParseError:
                pass  # any malformed input must surface as ParseError

    def test_mangled_valid_files_raise_parse_errors_only(self, t3):
        rng = random.Random(13)
        base = write_problem(t3)
        for _ in range(300):
            chars = list(base)
            for _ in range(rng.randint(1, 5)):
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice("xq9-. \n")
            try:
                parse_problem("".join(chars))
            except ParseError:
                pass  # every malformed mutation must surface as ParseError


class TestCliMisconfiguration:
    def test_unknown_solver_exits_2(self, t3, tmp_path):
        path = tmp_path / "t3.dd"
        path.write_text(write_problem(t3))
        assert main([str(path), "--gm-solver", "does-not-exist"]) == 2

    def test_sync_trace_has_entries(self, t3, tmp_path):
        path = tmp_path / "t3.dd"
        path.write_text(write_problem(t3))
        trace = tmp_path / "trace.csv"
        code = main(
            [str(path), "--mode", "sync", "--sync-mode", "sparse",
             "--gm-effort", "exhaustive", "--trace", str(trace),
             "--output", str(tmp_path / "out.json")]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert len(lines) >= 2  # header plus at least the construction entry


class TestDegenerateMatchingInstances:
    def test_lap_with_duplicate_costs_ties(self):
        # heavy ties: all entries equal and negative
        sub = PairwiseCosts(4, 4, {(a, b): -1.0 for a in range(4) for b in range(4)})
        matching = solve_lap(sub)
        assert len(matching) == 4
        assert sub.matching_cost(matching.pairs) == pytest.approx(-4.0)

    def test_lap_zero_cost_entries_stay_unmatched(self):
        sub = PairwiseCosts(2, 2, {(0, 0): 0.0, (1, 1): 0.0})
        assert solve_lap(sub) == GmMatching()

    def test_lap_rectangular_extremes(self):
        sub = PairwiseCosts(1, 6, {(0, b): -float(b + 1) for b in range(6)})
        matching = solve_lap(sub)
        assert matching == GmMatching([(0, 5)])
        tall = PairwiseCosts(6, 1, {(a, 0): -float(a + 1) for a in range(6)})
        assert solve_lap(tall) == GmMatching([(5, 0)])

    def test_merge_empty_sides(self):
        from mgmatch.construction import merge

        a = part({0: 0})
        empty = CliquePartition()
        assert merge(a, empty, GmMatching()).cliques == a.cliques
        assert merge(empty, a, GmMatching()).cliques == a.cliques


class TestSingletonNormalizationAcrossPipeline:
    def test_implicit_and_explicit_singletons_solve_identically(self, t3):
        implicit = part({0: 0, 1: 0})
        explicit = implicit.normalized(t3.sizes)
        from mgmatch.local_search import gm_local_search

        a = gm_local_search(t3, implicit, seed=4)
        b = gm_local_search(t3, explicit, seed=4)
        assert objective(t3, a) == objective(t3, b)
