"""Edge cases cutting across modules: degenerate sizes, hostile parser
input, solver misconfiguration."""

import random
import string

import pytest

from mgmatch.cli import main
from mgmatch.construction import construct_sequential
from mgmatch.gm import GmMatching, solve_lap, solver_names
from mgmatch.io import ParseError, parse_problem, write_problem, write_solution
from mgmatch.local_search import alternate, gm_local_search
from mgmatch.model import CliquePartition, PairwiseCosts, objective, validate

from conftest import part
from oracles import matching_cost


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
        for search in (gm_local_search, alternate):
            result = search(problem, start, seed=0)
            validate(problem, result)
            assert objective(problem, result) == pytest.approx(-1.0)


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
    def test_unknown_solver_exits_2(self, t3, tmp_path, capsys):
        path = tmp_path / "t3.dd"
        path.write_text(write_problem(t3))
        assert main([str(path), "--gm-solver", "does-not-exist"]) == 2
        known = solver_names()
        assert capsys.readouterr().err == (
            f"error: unknown GM solver 'does-not-exist'; known: {known}\n"
        )

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


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a parse error on its line, reported by
    the command line with exit code 2."""

    def test_problem_file(self, tmp_path, capsys):
        path = tmp_path / "t3.dd"
        path.write_bytes(b"gm 0 1\np 2 2 1 0\na 0 0 0 -2.0\xff\n")
        assert main([str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read problem: line 3: invalid UTF-8 byte 0xff\n"
        )

    def test_initial_solution(self, t3, tmp_path, capsys):
        problem = tmp_path / "t3.dd"
        problem.write_text(write_problem(t3))
        text = write_solution(part({0: 0, 1: 0}), {"note": "x"})
        line = 1 + next(k for k, row in enumerate(text.splitlines()) if '"note"' in row)
        initial = tmp_path / "init.json"
        initial.write_bytes(text.encode().replace(b'"x"', b'"\xff"'))
        assert main([str(problem), "--mode", "ls", "--initial", str(initial)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read initial solution: line {line}: invalid UTF-8 byte 0xff\n"
        )


class TestDegenerateMatchingInstances:
    def test_lap_with_duplicate_costs_ties(self):
        # heavy ties: all entries equal and negative
        sub = PairwiseCosts(4, 4, {(a, b): -1.0 for a in range(4) for b in range(4)})
        matching = solve_lap(sub)
        assert len(matching) == 4
        assert matching_cost(sub, matching.pairs) == pytest.approx(-4.0)

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
