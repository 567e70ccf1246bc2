"""Problem tables keep their entries in arrays.

Solves read a table's arrays or the problem's slot index and never build
its dict views, and a parsed entry costs a few dozen bytes.
"""

import random
import tracemalloc

import pytest

from mgmatch import cli
from mgmatch.io import parse_problem, parse_solution, write_problem
from mgmatch.model import MgmProblem, PairwiseCosts

from oracles import random_problem


@pytest.fixture(scope="module")
def problem_text() -> str:
    return write_problem(random_problem(random.Random(8), 5, 7, quad_frac=0.3, min_size=5))


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "full"],
        ["--mode", "sync", "--sync-mode", "sparse"],
        ["--mode", "full", "--construction", "par"],
        ["--mode", "full", "--construction", "inc:3"],
        ["--mode", "full", "--gm-effort", "fast"],
        ["--mode", "construct", "--gm-effort", "exhaustive"],
    ],
)
def test_solves_build_no_dict_views(problem_text, tmp_path, monkeypatch, argv):
    path, output = tmp_path / "problem.dd", tmp_path / "solution.json"
    path.write_text(problem_text)

    def refuse(table):
        raise AssertionError(f"the dict views of {table!r} were built")

    monkeypatch.setattr(PairwiseCosts, "_views", refuse)
    assert cli.main([str(path), *argv, "--seed", "1", "--output", str(output)]) == 0
    monkeypatch.undo()
    document = parse_solution(output.read_text(), parse_problem(problem_text))
    assert document.warnings == []


def test_parsed_entries_are_compact():
    """A parsed entry holds 24 bytes of arrays, linear or quadratic, far
    below the ~190 bytes of dict tables."""
    rng = random.Random(3)
    sizes = [30, 30, 30, 30]
    costs = {}
    for p in range(4):
        for q in range(p + 1, 4):
            linear = {(i, s): rng.uniform(-5, 5) for i in range(30) for s in range(30)}
            quadratic = {}
            while len(quadratic) < 600:
                (a, b), (c, d) = sorted(((rng.randrange(30), rng.randrange(30)) for _ in "ab"))
                if a != c and b != d:
                    quadratic[((a, b), (c, d))] = rng.uniform(-2, 2)
            costs[(p, q)] = PairwiseCosts(30, 30, linear, quadratic)
    text = write_problem(MgmProblem(sizes, costs))
    entries = 6 * (900 + 600)
    # The second parse's growth is what a parsed problem holds: the first
    # one leaves the interpreter's free lists of tuples and floats full.
    tracemalloc.start()
    try:
        first = parse_problem(text)
        before, _ = tracemalloc.get_traced_memory()
        second = parse_problem(text)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert first == second
    assert live / entries < 28
