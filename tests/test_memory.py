"""What a run keeps in memory.

Problem tables keep their entries in arrays: solves read a table's arrays
or the problem's slot index and never build its dict views, and a parsed
entry costs a few dozen bytes. Swap local search's cache keeps one
outcome per clique pair, no matrix. The CLI does not load OpenSSL, whose
library hashlib imports: derive_seed takes BLAKE2b from CPython's _blake2.
"""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mgmatch
from mgmatch import cli, local_search
from mgmatch.construction import derive_seed
from mgmatch.io import parse_problem, parse_solution, write_problem
from mgmatch.model import MgmProblem, PairwiseCosts

from oracles import random_partition, random_problem


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


def test_cli_does_not_load_openssl(problem_text, tmp_path):
    """Neither importing the CLI nor a full solve imports _hashlib, the
    OpenSSL binding that hashlib loads (about 3.5 MB of RSS)."""
    path = tmp_path / "problem.dd"
    path.write_text(problem_text)
    code = (
        "import sys\n"
        "import mgmatch.cli\n"
        "print('_hashlib' in sys.modules)\n"
        "mgmatch.cli.main([sys.argv[1], '--mode', 'full', '--output', sys.argv[2]])\n"
        "print('_hashlib' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(mgmatch.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code, str(path), str(tmp_path / "solution.json")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.split() == ["False", "False"]


def test_derive_seed_is_pinned():
    """The seeds every randomized step draws from; computed with
    hashlib.blake2b, the same function _blake2 provides."""
    pinned = {
        (0, 0): 15378838894278201442,
        (1, 0): 5929455767908386171,
        (1, 1): 10372939249921615222,
        (7, 3): 12296769318780836496,
        (2**32 - 1, 12345): 15396911546286228147,
        (-5, 2): 16290172169116650930,
    }
    assert {key: derive_seed(*key) for key in pinned} == pinned


def test_swap_cache_keeps_outcomes_only(monkeypatch):
    """Each cached clique pair maps to best_multiswap's (bits, predicted):
    a tuple of ints and a float, no matrix bytes and no array."""
    rng = random.Random(5)
    problem = random_problem(rng, 5, 6, quad_frac=0.5)
    caches = []
    real = local_search.swap_local_search

    def spy(*args, cache=None, **kwargs):
        caches.append(cache)
        return real(*args, cache=cache, **kwargs)

    monkeypatch.setattr(local_search, "swap_local_search", spy)
    local_search.alternate(problem, random_partition(rng, problem), seed=3)
    assert caches and all(cache is caches[0] for cache in caches)
    outcomes = caches[0].outcomes
    assert outcomes
    for (first, second), (bits, predicted) in outcomes.items():
        assert first < second
        assert type(bits) is tuple and all(type(bit) is int for bit in bits)
        assert type(predicted) is float
