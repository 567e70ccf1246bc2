import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# One profile for every property test: deterministic examples and no
# example database, so a test run reproduces exactly and leaves no files.
settings.register_profile(
    "mgmatch", max_examples=60, deadline=None, derandomize=True, database=None
)
settings.load_profile("mgmatch")

from mgmatch.model import Clique, CliquePartition, MgmProblem, PairwiseCosts


@pytest.fixture
def t3() -> MgmProblem:
    """Small 3-object fixture: sizes (2, 2, 1), mixed costs, one absent entry.

    Vertex indices are 0-based here; the global optimum is -3.5 at
    {{1^1,1^2},{2^1,2^2},{1^3}} in 1-based notation.
    """
    c01 = PairwiseCosts(
        2,
        2,
        linear={(0, 0): -2.0, (1, 1): -1.0, (0, 1): 1.0},
        quadratic={((0, 0), (1, 1)): -0.5},
    )
    c02 = PairwiseCosts(2, 1, linear={(0, 0): -1.0, (1, 0): 2.0})
    c12 = PairwiseCosts(2, 1, linear={(0, 0): 3.0, (1, 0): -1.0})
    return MgmProblem([2, 2, 1], {(0, 1): c01, (0, 2): c02, (1, 2): c12})


@pytest.fixture
def chain3() -> MgmProblem:
    """Three one-vertex objects: 0-1 and 1-2 may match (cost -1 each), 0-2
    may not, so a clique of all three is forbidden."""
    link = PairwiseCosts(1, 1, linear={(0, 0): -1.0})
    return MgmProblem([1, 1, 1], {(0, 1): link, (1, 2): link})


def part(*cliques) -> CliquePartition:
    """Shorthand: each clique given as a dict {object: vertex}, 0-based."""
    return CliquePartition(Clique(c) for c in cliques)
