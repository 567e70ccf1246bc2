import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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


def part(*cliques) -> CliquePartition:
    """Shorthand: each clique given as a dict {object: vertex}, 0-based."""
    return CliquePartition(Clique(c) for c in cliques)
