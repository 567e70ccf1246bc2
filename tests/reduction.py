"""Reduction from incomplete to complete multi-graph matching.

Every object is padded with dummy vertices until all objects have as many
vertices as the whole incomplete problem; costs touching a dummy are zero.
Solutions translate back and forth without changing their objective, which
makes the reduction a handy correctness oracle. The padded problem is a
lazy view: materializing its cost tables is exactly the blow-up that makes
the reduction impractical as an actual solution strategy.
"""

from __future__ import annotations

import random

from mgmatch.model import (
    Clique,
    CliquePartition,
    FeasibilityError,
    MgmProblem,
)


class CompletenessError(FeasibilityError):
    """A solution claimed to be complete has non-maximal or missing cliques."""


class CompleteProblem:
    """Lazy complete view of an incomplete problem.

    Object p keeps its real vertices 0..|V^p|-1 and gains dummies
    |V^p|..|V|-1, where |V| is the total vertex count of the base problem.
    Costs fall through to the base for all-real indices and are zero
    otherwise; real-real forbidden entries stay forbidden, at math.inf.

    It serves ``d`` and ``sizes``, which model.validate reads, and
    ``is_dummy``, which the pointwise lookups oracles.linear_cost and
    oracles.quad_cost read. model.objective takes an MgmProblem: a padded
    solution is priced as
    objective(complete.base, complete_to_incomplete(complete, padded)).
    """

    __slots__ = ("base", "total")

    def __init__(self, base: MgmProblem):
        self.base = base
        self.total = sum(base.sizes)

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.total,) * self.base.d

    def dummy_counts(self) -> tuple[int, ...]:
        return tuple(self.total - n for n in self.base.sizes)

    def is_dummy(self, p: int, v: int) -> bool:
        return v >= self.base.sizes[p]

    def __repr__(self):
        return f"CompleteProblem(d={self.d}, size={self.total}, base={self.base!r})"


def to_complete(problem: MgmProblem) -> CompleteProblem:
    """Pad the problem so every object has exactly |V| vertices."""
    return CompleteProblem(problem)


def incomplete_to_complete(
    solution: CliquePartition, complete: CompleteProblem, seed: int = 0
) -> CliquePartition:
    """Translate an incomplete solution into a complete one by adding dummies.

    Cliques are padded until each covers every object exactly once and the
    partition has |V| cliques. Which dummy lands in which clique is a free
    choice; the seed fixes it deterministically. The objective is preserved
    exactly because dummy-touching costs are zero.
    """
    base = complete.base
    full = solution.normalized(base.sizes)
    cliques = [dict(c) for c in full.cliques]
    rng = random.Random(seed)
    rng.shuffle(cliques)
    while len(cliques) < complete.total:
        cliques.append({})
    if len(cliques) > complete.total:
        raise FeasibilityError(
            f"solution has {len(cliques)} cliques but the complete problem only {complete.total}"
        )
    for p in range(base.d):
        covering = [c for c in cliques if p in c]
        missing = [c for c in cliques if p not in c]
        cliques = covering + missing
        for offset, clique in enumerate(missing):
            clique[p] = base.sizes[p] + offset
    return CliquePartition(Clique(c) for c in cliques)


def complete_to_incomplete(
    complete: CompleteProblem, solution: CliquePartition
) -> CliquePartition:
    """Strip dummies from a complete solution; objectives are equal.

    The input must be a genuinely complete solution: |V| cliques, each
    covering every object exactly once.
    """
    if len(solution.cliques) != complete.total:
        raise CompletenessError(
            f"expected {complete.total} cliques, got {len(solution.cliques)}"
        )
    for clique in solution.cliques:
        if len(clique) != complete.d:
            raise CompletenessError(f"{clique!r} does not cover every object")
    stripped = [
        Clique((p, v) for p, v in clique if not complete.is_dummy(p, v))
        for clique in solution.cliques
    ]
    return CliquePartition(stripped)

