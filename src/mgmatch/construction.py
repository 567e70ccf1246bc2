"""Feasible solution construction.

Solutions are built by repeatedly matching two partial solutions with a
pairwise GM solver, called as gm(sub, seed), and merging matched cliques.
rematch is the one-object step, shared with GM local search. The
sequential variant chains it along a random object order; the tree
variant combines partial solutions along a binary construction tree,
bottom-up; the incremental variant warm-starts the chain with a stronger
solver on a prefix of the objects.

Aggregated costs: matching clique I to clique S prices every cross pair of
their members, so a single forbidden member pair forbids the whole entry.
Quadratic costs aggregate likewise over shared objects. Entries with no
contributing term stay absent, which keeps instances sparse and guarantees
the GM solver can never produce a forbidden match. np.bincount sums the
terms from 0.0 in the order they are read; the entries come out sorted,
as every table stores them.
"""

from __future__ import annotations

import hashlib
import time
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .gm import GmMatching, GmSolver, solve_gm
from .model import (
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
    singleton_partition,
)


class OverlapError(ValueError):
    """Two partial solutions to be merged cover a common object."""


def derive_seed(seed: int, k: int) -> int:
    """Stable per-step seed so tree and sequential construction agree."""
    digest = hashlib.blake2b(f"{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def clique_clique_costs(
    problem: MgmProblem, a: CliquePartition, b: CliquePartition
) -> PairwiseCosts:
    """Matching instance between the cliques of two disjoint partial solutions.

    Left node k is a.cliques[k], right node l is b.cliques[l]. The linear
    entry (k, l) exists only when every member pair across the two cliques
    is allowed, and then carries the sum of those costs. A quadratic
    entry's two vertices of one object lie in distinct cliques, so every
    summed entry joins two assignments that share no node. Sums add terms
    from 0.0 in table, then arrays() order; the table's arrays are built
    directly, in the order np.unique gives their codes: linear keys sorted,
    quadratic entries as the positions x < y of their two linear entries,
    sorted by (x, y).
    """
    columns_a = a.columns(problem.sizes)
    columns_b = b.columns(problem.sizes)
    common = columns_a.keys() & columns_b.keys()
    if common:
        raise OverlapError(f"partial solutions share objects {sorted(common)}")
    cols = {**columns_a, **columns_b}
    # Per stored linear entry, the cliques holding its vertices (-1:
    # uncovered), per quadratic one the positions of its linear entries in
    # the concatenation; one empty row, so that concatenation works without
    # tables.
    parts, at = [(np.empty(0, np.int64),) * 6], 0
    for p in sorted(columns_a):
        for q in sorted(columns_b):
            table, swapped = problem.table(p, q)
            (i, s), lin_v, (x, y), quad_v = table.arrays()
            if swapped:  # the stored left object is q
                i, s = s, i
            parts.append((cols[p][i], cols[q][s], lin_v, at + x, at + y, quad_v))
            at += len(lin_v)
    na, nb = len(a.cliques), len(b.cliques)
    ka, kb, lin_v, x, y, quad_v = map(np.concatenate, zip(*parts))
    # Linear keys coded k * nb + l, which keeps tuple order; -1 codes an
    # uncovered entry, whose slot is never complete.
    codes = np.where((ka >= 0) & (kb >= 0), ka * nb + kb, -1)
    codes, slot, sums, counts = _sum_by_code(codes, lin_v)
    # A forbidden member pair leaves an entry with fewer terms than pairs.
    sizes = np.array([len(c) for c in a.cliques + b.cliques], dtype=np.int64)
    complete = (codes >= 0) & (counts == sizes[codes // nb] * sizes[na + codes % nb])
    lin_keys, lin_sums = np.stack(np.divmod(codes[complete], nb)), sums[complete]
    # A quadratic entry pairs the slots of its linear entries in codes.
    x, y = slot[x], slot[y]
    low, high = np.minimum(x, y), np.maximum(x, y)
    kept = complete[low] & complete[high]
    n = len(codes)
    pairs, _, sums, _ = _sum_by_code(low[kept] * n + high[kept], quad_v[kept])
    # A complete slot's position among the linear keys is its rank.
    position = np.cumsum(complete) - 1
    quad_pos = position[np.stack(np.divmod(pairs, n))]
    return PairwiseCosts._trusted(na, nb, lin_keys, lin_sums, quad_pos, sums)


def _sum_by_code(codes, values):
    """Sorted distinct codes, each code's slot among them, sums and counts."""
    keys, slot = np.unique(codes, return_inverse=True)
    # The weighted bincount of no codes is int64.
    sums = np.bincount(slot, values, len(keys)).astype(np.float64, copy=False)
    return keys, slot, sums, np.bincount(slot, None, len(keys))


def merge(a: CliquePartition, b: CliquePartition, matching: GmMatching) -> CliquePartition:
    """Union matched cliques, carry the unmatched ones over.

    Matching pairs index into a.cliques and b.cliques. The result lists a's
    cliques first (unioned with their partner where matched), then b's
    unmatched cliques, preserving both input orders.
    """
    for ka, kb in matching:
        if not (0 <= ka < len(a.cliques)) or not (0 <= kb < len(b.cliques)):
            raise IndexError(f"matching references unknown clique pair ({ka},{kb})")
    partner = matching.left_map()
    matched_b = set(matching.right_map())
    result = []
    for idx, clique in enumerate(a.cliques):
        kb = partner.get(idx)
        result.append(clique.union(b.cliques[kb]) if kb is not None else clique)
    for idx, clique in enumerate(b.cliques):
        if idx not in matched_b:
            result.append(clique)
    return CliquePartition(result)


def rematch(
    problem: MgmProblem, p: int, partial: CliquePartition, gm: GmSolver, seed: int
) -> tuple[GmMatching, CliquePartition]:
    """Match object p's vertices to the cliques of a partial solution, then merge.

    Object p is lifted to singleton cliques, so the matching pairs (vertex
    of p, index into partial.cliques). The instance comes from the module
    attribute clique_clique_costs, which raises OverlapError when partial
    already covers p. Returns the matching and the merged partition.
    """
    lifted = singleton_partition(problem.sizes[p], p)
    matching = gm(clique_clique_costs(problem, lifted, partial), seed)
    return matching, merge(lifted, partial, matching)


class ConstructionTree:
    """Leaf-labeled ordered binary tree steering tree construction.

    Leaves are object indices and must form a permutation of range(d).
    Nodes are given as nested 2-tuples, e.g. ``((2, (1, 0)), 3)``.
    """

    def __init__(self, root, d: int):
        self.root = root
        self.d = d
        labels: list[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                labels.append(node)
            elif isinstance(node, tuple) and len(node) == 2:
                stack.extend(node)
            else:
                raise ValueError(f"malformed tree node {node!r}: need leaf int or 2-tuple")
        if sorted(labels) != list(range(d)):
            raise ValueError(f"tree leaves {sorted(labels)} are not a permutation of range({d})")

    @classmethod
    def chain(cls, order: Sequence[int]) -> "ConstructionTree":
        """Left-deep chain equivalent to sequential construction along order.

        Each internal node matches the next object (left child) against
        everything built so far (right child).
        """
        root = order[0]
        for p in order[1:]:
            root = (p, root)
        return cls(root, len(order))

    @classmethod
    def balanced(cls, order: Sequence[int]) -> "ConstructionTree":
        def build(part):
            if len(part) == 1:
                return part[0]
            mid = (len(part) + 1) // 2
            return (build(part[:mid]), build(part[mid:]))

        return cls(build(list(order)), len(order))

    def schedule(self) -> list[list[tuple[int, tuple]]]:
        """Internal nodes grouped by height, bottom-up.

        Nodes within one level have disjoint subtrees, so their combine
        steps do not depend on each other. Each entry is (sequence index,
        node); the sequence index seeds the node's GM solve. On a chain
        tree this numbering matches the step numbering of sequential
        construction.
        """
        heights: dict[int, int] = {}  # id(internal node) -> height
        post: list[tuple[int, tuple]] = []  # (height, node) in post-order
        stack = [(self.root, False)]
        while stack:
            node, children_done = stack.pop()
            if isinstance(node, int):
                continue
            if children_done:
                height = 1 + max(0 if isinstance(c, int) else heights[id(c)] for c in node)
                heights[id(node)] = height
                post.append((height, node))
            else:
                stack += [(node, True), (node[1], False), (node[0], False)]
        post.sort(key=lambda entry: entry[0])  # stable: post-order within a level
        levels = groupby(enumerate(post, 1), key=lambda item: item[1][0])
        return [[(counter, node) for counter, (_, node) in level] for _, level in levels]


def _permutation(problem: MgmProblem, order: Sequence[int]) -> list[int]:
    order = list(order)
    if sorted(order) != list(range(problem.d)):
        raise ValueError("order must be a permutation of the objects")
    return order


def _chain(
    problem: MgmProblem,
    acc: CliquePartition,
    order: list[int],
    start: int,
    gm: GmSolver,
    seed: int,
    deadline: float | None,
) -> CliquePartition:
    """Match order[start:] onto acc one object at a time; step k is seeded by k.
    Objects not reached by the deadline stay unmatched."""
    for k in range(start, len(order)):
        if deadline is not None and time.monotonic() >= deadline:
            break
        _, acc = rematch(problem, order[k], acc, gm, derive_seed(seed, k))
    return acc


def construct_sequential(
    problem: MgmProblem,
    order: Sequence[int] | None = None,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    deadline: float | None = None,
) -> CliquePartition:
    """Chain construction: start from one object, match the next one in each step."""
    order = _permutation(problem, range(problem.d) if order is None else order)
    acc = singleton_partition(problem.sizes[order[0]], order[0])
    return _chain(problem, acc, order, 1, gm, seed, deadline)


def construct_parallel(
    problem: MgmProblem,
    tree: ConstructionTree,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    deadline: float | None = None,
) -> CliquePartition:
    """Tree construction: each internal node matches the partial solutions of
    its two subtrees and merges them, lower levels first.

    A chain tree reproduces construct_sequential exactly, including
    per-step seeds. Past the deadline, nodes merge their subtrees unmatched.
    """
    if tree.d != problem.d:
        raise ValueError("tree does not cover the problem's objects")
    solutions: dict[int, CliquePartition] = {}

    def solution_of(node) -> CliquePartition:
        if isinstance(node, int):
            return singleton_partition(problem.sizes[node], node)
        return solutions[id(node)]

    for level in tree.schedule():
        for seq, node in level:
            a = solution_of(node[0])
            b = solution_of(node[1])
            if deadline is not None and time.monotonic() >= deadline:
                matching = GmMatching()
            else:
                matching = gm(clique_clique_costs(problem, a, b), derive_seed(seed, seq))
            solutions[id(node)] = merge(a, b, matching)
    return solution_of(tree.root)


def construct_incremental(
    problem: MgmProblem,
    order: Sequence[int],
    s: int,
    inner: Callable[[MgmProblem, int], CliquePartition],
    gm: GmSolver = solve_gm,
    seed: int = 0,
    deadline: float | None = None,
) -> CliquePartition:
    """Warm-start the chain: solve the first s objects with a full MGM pipeline.

    The restriction of the problem to the first s objects of the order is
    handed to ``inner`` (any solver returning a feasible partition; it
    honours the deadline itself); the remaining objects are then chained
    on as in sequential construction.
    """
    order = _permutation(problem, order)
    if not (2 <= s <= problem.d):
        raise ValueError(f"warm-start size {s} outside [2, {problem.d}]")
    head = order[:s]
    restricted = problem.restrict(head)
    inner_solution = inner(restricted, derive_seed(seed, 0))
    inner_solution = inner_solution.normalized(restricted.sizes)
    acc = CliquePartition(
        Clique({head[p]: v for p, v in clique.pairs}) for clique in inner_solution
    )
    return _chain(problem, acc, order, s, gm, seed, deadline)
