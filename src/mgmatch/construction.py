"""Feasible solution construction.

Solutions are built by repeatedly matching two partial solutions (or one
object against a partial solution) with a pairwise GM solver and merging
matched cliques. The sequential variant walks a random object order; the
tree variant combines partial solutions along a binary construction tree,
bottom-up; the incremental variant warm-starts the chain with a stronger
solver on a prefix of the objects.

Aggregated costs: matching clique I to clique S prices every cross pair of
their members, so a single forbidden member pair forbids the whole entry.
Quadratic costs aggregate likewise over shared objects. Entries with no
contributing term stay absent, which keeps instances sparse and guarantees
the GM solver can never produce a forbidden match.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Sequence

from .gm import Effort, GmMatching, GmSolver, solve_gm
from .model import (
    Clique,
    CliquePartition,
    DuplicateVertexError,
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


def _clique_columns(
    problem: MgmProblem, partition: CliquePartition
) -> dict[int, list[int | None]]:
    """Per covered object, the clique index of each of its vertices."""
    columns: dict[int, list[int | None]] = {}
    for idx, clique in enumerate(partition.cliques):
        for p, v in clique.pairs:
            column = columns.get(p)
            if column is None:
                column = columns[p] = [None] * problem.sizes[p]
            if not 0 <= v < len(column):
                raise IndexError(f"vertex {v} out of range for object {p}")
            if column[v] is not None:
                raise DuplicateVertexError(f"vertex ({p},{v}) appears in more than one clique")
            column[v] = idx
    return columns


def clique_clique_costs(
    problem: MgmProblem, a: CliquePartition, b: CliquePartition
) -> PairwiseCosts:
    """Matching instance between the cliques of two disjoint partial solutions.

    Left node k is a.cliques[k], right node l is b.cliques[l]. The linear
    entry (k, l) exists only when every member pair across the two cliques
    is allowed, and then carries the sum of those costs. A quadratic
    entry's two vertices of one object lie in distinct cliques, so every
    summed entry joins two assignments that share no node.
    """
    columns_a = _clique_columns(problem, a)
    columns_b = _clique_columns(problem, b)
    common = columns_a.keys() & columns_b.keys()
    if common:
        raise OverlapError(f"partial solutions share objects {sorted(common)}")
    lin_sum: dict[tuple[int, int], float] = {}
    lin_cnt: dict[tuple[int, int], int] = {}
    quad_sum: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}
    for p in sorted(columns_a):
        for q in sorted(columns_b):
            # Read the table as stored (p < q), each column on its object's
            # side; keys stay (clique of a, clique of b).
            table, swapped = problem.table(p, q)
            left, right = (columns_b[q], columns_a[p]) if swapped else (columns_a[p], columns_b[q])
            for (i, s), value in table.linear.items():
                ki, ks = left[i], right[s]
                if ki is None or ks is None:
                    continue
                key = (ks, ki) if swapped else (ki, ks)
                lin_sum[key] = lin_sum.get(key, 0.0) + value
                lin_cnt[key] = lin_cnt.get(key, 0) + 1
            for ((i, s), (j, t)), value in table.quadratic.items():
                ki, ks, kj, kt = left[i], right[s], left[j], right[t]
                if ki is None or ks is None or kj is None or kt is None:
                    continue
                x, y = ((ks, ki), (kt, kj)) if swapped else ((ki, ks), (kj, kt))
                key = (x, y) if x <= y else (y, x)
                quad_sum[key] = quad_sum.get(key, 0.0) + value
    size_a = [len(c) for c in a.cliques]
    size_b = [len(c) for c in b.cliques]
    linear = {
        key: lin_sum[key] for key, count in lin_cnt.items()
        if count == size_a[key[0]] * size_b[key[1]]
    }
    quadratic = {
        key: value for key, value in quad_sum.items()
        if key[0] in linear and key[1] in linear
    }
    return PairwiseCosts._trusted(len(a.cliques), len(b.cliques), linear, quadratic)


def object_clique_costs(
    problem: MgmProblem, p: int, partial: CliquePartition
) -> PairwiseCosts:
    """Matching instance between the vertices of object p and a partial solution.

    The single-object special case of clique_clique_costs via singleton
    lifting: left node i is vertex i of object p, right node l is
    partial.cliques[l]. It goes through the module attribute, so chain
    construction and GM local search share that one aggregation.
    """
    if p in partial.objects():
        raise OverlapError(f"object {p} is already covered by the partial solution")
    lifted = singleton_partition(problem.sizes[p], p)
    return clique_clique_costs(problem, lifted, partial)


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


def merge_object(
    problem: MgmProblem, p: int, partial: CliquePartition, matching: GmMatching
) -> CliquePartition:
    """Merge object p into a partial solution; matching pairs (vertex, clique)."""
    lifted = singleton_partition(problem.sizes[p], p)
    return merge(lifted, partial, matching)


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
        by_height: dict[int, list] = {}
        heights: dict[int, int] = {}  # id(internal node) -> height

        def height_of(node) -> int:
            return 0 if isinstance(node, int) else heights[id(node)]

        # Post-order (left subtree, right subtree, node) without recursion.
        stack = [(self.root, False)]
        while stack:
            node, children_done = stack.pop()
            if isinstance(node, int):
                continue
            if children_done:
                height = 1 + max(height_of(node[0]), height_of(node[1]))
                heights[id(node)] = height
                by_height.setdefault(height, []).append(node)
            else:
                stack += [(node, True), (node[1], False), (node[0], False)]
        levels = []
        counter = 1
        for height in sorted(by_height):
            level = []
            for node in by_height[height]:
                level.append((counter, node))
                counter += 1
            levels.append(level)
        return levels


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
    effort: Effort,
    deadline: float | None,
) -> CliquePartition:
    """Match order[start:] onto acc one object at a time; step k is seeded by k.
    Objects not reached by the deadline stay unmatched."""
    for k in range(start, len(order)):
        if deadline is not None and time.monotonic() >= deadline:
            break
        p = order[k]
        sub = object_clique_costs(problem, p, acc)
        matching = gm(sub, derive_seed(seed, k), effort)
        acc = merge_object(problem, p, acc, matching)
    return acc


def construct_sequential(
    problem: MgmProblem,
    order: Sequence[int] | None = None,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    effort: Effort = Effort.DEFAULT,
    deadline: float | None = None,
) -> CliquePartition:
    """Chain construction: start from one object, match the next one in each step."""
    order = _permutation(problem, range(problem.d) if order is None else order)
    acc = singleton_partition(problem.sizes[order[0]], order[0])
    return _chain(problem, acc, order, 1, gm, seed, effort, deadline)


def construct_parallel(
    problem: MgmProblem,
    tree: ConstructionTree,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    effort: Effort = Effort.DEFAULT,
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
                sub = clique_clique_costs(problem, a, b)
                matching = gm(sub, derive_seed(seed, seq), effort)
            solutions[id(node)] = merge(a, b, matching)
    return solution_of(tree.root)


def construct_incremental(
    problem: MgmProblem,
    order: Sequence[int],
    s: int,
    inner: Callable[[MgmProblem, int], CliquePartition],
    gm: GmSolver = solve_gm,
    seed: int = 0,
    effort: Effort = Effort.DEFAULT,
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
    return _chain(problem, acc, order, s, gm, seed, effort, deadline)
