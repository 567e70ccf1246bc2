"""Pairwise graph matching subsolvers.

Construction, local search and synchronization repeatedly solve small
(incomplete) matching instances. Each instance is a model.PairwiseCosts
table, the same type that holds a problem's per-object-pair costs, so
the synchronization stage hands the problem's own tables to the solver.
Linear-only instances are solved exactly as sparse LAPs by row-by-row
shortest augmenting paths, quadratic ones by a heuristic on integer
assignment ids that starts from the linear optimum and improves with
matching moves and fusion of candidate matchings. Moves are priced by
gains: each allowed assignment's quadratic cost to the current matching,
kept up to date as moves are applied. A solver returns its matching as
a tuple of the chosen (left, right) pairs, ascending, each node used at
most once. The pipeline calls a solver as gm(sub, seed) (GmSolver), so
the solver carries its effort, as in
functools.partial(solve_gm, effort=Effort.FAST). The registry holds one
solver, under "default"; the CLI looks it up at run time, so a caller may
replace it, and binds --gm-effort to it by keyword.
"""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from itertools import combinations
from typing import Callable

import numpy as np

from . import qpbo
from .model import Assignment, PairwiseCosts

# A solver's matching: the chosen pairs (a, b), ascending, no node repeated.
Matching = tuple[Assignment, ...]

# Instances whose matching count stays below this are brute-forced under
# Effort.EXHAUSTIVE; covers 5x5 dense and the skewed shapes local search makes.
EXHAUSTIVE_MATCHING_LIMIT = 20000

# A move counts as an improvement when it lowers a cost by more than this:
# costs are rounded sums, and a smaller gain may be rounding alone.
_MIN_GAIN = 1e-12


class Effort(str, Enum):
    FAST = "fast"
    DEFAULT = "default"
    EXHAUSTIVE = "exhaustive"


def solve_lap(sub: PairwiseCosts) -> Matching:
    """Exact minimum-cost incomplete matching of a linear-only instance.

    Row-by-row shortest augmenting paths (Jonker and Volgenant 1987) on
    the sparse graph. Each row (left node with an arc) gets a private
    zero-cost column, right_size + a, that stands for staying unmatched.
    Rows are assigned in index order: to their cheapest column in reduced
    cost when it is free, else along the path of a Dijkstra search from
    the row alone that stops at the first free column. Column potentials
    start at 0. Costs, distances and potentials are (cost, pairs) compared
    lexicographically, so the minimum-cost matching with the fewest pairs
    wins: no zero-gain path is taken.
    """
    (rows, cols), costs, _, quad_values = sub.arrays()
    if len(quad_values):
        raise ValueError("solve_lap requires an instance without quadratic costs")
    offset = sub.right_size
    arcs: dict[int, list[tuple[int, float, int]]] = {}
    for a, b, cost in zip(rows.tolist(), cols.tolist(), costs.tolist()):
        arcs.setdefault(a, []).append((b, cost, 1))
    size = offset + sub.left_size
    v_cost, v_pairs = [0.0] * size, [0] * size
    u_cost, u_pairs = [0.0] * sub.left_size, [0] * sub.left_size
    owner, column = [-1] * size, [-1] * sub.left_size  # row of a column, column of a row
    for root in arcs:  # ascending, as the table stores its linear entries
        arcs[root].append((offset + root, 0.0, 0))
        # Ties go to free, then lower columns: the entries' order is irrelevant.
        heap = [(c - v_cost[j], k - v_pairs[j], owner[j] >= 0, j) for j, c, k in arcs[root]]
        top = min(heap)
        if not top[2]:
            u_cost[root], u_pairs[root], _, j = top
            owner[j], column[root] = root, j
            continue
        dist = {j: (c, k) for c, k, _, j in heap}
        via = {j: root for j in dist}
        settled: set[int] = set()
        heapq.heapify(heap)
        while True:
            d_cost, d_pairs, busy, j = heapq.heappop(heap)
            if j in settled:
                continue
            settled.add(j)
            if not busy:
                break
            row = owner[j]
            base_cost, base_pairs = d_cost - u_cost[row], d_pairs - u_pairs[row]
            for k, c, n in arcs[row]:
                if k in settled:
                    continue
                label = (base_cost + c - v_cost[k], base_pairs + n - v_pairs[k])
                if k not in dist or label < dist[k]:
                    dist[k], via[k] = label, row
                    heapq.heappush(heap, (*label, owner[k] >= 0, k))
        # Keep every reduced cost non-negative and matched ones at zero.
        for k in settled:
            shift_cost, shift_pairs, row = d_cost - dist[k][0], d_pairs - dist[k][1], owner[k]
            v_cost[k], v_pairs[k] = v_cost[k] - shift_cost, v_pairs[k] - shift_pairs
            if row >= 0:
                u_cost[row], u_pairs[row] = u_cost[row] + shift_cost, u_pairs[row] + shift_pairs
        u_cost[root], u_pairs[root] = d_cost, d_pairs
        while True:  # flip the path from the free column back to the root
            row = via[j]
            owner[j] = row
            column[row], j = j, column[row]
            if row == root:
                break
    return tuple((a, column[a]) for a in arcs if column[a] < offset)


def _count_matchings(left: int, right: int) -> int:
    """Upper bound sum_k C(left,k) C(right,k) k! on the number of matchings."""
    total = 0
    for k in range(min(left, right) + 1):
        total += math.comb(left, k) * math.comb(right, k) * math.factorial(k)
        if total > 10 * EXHAUSTIVE_MATCHING_LIMIT:
            break
    return total


def _brute_force(sub: PairwiseCosts) -> Matching:
    ids = _Ids(sub)
    by_left: dict[int, list[int]] = {}
    for x, a in enumerate(ids.left):
        by_left.setdefault(a, []).append(x)
    lefts = list(by_left)  # ascending, as ids follow sorted order
    best_cost = 0.0
    best: tuple[int, ...] = ()

    def extend(idx, used_right, current, cost):
        nonlocal best_cost, best
        if cost < best_cost - _MIN_GAIN:
            best_cost = cost
            best = tuple(current)
        if idx == len(lefts):
            return
        extend(idx + 1, used_right, current, cost)
        for x in by_left[lefts[idx]]:
            b = ids.right[x]
            if b in used_right:
                continue
            delta = ids.cost[x]
            for other, value in ids.partners[x]:
                if other in current:
                    delta += value
            used_right.add(b)
            current.append(x)
            extend(idx + 1, used_right, current, cost + delta)
            current.pop()
            used_right.remove(b)

    extend(0, set(), [], 0.0)
    return tuple((ids.left[x], ids.right[x]) for x in best)


class _Ids:
    """A quadratic instance on integer assignment ids, read from
    sub.arrays(): id k is the k-th stored assignment, so ids follow
    sorted order, with nodes ``left[k]`` and ``right[k]``, linear cost
    ``cost[k]``, and quadratic entries ``partners[k]`` as (id, value)
    ascending by id, as the table stores its entries sorted;
    ``at[a * right_size + b]`` is the id of (a, b), -1 where forbidden. An
    entry joins the ids x < y that the table stores as its positions;
    ``quad`` maps x * n + y to its value, n the number of ids."""

    __slots__ = ("sub", "cost", "left", "right", "partners", "at", "quad")

    def __init__(self, sub: PairwiseCosts):
        self.sub = sub
        (a, b), lin_v, (x, y), quad_v = sub.arrays()
        width, n = sub.right_size, len(lin_v)
        self.left, self.right = a.tolist(), b.tolist()
        self.cost = lin_v.tolist()
        at = np.full(sub.left_size * width, -1)
        at[a * width + b] = np.arange(n)
        self.at = at.tolist()
        self.partners = partners = [[] for _ in range(n)]
        for xk, yk, value in zip(x.tolist(), y.tolist(), quad_v.tolist()):
            partners[xk].append((yk, value))
            partners[yk].append((xk, value))
        self.quad = dict(zip((x * n + y).tolist(), quad_v.tolist()))


def _pair_terms(ids: _Ids, chosen: list[int]):
    """The stored quadratic entries among the ascending ids chosen, in the
    order of combinations(chosen, 2), since partner lists are ascending.
    Adding the 0.0 of an absent entry leaves a sum that is not -0.0
    unchanged, so these are the terms."""
    member = set(chosen)
    for x in chosen:
        for y, value in ids.partners[x]:
            if y > x and y in member:
                yield value


def _cost(ids: _Ids, chosen: list[int]) -> float:
    """The cost of the ascending ids chosen: their linear costs in that
    order, then _pair_terms, added one by one from 0.0."""
    total = 0.0
    for x in chosen:
        total += ids.cost[x]
    for value in _pair_terms(ids, chosen):
        total += value
    return total


def _local_search(ids: _Ids, matching: list[int], max_scans: int, two_swaps: bool) -> list[int]:
    """First-improvement moves: add, remove, shift, and optional 2-swaps.

    ``matching`` and the result are ascending assignment ids; by_left and
    by_right hold the id matched at each node, -1 where none. gain[x] is
    the quadratic cost between assignment x and the current matching,
    updated along the partner lists on every applied move, so a move's
    delta takes a few lookups (the delta technique of QAP local search).
    No quadratic entry joins two assignments that share a node, so an
    added assignment's gain never counts the one it displaces.
    """
    cost, left, right, partners = ids.cost, ids.left, ids.right, ids.partners
    by_left, by_right = [-1] * ids.sub.left_size, [-1] * ids.sub.right_size
    gain = [0.0] * len(cost)

    def apply(removals, additions):
        for x in removals:
            by_left[left[x]] = by_right[right[x]] = -1
            for other, value in partners[x]:
                gain[other] -= value
        for x in additions:
            by_left[left[x]] = by_right[right[x]] = x
            for other, value in partners[x]:
                gain[other] += value

    apply((), matching)
    for _ in range(max_scans):
        improved = False
        for x, a, b in zip(range(len(cost)), left, right):
            r = by_left[a]
            if r >= 0:
                if by_right[b] >= 0:
                    continue  # already chosen, or both nodes taken
            else:
                r = by_right[b]
            delta = cost[x] + gain[x]
            if r >= 0:
                delta -= cost[r] + gain[r]
            if delta < -_MIN_GAIN:
                apply(() if r < 0 else (r,), (x,))
                improved = True
        for x in [x for x in by_left if x >= 0]:
            if -(cost[x] + gain[x]) < -_MIN_GAIN:
                apply((x,), ())
                improved = True
        if two_swaps:
            # Left nodes a1 < a2 make ids x1 < x2 and r1 < r2.
            quad, n = ids.quad.get, len(cost)
            at, width = ids.at, ids.sub.right_size
            for r1, r2 in combinations([x for x in by_left if x >= 0], 2):
                if by_left[left[r1]] != r1 or by_left[left[r2]] != r2:
                    continue  # replaced by an earlier swap this scan
                x1, x2 = at[left[r1] * width + right[r2]], at[left[r2] * width + right[r1]]
                if x1 < 0 or x2 < 0:
                    continue
                delta = (
                    cost[x1] + gain[x1] + cost[x2] + gain[x2]
                    - (cost[r1] + gain[r1]) - (cost[r2] + gain[r2])
                    + quad(x1 * n + x2, 0.0) + quad(r1 * n + r2, 0.0)
                )
                if delta < -_MIN_GAIN:
                    apply((r1, r2), (x1, x2))
                    improved = True
        if not improved:
            break
    return [x for x in by_left if x >= 0]


def _fuse(ids: _Ids, first: list[int], second: list[int], seed: int) -> list[int]:
    """Fusion move: pick per-conflict-component between two matchings.

    Conflicting assignments of the symmetric difference are grouped into
    components; one binary variable per component selects a side and the
    induced pairwise binary energy is minimized starting from the first
    matching (the all-zeros labeling). Matchings are ascending assignment
    ids. The fused matching (the common ids and each component's chosen
    side) is returned when its _cost is below first's by more than _MIN_GAIN,
    else first itself.
    """
    common = set(first) & set(second)
    only_first = [x for x in first if x not in common]
    only_second = [x for x in second if x not in common]
    if not only_second:
        return first
    # Conflicting assignments (sharing a node) must stay on one side; group
    # them into components with a small union-find over pair indices.
    nodes = only_first + only_second
    parent = list(range(len(nodes)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_left: dict[int, list[int]] = {}
    by_right: dict[int, list[int]] = {}
    for idx, x in enumerate(nodes):
        by_left.setdefault(ids.left[x], []).append(idx)
        by_right.setdefault(ids.right[x], []).append(idx)
    for group in list(by_left.values()) + list(by_right.values()):
        for other in group[1:]:
            ra, rb = root(group[0]), root(other)
            if ra != rb:
                parent[rb] = ra
    comp_ids = sorted({root(i) for i in range(len(nodes))})
    comp_index = {r: k for k, r in enumerate(comp_ids)}
    n_comp = len(comp_ids)
    side_of = {x: (comp_index[root(i)], int(i >= len(only_first))) for i, x in enumerate(nodes)}
    # Each component's assignments per side, ascending (so keys are canonical).
    sides: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n_comp)]
    for x, (k, label) in side_of.items():
        sides[k][label].append(x)

    def side_cost(chosen):
        value = _cost(ids, chosen)
        for x in chosen:
            for other, v in ids.partners[x]:
                if other in common:
                    value += v
        return value

    unary = [(side_cost(zero), side_cost(one)) for zero, one in sides]
    pairwise: dict[tuple[int, int], list[float]] = {}
    for x in nodes:
        k1, label1 = side_of[x]
        for other, value in ids.partners[x]:
            if other not in side_of:
                continue
            k2, label2 = side_of[other]
            if k2 <= k1:
                continue  # count each unordered component pair once
            table = pairwise.setdefault((k1, k2), [0.0, 0.0, 0.0, 0.0])
            table[2 * label1 + label2] += value
    energy = qpbo.BinaryEnergy._trusted(n_comp, unary, {k: tuple(t) for k, t in pairwise.items()})
    labels = qpbo.minimize(energy, (0,) * n_comp, seed=seed)
    fused = sorted(common.union(*(side[label] for side, label in zip(sides, labels))))
    return fused if _cost(ids, fused) < _cost(ids, first) - _MIN_GAIN else first


def _greedy_candidate(ids: _Ids, rng: random.Random) -> list[int]:
    """Free assignments of negative cost to those taken, in random order."""
    cost, left, right, partners = ids.cost, ids.left, ids.right, ids.partners
    order = list(range(len(cost)))
    rng.shuffle(order)
    left_used: dict[int, int] = {}
    right_used: set[int] = set()
    gain = [0.0] * len(cost)  # quadratic cost to the chosen pairs
    for x in order:
        if left[x] in left_used or right[x] in right_used:
            continue
        if cost[x] + gain[x] < 0:
            left_used[left[x]] = x
            right_used.add(right[x])
            for other, value in partners[x]:
                gain[other] += value
    return sorted(left_used.values())


def solve_gm(sub: PairwiseCosts, seed: int = 0, effort: Effort = Effort.DEFAULT) -> Matching:
    """Feasible matching with cost at most zero; exact when costs are linear.

    Linear-only instances delegate to solve_lap. Otherwise the linear
    optimum is improved with matching moves; under the default effort two
    randomized greedy candidates are additionally fused in. Exhaustive
    effort brute-forces instances whose matching count fits the limit.
    """
    effort = Effort(effort)
    if not len(sub.arrays()[3]):
        return solve_lap(sub)
    if effort is Effort.EXHAUSTIVE:
        if _count_matchings(sub.left_size, sub.right_size) <= EXHAUSTIVE_MATCHING_LIMIT:
            return _brute_force(sub)
    ids = _Ids(sub)
    lap = solve_lap(PairwiseCosts._trusted(sub.left_size, sub.right_size, *sub.arrays()[:2]))
    start = [ids.at[a * sub.right_size + b] for a, b in lap]
    if _cost(ids, start) > 0:
        start = []
    two_swaps = effort is not Effort.FAST
    max_scans = 30 if effort is Effort.FAST else 60
    current = _local_search(ids, start, max_scans, two_swaps)
    if effort is not Effort.FAST:
        rng = random.Random(seed)
        for k in range(2):
            candidate = _local_search(ids, _greedy_candidate(ids, rng), max_scans // 2, two_swaps)
            current = _fuse(ids, current, candidate, seed=seed + k + 1)
        current = _local_search(ids, current, max_scans, two_swaps)
    return tuple((ids.left[x], ids.right[x]) for x in current)


# The pipeline's GM subroutine, gm(sub, seed); effort is bound in beforehand.
GmSolver = Callable[[PairwiseCosts, int], Matching]

_REGISTRY: dict[str, Callable[..., Matching]] = {}


def register_solver(name: str, solver: Callable[..., Matching]) -> None:
    """Register solver(sub, seed, effort=...) under name."""
    _REGISTRY[name] = solver


def get_solver(name: str) -> Callable[..., Matching]:
    return _REGISTRY[name]


register_solver("default", solve_gm)
