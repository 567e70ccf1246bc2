"""Pairwise graph matching subsolvers.

Construction, local search and synchronization repeatedly solve small
(incomplete) matching instances. Each instance is a model.PairwiseCosts
table, the same type that holds a problem's per-object-pair costs, so
the synchronization stage hands the problem's own tables to the solver.
Linear-only instances are solved exactly as sparse LAPs by shortest
augmenting paths, quadratic ones by a heuristic that starts from the
linear optimum and improves with matching moves and fusion of candidate
matchings. Solvers are registered by name so stronger implementations
can be plugged in.
"""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from itertools import combinations
from typing import Callable

from . import qpbo
from .model import Assignment, PairwiseCosts

# Instances whose matching count stays below this are brute-forced under
# Effort.EXHAUSTIVE; covers 5x5 dense and the skewed shapes local search makes.
EXHAUSTIVE_MATCHING_LIMIT = 20000


class Effort(str, Enum):
    FAST = "fast"
    DEFAULT = "default"
    EXHAUSTIVE = "exhaustive"


class GmMatching:
    """Set of assignment pairs using each left and right node at most once."""

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        pairs = sorted(pairs)
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("matching reuses a node")
        self.pairs = tuple(pairs)

    def left_map(self) -> dict[int, int]:
        return {a: b for a, b in self.pairs}

    def right_map(self) -> dict[int, int]:
        return {b: a for a, b in self.pairs}

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other):
        if not isinstance(other, GmMatching):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"GmMatching({list(self.pairs)!r})"


def solve_lap(sub: PairwiseCosts) -> GmMatching:
    """Exact minimum-cost incomplete matching of a linear-only instance.

    Successive shortest augmenting paths with node potentials on the sparse
    bipartite graph; augmentation stops as soon as the cheapest augmenting
    path is no longer negative, which is exactly the point where leaving
    the remaining nodes unmatched (at zero cost) is optimal.
    """
    if sub.quadratic:
        raise ValueError("solve_lap requires an instance without quadratic costs")
    arcs: dict[int, list[tuple[int, float]]] = {}
    for (a, b), cost in sub.linear.items():
        arcs.setdefault(a, []).append((b, cost))
    for lst in arcs.values():
        lst.sort()
    if not arcs:
        return GmMatching()

    left_nodes = sorted(arcs)
    pot_left = {a: 0.0 for a in left_nodes}
    pot_right: dict[int, float] = {}
    for a in left_nodes:
        for b, cost in arcs[a]:
            if cost < pot_right.get(b, math.inf):
                pot_right[b] = cost
    pot_sink = min(pot_right.values())
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}

    while True:
        # Dijkstra over reduced costs from all unmatched left nodes to a
        # virtual sink reachable from every unmatched right node.
        dist: dict[tuple[str, int], float] = {}
        parent: dict[tuple[str, int], tuple] = {}
        heap = []
        for a in left_nodes:
            if a not in match_left:
                dist[("L", a)] = 0.0
                parent[("L", a)] = None
                heapq.heappush(heap, (0.0, 0, a))
        sink_dist = math.inf
        sink_parent = None
        done = set()
        while heap:
            d, side, node = heapq.heappop(heap)
            key = ("L", node) if side == 0 else ("R", node)
            if key in done:
                continue
            done.add(key)
            if d >= sink_dist:
                continue
            if side == 0:
                matched_b = match_left.get(node)
                for b, cost in arcs[node]:
                    if b == matched_b:
                        continue
                    rc = cost + pot_left[node] - pot_right[b]
                    nd = d + rc
                    rkey = ("R", b)
                    if rkey not in done and nd < dist.get(rkey, math.inf) - 1e-15:
                        dist[rkey] = nd
                        parent[rkey] = ("L", node)
                        heapq.heappush(heap, (nd, 1, b))
            else:
                b = node
                if b not in match_right:
                    nd = d + pot_right[b] - pot_sink
                    if nd < sink_dist:
                        sink_dist = nd
                        sink_parent = ("R", b)
                    continue
                a = match_right[b]
                cost = sub.linear[(a, b)]
                rc = -cost + pot_right[b] - pot_left[a]
                nd = d + rc
                lkey = ("L", a)
                if lkey not in done and nd < dist.get(lkey, math.inf) - 1e-15:
                    dist[lkey] = nd
                    parent[lkey] = ("R", b)
                    heapq.heappush(heap, (nd, 0, a))
        if sink_parent is None:
            break
        true_cost = sink_dist + pot_sink
        if true_cost >= -1e-12:
            break
        # Standard potential update, capped by the sink distance; unreached
        # nodes count as infinitely far and shift by the full sink distance.
        for a in left_nodes:
            pot_left[a] += min(dist.get(("L", a), math.inf), sink_dist)
        for b in pot_right:
            pot_right[b] += min(dist.get(("R", b), math.inf), sink_dist)
        pot_sink += sink_dist
        # Flip matching along the augmenting path.
        key = sink_parent
        while key is not None:
            prev = parent[key]
            if key[0] == "R" and prev is not None and prev[0] == "L":
                match_left[prev[1]] = key[1]
                match_right[key[1]] = prev[1]
            key = prev

    return GmMatching(match_left.items())


def _count_matchings(left: int, right: int) -> int:
    """Upper bound sum_k C(left,k) C(right,k) k! on the number of matchings."""
    total = 0
    for k in range(min(left, right) + 1):
        total += math.comb(left, k) * math.comb(right, k) * math.factorial(k)
        if total > 10 * EXHAUSTIVE_MATCHING_LIMIT:
            break
    return total


def _brute_force(sub: PairwiseCosts) -> GmMatching:
    by_left: dict[int, list[int]] = {}
    for a, b in sorted(sub.linear):
        by_left.setdefault(a, []).append(b)
    lefts = sorted(by_left)
    best_cost = 0.0
    best: tuple[Assignment, ...] = ()

    def extend(idx, used_right, current, cost):
        nonlocal best_cost, best
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = tuple(current)
        if idx == len(lefts):
            return
        a = lefts[idx]
        extend(idx + 1, used_right, current, cost)
        for b in by_left[a]:
            if b in used_right:
                continue
            delta = sub.linear[(a, b)]
            for other, value in sub.partners((a, b)):
                if other in current:
                    delta += value
            used_right.add(b)
            current.append((a, b))
            extend(idx + 1, used_right, current, cost + delta)
            current.pop()
            used_right.remove(b)

    extend(0, set(), [], 0.0)
    return GmMatching(best)


def _move_delta(sub: PairwiseCosts, current: set, removals, additions) -> float:
    removals = list(removals)
    additions = list(additions)
    remaining = current.difference(removals)
    delta = 0.0
    for pair in removals:
        delta -= sub.linear[pair]
        for other, value in sub.partners(pair):
            if other in remaining or other in removals:
                delta -= value
    for x, y in combinations(removals, 2):
        delta += sub.quad_get(x, y)
    for pair in additions:
        delta += sub.linear[pair]
        for other, value in sub.partners(pair):
            if other in remaining:
                delta += value
    for x, y in combinations(additions, 2):
        delta += sub.quad_get(x, y)
    return delta


def _local_search(sub: PairwiseCosts, matching: GmMatching, max_scans: int, two_swaps: bool) -> GmMatching:
    """First-improvement moves: add, remove, shift, and optional 2-swaps."""
    current = set(matching.pairs)
    left_used = {a: b for a, b in current}
    right_used = {b: a for a, b in current}
    allowed = sorted(sub.linear)

    def apply(removals, additions):
        for pair in removals:
            current.discard(pair)
            left_used.pop(pair[0], None)
            right_used.pop(pair[1], None)
        for a, b in additions:
            current.add((a, b))
            left_used[a] = b
            right_used[b] = a

    for _ in range(max_scans):
        improved = False
        for a, b in allowed:
            if left_used.get(a) == b:
                continue
            a_busy = a in left_used
            b_busy = b in right_used
            if not a_busy and not b_busy:
                removals: list[Assignment] = []
            elif a_busy and not b_busy:
                removals = [(a, left_used[a])]
            elif b_busy and not a_busy:
                removals = [(right_used[b], b)]
            else:
                continue
            delta = _move_delta(sub, current, removals, [(a, b)])
            if delta < -1e-12:
                apply(removals, [(a, b)])
                improved = True
        for pair in sorted(current):
            delta = _move_delta(sub, current, [pair], [])
            if delta < -1e-12:
                apply([pair], [])
                improved = True
        if two_swaps:
            for (a1, b1), (a2, b2) in combinations(sorted(current), 2):
                if (a1, b1) not in current or (a2, b2) not in current:
                    continue  # replaced by an earlier swap this scan
                if (a1, b2) not in sub.linear or (a2, b1) not in sub.linear:
                    continue
                removals = [(a1, b1), (a2, b2)]
                additions = [(a1, b2), (a2, b1)]
                delta = _move_delta(sub, current, removals, additions)
                if delta < -1e-12:
                    apply(removals, additions)
                    improved = True
        if not improved:
            break
    return GmMatching(current)


def _fuse(sub: PairwiseCosts, first: GmMatching, second: GmMatching, seed: int) -> GmMatching:
    """Fusion move: pick per-conflict-component between two matchings.

    Conflicting assignments of the symmetric difference are grouped into
    components; one binary variable per component selects a side and the
    induced pairwise binary energy is minimized starting from the first
    matching (the all-zeros labeling), so the result never loses to it.
    """
    common = set(first.pairs) & set(second.pairs)
    only_first = [p for p in first.pairs if p not in common]
    only_second = [p for p in second.pairs if p not in common]
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
    for idx, (a, b) in enumerate(nodes):
        by_left.setdefault(a, []).append(idx)
        by_right.setdefault(b, []).append(idx)
    for group in list(by_left.values()) + list(by_right.values()):
        for other in group[1:]:
            ra, rb = root(group[0]), root(other)
            if ra != rb:
                parent[rb] = ra
    comp_ids = sorted({root(i) for i in range(len(nodes))})
    comp_index = {r: k for k, r in enumerate(comp_ids)}
    n_comp = len(comp_ids)
    side_of = {}
    for idx, pair in enumerate(nodes):
        side_of[pair] = (comp_index[root(idx)], 0 if idx < len(only_first) else 1)

    def component_pairs(k, label):
        return [p for p in nodes if side_of[p][0] == k and side_of[p][1] == label]

    unary = []
    for k in range(n_comp):
        costs = []
        for label in (0, 1):
            chosen = component_pairs(k, label)
            value = sum(sub.linear[p] for p in chosen)
            for x, y in combinations(chosen, 2):
                value += sub.quad_get(x, y)
            for p in chosen:
                for other, v in sub.partners(p):
                    if other in common:
                        value += v
            costs.append(value)
        unary.append((costs[0], costs[1]))
    pairwise: dict[tuple[int, int], list[float]] = {}
    for idx, pair in enumerate(nodes):
        k1, label1 = side_of[pair]
        for other, value in sub.partners(pair):
            if other not in side_of:
                continue
            k2, label2 = side_of[other]
            if k2 <= k1:
                continue  # count each unordered component pair once
            table = pairwise.setdefault((k1, k2), [0.0, 0.0, 0.0, 0.0])
            table[2 * label1 + label2] += value
    energy = qpbo.BinaryEnergy(
        n_comp, unary, {key: tuple(t) for key, t in pairwise.items()}
    )
    labels = qpbo.minimize(energy, (0,) * n_comp, seed=seed)
    fused = set(common)
    for k in range(n_comp):
        fused.update(component_pairs(k, labels[k]))
    if sub.matching_cost(fused) < sub.matching_cost(first.pairs) - 1e-12:
        return GmMatching(fused)
    return first


def _greedy_candidate(sub: PairwiseCosts, rng: random.Random) -> GmMatching:
    order = sorted(sub.linear)
    rng.shuffle(order)
    current: set[Assignment] = set()
    left_used: set[int] = set()
    right_used: set[int] = set()
    for a, b in order:
        if a in left_used or b in right_used:
            continue
        if _move_delta(sub, current, [], [(a, b)]) < 0:
            current.add((a, b))
            left_used.add(a)
            right_used.add(b)
    return GmMatching(current)


def solve_gm(sub: PairwiseCosts, seed: int = 0, effort: Effort = Effort.DEFAULT) -> GmMatching:
    """Feasible matching with cost at most zero; exact when costs are linear.

    Linear-only instances delegate to solve_lap. Otherwise the linear
    optimum is improved with matching moves; under the default effort two
    randomized greedy candidates are additionally fused in. Exhaustive
    effort brute-forces instances whose matching count fits the limit.
    """
    effort = Effort(effort)
    if not sub.quadratic:
        return solve_lap(sub)
    if effort is Effort.EXHAUSTIVE:
        if _count_matchings(sub.left_size, sub.right_size) <= EXHAUSTIVE_MATCHING_LIMIT:
            return _brute_force(sub)
    linear_only = PairwiseCosts(sub.left_size, sub.right_size, sub.linear)
    matching = solve_lap(linear_only)
    if sub.matching_cost(matching.pairs) > 0:
        matching = GmMatching()
    two_swaps = effort is not Effort.FAST
    max_scans = 30 if effort is Effort.FAST else 60
    matching = _local_search(sub, matching, max_scans, two_swaps)
    if effort is not Effort.FAST:
        rng = random.Random(seed)
        for k in range(2):
            candidate = _local_search(
                sub, _greedy_candidate(sub, rng), max_scans // 2, two_swaps
            )
            matching = _fuse(sub, matching, candidate, seed=seed + k + 1)
        matching = _local_search(sub, matching, max_scans, two_swaps)
    return matching


GmSolver = Callable[[PairwiseCosts, int, Effort], GmMatching]

_REGISTRY: dict[str, GmSolver] = {}


def register_solver(name: str, solver: GmSolver) -> None:
    _REGISTRY[name] = solver


def get_solver(name: str) -> GmSolver:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown GM solver {name!r}; known: {sorted(_REGISTRY)}") from None


def solver_names() -> list[str]:
    return sorted(_REGISTRY)


def _lap_solver(sub: PairwiseCosts, seed: int = 0, effort: Effort = Effort.DEFAULT) -> GmMatching:
    return solve_lap(sub)


register_solver("default", solve_gm)
register_solver("lap", _lap_solver)
