"""Pairwise graph matching subsolvers.

Construction, local search and synchronization repeatedly solve small
(incomplete) matching instances. Each instance is a model.PairwiseCosts
table, the same type that holds a problem's per-object-pair costs, so
the synchronization stage hands the problem's own tables to the solver.
Linear-only instances are solved exactly as sparse LAPs by shortest
augmenting paths on integer node indices, quadratic ones by a heuristic
that starts from the linear optimum and improves with matching moves and
fusion of candidate matchings. Moves are priced by gains: each allowed
assignment's quadratic cost to the current matching, kept up to date as
moves are applied. The pipeline calls a solver as gm(sub, seed)
(GmSolver), so the solver carries its effort, as in
functools.partial(solve_gm, effort=Effort.FAST). Solvers are registered
by name so stronger implementations can be plugged in; the CLI binds
--gm-effort to the registered one by keyword.
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
    the remaining nodes unmatched (at zero cost) is optimal. Left node a
    is index a of the node arrays, right node b is index left_size + b.
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

    offset = sub.left_size
    size = offset + sub.right_size
    left_nodes = sorted(arcs)
    # Right nodes without arcs keep potential inf; no path ever reaches them.
    pot = [0.0] * offset + [math.inf] * sub.right_size
    for a in left_nodes:
        for b, cost in arcs[a]:
            if cost < pot[offset + b]:
                pot[offset + b] = cost
    pot_sink = min(pot[offset:])
    match = [-1] * size  # node index of the partner

    while True:
        # Dijkstra over reduced costs from all unmatched left nodes to a
        # virtual sink reachable from every unmatched right node.
        dist = [math.inf] * size
        parent = [-1] * size
        done = [False] * size
        heap = []
        for a in left_nodes:
            if match[a] < 0:
                dist[a] = 0.0
                heapq.heappush(heap, (0.0, 0, a))
        sink_dist = math.inf
        sink_parent = -1
        while heap:
            d, side, node = heapq.heappop(heap)
            key = node if side == 0 else offset + node
            if done[key]:
                continue
            done[key] = True
            if d >= sink_dist:
                continue
            if side == 0:
                matched = match[node]
                pot_node = pot[node]
                for b, cost in arcs[node]:
                    rkey = offset + b
                    if rkey == matched:
                        continue
                    nd = d + (cost + pot_node - pot[rkey])
                    if not done[rkey] and nd < dist[rkey] - 1e-15:
                        dist[rkey] = nd
                        parent[rkey] = node
                        heapq.heappush(heap, (nd, 1, b))
            else:
                a = match[key]
                if a < 0:
                    nd = d + pot[key] - pot_sink
                    if nd < sink_dist:
                        sink_dist = nd
                        sink_parent = key
                    continue
                nd = d + (-sub.linear[(a, node)] + pot[key] - pot[a])
                if not done[a] and nd < dist[a] - 1e-15:
                    dist[a] = nd
                    parent[a] = key
                    heapq.heappush(heap, (nd, 0, a))
        if sink_parent < 0 or sink_dist + pot_sink >= -1e-12:
            break
        # Standard potential update, capped by the sink distance; unreached
        # nodes count as infinitely far and shift by the full sink distance.
        for v in range(size):
            pot[v] += min(dist[v], sink_dist)
        pot_sink += sink_dist
        # Flip matching along the augmenting path (right, left, ..., root).
        key = sink_parent
        while key >= 0:
            a = parent[key]
            match[a], match[key] = key, a
            key = parent[a]

    return GmMatching((a, match[a] - offset) for a in left_nodes if match[a] >= 0)


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


def _update_gains(gain: dict, sub: PairwiseCosts, pair: Assignment, sign: float) -> None:
    """Add (sign +1) or remove (sign -1) pair's quadratic terms from the gains."""
    for other, value in sub.partners(pair):
        gain[other] += sign * value


def _local_search(sub: PairwiseCosts, matching: GmMatching, max_scans: int, two_swaps: bool) -> GmMatching:
    """First-improvement moves: add, remove, shift, and optional 2-swaps.

    gain[x] is the quadratic cost between assignment x and the current
    matching, updated along the partner lists on every applied move, so a
    move's delta takes a few lookups (the delta technique of QAP local
    search). No quadratic entry joins two assignments that share a node,
    so an added assignment's gain never counts the one it displaces.
    """
    lin = sub.linear
    left_used = dict(matching.pairs)
    right_used = {b: a for a, b in matching.pairs}
    allowed = sorted(lin)
    gain = dict.fromkeys(allowed, 0.0)
    for pair in matching.pairs:
        _update_gains(gain, sub, pair, 1.0)

    def apply(removals, additions):
        for pair in removals:
            del left_used[pair[0]], right_used[pair[1]]
            _update_gains(gain, sub, pair, -1.0)
        for pair in additions:
            left_used[pair[0]] = pair[1]
            right_used[pair[1]] = pair[0]
            _update_gains(gain, sub, pair, 1.0)

    for _ in range(max_scans):
        improved = False
        for pair in allowed:
            a, b = pair
            if a in left_used:
                if b in right_used:
                    continue  # already chosen, or both nodes taken
                removals: tuple[Assignment, ...] = ((a, left_used[a]),)
            elif b in right_used:
                removals = ((right_used[b], b),)
            else:
                removals = ()
            delta = lin[pair] + gain[pair]
            for r in removals:
                delta -= lin[r] + gain[r]
            if delta < -1e-12:
                apply(removals, (pair,))
                improved = True
        for pair in sorted(left_used.items()):
            if -(lin[pair] + gain[pair]) < -1e-12:
                apply((pair,), ())
                improved = True
        if two_swaps:
            for r1, r2 in combinations(sorted(left_used.items()), 2):
                if left_used.get(r1[0]) != r1[1] or left_used.get(r2[0]) != r2[1]:
                    continue  # replaced by an earlier swap this scan
                x1, x2 = (r1[0], r2[1]), (r2[0], r1[1])
                if x1 not in lin or x2 not in lin:
                    continue
                delta = (
                    lin[x1] + gain[x1] + lin[x2] + gain[x2]
                    - (lin[r1] + gain[r1]) - (lin[r2] + gain[r2])
                    + sub.quad_get(x1, x2) + sub.quad_get(r1, r2)
                )
                if delta < -1e-12:
                    apply((r1, r2), (x1, x2))
                    improved = True
        if not improved:
            break
    return GmMatching(left_used.items())


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
    left_used: dict[int, int] = {}
    right_used: set[int] = set()
    gain = dict.fromkeys(order, 0.0)  # quadratic cost to the chosen pairs
    for pair in order:
        a, b = pair
        if a in left_used or b in right_used:
            continue
        if sub.linear[pair] + gain[pair] < 0:
            left_used[a] = b
            right_used.add(b)
            _update_gains(gain, sub, pair, 1.0)
    return GmMatching(left_used.items())


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
    linear_only = PairwiseCosts._trusted(sub.left_size, sub.right_size, sub.linear)
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


# The pipeline's GM subroutine, gm(sub, seed); effort is bound in beforehand.
GmSolver = Callable[[PairwiseCosts, int], GmMatching]

_REGISTRY: dict[str, Callable[..., GmMatching]] = {}


def register_solver(name: str, solver: Callable[..., GmMatching]) -> None:
    """Register solver(sub, seed, effort=...) under name."""
    _REGISTRY[name] = solver


def get_solver(name: str) -> Callable[..., GmMatching]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown GM solver {name!r}; known: {sorted(_REGISTRY)}") from None


def solver_names() -> list[str]:
    return sorted(_REGISTRY)


register_solver("default", solve_gm)
