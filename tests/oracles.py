"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates exhaustively or loops over dicts and stays
deliberately naive; none of it shares code paths with the solvers under
test.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations, product

from mgmatch.model import (
    FORBIDDEN,
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
)


def dict_clique_clique_costs(problem, a, b):
    """construction.clique_clique_costs as dict loops, for bitwise checks of
    the array kernel: (linear, quadratic) with the same keys, key order and
    float summation order."""
    columns_a = a.columns(problem.sizes)
    columns_b = b.columns(problem.sizes)
    lin_sum, lin_cnt, quad_sum = {}, {}, {}
    for p in sorted(columns_a):
        for q in sorted(columns_b):
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
    return linear, quadratic


def enumerate_partitions(sizes):
    """Yield every feasible clique partition covering all vertices.

    Each vertex joins an existing clique that does not yet cover its object,
    or opens a new singleton.
    """
    vertices = [(p, v) for p in range(len(sizes)) for v in range(sizes[p])]

    def extend(idx, cliques):
        if idx == len(vertices):
            yield [dict(c) for c in cliques]
            return
        p, v = vertices[idx]
        for c in cliques:
            if p not in c:
                c[p] = v
                yield from extend(idx + 1, cliques)
                del c[p]
        cliques.append({p: v})
        yield from extend(idx + 1, cliques)
        cliques.pop()

    for raw in extend(0, []):
        yield CliquePartition(Clique(c) for c in raw)


def reference_objective(problem, partition):
    """Plain re-statement of the objective, independent of the library path."""
    total = 0.0
    cliques = [dict(c.pairs) for c in partition.cliques]
    for c in cliques:
        for p, q in combinations(sorted(c), 2):
            cost = problem.linear_cost(p, q, c[p], c[q])
            if cost is FORBIDDEN:
                return FORBIDDEN
            total += cost
    for a, b in combinations(cliques, 2):
        shared = sorted(set(a) & set(b))
        for p, q in combinations(shared, 2):
            total += problem.quad_cost(p, q, (a[p], a[q]), (b[p], b[q]))
    return total


def brute_force_mgm(problem):
    """Exhaustive optimum over all feasible partitions: (value, partition)."""
    best_value = 0.0
    best = CliquePartition()
    for partition in enumerate_partitions(problem.sizes):
        value = reference_objective(problem, partition)
        if value is FORBIDDEN:
            continue
        if value < best_value - 1e-12:
            best_value = value
            best = partition
    return best_value, best


def enumerate_matchings(left_size, right_size, allowed):
    """Yield every matching (set of pairs) using only allowed arcs."""
    by_left = {a: sorted(b for (x, b) in allowed if x == a) for a in range(left_size)}

    def extend(a, used_right, current):
        if a == left_size:
            yield list(current)
            return
        yield from extend(a + 1, used_right, current)
        for b in by_left[a]:
            if b not in used_right:
                used_right.add(b)
                current.append((a, b))
                yield from extend(a + 1, used_right, current)
                current.pop()
                used_right.remove(b)

    yield from extend(0, set(), [])


def gm_matching_cost(sub, pairs):
    total = 0.0
    pairs = list(pairs)
    for pair in pairs:
        total += sub.linear[pair]
    for x, y in combinations(pairs, 2):
        total += sub.quadratic.get((x, y) if x <= y else (y, x), 0.0)
    return total


def brute_force_gm(sub):
    """Exact minimum of a pairwise matching instance: (cost, pairs)."""
    best_cost = 0.0
    best: list = []
    for pairs in enumerate_matchings(sub.left_size, sub.right_size, sub.linear):
        cost = gm_matching_cost(sub, pairs)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = pairs
    return best_cost, sorted(best)


def brute_force_energy(energy):
    """Exact minimum of a pairwise binary energy: (value, labeling)."""
    best_value = math.inf
    best = None
    for bits in product((0, 1), repeat=energy.n):
        value = energy_value(energy, bits)
        if value < best_value:
            best_value = value
            best = bits
    return best_value, best


def brute_force_energy_min(energy) -> float:
    """Vectorized exhaustive minimum; handles n up to ~20 quickly."""
    import numpy as np

    n = energy.n
    if n == 0:
        return 0.0
    idx = np.arange(1 << n, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)
    u0 = np.array([a for a, _ in energy.unary])
    u1 = np.array([b for _, b in energy.unary])
    values = bits @ u1 + (1.0 - bits) @ u0
    for (p, q), table in energy.pairwise.items():
        code = (2 * bits[:, p] + bits[:, q]).astype(np.int64)
        values += np.asarray(table)[code]
    return float(values.min())


def chain_energy_min(energy) -> float:
    """Exact minimum of an energy whose pairwise terms all join p and p + 1,
    by dynamic programming along the chain."""
    assert all(q == p + 1 for p, q in energy.pairwise)
    best = list(energy.unary[0])
    for q in range(1, energy.n):
        table = energy.pairwise.get((q - 1, q), (0.0, 0.0, 0.0, 0.0))
        best = [
            energy.unary[q][b] + min(best[a] + table[2 * a + b] for a in (0, 1))
            for b in (0, 1)
        ]
    return min(best)


def energy_value(energy, bits):
    total = 0.0
    for p in range(energy.n):
        total += energy.unary[p][bits[p]]
    for (p, q), table in energy.pairwise.items():
        total += table[2 * bits[p] + bits[q]]
    return total


def random_problem(
    rng: random.Random,
    d: int,
    max_size: int,
    forbidden_frac: float = 0.2,
    quad_frac: float = 0.3,
    min_size: int = 1,
) -> MgmProblem:
    """Random sparse instance with mixed linear and quadratic costs."""
    sizes = [rng.randint(min_size, max_size) for _ in range(d)]
    costs = {}
    for p in range(d):
        for q in range(p + 1, d):
            linear = {}
            for i in range(sizes[p]):
                for s in range(sizes[q]):
                    if rng.random() >= forbidden_frac:
                        linear[(i, s)] = round(rng.uniform(-5.0, 5.0), 3)
            quadratic = {}
            keys = sorted(linear)
            for a, b in combinations(keys, 2):
                if a[0] != b[0] and a[1] != b[1] and rng.random() < quad_frac:
                    quadratic[(a, b)] = round(rng.uniform(-2.0, 2.0), 3)
            costs[(p, q)] = PairwiseCosts(sizes[p], sizes[q], linear, quadratic)
    return MgmProblem(sizes, costs)


def random_partition(rng: random.Random, problem: MgmProblem) -> CliquePartition:
    """Random feasible partition covering every vertex of the problem."""
    vertices = [(p, v) for p in range(problem.d) for v in range(problem.sizes[p])]
    rng.shuffle(vertices)
    cliques: list[dict[int, int]] = []
    for p, v in vertices:
        open_cliques = [c for c in cliques if p not in c]
        choice = rng.randrange(len(open_cliques) + 1)
        if choice == len(open_cliques):
            cliques.append({p: v})
        else:
            open_cliques[choice][p] = v
    return CliquePartition(Clique(c) for c in cliques)


def enumerate_complete_partitions(total_size, d):
    """Yield every complete partition: one clique per row of aligned permutations."""
    base = list(range(total_size))
    for perms in product(permutations(base), repeat=d - 1):
        cliques = []
        for k in range(total_size):
            members = {0: k}
            for obj, perm in enumerate(perms, start=1):
                members[obj] = perm[k]
            cliques.append(Clique(members))
        yield CliquePartition(cliques)
