"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates exhaustively or loops over dicts and stays
deliberately naive; none of it shares code paths with the solvers under
test, except split_rematch, which runs GM local search's move. The
reference_* functions are earlier implementations of solver layers, kept
to check that their replacements return the same results.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations, product

from mgmatch.model import (
    Clique,
    CliquePartition,
    MgmProblem,
    PairwiseCosts,
)

from reduction import CompleteProblem


def quad_get(table, a, b):
    """The table's quadratic cost of assignments a and b, in either order;
    0.0 when it stores none."""
    return table.quadratic.get((a, b) if a <= b else (b, a), 0.0)


def linear_cost(problem, p, q, i, s):
    """The cost of matching vertex i of object p to vertex s of object q,
    math.inf for a forbidden match, read from the table's dict view. On a
    CompleteProblem a match with a dummy costs 0.0."""
    if isinstance(problem, CompleteProblem):
        if problem.is_dummy(p, i) or problem.is_dummy(q, s):
            return 0.0
        problem = problem.base
    table, swapped = problem.table(p, q)
    return table.linear.get((s, i) if swapped else (i, s), math.inf)


def quad_cost(problem, p, q, a, b):
    """The quadratic cost of assignments a and b, each (vertex of p, vertex
    of q), read from the table's dict view. On a CompleteProblem a pair
    touching a dummy costs 0.0."""
    if isinstance(problem, CompleteProblem):
        if any(problem.is_dummy(p, x[0]) or problem.is_dummy(q, x[1]) for x in (a, b)):
            return 0.0
        problem = problem.base
    table, swapped = problem.table(p, q)
    if swapped:
        a, b = a[::-1], b[::-1]
    return quad_get(table, a, b)


def joined_pairs(problem, solution):
    """The clique pairs (first, second), first < second, that a stored
    linear entry joins: some vertex of one may match some vertex of the
    other."""
    return [
        (first, second)
        for first, second in combinations(sorted(solution.cliques), 2)
        if any(
            p != q and linear_cost(problem, p, q, x, y) < math.inf
            for p, x in first
            for q, y in second
        )
    ]


def none_columns(solution, sizes):
    """CliquePartition.columns as lists, with None where it has -1 (no
    clique holds the vertex), as the references below read them."""
    return {
        p: [None if k < 0 else k for k in column.tolist()]
        for p, column in solution.columns(sizes).items()
    }


def dict_clique_clique_costs(problem, a, b):
    """construction.clique_clique_costs as dict loops, for bitwise checks of
    the array kernel: (linear, quadratic) with the same keys, key order and
    float summation order; both kinds of keys are sorted, as every table
    stores them."""
    columns_a = none_columns(a, problem.sizes)
    columns_b = none_columns(b, problem.sizes)
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
        key: lin_sum[key] for key, count in sorted(lin_cnt.items())
        if count == size_a[key[0]] * size_b[key[1]]
    }
    quadratic = {
        key: value for key, value in sorted(quad_sum.items())
        if key[0] in linear and key[1] in linear
    }
    return linear, quadratic


def partner_lists(table):
    """Each assignment's quadratic entries as (partner, value), in the order
    of table.quadratic, which gm._Ids(table).partners keeps too."""
    partners = {}
    for (x, y), value in table.quadratic.items():
        partners.setdefault(x, []).append((y, value))
        partners.setdefault(y, []).append((x, value))
    return partners


def reference_swap_deltas(problem, solution, first, second):
    """Swap deltas of one clique pair as a d x d list of lists, +inf where
    forbidden: per object pair, the terms that involve the four affected
    assignments, looked up along their partner lists before and after
    swapping p alone."""
    columns = none_columns(solution, problem.sizes)
    idx_first = solution.cliques.index(first)
    idx_second = solution.cliques.index(second)
    exchanged = {idx_first: idx_second, idx_second: idx_first}
    d = problem.d
    entries = [[0.0] * d for _ in range(d)]

    def assignment(table, partners, p, q, vp, vq):
        """(linear cost, [(quadratic value, clique of its p end, clique of
        its q end)]) of matching vp to vq, or None without both vertices."""
        if vp is None or vq is None:
            return None
        coupled = [
            (value, columns[p][i2], columns[q][s2])
            for (i2, s2), value in partners.get((vp, vq), [])
        ]
        return table.linear.get((vp, vq), math.inf), coupled

    def contrib(x, y, flip_p, interaction):
        """Objective terms on the object pair that involve assignments x, y;
        flip_p applies a single swap on p to the looked-up cliques."""
        total = 0.0
        for side in (x, y):
            if side is not None:
                if side[0] == math.inf:
                    return math.inf
                total += side[0]
        for side in (x, y):
            if side is not None:
                for value, kp, kq in side[1]:
                    if flip_p:
                        kp = exchanged.get(kp, kp)
                    if kp is not None and kp == kq:
                        total += value
        if interaction is not None:
            total -= interaction  # counted from both sides
        return total

    involved = sorted(set(first.objects()) | set(second.objects()))
    for p, q in combinations(involved, 2):
        table = problem.costs[(p, q)]
        partners = partner_lists(table)
        ap, aq, bp, bq = first.get(p), first.get(q), second.get(p), second.get(q)
        full = None not in (ap, aq, bp, bq)
        before = contrib(
            assignment(table, partners, p, q, ap, aq),
            assignment(table, partners, p, q, bp, bq),
            False,
            quad_get(table, (ap, aq), (bp, bq)) if full else None,
        )
        after = contrib(
            assignment(table, partners, p, q, bp, aq),
            assignment(table, partners, p, q, ap, bq),
            True,
            quad_get(table, (bp, aq), (ap, bq)) if full else None,
        )
        if before == math.inf or after == math.inf:
            entries[p][q] = entries[q][p] = math.inf
        else:
            entries[p][q] = entries[q][p] = after - before
    return entries


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
    """Plain re-statement of the objective from pointwise lookups, summed
    with math.fsum, so it equals objective() bit for bit. It reads only
    linear_cost and quad_cost above, so it also prices a solution of a
    CompleteProblem."""
    terms = []
    cliques = [dict(c) for c in partition.cliques]
    for c in cliques:
        for p, q in combinations(sorted(c), 2):
            cost = linear_cost(problem, p, q, c[p], c[q])
            if cost == math.inf:
                return math.inf
            terms.append(cost)
    for a, b in combinations(cliques, 2):
        shared = sorted(set(a) & set(b))
        for p, q in combinations(shared, 2):
            terms.append(quad_cost(problem, p, q, (a[p], a[q]), (b[p], b[q])))
    return math.fsum(terms)


def reference_pair_terms(problem, partition, p, q):
    """The objective's terms on the object pair p < q, entry by entry: the
    linear cost of each clique's (p, q) assignment, and every stored
    quadratic entry joining two of those assignments, exact zeros
    included; math.inf when an assignment is not allowed."""
    table = problem.costs[(p, q)]
    pairs = [(c.get(p), c.get(q)) for c in partition.cliques if c.covers(p) and c.covers(q)]
    if any(a not in table.linear for a in pairs):
        return math.inf
    terms = [table.linear[a] for a in pairs]
    for a, b in combinations(pairs, 2):
        key = (a, b) if a <= b else (b, a)
        if key in table.quadratic:
            terms.append(table.quadratic[key])
    return terms


def split_rematch(problem, solution, p, gm, seed):
    """GM local search's move written out: split object p out of the
    solution and re-match it. Returns construction.rematch's (sub,
    matching, candidate) and the incumbent: the solution's own matching of
    p's vertices to the split's cliques, looked up clique by clique."""
    from mgmatch.construction import rematch

    split = CliquePartition(c.without_object(p) for c in solution)
    incumbent = [
        (c.get(p), split.cliques.index(c.without_object(p)))
        for c in solution.cliques
        if c.covers(p) and len(c) > 1
    ]
    return (*rematch(problem, p, split, gm, seed), incumbent)


def reference_tree_steps(root):
    """The internal nodes of a construction tree (nested 2-tuples over
    int leaves) in the order tree construction merges them: by height,
    lowest first, then by post-order position."""
    merges = []

    def height(node):
        if isinstance(node, int):
            return 0
        h = 1 + max(height(node[0]), height(node[1]))
        merges.append((h, len(merges), node))
        return h

    height(root)
    return [node for _, _, node in sorted(merges)]


def brute_force_mgm(problem):
    """Exhaustive optimum over all feasible partitions: (value, partition)."""
    best_value = 0.0
    best = CliquePartition()
    for partition in enumerate_partitions(problem.sizes):
        value = reference_objective(problem, partition)
        if value == math.inf:
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


def matching_cost(sub, pairs):
    """The cost of the matching ``pairs`` of table sub: its linear costs in
    ascending pair order, then the quadratic entries of
    combinations(sorted(pairs), 2), added one by one from 0.0. The
    bit-for-bit reference for gm._cost."""
    total = 0.0
    chosen = sorted(pairs)
    for pair in chosen:
        total += sub.linear[pair]
    for x, y in combinations(chosen, 2):
        total += sub.quadratic.get((x, y), 0.0)
    return total


def gm_matching_cost(sub, pairs):
    total = 0.0
    pairs = list(pairs)
    for pair in pairs:
        total += sub.linear[pair]
    for x, y in combinations(pairs, 2):
        total += sub.quadratic.get((x, y) if x <= y else (y, x), 0.0)
    return total


def brute_force_gm(sub):
    """Exact minimum of a pairwise matching instance: (cost, pairs), the
    pairs being one of the minimum-cost matchings with the fewest pairs
    (costs within 1e-12 count as equal)."""
    best_cost = 0.0
    best: list = []
    for pairs in enumerate_matchings(sub.left_size, sub.right_size, sub.linear):
        cost = gm_matching_cost(sub, pairs)
        if cost < best_cost - 1e-12 or (cost <= best_cost + 1e-12 and len(pairs) < len(best)):
            best_cost = min(cost, best_cost)
            best = pairs
    return best_cost, sorted(best)


def reference_solve_lap(sub):
    """gm.solve_lap as it was before the row-by-row LAP: successive
    shortest augmenting paths, each a Dijkstra from all unmatched left
    nodes to a virtual sink, stopping once the cheapest path is no longer
    negative. Returns the sorted pairs."""
    import heapq

    arcs = {}
    for (a, b), cost in sub.linear.items():
        arcs.setdefault(a, []).append((b, cost))
    for lst in arcs.values():
        lst.sort()
    if not arcs:
        return []
    offset = sub.left_size
    size = offset + sub.right_size
    left_nodes = sorted(arcs)
    pot = [0.0] * offset + [math.inf] * sub.right_size
    for a in left_nodes:
        for b, cost in arcs[a]:
            pot[offset + b] = min(pot[offset + b], cost)
    pot_sink = min(pot[offset:])
    match = [-1] * size
    while True:
        dist = [math.inf] * size
        parent = [-1] * size
        done = [False] * size
        heap = []
        for a in left_nodes:
            if match[a] < 0:
                dist[a] = 0.0
                heapq.heappush(heap, (0.0, 0, a))
        sink_dist, sink_parent = math.inf, -1
        while heap:
            d, side, node = heapq.heappop(heap)
            key = node if side == 0 else offset + node
            if done[key]:
                continue
            done[key] = True
            if d >= sink_dist:
                continue
            if side == 0:
                for b, cost in arcs[node]:
                    rkey = offset + b
                    if rkey == match[node]:
                        continue
                    nd = d + (cost + pot[node] - pot[rkey])
                    if not done[rkey] and nd < dist[rkey] - 1e-15:
                        dist[rkey], parent[rkey] = nd, node
                        heapq.heappush(heap, (nd, 1, b))
            else:
                a = match[key]
                if a < 0:
                    nd = d + pot[key] - pot_sink
                    if nd < sink_dist:
                        sink_dist, sink_parent = nd, key
                    continue
                nd = d + (-sub.linear[(a, node)] + pot[key] - pot[a])
                if not done[a] and nd < dist[a] - 1e-15:
                    dist[a], parent[a] = nd, key
                    heapq.heappush(heap, (nd, 0, a))
        if sink_parent < 0 or sink_dist + pot_sink >= -1e-12:
            break
        for v in range(size):
            pot[v] += min(dist[v], sink_dist)
        pot_sink += sink_dist
        key = sink_parent
        while key >= 0:
            a = parent[key]
            match[a], match[key] = key, a
            key = parent[a]
    return sorted((a, match[a] - offset) for a in left_nodes if match[a] >= 0)


def reference_gm_local_search(sub, pairs, max_scans, two_swaps):
    """gm._local_search on tuple-keyed dicts, as it was before assignment
    ids: the same moves in the same order with the same float arithmetic.
    Takes and returns sorted pairs."""
    lin = sub.linear
    left_used = dict(pairs)
    right_used = {b: a for a, b in pairs}
    allowed = sorted(lin)
    gain = dict.fromkeys(allowed, 0.0)
    partners = partner_lists(sub)

    def update(pair, sign):
        for other, value in partners.get(pair, []):
            gain[other] += sign * value

    for pair in sorted(pairs):
        update(pair, 1.0)

    def apply(removals, additions):
        for pair in removals:
            del left_used[pair[0]], right_used[pair[1]]
            update(pair, -1.0)
        for pair in additions:
            left_used[pair[0]] = pair[1]
            right_used[pair[1]] = pair[0]
            update(pair, 1.0)

    for _ in range(max_scans):
        improved = False
        for pair in allowed:
            a, b = pair
            if a in left_used:
                if b in right_used:
                    continue
                removals = ((a, left_used[a]),)
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
                    continue
                x1, x2 = (r1[0], r2[1]), (r2[0], r1[1])
                if x1 not in lin or x2 not in lin:
                    continue
                delta = (
                    lin[x1] + gain[x1] + lin[x2] + gain[x2]
                    - (lin[r1] + gain[r1]) - (lin[r2] + gain[r2])
                    + quad_get(sub, x1, x2) + quad_get(sub, r1, r2)
                )
                if delta < -1e-12:
                    apply((r1, r2), (x1, x2))
                    improved = True
        if not improved:
            break
    return sorted(left_used.items())


def reference_greedy_candidate(sub, rng):
    """gm._greedy_candidate on tuple-keyed dicts, as it was before
    assignment ids. Returns sorted pairs."""
    order = sorted(sub.linear)
    rng.shuffle(order)
    left_used, right_used = {}, set()
    gain = dict.fromkeys(order, 0.0)
    partners = partner_lists(sub)
    for pair in order:
        a, b = pair
        if a in left_used or b in right_used:
            continue
        if sub.linear[pair] + gain[pair] < 0:
            left_used[a] = b
            right_used.add(b)
            for other, value in partners.get(pair, []):
                gain[other] += value
    return sorted(left_used.items())


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
    """Vectorized exhaustive minimum; handles n up to ~20 quickly. Each
    variable's bits over all 2^n labelings are one int8 column, so n = 20
    takes about 30 MB."""
    import numpy as np

    n = energy.n
    if n == 0:
        return 0.0
    idx = np.arange(1 << n, dtype=np.int64)
    bits = [((idx >> p) & 1).astype(np.int8) for p in range(n)]
    values = np.zeros(1 << n)
    for p, (a, b) in enumerate(energy.unary):
        values += np.where(bits[p] == 1, b, a)
    for (p, q), table in energy.pairwise.items():
        values += np.asarray(table)[2 * bits[p] + bits[q]]
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
