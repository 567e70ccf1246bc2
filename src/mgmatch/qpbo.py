"""Pairwise binary energy minimization.

Provides the multi-swap optimizer: energies of the form

    E(x) = sum_p theta_p(x_p) + sum_{p<q} theta_pq(x_p, x_q),  x in {0,1}^n.

``minimize`` never returns a labeling worse than its initializer. Up to 16
variables it enumerates the energy as a quadratic form; beyond, submodular
instances are cut exactly by one max flow (Dinic's) and the general case
gets greedy improve sweeps from the initializer. Swap energies come
contracted over forbidden swaps, with no penalty terms; any that reaches
``minimize`` has a negative table and is not submodular, so the cut serves
library callers and gm fusion energies of more than 16 components. Roof
duality is not used: on these frustrated energies it finds no persistent
labels (Rother et al. 2007).
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

EXACT_ENUMERATION_LIMIT = 16

_EPS = 1e-12

PairTable = tuple[float, float, float, float]  # (t00, t01, t10, t11)


class BinaryEnergy:
    """Finite pairwise binary energy over n variables.

    ``unary[p]`` holds (theta_p(0), theta_p(1)); ``pairwise[(p, q)]`` with
    p < q holds the 2x2 table flattened as (t00, t01, t10, t11). The
    constructor converts and checks every entry; _trusted skips that for
    energies the program builds from finite tables.
    """

    __slots__ = ("n", "unary", "pairwise")

    def __init__(
        self,
        n: int,
        unary: Sequence[tuple[float, float]] | None = None,
        pairwise: Mapping[tuple[int, int], PairTable] | None = None,
    ):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        unary = [(0.0, 0.0)] * n if unary is None else [(float(a), float(b)) for a, b in unary]
        if len(unary) != n:
            raise ValueError("unary table length does not match variable count")
        tables: dict[tuple[int, int], PairTable] = {}
        for (p, q), table in (pairwise or {}).items():
            if not (0 <= p < q < n):
                raise ValueError(f"pairwise key ({p},{q}) is not an ordered variable pair")
            tables[(p, q)] = table = tuple(float(v) for v in table)
            if len(table) != 4:
                raise ValueError("pairwise tables need exactly 4 entries")
        if not all(map(math.isfinite, chain.from_iterable(unary))):
            raise ValueError("unary costs must be finite")
        if not all(map(math.isfinite, chain.from_iterable(tables.values()))):
            raise ValueError("pairwise costs must be finite")
        self.n, self.unary, self.pairwise = n, unary, tables

    @classmethod
    def _trusted(cls, n: int, unary=None, pairwise=None) -> "BinaryEnergy":
        """An energy over float tables that pass the constructor's checks, as
        the program's swap and fusion energies do; they are used, not copied."""
        energy = cls.__new__(cls)
        energy.n, energy.unary, energy.pairwise = n, unary or [(0.0, 0.0)] * n, pairwise or {}
        return energy

    def is_submodular(self) -> bool:
        """True when every table satisfies t00 + t11 <= t01 + t10."""
        return all(
            t00 + t11 <= t01 + t10 for (t00, t01, t10, t11) in self.pairwise.values()
        )


def _check_labeling(energy: BinaryEnergy, x: Sequence[int], name: str) -> None:
    if len(x) != energy.n:
        raise ValueError(f"{name} length {len(x)} does not match n={energy.n}")
    if not set(x) <= {0, 1}:
        raise ValueError(f"{name} holds labels other than 0 and 1")


def evaluate(energy: BinaryEnergy, x: Sequence[int]) -> float:
    _check_labeling(energy, x, "labeling")
    total = 0.0
    for p in range(energy.n):
        total += energy.unary[p][1] if x[p] else energy.unary[p][0]
    for (p, q), table in energy.pairwise.items():
        total += table[2 * x[p] + x[q]]
    return total


def _solve_submodular(energy: BinaryEnergy) -> list[int]:
    """Exact minimizer of a submodular energy via one s-t min cut.

    Each table (A, B, C, D) becomes A + (C-A) x_p + (B-A) x_q + g x_p x_q
    with g = A + D - B - C <= 0, rewritten as g x_p + (-g) x_p (1-x_q), an
    edge q -> p; constants are dropped throughout. Dinic's max flow: each
    phase levels the residual graph by breadth-first search, then saturates
    it by iterative depth-first search. The nodes the last level search
    reaches form the minimal minimum cut, which every maximum flow leaves;
    they take label 0.
    """
    n = energy.n
    u0 = [a for a, _ in energy.unary]
    u1 = [b for _, b in energy.unary]
    edges = []
    for (p, q), (t00, t01, t10, t11) in energy.pairwise.items():
        g = t00 + t11 - t01 - t10
        u1[p] += t10 - t00
        u1[p] += g
        u1[q] += t01 - t00
        edges.append((q, p, -g))
    source, sink = n, n + 1
    terminal = []
    for p in range(n):
        base = min(u0[p], u1[p])
        terminal += [(source, p, u1[p] - base), (p, sink, u0[p] - base)]
    # adj[u] holds residual edges [v, capacity, position of the reverse in adj[v]].
    adj: list[list[list]] = [[] for _ in range(n + 2)]
    for u, v, cap in chain(terminal, edges):
        if cap > _EPS:
            adj[u].append([v, cap, len(adj[v])])
            adj[v].append([u, 0.0, len(adj[u]) - 1])
    while True:
        level = [-1] * (n + 2)
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v, cap, _ in adj[u]:
                if cap > _EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return [0 if level[p] >= 0 else 1 for p in range(n)]
        # ``path`` holds the edges from the source to u and it[u] is u's
        # next edge to try; a dead end advances its parent's pointer.
        it = [0] * (n + 2)
        path: list[list] = []
        u = source
        while True:
            if u == sink:
                flow = min(edge[1] for edge in path)
                for edge in path:
                    edge[1] -= flow
                    adj[edge[0]][edge[2]][1] += flow
                path, u = [], source
            elif it[u] < len(adj[u]):
                edge = adj[u][it[u]]
                if edge[1] > _EPS and level[edge[0]] == level[u] + 1:
                    path.append(edge)
                    u = edge[0]
                else:
                    it[u] += 1
            elif path:
                edge = path.pop()
                u = adj[edge[0]][edge[2]][0]  # the edge's tail
                it[u] += 1
            else:
                break


@functools.cache
def _low_bits(k: int) -> np.ndarray:
    """Row i holds the k low bits of i (read-only, shared between calls)."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    bits.setflags(write=False)
    return bits


def _enumerate_minimize(energy: BinaryEnergy, init: tuple[int, ...]) -> tuple[int, ...]:
    """Exact minimizer of E(x) = u.x + x'Gx (_solve_submodular's split,
    constant dropped) over blocks of the 2^k labelings of the k low bits:
    their energies once, then one matrix-vector product per high-bit
    assignment."""
    n = energy.n
    u = np.array([b - a for a, b in energy.unary])
    G = np.zeros((n, n))
    for (p, q), (t00, t01, t10, t11) in energy.pairwise.items():
        u[p] += t10 - t00
        u[q] += t01 - t00
        G[p, q] += t00 + t11 - t01 - t10
    k = min(n, 12)  # a block of 2^12 labelings; its matrix is 384 kB
    low = _low_bits(k)
    base = low @ u[:k] + ((low @ G[:k, :k]) * low).sum(axis=1)
    best, best_value = 0, math.inf
    for high, h in enumerate(_low_bits(n - k)):
        values = base + low @ (G[:k, k:] @ h) + (u[k:] @ h + h @ G[k:, k:] @ h)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best, best_value = (high << k) | i, values[i]
    candidate = tuple((best >> p) & 1 for p in range(n))
    return candidate if evaluate(energy, candidate) < evaluate(energy, init) else init


def _flip_delta(energy: BinaryEnergy, x: list[int], p: int, neighbors) -> float:
    old = x[p]
    new = 1 - old
    delta = energy.unary[p][new] - energy.unary[p][old]
    for q, table, p_is_first in neighbors[p]:
        if p_is_first:
            delta += table[2 * new + x[q]] - table[2 * old + x[q]]
        else:
            delta += table[2 * x[q] + new] - table[2 * x[q] + old]
    return delta


def minimize(energy: BinaryEnergy, init: Sequence[int], seed: int = 0) -> tuple[int, ...]:
    """Labeling with energy at most that of ``init``; exact for n <= 16.

    For n <= EXACT_ENUMERATION_LIMIT every labeling is enumerated, and
    ``init`` is returned unless a labeling is strictly lower; otherwise
    submodular energies are cut exactly and general ones get greedy
    improve sweeps from ``init`` over all variables in a seeded shuffle
    (ties resolved toward label 0); only the sweeps read the seed.
    Swap energies arrive contracted, with no penalty tables.
    """
    _check_labeling(energy, init, "init")
    init = tuple(int(v) for v in init)
    if energy.n == 0:
        return ()
    if energy.n <= EXACT_ENUMERATION_LIMIT:
        return _enumerate_minimize(energy, init)
    if energy.is_submodular():
        candidate = tuple(_solve_submodular(energy))
        return candidate if evaluate(energy, candidate) < evaluate(energy, init) else init

    x = list(init)
    neighbors: list[list] = [[] for _ in range(energy.n)]
    for (p, q), table in energy.pairwise.items():
        neighbors[p].append((q, table, True))
        neighbors[q].append((p, table, False))
    order = list(range(energy.n))
    random.Random(seed).shuffle(order)
    changed = True
    while changed:
        changed = False
        for p in order:
            delta = _flip_delta(energy, x, p, neighbors)
            if delta < 0 or (delta == 0 and x[p] == 1):
                x[p] = 1 - x[p]
                changed = True
    candidate = tuple(x)
    return candidate if evaluate(energy, candidate) < evaluate(energy, init) else init
