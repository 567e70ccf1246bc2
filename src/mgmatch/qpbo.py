"""Pairwise binary energy minimization.

Provides the multi-swap optimizer: energies of the form

    E(x) = sum_p theta_p(x_p) + sum_{p<q} theta_pq(x_p, x_q),  x in {0,1}^n.

``minimize`` never returns a labeling worse than its initializer. Up to 16
variables it enumerates the energy as a quadratic form; beyond, submodular
instances are cut exactly by one max-flow and the general case gets greedy
improve sweeps from the initializer. Swap energies come contracted over
forbidden swaps, with no penalty terms. Roof duality is not used: on these
frustrated energies it finds no persistent labels (Rother et al. 2007).
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


def evaluate(energy: BinaryEnergy, x: Sequence[int]) -> float:
    if len(x) != energy.n:
        raise ValueError(f"labeling length {len(x)} does not match n={energy.n}")
    total = 0.0
    for p in range(energy.n):
        total += energy.unary[p][1] if x[p] else energy.unary[p][0]
    for (p, q), table in energy.pairwise.items():
        total += table[2 * x[p] + x[q]]
    return total


class _FlowNetwork:
    """Dinic max-flow on floats; small graphs only."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[list]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: float) -> None:
        if cap <= _EPS:
            return
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0.0, len(self.adj[u]) - 1])

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for edge in self.adj[u]:
                v, cap, _ = edge
                if cap > _EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, s: int, t: int, level, it) -> float:
        """Push flow along one s-t path of the level graph; 0 if none is left.

        Iterative depth-first search: ``path`` holds the edges from s to
        the current node. A dead end advances its parent's edge pointer,
        so every edge is tried in adjacency order, as a recursive search
        would.
        """
        path: list[list] = []
        u = s
        while u != t:
            adj = self.adj[u]
            while it[u] < len(adj):
                edge = adj[it[u]]
                if edge[1] > _EPS and level[edge[0]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if not path:
                    return 0.0
                edge = path.pop()
                u = self.adj[edge[0]][edge[2]][0]  # the edge's tail
                it[u] += 1
                continue
            path.append(edge)
            u = edge[0]
        flow = min(edge[1] for edge in path)
        for edge in path:
            edge[1] -= flow
            self.adj[edge[0]][edge[2]][1] += flow
        return flow

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * len(self.adj)
            while True:
                flow = self._dfs(s, t, level, it)
                if flow <= _EPS:
                    break
                total += flow

    def reachable(self, s: int) -> list[bool]:
        seen = [False] * len(self.adj)
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.adj[u]:
                if cap > _EPS and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def _solve_submodular(energy: BinaryEnergy) -> list[int]:
    """Exact minimizer of a submodular energy via one s-t min cut.

    Each table (A, B, C, D) becomes A + (C-A) x_p + (B-A) x_q + g x_p x_q
    with g = A + D - B - C <= 0, rewritten as g x_p + (-g) x_p (1-x_q), an
    edge q -> p; constants are dropped throughout.
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
    net = _FlowNetwork(n + 2)
    for p in range(n):
        base = min(u0[p], u1[p])
        if u1[p] - base > 0:
            net.add_edge(source, p, u1[p] - base)
        if u0[p] - base > 0:
            net.add_edge(p, sink, u0[p] - base)
    for edge in edges:
        net.add_edge(*edge)
    net.max_flow(source, sink)
    seen = net.reachable(source)
    return [0 if seen[p] else 1 for p in range(n)]


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
    if len(init) != energy.n:
        raise ValueError(f"init length {len(init)} does not match n={energy.n}")
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
