"""Pairwise binary energy minimization.

Provides the multi-swap optimizer: energies of the form

    E(x) = sum_p theta_p(x_p) + sum_{p<q} theta_pq(x_p, x_q),  x in {0,1}^n.

``minimize`` never returns a labeling worse than its initializer. It reads
the energy as one sparse quadratic form (_quadratic_form), and up to 16
variables it enumerates the form; beyond, submodular instances are cut
exactly by one max flow over shortest augmenting paths and the general
case gets greedy improve sweeps from the initializer. Swap energies come
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


def _quadratic_form(energy: BinaryEnergy) -> tuple[list[float], dict[tuple[int, int], float]]:
    """E(x) as u.x + sum_(p,q) g[p, q] x_p x_q, its constant dropped. Each
    table (A, B, C, D) is A + (C-A) x_p + (B-A) x_q + g x_p x_q with
    g = A + D - B - C, one entry per table: the form is as sparse as E."""
    u = [b - a for a, b in energy.unary]
    g = {}
    for key, (t00, t01, t10, t11) in energy.pairwise.items():
        p, q = key
        u[p] += t10 - t00
        u[q] += t01 - t00
        g[key] = t00 + t11 - t01 - t10
    return u, g


def _solve_submodular(u: list[float], g: dict) -> tuple[int, ...]:
    """Exact minimizer of a submodular form (every g <= 0) via one s-t min cut.

    g x_p x_q is rewritten as g x_p + (-g) x_p (1-x_q), an arc q -> p. A
    positive u[p] is an arc source -> p, which label 1 cuts, and a negative
    one an arc p -> sink, which label 0 cuts. Shortest augmenting paths
    (Edmonds-Karp) saturate the network. The nodes the last breadth-first
    search reaches form the minimal minimum cut, which every maximum flow
    leaves; they take label 0.
    """
    n, u, arcs = len(u), list(u), []
    for (p, q), w in g.items():
        u[p] += w
        arcs.append((q, p, -w))
    source, sink = n, n + 1
    for p, c in enumerate(u):
        arcs += [(source, p, c), (p, sink, -c)]  # the one of no capacity is left out
    # adj[a] holds residual arcs [b, capacity, position of the reverse in adj[b]].
    adj: list[list[list]] = [[] for _ in range(n + 2)]
    for a, b, cap in arcs:
        if cap > _EPS:
            adj[a].append([b, cap, len(adj[b])])
            adj[b].append([a, 0.0, len(adj[a]) - 1])
    while True:
        reached = {source: None}  # node -> (its predecessor, the arc between)
        queue = deque([source])
        while queue and sink not in reached:
            a = queue.popleft()
            for arc in adj[a]:
                if arc[1] > _EPS and arc[0] not in reached:
                    reached[arc[0]] = a, arc
                    queue.append(arc[0])
        if sink not in reached:
            return tuple(0 if p in reached else 1 for p in range(n))
        path, b = [], sink
        while b != source:
            b, arc = reached[b]
            path.append(arc)
        flow = min(arc[1] for arc in path)
        for arc in path:
            arc[1] -= flow
            adj[arc[0]][arc[2]][1] += flow


@functools.cache
def _low_bits(k: int) -> np.ndarray:
    """Row i holds the k low bits of i (read-only, shared between calls)."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    bits.setflags(write=False)
    return bits


def _enumerate_minimize(u: list[float], g: dict) -> tuple[int, ...]:
    """Exact minimizer of the form u.x + x'Gx, G the dense g, over blocks of
    the 2^k labelings of the k low bits: their values once, then one
    matrix-vector product per high-bit assignment."""
    n = len(u)
    u = np.array(u)
    G = np.zeros((n, n))
    for (p, q), w in g.items():
        G[p, q] = w
    k = min(n, 12)  # a block of 2^12 labelings; its matrix is 384 kB
    low = _low_bits(k)
    base = low @ u[:k] + ((low @ G[:k, :k]) * low).sum(axis=1)
    best, best_value = 0, math.inf
    for high, h in enumerate(_low_bits(n - k)):
        values = base + low @ (G[:k, k:] @ h) + (u[k:] @ h + h @ G[k:, k:] @ h)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best, best_value = (high << k) | i, values[i]
    return tuple((best >> p) & 1 for p in range(n))


def _improve_sweeps(u: list[float], g: dict, init: tuple[int, ...], seed: int) -> tuple[int, ...]:
    """Greedy single flips from ``init`` over all variables in a seeded
    shuffle until a sweep flips none. Setting x_p to 1 changes the form by
    u[p] + sum_q g[p, q] x_q; x_p takes 1 when that is negative, else 0."""
    x = list(init)
    neighbors: list[list[tuple[int, float]]] = [[] for _ in u]
    for (p, q), w in g.items():
        neighbors[p].append((q, w))
        neighbors[q].append((p, w))
    order = list(range(len(u)))
    random.Random(seed).shuffle(order)
    changed = True
    while changed:
        changed = False
        for p in order:
            coupling = 0.0
            for q, w in neighbors[p]:
                if x[q]:
                    coupling += w
            label = 1 if u[p] + coupling < 0 else 0
            if x[p] != label:
                x[p], changed = label, True
    return tuple(x)


def minimize(energy: BinaryEnergy, init: Sequence[int], seed: int = 0) -> tuple[int, ...]:
    """Labeling with energy at most that of ``init``; exact for n <= 16.

    For n <= EXACT_ENUMERATION_LIMIT every labeling is enumerated;
    otherwise submodular energies are cut exactly and general ones get
    greedy improve sweeps from ``init`` (only the sweeps read the seed).
    ``init`` is returned unless the labeling found is strictly lower.
    """
    _check_labeling(energy, init, "init")
    init = tuple(int(v) for v in init)
    u, g = _quadratic_form(energy)
    if energy.n <= EXACT_ENUMERATION_LIMIT:
        candidate = _enumerate_minimize(u, g)
    elif energy.is_submodular():
        candidate = _solve_submodular(u, g)
    else:
        candidate = _improve_sweeps(u, g, init, seed)
    return candidate if evaluate(energy, candidate) < evaluate(energy, init) else init
