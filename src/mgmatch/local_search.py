"""Local search over feasible solutions.

Two neighborhoods are searched, both accepting strictly improving moves
only:

* GM local search splits one object out of the solution, re-matches it
  against the remaining cliques with a pairwise GM solve, and keeps the
  merge when the objective drops. The parallel-proposal variant proposes
  re-matchings for all objects against the same solution, then applies
  them in ascending order of their proposed objective, re-checking profit
  after each.

* Swap local search considers, for a pair of cliques, jointly exchanging
  their vertices on any subset of objects. The change decomposes over
  objects into per-object-pair deltas, which turns picking the best joint
  swap into a pairwise binary energy handed to the qpbo module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from random import Random
from typing import Sequence

from . import qpbo
from .construction import derive_seed, merge_object, object_clique_costs
from .gm import Effort, GmMatching, GmSolver, solve_gm
from .model import (
    FORBIDDEN,
    Clique,
    CliquePartition,
    Cost,
    MgmProblem,
    objective,
    validate,
)


@dataclass
class TraceRecorder:
    """Objective-over-time log; one entry per accepted improvement."""

    start: float = field(default_factory=time.monotonic)
    entries: list[tuple[float, str, float]] = field(default_factory=list)

    def record(self, phase: str, value: float) -> None:
        elapsed_ms = (time.monotonic() - self.start) * 1000.0
        self.entries.append((elapsed_ms, phase, value))

    def lines(self) -> list[str]:
        return [f"{ms:.3f},{phase},{value!r}" for ms, phase, value in self.entries]


def single_swap(
    solution: CliquePartition, first: Clique, second: Clique, p: int
) -> CliquePartition:
    """Exchange the object-p vertices of two cliques.

    If both cliques cover p their vertices are interchanged; if only one
    does, its vertex moves to the other clique; if neither does, the
    solution is returned unchanged. Emptied cliques are dropped.
    """
    idx_first = _index_of(solution, first)
    idx_second = _index_of(solution, second)
    if idx_first == idx_second:
        raise ValueError("single swap needs two distinct cliques")
    if not first.covers(p) and not second.covers(p):
        return solution
    new_first, new_second = _swap_cliques(first, second, (p,))
    return _replace(solution, {idx_first: new_first, idx_second: new_second})


def _index_of(solution: CliquePartition, clique: Clique) -> int:
    for idx, candidate in enumerate(solution.cliques):
        if candidate == clique:
            return idx
    raise ValueError(f"{clique!r} is not part of the solution")


def _swap_cliques(first: Clique, second: Clique, objects) -> tuple[Clique, Clique]:
    a = dict(first.pairs)
    b = dict(second.pairs)
    for p in objects:
        va = a.pop(p, None)
        vb = b.pop(p, None)
        if vb is not None:
            a[p] = vb
        if va is not None:
            b[p] = va
    return Clique(a), Clique(b)


def _replace(solution: CliquePartition, replacements: dict[int, Clique]) -> CliquePartition:
    cliques = []
    for idx, clique in enumerate(solution.cliques):
        clique = replacements.get(idx, clique)
        if len(clique) > 0:
            cliques.append(clique)
    return CliquePartition(cliques)


@dataclass
class SwapDeltaMatrix:
    """Per-object-pair objective changes of single swaps between two cliques.

    entries[p][q] is the change restricted to objects p and q when the
    swap fixing p is performed alone; Forbidden marks swaps that would
    create a disallowed match. Row sums equal the exact objective change
    of the corresponding single swap.
    """

    d: int
    entries: list[list[Cost]]

    def get(self, p: int, q: int) -> Cost:
        return self.entries[p][q]

    def row_sum(self, p: int) -> Cost:
        total: Cost = 0.0
        for q in range(self.d):
            if q != p:
                total = total + self.entries[p][q]
        return total


def swap_deltas(
    problem: MgmProblem, solution: CliquePartition, first: Clique, second: Clique
) -> SwapDeltaMatrix:
    idx_first = _index_of(solution, first)
    idx_second = _index_of(solution, second)
    if idx_first == idx_second:
        raise ValueError("swap deltas need two distinct cliques")
    vmap = solution.vertex_map()
    d = problem.d
    entries: list[list[Cost]] = [[0.0] * d for _ in range(d)]
    involved = sorted(set(first.objects()) | set(second.objects()))
    for p in involved:
        new_first, new_second = _swap_cliques(first, second, (p,))
        overrides: dict[tuple[int, int], int] = {}
        va = first.get(p)
        vb = second.get(p)
        if va is not None:
            overrides[(p, va)] = idx_second
        if vb is not None:
            overrides[(p, vb)] = idx_first

        def before_get(key):
            return vmap.get(key)

        def after_get(key):
            hit = overrides.get(key)
            return hit if hit is not None else vmap.get(key)

        for q in range(d):
            if q == p:
                continue
            before = _pair_contrib(
                problem, before_get, first, second, idx_first, idx_second, p, q
            )
            after = _pair_contrib(
                problem, after_get, new_first, new_second, idx_first, idx_second, p, q
            )
            if before is FORBIDDEN or after is FORBIDDEN:
                entries[p][q] = FORBIDDEN
            else:
                entries[p][q] = after - before
    return SwapDeltaMatrix(d, entries)


def _pair_contrib(problem, clique_of, a, b, idx_a, idx_b, p, q):
    """Objective terms on object pair {p, q} involving clique a or b."""
    total = 0.0
    for clique in (a, b):
        vp = clique.get(p)
        vq = clique.get(q)
        if vp is None or vq is None:
            continue
        cost = problem.linear_cost(p, q, vp, vq)
        if cost is FORBIDDEN:
            return FORBIDDEN
        total += cost
    for clique in (a, b):
        vp = clique.get(p)
        vq = clique.get(q)
        if vp is None or vq is None:
            continue
        for (i2, s2), value in problem.quad_partners_pair(p, q, vp, vq):
            k = clique_of((p, i2))
            if k is None or clique_of((q, s2)) != k:
                continue
            total += value
    # The a-b interaction was counted from both sides; it must count once.
    if a.covers(p) and a.covers(q) and b.covers(p) and b.covers(q):
        total -= problem.quad_cost(p, q, (a.get(p), a.get(q)), (b.get(p), b.get(q)))
    return total


def apply_multiswap(
    solution: CliquePartition, first: Clique, second: Clique, bits: Sequence[int]
) -> CliquePartition:
    """Perform the single swaps selected by the bit vector jointly."""
    idx_first = _index_of(solution, first)
    idx_second = _index_of(solution, second)
    objects = [p for p, bit in enumerate(bits) if bit]
    new_first, new_second = _swap_cliques(first, second, objects)
    return _replace(solution, {idx_first: new_first, idx_second: new_second})


def best_multiswap(
    problem: MgmProblem,
    solution: CliquePartition,
    first: Clique,
    second: Clique,
    seed: int = 0,
) -> tuple[tuple[int, ...], float]:
    """Best joint swap between two cliques via binary energy minimization.

    Builds the swap-delta energy (objects untouched by both cliques are
    isolated and fixed to zero), encodes forbidden swaps as a finite
    penalty larger than any achievable improvement, and minimizes starting
    from the no-swap labeling. Labelings that would activate a forbidden
    swap fall back to no-swap. Returns the bit vector over all objects and
    the predicted objective change (0 for no-swap).
    """
    deltas = swap_deltas(problem, solution, first, second)
    involved = sorted(set(first.objects()) | set(second.objects()))
    penalty = 1.0 + problem.total_abs_cost()
    index = {p: k for k, p in enumerate(involved)}
    pairwise = {}
    for p, q in combinations(involved, 2):
        dpq = deltas.get(p, q)
        dqp = deltas.get(q, p)
        t10 = penalty if dpq is FORBIDDEN else dpq
        t01 = penalty if dqp is FORBIDDEN else dqp
        if t10 == 0.0 and t01 == 0.0:
            continue
        pairwise[(index[p], index[q])] = (0.0, t01, t10, 0.0)
    energy = qpbo.BinaryEnergy(len(involved), pairwise=pairwise)
    labels = qpbo.minimize(energy, (0,) * len(involved), seed=seed)
    full = [0] * problem.d
    for p in involved:
        full[p] = labels[index[p]]
    for p, q in combinations(range(problem.d), 2):
        if full[p] and not full[q] and deltas.get(p, q) is FORBIDDEN:
            return (0,) * problem.d, 0.0
        if full[q] and not full[p] and deltas.get(q, p) is FORBIDDEN:
            return (0,) * problem.d, 0.0
    predicted = qpbo.evaluate(energy, labels)
    return tuple(full), predicted


def gm_local_search(
    problem: MgmProblem,
    solution: CliquePartition,
    order: Sequence[int] | None = None,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    effort: Effort = Effort.DEFAULT,
    max_passes: int | None = None,
    deadline: float | None = None,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Split-rematch-merge local search along a cyclic object sequence.

    Stops after a full cycle over the objects without an accepted
    improvement, or when the pass or time budget runs out.
    """
    validate(problem, solution)
    order = list(order) if order is not None else list(range(problem.d))
    current = solution.normalized(problem.sizes)
    current_value = objective(problem, current)
    stale = 0
    step = 0
    while stale < len(order):
        if max_passes is not None and step >= max_passes * len(order):
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        p = order[step % len(order)]
        step += 1
        split = CliquePartition(c.without_object(p) for c in current)
        sub = object_clique_costs(problem, p, split)
        matching = gm(sub, derive_seed(seed, step), effort)
        candidate = merge_object(problem, p, split, matching)
        value = objective(problem, candidate)
        if value < current_value:
            current, current_value = candidate, value
            stale = 0
            if trace is not None:
                trace.record("gm-ls", value)
        else:
            stale += 1
    return current


def gm_local_search_parallel(
    problem: MgmProblem,
    solution: CliquePartition,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    effort: Effort = Effort.DEFAULT,
    max_passes: int | None = None,
    deadline: float | None = None,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Two-pass variant: propose all object re-matchings against a snapshot,
    then apply them in ascending proposed-objective order, accepting only
    re-verified profits.

    Stale proposals (their target cliques changed under earlier accepted
    merges) are re-targeted by clique content; vanished targets are
    dropped, leaving those vertices unmatched in the re-merge.
    """
    validate(problem, solution)
    current = solution.normalized(problem.sizes)
    current_value = objective(problem, current)
    rounds = 0
    while True:
        if max_passes is not None and rounds >= max_passes:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        proposals = []
        for p in range(problem.d):
            split = CliquePartition(c.without_object(p) for c in current)
            sub = object_clique_costs(problem, p, split)
            matching = gm(sub, derive_seed(seed, rounds * problem.d + p + 1), effort)
            candidate = merge_object(problem, p, split, matching)
            targets = [(v, split.cliques[k]) for v, k in matching]
            proposals.append((objective(problem, candidate), p, targets))
        proposals.sort(key=lambda item: (_sort_cost(item[0]), item[1]))

        accepted_any = False
        for _, p, targets in proposals:
            split = CliquePartition(c.without_object(p) for c in current)
            key_index = {clique: idx for idx, clique in enumerate(split.cliques)}
            pairs = [
                (v, key_index[clique]) for v, clique in targets if clique in key_index
            ]
            candidate = merge_object(problem, p, split, GmMatching(pairs))
            value = objective(problem, candidate)
            if value < current_value:
                current, current_value = candidate, value
                accepted_any = True
                if trace is not None:
                    trace.record("gm-ls-par", value)
        rounds += 1
        if not accepted_any:
            break
    return current


def _sort_cost(value: Cost) -> float:
    return float("inf") if value is FORBIDDEN else value


def swap_local_search(
    problem: MgmProblem,
    solution: CliquePartition,
    seed: int = 0,
    max_passes: int | None = None,
    deadline: float | None = None,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Iterate joint multi-swaps over clique pairs, accepting strict profits.

    Clique pairs are visited in a per-pass seeded shuffle of their sorted
    order; a pass without any accepted swap terminates the search. Pairs
    whose cliques were changed earlier in the same pass are skipped.
    """
    validate(problem, solution)
    current = solution
    current_value = objective(problem, current)
    passes = 0
    while True:
        if max_passes is not None and passes >= max_passes:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        ordered = sorted(current.cliques)
        pair_list = list(combinations(ordered, 2))
        Random(derive_seed(seed, passes)).shuffle(pair_list)
        live = set(current.cliques)
        accepted_any = False
        for first, second in pair_list:
            if first not in live or second not in live:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                break
            bits, predicted = best_multiswap(
                problem, current, first, second, seed=derive_seed(seed, passes)
            )
            if not any(bits) or not predicted < 0.0:
                continue
            candidate = apply_multiswap(current, first, second, bits)
            value = objective(problem, candidate)
            if value < current_value:
                live.discard(first)
                live.discard(second)
                new_first, new_second = _swap_cliques(
                    first, second, [p for p, b in enumerate(bits) if b]
                )
                if len(new_first):
                    live.add(new_first)
                if len(new_second):
                    live.add(new_second)
                current, current_value = candidate, value
                accepted_any = True
                if trace is not None:
                    trace.record("swap-ls", value)
        passes += 1
        if not accepted_any:
            break
    return current


def alternate(
    problem: MgmProblem,
    solution: CliquePartition,
    gm: GmSolver = solve_gm,
    order: Sequence[int] | None = None,
    seed: int = 0,
    effort: Effort = Effort.DEFAULT,
    max_rounds: int | None = None,
    deadline: float | None = None,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Alternate GM local search and swap local search until neither improves.

    max_rounds bounds the number of alternation rounds (0 returns the
    input); deadline cuts the search off mid-round, keeping the best
    solution found so far.
    """
    if max_rounds is not None and max_rounds <= 0:
        return solution
    current = solution.normalized(problem.sizes)
    current_value = objective(problem, current)
    rounds = 0
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            break
        current = gm_local_search(
            problem, current, order=order, gm=gm,
            seed=derive_seed(seed, 2 * rounds), effort=effort,
            deadline=deadline, trace=trace,
        )
        current = swap_local_search(
            problem, current, seed=derive_seed(seed, 2 * rounds + 1),
            deadline=deadline, trace=trace,
        )
        value = objective(problem, current)
        rounds += 1
        if not value < current_value:
            break
        current_value = value
        if max_rounds is not None and rounds >= max_rounds:
            break
    return current
