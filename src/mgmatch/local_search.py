"""Local search over feasible solutions.

Two neighborhoods are searched, both accepting strictly improving moves
only:

* GM local search splits one object out of the solution, re-matches it
  against the remaining cliques with construction.rematch, the step
  chain construction takes too (MDAP's dimensionwise variation), and
  keeps the merge when the objective drops. A re-match changes only the
  objective terms on object pairs that contain the re-matched object.
  objective() is the fsum of model.ObjectiveTerms' per-pair groups, so
  GM local search keeps those groups and prices a candidate by replacing
  one object's row: the same float objective() returns, bit for bit.

* Swap local search considers, for a pair of cliques, jointly exchanging
  their vertices on any subset of objects. The change decomposes over
  objects into per-object-pair deltas, which turns picking the best joint
  swap into a pairwise binary energy handed to the qpbo module; objects
  joined by a forbidden single swap share one variable. Two shortcuts
  skip work whose outcome is already known:

  - Pruning. When the graph on the involved objects whose edges are
    forbidden single swaps (a linear-cost check) is connected, every
    joint swap other than renaming the two cliques activates a forbidden
    swap, so best_multiswap would return no-swap; the pair is skipped.
  - Caching. A pair's delta matrix depends on the two cliques and on
    which cliques own the vertices its quadratic terms read. The matrix is
    dropped once minimized; its outcome is kept, across passes and
    alternate rounds, while all those owner cliques are still in the
    solution. A pruned pair's outcome is no-swap and its owners are the
    two cliques.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from itertools import combinations
from random import Random
from typing import Sequence

from . import qpbo
from .construction import derive_seed, rematch
from .gm import GmSolver, solve_gm
from .model import (
    FORBIDDEN,
    Clique,
    CliquePartition,
    Cost,
    MgmProblem,
    ObjectiveTerms,
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

    get(p, q) is the change restricted to objects p and q when the swap
    fixing p is performed alone; Forbidden marks swaps that would create
    a disallowed match. The matrix is symmetric: swapping q alone puts the
    same two assignments into the two cliques, in the other clique order.
    Row sums equal the exact objective change of the corresponding single
    swap. ``entries`` holds the matrix row-major, with +inf for Forbidden
    (costs are finite, so deltas are too).

    ``owners`` holds the two cliques and every clique owning a vertex the
    quadratic terms were looked up for; while all of them are still in
    the solution, recomputing gives the same entries. It is None when a
    looked-up vertex was in no clique, which a later solution could change
    unnoticed.
    """

    d: int
    entries: array
    owners: tuple[Clique, ...] | None = None

    def get(self, p: int, q: int) -> Cost:
        value = self.entries[p * self.d + q]
        return FORBIDDEN if value == math.inf else value

    def row_sum(self, p: int) -> Cost:
        total: Cost = 0.0
        for q in range(self.d):
            if q != p:
                total = total + self.get(p, q)
        return total


def swap_deltas(
    problem: MgmProblem, solution: CliquePartition, first: Clique, second: Clique
) -> SwapDeltaMatrix:
    idx_first = _index_of(solution, first)
    idx_second = _index_of(solution, second)
    if idx_first == idx_second:
        raise ValueError("swap deltas need two distinct cliques")
    columns = solution.columns(problem.sizes)
    d = problem.d
    entries = array("d", bytes(8 * d * d))
    read: set[int | None] = {idx_first, idx_second}
    # A single swap on object p moves first's p-vertex to second and back.
    exchanged = {idx_first: idx_second, idx_second: idx_first}

    def assignment(table, p, q, vp, vq):
        """(linear cost, [(quadratic value, clique of its p end, clique of
        its q end)]) of matching vp to vq, or None without both vertices."""
        if vp is None or vq is None:
            return None
        partners = []
        for (i2, s2), value in table.partners((vp, vq)):
            kp = columns[p][i2]
            kq = columns[q][s2]
            read.add(kp)
            read.add(kq)
            partners.append((value, kp, kq))
        return table.linear.get((vp, vq), FORBIDDEN), partners

    def contrib(x, y, flip_p, interaction):
        """Objective terms on the object pair that involve assignments x, y.

        flip_p applies a single swap on p to the looked-up cliques.
        """
        total = 0.0
        for side in (x, y):
            if side is not None:
                if side[0] is FORBIDDEN:
                    return FORBIDDEN
                total += side[0]
        for side in (x, y):
            if side is not None:
                for value, kp, kq in side[1]:
                    if flip_p:
                        kp = exchanged.get(kp, kp)
                    if kp is not None and kp == kq:
                        total += value
        if interaction is not None:
            # The x-y interaction was counted from both sides; it must count once.
            total -= interaction
        return total

    # One evaluation per object pair p < q, written to both entries: the
    # matrix is symmetric. Objects neither clique covers contribute
    # nothing; their entries stay 0.
    involved = sorted(set(first.objects()) | set(second.objects()))
    for p, q in combinations(involved, 2):
        table = problem.costs[(p, q)]
        ap, aq, bp, bq = first.get(p), first.get(q), second.get(p), second.get(q)
        kept_a = assignment(table, p, q, ap, aq)
        kept_b = assignment(table, p, q, bp, bq)
        moved_a = assignment(table, p, q, bp, aq)  # first after swapping p
        moved_b = assignment(table, p, q, ap, bq)  # second after swapping p
        full = None not in (ap, aq, bp, bq)
        before = contrib(
            kept_a, kept_b, False, table.quad_get((ap, aq), (bp, bq)) if full else None
        )
        after = contrib(
            moved_a, moved_b, True, table.quad_get((bp, aq), (ap, bq)) if full else None
        )
        if before is FORBIDDEN or after is FORBIDDEN:
            entries[p * d + q] = entries[q * d + p] = math.inf
        else:
            entries[p * d + q] = entries[q * d + p] = after - before
    owners = None
    if None not in read:
        owners = tuple(solution.cliques[k] for k in read)
    return SwapDeltaMatrix(d, entries, owners)


def swaps_all_forbidden(problem: MgmProblem, first: Clique, second: Clique) -> bool:
    """True when no joint swap of the two cliques can be accepted.

    Objects p and q are adjacent when swapping p alone puts a forbidden
    linear entry on (p, q), or the two cliques hold one there already; the
    relation is symmetric and equals ``swap_deltas(...).get(p, q) is
    FORBIDDEN``. If the involved objects are connected, any labeling that
    is not constant on them swaps one end of an adjacent pair without the
    other; best_multiswap contracts them into a single group, where
    swapping all of them only renames the two cliques (energy 0, never
    strictly below no-swap). Reads linear costs and the two cliques only.
    """
    involved = sorted(set(first.objects()) | set(second.objects()))

    def adjacent(p, q):
        if p > q:
            p, q = q, p
        linear = problem.costs[(p, q)].linear
        ap, aq, bp, bq = first.get(p), first.get(q), second.get(p), second.get(q)
        for vp, vq in ((ap, aq), (bp, bq), (bp, aq), (ap, bq)):
            if vp is not None and vq is not None and (vp, vq) not in linear:
                return True
        return False

    reached = {involved[0]}
    frontier = [involved[0]]
    while frontier:
        p = frontier.pop()
        for q in involved:
            if q not in reached and adjacent(p, q):
                reached.add(q)
                frontier.append(q)
    return len(reached) == len(involved)


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
    deltas: SwapDeltaMatrix | None = None,
) -> tuple[tuple[int, ...], float]:
    """Best joint swap between two cliques via binary energy minimization.

    A forbidden single swap is symmetric, so an acceptable joint swap gives
    both its objects the same bit: objects joined by forbidden swaps are
    contracted into one variable. Tables inside a group drop out (their
    (0,0) and (1,1) entries are 0), tables between groups add up, and no
    penalty is needed; minimizing from no-swap is exact up to
    qpbo.EXACT_ENUMERATION_LIMIT groups. A single group is the pruned case.
    The delta matrix is symmetric, so each table between groups is
    (0, w, w, 0). Returns the bit vector over all objects and the
    predicted objective change (0 for no-swap).

    ``deltas`` are this pair's swap deltas in ``solution`` when the caller
    has them; they are read, not changed. The seed matters only above the
    enumeration limit, for energies that are not submodular.
    """
    if deltas is None:
        deltas = swap_deltas(problem, solution, first, second)
    involved = sorted(set(first.objects()) | set(second.objects()))
    label = {p: p for p in involved}  # the smallest member of p's group
    for p, q in combinations(involved, 2):
        if deltas.get(p, q) is FORBIDDEN and label[p] != label[q]:
            keep, drop = sorted((label[p], label[q]))
            label = {r: keep if g == drop else g for r, g in label.items()}
    variable = {g: k for k, g in enumerate(sorted(set(label.values())))}
    group = {p: variable[label[p]] for p in involved}
    pairwise = {}
    for p, q in combinations(involved, 2):
        gp, gq = sorted((group[p], group[q]))
        w = deltas.get(p, q)
        if gp == gq or w == 0.0:
            continue
        _, total, _, _ = pairwise.get((gp, gq), (0.0, 0.0, 0.0, 0.0))
        pairwise[(gp, gq)] = (0.0, total + w, total + w, 0.0)
    energy = qpbo.BinaryEnergy(len(variable), pairwise=pairwise)
    labels = qpbo.minimize(energy, (0,) * energy.n, seed=seed)
    bits = tuple(labels[group[p]] if p in group else 0 for p in range(problem.d))
    return bits, qpbo.evaluate(energy, labels)


def gm_local_search(
    problem: MgmProblem,
    solution: CliquePartition,
    order: Sequence[int] | None = None,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    max_passes: int | None = None,
    deadline: float | None = None,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Split-rematch-merge local search along a cyclic object sequence.

    Stops after a full cycle over the objects without an accepted
    improvement, or when the pass or time budget runs out. Candidates
    are priced by ObjectiveTerms, which equals objective() exactly.
    """
    validate(problem, solution)
    order = list(order) if order is not None else list(range(problem.d))
    current = solution.normalized(problem.sizes)
    terms = ObjectiveTerms(problem, current)
    current_value = terms.value()
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
        _, candidate = rematch(problem, p, split, gm, derive_seed(seed, step))
        row = terms.row(p, candidate)
        value = terms.value(p, row)
        if value < current_value:
            current, current_value = candidate, value
            terms.replace(p, row)
            stale = 0
            if trace is not None:
                trace.record("gm-ls", value)
        else:
            stale += 1
    return current


def swap_local_search(
    problem: MgmProblem,
    solution: CliquePartition,
    seed: int = 0,
    max_passes: int | None = None,
    deadline: float | None = None,
    trace: TraceRecorder | None = None,
    cache: dict[tuple[Clique, Clique], tuple] | None = None,
) -> CliquePartition:
    """Iterate joint multi-swaps over clique pairs, accepting strict profits.

    Clique pairs are visited in a per-pass seeded shuffle of their sorted
    order; a pass without any accepted swap terminates the search. Pairs
    whose cliques were changed earlier in the same pass are skipped, and
    so are pairs where swaps_all_forbidden holds.

    ``cache`` maps a clique pair (first, second) to (owners, (bits,
    predicted)): best_multiswap's outcome and the cliques it depends on
    (SwapDeltaMatrix.owners; the pair itself when pruned, with outcome
    no-swap). Pass the same dict to later calls (as alternate does) to
    keep the entries whose owner cliques are all unchanged. An outcome of
    the seeded sweeps is kept too, so it is not redrawn with a later seed.
    """
    validate(problem, solution)
    cache = {} if cache is None else cache
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
        _evict(cache, live)
        accepted_any = False
        for first, second in pair_list:
            if first not in live or second not in live:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                break
            key = (first, second)
            entry = cache.get(key)
            if entry is None or not _reusable(entry[0], live):
                if swaps_all_forbidden(problem, first, second):
                    entry = key, ((0,) * problem.d, 0.0)
                else:
                    deltas = swap_deltas(problem, current, first, second)
                    entry = deltas.owners, best_multiswap(
                        problem, current, first, second,
                        seed=derive_seed(seed, passes), deltas=deltas,
                    )
                cache[key] = entry
            bits, predicted = entry[1]
            if not any(bits) or not predicted < 0.0:
                continue
            candidate = apply_multiswap(current, first, second, bits)
            value = objective(problem, candidate)
            if value < current_value:
                current, current_value = candidate, value
                live = set(current.cliques)
                accepted_any = True
                if trace is not None:
                    trace.record("swap-ls", value)
        passes += 1
        if not accepted_any:
            break
    return current


def _reusable(owners: tuple[Clique, ...] | None, live) -> bool:
    """Whether a swap cache entry holds for a solution with the live cliques."""
    return owners is not None and all(c in live for c in owners)


def _evict(cache: dict, live: set[Clique]) -> None:
    for key in [key for key, (owners, _) in cache.items() if not _reusable(owners, live)]:
        del cache[key]


def alternate(
    problem: MgmProblem,
    solution: CliquePartition,
    gm: GmSolver = solve_gm,
    order: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
    deadline: float | None = None,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Alternate GM local search and swap local search until neither improves.

    max_rounds bounds the number of alternation rounds (0 returns the
    input); deadline cuts the search off mid-round, keeping the best
    solution found so far. One swap cache serves every round.
    """
    if max_rounds is not None and max_rounds <= 0:
        return solution
    current = solution.normalized(problem.sizes)
    current_value = objective(problem, current)
    cache: dict = {}
    rounds = 0
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            break
        current = gm_local_search(
            problem, current, order=order, gm=gm,
            seed=derive_seed(seed, 2 * rounds), deadline=deadline, trace=trace,
        )
        current = swap_local_search(
            problem, current, seed=derive_seed(seed, 2 * rounds + 1),
            deadline=deadline, trace=trace, cache=cache,
        )
        value = objective(problem, current)
        rounds += 1
        if not value < current_value:
            break
        current_value = value
        if max_rounds is not None and rounds >= max_rounds:
            break
    return current
