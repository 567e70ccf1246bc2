"""Local search over feasible solutions.

Two neighborhoods are searched, both accepting strictly improving moves
only:

* GM local search splits one object p out of the solution, re-matches it
  against the remaining cliques with construction.rematch, the step
  chain construction takes too (MDAP's dimensionwise variation), and
  keeps the merge when it is cheaper. The re-match's table holds exactly
  the objective terms that involve p, and the solution itself matches
  p's vertices to the remaining cliques in that table, so the re-match
  problem prices the move: the merge is kept when its matching costs
  less there (model.matching_cost) than the incumbent's matching by more
  than gm._MIN_GAIN, the GM heuristic's margin. In exact arithmetic the
  two costs differ by the objective change; the table's entries are
  rounded sums, so a smaller gain may be rounding alone, and the margin
  keeps such a move from being accepted without lowering the objective.

* Swap local search considers, for a pair of cliques, jointly exchanging
  their vertices on any subset of objects. The change decomposes over
  objects into per-object-pair deltas, which turns picking the best joint
  swap into a pairwise binary energy handed to the qpbo module; objects
  joined by a forbidden single swap (a delta of math.inf) share one
  variable. swap_deltas computes the delta matrices of many clique pairs
  at once from the same problem-wide slot index (MgmProblem.slot_index)
  and per-solution sums of realized quadratic partners (Taillard's delta
  technique), which are recomputed only when the solution changes. Three
  rules skip work whose outcome is already known:

  - best_multiswap returns no-swap without an energy when no weight
    between groups is negative (no labeling is below no-swap); one group
    leaves no weight between groups.
  - Only clique pairs that a stored linear entry joins are visited: with
    no stored assignment between the two cliques, every joint swap but
    the empty one and the renaming of the two cliques is forbidden, and
    best_multiswap returns no-swap for both.
  - best_multiswap reads only the two cliques and their delta matrix, and
    of the solution the matrix reads only the slot values
    (_SwapView.values) of the assignments among the two cliques'
    vertices. So a pair's outcome is kept in a SwapCache, across passes
    and alternate rounds, until one of those values changes or a clique
    leaves the solution.

Objectives are floats, math.inf for a solution holding a forbidden match.
Swap local search never accepts a forbidden candidate. GM local search
never creates a forbidden match, and it removes those of a forbidden
start: an incumbent matching with a forbidden pair costs math.inf, so
any re-match of that object is accepted, and a cycle over all objects
leaves the solution allowed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations, islice
from random import Random
from typing import NamedTuple, Sequence

import numpy as np

from . import qpbo
from .construction import derive_seed, rematch
from .gm import _MIN_GAIN, GmSolver, solve_gm
from .model import (
    Clique,
    CliquePartition,
    MgmProblem,
    assignment_slots,
    matching_cost,
    objective,
    validate,
)

# Clique pairs per swap_deltas call in swap local search: a few batches
# per pass, while an accepted swap discards at most one batch.
_CHUNK = 32


@dataclass
class TraceRecorder:
    """Objective-over-time log; one entry per accepted improvement whose
    objective is finite."""

    start: float = field(default_factory=time.monotonic)
    entries: list[tuple[float, str, float]] = field(default_factory=list)

    def record(self, phase: str, value: float) -> None:
        """Log value under phase; a non-finite value is dropped."""
        if math.isfinite(value):
            elapsed_ms = (time.monotonic() - self.start) * 1000.0
            self.entries.append((elapsed_ms, phase, value))

    def lines(self) -> list[str]:
        return [f"{ms:.3f},{phase},{value!r}" for ms, phase, value in self.entries]


def _swap_cliques(first: Clique, second: Clique, objects) -> tuple[Clique, Clique]:
    moved = set(objects)
    return tuple(
        Clique([m for m in mine if m[0] not in moved] + [m for m in theirs if m[0] in moved])
        for mine, theirs in ((first, second), (second, first))
    )


class _SwapView(NamedTuple):
    """What swap_deltas reads of a solution besides its vertex index
    (CliquePartition.vertices). Per clique: its position and
    assignment_slots of its own vertex pairs. Per slot of the problem's
    SlotIndex: the linear cost plus the realized partner sum, the
    quadratic entries joining the slot to an assignment inside a clique."""

    position: dict[Clique, int]
    own: tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray


def _swap_view(problem: MgmProblem, solution: CliquePartition) -> _SwapView:
    index = problem.slot_index()
    vertices = solution.vertices(problem.sizes)
    p, q = np.triu_indices(problem.d, 1)
    own = assignment_slots(problem, p, q, vertices[:, p], vertices[:, q])
    realized = np.zeros(len(index.codes), bool)
    realized[own[0][own[1]]] = True
    low, high = np.divmod(index.quad_keys[:-1], len(index.codes))
    values = index.quad_values[:-1]
    # Each quadratic entry counts toward each of its slots while the other
    # one lies inside a clique.
    partner_sums = np.bincount(
        np.concatenate((low, high)),
        np.where(realized[np.concatenate((high, low))], np.concatenate((values, values)), 0.0),
        len(index.codes),
    )
    position = {clique: k for k, clique in enumerate(solution.cliques)}
    return _SwapView(position, own, index.linear + partner_sums)


def swap_deltas(
    problem: MgmProblem,
    solution: CliquePartition,
    pairs: Sequence[tuple[Clique, Clique]],
    view: _SwapView | None = None,
) -> np.ndarray:
    """Swap delta matrices of clique pairs (first, second) of a solution.

    Returns an array of shape (len(pairs), d, d). Entry (p, q) of a pair's
    matrix is the change on object pair (p, q) when the swap of object p is
    made alone, math.inf if the swap would create a forbidden match. The
    matrix is symmetric (swapping q alone puts the same two assignments
    into the two cliques, in the other clique order), and row p sums to
    the objective change of swapping p alone. For objects p < q and a
    pair with vertices a_p, a_q (first) and b_p, b_q (second), the terms
    that involve the pair's assignments are, with v = linear cost plus
    realized partner sum (_SwapView.values):

    * before: v(a_p, a_q) + v(b_p, b_q) minus their mutual quadratic
      entry, which each side's partner sum counts;
    * after swapping p: v(b_p, a_q) + v(a_p, b_q) plus their mutual entry,
      the only partner the swap realizes.

    Absent vertices contribute nothing, so entries of objects neither
    clique covers are 0; the entry is math.inf if any present assignment is
    forbidden. ``view`` is _swap_view(problem, solution) when the caller
    has it.
    """
    if view is None:
        view = _swap_view(problem, solution)
    try:
        at = np.array([[view.position[c] for c in pair] for pair in pairs], np.int64)
    except KeyError as error:
        raise ValueError(f"{error.args[0]!r} is not part of the solution") from None
    first, second = at.reshape(-1, 2).T
    if np.any(first == second):
        raise ValueError("swap deltas need two distinct cliques")
    index = problem.slot_index()
    p, q = np.triu_indices(problem.d, 1)
    vertices = solution.vertices(problem.sizes)
    a, b = vertices[first], vertices[second]
    kept_a, kept_b = tuple(own[first] for own in view.own), tuple(own[second] for own in view.own)
    moved_a = assignment_slots(problem, p, q, b[:, p], a[:, q])  # first after swapping p
    moved_b = assignment_slots(problem, p, q, a[:, p], b[:, q])

    def value(x):
        return np.where(x[1], view.values[x[0]], 0.0)

    def mutual(x, y):
        """The quadratic entry joining two stored assignments, else 0."""
        key = np.minimum(x[0], y[0]) * len(index.codes) + np.maximum(x[0], y[0])
        found = np.searchsorted(index.quad_keys, key)
        hit = x[1] & y[1] & (index.quad_keys[found] == key)
        return np.where(hit, index.quad_values[found], 0.0)

    before = value(kept_a) + value(kept_b) - mutual(kept_a, kept_b)
    after = value(moved_a) + value(moved_b) + mutual(moved_a, moved_b)
    forbidden = kept_a[2] | kept_b[2] | moved_a[2] | moved_b[2]
    rows = np.zeros((len(first), problem.d, problem.d))
    rows[:, p, q] = rows[:, q, p] = np.where(forbidden, math.inf, after - before)
    return rows


def apply_multiswap(
    solution: CliquePartition, first: Clique, second: Clique, bits: Sequence[int]
) -> CliquePartition:
    """Perform the single swaps selected by the bit vector jointly on two
    distinct cliques of the solution. Emptied cliques are dropped."""
    cliques = list(solution.cliques)
    for clique in (first, second):
        if clique not in cliques:
            raise ValueError(f"{clique!r} is not part of the solution")
    at_first, at_second = cliques.index(first), cliques.index(second)
    if at_first == at_second:
        raise ValueError("a swap needs two distinct cliques")
    objects = [p for p, bit in enumerate(bits) if bit]
    cliques[at_first], cliques[at_second] = _swap_cliques(first, second, objects)
    return CliquePartition(cliques)


def best_multiswap(
    problem: MgmProblem,
    solution: CliquePartition,
    first: Clique,
    second: Clique,
    seed: int = 0,
    deltas: np.ndarray | None = None,
) -> tuple[tuple[int, ...], float]:
    """Best joint swap between two cliques via binary energy minimization.

    A forbidden single swap is symmetric, so an acceptable joint swap gives
    both its objects the same bit: objects joined by forbidden swaps are
    contracted into one variable. Tables inside a group drop out (their
    (0,0) and (1,1) entries are 0), tables between groups add up, and no
    penalty is needed; minimizing from no-swap is exact up to
    qpbo.EXACT_ENUMERATION_LIMIT groups. The delta matrix is symmetric, so
    each table between groups is (0, w, w, 0). Returns the bit vector over
    all objects and the predicted objective change (0 for no-swap).

    No-swap is returned without an energy when no weight w between groups
    is negative (the energy is then at least 0 everywhere), which holds
    when contraction leaves one group (every other joint swap is forbidden
    or renames the cliques).
    ``deltas`` is this pair's swap_deltas matrix in ``solution`` when the
    caller has it; it is read, not changed. The seed matters only above
    the enumeration limit, for energies that are not submodular.
    """
    if deltas is None:
        (deltas,) = swap_deltas(problem, solution, [(first, second)])
    no_swap = ((0,) * problem.d, 0.0)
    involved = sorted(set(first.objects()) | set(second.objects()))
    weights = deltas[np.ix_(involved, involved)]
    label = list(range(len(involved)))  # the smallest member of each group
    for i, j in np.argwhere(np.isinf(np.triu(weights, 1))).tolist():
        if label[i] != label[j]:
            keep, drop = sorted((label[i], label[j]))
            label = [keep if g == drop else g for g in label]
    variable = {g: k for k, g in enumerate(sorted(set(label)))}
    group = np.array([variable[g] for g in label])
    i, j = np.triu_indices(len(involved), 1)
    w = weights[i, j]
    between = (group[i] != group[j]) & (w != 0.0)
    low = np.minimum(group[i], group[j])[between].tolist()
    high = np.maximum(group[i], group[j])[between].tolist()
    totals: dict[tuple[int, int], float] = {}
    for key, value in zip(zip(low, high), w[between].tolist()):
        totals[key] = totals.get(key, 0.0) + value
    if all(total >= 0.0 for total in totals.values()):
        return no_swap
    pairwise = {key: (0.0, total, total, 0.0) for key, total in totals.items()}
    energy = qpbo.BinaryEnergy._trusted(len(variable), pairwise=pairwise)
    labels = qpbo.minimize(energy, (0,) * energy.n, seed=seed)
    bits = [0] * problem.d
    for p, g in zip(involved, group.tolist()):
        bits[p] = labels[g]
    return tuple(bits), qpbo.evaluate(energy, labels)


def gm_local_search(
    problem: MgmProblem,
    solution: CliquePartition,
    order: Sequence[int] | None = None,
    gm: GmSolver = solve_gm,
    seed: int = 0,
    deadline: float = math.inf,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Split-rematch-merge local search along a cyclic object sequence.

    Stops after a full cycle over the objects without an accepted move, or
    at the deadline (a time.monotonic() value). A move re-matches object p
    and is accepted when its matching costs less in the re-match's table
    than the incumbent's by more than _MIN_GAIN: vertex v of p matched to
    the clique that held it, without p, and unmatched where that clique held
    v alone. A forbidden incumbent costs math.inf, and math.inf - _MIN_GAIN
    is math.inf, so every allowed re-match of it is accepted. objective()
    runs only to trace an accepted move.
    """
    validate(problem, solution)
    order = list(order) if order is not None else list(range(problem.d))
    current = solution.normalized(problem.sizes)
    stale = 0
    step = 0
    while stale < len(order) and time.monotonic() < deadline:
        p = order[step % len(order)]
        step += 1
        cliques, incumbent = [], []
        for clique in current:
            rest = clique.without_object(p)
            if len(rest):
                if clique.covers(p):
                    incumbent.append((clique.get(p), len(cliques)))
                cliques.append(rest)
        split = CliquePartition(cliques)
        sub, matching, candidate = rematch(problem, p, split, gm, derive_seed(seed, step))
        if matching_cost(sub, matching) < matching_cost(sub, incumbent) - _MIN_GAIN:
            current = candidate
            stale = 0
            if trace is not None:
                trace.record("gm-ls", objective(problem, current))
        else:
            stale += 1
    return current


@dataclass
class SwapCache:
    """Swap local search's kept outcomes, handed from call to call.

    ``outcomes`` maps a clique pair (first, second), first < second, to
    best_multiswap's (bits, predicted) there. ``values`` is the
    _SwapView.values array of the solution the cache was last re-based
    on; every outcome holds in any solution with both cliques whose
    values agree with it on the slots among the two cliques' vertices.
    """

    outcomes: dict[tuple[Clique, Clique], tuple[tuple[int, ...], float]] = field(
        default_factory=dict
    )
    values: np.ndarray | None = None

    def rebase(self, problem: MgmProblem, solution: CliquePartition, view: _SwapView) -> None:
        """Re-base the cache on the solution's view: drop the outcomes of
        pairs with a clique that left the solution, or whose matrix reads a
        value that changed bitwise. A changed slot with its ends in two
        cliques is read by that pair only, one inside a clique by every
        pair holding it."""
        outcomes = self.outcomes
        if self.values is None:
            outcomes.clear()
        elif outcomes:
            n = len(solution.cliques)
            inside, read = np.zeros(n, bool), np.zeros((n, n), bool)
            changed = np.flatnonzero(self.values.view(np.int64) != view.values.view(np.int64))
            for cx, cy in _table_ends(problem, solution, changed):
                held = (cx >= 0) & (cy >= 0)
                inside[cx[held & (cx == cy)]] = True
                between = held & (cx != cy)
                read[cx[between], cy[between]] = read[cy[between], cx[between]] = True
            at = view.position
            for key in list(outcomes):
                i, j = at.get(key[0], -1), at.get(key[1], -1)
                if i < 0 or j < 0 or inside[i] or inside[j] or read[i, j]:
                    del outcomes[key]
        self.values = view.values


def _table_ends(
    problem: MgmProblem, solution: CliquePartition, slots: np.ndarray | None = None
):
    """Per table of the problem's SlotIndex, the positions in
    solution.cliques of the cliques holding the two vertex ends of its
    slots, or of those among the sorted ``slots``; -1 where no clique
    holds the vertex. One table at a time, so no array spans all slots."""
    index = problem.slot_index()
    sizes = np.array(problem.sizes, np.int64)
    columns = solution.columns(problem.sizes)
    p, q = np.triu_indices(problem.d, 1)
    bases = index.offsets[p, q]
    bounds = np.searchsorted(index.codes, (bases, bases + sizes[p] * sizes[q]))
    if slots is not None:
        bounds = np.searchsorted(slots, bounds)
    for t in np.flatnonzero(bounds[1] > bounds[0]).tolist():
        at = slice(bounds[0, t], bounds[1, t])
        code = index.codes[at] if slots is None else index.codes[slots[at]]
        x, y = np.divmod(code - bases[t], sizes[q[t]])
        yield tuple(
            columns[obj][v] if obj in columns else np.full(len(v), -1)
            for obj, v in ((p[t], x), (q[t], y))
        )


def _joined(problem: MgmProblem, solution: CliquePartition, view: _SwapView, pairs) -> list:
    """The clique pairs of the solution that a stored linear entry joins,
    in their given order."""
    n = len(solution.cliques)
    joined = np.zeros((n, n), bool)
    for cx, cy in _table_ends(problem, solution):
        between = (cx >= 0) & (cy >= 0) & (cx != cy)
        joined[cx[between], cy[between]] = True
    joined |= joined.T
    at = view.position
    return [pair for pair in pairs if joined[at[pair[0]], at[pair[1]]]]


def swap_local_search(
    problem: MgmProblem,
    solution: CliquePartition,
    seed: int = 0,
    deadline: float = math.inf,
    trace: TraceRecorder | None = None,
    cache: SwapCache | None = None,
) -> CliquePartition:
    """Iterate joint multi-swaps over clique pairs, accepting strict profits.

    Clique pairs are visited in a per-pass seeded shuffle of their sorted
    order, of which only the pairs that a stored linear entry joins are
    kept (no other pair has an allowed swap); a pass without any accepted
    swap terminates the search. Pairs whose cliques were changed earlier
    in the same pass are skipped.

    A pair's outcome comes from ``cache`` while it holds one; otherwise
    the pair is priced by swap_deltas, in chunks of _CHUNK uncached pairs
    in visit order, and its best_multiswap outcome is cached. An accepted
    swap drops the rest of the chunk, so the pairs after it are priced
    against the new solution, and re-bases the cache on the new solution:
    outcomes whose cliques left it or whose matrix reads a changed slot
    value are dropped. Pass the same SwapCache to later calls (as
    alternate does); on entry it is re-based the same way. An outcome of
    the seeded sweeps is kept too, so it is not redrawn with a later seed
    while its inputs are unchanged.
    """
    validate(problem, solution)
    cache = SwapCache() if cache is None else cache
    current = solution
    current_value = objective(problem, current)
    view = _swap_view(problem, current)
    cache.rebase(problem, current, view)
    outcomes = cache.outcomes
    passes = 0
    while time.monotonic() < deadline:
        pairs = list(combinations(sorted(current.cliques), 2))
        Random(derive_seed(seed, passes)).shuffle(pairs)
        pairs = _joined(problem, current, view, pairs)
        live = set(current.cliques)
        priced: dict = {}  # pair -> its matrix, for the chunk being visited
        accepted_any = False
        for at, key in enumerate(pairs):
            if not live.issuperset(key):
                continue
            if time.monotonic() >= deadline:
                break
            outcome = outcomes.get(key)
            if outcome is None:
                if key not in priced:
                    pending = (
                        pair
                        for pair in islice(pairs, at, None)
                        if live.issuperset(pair) and pair not in outcomes
                    )
                    chunk = list(islice(pending, _CHUNK))
                    priced = dict(zip(chunk, swap_deltas(problem, current, chunk, view)))
                outcome = outcomes[key] = best_multiswap(
                    problem, current, *key, seed=derive_seed(seed, passes), deltas=priced.pop(key)
                )
            bits, predicted = outcome
            if not any(bits) or not predicted < 0.0:
                continue
            candidate = apply_multiswap(current, *key, bits)
            value = objective(problem, candidate)
            if value < current_value:
                current, current_value = candidate, value
                view = _swap_view(problem, current)
                cache.rebase(problem, current, view)
                live = set(current.cliques)
                priced = {}
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
    deadline: float = math.inf,
    trace: TraceRecorder | None = None,
) -> CliquePartition:
    """Alternate GM local search and swap local search until neither improves.

    The deadline cuts the search off mid-round, keeping the best solution
    found so far. One SwapCache serves every round.
    """
    current = solution.normalized(problem.sizes)
    current_value = objective(problem, current)
    cache = SwapCache()
    rounds = 0
    while time.monotonic() < deadline:
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
    return current
