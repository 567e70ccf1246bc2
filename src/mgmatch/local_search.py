"""Local search over feasible solutions.

Two neighborhoods are searched, both accepting strictly improving moves
only:

* GM local search splits one object out of the solution, re-matches it
  against the remaining cliques with construction.rematch, the step
  chain construction takes too (MDAP's dimensionwise variation), and
  keeps the merge when the objective drops. A re-match changes only the
  objective terms on object pairs that contain the re-matched object.
  objective() is the fsum of model.ObjectiveTerms, the terms read from
  the problem's slot index and tagged with their object pair, so GM
  local search keeps those terms and prices a candidate by replacing one
  object's row: the same float objective() returns, bit for bit.

* Swap local search considers, for a pair of cliques, jointly exchanging
  their vertices on any subset of objects. The change decomposes over
  objects into per-object-pair deltas, which turns picking the best joint
  swap into a pairwise binary energy handed to the qpbo module; objects
  joined by a forbidden single swap (a delta of math.inf) share one
  variable. swap_deltas computes the delta matrices of many clique pairs
  at once from the same problem-wide slot index (MgmProblem.slot_index)
  and per-solution sums of realized quadratic partners (Taillard's delta
  technique), which are recomputed only when the solution changes. Two rules skip work whose
  outcome is already known:

  - best_multiswap returns no-swap without an energy when contraction
    leaves one group (every other joint swap activates a forbidden swap
    or renames the two cliques), or when no weight between groups is
    negative (no labeling is below no-swap).
  - best_multiswap reads only the two cliques and their delta matrix, so
    a pair's outcome is kept, across passes and alternate rounds, and
    reused while the pair's freshly computed matrix is byte-equal to the
    one it came from.

Objectives are floats, math.inf for a solution holding a forbidden match:
a forbidden candidate never improves, and every allowed candidate
improves on a forbidden start.
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
from .gm import GmSolver, solve_gm
from .model import (
    Clique,
    CliquePartition,
    MgmProblem,
    ObjectiveTerms,
    assignment_slots,
    objective,
    validate,
)

# Clique pairs per swap_deltas call in swap local search: a few batches
# per pass, while an accepted swap discards at most one batch.
_CHUNK = 32


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
    swapped = apply_multiswap(solution, first, second, [0] * p + [1])
    return swapped if first.covers(p) or second.covers(p) else solution


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
    distinct cliques of the solution."""
    idx_first = _index_of(solution, first)
    idx_second = _index_of(solution, second)
    if idx_first == idx_second:
        raise ValueError("a swap needs two distinct cliques")
    objects = [p for p, bit in enumerate(bits) if bit]
    new_first, new_second = _swap_cliques(first, second, objects)
    return _replace(solution, {idx_first: new_first, idx_second: new_second})


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

    No-swap is returned without an energy when contraction leaves one
    group (every other joint swap is forbidden or renames the cliques) or
    no weight w is negative (the energy is then at least 0 everywhere).
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
    if len(variable) == 1:
        return no_swap
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
    cache: dict[tuple[Clique, Clique], tuple[bytes, tuple]] | None = None,
) -> CliquePartition:
    """Iterate joint multi-swaps over clique pairs, accepting strict profits.

    Clique pairs are visited in a per-pass seeded shuffle of their sorted
    order; a pass without any accepted swap terminates the search. Pairs
    whose cliques were changed earlier in the same pass are skipped. Delta
    matrices come from swap_deltas in chunks of _CHUNK pairs in visit
    order; an accepted swap drops the rest of the chunk, so the pairs after
    it are priced against the new solution.

    ``cache`` maps a clique pair (first, second) to (matrix bytes, (bits,
    predicted)): best_multiswap's outcome and the upper triangle of the
    matrix it came from. The outcome is reused while a fresh matrix is
    byte-equal; best_multiswap reads nothing else of the solution. Pass
    the same dict to later calls (as alternate does) to keep entries whose
    cliques are both still in the solution. An outcome of the seeded
    sweeps is kept too, so it is not redrawn with a later seed.
    """
    validate(problem, solution)
    cache = {} if cache is None else cache
    current = solution
    current_value = objective(problem, current)
    view = _swap_view(problem, current)
    upper = np.triu_indices(problem.d, 1)
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
        for key in [key for key in cache if not live.issuperset(key)]:
            del cache[key]
        priced: dict = {}  # pair -> its matrix, for the chunk being visited
        accepted_any = False
        for at, key in enumerate(pair_list):
            if not live.issuperset(key):
                continue
            if deadline is not None and time.monotonic() >= deadline:
                break
            if key not in priced:
                pending = (pair for pair in islice(pair_list, at, None) if live.issuperset(pair))
                chunk = list(islice(pending, _CHUNK))
                priced = dict(zip(chunk, swap_deltas(problem, current, chunk, view)))
            deltas = priced.pop(key)
            row = deltas[upper].tobytes()
            entry = cache.get(key)
            if entry is None or entry[0] != row:
                entry = row, best_multiswap(
                    problem, current, *key, seed=derive_seed(seed, passes), deltas=deltas
                )
                cache[key] = entry
            bits, predicted = entry[1]
            if not any(bits) or not predicted < 0.0:
                continue
            candidate = apply_multiswap(current, *key, bits)
            value = objective(problem, candidate)
            if value < current_value:
                current, current_value = candidate, value
                view = _swap_view(problem, current)
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
