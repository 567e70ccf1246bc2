"""Core data model for incomplete multi-graph matching (MGM).

An MGM problem consists of d objects (finite vertex sets) and sparse
pairwise cost tables. Linear costs price vertex-to-vertex matches, with
absent entries meaning the match is forbidden. Quadratic costs price
pairs of simultaneous matches, with absent entries meaning zero. Costs,
deltas and objectives are floats, math.inf for a forbidden match: a
solution holding one has objective math.inf, above every allowed one.

A feasible solution is a partition of the vertices into cliques, each
clique holding at most one vertex per object. Cycle consistency of the
induced multi-matching is automatic in this representation. Unmatched
vertices are implicit singletons and cost nothing.

The objective has one implementation, ObjectiveTerms: its terms read from
the problem's slot index and tagged by object pair. objective() sums them
all; local search re-prices a candidate by replacing one object's row.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class FeasibilityError(ValueError):
    """A partition violates the clique constraints of its problem."""


class DuplicateVertexError(FeasibilityError):
    """A vertex appears in more than one clique, or twice in one clique."""


Assignment = tuple[int, int]
QuadKey = tuple[Assignment, Assignment]


def _canonical_quad_key(a: Assignment, b: Assignment) -> QuadKey:
    return (a, b) if a <= b else (b, a)


class PairwiseCosts:
    """Sparse cost table of one matching instance between two vertex sets.

    ``linear[(i, s)]`` prices matching vertex i of the left set to vertex s
    of the right set; absent keys are forbidden. ``quadratic`` prices
    unordered pairs of distinct assignments under the canonical (lower,
    higher) key; absent keys are zero. An MgmProblem stores one table per
    object pair (left p, right q, p < q), and construction and local
    search build the GM instances they solve as tables of this type.

    The entries are stored as four read-only numpy arrays, arrays(): 24
    bytes per linear and 24 per quadratic entry. Linear entries are stored
    ascending in (i, s); a quadratic entry is stored as the positions
    x < y of its two assignments among them, and quadratic entries
    ascending in (x, y). So the arrays depend on the entries alone, not on
    the order they were given in. ``linear`` and ``quadratic`` are dict
    views of them in the same order, equal key for key and bit for bit,
    built on first access (about 200 bytes per entry) and kept.
    linear_cost, quad_get, the reduction's lookups and perfbench's probe
    build them; the solvers, equality and write_problem read the arrays or
    the problem's slot index instead. Tables are immutable.

    The constructor checks every entry, values finite included; _trusted
    skips the checks for arrays known to pass them: parsed ones and those
    derived from valid tables (aggregation, transposition, a linear part).
    """

    __slots__ = ("left_size", "right_size", "_arrays", "_dicts")

    def __init__(
        self,
        left_size: int,
        right_size: int,
        linear: Mapping[Assignment, float] | None = None,
        quadratic: Mapping[QuadKey, float] | None = None,
    ):
        linear = dict(linear or {})
        for (i, s), value in linear.items():
            if not (0 <= i < left_size and 0 <= s < right_size):
                raise IndexError(
                    f"assignment ({i},{s}) out of range for a {left_size}x{right_size} table"
                )
            if not math.isfinite(value):
                raise ValueError(f"linear entry ({i},{s}) is not finite: {value!r}")
        quad: dict[QuadKey, float] = {}
        for (a, b), value in (quadratic or {}).items():
            key = _canonical_quad_key(a, b)
            if not math.isfinite(value):
                raise ValueError(f"quadratic entry {key} is not finite: {value!r}")
            if key in quad:
                raise ValueError(f"duplicate quadratic entry {key}")
            if a[0] == b[0] or a[1] == b[1]:
                raise ValueError(f"quadratic entry {key} shares a vertex")
            if a not in linear or b not in linear:
                raise ValueError(f"quadratic entry {key} references a forbidden assignment")
            quad[key] = float(value)
        self._store(left_size, right_size, entry_arrays(linear, quad))

    @classmethod
    def _trusted(
        cls, left_size, right_size, lin_keys, lin_values, quad_pos=None, quad_values=None
    ) -> "PairwiseCosts":
        """A table over arrays() that pass every check of the constructor
        and are stored as it stores them (both kinds of entries sorted,
        positions x < y, int64 keys and positions, float64 values); the
        arrays are used, not copied, and made read-only."""
        table = cls.__new__(cls)
        if quad_pos is None:
            quad_pos, quad_values = np.empty((2, 0), np.int64), np.empty(0)
        table._store(left_size, right_size, (lin_keys, lin_values, quad_pos, quad_values))
        return table

    def _store(self, left_size, right_size, arrays) -> None:
        self.left_size, self.right_size = left_size, right_size
        self._arrays, self._dicts = arrays, None
        for view in arrays:
            view.flags.writeable = False

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The read-only entries: linear key rows (i, s) and values,
        ascending in (i, s), then quadratic position rows (x, y) and values,
        ascending in (x, y), where x < y are the positions of the entry's
        two assignments among the linear entries."""
        return self._arrays

    @property
    def linear(self) -> dict[Assignment, float]:
        return self._views()[0]

    @property
    def quadratic(self) -> dict[QuadKey, float]:
        return self._views()[1]

    def _views(self) -> tuple[dict, dict]:
        """The dict views of arrays(), in their order, built on first use."""
        if self._dicts is None:
            (i, s), lin_v, (x, y), quad_v = self._arrays
            keys = list(zip(i.tolist(), s.tolist()))
            key = keys.__getitem__
            self._dicts = (
                dict(zip(keys, lin_v.tolist())),
                dict(zip(zip(map(key, x.tolist()), map(key, y.tolist())), quad_v.tolist())),
            )
        return self._dicts

    def quad_get(self, a: Assignment, b: Assignment) -> float:
        return self.quadratic.get(_canonical_quad_key(a, b), 0.0)

    def transposed(self) -> "PairwiseCosts":
        """The same table with the left and right sets swapped."""
        (i, s), lin_v, (x, y), quad_v = self._arrays
        return PairwiseCosts._trusted(
            self.right_size, self.left_size, *_canonical(s, i, lin_v, x, y, quad_v)
        )

    def __eq__(self, other):
        if not isinstance(other, PairwiseCosts):
            return NotImplemented
        # Equal entries are stored alike, and values are finite.
        return (self.left_size, self.right_size) == (other.left_size, other.right_size) and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(self._arrays, other._arrays)
        )

    def __repr__(self):
        return (
            f"PairwiseCosts({self.left_size}x{self.right_size}, "
            f"{len(self._arrays[1])} linear, {len(self._arrays[3])} quadratic)"
        )


def entry_arrays(linear: Mapping, quadratic: Mapping) -> tuple[np.ndarray, ...]:
    """PairwiseCosts.arrays() of checked entry dicts with canonical
    quadratic keys."""
    n, m = len(linear), len(quadratic)
    i, s = np.fromiter(chain.from_iterable(linear), np.int64, 2 * n).reshape(n, 2).T
    position = dict(zip(linear, range(n))).__getitem__
    quad_pos = np.fromiter(map(position, chain.from_iterable(quadratic)), np.int64, 2 * m)
    lin_v, quad_v = (np.fromiter(d.values(), np.float64, len(d)) for d in (linear, quadratic))
    return _canonical(i, s, lin_v, *quad_pos.reshape(m, 2).T, quad_v)


def _canonical(i, s, lin_values, x, y, quad_values) -> tuple[np.ndarray, ...]:
    """PairwiseCosts.arrays() of linear entries (i, s) and quadratic ones
    joining the given linear entries at positions x and y, all in any
    order: the linear entries sorted ascending in (i, s), the quadratic
    ones re-ranked to positions x < y among them and sorted by (x, y)."""
    order = np.lexsort((s, i))
    rank = np.argsort(order)
    x, y = rank[x], rank[y]
    low, high = np.minimum(x, y), np.maximum(x, y)
    by_pos = np.argsort(low * len(order) + high)
    quad_pos = np.stack((low[by_pos], high[by_pos]))
    return np.stack((i[order], s[order])), lin_values[order], quad_pos, quad_values[by_pos]


class SlotIndex(NamedTuple):
    """Every stored table's entries in one problem-wide slot space.

    The assignment of vertex i of object p to vertex s of object q (p < q)
    has the code ``offsets[p, q] + i * sizes[q] + s``; its slot is its
    position in the sorted ``codes``, which end with a sentinel above
    every code, so a searchsorted position is always a valid slot, and
    ``linear`` holds the slots' costs. A quadratic entry joining slots
    low < high has the key ``low * len(codes) + high``; ``quad_keys``
    holds the keys sorted and ``quad_values`` their values, both followed
    by a sentinel.
    """

    offsets: np.ndarray
    codes: np.ndarray
    linear: np.ndarray
    quad_keys: np.ndarray
    quad_values: np.ndarray


class MgmProblem:
    """An incomplete MGM instance: object sizes plus one table per object pair.

    Tables are stored once for p < q; lookups with swapped roles are
    transparent. The instance is immutable after construction;
    slot_index() views all tables at once, built on first use.
    """

    __slots__ = ("sizes", "costs", "_slot_index")

    def __init__(
        self,
        sizes: Sequence[int],
        costs: Mapping[tuple[int, int], PairwiseCosts] | None = None,
    ):
        if len(sizes) < 2:
            raise ValueError("an MGM problem needs at least 2 objects")
        if any(n < 0 for n in sizes):
            raise ValueError("object sizes must be non-negative")
        self.sizes = tuple(int(n) for n in sizes)
        d = len(self.sizes)
        tables = dict(costs or {})
        for p, q in tables:
            if not (0 <= p < q < d):
                raise ValueError(f"cost table key ({p},{q}) is not an ordered object pair")
        full: dict[tuple[int, int], PairwiseCosts] = {}
        for p in range(d):
            for q in range(p + 1, d):
                shape = (self.sizes[p], self.sizes[q])
                table = tables.get((p, q))
                if table is None:
                    table = PairwiseCosts(*shape)
                elif (table.left_size, table.right_size) != shape:
                    raise ValueError(
                        f"cost table ({p},{q}) is {table.left_size}x{table.right_size}, "
                        f"objects have sizes {shape}"
                    )
                full[(p, q)] = table
        self.costs = full

    @property
    def d(self) -> int:
        return len(self.sizes)

    def slot_index(self) -> SlotIndex:
        """The read-only SlotIndex of the stored tables, built on first use."""
        if not hasattr(self, "_slot_index"):
            tables = [(pair, table.arrays()) for pair, table in self.costs.items()]
            n_lin = sum(len(arrays[1]) for _, arrays in tables)
            n_quad = sum(len(arrays[3]) for _, arrays in tables)
            sizes = np.array(self.sizes, np.int64)
            offsets = np.zeros((self.d, self.d), np.int64)
            codes, linear = np.empty(n_lin + 1, np.int64), np.empty(n_lin + 1)
            keys, quad_values = np.empty(n_quad + 1, np.int64), np.empty(n_quad + 1)
            # Tables fill consecutive code and slot ranges and store their
            # entries sorted, so codes and keys are sorted globally.
            base = lin_at = quad_at = 0
            for (p, q), ((i, s), lin_v, (x, y), quad_v) in tables:
                offsets[p, q] = base
                lin = slice(lin_at, lin_at + len(lin_v))
                codes[lin], linear[lin] = base + i * sizes[q] + s, lin_v
                quad = slice(quad_at, quad_at + len(quad_v))
                keys[quad], quad_values[quad] = (lin_at + x) * (n_lin + 1) + lin_at + y, quad_v
                base, lin_at, quad_at = base + sizes[p] * sizes[q], lin.stop, quad.stop
            codes[-1], linear[-1] = base, 0.0
            keys[-1], quad_values[-1] = (n_lin + 1) ** 2, 0.0
            self._slot_index = SlotIndex(offsets, codes, linear, keys, quad_values)
            for view in self._slot_index:
                view.flags.writeable = False
        return self._slot_index

    def table(self, p: int, q: int) -> tuple[PairwiseCosts, bool]:
        """Table for the pair plus whether the (p, q) roles are swapped."""
        if p < q:
            return self.costs[(p, q)], False
        return self.costs[(q, p)], True

    def pair_table(self, p: int, q: int) -> PairwiseCosts:
        """The table of the pair with object p on the left."""
        table, swapped = self.table(p, q)
        return table.transposed() if swapped else table

    def linear_cost(self, p: int, q: int, i: int, s: int) -> float:
        """The stored cost, math.inf for a forbidden match."""
        table, swapped = self.table(p, q)
        if swapped:
            i, s = s, i
        return table.linear.get((i, s), math.inf)

    def quad_cost(self, p: int, q: int, a: Assignment, b: Assignment) -> float:
        table, swapped = self.table(p, q)
        if swapped:
            a = (a[1], a[0])
            b = (b[1], b[0])
        return table.quad_get(a, b)

    def restrict(self, objects: Sequence[int]) -> "MgmProblem":
        """Sub-problem over the given objects, renumbered to 0..len(objects)-1."""
        objects = list(objects)
        if len(set(objects)) != len(objects):
            raise ValueError("restriction objects must be distinct")
        sizes = [self.sizes[p] for p in objects]
        costs = {
            (k, l): self.pair_table(p, q)
            for k, p in enumerate(objects)
            for l, q in enumerate(objects)
            if k < l
        }
        return MgmProblem(sizes, costs)

    def __eq__(self, other):
        if not isinstance(other, MgmProblem):
            return NotImplemented
        return self.sizes == other.sizes and self.costs == other.costs

    def __repr__(self):
        return f"MgmProblem(d={self.d}, sizes={self.sizes})"


class Clique:
    """Immutable set of mutually matched vertices, at most one per object."""

    __slots__ = ("_pairs", "_map")

    def __init__(self, members: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(members, Mapping):
            items = list(members.items())
        else:
            items = list(members)
        mapping: dict[int, int] = {}
        for p, v in items:
            if p in mapping:
                raise DuplicateVertexError(f"clique holds two vertices of object {p}")
            mapping[p] = v
        self._pairs = tuple(sorted(mapping.items()))
        self._map = mapping

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def objects(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._pairs)

    def get(self, p: int) -> int | None:
        return self._map.get(p)

    def covers(self, p: int) -> bool:
        return p in self._map

    def union(self, other: "Clique") -> "Clique":
        merged = dict(self._map)
        for p, v in other._pairs:
            if p in merged:
                raise DuplicateVertexError(f"union would cover object {p} twice")
            merged[p] = v
        return Clique(merged)

    def without_object(self, p: int) -> "Clique":
        if p not in self._map:
            return self
        remaining = dict(self._map)
        del remaining[p]
        return Clique(remaining)

    def __len__(self):
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs)

    def __contains__(self, pair):
        p, v = pair
        return self._map.get(p) == v

    def __eq__(self, other):
        if not isinstance(other, Clique):
            return NotImplemented
        return self._pairs == other._pairs

    def __lt__(self, other: "Clique"):
        return self._pairs < other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        inner = ", ".join(f"{p}:{v}" for p, v in self._pairs)
        return "Clique{" + inner + "}"


class CliquePartition:
    """A feasible MGM solution: disjoint cliques over the problem's vertices.

    Unmatched vertices may be stored as explicit singleton cliques or left
    implicit; equality ignores the difference. The stored clique order is
    deterministic and meaningful to callers that build matching instances
    against it.

    One index answers which clique holds which vertex, built by one loop
    over the members for the sizes asked and cached for the last sizes,
    compared by value. It has two read-only int64 views: columns(sizes),
    the clique of each vertex per covered object, and vertices(sizes), the
    vertex of each clique on each object; -1 marks no clique or no vertex.
    Building it raises IndexError for an object or vertex outside sizes
    and DuplicateVertexError for a vertex in two cliques.
    """

    __slots__ = ("cliques", "_index", "_canonical")

    def __init__(self, cliques: Iterable[Clique] = ()):
        self.cliques = tuple(c for c in cliques if len(c) > 0)
        self._index = None
        self._canonical = None

    def columns(self, sizes: Sequence[int]) -> dict[int, np.ndarray]:
        """Per covered object p, the index of the clique holding each of its
        sizes[p] vertices, -1 where no clique does."""
        return self._vertex_index(sizes)[1]

    def vertices(self, sizes: Sequence[int]) -> np.ndarray:
        """The vertex of each clique on each object, cliques x len(sizes),
        -1 where the clique covers none of the object's vertices."""
        return self._vertex_index(sizes)[2]

    def _vertex_index(self, sizes: Sequence[int]):
        sizes = tuple(sizes)
        if self._index is None or self._index[0] != sizes:
            d = len(sizes)
            columns: dict[int, list[int]] = {}
            flat = [-1] * (len(self.cliques) * d)
            for idx, clique in enumerate(self.cliques):
                for p, v in clique.pairs:
                    column = columns.get(p)
                    if column is None:
                        if not 0 <= p < d:
                            raise IndexError(f"object index {p} out of range")
                        column = columns[p] = [-1] * sizes[p]
                    if not 0 <= v < len(column):
                        raise IndexError(f"vertex {v} out of range for object {p}")
                    if column[v] >= 0:
                        raise DuplicateVertexError(f"vertex ({p},{v}) appears in two cliques")
                    column[v] = idx
                    flat[idx * d + p] = v
            arrays = {p: np.array(column, np.int64) for p, column in columns.items()}
            vertices = np.array(flat, np.int64).reshape(len(self.cliques), d)
            for view in (*arrays.values(), vertices):
                view.flags.writeable = False
            self._index = sizes, arrays, vertices
        return self._index

    def canonical(self) -> frozenset:
        """Cliques of size >= 2; singletons are normalization noise."""
        if self._canonical is None:
            self._canonical = frozenset(c for c in self.cliques if len(c) >= 2)
        return self._canonical

    def objects(self) -> set[int]:
        covered: set[int] = set()
        for clique in self.cliques:
            covered.update(clique.objects())
        return covered

    def normalized(self, sizes: Sequence[int]) -> "CliquePartition":
        """Materialize implicit singletons for every uncovered vertex."""
        columns = self.columns(sizes)
        extra = [
            Clique({p: v})
            for p in range(len(sizes))
            for v in range(sizes[p])
            if p not in columns or columns[p][v] < 0
        ]
        return CliquePartition(list(self.cliques) + extra)

    def __len__(self):
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)

    def __eq__(self, other):
        if not isinstance(other, CliquePartition):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return f"CliquePartition({list(self.cliques)!r})"


def singleton_partition(size: int, p: int) -> CliquePartition:
    """The trivial solution over one object: every vertex its own clique."""
    return CliquePartition(Clique({p: v}) for v in range(size))


def lookup_linear(problem: MgmProblem, p: int, q: int, i: int, s: int) -> float:
    """Linear cost of matching vertex i of object p to vertex s of object q,
    math.inf if the match is forbidden."""
    if p == q:
        raise ValueError("linear costs are defined between distinct objects")
    if not (0 <= p < problem.d and 0 <= q < problem.d):
        raise IndexError(f"object index out of range: ({p},{q})")
    if not (0 <= i < problem.sizes[p]):
        raise IndexError(f"vertex {i} out of range for object {p}")
    if not (0 <= s < problem.sizes[q]):
        raise IndexError(f"vertex {s} out of range for object {q}")
    return problem.linear_cost(p, q, i, s)


def validate(problem, solution: CliquePartition) -> None:
    """Raise unless the partition is feasible for the problem.

    Building the solution's vertex index checks index ranges and global
    disjointness; the one-vertex-per-object rule is structural in Clique.
    """
    solution.columns(problem.sizes)


def _ranges(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The ranges first[k]..last[k] - 1, one after another."""
    counts = last - first
    return np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)


def assignment_slots(problem: MgmProblem, p, q, x: np.ndarray, y: np.ndarray):
    """Slots, stored flags and forbidden flags of matching vertices x of
    objects p to vertices y of objects q, for object pairs p < q along the
    last axis; -1 stands for no vertex, which is neither and is given the
    sentinel slot without a search."""
    index = problem.slot_index()
    present = (x >= 0) & (y >= 0)
    code = (index.offsets[p, q] + x * np.array(problem.sizes, np.int64)[q] + y)[present]
    slots = np.full(present.shape, len(index.codes) - 1)
    slots[present] = np.searchsorted(index.codes, code)
    stored = np.zeros_like(present)
    stored[present] = index.codes[slots[present]] == code
    return slots, stored, present & ~stored


class ObjectiveTerms:
    """The objective's terms for one solution, as flat arrays: ``pairs``
    tags each of the ``values`` with its object pair p < q as p * d + q.

    A pair's terms are the slot-index costs of the assignments stored
    among the cliques covering both objects, and the slot-index quadratic
    entries whose two slots are both realized; a present assignment that
    is not stored adds math.inf, which makes the objective math.inf. The
    cliques' vertices are read from the solution's vertex index
    (CliquePartition.vertices). objective() is value() of a fresh
    instance. Re-matching object p (split, then merge) changes only the
    terms on pairs that contain p, so local search prices a candidate as
    math.fsum over the unchanged terms plus p's new row: the same terms,
    and since fsum rounds the exact sum correctly in any order, the same
    float objective() returns for the candidate.
    """

    def __init__(self, problem: MgmProblem, solution: CliquePartition):
        self.problem = problem
        vertices = solution.vertices(problem.sizes)
        self.pairs, self.values = self._terms(vertices, *np.triu_indices(problem.d, 1))

    def _terms(self, vertices: np.ndarray, p: np.ndarray, q: np.ndarray):
        """Tags and values of the terms on the object pairs p < q among the
        cliques whose vertices are the rows of ``vertices``. A table's slots
        are one range lo..hi - 1 of codes and its quadratic keys the range
        [lo * N, hi * N), so only the slots and entries of the pairs' tables
        are read, in index order."""
        problem, index = self.problem, self.problem.slot_index()
        sizes = np.array(problem.sizes, np.int64)
        start = index.offsets[p, q]
        lo, hi = np.searchsorted(index.codes, (start, start + sizes[p] * sizes[q]))
        first, last = np.searchsorted(index.quad_keys, np.stack((lo, hi)) * len(index.codes))
        keys = _ranges(first, last)
        slots, stored, forbidden = assignment_slots(
            problem, p, q, vertices[:, p], vertices[:, q]
        )
        tag = p * problem.d + q
        pair = np.broadcast_to(tag, slots.shape)
        marked = np.zeros(len(index.codes), bool)
        marked[slots[stored]] = True
        # An entry's two slots lie in its table; it is realized when both are.
        low, high = np.divmod(index.quad_keys[keys], len(index.codes))
        both = marked[low] & marked[high]
        return (
            np.concatenate((pair[stored], pair[forbidden], np.repeat(tag, last - first)[both])),
            np.concatenate((
                index.linear[slots[stored]],
                np.full(np.count_nonzero(forbidden), math.inf),
                index.quad_values[keys[both]],
            )),
        )

    def row(self, p: int, solution: CliquePartition) -> tuple[np.ndarray, np.ndarray]:
        """The tags and values of the solution's terms on the pairs that
        contain object p, read from the cliques that cover p and from p's
        d - 1 tables."""
        problem = self.problem
        vertices = solution.vertices(problem.sizes)
        others = np.array([q for q in range(problem.d) if q != p], np.int64)
        return self._terms(
            vertices[vertices[:, p] >= 0], np.minimum(others, p), np.maximum(others, p)
        )

    def _kept(self, p: int) -> np.ndarray:
        d = self.problem.d
        return (self.pairs // d != p) & (self.pairs % d != p)

    def value(self, p: int | None = None, row=None) -> float:
        """The objective, or the candidate's with object p's row replaced."""
        values = self.values
        if p is not None:
            values = np.concatenate((values[self._kept(p)], row[1]))
        return math.fsum(values.tolist())

    def replace(self, p: int, row) -> None:
        kept = self._kept(p)
        self.pairs = np.concatenate((self.pairs[kept], row[0]))
        self.values = np.concatenate((self.values[kept], row[1]))


def objective(problem: MgmProblem, solution: CliquePartition) -> float:
    """Total cost of a feasible solution of an MgmProblem.

    Linear costs are summed within each clique over its covered object
    pairs; quadratic costs once per unordered pair of distinct cliques over
    their shared object pairs. Any forbidden within-clique match makes the
    whole objective math.inf. The value is math.fsum over the
    ObjectiveTerms, independent of clique order. A solution of a padded
    reduction.CompleteProblem is priced on its base problem, as
    objective(complete.base, complete_to_incomplete(complete, padded)).
    """
    validate(problem, solution)
    return ObjectiveTerms(problem, solution).value()
