"""Core data model for incomplete multi-graph matching (MGM).

An MGM problem consists of d objects (finite vertex sets) and sparse
pairwise cost tables. Linear costs price vertex-to-vertex matches, with
absent entries meaning the match is forbidden. Quadratic costs price
pairs of simultaneous matches, with absent entries meaning zero. Costs,
deltas and objectives are floats, math.inf for a forbidden match: a
solution holding one has objective math.inf, above every allowed one.

A feasible solution is a partition of the vertices into cliques, each
clique holding at most one vertex per object. A Clique is the ascending
tuple of its (object, vertex) members, so cliques hash, compare and sort
as those tuples do. Cycle consistency of the induced multi-matching is
automatic in this representation. Unmatched vertices are implicit
singletons and cost nothing.

The objective has one implementation: objective() is math.fsum over
objective_terms, read from the problem's slot index. matching_cost prices
a matching of one table the same way; GM local search compares two
matchings of a re-match's table with it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class FeasibilityError(ValueError):
    """A partition violates the clique constraints of its problem."""


class DuplicateVertexError(FeasibilityError):
    """A vertex appears in more than one clique, or twice in one clique."""


Assignment = tuple[int, int]
QuadKey = tuple[Assignment, Assignment]

# The absolute costs of a problem must sum to less than this. Every sum the
# solver forms (an objective, a delta, a GM gain, a binary energy) is a
# small multiple of that total at most, so it stays far from overflow.
MAX_COST_TOTAL = 1e300


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
    perfbench's probe, the test oracles and library callers build them;
    the solvers, equality and write_problem read the arrays or the
    problem's slot index instead. Tables are immutable.

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
            # operator.index rejects a non-integer index, which the int64 keys
            # would truncate.
            if not (0 <= operator.index(i) < left_size and 0 <= operator.index(s) < right_size):
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

    Tables are stored once for p < q; table() and pair_table() serve
    either role order. The instance is immutable after construction;
    slot_index() views all tables at once, built on first use. The
    absolute costs must sum to less than MAX_COST_TOTAL (ValueError).
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
        with np.errstate(over="ignore"):  # an overflow to inf fails the check
            total = sum(float(np.abs(v).sum()) for t in full.values() for v in t.arrays()[1::2])
        if not total < MAX_COST_TOTAL:
            raise ValueError(
                f"the absolute costs sum to {total:g}; they must sum to less than {MAX_COST_TOTAL:g}"
            )
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


class Clique(tuple):
    """Immutable set of mutually matched vertices, at most one per object:
    the tuple of its (object, vertex) members in ascending order.

    The constructor takes a mapping {object: vertex} or an iterable of
    members, sorts them and raises DuplicateVertexError when two share an
    object. Equality, hashing, order, len, iteration and membership are
    the tuple's.
    """

    __slots__ = ()

    def __new__(cls, members: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(members, Mapping):
            members = members.items()
        clique = tuple.__new__(cls, sorted((p, v) for p, v in members))
        for (p, _), (q, _) in zip(clique, clique[1:]):
            if p == q:
                raise DuplicateVertexError(f"clique holds two vertices of object {p}")
        return clique

    def objects(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self)

    def get(self, p: int) -> int | None:
        at = bisect_left(self, (p,))
        return self[at][1] if at < len(self) and self[at][0] == p else None

    def covers(self, p: int) -> bool:
        return self.get(p) is not None

    def union(self, other: "Clique") -> "Clique":
        return Clique(self + other)

    def without_object(self, p: int) -> "Clique":
        if not self.covers(p):
            return self
        return tuple.__new__(Clique, (m for m in self if m[0] != p))

    def __repr__(self):
        inner = ", ".join(f"{p}:{v}" for p, v in self)
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
                for p, v in clique:
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


def validate(problem, solution: CliquePartition) -> None:
    """Raise unless the partition is feasible for the problem.

    Building the solution's vertex index checks index ranges and global
    disjointness; the one-vertex-per-object rule is structural in Clique.
    """
    solution.columns(problem.sizes)


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


def objective_terms(problem: MgmProblem, solution: CliquePartition) -> np.ndarray:
    """The objective's terms, read from the problem's slot index and the
    solution's vertex index (CliquePartition.vertices): the costs of the
    assignments stored among the cliques, a math.inf for each present
    assignment that is not stored, then every quadratic entry whose two
    slots are both realized."""
    index = problem.slot_index()
    vertices = solution.vertices(problem.sizes)
    p, q = np.triu_indices(problem.d, 1)
    slots, stored, forbidden = assignment_slots(problem, p, q, vertices[:, p], vertices[:, q])
    marked = np.zeros(len(index.codes), bool)
    marked[slots[stored]] = True
    low, high = np.divmod(index.quad_keys[:-1], len(index.codes))
    return np.concatenate((
        index.linear[slots[stored]],
        np.full(np.count_nonzero(forbidden), math.inf),
        index.quad_values[:-1][marked[low] & marked[high]],
    ))


def objective(problem: MgmProblem, solution: CliquePartition) -> float:
    """Total cost of a feasible solution of an MgmProblem.

    Linear costs are summed within each clique over its covered object
    pairs; quadratic costs once per unordered pair of distinct cliques over
    their shared object pairs. Any forbidden within-clique match makes the
    whole objective math.inf. The value is math.fsum over the
    objective_terms, independent of clique order.
    """
    validate(problem, solution)
    return math.fsum(objective_terms(problem, solution).tolist())


def matching_cost(sub: PairwiseCosts, pairs: Iterable[Assignment]) -> float:
    """The cost of a matching of the table's nodes: math.fsum over the
    linear costs of its pairs (a, b) and the quadratic entries between two
    of them, math.inf when a pair is not stored (a forbidden match)."""
    (i, s), lin_v, (x, y), quad_v = sub.arrays()
    codes = np.append(i * sub.right_size + s, -1)  # the sentinel stores no pair
    wanted = np.array([a * sub.right_size + b for a, b in pairs], np.int64)
    at = np.searchsorted(codes[:-1], wanted)
    if not np.array_equal(codes[at], wanted):
        return math.inf
    chosen = np.zeros(len(lin_v), bool)
    chosen[at] = True
    return math.fsum(np.concatenate((lin_v[at], quad_v[chosen[x] & chosen[y]])).tolist())
