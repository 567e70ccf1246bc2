"""Core data model for incomplete multi-graph matching (MGM).

An MGM problem consists of d objects (finite vertex sets) and sparse
pairwise cost tables. Linear costs price vertex-to-vertex matches, with
absent entries meaning the match is forbidden. Quadratic costs price
pairs of simultaneous matches, with absent entries meaning zero.

A feasible solution is a partition of the vertices into cliques, each
clique holding at most one vertex per object. Cycle consistency of the
induced multi-matching is automatic in this representation. Unmatched
vertices are implicit singletons and cost nothing.

The objective has one implementation, ObjectiveTerms: its terms grouped
by object pair. objective() sums all groups; local search re-prices a
candidate by replacing one object's row.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np


class Forbidden:
    """Sentinel for a disallowed match. Absorbs addition, compares as +inf."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __neg__(self):
        return self

    def __repr__(self):
        return "Forbidden"

    def __reduce__(self):
        return (Forbidden, ())


FORBIDDEN = Forbidden()

Cost = Union[float, Forbidden]


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

    The constructor checks every entry, values finite included; _trusted
    skips the checks for tables known to pass them: parsed ones and those
    derived from valid tables (aggregation, transposition, a linear part).
    Tables are immutable; arrays() views the entries, built on first use.
    """

    __slots__ = ("left_size", "right_size", "linear", "quadratic", "_partners", "_arrays")

    def __init__(
        self,
        left_size: int,
        right_size: int,
        linear: Mapping[Assignment, float] | None = None,
        quadratic: Mapping[QuadKey, float] | None = None,
    ):
        self.left_size = left_size
        self.right_size = right_size
        self.linear: dict[Assignment, float] = dict(linear or {})
        for (i, s), value in self.linear.items():
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
            if a not in self.linear or b not in self.linear:
                raise ValueError(f"quadratic entry {key} references a forbidden assignment")
            quad[key] = float(value)
        self.quadratic = quad
        self._index_partners()

    @classmethod
    def _trusted(cls, left_size, right_size, linear, quadratic=None) -> "PairwiseCosts":
        """A table over dicts that pass every check of the constructor
        (canonical keys, float values); the dicts are used, not copied."""
        table = cls.__new__(cls)
        table.left_size, table.right_size = left_size, right_size
        table.linear, table.quadratic = linear, quadratic or {}
        table._index_partners()
        return table

    def _index_partners(self) -> None:
        partners: dict[Assignment, list[tuple[Assignment, float]]] = {}
        for (x, y), value in self.quadratic.items():
            partners.setdefault(x, []).append((y, value))
            partners.setdefault(y, []).append((x, value))
        self._partners = partners

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only entries in dict order, built on first use: linear key
        rows (i, s) and values, quadratic key rows (i, s, j, t) and values."""
        if not hasattr(self, "_arrays"):
            self._arrays = (
                np.array(list(self.linear), np.int64).reshape(-1, 2).T.copy(),
                np.array(list(self.linear.values()), np.float64),
                np.array(list(self.quadratic), np.int64).reshape(-1, 4).T.copy(),
                np.array(list(self.quadratic.values()), np.float64),
            )
            for view in self._arrays:
                view.flags.writeable = False
        return self._arrays

    def partners(self, pair: Assignment) -> list[tuple[Assignment, float]]:
        """All entries coupled to the assignment, with their values."""
        return self._partners.get(pair, [])

    def quad_get(self, a: Assignment, b: Assignment) -> float:
        return self.quadratic.get(_canonical_quad_key(a, b), 0.0)

    def matching_cost(self, pairs) -> float:
        total = 0.0
        chosen = set(pairs)
        for pair in chosen:
            total += self.linear[pair]
        for x, y in combinations(sorted(chosen), 2):
            total += self.quadratic.get((x, y), 0.0)
        return total

    def transposed(self) -> "PairwiseCosts":
        """The same table with the left and right sets swapped."""
        return PairwiseCosts._trusted(
            self.right_size,
            self.left_size,
            {(s, i): v for (i, s), v in self.linear.items()},
            {
                _canonical_quad_key((s, i), (t, j)): v
                for ((i, s), (j, t)), v in self.quadratic.items()
            },
        )

    def __eq__(self, other):
        if not isinstance(other, PairwiseCosts):
            return NotImplemented
        return (
            (self.left_size, self.right_size) == (other.left_size, other.right_size)
            and self.linear == other.linear
            and self.quadratic == other.quadratic
        )

    def __repr__(self):
        return (
            f"PairwiseCosts({self.left_size}x{self.right_size}, "
            f"{len(self.linear)} linear, {len(self.quadratic)} quadratic)"
        )


class MgmProblem:
    """An incomplete MGM instance: object sizes plus one table per object pair.

    Tables are stored once for p < q; lookups with swapped roles are
    transparent. The instance is immutable after construction.
    """

    __slots__ = ("sizes", "costs")

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

    def table(self, p: int, q: int) -> tuple[PairwiseCosts, bool]:
        """Table for the pair plus whether the (p, q) roles are swapped."""
        if p < q:
            return self.costs[(p, q)], False
        return self.costs[(q, p)], True

    def pair_table(self, p: int, q: int) -> PairwiseCosts:
        """The table of the pair with object p on the left."""
        table, swapped = self.table(p, q)
        return table.transposed() if swapped else table

    def linear_cost(self, p: int, q: int, i: int, s: int) -> Cost:
        table, swapped = self.table(p, q)
        if swapped:
            i, s = s, i
        return table.linear.get((i, s), FORBIDDEN)

    def quad_cost(self, p: int, q: int, a: Assignment, b: Assignment) -> float:
        table, swapped = self.table(p, q)
        if swapped:
            a = (a[1], a[0])
            b = (b[1], b[0])
        return table.quad_get(a, b)

    def quad_partners_pair(
        self, p: int, q: int, i: int, s: int
    ) -> Iterator[tuple[Assignment, float]]:
        """Entries coupled to matching i of p with s of q, oriented p-first."""
        table, swapped = self.table(p, q)
        if swapped:
            for (a, b), value in table.partners((s, i)):
                yield (b, a), value
        else:
            yield from table.partners((i, s))

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
    """

    __slots__ = ("cliques", "_columns", "_canonical")

    def __init__(self, cliques: Iterable[Clique] = ()):
        self.cliques = tuple(c for c in cliques if len(c) > 0)
        self._columns = None
        self._canonical = None

    def columns(self, sizes: Sequence[int]) -> dict[int, list[int | None]]:
        """Per covered object p, the index of the clique holding each of its
        sizes[p] vertices, None where no clique does.

        Raises IndexError for an object or vertex outside sizes and
        DuplicateVertexError for a vertex in two cliques. Cached for the
        last sizes asked, compared by value; callers must not mutate it.
        """
        sizes = tuple(sizes)
        if self._columns is None or self._columns[0] != sizes:
            columns: dict[int, list[int | None]] = {}
            for idx, clique in enumerate(self.cliques):
                for p, v in clique.pairs:
                    column = columns.get(p)
                    if column is None:
                        if not 0 <= p < len(sizes):
                            raise IndexError(f"object index {p} out of range")
                        column = columns[p] = [None] * sizes[p]
                    if not 0 <= v < len(column):
                        raise IndexError(f"vertex {v} out of range for object {p}")
                    if column[v] is not None:
                        raise DuplicateVertexError(f"vertex ({p},{v}) appears in two cliques")
                    column[v] = idx
            self._columns = sizes, columns
        return self._columns[1]

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
            if p not in columns or columns[p][v] is None
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


def lookup_linear(problem: MgmProblem, p: int, q: int, i: int, s: int) -> Cost:
    """Linear cost of matching vertex i of object p to vertex s of object q."""
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

    Building the solution's columns checks index ranges and global
    disjointness; the one-vertex-per-object rule is structural in Clique.
    """
    solution.columns(problem.sizes)


class ObjectiveTerms:
    """The objective's terms grouped by object pair, for one solution.

    A pair's group holds the linear terms of the cliques covering both
    objects and the realized quadratic entries of its table, or is
    Forbidden when one of those linear entries is. objective() is value()
    of a fresh instance. Re-matching object p (split, then merge) changes
    only the groups on pairs that contain p, so local search prices a
    candidate as math.fsum over the unchanged groups plus p's new row:
    the same terms, and since fsum rounds the exact sum correctly, the
    same float objective() returns for the candidate.
    """

    def __init__(self, problem: MgmProblem, solution: CliquePartition):
        self.problem = problem
        self.groups: dict[tuple[int, int], list[float] | Forbidden] = {}
        for p in range(problem.d):
            for q, terms in self.row(p, solution, range(p + 1, problem.d)).items():
                self.groups[(p, q)] = terms

    def row(
        self, p: int, solution: CliquePartition, others: Iterable[int] | None = None
    ) -> dict[int, list[float] | Forbidden]:
        """Groups of the pairs (p, q), q in others (default: all q != p)."""
        problem = self.problem
        if others is None:
            others = (q for q in range(problem.d) if q != p)
        row: dict[int, list[float] | Forbidden] = {q: [] for q in others}
        columns = solution.columns(problem.sizes)
        for clique in solution.cliques:
            vp = clique.get(p)
            if vp is None:
                continue
            for q, vq in clique.pairs:
                terms = row.get(q)
                if terms is None or terms is FORBIDDEN:
                    continue
                cost = problem.linear_cost(p, q, vp, vq)
                if cost is FORBIDDEN:
                    row[q] = FORBIDDEN
                    continue
                terms.append(cost)
                for (j, t), value in problem.quad_partners_pair(p, q, vp, vq):
                    # Each realized entry is seen from both of its
                    # assignments; count it from the lower p vertex.
                    if j > vp:
                        k = columns[p][j]
                        if k is not None and columns[q][t] == k:
                            terms.append(value)
        return row

    def value(self, p: int | None = None, row=None) -> Cost:
        """The objective, or the candidate's with object p's row replaced."""
        groups = [
            terms for pair, terms in self.groups.items() if p is None or p not in pair
        ]
        if p is not None:
            groups.extend(row.values())
        if any(terms is FORBIDDEN for terms in groups):
            return FORBIDDEN
        return math.fsum(chain.from_iterable(groups))

    def replace(self, p: int, row) -> None:
        for q, terms in row.items():
            self.groups[(p, q) if p < q else (q, p)] = terms


def objective(problem, solution: CliquePartition) -> Cost:
    """Total cost of a feasible solution.

    Linear costs are summed within each clique over its covered object
    pairs; quadratic costs once per unordered pair of distinct cliques over
    their shared object pairs. Any forbidden within-clique match makes the
    whole objective Forbidden. The value is math.fsum over the
    ObjectiveTerms per-pair groups, independent of clique order. The
    problem needs ``d``, ``sizes``, ``linear_cost`` and
    ``quad_partners_pair`` (MgmProblem or reduction.CompleteProblem).
    """
    validate(problem, solution)
    return ObjectiveTerms(problem, solution).value()
