"""Core data model for incomplete multi-graph matching (MGM).

An MGM problem consists of d objects (finite vertex sets) and sparse
pairwise cost tables. Linear costs price vertex-to-vertex matches, with
absent entries meaning the match is forbidden. Quadratic costs price
pairs of simultaneous matches, with absent entries meaning zero.

A feasible solution is a partition of the vertices into cliques, each
clique holding at most one vertex per object. Cycle consistency of the
induced multi-matching is automatic in this representation. Unmatched
vertices are implicit singletons and cost nothing.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence, Union


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


def is_forbidden(cost: Cost) -> bool:
    return cost is FORBIDDEN


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
    """

    __slots__ = ("left_size", "right_size", "linear", "quadratic", "_partners")

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
        for i, s in self.linear:
            if not (0 <= i < left_size and 0 <= s < right_size):
                raise IndexError(
                    f"assignment ({i},{s}) out of range for a {left_size}x{right_size} table"
                )
        quad: dict[QuadKey, float] = {}
        for (a, b), value in (quadratic or {}).items():
            key = _canonical_quad_key(a, b)
            if key in quad:
                raise ValueError(f"duplicate quadratic entry {key}")
            if a[0] == b[0] or a[1] == b[1]:
                raise ValueError(f"quadratic entry {key} shares a vertex")
            if a not in self.linear or b not in self.linear:
                raise ValueError(f"quadratic entry {key} references a forbidden assignment")
            quad[key] = float(value)
        self.quadratic = quad
        partners: dict[Assignment, list[tuple[Assignment, float]]] = {}
        for (x, y), value in quad.items():
            partners.setdefault(x, []).append((y, value))
            partners.setdefault(y, []).append((x, value))
        self._partners = partners

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
        return PairwiseCosts(
            self.right_size,
            self.left_size,
            {(s, i): v for (i, s), v in self.linear.items()},
            {((s, i), (t, j)): v for ((i, s), (j, t)), v in self.quadratic.items()},
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

    __slots__ = ("sizes", "costs", "_total_abs")

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
        self._total_abs = None

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

    def iter_quad_items(self) -> Iterator[tuple[int, int, Assignment, Assignment, float]]:
        """All quadratic entries as (p, q, (i,s), (j,t), value) with p < q."""
        for (p, q), table in self.costs.items():
            for ((i, s), (j, t)), value in table.quadratic.items():
                yield p, q, (i, s), (j, t), value

    def iter_linear_pair(self, p: int, q: int) -> Iterator[tuple[Assignment, float]]:
        """Linear entries of one pair, oriented as (vertex of p, vertex of q)."""
        table, swapped = self.table(p, q)
        if swapped:
            for (i, s), value in table.linear.items():
                yield (s, i), value
        else:
            yield from table.linear.items()

    def iter_quad_pair(
        self, p: int, q: int
    ) -> Iterator[tuple[Assignment, Assignment, float]]:
        """Quadratic entries of one pair, both assignments oriented p-first."""
        table, swapped = self.table(p, q)
        for ((i, s), (j, t)), value in table.quadratic.items():
            if swapped:
                yield (s, i), (t, j), value
            else:
                yield (i, s), (j, t), value

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

    def total_abs_cost(self) -> float:
        """Sum of absolute finite costs; used to scale forbidden-move penalties."""
        if self._total_abs is None:
            total = 0.0
            for table in self.costs.values():
                total += sum(abs(v) for v in table.linear.values())
                total += sum(abs(v) for v in table.quadratic.values())
            self._total_abs = total
        return self._total_abs

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

    __slots__ = ("cliques", "_vmap", "_canonical")

    def __init__(self, cliques: Iterable[Clique] = ()):
        self.cliques = tuple(c for c in cliques if len(c) > 0)
        self._vmap = None
        self._canonical = None

    def vertex_map(self) -> dict[tuple[int, int], int]:
        """Map (object, vertex) to the index of its clique; cached."""
        if self._vmap is None:
            vmap: dict[tuple[int, int], int] = {}
            for idx, clique in enumerate(self.cliques):
                for p, v in clique.pairs:
                    if (p, v) in vmap:
                        raise DuplicateVertexError(
                            f"vertex ({p},{v}) appears in more than one clique"
                        )
                    vmap[(p, v)] = idx
            self._vmap = vmap
        return self._vmap

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

    def normalized(self, sizes: Sequence[int], objects: Iterable[int] | None = None) -> "CliquePartition":
        """Materialize implicit singletons for every uncovered vertex."""
        object_range = list(objects) if objects is not None else range(len(sizes))
        vmap = self.vertex_map()
        extra = [
            Clique({p: v})
            for p in object_range
            for v in range(sizes[p])
            if (p, v) not in vmap
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

    Checks index ranges, global disjointness, and the one-vertex-per-object
    rule (the latter is already structural in Clique).
    """
    seen: set[tuple[int, int]] = set()
    for clique in solution.cliques:
        for p, v in clique.pairs:
            if not (0 <= p < problem.d):
                raise IndexError(f"object index {p} out of range")
            if not (0 <= v < problem.sizes[p]):
                raise IndexError(f"vertex {v} out of range for object {p}")
            if (p, v) in seen:
                raise DuplicateVertexError(f"vertex ({p},{v}) appears in two cliques")
            seen.add((p, v))


def objective(problem, solution: CliquePartition) -> Cost:
    """Total cost of a feasible solution.

    Linear costs are summed within each clique over its covered object
    pairs; quadratic costs once per unordered pair of distinct cliques over
    their shared object pairs. Any forbidden within-clique match makes the
    whole objective Forbidden. Summation uses math.fsum so the value does
    not depend on clique enumeration order.
    """
    validate(problem, solution)
    terms: list[float] = []
    for clique in solution.cliques:
        for (p, vp), (q, vq) in combinations(clique.pairs, 2):
            cost = problem.linear_cost(p, q, vp, vq)
            if cost is FORBIDDEN:
                return FORBIDDEN
            terms.append(cost)
    vmap = solution.vertex_map()
    for p, q, (i, s), (j, t), value in problem.iter_quad_items():
        k1 = vmap.get((p, i))
        if k1 is None or vmap.get((q, s)) != k1:
            continue
        k2 = vmap.get((p, j))
        if k2 is None or vmap.get((q, t)) != k2:
            continue
        terms.append(value)
    return math.fsum(terms)
