"""Deterministic MGM instances shaped like the paper's benchmark families.

The real worms / hotel / house dd files are not in the repository, so two
generators model their shape from a latent ground truth:

* ``worms_like``: many objects of a few dozen vertices, each object seeing
  a random subset of shared landmarks (incomplete), a short candidate list
  per vertex (sparse linear support) and a sparse quadratic table.
* ``hotel_like``: few small objects that all see every landmark (complete),
  full linear support and a denser quadratic table.

Costs come from noisy landmark features: a match costs its feature
distance minus a margin, a quadratic entry the distortion of the two
feature distances minus a margin. The planted partition (one clique per
landmark) therefore has a good, finite objective.

Everything here is plain Python driven by one ``random.Random`` per
model seed, and problems are written by this module's own dd writer, so
the benchmark's inputs do not change when the program does.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

Assignment = tuple[int, int]


@dataclass
class Instance:
    """A generated problem plus the ground truth it was planted from.

    ``linear[(p, q)][(i, s)]`` and ``quadratic[(p, q)][((i, s), (j, t))]``
    (keys sorted) mirror the dd blocks for p < q; ``labels[p][v]`` is the
    landmark that vertex v of object p observes.
    """

    params: dict
    sizes: list[int]
    linear: dict[tuple[int, int], dict[Assignment, float]]
    quadratic: dict[tuple[int, int], dict[tuple[Assignment, Assignment], float]]
    labels: list[list[int]] = field(default_factory=list)

    @property
    def d(self) -> int:
        return len(self.sizes)

    def planted_cliques(self) -> list[list[tuple[int, int]]]:
        """One clique per landmark, holding every vertex that observes it."""
        by_landmark: dict[int, list[tuple[int, int]]] = {}
        for p, row in enumerate(self.labels):
            for v, landmark in enumerate(row):
                by_landmark.setdefault(landmark, []).append((p, v))
        return [by_landmark[k] for k in sorted(by_landmark)]


WORMS_PARAMS = {"d": 16, "n": 16, "visible": 0.85, "candidates": 10, "quadratic": 120}
HOTEL_PARAMS = {"d": 12, "n": 14, "quadratic": 140}

_FEATURE_DIM = 3
_NOISE = 0.08


def _features(rng: random.Random, count: int) -> list[tuple[float, ...]]:
    return [tuple(rng.random() for _ in range(_FEATURE_DIM)) for _ in range(count)]


def _observe(rng: random.Random, point) -> tuple[float, ...]:
    return tuple(x + rng.gauss(0.0, _NOISE) for x in point)


def _round(value: float) -> float:
    # Six decimals keep the dd file small; repr() of the rounded float
    # round-trips exactly through the parser.
    return round(value, 6)


def _build(
    rng: random.Random,
    params: dict,
    labels: list[list[int]],
    landmarks: int,
    candidates: int | None,
    quadratic: int,
) -> Instance:
    """Costs for every object pair from noisy observations of the landmarks."""
    truth = _features(rng, landmarks)
    points = [[_observe(rng, truth[k]) for k in row] for row in labels]
    d = len(labels)
    linear: dict = {}
    quad: dict = {}
    for p in range(d):
        for q in range(p + 1, d):
            partner = {k: s for s, k in enumerate(labels[q])}
            table: dict[Assignment, float] = {}
            for i, k in enumerate(labels[p]):
                ranked = sorted(
                    range(len(labels[q])),
                    key=lambda s: (math.dist(points[p][i], points[q][s]), s),
                )
                chosen = ranked if candidates is None else ranked[:candidates]
                true_s = partner.get(k)
                if true_s is not None and true_s not in chosen:
                    chosen = chosen[:-1] + [true_s]
                for s in chosen:
                    table[(i, s)] = _round(math.dist(points[p][i], points[q][s]) - 0.25)
            linear[(p, q)] = table
            quad[(p, q)] = _quadratic_table(rng, table, points[p], points[q], quadratic)
    sizes = [len(row) for row in labels]
    return Instance(dict(params), sizes, linear, quad, labels)


def _quadratic_table(rng, table, left, right, count):
    """``count`` distinct entries between assignments sharing no vertex."""
    keys = sorted(table)
    entries: dict = {}
    attempts = 0
    while len(entries) < count and attempts < 50 * count:
        attempts += 1
        a = keys[rng.randrange(len(keys))]
        b = keys[rng.randrange(len(keys))]
        if a[0] == b[0] or a[1] == b[1]:
            continue
        key = (a, b) if a < b else (b, a)
        if key in entries:
            continue
        distortion = abs(
            math.dist(left[a[0]], left[b[0]]) - math.dist(right[a[1]], right[b[1]])
        )
        entries[key] = _round(distortion - 0.1)
    return entries


def worms_like(seed: int, **overrides) -> Instance:
    """Sparse, incomplete instance: d objects of n vertices each seeing a
    random ``visible`` share of the landmarks, ``candidates`` matches per
    vertex (always including the true partner) and ``quadratic`` entries
    per object pair."""
    params = dict(WORMS_PARAMS, **overrides)
    rng = random.Random(f"worms-like:{seed}")
    n = params["n"]
    landmarks = max(n, round(n / params["visible"]))
    labels = [rng.sample(range(landmarks), n) for _ in range(params["d"])]
    return _build(rng, params, labels, landmarks, params["candidates"], params["quadratic"])


def hotel_like(seed: int, **overrides) -> Instance:
    """Small dense, complete instance: every object sees all n landmarks in
    a hidden order, every match is allowed, ``quadratic`` entries per pair."""
    params = dict(HOTEL_PARAMS, **overrides)
    rng = random.Random(f"hotel-like:{seed}")
    n = params["n"]
    labels = [rng.sample(range(n), n) for _ in range(params["d"])]
    return _build(rng, params, labels, n, None, params["quadratic"])


def write_dd(instance: Instance, layout_seed: int | None = None) -> str:
    """The instance in dd format.

    Without ``layout_seed`` blocks, assignments (ids in sorted (i, s)
    order) and quadratic entries are written sorted. With it, the block
    order, the assignment order and ids within each block, the order of
    the quadratic entries and the two ids on each ``e`` line are shuffled:
    the bytes change, the parsed model does not.
    """
    rng = None if layout_seed is None else random.Random(f"layout:{layout_seed}")

    def arrange(items):
        items = sorted(items)
        if rng is not None:
            rng.shuffle(items)
        return items

    lines = []
    for p, q in arrange(instance.linear):
        table = instance.linear[(p, q)]
        quad = instance.quadratic[(p, q)]
        lines.append(f"gm {p} {q}")
        lines.append(f"p {instance.sizes[p]} {instance.sizes[q]} {len(table)} {len(quad)}")
        ids = {}
        for aid, key in enumerate(arrange(table)):
            ids[key] = aid
            lines.append(f"a {aid} {key[0]} {key[1]} {table[key]!r}")
        for a, b in arrange(quad):
            if rng is not None and rng.random() < 0.5:
                a, b = b, a
            lines.append(f"e {ids[a]} {ids[b]} {quad[(min(a, b), max(a, b))]!r}")
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_digest(sizes, tables) -> str:
    """Digest of a problem given as sizes plus ``{(p, q): (linear, quadratic)}``.

    Both the generator's model and the program's parsed problem are reduced
    to this form, so equal digests mean the parser read back exactly the
    generated values.
    """
    h = hashlib.sha256(repr(tuple(sizes)).encode())
    for pair in sorted(tables):
        linear, quad = tables[pair]
        h.update(repr((pair, sorted(linear.items()), sorted(quad.items()))).encode())
    return h.hexdigest()


def instance_digest(instance: Instance) -> str:
    tables = {
        pair: (instance.linear[pair], instance.quadratic[pair]) for pair in instance.linear
    }
    return model_digest(instance.sizes, tables)


GENERATORS = {"worms-like": worms_like, "hotel-like": hotel_like}
