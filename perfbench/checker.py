"""Independent check of a solution document against a generated instance.

Feasibility and the objective are restated here from the problem
definition, without calling the program's ``objective`` or ``validate``:

* every clique lists distinct objects, vertices are in range, and no
  vertex appears twice in the document;
* linear costs are summed within cliques over every member pair (a pair
  without a linear entry is a forbidden match), and a quadratic entry of
  object pair (p, q) counts when both of its assignments are matched,
  each inside its own clique;
* the sum uses ``math.fsum``, so the value is exact for the multiset of
  terms and comparable to the stored one within 1e-9.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

from instances import Instance

TOLERANCE = 1e-9


class CheckError(ValueError):
    """The document is unparsable, infeasible or disagrees with recomputation."""


def clique_objective(instance: Instance, cliques) -> tuple[float, int, int]:
    """(objective over allowed matches, forbidden match count, match count).

    ``cliques`` is a list of (object, vertex) lists that has already been
    checked for feasibility.
    """
    clique_of: dict[tuple[int, int], int] = {}
    for k, clique in enumerate(cliques):
        for member in clique:
            clique_of[member] = k
    terms: list[float] = []
    forbidden = 0
    matches = 0
    for clique in cliques:
        for (p, i), (q, s) in combinations(sorted(clique), 2):
            matches += 1
            cost = instance.linear[(p, q)].get((i, s))
            if cost is None:
                forbidden += 1
            else:
                terms.append(cost)
    for (p, q), table in instance.quadratic.items():
        for ((i, s), (j, t)), value in table.items():
            k1 = clique_of.get((p, i))
            if k1 is None or clique_of.get((q, s)) != k1:
                continue
            k2 = clique_of.get((p, j))
            if k2 is None or clique_of.get((q, t)) != k2:
                continue
            terms.append(value)
    return math.fsum(terms), forbidden, matches


def feasible_cliques(instance: Instance, raw) -> list[list[tuple[int, int]]]:
    """The document's clique list as (object, vertex) tuples, or CheckError."""
    if not isinstance(raw, list):
        raise CheckError("cliques is not a list")
    seen: set[tuple[int, int]] = set()
    cliques = []
    for clique in raw:
        if not isinstance(clique, list):
            raise CheckError(f"clique {clique!r} is not a list")
        members = []
        objects = set()
        for member in clique:
            if not (
                isinstance(member, list)
                and len(member) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in member)
            ):
                raise CheckError(f"member {member!r} is not an [object, vertex] pair")
            p, v = member
            if not (0 <= p < instance.d and 0 <= v < instance.sizes[p]):
                raise CheckError(f"vertex ({p},{v}) out of range")
            if p in objects:
                raise CheckError(f"clique holds two vertices of object {p}")
            if (p, v) in seen:
                raise CheckError(f"vertex ({p},{v}) appears twice")
            objects.add(p)
            seen.add((p, v))
            members.append((p, v))
        cliques.append(members)
    return cliques


def _stored_number(metadata: dict, key: str) -> float:
    value = metadata.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckError(f"stored {key} {value!r} is not a number")
    return float(value)


def check_document(instance: Instance, text: str, mode: str) -> dict:
    """Check one ``mgm`` output; returns the recomputed figures.

    ``mode`` is ``full`` (no forbidden match allowed) or ``sync`` (sparse
    synchronization: no forbidden match, and the stored sync metrics must
    agree with recomputation).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparsable document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "mgm-solution" or doc.get("version") != 1:
        raise CheckError("not an mgm-solution version 1 document")
    metadata = doc.get("metadata")
    if not isinstance(metadata, dict):
        raise CheckError("metadata missing")
    cliques = feasible_cliques(instance, doc.get("cliques"))
    value, forbidden, matches = clique_objective(instance, cliques)
    if forbidden:
        raise CheckError(f"{forbidden} forbidden matches in a {mode} solution")
    stored = _stored_number(metadata, "objective")
    if abs(stored - value) > TOLERANCE:
        raise CheckError(f"stored objective {stored!r} != recomputed {value!r}")
    result = {"objective": value, "matches": matches}
    if mode == "sync":
        sync = metadata.get("sync_metrics")
        if not isinstance(sync, dict):
            raise CheckError("sync_metrics missing")
        if _stored_number(sync, "forbidden_count") != forbidden:
            raise CheckError(f"stored forbidden_count {sync['forbidden_count']!r} != {forbidden}")
        if abs(_stored_number(sync, "mgm_objective") - value) > TOLERANCE:
            raise CheckError(f"stored mgm_objective {sync['mgm_objective']!r} != {value!r}")
        # mlap_objective = -|E & R| and hamming = |E| + |R| - 2|E & R| for
        # the pairwise matchings E and the solution's matches R; only R is
        # known here, which bounds both.
        shared = -_stored_number(sync, "mlap_objective")
        target = _stored_number(sync, "hamming") - matches + 2 * shared
        if not (shared == int(shared) and 0 <= shared <= matches and target >= shared):
            raise CheckError(f"sync metrics {sync!r} inconsistent with {matches} matches")
        result["sync_mlap"] = -shared
    return result
