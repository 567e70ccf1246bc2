"""Problem and solution serialization.

Problems use the line-oriented dd multi-matching format:

    gm <p> <q>            # block header, 0-based object ids, p < q
    p <n1> <n2> <A> <E>   # side sizes and entry counts for this block
    a <id> <i> <s> <cost> # allowed assignment: vertex i of p to vertex s of q
    e <id1> <id2> <cost>  # quadratic cost between two declared assignments

Lines starting with '$' or '#' and blank lines are comments. Absent
assignments are forbidden; absent quadratic entries cost zero. Every
block has one 'p' line, all 'p' lines must agree on the size of each
object, and each block must hold as many 'a' and 'e' lines as its 'p'
line declares.

Solutions use a small JSON document (schema version 1) listing cliques in
a deterministic order plus free-form metadata; see write_solution. In the
program a forbidden cost is the float math.inf; a document stores every
math.inf of its metadata, nested dicts included, as the string
"forbidden" (_cost_to_json, _cost_from_json), so documents are plain JSON
and never hold Infinity.

Both formats are UTF-8, with or without a leading byte-order mark,
whether read as bytes or as text; a byte that does not decode raises
ParseError on its line.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import IO, Any, Union

from .model import (
    Clique,
    CliquePartition,
    FeasibilityError,
    MgmProblem,
    PairwiseCosts,
    entry_arrays,
    objective,
    validate,
)

SOLUTION_FORMAT = "mgm-solution"
SOLUTION_VERSION = 1

TextSource = Union[str, bytes, IO]


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number where parsing failed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DanglingReferenceError(ParseError):
    """An 'e' line references an assignment id that was never declared."""


class DuplicateEntryError(ParseError):
    """The same assignment or quadratic entry is declared twice."""


def _as_text(source: TextSource) -> str:
    data = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(data, str):
        return data.removeprefix("\ufeff")
    try:
        return data.decode("utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as exc:
        # The offsets count in exc.object, the bytes after a BOM. Lines are
        # counted as parse_problem counts them, by str.splitlines().
        rest = exc.object
        line = len((rest[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"invalid UTF-8 byte 0x{rest[exc.start]:02x}") from None


def parse_problem(source: TextSource) -> MgmProblem:
    """Parse a dd-format problem; see the module docstring for the grammar.

    Lines are split as str.splitlines() splits them, a chunk of the text
    at a time. A block is checked against dicts of its own entries, which
    become its table's arrays (PairwiseCosts.arrays(), 24 bytes per 'a'
    and 24 per 'e' line) when the block closes, so the dicts of one block
    at most are alive. The tables' dict views are not built.
    """
    text = _as_text(source)
    tables: dict[tuple[int, int], tuple | None] = {}  # None: the open block
    sizes: dict[int, int] = {}
    # The open block: pair, 'gm' line, 'p' line and counts, entries, ids, shape.
    pair = gm_line = declared = linear = quad = ids = shape = None

    for lineno, raw in enumerate(_lines(text), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if pair is None and tag in ("a", "e", "p"):
            raise ParseError(lineno, f"'{tag}' line outside a gm block")
        if tag == "a":
            if len(fields) != 5:
                raise ParseError(lineno, "expected 'a <id> <i> <s> <cost>'")
            try:
                aid, i, s, cost = int(fields[1]), int(fields[2]), int(fields[3]), float(fields[4])
                if not math.isfinite(cost):
                    raise ValueError
            except ValueError:
                raise _number_error(lineno, fields[1:4], fields[4]) from None
            if shape is None:
                raise ParseError(lineno, "'a' line before the block's 'p' line")
            if not (0 <= i < shape[0] and 0 <= s < shape[1]):
                raise ParseError(lineno, f"assignment ({i},{s}) outside declared sizes {shape}")
            if aid in ids:
                raise DuplicateEntryError(lineno, f"assignment id {aid} declared twice")
            if (i, s) in linear:
                raise DuplicateEntryError(lineno, f"duplicate assignment ({i},{s})")
            ids[aid] = (i, s)
            linear[(i, s)] = cost
        elif tag == "e":
            if len(fields) != 4:
                raise ParseError(lineno, "expected 'e <id1> <id2> <cost>'")
            try:
                id1, id2, cost = int(fields[1]), int(fields[2]), float(fields[3])
                if not math.isfinite(cost):
                    raise ValueError
            except ValueError:
                raise _number_error(lineno, fields[1:3], fields[3]) from None
            for aid in (id1, id2):
                if aid not in ids:
                    raise DanglingReferenceError(lineno, f"assignment id {aid} not declared")
            a1, a2 = ids[id1], ids[id2]
            if a1[0] == a2[0] or a1[1] == a2[1]:
                raise ParseError(lineno, f"quadratic entry {a1},{a2} shares a vertex")
            key = (a1, a2) if a1 <= a2 else (a2, a1)
            if key in quad:
                raise DuplicateEntryError(lineno, f"duplicate quadratic entry {key}")
            quad[key] = cost
        elif tag[0] in "$#":
            continue
        elif tag == "gm":
            if len(fields) != 3:
                raise ParseError(lineno, "expected 'gm <p> <q>'")
            p, q = _ints(fields[1:3], lineno)
            if not 0 <= p < q:
                raise ParseError(lineno, f"need 0 <= p < q, got ({p},{q})")
            if (p, q) in tables:
                raise DuplicateEntryError(lineno, f"duplicate block for pair ({p},{q})")
            _close(tables, pair, gm_line, declared, linear, quad)
            pair, gm_line, declared, shape = (p, q), lineno, None, None
            linear, quad, ids = {}, {}, {}
            tables[pair] = None
        elif tag == "p":
            if len(fields) != 5:
                raise ParseError(lineno, "expected 'p <n1> <n2> <A> <E>'")
            if declared is not None:
                raise ParseError(lineno, f"second 'p' line in block {pair}")
            n1, n2, n_linear, n_quad = _ints(fields[1:5], lineno)
            if n1 < 0 or n2 < 0:
                raise ParseError(lineno, f"object sizes must be non-negative, got ({n1},{n2})")
            shape = (n1, n2)
            declared = (lineno, n_linear, n_quad)
            for obj, n in zip(pair, shape):
                if sizes.setdefault(obj, n) != n:
                    raise ParseError(
                        lineno, f"object {obj} declared with size {n}, earlier {sizes[obj]}"
                    )
        else:
            raise ParseError(lineno, f"unknown line tag {tag!r}")

    _close(tables, pair, gm_line, declared, linear, quad)
    if not tables:
        raise ParseError(1, "no 'gm' blocks found")
    size_list = [sizes.get(p, 0) for p in range(max(q for _, q in tables) + 1)]
    # The checks above cover every check of the PairwiseCosts constructor.
    costs = {
        (p, q): PairwiseCosts._trusted(size_list[p], size_list[q], *arrays)
        for (p, q), arrays in tables.items()
    }
    try:
        return MgmProblem(size_list, costs)
    except ValueError as exc:  # the cost total; the checks above cover the rest
        raise ParseError(lineno, str(exc)) from None


def _lines(text: str, chunk: int = 1 << 16):
    """text.splitlines(), a chunk of the text at a time, each line with its
    line break. A chunk's last line may be cut, or end in a carriage return
    that a line feed in the next chunk joins, so it moves to the next one."""
    carry = ""
    for start in range(0, len(text), chunk):
        lines = (carry + text[start:start + chunk]).splitlines(True)
        carry = lines.pop()
        yield from lines
    if carry:
        yield carry


def _close(tables: dict, pair, gm_line, declared, linear, quad) -> None:
    """A finished block must have a 'p' line and hold the 'a' and 'e' lines
    it declares; its entries become arrays. No block is open if pair is None."""
    if pair is None:
        return
    if declared is None:
        raise ParseError(gm_line, f"block {pair} has no 'p' line")
    p_line, n_linear, n_quad = declared
    for kind, n, found in (("a", n_linear, len(linear)), ("e", n_quad, len(quad))):
        if n != found:
            raise ParseError(p_line, f"block {pair} declares {n} '{kind}' lines, has {found}")
    tables[pair] = entry_arrays(linear, quad)


def _ints(fields, lineno):
    try:
        return tuple(int(f) for f in fields)
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {fields!r}") from None


def _number_error(lineno, ints, cost) -> ParseError:
    """The error for an entry line whose numbers do not parse: _ints raises
    for a bad integer field, else the cost's error is returned."""
    _ints(ints, lineno)
    try:
        float(cost)
    except ValueError:
        return ParseError(lineno, f"expected a real number, got {cost!r}")
    return ParseError(lineno, f"costs must be finite, got {cost!r}")


def write_problem(problem: MgmProblem) -> str:
    """Serialize a problem so that parse_problem returns an equal one.

    Assignment ids are positions in the table's linear entries, which are
    stored in (i, s) order, so an 'e' line's ids are the positions its
    entry stores, and 'e' lines come in the stored order, sorted by their
    id pair. So output is deterministic and every 'e' line references
    earlier 'a' lines.
    """
    lines = []
    for (p, q), table in problem.costs.items():
        (i, s), lin_v, (x, y), quad_v = table.arrays()
        lines.append(f"gm {p} {q}")
        lines.append(f"p {problem.sizes[p]} {problem.sizes[q]} {len(lin_v)} {len(quad_v)}")
        for aid, (a, b, cost) in enumerate(zip(i.tolist(), s.tolist(), lin_v.tolist())):
            lines.append(f"a {aid} {a} {b} {cost!r}")
        for id1, id2, cost in zip(x.tolist(), y.tolist(), quad_v.tolist()):
            lines.append(f"e {id1} {id2} {cost!r}")
    return "\n".join(lines) + "\n"


@dataclass
class SolutionDocument:
    """A parsed solution file: the partition plus whatever metadata it carried."""

    partition: CliquePartition
    metadata: dict[str, Any] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def objective(self) -> float | None:
        return _cost_from_json(self.metadata.get("objective"))


def _cost_to_json(value):
    """A metadata value as a document stores it: "forbidden" for math.inf,
    in nested dicts too."""
    if isinstance(value, dict):
        return {key: _cost_to_json(item) for key, item in value.items()}
    return "forbidden" if value == math.inf else value


def _cost_from_json(value):
    return math.inf if value == "forbidden" else value


def write_solution(solution: CliquePartition, metadata: dict[str, Any] | None = None) -> str:
    """Serialize a partition with metadata; deterministic up to the metadata.

    Cliques are listed sorted by their smallest (object, vertex) member and
    each clique's members are sorted, so identical solutions always produce
    identical documents.
    """
    cliques = sorted(solution.cliques, key=lambda c: c[0])
    doc = {
        "format": SOLUTION_FORMAT,
        "version": SOLUTION_VERSION,
        "cliques": [[[p, v] for p, v in clique] for clique in cliques],
        "metadata": _cost_to_json(metadata or {}),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _member(pair) -> tuple[int, int]:
    """A clique member [object, vertex]; both must be JSON integers."""
    p, v = pair
    if type(p) is not int or type(v) is not int:
        raise ValueError(f"clique member {pair!r} is not a pair of integers")
    return p, v


def parse_solution(source: TextSource, problem: MgmProblem | None = None) -> SolutionDocument:
    """Parse a solution document; with a problem, check it against the problem.

    A clique member that is not a pair of JSON integers, metadata that is
    not a JSON object, or a stored objective that is neither a finite
    number nor "forbidden" raises ParseError. Given a problem, a partition
    with an out-of-range or repeated vertex raises ParseError too. A
    stored objective differing from the recomputed one by more than 1e-9
    is surfaced as a warning on the returned document, not an error.
    """
    text = _as_text(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(1, "invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != SOLUTION_FORMAT:
        raise ParseError(1, "not an mgm-solution document")
    if doc.get("version") != SOLUTION_VERSION:
        raise ParseError(1, f"unsupported document version {doc.get('version')!r}")
    try:
        cliques = [Clique(map(_member, members)) for members in doc["cliques"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"malformed clique list: {exc}") from None
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(1, "metadata is not a JSON object")
    stored = metadata.get("objective", "forbidden")  # absent: nothing to check
    # A finite float or an int within float range; bool is not a number here.
    if stored != "forbidden" and not (
        type(stored) in (int, float) and abs(stored) <= sys.float_info.max
    ):
        raise ParseError(1, f"stored objective {stored!r} is neither a number nor 'forbidden'")
    document = SolutionDocument(partition=CliquePartition(cliques), metadata=dict(metadata))
    if problem is None:
        return document
    try:
        validate(problem, document.partition)
    except (IndexError, FeasibilityError) as exc:
        raise ParseError(1, f"solution does not fit the problem: {exc}") from None
    if "objective" in document.metadata:
        stored, actual = document.objective, objective(problem, document.partition)
        # Both forbidden gives inf - inf, nan, which compares false.
        if abs(stored - actual) > 1e-9:
            document.warnings.append(
                f"stored objective {_cost_to_json(stored)!r} does not match "
                f"recomputed {_cost_to_json(actual)!r}"
            )
    return document
