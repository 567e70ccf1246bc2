import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgmatch import io as mgm_io
from mgmatch.io import (
    DanglingReferenceError,
    DuplicateEntryError,
    ParseError,
    parse_problem,
    parse_solution,
    write_problem,
    write_solution,
)
from mgmatch.model import MgmProblem, PairwiseCosts, objective

from conftest import part
from oracles import linear_cost, quad_cost, random_partition, random_problem


class TestParseProblem:
    def test_minimal_file(self):
        problem = parse_problem("gm 0 1\np 1 1 1 0\na 0 0 0 -2.0\n")
        assert problem.d == 2
        assert problem.sizes == (1, 1)
        assert linear_cost(problem, 0, 1, 0, 0) == -2.0

    def test_comments_and_blank_lines(self):
        text = "$ header\n\ngm 0 1\n# block\np 2 2 1 0\na 0 1 1 3.5e-1\n"
        problem = parse_problem(text)
        assert linear_cost(problem, 0, 1, 1, 1) == pytest.approx(0.35)

    def test_bytes_input(self):
        problem = parse_problem(b"gm 0 1\np 1 1 1 0\na 0 0 0 1.0\n")
        assert problem.d == 2

    def test_unknown_tag(self):
        with pytest.raises(ParseError) as err:
            parse_problem("gm 0 1\nzz 1 2\n")
        assert err.value.line == 2

    def test_dangling_edge_reference(self):
        text = "gm 0 1\np 2 2 2 1\na 0 0 0 1.0\na 1 1 1 1.0\ne 0 5 1.0\n"
        with pytest.raises(DanglingReferenceError):
            parse_problem(text)

    def test_duplicate_assignment(self):
        text = "gm 0 1\np 1 1 2 0\na 0 0 0 1.0\na 1 0 0 2.0\n"
        with pytest.raises(DuplicateEntryError):
            parse_problem(text)

    def test_quadratic_entry(self):
        text = (
            "gm 0 1\np 2 2 2 1\na 0 0 0 -1.0\na 1 1 1 -1.0\ne 0 1 -0.5\n"
        )
        problem = parse_problem(text)
        assert quad_cost(problem, 0, 1, (0, 0), (1, 1)) == -0.5

    def test_quadratic_sharing_vertex_rejected(self):
        text = "gm 0 1\np 1 2 2 1\na 0 0 0 1.0\na 1 0 1 1.0\ne 0 1 0.5\n"
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_assignment_outside_declared_sizes(self):
        with pytest.raises(ParseError):
            parse_problem("gm 0 1\np 1 1 1 0\na 0 1 0 1.0\n")

    def test_assignment_before_size_line(self):
        with pytest.raises(ParseError):
            parse_problem("gm 0 1\na 0 0 0 1.0\n")

    def test_non_finite_costs_rejected(self):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ParseError):
                parse_problem(f"gm 0 1\np 1 1 1 0\na 0 0 0 {bad}\n")

    def test_inconsistent_object_size_rejected(self):
        # object 0 is declared with 2 vertices, then with 5
        text = "gm 0 1\np 2 2 0 0\ngm 0 2\np 5 2 0 0\n"
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert err.value.line == 4

    def test_negative_object_size_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_problem("gm 0 1\np 2 2 0 0\ngm 0 2\np 2 -1 0 0\n")
        assert err.value.line == 4

    def test_entry_counts_must_match_p_line(self):
        # each block ends at the next 'gm' line or at the end of the file
        cases = [
            ("gm 0 1\np 2 2 2 0\na 0 0 0 1.0\n", "'a'"),  # one 'a' missing
            ("gm 0 1\np 2 2 1 0\na 0 0 0 1.0\na 1 1 1 1.0\n", "'a'"),  # one extra
            ("gm 0 1\np 2 2 2 1\na 0 0 0 1.0\na 1 1 1 1.0\ngm 0 2\np 2 1 0 0\n", "'e'"),
        ]
        for text, kind in cases:
            with pytest.raises(ParseError) as err:
                parse_problem(text)
            assert err.value.line == 2
            assert kind in str(err.value)

    def test_block_without_p_line_rejected(self):
        # the error names the block's 'gm' line, wherever the block ends
        cases = [
            ("gm 0 1\ngm 1 2\np 3 3 0 0\n", 1),
            ("gm 0 1\np 3 3 0 0\ngm 1 2\n", 3),
            ("$ header\ngm 0 1\n", 2),
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                parse_problem(text)
            assert err.value.line == line
            assert "no 'p' line" in str(err.value)

    def test_second_p_line_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_problem("gm 0 1\np 1 1 1 0\na 0 0 0 -1.0\np 1 1 1 0\n")
        assert err.value.line == 4

    def test_missing_pairs_get_empty_tables(self):
        # objects 0..2 but only the (0,2) block present
        problem = parse_problem("gm 0 2\np 1 1 1 0\na 0 0 0 -1.0\n")
        assert problem.d == 3
        assert problem.sizes == (1, 0, 1)  # no block names object 1
        assert linear_cost(problem, 0, 1, 0, 0) == math.inf


BLOCK = "gm 0 1\np 2 2 2 1\na 0 0 0 1.0\na 1 1 1 1.0\n"
FIRST = BLOCK + "e 0 1 0.5\n"  # a complete first block
# Line 3 ends in a CR LF whose CR is the last character of the parser's
# first 64 KiB chunk; the two characters still end one line.
CHUNK_EDGE = "gm 0 1\r\np 1 1 0 0\r\n"
CHUNK_EDGE += "$" * ((1 << 16) - 1 - len(CHUNK_EDGE)) + "\r\n"


@pytest.mark.parametrize(
    "text, error, line, message",
    [
        ("gm 0 1\np 2 2 1 0\na 0 0 0\n", ParseError, 3,
         "expected 'a <id> <i> <s> <cost>'"),
        (BLOCK + "e 0 1\n", ParseError, 5, "expected 'e <id1> <id2> <cost>'"),
        ("gm 0 1\np 2 2 1 0\na x 0 0 1.0\n", ParseError, 3,
         "expected integers, got ['x', '0', '0']"),
        (BLOCK + "e 0 1.5 1.0\n", ParseError, 5, "expected integers, got ['0', '1.5']"),
        ("gm 0 1\np 2 2 1 0\na 0 0 0 abc\n", ParseError, 3,
         "expected a real number, got 'abc'"),
        ("gm 0 1\np 2 2 1 0\na 0 0 0 nan\n", ParseError, 3, "costs must be finite, got 'nan'"),
        (BLOCK + "e 0 1 -inf\n", ParseError, 5, "costs must be finite, got '-inf'"),
        # Within a line, integer fields are checked before the cost, and
        # both before the block state.
        ("gm 0 1\np 2 2 1 0\na 0 x 0 nan\n", ParseError, 3,
         "expected integers, got ['0', 'x', '0']"),
        ("gm 0 1\na 0 0 0 inf\n", ParseError, 2, "costs must be finite, got 'inf'"),
        ("gm 0 1\na 0 0 0 1.0\n", ParseError, 2, "'a' line before the block's 'p' line"),
        ("a 0 0 0 1.0\ngm 0 1\n", ParseError, 1, "'a' line outside a gm block"),
        ("$ header\ne 0 1 1.0\n", ParseError, 2, "'e' line outside a gm block"),
        ("$ header\np 1 1 0 0\ngm 0 1\n", ParseError, 2, "'p' line outside a gm block"),
        # Outside a gm block, a line's tag is checked before its fields.
        ("a 0\n", ParseError, 1, "'a' line outside a gm block"),
        ("e\n", ParseError, 1, "'e' line outside a gm block"),
        ("p 1 x\n", ParseError, 1, "'p' line outside a gm block"),
        ("", ParseError, 1, "no 'gm' blocks found"),
        ("$ header\n\n# no blocks\n", ParseError, 1, "no 'gm' blocks found"),
        # A repeated pair is found before the open block is closed.
        ("gm 0 1\np 1 1 0 0\ngm 0 1\n", DuplicateEntryError, 3,
         "duplicate block for pair (0,1)"),
        ("gm 0 1\np 1 1 0 0\ngm 1 2\np 1 1 0 0\ngm 0 1\n", DuplicateEntryError, 5,
         "duplicate block for pair (0,1)"),
        ("gm 0 1\np 1 1 1 0\ngm 0 1\n", DuplicateEntryError, 3,
         "duplicate block for pair (0,1)"),
        (BLOCK + "e 5 7 1.0\n", DanglingReferenceError, 5, "assignment id 5 not declared"),
        (BLOCK + "e 0 7 1.0\n", DanglingReferenceError, 5, "assignment id 7 not declared"),
        ("gm 0 1\np 2 2 2 0\na 0 0 0 1.0\na 0 1 1 1.0\n", DuplicateEntryError, 4,
         "assignment id 0 declared twice"),
        ("gm 0 1\np 2 2 2 0\na 0 0 0 1.0\na 1 0 0 2.0\n", DuplicateEntryError, 4,
         "duplicate assignment (0,0)"),
        ("gm 0 1\np 2 2 2 1\na 0 0 0 1.0\na 1 0 1 1.0\ne 0 1 0.5\n", ParseError, 5,
         "quadratic entry (0, 0),(0, 1) shares a vertex"),
        (BLOCK + "e 0 1 0.5\ne 1 0 0.5\n", DuplicateEntryError, 6,
         "duplicate quadratic entry ((0, 0), (1, 1))"),
        # Errors in a later block: its checks see only its own entries.
        (FIRST + "gm 0 2\np 2 2 2 2\na 0 0 0 1.0\na 1 1 1 1.0\ne 0 1 0.5\ne 1 0 0.5\n",
         DuplicateEntryError, 11, "duplicate quadratic entry ((0, 0), (1, 1))"),
        (FIRST + "gm 1 2\np 2 2 1 1\na 5 0 0 1.0\ne 5 0 1.0\n", DanglingReferenceError, 9,
         "assignment id 0 not declared"),
        # Count mismatches found at the end of the file.
        (BLOCK, ParseError, 2, "block (0, 1) declares 1 'e' lines, has 0"),
        (FIRST + "gm 0 2\np 2 2 1 0\n", ParseError, 7,
         "block (0, 2) declares 1 'a' lines, has 0"),
        # Line breaks are those of str.splitlines().
        (BLOCK.replace("\n", "\r\n") + "e 0 1 abc\r\n", ParseError, 5,
         "expected a real number, got 'abc'"),
        ("gm 0 1\x0cp 2 2 1 0\x0ca 0 0 0 abc\n", ParseError, 3,
         "expected a real number, got 'abc'"),
        ("gm 0 1\u2028p 2 2 1 0\u2028a 9 9 0 1.0\n", ParseError, 3,
         "assignment (9,0) outside declared sizes (2, 2)"),
        ("gm 0 1\r\np 1 1 0 0\r\n\x1c\x85 a 0 0 0 1.0\n", ParseError, 2,
         "block (0, 1) declares 0 'a' lines, has 1"),
        (CHUNK_EDGE + "p 1 1 0 0\n", ParseError, 4, "second 'p' line in block (0, 1)"),
    ],
)
def test_malformed_entry_line(text, error, line, message):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert type(err.value) is error
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@given(st.text(st.sampled_from("a \n\r\x0b\x0c\x1c\x85\u2028"), max_size=40), st.integers(1, 8))
def test_lines_split_like_splitlines(text, chunk):
    assert list(mgm_io._lines(text, chunk)) == text.splitlines(True)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([0.0, 0.3, 0.6]))
def test_parse_equals_checked_construction(seed, d, forbidden):
    """Parsed tables are built unchecked; they equal tables rebuilt through
    the checking constructor, entry order included."""
    problem = random_problem(random.Random(seed), d, 4, forbidden_frac=forbidden, quad_frac=0.5)
    parsed = parse_problem(write_problem(problem))
    rebuilt = MgmProblem(parsed.sizes, {
        pair: PairwiseCosts(table.left_size, table.right_size, table.linear, table.quadratic)
        for pair, table in parsed.costs.items()
    })
    assert parsed == rebuilt == problem
    for pair, table in parsed.costs.items():
        assert list(table.linear.items()) == list(rebuilt.costs[pair].linear.items())
        assert list(table.quadratic.items()) == list(rebuilt.costs[pair].quadratic.items())


class TestWriteProblem:
    def test_roundtrip_t3(self, t3):
        assert parse_problem(write_problem(t3)) == t3

    def test_empty_problem_block(self):
        problem = MgmProblem([1, 1])
        text = write_problem(problem)
        assert "gm 0 1" in text
        assert "\na " not in text
        assert parse_problem(text) == problem

    def test_edge_lines_reference_earlier_ids(self, t3):
        lines = write_problem(t3).splitlines()
        declared = set()
        for line in lines:
            fields = line.split()
            if fields[0] == "gm":
                declared = set()
            elif fields[0] == "a":
                declared.add(int(fields[1]))
            elif fields[0] == "e":
                assert int(fields[1]) in declared and int(fields[2]) in declared

    def test_roundtrip_random_instances(self):
        rng = random.Random(5)
        for _ in range(25):
            problem = random_problem(rng, rng.randint(2, 5), 4)
            assert parse_problem(write_problem(problem)) == problem

    def test_deterministic_output(self, t3):
        assert write_problem(t3) == write_problem(t3)


BOM = "\ufeff".encode()


class TestNonUtf8:
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r", b"\x0c"])
    def test_error_names_the_line_of_the_first_bad_byte(self, newline):
        lines = [b"gm 0 1", b"p 1 1 1 0", b"a 0 0 0 -1.0 \xe9", b"\xff"]
        with pytest.raises(ParseError) as info:
            parse_problem(newline.join(lines) + newline)
        assert info.value.line == 3
        assert str(info.value) == "line 3: invalid UTF-8 byte 0xe9"

    def test_a_byte_order_mark_is_skipped(self, t3):
        text = write_problem(t3)
        assert parse_problem(BOM + text.encode()) == t3
        solution = part({0: 0, 1: 0}, {2: 0})
        document = write_solution(solution, {"objective": objective(t3, solution)})
        parsed = parse_solution(BOM + document.encode(), problem=t3)
        assert parsed.partition == solution and not parsed.warnings

    def test_a_text_source_may_start_with_a_byte_order_mark(self, t3):
        text = "gm 0 1\np 1 1 1 0\na 0 0 0 1.0\n"
        assert parse_problem("\ufeff" + text) == parse_problem(text)
        assert parse_problem("\ufeff" + write_problem(t3)) == t3
        solution = part({0: 0, 1: 0}, {2: 0})
        document = write_solution(solution, {"objective": objective(t3, solution)})
        parsed = parse_solution("\ufeff" + document, problem=t3)
        assert parsed.partition == solution and not parsed.warnings

    def test_a_bad_byte_after_a_byte_order_mark_names_its_line(self):
        with pytest.raises(ParseError) as info:
            parse_problem(BOM + b"gm 0 1\np 1 1 1 0\na 0 0 0 -1.0 \xe9\n")
        assert str(info.value) == "line 3: invalid UTF-8 byte 0xe9"
        with pytest.raises(ParseError) as info:
            parse_problem(BOM + b"\xff")
        assert str(info.value) == "line 1: invalid UTF-8 byte 0xff"

    def test_a_file_reads_as_its_bytes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        with open(path, "rb") as handle, pytest.raises(ParseError, match="line 1: invalid"):
            parse_solution(handle)


class TestSolutionDocuments:
    def test_roundtrip(self, t3):
        solution = part({0: 0, 1: 0}, {2: 0})
        text = write_solution(solution, {"objective": -2.0, "solver": "x", "seed": 1})
        doc = parse_solution(text)
        assert doc.partition == solution
        assert doc.metadata["seed"] == 1

    def test_empty_partition(self):
        from mgmatch.model import CliquePartition

        text = write_solution(CliquePartition())
        doc = parse_solution(text)
        assert len(doc.partition.cliques) == 0

    def test_objective_mismatch_warns(self, t3):
        solution = part({0: 0, 1: 0})
        text = write_solution(solution, {"objective": -99.0})
        doc = parse_solution(text, problem=t3)
        assert doc.warnings

    def test_objective_match_no_warning(self, t3):
        solution = part({0: 0, 1: 0})
        value = objective(t3, solution)
        text = write_solution(solution, {"objective": value})
        doc = parse_solution(text, problem=t3)
        assert not doc.warnings
        assert doc.objective == value

    def test_forbidden_objective_roundtrip(self, t3):
        solution = part({0: 1, 1: 0})
        text = write_solution(solution, {"objective": math.inf})
        doc = parse_solution(text, problem=t3)
        assert doc.objective == math.inf
        assert not doc.warnings

    def test_every_infinite_metadata_value_is_written_forbidden(self):
        metadata = {
            "objective": math.inf,
            "sync_metrics": {"mgm_objective": math.inf, "hamming": 2},
            "outer": {"inner": {"cost": math.inf, "name": "x"}},
        }
        text = write_solution(part({0: 0}), metadata)
        assert "Infinity" not in text
        assert json.loads(text)["metadata"] == {
            "objective": "forbidden",
            "sync_metrics": {"mgm_objective": "forbidden", "hamming": 2},
            "outer": {"inner": {"cost": "forbidden", "name": "x"}},
        }
        assert metadata["sync_metrics"]["mgm_objective"] == math.inf  # not edited

    @pytest.mark.parametrize(
        "clique, stored, warns",
        [
            ({0: 0, 1: 0}, "forbidden", True),  # the solution costs -2.0
            ({0: 1, 1: 0}, -2.0, True),  # (1, 0) of pair (0, 1) is forbidden
            ({0: 1, 1: 0}, "forbidden", False),
            ({0: 0, 1: 0}, -2.0, False),
        ],
        ids=["forbidden-vs-finite", "finite-vs-forbidden", "both-forbidden", "equal-finite"],
    )
    def test_stored_objective_against_recomputed(self, t3, clique, stored, warns):
        text = write_solution(part(clique), {"objective": stored})
        doc = parse_solution(text, problem=t3)
        assert len(doc.warnings) == int(warns)

    @pytest.mark.parametrize("stored", [None, -1.0])
    @pytest.mark.parametrize(
        "cliques",
        [
            [{0: 2, 1: 0}],  # object 0 has vertices 0..1
            [{0: 0, 3: 0}],  # t3 has objects 0..2
            [{0: 0, 1: 0}, {0: 0, 2: 0}],  # vertex (0,0) in two cliques
        ],
    )
    def test_partition_checked_against_problem(self, t3, cliques, stored):
        metadata = {} if stored is None else {"objective": stored}
        text = write_solution(part(*cliques), metadata)
        parse_solution(text)  # without a problem nothing is checked
        with pytest.raises(ParseError):
            parse_solution(text, problem=t3)

    @pytest.mark.parametrize(
        "metadata",
        [[1, 2], "abc", None, {"objective": "abc"}, {"objective": [1]},
         {"objective": None}, {"objective": True}, {"objective": 10**400}],
    )
    def test_malformed_metadata(self, t3, metadata):
        doc = {"format": "mgm-solution", "version": 1, "cliques": [[[0, 0]]],
               "metadata": metadata}
        with pytest.raises(ParseError):
            parse_solution(json.dumps(doc), problem=t3)

    def test_two_vertices_of_one_object_in_a_clique(self, t3):
        for members in ([[0, 0], [0, 1]], [[0, 1], [1, 0], [0, 0]], [[2, 0], [2, 0]]):
            doc = {"format": "mgm-solution", "version": 1, "cliques": [members]}
            with pytest.raises(ParseError, match="two vertices of object"):
                parse_solution(json.dumps(doc))
            with pytest.raises(ParseError, match="two vertices of object"):
                parse_solution(json.dumps(doc), problem=t3)

    @pytest.mark.parametrize(
        "member",
        [[0, 0.9], [0, 0.0], [2.0, 0], ["1", 0], [0, "0"], [True, 0], [0, False],
         [0, None], [0], [0, 0, 0], "ab", 0],
    )
    def test_clique_member_must_be_two_integers(self, t3, member):
        doc = {"format": "mgm-solution", "version": 1, "cliques": [[member]]}
        with pytest.raises(ParseError):
            parse_solution(json.dumps(doc))
        with pytest.raises(ParseError):
            parse_solution(json.dumps(doc), problem=t3)

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_solution("not json at all")
        with pytest.raises(ParseError):
            parse_solution('{"format": "something-else"}')

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_unsupported_version(self, version):
        doc = {"format": "mgm-solution", "cliques": [], "metadata": {}}
        if version is not None:
            doc["version"] = version
        with pytest.raises(ParseError) as err:
            parse_solution(json.dumps(doc))
        assert str(err.value) == f"line 1: unsupported document version {version!r}"

    def test_roundtrip_random_partitions(self):
        rng = random.Random(9)
        for _ in range(25):
            problem = random_problem(rng, rng.randint(2, 4), 3)
            solution = random_partition(rng, problem)
            doc = parse_solution(write_solution(solution))
            assert doc.partition == solution

    def test_clique_order_is_deterministic(self):
        a = part({1: 0}, {0: 0, 2: 0})
        b = part({0: 0, 2: 0}, {1: 0})
        assert write_solution(a) == write_solution(b)

    def test_golden_document(self):
        text = write_solution(part({1: 0}, {0: 0, 2: 0}), {"objective": -1.5, "seed": 3})
        assert text == (
            '{\n'
            '  "cliques": [\n'
            '    [\n'
            '      [\n'
            '        0,\n'
            '        0\n'
            '      ],\n'
            '      [\n'
            '        2,\n'
            '        0\n'
            '      ]\n'
            '    ],\n'
            '    [\n'
            '      [\n'
            '        1,\n'
            '        0\n'
            '      ]\n'
            '    ]\n'
            '  ],\n'
            '  "format": "mgm-solution",\n'
            '  "metadata": {\n'
            '    "objective": -1.5,\n'
            '    "seed": 3\n'
            '  },\n'
            '  "version": 1\n'
            '}\n'
        )


class TestFloatFidelity:
    def test_problem_roundtrip_preserves_floats_exactly(self):
        rng = random.Random(77)
        linear = {
            (i, s): rng.uniform(-1e3, 1e3) * (10.0 ** rng.randint(-6, 6))
            for i in range(3)
            for s in range(3)
        }
        quadratic = {((0, 0), (1, 1)): 0.1 + 0.2, ((0, 1), (1, 0)): -1e-12}
        problem = MgmProblem([3, 3], {(0, 1): PairwiseCosts(3, 3, linear, quadratic)})
        parsed = parse_problem(write_problem(problem))
        assert parsed.costs[(0, 1)].linear == linear  # bit-exact
        assert parsed.costs[(0, 1)].quadratic == quadratic
