import json
import math
import random
from dataclasses import fields

import pytest

from mgmatch.cli import RunConfig, build_parser, main, run
from mgmatch.io import parse_solution, write_problem
from mgmatch.local_search import TraceRecorder
from mgmatch.model import MgmProblem, PairwiseCosts, objective

from conftest import part
from oracles import random_partition, random_problem


@pytest.fixture
def t3_file(t3, tmp_path):
    path = tmp_path / "t3.dd"
    path.write_text(write_problem(t3))
    return path


def read_doc(path, problem=None):
    return parse_solution(path.read_text(), problem)


class TestFullMode:
    def test_reaches_optimum_with_restarts(self, t3, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [
                str(t3_file),
                "--mode", "full",
                "--seed", "42",
                "--runs", "10",
                "--gm-effort", "exhaustive",
                "--output", str(out),
            ]
        )
        assert code == 0
        doc = read_doc(out, t3)
        assert not doc.warnings
        assert doc.objective == pytest.approx(-3.5)

    def test_deterministic_modulo_wall_time(self, t3_file, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"sol{k}.json"
            main([str(t3_file), "--seed", "7", "--runs", "3", "--output", str(out)])
            data = json.loads(out.read_text())
            data["metadata"].pop("wall_time_ms")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_best_of_runs_not_worse_than_single(self, t3, t3_file, tmp_path):
        single = tmp_path / "one.json"
        many = tmp_path / "many.json"
        main([str(t3_file), "--seed", "1", "--runs", "1", "--output", str(single)])
        main([str(t3_file), "--seed", "1", "--runs", "8", "--output", str(many)])
        assert read_doc(many).objective <= read_doc(single).objective


    def test_trace_lines_formatted_only_with_a_trace_path(self, t3_file, tmp_path, monkeypatch):
        calls = []
        lines = TraceRecorder.lines
        monkeypatch.setattr(TraceRecorder, "lines", lambda self: calls.append(1) or lines(self))
        argv = [str(t3_file), "--mode", "full", "--output", str(tmp_path / "sol.json")]
        trace = tmp_path / "trace.csv"
        assert main(argv) == 0
        assert calls == []
        assert main([*argv, "--trace", str(trace)]) == 0
        assert calls == [1]
        assert trace.read_text().startswith("elapsed_ms,phase,objective\n")


class TestConstructMode:
    def test_no_ls_trace_entries(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                str(t3_file),
                "--mode", "construct",
                "--construction", "seq",
                "--output", str(out),
                "--trace", str(trace),
            ]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "elapsed_ms,phase,objective"
        phases = {line.split(",")[1] for line in lines[1:]}
        assert phases <= {"construct"}

    def test_parallel_construction(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--mode", "construct", "--construction", "par",
             "--output", str(out)]
        )
        assert code == 0

    def test_incremental_construction(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--mode", "construct", "--construction", "inc:2",
             "--output", str(out)]
        )
        assert code == 0


class TestLsMode:
    def test_from_initial_document(self, t3, t3_file, tmp_path):
        from mgmatch.io import write_solution

        initial = tmp_path / "init.json"
        initial.write_text(write_solution(part({0: 0, 1: 1})))
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--mode", "ls", "--gm-effort", "exhaustive",
             "--initial", str(initial), "--output", str(out)]
        )
        assert code == 0
        doc = read_doc(out, t3)
        assert doc.objective <= objective(t3, part({0: 0, 1: 1}))

    def test_inputs_with_a_byte_order_mark(self, t3, tmp_path):
        from mgmatch.io import write_solution

        problem, initial = tmp_path / "bom.dd", tmp_path / "bom.json"
        problem.write_text(write_problem(t3), encoding="utf-8-sig")
        initial.write_text(write_solution(part({0: 0, 1: 1})), encoding="utf-8-sig")
        out = tmp_path / "sol.json"
        code = main([str(problem), "--mode", "ls", "--initial", str(initial), "--output", str(out)])
        assert code == 0
        assert read_doc(out, t3).objective <= objective(t3, part({0: 0, 1: 1}))

    @pytest.mark.parametrize("stored, warns", [(5.0, True), (-2.0, False)])
    def test_initial_objective_mismatch_warns(
        self, t3, t3_file, tmp_path, capsys, stored, warns
    ):
        from mgmatch.io import write_solution

        start = part({0: 0, 1: 0})
        assert objective(t3, start) == -2.0
        initial = tmp_path / "init.json"
        initial.write_text(write_solution(start, {"objective": stored}))
        out = tmp_path / "sol.json"
        code = main([str(t3_file), "--mode", "ls", "--initial", str(initial),
                     "--output", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert ("warning: stored objective 5.0" in err) is warns
        assert ("warning" in err) is warns

    def test_forbidden_initial_solution_is_repaired(self, tmp_path):
        """The start's forbidden matches lie on the object pairs (0, 1),
        (1, 2) and (2, 3), so no single re-match removes them all; GM local
        search accepts each re-match of an object that holds one, and the
        document and the trace hold finite objectives."""
        from mgmatch.io import write_solution

        rng = random.Random(3)
        problem = random_problem(rng, 4, 3, forbidden_frac=0.6)
        start = random_partition(rng, problem)
        assert objective(problem, start) == math.inf
        path, initial = tmp_path / "r3.dd", tmp_path / "init.json"
        path.write_text(write_problem(problem))
        initial.write_text(write_solution(start))
        out, trace = tmp_path / "sol.json", tmp_path / "trace.csv"
        code = main([str(path), "--mode", "ls", "--initial", str(initial),
                     "--output", str(out), "--trace", str(trace)])
        assert code == 0
        doc = read_doc(out, problem)
        assert doc.objective == objective(problem, doc.partition) < math.inf
        values = [float(line.split(",")[2]) for line in trace.read_text().splitlines()[1:]]
        assert values and max(values) < math.inf

    def test_from_scratch(self, t3, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--mode", "ls", "--gm-effort", "exhaustive",
             "--output", str(out)]
        )
        assert code == 0
        assert read_doc(out).objective == pytest.approx(-3.5)


class TestSyncMode:
    def test_sparse_reports_zero_forbidden(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--mode", "sync", "--sync-mode", "sparse",
             "--gm-effort", "exhaustive", "--output", str(out)]
        )
        assert code == 0
        doc = read_doc(out)
        metrics = doc.metadata["sync_metrics"]
        assert metrics["forbidden_count"] == 0
        assert metrics["mgm_objective"] != "forbidden"

    def test_soft_mode_flag(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--mode", "sync", "--sync-mode", "soft:1.5",
             "--output", str(out)]
        )
        assert code == 0

    def test_post_ls_chains(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--mode", "sync", "--sync-mode", "sparse",
             "--sync-post-ls", "--gm-effort", "exhaustive", "--output", str(out)]
        )
        assert code == 0
        doc = read_doc(out)
        assert "mgm_objective_post_ls" in doc.metadata

    def test_trace_ends_at_the_post_ls_objective(self, tmp_path):
        # The restart's trace entries are projection objectives; from the
        # sync-post-ls entry on they are objectives of the original problem.
        problem = random_problem(random.Random(3), 5, 4, forbidden_frac=0.2, quad_frac=0.3)
        path = tmp_path / "r3.dd"
        path.write_text(write_problem(problem))
        out, trace = tmp_path / "sol.json", tmp_path / "trace.csv"
        code = main(
            [str(path), "--mode", "sync", "--sync-mode", "dense", "--sync-post-ls",
             "--seed", "1", "--output", str(out), "--trace", str(trace)]
        )
        assert code == 0
        metadata = read_doc(out, problem).metadata
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        phases = [phase for _, phase, _ in rows]
        values = [float(value) for _, _, value in rows[phases.index("sync-post-ls"):]]
        assert values[0] == metadata["sync_metrics"]["mgm_objective"]
        assert len(values) > 1
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == metadata["mgm_objective_post_ls"]


class TestForbiddenInDocuments:
    """A forbidden objective is written as the string "forbidden", never as
    a JSON number, and is not traced."""

    def test_ls_none_keeps_a_forbidden_initial_solution(self, t3_file, tmp_path):
        from mgmatch.io import write_solution

        initial = tmp_path / "init.json"
        initial.write_text(write_solution(part({0: 1, 1: 0})))  # forbidden in t3
        out, trace = tmp_path / "sol.json", tmp_path / "trace.csv"
        code = main(
            [str(t3_file), "--mode", "ls", "--ls", "none", "--initial", str(initial),
             "--output", str(out), "--trace", str(trace)]
        )
        assert code == 0
        text = out.read_text()
        assert '"objective": "forbidden"' in text
        assert "Infinity" not in text
        assert trace.read_text() == "elapsed_ms,phase,objective\n"

    @pytest.mark.parametrize("post_ls", [False, True])
    def test_soft_sync_keeps_a_forbidden_match(self, chain3, tmp_path, post_ls):
        path = tmp_path / "chain3.dd"
        path.write_text(write_problem(chain3))
        out = tmp_path / "sol.json"
        code = main(
            [str(path), "--mode", "sync", "--sync-mode", "soft:0.5", "--output", str(out)]
            + ["--sync-post-ls"] * post_ls
        )
        assert code == 0
        text = out.read_text()
        assert "Infinity" not in text
        metrics = json.loads(text)["metadata"]["sync_metrics"]
        assert metrics["forbidden_count"] == 1
        assert metrics["mgm_objective"] == "forbidden"


class TestSolverTag:
    @pytest.mark.parametrize(
        "flags, tag",
        [
            (["--mode", "construct", "--ls", "swap"], "construct:seq"),
            (["--mode", "ls", "--construction", "par", "--ls", "swap"], "ls:swap"),
            (["--mode", "full", "--construction", "par", "--ls", "gm"], "full:par+gm"),
            (["--mode", "sync", "--construction", "inc:100", "--ls", "gm"], "sync:sparse"),
            (["--mode", "sync", "--sync-mode", "soft:0.5", "--sync-post-ls"],
             "sync:soft:0.5+post-ls"),
        ],
    )
    def test_names_only_the_flags_the_mode_reads(self, t3_file, tmp_path, flags, tag):
        out = tmp_path / "sol.json"
        assert main([str(t3_file), *flags, "--gm-effort", "fast", "--output", str(out)]) == 0
        assert read_doc(out).metadata["solver"] == f"mgmatch/{tag}/gm=default:fast"


# The --mode reduce reports of t3 and of a problem with sizes (2, 0, 3),
# byte for byte.
T3_REDUCE_REPORT = """\
{
  "complete_object_size": 5,
  "dummies_per_object": [
    3,
    3,
    4
  ],
  "expected_total_dummies": 10,
  "object_sizes": [
    2,
    2,
    1
  ],
  "objects": 3,
  "total_dummies": 10,
  "total_vertices": 5
}
"""

SIZE_ZERO_REDUCE_REPORT = """\
{
  "complete_object_size": 5,
  "dummies_per_object": [
    3,
    5,
    2
  ],
  "expected_total_dummies": 10,
  "object_sizes": [
    2,
    0,
    3
  ],
  "objects": 3,
  "total_dummies": 10,
  "total_vertices": 5
}
"""


class TestReduceMode:
    def test_prints_padding_stats(self, t3_file, capsys):
        code = main([str(t3_file), "--mode", "reduce"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == T3_REDUCE_REPORT
        report = json.loads(out)
        assert report["total_dummies"] == 10
        assert report["expected_total_dummies"] == 10

    def test_size_zero_object(self, tmp_path, capsys):
        table = PairwiseCosts(2, 3, {(0, 1): -1.0})
        path = tmp_path / "empty.dd"
        path.write_text(write_problem(MgmProblem([2, 0, 3], {(0, 2): table})))
        assert main([str(path), "--mode", "reduce"]) == 0
        assert capsys.readouterr().out == SIZE_ZERO_REDUCE_REPORT

    def test_output_file_equals_stdout(self, t3_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main([str(t3_file), "--mode", "reduce", "--output", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, tmp_path):
        assert main([str(tmp_path / "nope.dd")]) == 2

    @pytest.mark.parametrize(
        "flags", [["--output"], ["--trace"], ["--mode", "reduce", "--output"]]
    )
    def test_unwritable_result_path(self, t3_file, tmp_path, capsys, flags):
        target = tmp_path / "missing" / "x"
        assert main([str(t3_file), *flags, str(target)]) == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err

    def test_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.dd"
        bad.write_text("this is not a problem\n")
        assert main([str(bad)]) == 2

    def test_inconsistent_object_size(self, tmp_path, capsys):
        bad = tmp_path / "bad.dd"
        bad.write_text("gm 0 1\np 2 2 0 0\ngm 0 2\np 5 2 0 0\n")
        assert main([str(bad)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_entry_count_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.dd"
        bad.write_text("gm 0 1\np 1 1 2 0\na 0 0 0 -1.0\n")
        assert main([str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_sync_mode(self, t3_file):
        assert main([str(t3_file), "--mode", "sync", "--sync-mode", "soft:-1"]) == 2

    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan", "1e400"])
    def test_soft_alpha_must_be_finite(self, t3_file, tmp_path, capsys, alpha):
        out = tmp_path / "sol.json"
        argv = [str(t3_file), "--mode", "sync", "--sync-mode", f"soft:{alpha}",
                "--output", str(out)]
        assert main(argv) == 2
        assert "finite alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_block_without_p_line(self, tmp_path, capsys):
        bad = tmp_path / "nop.dd"
        bad.write_text("gm 0 1\ngm 1 2\np 3 3 0 0\n")
        assert main([str(bad), "--mode", "reduce"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "no 'p' line" in err

    def test_empty_initial_path_is_read(self, t3_file, capsys):
        assert main([str(t3_file), "--mode", "ls", "--initial", ""]) == 2
        assert "initial solution" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["construct", "full", "sync", "reduce"])
    def test_initial_outside_ls_mode(self, t3_file, tmp_path, capsys, mode):
        out = tmp_path / "sol.json"
        argv = [str(t3_file), "--mode", mode, "--initial", str(tmp_path / "none.json"),
                "--output", str(out)]
        assert main(argv) == 2
        assert "ls mode only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["construct", "full"])
    @pytest.mark.parametrize("size", ["1", "4"])
    def test_warm_start_size_outside_object_count(self, t3_file, tmp_path, capsys, mode, size):
        # t3 has three objects; a size above d was once clamped to d silently.
        out = tmp_path / "sol.json"
        argv = [str(t3_file), "--mode", mode, "--construction", f"inc:{size}",
                "--output", str(out)]
        assert main(argv) == 2
        assert "--construction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["construct", "full"])
    def test_warm_start_size_equal_to_object_count(self, t3, t3_file, tmp_path, mode):
        out = tmp_path / "sol.json"
        argv = [str(t3_file), "--mode", mode, "--construction", "inc:3", "--output", str(out)]
        assert main(argv) == 0
        tag = {"construct": "construct:inc:3", "full": "full:inc:3+alternate"}[mode]
        assert read_doc(out, t3).metadata["solver"] == f"mgmatch/{tag}/gm=default:default"

    def test_initial_member_not_an_integer(self, t3_file, tmp_path, capsys):
        initial = tmp_path / "init.json"
        doc = {"format": "mgm-solution", "version": 1, "cliques": [[[0, 0], [1, 0.9]]]}
        initial.write_text(json.dumps(doc))
        assert main([str(t3_file), "--mode", "ls", "--initial", str(initial)]) == 2
        assert "malformed clique list" in capsys.readouterr().err

    def test_every_option_is_a_config_field(self):
        dests = {action.dest for action in build_parser()._actions} - {"help", "threads"}
        assert dests == {field.name for field in fields(RunConfig)}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(mode="nope")
        with pytest.raises(ValueError):
            RunConfig(runs=0)
        for limit in (0, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                RunConfig(time_limit=limit)
        for alpha in ("inf", "nan"):
            with pytest.raises(ValueError):
                RunConfig(mode="sync", sync_mode=f"soft:{alpha}")
        with pytest.raises(ValueError):
            RunConfig(mode="full", initial_path="start.json")
        assert RunConfig(mode="ls", initial_path="start.json").initial_path == "start.json"
        assert RunConfig(mode="sync", sync_mode="soft").sync_alpha == 1.0
        assert RunConfig(construction="inc:12").warm_start == 12
        with pytest.raises(ValueError):
            RunConfig(ls="gm-par")

    def test_unknown_local_search_is_an_invalid_choice(self, t3_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        with pytest.raises(SystemExit) as exc:
            main([str(t3_file), "--ls", "gm-par", "--output", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'gm-par'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_time_limit(self, t3_file, tmp_path, capsys, limit):
        out = tmp_path / "sol.json"
        assert main([str(t3_file), "--time-limit", limit, "--output", str(out)]) == 2
        assert "time limit" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_object_size(self, tmp_path, capsys):
        bad = tmp_path / "bad.dd"
        bad.write_text("gm 0 1\np -1 2 0 0\n")
        assert main([str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--sync-mode", "softer"],
            ["--sync-mode", "soft:"],
            ["--sync-mode", "soft:x"],
            ["--construction", "incr:2"],
            ["--construction", "inc:x"],
            ["--construction", "inc:"],
        ],
    )
    def test_misspelt_algorithm_flag(self, t3_file, tmp_path, capsys, flag):
        out = tmp_path / "sol.json"
        assert main([str(t3_file), "--mode", "sync", *flag, "--output", str(out)]) == 2
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_initial_malformed_metadata(self, t3_file, tmp_path, capsys):
        initial = tmp_path / "init.json"
        doc = {"format": "mgm-solution", "version": 1, "cliques": [], "metadata": "abc"}
        initial.write_text(json.dumps(doc))
        assert main([str(t3_file), "--mode", "ls", "--initial", str(initial)]) == 2
        assert "metadata is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("metadata", [{}, {"objective": -1.0}])
    def test_initial_vertex_out_of_range(self, t3_file, tmp_path, capsys, metadata):
        from mgmatch.io import write_solution

        initial = tmp_path / "init.json"
        initial.write_text(write_solution(part({0: 0, 1: 5}), metadata))
        code = main([str(t3_file), "--mode", "ls", "--initial", str(initial)])
        assert code == 2
        assert "initial solution" in capsys.readouterr().err


class TestTimeLimit:
    def test_best_so_far_written(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [str(t3_file), "--time-limit", "0.000001", "--runs", "2",
             "--output", str(out)]
        )
        assert code == 0
        doc = read_doc(out)
        assert doc.metadata["time_limit_reached"] is True
        assert doc.objective is not None


    @pytest.mark.parametrize("mode, phase", [("full", "_construct"), ("sync", "synchronize")])
    @pytest.mark.parametrize(
        "limit, restarts", [(["--time-limit", "1e-9"], 1), ([], 5)], ids=["limit", "no-limit"]
    )
    def test_no_restart_starts_after_the_deadline(
        self, t3_file, tmp_path, monkeypatch, mode, phase, limit, restarts
    ):
        from mgmatch import cli

        calls = []
        original = getattr(cli, phase)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, phase, counting)
        out = tmp_path / "sol.json"
        argv = [str(t3_file), "--mode", mode, "--runs", "5", "--output", str(out)]
        assert main(argv + limit) == 0
        assert len(calls) == restarts
        assert read_doc(out).metadata["time_limit_reached"] is bool(limit)


    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "full"],
            ["--mode", "construct", "--construction", "par"],
            ["--mode", "full", "--construction", "inc:2"],
            ["--mode", "sync"],
            ["--mode", "sync", "--sync-post-ls"],
        ],
        ids=["full", "par", "inc", "sync", "sync-post-ls"],
    )
    def test_expired_deadline_makes_no_gm_solve(self, t3, t3_file, tmp_path, monkeypatch, args):
        # Counts the configured solver only: sync's projection solves its
        # linear subproblems with solve_gm directly and runs past the deadline.
        from mgmatch import gm

        calls = []
        solver = gm.get_solver("default")

        def counting(sub, seed, effort):
            calls.append(1)
            return solver(sub, seed, effort)

        monkeypatch.setitem(gm._REGISTRY, "default", counting)
        out = tmp_path / "sol.json"
        assert main([str(t3_file), *args, "--time-limit", "1e-9", "--output", str(out)]) == 0
        assert calls == []
        doc = read_doc(out, t3)
        assert doc.metadata["time_limit_reached"] is True
        assert doc.objective == objective(t3, doc.partition)

    @pytest.mark.parametrize("mode", ["full", "sync"])
    def test_distant_limit_changes_nothing(self, r21_file, tmp_path, mode):
        """A limit that is never reached gives the document and trace of a
        run without one."""
        runs = {}
        for name, limit in (("none", []), ("far", ["--time-limit", "1e9"])):
            out, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            argv = [str(r21_file), "--mode", mode, "--runs", "2", "--seed", "1",
                    "--output", str(out), "--trace", str(trace), *limit]
            assert main(argv) == 0
            rows = [line.split(",", 1)[1] for line in trace.read_text().splitlines()]
            runs[name] = solution_without_wall_time(out), rows
        assert runs["far"] == runs["none"]
        assert len(runs["none"][1]) > 2  # the header and at least two entries
        assert runs["far"][0]["metadata"]["time_limit_reached"] is False


def solution_without_wall_time(path):
    data = json.loads(path.read_text())
    data["metadata"].pop("wall_time_ms")
    return data


@pytest.fixture
def r21_file(tmp_path):
    """A small random instance with forbidden pairs and quadratic terms, on
    which a full-mode run with two restarts at seed 1 accepts both GM and
    swap moves."""
    problem = random_problem(random.Random(21), 5, 3, forbidden_frac=0.2, quad_frac=0.3)
    path = tmp_path / "r21.dd"
    path.write_text(write_problem(problem))
    return path


class TestThreadsHaveNoEffect:
    def test_thread_count_does_not_change_output(self, r21_file, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"sol{threads}.json"
            code = main(
                [str(r21_file), "--mode", "full", "--runs", "2", "--seed", "1",
                 "--threads", threads, "--output", str(out)]
            )
            assert code == 0
            outs.append(solution_without_wall_time(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("value", ["abc", "2"])
    def test_env_var_is_ignored(self, r21_file, tmp_path, monkeypatch, value):
        args = [str(r21_file), "--runs", "2", "--seed", "1"]
        plain = tmp_path / "plain.json"
        assert main(args + ["--output", str(plain)]) == 0
        monkeypatch.setenv("MGM_THREADS", value)
        with_env = tmp_path / "env.json"
        assert main(args + ["--output", str(with_env)]) == 0
        assert solution_without_wall_time(with_env) == solution_without_wall_time(plain)


class TestGmEffort:
    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "full"],
            ["--mode", "full", "--construction", "par"],
            ["--mode", "full", "--construction", "inc:2"],
            ["--mode", "sync"],
            ["--mode", "sync", "--sync-post-ls"],
        ],
        ids=["full", "par", "inc", "sync", "sync-post-ls"],
    )
    def test_effort_flag_reaches_every_solve(self, t3_file, tmp_path, monkeypatch, args):
        from mgmatch import gm

        efforts = []
        solver = gm.get_solver("default")

        def recording(sub, seed, effort=gm.Effort.DEFAULT):
            efforts.append(effort)
            return solver(sub, seed, effort)

        monkeypatch.setitem(gm._REGISTRY, "default", recording)
        out = tmp_path / "sol.json"
        argv = [str(t3_file), *args, "--gm-effort", "fast", "--output", str(out)]
        assert main(argv) == 0
        assert efforts
        assert set(efforts) == {gm.Effort.FAST}
