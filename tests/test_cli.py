import json
import random

import pytest

from mgmatch.cli import RunConfig, main, run
from mgmatch.io import parse_solution, write_problem
from mgmatch.model import objective

from conftest import part
from oracles import random_problem


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


class TestReduceMode:
    def test_prints_padding_stats(self, t3_file, capsys):
        code = main([str(t3_file), "--mode", "reduce"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_dummies"] == 10
        assert report["expected_total_dummies"] == 10


class TestErrors:
    def test_missing_file(self, tmp_path):
        assert main([str(tmp_path / "nope.dd")]) == 2

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(mode="nope")
        with pytest.raises(ValueError):
            RunConfig(runs=0)
        for limit in (0, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                RunConfig(time_limit=limit)

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


def solution_without_wall_time(path):
    data = json.loads(path.read_text())
    data["metadata"].pop("wall_time_ms")
    return data


@pytest.fixture
def proposal_sensitive_file(tmp_path):
    """An instance on which parallel-proposal GM local search ends at a
    different objective than the sequential one."""
    problem = random_problem(random.Random(21), 5, 3, forbidden_frac=0.2, quad_frac=0.3)
    path = tmp_path / "r21.dd"
    path.write_text(write_problem(problem))
    return path


class TestThreadsHaveNoEffect:
    def test_thread_count_does_not_change_output(self, proposal_sensitive_file, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"sol{threads}.json"
            code = main(
                [str(proposal_sensitive_file), "--mode", "full", "--runs", "2", "--seed", "1",
                 "--threads", threads, "--output", str(out)]
            )
            assert code == 0
            outs.append(solution_without_wall_time(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("value", ["abc", "2"])
    def test_env_var_is_ignored(self, proposal_sensitive_file, tmp_path, monkeypatch, value):
        args = [str(proposal_sensitive_file), "--runs", "2", "--seed", "1"]
        plain = tmp_path / "plain.json"
        assert main(args + ["--output", str(plain)]) == 0
        monkeypatch.setenv("MGM_THREADS", value)
        with_env = tmp_path / "env.json"
        assert main(args + ["--output", str(with_env)]) == 0
        assert solution_without_wall_time(with_env) == solution_without_wall_time(plain)


class TestParallelProposalLs:
    def test_gm_par_runs_parallel_proposal_search(self, t3, t3_file, tmp_path, monkeypatch):
        from mgmatch import cli

        calls = []
        original = cli.gm_local_search_parallel

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("--ls gm-par must not run sequential GM local search")

        monkeypatch.setattr(cli, "gm_local_search_parallel", counting)
        monkeypatch.setattr(cli, "gm_local_search", refuse)
        out = tmp_path / "sol.json"
        assert main([str(t3_file), "--ls", "gm-par", "--runs", "2", "--output", str(out)]) == 0
        assert len(calls) == 2
        doc = read_doc(out, t3)
        assert not doc.warnings
        assert "+gm-par/" in doc.metadata["solver"]
