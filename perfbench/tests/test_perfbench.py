"""Smoke-size tests of the benchmark's own parts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import harness  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402

SMOKE_WORMS = {"d": 4, "n": 6, "candidates": 3, "quadratic": 5}
SMOKE_HOTEL = {"d": 3, "n": 4, "quadratic": 4}


def document(cliques, objective, **extra):
    metadata = {"objective": objective, **extra}
    return json.dumps(
        {"format": "mgm-solution", "version": 1, "cliques": cliques, "metadata": metadata}
    )


@pytest.fixture
def worms():
    return instances.worms_like(3, **SMOKE_WORMS)


def planted_document(instance):
    cliques = instance.planted_cliques()
    value, forbidden, _ = checker.clique_objective(instance, cliques)
    assert forbidden == 0
    return [[list(m) for m in c] for c in cliques], value


class TestInstances:
    @pytest.mark.parametrize("layout", [None, 5])
    def test_same_seed_same_bytes(self, layout):
        for make, params in ((instances.worms_like, SMOKE_WORMS), (instances.hotel_like, SMOKE_HOTEL)):
            first = instances.write_dd(make(7, **params), layout_seed=layout)
            second = instances.write_dd(make(7, **params), layout_seed=layout)
            assert first == second
            assert first != instances.write_dd(make(8, **params), layout_seed=layout)

    def test_layout_changes_bytes_not_model(self, worms, tmp_path):
        sorted_text = instances.write_dd(worms)
        shuffled_text = instances.write_dd(worms, layout_seed=1)
        assert sorted_text != shuffled_text
        for k, text in enumerate((sorted_text, shuffled_text)):
            path = tmp_path / f"p{k}.dd"
            path.write_text(text)
            assert harness.probe(str(path))["digest"] == instances.instance_digest(worms)

    def test_shapes(self, worms):
        hotel = instances.hotel_like(1, **SMOKE_HOTEL)
        assert all(len(t) == 4 * 4 for t in hotel.linear.values())
        assert all(len(t) == SMOKE_HOTEL["quadratic"] for t in hotel.quadratic.values())
        assert worms.sizes == [SMOKE_WORMS["n"]] * SMOKE_WORMS["d"]
        assert all(len(t) <= 6 * 3 for t in worms.linear.values())


class TestChecker:
    def test_accepts_planted_solution(self, worms):
        cliques, value = planted_document(worms)
        result = checker.check_document(worms, document(cliques, value), "full")
        assert result["objective"] == value

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda c: c + [[c[0][0]]], id="vertex-twice"),
            pytest.param(lambda c: [c[0] + [[c[0][0][0], 5]]] + c[1:], id="object-twice"),
            pytest.param(lambda c: c + [[[0, 99]]], id="out-of-range"),
            pytest.param(lambda c: c + [[[0, "1"]]], id="not-an-int"),
        ],
    )
    def test_rejects_infeasible_partition(self, worms, mutate):
        cliques, value = planted_document(worms)
        with pytest.raises(checker.CheckError):
            checker.check_document(worms, document(mutate(cliques), value), "full")

    def test_rejects_forbidden_match(self, worms):
        table = worms.linear[(0, 1)]
        i, s = next((i, s) for i in range(6) for s in range(6) if (i, s) not in table)
        with pytest.raises(checker.CheckError, match="forbidden"):
            checker.check_document(worms, document([[[0, i], [1, s]]], 0.0), "full")

    @pytest.mark.parametrize("stored", [1e-6, "forbidden", None])
    def test_rejects_wrong_stored_objective(self, worms, stored):
        cliques, value = planted_document(worms)
        wrong = value + stored if isinstance(stored, float) else stored
        with pytest.raises(checker.CheckError):
            checker.check_document(worms, document(cliques, wrong), "full")

    def test_rejects_unparsable_document(self, worms):
        with pytest.raises(checker.CheckError):
            checker.check_document(worms, "{not json", "full")

    def test_sync_metrics_must_agree(self, worms):
        cliques, value = planted_document(worms)
        _, _, matches = checker.clique_objective(worms, worms.planted_cliques())
        # one shared pair, five pairwise matches: hamming = 5 + matches - 2
        good = {"forbidden_count": 0, "mgm_objective": value, "mlap_objective": -1.0, "hamming": matches + 3}
        text = document(cliques, value, sync_metrics=good)
        assert checker.check_document(worms, text, "sync")["sync_mlap"] == -1.0
        for key, bad in (("forbidden_count", 1), ("mgm_objective", value - 1), ("mlap_objective", -matches - 1.0)):
            text = document(cliques, value, sync_metrics=dict(good, **{key: bad}))
            with pytest.raises(checker.CheckError):
                checker.check_document(worms, text, "sync")


class TestTracing:
    @pytest.mark.parametrize("mode", [["--mode", "full"], ["--mode", "sync", "--sync-mode", "sparse"]])
    def test_self_times_sum_to_traced_wall(self, worms, tmp_path, mode):
        from mgmatch import cli, gm

        problem = tmp_path / "p.dd"
        problem.write_text(instances.write_dd(worms, layout_seed=2))
        output = tmp_path / "out.json"
        argv = [str(problem), *mode, "--threads", "1", "--seed", "1", "--output", str(output)]
        original = (cli.objective, gm.get_solver("default"))
        result = harness.run_cli(argv, traced=True)
        assert (cli.objective, gm.get_solver("default")) == original
        assert result["exit"] == 0
        checker.check_document(worms, output.read_text(), mode[1])

        table = harness.aggregate(result["spans"])
        metrics = harness.layer_metrics(result["spans"], result["phases"], result["wall_s"])
        assert set(metrics) == {name for name, _, _ in harness.LAYER_METRICS}
        layers = sum(row["self_s"] for name, row in table.items() if name != harness.ROOT_SPAN)
        assert layers + metrics["cli.other_self_s"] == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
        assert metrics["model.objective.calls"] > 0
        assert metrics["gm.solve_lap.calls"] > 0
        if mode[1] == "sync":
            assert metrics["synchronization.solve_all_pairwise.s"] > 0
        else:
            assert metrics["local_search.gm_ls.proposals"] >= worms.d

    def test_aggregate_self_time(self):
        spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1), ("a", 5.0, 6.0, 0)]
        table = harness.aggregate(spans)
        assert table["root"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
        assert table["a"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
        assert table["b"]["self_s"] == 1.0


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == harness.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
