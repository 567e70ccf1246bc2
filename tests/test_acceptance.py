"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9 needs a
real benchmark instance and is skipped unless MGM_WORMS10 points to one.
"""

import contextlib
import math
import os
import random
import time
from functools import partial

import pytest

from mgmatch.cli import RunConfig, run
from mgmatch.construction import ConstructionTree, construct_parallel, construct_sequential
from mgmatch.gm import Effort, solve_gm, solve_lap
from mgmatch.local_search import (
    TraceRecorder,
    alternate,
    apply_multiswap,
    gm_local_search,
    swap_deltas,
    swap_local_search,
)
from mgmatch.model import PairwiseCosts, objective, validate
from mgmatch.qpbo import BinaryEnergy, evaluate, minimize
from mgmatch.reduction import (
    complete_to_incomplete,
    incomplete_to_complete,
    to_complete,
)
from mgmatch.synchronization import solution_pairs, synchronize

from oracles import (
    brute_force_energy,
    brute_force_energy_min,
    brute_force_gm,
    brute_force_mgm,
    enumerate_complete_partitions,
    matching_cost,
    random_partition,
    random_problem,
    reference_objective,
)


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


exhaustive = partial(solve_gm, effort=Effort.EXHAUSTIVE)


def full_pipeline(problem, seed, runs=5):
    """Sequential construction plus alternating local search, best of runs."""
    best = None
    best_value = None
    for run_index in range(runs):
        rng = random.Random((seed, run_index).__hash__())
        order = list(range(problem.d))
        rng.shuffle(order)
        solution = construct_sequential(
            problem, order, gm=exhaustive, seed=seed + run_index
        )
        solution = alternate(
            problem, solution, gm=exhaustive, order=order, seed=seed + run_index
        )
        value = objective(problem, solution)
        if best_value is None or value < best_value:
            best, best_value = solution, value
    return best, best_value


def test_criterion_1_brute_force_optimality():
    with criterion(1, "full pipeline hits the exhaustive optimum on >= 90/100 tiny instances"):
        rng = random.Random(2024)
        hits = 0
        oracle_seconds = 0.0
        for k in range(100):
            problem = random_problem(rng, 3, 3, forbidden_frac=0.2, quad_frac=0.3)
            tic = time.perf_counter()
            best_value, _ = brute_force_mgm(problem)
            oracle_seconds += time.perf_counter() - tic
            solution, value = full_pipeline(problem, seed=k, runs=5)
            validate(problem, solution)
            assert value != math.inf
            if abs(value - best_value) <= 1e-9:
                hits += 1
        assert hits >= 90, f"only {hits}/100 optimal"
        assert oracle_seconds < 60.0, f"oracle took {oracle_seconds:.1f}s"
        print(f"  [criterion 1] optimal on {hits}/100, oracle {oracle_seconds:.2f}s")


def test_criterion_2_monotone_acceptance():
    with criterion(2, "all local search traces strictly decrease at accepted steps"):
        rng = random.Random(5150)
        checked = 0
        while checked < 50:
            d = rng.randint(3, 6)
            problem = random_problem(rng, d, 6, forbidden_frac=0.3, quad_frac=0.1, min_size=2)
            start = random_partition(rng, problem)
            initial = objective(problem, start)
            if initial == math.inf:
                continue
            searches = [
                lambda: gm_local_search(problem, start, seed=checked, trace=trace),
                lambda: alternate(problem, start, seed=checked, trace=trace),
                lambda: swap_local_search(problem, start, seed=checked, trace=trace),
            ]
            for search in searches:
                trace = TraceRecorder()
                result = search()
                values = [v for _, _, v in trace.entries]
                assert all(b < a for a, b in zip(values, values[1:])), "trace not strictly decreasing"
                if values:
                    assert values[0] < initial
                final = objective(problem, result)
                assert final <= initial
            checked += 1


def test_criterion_3_swap_delta_exactness():
    with criterion(3, "1000 swap-delta row sums match recomputed objective changes to 1e-9"):
        rng = random.Random(31337)
        samples = 0
        while samples < 1000:
            problem = random_problem(rng, rng.randint(3, 4), 3, forbidden_frac=0.2)
            solution = random_partition(rng, problem)
            base = objective(problem, solution)
            if base == math.inf:
                continue
            cliques = list(solution.cliques)
            if len(cliques) < 2:
                continue
            first, second = rng.sample(cliques, 2)
            (deltas,) = swap_deltas(problem, solution, [(first, second)])
            for p in range(problem.d):
                after = objective(problem, apply_multiswap(solution, first, second, [0] * p + [1]))
                row = deltas[p].sum()
                if after == math.inf:
                    assert row == math.inf
                else:
                    assert abs(row - (after - base)) <= 1e-9
                samples += 1


def random_energy(rng, n, submodular=False):
    unary = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    pairwise = {}
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < 0.4:
                t = [rng.uniform(-3, 3) for _ in range(4)]
                if submodular:
                    gap = t[0] + t[3] - t[1] - t[2]
                    if gap > 0:
                        t[0] -= gap + rng.uniform(0.0, 1.0)
                pairwise[(p, q)] = tuple(t)
    return BinaryEnergy(n, unary, pairwise)


def test_criterion_4_qpbo_correctness():
    with criterion(4, "qpbo exact for n<=12; never worse than init and exact on submodular up to n<=20"):
        rng = random.Random(777)
        for _ in range(500):
            n = rng.randint(1, 12)
            energy = random_energy(rng, n)
            init = tuple(rng.randint(0, 1) for _ in range(n))
            best, _ = brute_force_energy(energy)
            got = evaluate(energy, minimize(energy, init, seed=rng.randrange(10**6)))
            assert abs(got - best) <= 1e-9
        for k in range(500):
            submodular = k % 2 == 0
            n = rng.randint(13, 16) if submodular else rng.randint(1, 20)
            energy = random_energy(rng, n, submodular=submodular)
            init = tuple(rng.randint(0, 1) for _ in range(n))
            result = minimize(energy, init, seed=rng.randrange(10**6))
            assert evaluate(energy, result) <= evaluate(energy, init) + 1e-12
            if energy.is_submodular():
                best = brute_force_energy_min(energy)
                assert abs(evaluate(energy, result) - best) <= 1e-9


def test_criterion_5_lap_exactness():
    with criterion(5, "sparse incomplete LAP equals subset brute force on 200 instances"):
        rng = random.Random(4242)
        for _ in range(200):
            left = rng.randint(1, 6)
            right = rng.randint(1, 6)
            linear = {}
            for a in range(left):
                for b in range(right):
                    if rng.random() >= rng.choice([0.2, 0.5, 0.7]):
                        linear[(a, b)] = round(rng.uniform(-5, 5), 4)
            sub = PairwiseCosts(left, right, linear)
            matching = solve_lap(sub)
            for pair in matching:
                assert pair in sub.linear
            want, _ = brute_force_gm(sub)
            assert abs(matching_cost(sub, matching) - want) <= 1e-9


def test_criterion_6_reduction_identities():
    with criterion(6, "reduction preserves objectives exactly and transfers optima"):
        rng = random.Random(909)
        for _ in range(100):
            problem = random_problem(rng, rng.randint(2, 4), 3, forbidden_frac=0.2)
            complete = to_complete(problem)
            assert sum(complete.dummy_counts()) == (problem.d - 1) * complete.total
            solution = random_partition(rng, problem)
            translated = incomplete_to_complete(solution, complete, seed=rng.randrange(100))
            forward = objective(problem, solution)
            assert reference_objective(complete, translated) == forward  # exact equality
            back = complete_to_incomplete(complete, translated)
            assert objective(problem, back) == forward
        # optimum transfer on exhaustively solvable shapes
        for k in range(3):
            problem = random_problem(rng, 3, 2, forbidden_frac=0.2, quad_frac=0.3)
            complete = to_complete(problem)
            assert complete.total <= 6
            incomplete_best, _ = brute_force_mgm(problem)
            complete_best, best_partition = None, None
            for partition in enumerate_complete_partitions(complete.total, problem.d):
                value = reference_objective(complete, partition)
                if value == math.inf:
                    continue
                if complete_best is None or value < complete_best:
                    complete_best, best_partition = value, partition
            assert abs(complete_best - incomplete_best) <= 1e-9
            translated = complete_to_incomplete(complete, best_partition)
            assert abs(objective(problem, translated) - incomplete_best) <= 1e-9


def test_criterion_7_sparse_guarantee():
    with criterion(7, "construction, LS, and sparse sync never produce forbidden pairs"):
        rng = random.Random(606)
        for k in range(50):
            problem = random_problem(
                rng, rng.randint(3, 5), 4, forbidden_frac=0.6, quad_frac=0.2
            )
            order = list(range(problem.d))
            rng.shuffle(order)
            constructed = construct_sequential(problem, order, seed=k)
            assert objective(problem, constructed) != math.inf
            improved = alternate(problem, constructed, order=order, seed=k)
            assert objective(problem, improved) != math.inf
            synced, metrics = synchronize(problem, mode="sparse", seed=k)
            assert metrics.forbidden_count == 0
            assert metrics.mgm_objective != math.inf
            for solution in (constructed, improved, synced):
                validate(problem, solution)
                for (p, i), (q, s) in solution_pairs(solution):
                    assert problem.linear_cost(p, q, i, s) != math.inf


def test_criterion_8_chain_tree_equivalence():
    with criterion(8, "parallel construction on a chain tree is bitwise-identical to sequential"):
        rng = random.Random(808)
        for k in range(50):
            problem = random_problem(
                rng, rng.randint(3, 6), 4, forbidden_frac=0.3, quad_frac=0.2
            )
            order = list(range(problem.d))
            rng.shuffle(order)
            seed = rng.randrange(10**6)
            sequential = construct_sequential(problem, order, seed=seed)
            tree = ConstructionTree.chain(order)
            parallel = construct_parallel(problem, tree, seed=seed)
            assert sequential.cliques == parallel.cliques


@pytest.mark.skipif(
    not os.environ.get("MGM_WORMS10"),
    reason="set MGM_WORMS10 to a worms-10 dd file to run the dataset check",
)
def test_criterion_9_worms10_conditional(tmp_path):
    with criterion(9, "worms-10 pipeline finishes in budget; sparse sync has no forbidden pairs"):
        from mgmatch.io import parse_problem, parse_solution

        path = os.environ["MGM_WORMS10"]
        out = tmp_path / "worms.json"
        started = time.monotonic()
        config = RunConfig(
            mode="full",
            input_path=path,
            output_path=str(out),
            seed=42,
            runs=1,
            time_limit=420.0,
        )
        assert run(config) == 0
        elapsed = time.monotonic() - started
        assert elapsed < 600.0
        with open(path, "rb") as handle:
            problem = parse_problem(handle)
        doc = parse_solution(out.read_text(), problem)
        assert not doc.warnings
        assert doc.objective != math.inf and doc.objective is not None
        validate(problem, doc.partition)

        sync_out = tmp_path / "worms-sync.json"
        config = RunConfig(
            mode="sync",
            input_path=path,
            output_path=str(sync_out),
            sync_mode="sparse",
            seed=42,
            time_limit=120.0,
        )
        assert run(config) == 0
        sync_doc = parse_solution(sync_out.read_text())
        metrics = sync_doc.metadata["sync_metrics"]
        assert metrics["forbidden_count"] == 0
        # recorded for manual comparison only; no asserted value
        print(f"  [criterion 9] worms-10 M-LAP objective: {metrics['mlap_objective']}")
