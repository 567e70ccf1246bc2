"""Command line front end.

Modes: construct (construction only), ls (local search from a given or
trivial solution), full (construction + local search), sync (pairwise
solves projected to cycle consistency), reduce (print padding statistics
of the incomplete-to-complete reduction).

With runs > 1 the pipeline restarts with shuffled object orders, one
restart after the other, and keeps the best solution found. Algorithm
variants are chosen by flags: --construction seq (chain), par (balanced
construction tree) or inc:<s> (warm-started chain); --ls gm (sequential
GM local search), gm-par (parallel-proposal GM local search), swap,
alternate or none. A time limit cuts searches short and the best
solution so far is still written, flagged in the document metadata.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass

from . import io as mgm_io
from .construction import (
    ConstructionTree,
    construct_incremental,
    construct_parallel,
    construct_sequential,
    derive_seed,
)
from .gm import Effort, get_solver
from .local_search import (
    TraceRecorder,
    alternate,
    gm_local_search,
    gm_local_search_parallel,
    swap_local_search,
)
from .model import FORBIDDEN, CliquePartition, objective
from .reduction import size_report
from .synchronization import synchronize

MODES = ("construct", "ls", "full", "sync", "reduce")
LS_CHOICES = ("gm", "gm-par", "swap", "alternate", "none")


@dataclass
class RunConfig:
    mode: str = "full"
    input_path: str = ""
    output_path: str | None = None
    trace_path: str | None = None
    seed: int = 42
    runs: int = 1
    time_limit: float | None = None
    construction: str = "seq"  # seq | par | inc:<s>
    ls: str = "alternate"  # gm | gm-par | swap | alternate | none
    gm_solver: str = "default"
    gm_effort: str = "default"
    sync_mode: str = "sparse"  # dense | sparse | soft:<alpha>
    sync_post_ls: bool = False
    initial_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time limit must be > 0 seconds")
        if self.ls not in LS_CHOICES:
            raise ValueError(f"unknown local search {self.ls!r}")
        self.sync_kind, self.sync_alpha = _parse_sync_mode(self.sync_mode)
        self.construction_kind, self.warm_start = _parse_construction(self.construction)
        self.effort = Effort(self.gm_effort)


def _parse_sync_mode(text: str) -> tuple[str, float | None]:
    if text in ("dense", "sparse"):
        return text, None
    if text.startswith("soft"):
        _, _, raw = text.partition(":")
        alpha = float(raw) if raw else 1.0
        if not alpha > 0:
            raise ValueError("soft mode needs alpha > 0")
        return "soft", alpha
    raise ValueError(f"unknown sync mode {text!r}")


def _parse_construction(text: str) -> tuple[str, int | None]:
    if text in ("seq", "par"):
        return text, None
    if text.startswith("inc"):
        _, _, raw = text.partition(":")
        if not raw:
            raise ValueError("incremental construction needs a size, e.g. inc:5")
        return "inc", int(raw)
    raise ValueError(f"unknown construction {text!r}")


def _shuffled_order(d: int, seed: int) -> list[int]:
    order = list(range(d))
    random.Random(seed).shuffle(order)
    return order


def _construct(problem, config: RunConfig, gm, seed: int, trace) -> CliquePartition:
    order = _shuffled_order(problem.d, seed)
    if config.construction_kind == "seq":
        solution = construct_sequential(
            problem, order, gm=gm, seed=seed, effort=config.effort
        )
    elif config.construction_kind == "par":
        tree = ConstructionTree.balanced(order)
        solution = construct_parallel(
            problem, tree, gm=gm, seed=seed, effort=config.effort
        )
    else:

        def inner(sub_problem, inner_seed):
            start = construct_sequential(
                sub_problem,
                _shuffled_order(sub_problem.d, inner_seed),
                gm=gm,
                seed=inner_seed,
                effort=config.effort,
            )
            return alternate(
                sub_problem, start, gm=gm, seed=inner_seed, effort=config.effort
            )

        solution = construct_incremental(
            problem,
            order,
            min(config.warm_start, problem.d),
            inner,
            gm=gm,
            seed=seed,
            effort=config.effort,
        )
    if trace is not None:
        value = objective(problem, solution)
        if value is not FORBIDDEN:
            trace.record("construct", value)
    return solution


def _local_search(problem, solution, config: RunConfig, gm, seed, deadline, trace):
    order = _shuffled_order(problem.d, seed)
    if config.ls == "none":
        return solution
    if config.ls == "gm-par":
        return gm_local_search_parallel(
            problem, solution, gm=gm, seed=seed,
            effort=config.effort, deadline=deadline, trace=trace,
        )
    if config.ls == "gm":
        return gm_local_search(
            problem, solution, order=order, gm=gm, seed=seed,
            effort=config.effort, deadline=deadline, trace=trace,
        )
    if config.ls == "swap":
        return swap_local_search(
            problem, solution, seed=seed, deadline=deadline, trace=trace
        )
    return alternate(
        problem, solution, gm=gm, order=order, seed=seed, effort=config.effort,
        deadline=deadline, trace=trace,
    )


def run_restart(problem, config: RunConfig, run_index: int, deadline, initial=None):
    """One pipeline restart; returns (objective, run_index, solution, trace)."""
    gm = get_solver(config.gm_solver)
    seed = derive_seed(config.seed, run_index)
    trace = TraceRecorder()
    if config.mode == "construct":
        solution = _construct(problem, config, gm, seed, trace)
    elif config.mode == "ls":
        solution = initial if initial is not None else CliquePartition()
        solution = solution.normalized(problem.sizes)
        solution = _local_search(problem, solution, config, gm, seed, deadline, trace)
    else:  # full
        solution = _construct(problem, config, gm, seed, trace)
        solution = _local_search(problem, solution, config, gm, seed, deadline, trace)
    value = objective(problem, solution)
    return value, run_index, solution, trace


def _best_restart(results):
    def key(item):
        value = item[0]
        return (float("inf") if value is FORBIDDEN else value, item[1])

    return min(results, key=key)


def run(config: RunConfig) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    started = time.monotonic()
    try:
        with open(config.input_path, "rb") as handle:
            problem = mgm_io.parse_problem(handle)
    except (OSError, mgm_io.ParseError) as exc:
        print(f"error: cannot read problem: {exc}", file=sys.stderr)
        return 2

    if config.mode == "reduce":
        report = json.dumps(size_report(problem), indent=2, sort_keys=True)
        print(report)
        if config.output_path:
            with open(config.output_path, "w") as handle:
                handle.write(report + "\n")
        return 0

    deadline = None if config.time_limit is None else started + config.time_limit
    initial = None
    if config.mode == "ls" and config.initial_path:
        try:
            with open(config.initial_path, "rb") as handle:
                initial = mgm_io.parse_solution(handle, problem).partition
        except (OSError, mgm_io.ParseError) as exc:
            print(f"error: cannot read initial solution: {exc}", file=sys.stderr)
            return 2

    metadata: dict = {
        "mode": config.mode,
        "seed": config.seed,
        "runs": config.runs,
        "solver": _solver_tag(config),
    }
    if config.mode == "sync":
        results = []
        try:
            for run_index in range(config.runs):
                run_trace = TraceRecorder()
                solution, metrics = synchronize(
                    problem,
                    mode=config.sync_kind,
                    alpha=config.sync_alpha,
                    gm=get_solver(config.gm_solver),
                    seed=derive_seed(config.seed, run_index),
                    effort=config.effort,
                    deadline=deadline,
                    trace=run_trace,
                )
                alpha = config.sync_alpha or 0.0
                rank = metrics.mlap_objective + alpha * metrics.forbidden_count
                results.append((rank, run_index, solution, metrics, run_trace))
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rank, _, solution, metrics, trace = min(results, key=lambda r: (r[0], r[1]))
        if config.sync_post_ls:
            gm = get_solver(config.gm_solver)
            improved = alternate(
                problem, solution, gm=gm, seed=derive_seed(config.seed, 777),
                effort=config.effort, deadline=deadline,
            )
            metadata["mgm_objective_post_ls"] = mgm_io._cost_to_json(
                objective(problem, improved)
            )
            solution = improved
        metadata["sync_metrics"] = metrics.to_dict()
        value = objective(problem, solution)
    else:
        try:
            results = [
                run_restart(problem, config, run_index, deadline, initial)
                for run_index in range(config.runs)
            ]
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        value, _, solution, trace = _best_restart(results)

    metadata["objective"] = value
    metadata["wall_time_ms"] = (time.monotonic() - started) * 1000.0
    metadata["time_limit_reached"] = bool(
        deadline is not None and time.monotonic() >= deadline
    )
    document = mgm_io.write_solution(solution, metadata)
    if config.output_path:
        with open(config.output_path, "w") as handle:
            handle.write(document)
    else:
        print(document, end="")
    if config.trace_path:
        with open(config.trace_path, "w") as handle:
            handle.write("elapsed_ms,phase,objective\n")
            for line in trace.lines():
                handle.write(line + "\n")
    return 0


def _solver_tag(config: RunConfig) -> str:
    return (
        f"mgmatch/{config.mode}:{config.construction}+{config.ls}"
        f"/gm={config.gm_solver}:{config.gm_effort}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgm",
        description="Incomplete multi-graph matching solver",
    )
    parser.add_argument("input", help="problem file in dd format")
    parser.add_argument("--mode", choices=MODES, default="full")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=1, help="randomized restarts, best kept")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility with older command lines; has no effect",
    )
    parser.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    parser.add_argument(
        "--construction", default="seq", help="seq, par, or inc:<warm-start-size>"
    )
    parser.add_argument("--ls", choices=LS_CHOICES, default="alternate")
    parser.add_argument("--gm-solver", default="default")
    parser.add_argument(
        "--gm-effort", choices=[e.value for e in Effort], default="default"
    )
    parser.add_argument(
        "--sync-mode", default="sparse", help="dense, sparse, or soft:<alpha>"
    )
    parser.add_argument(
        "--sync-post-ls", action="store_true",
        help="after sync, run local search on the original problem",
    )
    parser.add_argument("--initial", default=None, help="warm-start solution (ls mode)")
    parser.add_argument("--output", default=None, help="solution document path (default stdout)")
    parser.add_argument("--trace", default=None, help="objective-over-time CSV path")
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(
        mode=args.mode,
        input_path=args.input,
        output_path=args.output,
        trace_path=args.trace,
        seed=args.seed,
        runs=args.runs,
        time_limit=args.time_limit,
        construction=args.construction,
        ls=args.ls,
        gm_solver=args.gm_solver,
        gm_effort=args.gm_effort,
        sync_mode=args.sync_mode,
        sync_post_ls=args.sync_post_ls,
        initial_path=args.initial,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
