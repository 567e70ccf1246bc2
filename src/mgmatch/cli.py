"""Command line front end.

Modes: construct (construction only), ls (local search from a given or
trivial solution), full (construction + local search), sync (pairwise
solves projected to cycle consistency), reduce (print the padding that
a reduction to complete matching would add: every object grows to the
total vertex count).

With runs > 1 the pipeline restarts with shuffled object orders, one
restart after the other, and keeps the best solution found; sync mode
ranks its restarts by the projection objective. Algorithm
variants are chosen by flags: --construction seq (chain), par (balanced
construction tree) or inc:<s> (warm-started chain); --ls gm (GM local
search), swap, alternate or none. A time limit cuts searches short,
and no restart after the first starts once it has passed; the best
solution so far is still written, flagged in the document metadata.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    swap_local_search,
)
from .model import CliquePartition, objective
from .synchronization import synchronize

MODES = ("construct", "ls", "full", "sync", "reduce")
LS_CHOICES = ("gm", "swap", "alternate", "none")


@dataclass
class RunConfig:
    mode: str = "full"
    input_path: str = ""
    output_path: str | None = None
    trace_path: str | None = None
    seed: int = 42
    runs: int = 1
    time_limit: float = math.inf
    construction: str = "seq"  # seq | par | inc:<s>
    ls: str = "alternate"  # gm | swap | alternate | none
    gm_effort: str = "default"
    sync_mode: str = "sparse"  # dense | sparse | soft:<alpha>
    sync_post_ls: bool = False
    initial_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.time_limit > 0:
            raise ValueError("time limit must be > 0 seconds")
        if self.ls not in LS_CHOICES:
            raise ValueError(f"unknown local search {self.ls!r}")
        if self.initial_path is not None and self.mode != "ls":
            raise ValueError(
                f"an initial solution (--initial) is read in ls mode only, not in {self.mode} mode"
            )
        self.sync_kind, self.sync_alpha = _parse_sync_mode(self.sync_mode)
        self.construction_kind, self.warm_start = _parse_construction(self.construction)
        self.effort = Effort(self.gm_effort)


def _parse_sync_mode(text: str) -> tuple[str, float | None]:
    """dense, sparse, soft or soft:<alpha>; nothing else."""
    if text in ("dense", "sparse"):
        return text, None
    if text == "soft":
        return "soft", 1.0
    kind, _, raw = text.partition(":")
    if kind != "soft" or not raw:
        raise ValueError(f"unknown --sync-mode {text!r}: use dense, sparse or soft:<alpha>")
    try:
        alpha = float(raw)
    except ValueError:
        alpha = math.nan
    if not 0 < alpha < math.inf:
        raise ValueError(f"--sync-mode soft needs a finite alpha > 0, got {raw!r}")
    return "soft", alpha


def _parse_construction(text: str) -> tuple[str, int | None]:
    """seq, par or inc:<size>; nothing else."""
    if text in ("seq", "par"):
        return text, None
    kind, _, raw = text.partition(":")
    if kind != "inc" or not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"unknown --construction {text!r}: use seq, par or inc:<size>")
    return "inc", int(raw)


def _shuffled_order(d: int, seed: int) -> list[int]:
    order = list(range(d))
    random.Random(seed).shuffle(order)
    return order


def _construct(problem, config: RunConfig, gm, seed: int, deadline, trace) -> CliquePartition:
    order = _shuffled_order(problem.d, seed)
    if config.construction_kind == "seq":
        solution = construct_sequential(problem, order, gm=gm, seed=seed, deadline=deadline)
    elif config.construction_kind == "par":
        tree = ConstructionTree.balanced(order)
        solution = construct_parallel(problem, tree, gm=gm, seed=seed, deadline=deadline)
    else:

        def inner(sub_problem, inner_seed):
            start = construct_sequential(
                sub_problem,
                _shuffled_order(sub_problem.d, inner_seed),
                gm=gm,
                seed=inner_seed,
                deadline=deadline,
            )
            return alternate(sub_problem, start, gm=gm, seed=inner_seed, deadline=deadline)

        solution = construct_incremental(
            problem, order, config.warm_start, inner, gm=gm, seed=seed, deadline=deadline
        )
    if trace is not None:
        trace.record("construct", objective(problem, solution))
    return solution


def _local_search(problem, solution, config: RunConfig, gm, seed, deadline, trace):
    order = _shuffled_order(problem.d, seed)
    if config.ls == "none":
        return solution
    if config.ls == "gm":
        return gm_local_search(
            problem, solution, order=order, gm=gm, seed=seed, deadline=deadline, trace=trace,
        )
    if config.ls == "swap":
        return swap_local_search(
            problem, solution, seed=seed, deadline=deadline, trace=trace
        )
    return alternate(
        problem, solution, gm=gm, order=order, seed=seed, deadline=deadline, trace=trace,
    )


def run_restart(problem, config: RunConfig, gm, run_index: int, deadline, initial=None):
    """One pipeline restart; returns (rank, run_index, solution, trace, metrics).

    gm is the GM solver, gm(sub, seed). The rank orders restarts: the
    objective, or in sync mode the projection's mlap objective plus alpha
    per forbidden match. metrics are the sync metrics, None otherwise.
    """
    seed = derive_seed(config.seed, run_index)
    trace = TraceRecorder()
    if config.mode == "sync":
        solution, metrics = synchronize(
            problem, mode=config.sync_kind, alpha=config.sync_alpha, gm=gm,
            seed=seed, deadline=deadline, trace=trace,
        )
        rank = metrics.mlap_objective + (config.sync_alpha or 0.0) * metrics.forbidden_count
        return rank, run_index, solution, trace, metrics
    if config.mode == "construct":
        solution = _construct(problem, config, gm, seed, deadline, trace)
    elif config.mode == "ls":
        solution = initial if initial is not None else CliquePartition()
        solution = solution.normalized(problem.sizes)
        solution = _local_search(problem, solution, config, gm, seed, deadline, trace)
    else:  # full
        solution = _construct(problem, config, gm, seed, deadline, trace)
        solution = _local_search(problem, solution, config, gm, seed, deadline, trace)
    return objective(problem, solution), run_index, solution, trace, None


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
        total = sum(problem.sizes)
        dummies = [total - n for n in problem.sizes]
        report = json.dumps({
            "objects": problem.d,
            "total_vertices": total,
            "object_sizes": list(problem.sizes),
            "dummies_per_object": dummies,
            "total_dummies": sum(dummies),
            "expected_total_dummies": (problem.d - 1) * total,
            "complete_object_size": total,
        }, indent=2, sort_keys=True)
        print(report)
        if config.output_path and not _write(config.output_path, report + "\n"):
            return 2
        return 0

    if config.mode in ("construct", "full") and config.warm_start is not None:
        if not 2 <= config.warm_start <= problem.d:
            print(
                f"error: --construction {config.construction}: the warm-start size "
                f"must lie in [2, {problem.d}]", file=sys.stderr,
            )
            return 2

    deadline = started + config.time_limit
    initial = None
    if config.initial_path is not None:
        try:
            with open(config.initial_path, "rb") as handle:
                document = mgm_io.parse_solution(handle, problem)
        except (OSError, mgm_io.ParseError) as exc:
            print(f"error: cannot read initial solution: {exc}", file=sys.stderr)
            return 2
        for warning in document.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        initial = document.partition

    metadata: dict = {
        "mode": config.mode,
        "seed": config.seed,
        "runs": config.runs,
        "solver": _solver_tag(config),
    }
    gm = functools.partial(get_solver("default"), effort=config.effort)
    results = []
    try:
        for run_index in range(config.runs):
            # The first restart always runs; later ones only before the deadline.
            if results and time.monotonic() >= deadline:
                break
            results.append(run_restart(problem, config, gm, run_index, deadline, initial))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The lowest rank wins, ties going to the earliest restart.
    value, _, solution, trace, metrics = min(results, key=lambda result: result[:2])
    if config.mode == "sync":
        value = metrics.mgm_objective  # the objective of ``solution``
        if config.sync_post_ls:
            # The restart's trace holds projection objectives; the post-LS
            # entries that follow are objectives of the original problem.
            trace.record("sync-post-ls", value)
            solution = alternate(
                problem, solution, gm=gm, seed=derive_seed(config.seed, 777),
                deadline=deadline, trace=trace,
            )
            value = objective(problem, solution)
            metadata["mgm_objective_post_ls"] = value
        metadata["sync_metrics"] = metrics.to_dict()

    metadata["objective"] = value
    metadata["wall_time_ms"] = (time.monotonic() - started) * 1000.0
    metadata["time_limit_reached"] = time.monotonic() >= deadline
    document = mgm_io.write_solution(solution, metadata)
    if not config.output_path:
        print(document, end="")
    elif not _write(config.output_path, document):
        return 2
    lines = ["elapsed_ms,phase,objective", *trace.lines()]
    if config.trace_path and not _write(config.trace_path, "".join(f"{x}\n" for x in lines)):
        return 2
    return 0


def _write(path: str, text: str) -> bool:
    """Write a result file; on failure report it and return False."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _solver_tag(config: RunConfig) -> str:
    """The algorithm flags the mode reads, plus the GM effort."""
    algorithm = {
        "construct": config.construction,
        "ls": config.ls,
        "full": f"{config.construction}+{config.ls}",
        "sync": config.sync_mode + ("+post-ls" if config.sync_post_ls else ""),
    }[config.mode]
    return f"mgmatch/{config.mode}:{algorithm}/gm=default:{config.gm_effort}"


def build_parser() -> argparse.ArgumentParser:
    """The command line; each dest but threads is a RunConfig field."""
    parser = argparse.ArgumentParser(
        prog="mgm",
        description="Incomplete multi-graph matching solver",
    )
    parser.add_argument("input_path", metavar="input", help="problem file in dd format")
    parser.add_argument("--mode", choices=MODES, default="full")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=1, help="randomized restarts, best kept")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility with older command lines; has no effect",
    )
    parser.add_argument("--time-limit", type=float, default=math.inf, metavar="SECONDS")
    parser.add_argument(
        "--construction", default="seq", help="seq, par, or inc:<warm-start-size>"
    )
    parser.add_argument("--ls", choices=LS_CHOICES, default="alternate")
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
    parser.add_argument(
        "--initial", dest="initial_path", metavar="INITIAL", help="warm-start solution (ls mode)"
    )
    parser.add_argument(
        "--output", dest="output_path", metavar="OUTPUT",
        help="solution document path (default stdout)",
    )
    parser.add_argument(
        "--trace", dest="trace_path", metavar="TRACE", help="objective-over-time CSV path"
    )
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["threads"]  # parsed for older command lines, then ignored
    try:
        config = RunConfig(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
