#!/usr/bin/env python3
"""mgmatch benchmark: the ``mgm`` CLI end to end, or traced layer by layer.

    python3 perfbench/run.py --workload worms-full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. With ``--trace 0`` the CLI runs as a separate process
(``python3 -m mgmatch.cli``, what the ``mgm`` script calls) as often as
fits in ``--seconds`` and the end-to-end metrics are reported. With
``--trace 1`` untraced and traced in-process solves alternate
(``harness.py``) and the per-layer metrics are reported. Every solution
is checked by ``checker.py``; human-readable lines come first and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every solve passed its checks, 1 when one failed
(the result is still printed) and 2 when the benchmark cannot run at all,
e.g. outside a checkout; then no result is printed. See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import harness  # noqa: E402
import instances  # noqa: E402


@dataclass(frozen=True)
class Workload:
    family: str
    model_seed: int
    cli: tuple[str, ...]
    check: str  # checker mode: full | sync


# The model of each workload is fixed by model_seed; --seed changes only
# the dd layout (see instances.write_dd), which the solver's trajectory
# does not depend on. Models drawn from one family take different numbers
# of local-search passes, so their solve times differ by up to 2x
# (measured over four worms-like models: 6.3-9.0 s at n=16, 8.3-19.4 s
# at n=20), more than any bound of a quarter could absorb. Each seed below
# is the first of its family whose full solve accepts both GM and swap
# moves.
WORKLOADS = {
    "worms-full": Workload("worms-like", 3, ("--mode", "full"), "full"),
    "hotel-full": Workload("hotel-like", 2, ("--mode", "full"), "full"),
    "worms-sync": Workload("worms-like", 3, ("--mode", "sync", "--sync-mode", "sparse"), "sync"),
}
COMMON_CLI = ("--threads", "1", "--runs", "1", "--seed", "1")
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
SETUP_CODE = (
    "import sys, mgmatch\n"
    "with open(sys.argv[1], 'rb') as handle:\n"
    "    mgmatch.parse_problem(handle)\n"
)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "objective_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Child:
    code: int | None  # None: killed at the timeout
    wall_s: float
    peak_rss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


def hermetic_env() -> dict[str, str]:
    """The caller's environment with the program taken from ``src/``.

    ``MGM_THREADS`` is dropped: the CLI lets it override ``--threads``, and
    more than one thread switches GM local search to another algorithm.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("MGM_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env, workdir: Path, timeout: float, tag: str) -> Child:
    """Run one process to completion; wall time is launch to exit."""
    killed = threading.Event()
    with open(workdir / f"{tag}.stdout", "wb") as out, open(workdir / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=workdir, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    code = None if killed.is_set() else proc.returncode
    return Child(code, wall, usage.ru_maxrss / 1024.0)


def source_identity() -> dict:
    """Commit when the checkout is a git work tree, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.env = hermetic_env()
        self.workdir = HERE / "_work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.tally = Tally()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def prepare(self) -> None:
        w = self.workload
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.instance = instances.GENERATORS[w.family](w.model_seed)
        text = instances.write_dd(self.instance, layout_seed=self.seed)
        self.problem_path = self.workdir / "problem.dd"
        self.problem_path.write_text(text)
        self.problem_sha = instances.sha256(text)
        child = run_child(
            [sys.executable, str(HERE / "harness.py"), "probe", str(self.problem_path)],
            self.env, self.workdir, self.remaining(), "probe",
        )
        if child.code != 0:
            raise BenchmarkError(f"probe failed; see {self.workdir / 'probe.stderr'}")
        probe = json.loads((self.workdir / "probe.stdout").read_text())
        if not Path(probe["mgmatch_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"mgmatch imported from {probe['mgmatch_file']}, not {SRC}")
        if probe["digest"] != instances.instance_digest(self.instance):
            raise BenchmarkError("parse_problem of the generated file differs from the model")
        planted, forbidden, _ = checker.clique_objective(
            self.instance, self.instance.planted_cliques()
        )
        if forbidden or not planted < 0:
            raise BenchmarkError(f"planted solution is not a valid reference ({planted})")
        self.planted = planted
        self.environment = {
            "python": probe["python"],
            "numpy": probe["numpy"],
            "scipy": probe["scipy"],
            "nproc": os.cpu_count(),
            **source_identity(),
        }

    def measure_setup(self) -> list[float]:
        """Fresh interpreter + ``import mgmatch`` + ``parse_problem``."""
        walls = []
        for k in range(SETUP_REPEATS):
            child = run_child(
                [sys.executable, "-c", SETUP_CODE, str(self.problem_path)],
                self.env, self.workdir, self.remaining(), f"setup{k}",
            )
            if child.code != 0:
                raise BenchmarkError(f"set-up probe failed; see {self.workdir}/setup{k}.stderr")
            walls.append(child.wall_s)
        return walls

    def check(self, output: Path, child: Child, label: str) -> None:
        """Count one solve; every way it can go wrong is a failure."""
        self.tally.attempted += 1
        if child.code is None:
            return self.tally.fail(f"{label}: timed out after {child.wall_s:.1f} s")
        if child.code != 0:
            return self.tally.fail(f"{label}: exit code {child.code}")
        try:
            result = checker.check_document(
                self.instance, output.read_text(), self.workload.check
            )
        except (OSError, checker.CheckError) as exc:
            return self.tally.fail(f"{label}: {exc}")
        objectives = self.tally.objectives
        if objectives and result["objective"] != objectives[0]:
            return self.tally.fail(
                f"{label}: objective {result['objective']!r} differs from the run's first "
                f"{objectives[0]!r} at the same seed"
            )
        objectives.append(result["objective"])
        self.last_result = result

    def solve_argv(self, output: Path) -> list[str]:
        return [str(self.problem_path), *self.workload.cli, *COMMON_CLI, "--output", str(output)]

    def measure_end_to_end(self) -> dict:
        walls, rss = [], []
        while not walls or time.perf_counter() - self.solve_start < self.seconds:
            k = len(walls)
            output = self.workdir / f"solution{k}.json"
            child = run_child(
                [sys.executable, "-m", "mgmatch.cli", *self.solve_argv(output)],
                self.env, self.workdir, self.remaining(), f"solve{k}",
            )
            self.check(output, child, f"solve {k}")
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
            if self.tally.failures:
                break
        self.walls = walls
        return {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss)}

    def measure_traced(self) -> dict:
        untraced, traced = [], []
        while not traced or time.perf_counter() - self.solve_start < self.seconds:
            k = len(traced)
            for flag, runs in (("0", untraced), ("1", traced)):
                output = self.workdir / f"solution{k}-trace{flag}.json"
                stats = self.workdir / f"stats{k}-trace{flag}.json"
                child = run_child(
                    [sys.executable, str(HERE / "harness.py"), "solve", "--traced", flag,
                     "--stats", str(stats), "--", *self.solve_argv(output)],
                    self.env, self.workdir, self.remaining(), f"solve{k}-trace{flag}",
                )
                self.check(output, child, f"solve {k} trace={flag}")
                if self.tally.failures:
                    return {}
                runs.append(json.loads(stats.read_text()))
        base = statistics.median([u["wall_s"] for u in untraced])
        per_run = [harness.layer_metrics(t["spans"], t["phases"], base) for t in traced]
        self.largest = harness.largest_self_layer(traced[0]["spans"])
        self.walls = [t["wall_s"] for t in traced]
        return {
            metric: statistics.median([values[metric] for values in per_run])
            for metric, _, _ in harness.LAYER_METRICS
        }

    def execute(self) -> dict:
        self.prepare()
        setup = self.measure_setup()
        self.solve_start = time.perf_counter()
        if self.trace:
            metrics = self.measure_traced()
            units = {name: unit for name, unit, _ in harness.LAYER_METRICS}
        else:
            metrics = self.measure_end_to_end()
            metrics["setup_s"] = statistics.median(setup)
            if self.tally.objectives:
                metrics["objective_ratio"] = self.tally.objectives[0] / self.planted
            units = END_TO_END
        self.report(setup, metrics, units)
        failed = len(self.tally.failures)
        return {
            "correct": failed == 0,
            "attempted": self.tally.attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
                if name in metrics
            },
        }

    def report(self, setup: list[float], metrics: dict, units: dict) -> None:
        w = self.workload
        tally = self.tally
        info = {
            "workload": self.name,
            "seed": self.seed,
            "model": {"family": w.family, "model_seed": w.model_seed, **self.instance.params},
            "problem_sha256": self.problem_sha,
            "cli": ["mgm", "PROBLEM.dd", *w.cli, *COMMON_CLI],
            **self.environment,
        }
        print("# " + json.dumps(info, sort_keys=True))
        for name, unit in units.items():
            if name in metrics:
                print(f"{name:40s} {metrics[name]:.6g} {unit}")
        print(f"{'setup_s (each)':40s} " + " ".join(f"{x:.3f}" for x in setup) + " s")
        label = "traced in-process" if self.trace else "CLI"
        walls = " ".join(f"{x:.3f}" for x in getattr(self, "walls", []))
        print(f"{'wall per solve (' + label + ')':40s} {walls} s")
        if tally.objectives:
            print(f"{'objective':40s} {tally.objectives[0]!r} cost (planted {self.planted!r})")
        if tally.objectives and w.check == "sync":
            print(f"{'sync_mlap':40s} {self.last_result['sync_mlap']!r} count")
        print(f"{'failed_frac':40s} {len(tally.failures) / max(tally.attempted, 1):.4f} "
              f"({len(tally.failures)}/{tally.attempted})")
        if self.trace and not tally.failures:
            name, seconds = self.largest
            print(f"largest self time: {name} {seconds:.3f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mgmatch end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mgmatch" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    if result["failed"]:
        return 1
    shutil.rmtree(run.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
