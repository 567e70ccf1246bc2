"""In-process side of the benchmark: run the ``mgm`` CLI inside this
interpreter, optionally traced, and reduce spans to per-layer metrics.

Run as a script next to the program under test (``PYTHONPATH`` pointing
at its sources)::

    python3 perfbench/harness.py solve --traced 1 --stats OUT.json -- PROBLEM.dd --mode full ...
    python3 perfbench/harness.py probe PROBLEM.dd

``solve`` times ``mgmatch.cli.main`` on the given CLI arguments and writes
the wall time and, when traced, every span to OUT.json. ``probe`` prints
where ``mgmatch`` came from, the library versions and the digest of the
parsed problem (see ``instances.model_digest``).

Tracing wraps the public functions of each layer from outside the
program: a span records name, start, end and parent index in memory and
all spans are written when the run ends. The program binds several
callables by name at import or definition time, so each one is rebound
where it is looked up:

* GM solvers are default arguments; the CLI fetches them through the
  solver registry, so the ``default`` entry is replaced, and
  ``synchronization.solve_gm`` is rebound for the projection stage.
* ``objective`` is imported by name into ``cli``, ``local_search``,
  ``synchronization`` and ``io``; each binding is wrapped.
* ``qpbo.minimize`` and ``gm.solve_lap`` resolve through module
  attributes; the qpbo path is classified after the timed call.
* Accepted moves are counted from ``TraceRecorder.record`` by phase.

``aggregate``, ``layer_metrics`` and ``largest_self_layer`` are pure
functions of the spans; ``run.py`` uses them without importing
``mgmatch``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

ROOT_SPAN = "cli.main"

# Per-layer metrics reported by the traced run, with unit and direction.
# BENCHMARK.json's per_layer list must match (checked by the tests).
LAYER_METRICS = [
    ("io.parse_problem.s", "s", "lower"),
    ("construction.construct_sequential.s", "s", "lower"),
    ("construction.clique_clique_costs.calls", "count", "lower"),
    ("construction.clique_clique_costs.self_s", "s", "lower"),
    ("model.objective.calls", "count", "lower"),
    ("model.objective.self_s", "s", "lower"),
    ("gm.solve_gm.linear.calls", "count", "lower"),
    ("gm.solve_gm.quadratic.calls", "count", "lower"),
    ("gm.solve_gm.quadratic.self_s", "s", "lower"),
    ("gm.solve_lap.calls", "count", "lower"),
    ("gm.solve_lap.self_s", "s", "lower"),
    ("qpbo.minimize.enumerate.calls", "count", "lower"),
    ("qpbo.minimize.enumerate.self_s", "s", "lower"),
    ("qpbo.minimize.cut.calls", "count", "lower"),
    ("qpbo.minimize.cut.self_s", "s", "lower"),
    ("qpbo.minimize.roof.calls", "count", "lower"),
    ("qpbo.minimize.roof.self_s", "s", "lower"),
    ("qpbo.minimize.vars_mean", "count", "lower"),
    ("local_search.gm_local_search.s", "s", "lower"),
    ("local_search.gm_ls.proposals", "count", "lower"),
    ("local_search.gm_ls.accepted", "count", "higher"),
    ("local_search.gm_ls.accept_ratio", "ratio", "higher"),
    ("local_search.swap_local_search.s", "s", "lower"),
    ("local_search.swap_deltas.calls", "count", "lower"),
    ("local_search.swap_deltas.self_s", "s", "lower"),
    ("local_search.best_multiswap.calls", "count", "lower"),
    ("local_search.best_multiswap.self_s", "s", "lower"),
    ("local_search.swap_ls.accepted", "count", "higher"),
    ("local_search.swap_ls.accept_ratio", "ratio", "higher"),
    ("synchronization.solve_all_pairwise.s", "s", "lower"),
    ("synchronization.build_sync_problem.s", "s", "lower"),
    ("cli.other_self_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


class Tracer:
    """Span recorder plus the rebindings that route layer calls through it."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.phases: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []  # callables restoring the original bindings

    def wrap(self, name, fn, classify=None):
        """``fn`` recording one span per call; ``classify(*args)`` names it
        after the call returns, outside the timed interval."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if classify is None else classify(*args, **kwargs)
                spans[index] = (label, start, end, parent)

        return traced

    def patch(self, owner, attr, name, classify=None):
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, classify))

    def install(self):
        from mgmatch import cli, construction, gm, io, local_search, qpbo, synchronization

        self.patch(io, "parse_problem", "io.parse_problem")
        for owner in (cli, synchronization):
            self.patch(owner, "construct_sequential", "construction.construct_sequential")
        self.patch(construction, "clique_clique_costs", "construction.clique_clique_costs")
        for owner in (cli, local_search, synchronization, io):
            self.patch(owner, "objective", "model.objective")

        def gm_path(sub, *args, **kwargs):
            return "gm.solve_gm.quadratic" if sub.quadratic else "gm.solve_gm.linear"

        default_solver = gm.get_solver("default")
        self._undo.append(lambda: gm.register_solver("default", default_solver))
        gm.register_solver("default", self.wrap("gm.solve_gm", default_solver, gm_path))
        self.patch(synchronization, "solve_gm", "gm.solve_gm", gm_path)
        self.patch(gm, "solve_lap", "gm.solve_lap")

        def qpbo_path(energy, *args, **kwargs):
            self.phases["qpbo.vars"] += energy.n
            if energy.n <= qpbo.EXACT_ENUMERATION_LIMIT:
                return "qpbo.minimize.enumerate"
            if energy.is_submodular():
                return "qpbo.minimize.cut"
            return "qpbo.minimize.roof"

        self.patch(qpbo, "minimize", "qpbo.minimize", qpbo_path)
        for attr in ("gm_local_search", "swap_local_search", "swap_deltas", "best_multiswap"):
            self.patch(local_search, attr, f"local_search.{attr}")
        for attr in ("solve_all_pairwise", "build_sync_problem"):
            self.patch(synchronization, attr, f"synchronization.{attr}")

        record = local_search.TraceRecorder.record
        phases = self.phases

        def counting_record(recorder, phase, value):
            phases[phase] += 1
            return record(recorder, phase, value)

        self._undo.append(lambda: setattr(local_search.TraceRecorder, "record", record))
        local_search.TraceRecorder.record = counting_record

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def run_cli(cli_args: list[str], traced: bool) -> dict:
    """Time ``mgmatch.cli.main`` in this process; with tracing, keep spans."""
    from mgmatch import cli

    tracer = Tracer() if traced else None
    main = cli.main
    if tracer is not None:
        tracer.install()
        main = tracer.wrap(ROOT_SPAN, main)
    start = time.perf_counter()
    try:
        code = main(cli_args)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = {"exit": code, "wall_s": wall}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["phases"] = dict(tracer.phases)
    return result


def probe(path: str) -> dict:
    """Where ``mgmatch`` was imported from, library versions, and the digest
    of the problem as the program parses it."""
    import platform

    import mgmatch
    import numpy
    from instances import model_digest

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    with open(path, "rb") as handle:
        problem = mgmatch.parse_problem(handle.read())
    tables = {
        pair: (table.linear, table.quadratic) for pair, table in problem.costs.items()
    }
    return {
        "mgmatch_file": mgmatch.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "digest": model_digest(problem.sizes, tables),
    }


# --- pure reduction of spans, shared with run.py -------------------------


def aggregate(spans) -> dict[str, dict]:
    """Per span name: number of calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return table


def _count_children(spans, parent_name: str, prefix: str) -> int:
    return sum(
        1
        for name, _, _, parent in spans
        if parent >= 0 and name.startswith(prefix) and spans[parent][0] == parent_name
    )


def layer_metrics(spans, phases: dict, untraced_wall: float) -> dict[str, float]:
    """The LAYER_METRICS values of one traced run.

    ``traced_wall_s`` is the root span; ``trace_overhead`` compares it with
    an untraced run of the same solve.
    """
    table = aggregate(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    qpbo_calls = sum(get(f"qpbo.minimize.{path}", "calls") for path in ("enumerate", "cut", "roof"))
    proposals = _count_children(spans, "local_search.gm_local_search", "gm.solve_gm")
    gm_accepted = phases.get("gm-ls", 0)
    swap_tries = get("local_search.best_multiswap", "calls")
    swap_accepted = phases.get("swap-ls", 0)
    wall = get(ROOT_SPAN, "s")
    values = {
        "local_search.gm_ls.proposals": proposals,
        "local_search.gm_ls.accepted": gm_accepted,
        "local_search.gm_ls.accept_ratio": gm_accepted / proposals if proposals else 0.0,
        "local_search.swap_ls.accepted": swap_accepted,
        "local_search.swap_ls.accept_ratio": swap_accepted / swap_tries if swap_tries else 0.0,
        "qpbo.minimize.vars_mean": phases.get("qpbo.vars", 0) / qpbo_calls if qpbo_calls else 0.0,
        "cli.other_self_s": get(ROOT_SPAN, "self_s"),
        "traced_wall_s": wall,
        "trace_overhead": wall / untraced_wall - 1.0,
    }
    for metric, _, _ in LAYER_METRICS:
        if metric not in values:
            # "<span name>.<calls|s|self_s>", read from the aggregate
            span, _, key = metric.rpartition(".")
            values[metric] = get(span, key)
    return values


def largest_self_layer(spans) -> tuple[str, float]:
    """The span name with the largest total self time."""
    table = aggregate(spans)
    name = max(table, key=lambda n: table[n]["self_s"])
    return name, table[name]["self_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve")
    solve.add_argument("--traced", type=int, choices=(0, 1), required=True)
    solve.add_argument("--stats", required=True)
    solve.add_argument("cli_args", nargs=argparse.REMAINDER)
    probe_parser = sub.add_parser("probe")
    probe_parser.add_argument("problem")
    args = parser.parse_args(argv)
    if args.command == "probe":
        print(json.dumps(probe(args.problem)))
        return 0
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    result = run_cli(cli_args, bool(args.traced))
    with open(args.stats, "w") as handle:
        json.dump(result, handle)
    return int(result["exit"])


if __name__ == "__main__":
    sys.exit(main())
