"""Compare two checkouts' CLI runs on the d = 30 scaling shapes.

Writes d30n24, d30n48 and d30n96 (perfbench.instances.worms_like(3, ...)
with write_dd(..., layout_seed=1)) to a temporary directory, solves each
with both checkouts' CLI (--mode full --seed 1 --trace), and reports per
shape whether the documents (without wall_time_ms) and the traces
(without elapsed_ms) are identical, with each side's wall time and peak
RSS (ru_maxrss from wait4). Usage:

    python3 tools/compare_shapes.py BASE_CHECKOUT CHANGED_CHECKOUT

Exits 1 when any document or trace differs, else 0. The instances are
generated with this checkout's perfbench/instances.py, which the two
checkouts share unless the benchmark changed.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = {
    "d30n24": dict(d=30, n=24),
    "d30n48": dict(d=30, n=48, quadratic=360),
    "d30n96": dict(d=30, n=96, quadratic=720),
}
# Generated in a child process: a solve's ru_maxrss counts the memory of
# the process that started it, and an instance's dicts take far more
# than the solve.
GENERATE = """
import sys
sys.path.insert(0, sys.argv[1])
import instances
params = dict(arg.split("=") for arg in sys.argv[3:])
instance = instances.worms_like(3, **{k: int(v) for k, v in params.items()})
open(sys.argv[2], "w").write(instances.write_dd(instance, layout_seed=1))
"""
CLI_ARGS = ["--mode", "full", "--seed", "1"]


def solve(checkout: Path, problem: Path, out: Path) -> dict:
    """One CLI run; the document and trace text, wall time and peak RSS."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(checkout / "src")
    document, trace = out / "solution.json", out / "trace.csv"
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "mgmatch.cli", str(problem), *CLI_ARGS,
         "--output", str(document), "--trace", str(trace)],
        env=env, cwd=out, stdin=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{checkout}: exit code {code} on {problem.name}")
    return {
        "document": document.read_text(),
        "trace": trace.read_text(),
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def comparable_document(text: str) -> list[str]:
    document = json.loads(text)
    document["metadata"].pop("wall_time_ms", None)
    return json.dumps(document, indent=2, sort_keys=True).splitlines()


def comparable_trace(text: str) -> list[str]:
    # Each line is elapsed_ms,phase,objective; the header has no time.
    return [line.split(",", 1)[1] for line in text.splitlines()]


def differences(name: str, base: list[str], changed: list[str]) -> list[str]:
    return list(difflib.unified_diff(base, changed, f"base/{name}", f"changed/{name}", lineterm=""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("changed", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    identical = True
    with tempfile.TemporaryDirectory(prefix="compare-shapes-") as tmp:
        for shape, params in SHAPES.items():
            problem = Path(tmp) / f"{shape}.dd"
            subprocess.run(
                [sys.executable, "-c", GENERATE, str(ROOT / "perfbench"), str(problem),
                 *(f"{k}={v}" for k, v in params.items())],
                check=True,
            )
            runs = {
                side: solve(checkout, problem, Path(tmp) / shape / side)
                for side, checkout in (("base", args.base), ("changed", args.changed))
            }
            diff = differences(
                "solution.json", *(comparable_document(runs[s]["document"]) for s in runs)
            ) + differences("trace.csv", *(comparable_trace(runs[s]["trace"]) for s in runs))
            identical &= not diff
            print(
                f"{shape}: {'identical' if not diff else 'DIFFERENT'}; "
                + "; ".join(
                    f"{side} {run['wall_s']:.2f} s, {run['peak_rss_mb']:.1f} MB"
                    for side, run in runs.items()
                ),
                flush=True,
            )
            for line in diff:
                print(line)
            problem.unlink()
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
