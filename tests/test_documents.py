"""Pinned digests of the documents and traces the command line writes.

Each configuration runs main() on a small deterministic problem and hashes
the solution document without its wall_time_ms line, and the trace CSV
without its elapsed-time column. Neither changes unless a result, or the
way it is written, changes: a refactoring of the solve path must leave
every digest as it is. After a deliberate change of results, the failing
assertion shows the new digests. One more digest pins the text
write_problem makes of a parsed model.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from mgmatch.cli import main
from mgmatch.io import parse_problem, write_problem, write_solution

from conftest import part

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import instances  # noqa: E402

# A worms-like model (sparse, incomplete, with quadratic entries) that
# solves in well under a second, and on which a full solve accepts both GM
# and swap moves.
WORMS_SMALL = {"d": 8, "n": 10, "candidates": 6, "quadratic": 40}
# A smaller one, whose GM instances are small enough for exhaustive effort
# to solve every construction step by brute force.
WORMS_TINY = {"d": 6, "n": 5, "candidates": 3, "quadratic": 8}
WORMS_MODELS = {"worms": WORMS_SMALL, "worms-tiny": WORMS_TINY}

CONFIGS = {
    "worms-full": ("worms", ["--mode", "full"]),
    "worms-sync": ("worms", ["--mode", "sync", "--sync-mode", "sparse"]),
    "worms-par": ("worms", ["--mode", "full", "--construction", "par"]),
    "worms-inc": ("worms", ["--mode", "full", "--construction", "inc:3"]),
    "worms-fast": ("worms", ["--mode", "full", "--gm-effort", "fast"]),
    "worms-ls-swap": ("worms", ["--mode", "full", "--ls", "swap"]),
    "worms-ls-gm": ("worms", ["--mode", "full", "--ls", "gm", "--runs", "2"]),
    "worms-tiny-exhaustive": (
        "worms-tiny", ["--mode", "construct", "--gm-effort", "exhaustive"]
    ),
    "worms-dense-post-ls": (
        "worms", ["--mode", "sync", "--sync-mode", "dense", "--sync-post-ls"]
    ),
    "t3-forbidden-initial": ("t3", ["--mode", "ls", "--ls", "none"]),
    "chain3-soft-post-ls": (
        "chain3", ["--mode", "sync", "--sync-mode", "soft:0.5", "--sync-post-ls"]
    ),
}

DIGESTS = {
    "worms-full": (
        "19ff2dfcfb6e90e52585474c70d8f5c4e1f44e42e6e6404f5096bc3a24b96871",
        "3df0bc790978f5934ba716ba6f3f5cc7b19f57ccacfe4ce6a0a0a332a4516a33",
    ),
    "worms-sync": (
        "125a1ece3ab2d32537596fec9cadceabe85d7a80b4e97b598cd2c88a447e4716",
        "44ce0cbd1238b4f93d5d6091350f82b31f8f9b1b88da643cd6bd5d44914b3926",
    ),
    "worms-par": (
        "451431955d160715bd4e86e93fba322d363e7edda141cafa5b46aa5219434624",
        "aa49ac2d55937509e2ec9c0a5c18b0c2b52c6eee9c27951f016776847adbbb0b",
    ),
    "worms-inc": (
        "5e40143422127d11a53a6d8a8ed6114633e0b1c14e35eacf39f2244f21b41caa",
        "aaff4a842ee0edb85bc4507e90d8a8e95077c13e07476fbf22deedfec65f123c",
    ),
    "worms-fast": (
        "14b879a74f7ec761be4e3a46c58a7924a16f5545e4ebac05e6610fb089ef2cf1",
        "a5d898ae8abe8e29f8c5faa3e9c41cdc9b3141055bbc9ce076d47509b228c7b6",
    ),
    "worms-ls-swap": (
        "b06aea70f7ad7e1f56696f54c11b765347c67593ac767bba4a3ec97c9217f68b",
        "ce5589de55ac0dd2bba9c238c88f3933bff938615849add43c762d3988a8e98b",
    ),
    "worms-ls-gm": (
        "244cb9713e7e524667cf3b83a059cde7bc8b481c317e049f1d7641dbe226970a",
        "63596719a7181c8149516f0dcf70a87e1b4c2ccb2099c7e788c1d88a40c6ecdd",
    ),
    "worms-tiny-exhaustive": (
        "df52af4703e2c86e5f27af3094364ccc0009c0cefdf621f0773e9165df45ae7c",
        "2d64edfe8b4715f82a3df38d3a83cbf35bd20ce1b2766a1372ed2871d82c31b0",
    ),
    "worms-dense-post-ls": (
        "cce088d13f5fae448c590836fe9612cd0ff71798959bc8f5b081a976cb8b4c99",
        "a57821e770994db19b05043cf5bc24feeefc91951b87997b3bb75d97a6e6443c",
    ),
    "t3-forbidden-initial": (
        "07785ad1a3ab4386194b39427b17190966732ae548b36b5cf8926dda54b1bea7",
        "5fcbad0f460c0d02a8c9474d01512778dec71417f8d9166f74eafdf7407e9c14",
    ),
    "chain3-soft-post-ls": (
        "b8142838c9a0ab196dae8ec3ae7e4091a1a27f40790a51d0f9328c849f8ae8ff",
        "2c89ae2003d0480b27d153bf6aa28075306513b5872b722fe3c01ab81668cdad",
    ),
}


# The sha256 of write_problem's text of the parsed "worms" model.
WRITTEN_WORMS_DIGEST = "ed121f5188f629b297986670ee50323d31387ceb13f748fcfa65cbbe6e3c0ac9"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def document_digest(text: str) -> str:
    return sha256(re.sub(r'\n *"wall_time_ms": [^\n]*', "", text))


def trace_digest(text: str) -> str:
    return sha256("".join(line.partition(",")[2] + "\n" for line in text.splitlines()))


def worms_text(model: str, layout_seed: int | None = 1) -> str:
    instance = instances.worms_like(4, **WORMS_MODELS[model])
    return instances.write_dd(instance, layout_seed=layout_seed)


def run_config(name, fixtures, tmp_path, layout_seed=1) -> tuple[str, str]:
    """The written document and trace of one configuration; ``fixtures``
    maps the names of the conftest problems to their values, and a worms
    model is written in the dd layout of ``layout_seed``."""
    model, flags = CONFIGS[name]
    problem = tmp_path / "problem.dd"
    if model in WORMS_MODELS:
        problem.write_text(worms_text(model, layout_seed))
    else:
        problem.write_text(write_problem(fixtures[model]))
    if model == "t3":
        # Vertex 1 of object 0 with vertex 0 of object 1 is forbidden in t3.
        initial = tmp_path / "initial.json"
        initial.write_text(write_solution(part({0: 1, 1: 0})))
        flags = flags + ["--initial", str(initial)]
    out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
    argv = [str(problem), *flags, "--seed", "1", "--output", str(out), "--trace", str(trace)]
    assert main(argv) == 0
    return out.read_text(), trace.read_text()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_document_and_trace_digests(name, t3, chain3, tmp_path):
    document, trace = run_config(name, {"t3": t3, "chain3": chain3}, tmp_path)
    assert "Infinity" not in document
    assert (document_digest(document), trace_digest(trace)) == DIGESTS[name]


def test_written_problem_digest():
    """write_problem's text of the parsed worms model: its assignment ids
    and the id pairs of its 'e' lines are read from the stored tables."""
    text = write_problem(parse_problem(worms_text("worms")))
    assert sha256(text) == WRITTEN_WORMS_DIGEST


def test_layout_does_not_change_tables_or_results(tmp_path):
    """Dd files that list the same entries in different orders parse to
    byte-equal tables, which write_problem writes alike and which solve to
    the pinned worms-full document and trace."""
    layouts = (1, 2, None)
    problems = [parse_problem(worms_text("worms", seed)) for seed in layouts]
    for problem in problems[1:]:
        for pair, table in problem.costs.items():
            for got, want in zip(table.arrays(), problems[0].costs[pair].arrays()):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    assert len({write_problem(problem) for problem in problems}) == 1
    for seed in layouts:
        document, trace = run_config("worms-full", {}, tmp_path, seed)
        assert (document_digest(document), trace_digest(trace)) == DIGESTS["worms-full"]
