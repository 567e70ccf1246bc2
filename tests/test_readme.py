"""The README's library example runs against the package as it is."""

import random
import re
from pathlib import Path

from mgmatch.io import write_problem

from oracles import random_problem

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    problem = random_problem(random.Random(5), 3, 4, min_size=2)
    (tmp_path / "problem.dd").write_text(write_problem(problem))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
