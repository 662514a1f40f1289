"""Docs and CI name only files and sub-commands that exist.

A deletion must not leave ``README.md``, ``docs/``, ``EXPERIMENTS.md``,
``DESIGN.md`` or the CI workflow pointing at a test file, a benchmark
result, a document or a ``repro`` verb that is gone.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent

SOURCES = sorted(
    [
        ROOT / "README.md",
        ROOT / "EXPERIMENTS.md",
        ROOT / "DESIGN.md",
        ROOT / ".github" / "workflows" / "ci.yml",
        *(ROOT / "docs").glob("*.md"),
    ]
)

#: ``benchmarks/*.py``, ``bench/*.py``, ``tests/**/*.py``, ``docs/*.md``
#: and ``BENCH_*.json``, wherever they are spelled out in full.
PATH = re.compile(
    r"(?<![\w./-])("
    r"(?:benchmarks|bench)/\w+\.py"
    r"|tests/(?:\w+/)*\w+\.py"
    r"|docs/\w+\.md"
    r"|BENCH_\w+\.json"
    r")"
)

#: ``repro <verb>`` as typed: after ``python -m`` or opening a code span.
VERB = re.compile(r"(?:-m |`)repro ([a-z][a-z-]*)")


@pytest.mark.parametrize(
    "source", SOURCES, ids=lambda path: str(path.relative_to(ROOT))
)
def test_named_files_and_verbs_exist(source):
    text = source.read_text()
    missing = sorted(
        {name for name in PATH.findall(text) if not (ROOT / name).exists()}
    )
    assert not missing, f"{source.name} names missing files: {missing}"
    unknown = sorted(set(VERB.findall(text)) - set(_COMMANDS))
    assert not unknown, f"{source.name} names unknown verbs: {unknown}"
