"""Docs and CI name only files and sub-commands that exist.

A deletion must not leave ``README.md``, ``docs/``, ``EXPERIMENTS.md``,
``DESIGN.md`` or the CI workflow pointing at a test file, a benchmark
result, a document or a ``repro`` verb that is gone.
"""

from __future__ import annotations

import ast
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


# ----------------------------------------------------------------------
# one owner for a pid's lifecycle (docs/protocol.md, "Process phases")
# ----------------------------------------------------------------------
#: The manager's lifecycle tables, reached into from outside.
REACH_IN = re.compile(r"manager\._(processes|pending_init|starts|held)\b")

#: Side-books and re-derivations that were folded into the manager's
#: read API; spelled in pieces so this file does not name them either.
RETIRED = re.compile(
    "|".join(
        head + tail
        for head, tail in (
            ("submit_", "recovered"),
            ("discard_", "pending"),
            ("cancelled_", "pids"),
            ("_is_", "terminal"),
        )
    )
)


def _python_files(*roots: str):
    for root in roots:
        yield from sorted((ROOT / root).rglob("*.py"))


def test_lifecycle_is_read_through_the_manager_api():
    """Outside ``scheduler/`` (the owner) nobody probes the manager's
    dicts to infer a pid's fate: ``phase`` / ``outcome`` /
    ``undecided`` / ``take_finished`` answer."""
    owner = ROOT / "src/repro/scheduler"
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _python_files("src/repro")
        if owner not in path.parents
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if REACH_IN.search(line)
    ]
    assert not offenders, offenders


def test_retired_lifecycle_books_stay_retired():
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _python_files("src", "tests", "benchmarks")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if RETIRED.search(line)
    ]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# the subsystem-health layer is gone (DESIGN.md, "Removed")
# ----------------------------------------------------------------------
#: Its vocabulary, spelled in pieces like ``RETIRED`` above.
HEALTH_LAYER = re.compile(
    "|".join(
        head + tail
        for head, tail in (
            ("resil", "ien"),
            ("break", "er"),
            ("back", "pressure"),
            ("threshold_", "provider"),
            ("admissions", "_"),
            ("degraded", "_"),
        )
    )
)

#: The tests that pin the removal have to name what they pin.
HEALTH_LAYER_PINS = {
    "tests/test_public_api.py",
    "tests/test_cli.py",
    "tests/test_obs/test_metrics.py",
}


def _traces_of(vocabulary: re.Pattern, pins=()) -> list[str]:
    """``path:line`` of every match under src, tests, benchmarks, docs
    and .github, outside the ``pins`` files."""
    scanned = [
        *_python_files("src", "tests", "benchmarks"),
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / ".github" / "workflows" / "ci.yml",
    ]
    return [
        f"{path.relative_to(ROOT)}:{number}"
        for path in scanned
        if str(path.relative_to(ROOT)) not in pins
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if vocabulary.search(line)
    ]


def test_subsystem_health_layer_leaves_no_trace():
    offenders = _traces_of(HEALTH_LAYER, HEALTH_LAYER_PINS)
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one book for waiting work (DESIGN.md, "Removed: incremental wait-for
# maintainer")
# ----------------------------------------------------------------------
#: The wait-for mirror, the second cycle detector, the parallel
#: manager's index forks and the side-books they kept in step.
WAIT_FOR_MIRROR = re.compile(
    "IncrementalWaitFor|WaitForGraph|_IndexedInflight|waitfor_edges"
    "|_parked_commit_pids|_parked_by_pid|_audit_waitfor"
)


def test_wait_for_mirror_leaves_no_trace():
    """Except here and in the two import-fails pins."""
    pins = {"tests/test_repo_links.py", "tests/test_public_api.py"}
    offenders = _traces_of(WAIT_FOR_MIRROR, pins)
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one commit log (DESIGN.md, "One commit log")
# ----------------------------------------------------------------------
#: The files of store format 2, one per appended namespace; those
#: namespaces share ``commit.log`` now.  (``meta.log`` and
#: ``snapshot.log``, the swapped slots, are still files.)
FILE_PER_NAMESPACE = re.compile(r"\b(journal|trace)\.log\b|\bss(wal|data)@")


def test_file_per_namespace_names_stay_retired():
    """Except here and where a format-2 directory is built to be
    refused."""
    pins = {
        "tests/test_repo_links.py",
        "tests/test_storage/test_checkpoint.py",
    }
    offenders = _traces_of(FILE_PER_NAMESPACE, pins)
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one manager (DESIGN.md, "Removed: thread-per-shard manager")
# ----------------------------------------------------------------------
THREAD_PER_SHARD = re.compile(
    r"repro\.parallel|ParallelProcessManager|ShardExecutor"
    r"|batch_k|--batch-k|REPRO_WORKERS|REPRO_BATCH_K"
    r"|REPRO_PARALLEL_FANOUT|assign_workers|worker_of"
    r"|_worker_for_type|worker_dispatch"
)

#: The three names ``bench/`` still uses (``ServiceConfig.workers`` as a
#: keyword, an attribute or an annotated field) and the only files that
#: may spell each: where it is defined and the one test that pins it.
RESIDUE = {
    re.compile(r"\bworkers=|\.workers\b|\bworkers:"): {
        "src/repro/server/service.py",
        "tests/test_public_api.py",
    },
    re.compile(r"probe_c_grants|grant_c_direct"): {
        "src/repro/core/protocol.py",
        "src/repro/core/lock_table.py",
        "tests/test_core/test_protocol_rules.py",
    },
}


def test_thread_per_shard_manager_leaves_no_trace():
    """Except in the files that pin the removal; the residue waits where
    it is defined, marked, for the PR that may touch ``bench/``."""
    pins = {
        "tests/test_repo_links.py",
        "tests/test_public_api.py",
        "tests/test_cli.py",
    }
    offenders = _traces_of(THREAD_PER_SHARD, pins)
    for names, homes in RESIDUE.items():
        offenders += _traces_of(names, homes | {"tests/test_repo_links.py"})
    assert not offenders, offenders
    for home in ("src/repro/server/service.py", "src/repro/core/protocol.py"):
        # Comment leaders out, line breaks folded.
        prose = " ".join(re.sub("#:?", " ", (ROOT / home).read_text()).split())
        assert "pinned by bench/" in prose, home
        assert "goes with ROADMAP 2(a)" in prose, home


# ----------------------------------------------------------------------
# the journal holds redo records only (DESIGN.md, "Removed: journal
# provenance records")
# ----------------------------------------------------------------------
#: The journal tee, its deferral queue and the bus's per-topic book
#: (``repro_events_total{kind}`` counts that).
JOURNAL_TEE = re.compile(r"JournalTracer|write_deferred|by_topic")


def test_journal_tee_leaves_no_trace():
    offenders = _traces_of(JOURNAL_TEE, {"tests/test_repo_links.py"})
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one serving thread (DESIGN.md, "Removed: the engine thread on the
# served path")
# ----------------------------------------------------------------------
def test_the_served_path_crosses_no_thread_but_the_wake():
    """The engine drains on the event loop's own thread, so nothing in
    ``repro.server`` hands work to another thread and back; waking the
    loop for an in-process caller on a foreign thread is the one hop."""
    hops = []
    for path in sorted((ROOT / "src/repro/server").glob("*.py")):
        text = path.read_text()
        assert "wrap_future" not in text, path.name
        assert "queue.Queue(" not in text, path.name
        hops += [
            f"{path.name}:{function.name}"
            for function in ast.walk(ast.parse(text))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and node.attr == "call_soon_threadsafe"
        ]
    assert hops == ["service.py:wake"], hops


# ----------------------------------------------------------------------
# one lock table (DESIGN.md, "Removed: the lock table's shard map")
# ----------------------------------------------------------------------
#: The shard map, its round-robin audit, the queue-depth book and the
#: sampling knob.  ``shard`` itself stays: as a metric label and a
#: ``wait.edge`` field it names the subsystem owning the contended type.
LOCK_SHARD_MAP = re.compile(
    r"LockShard|\bshard_of\b|shard_names|_check_shard|_note_shard_depth"
    r"|_shard_depth_counts|_audit_shard_cursor|repro_shard_queue_depth"
    r"|REPRO_AUDIT_EVERY"
)


def test_lock_shard_map_leaves_no_trace():
    """Except here and in the test that sets the retired knob to show
    it changes nothing."""
    pins = {"tests/test_repo_links.py", "tests/test_cli.py"}
    offenders = _traces_of(LOCK_SHARD_MAP, pins)
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one crash harness (DESIGN.md, "Removed: the sampled durability
# campaign")
# ----------------------------------------------------------------------
DURABILITY_CAMPAIGN = re.compile(
    r"run_durability_campaign|DurabilityReport|DurabilityRound"
    r"|faults[/.]durability|--durability|chaos-durability\.json"
)


def test_durability_campaign_leaves_no_trace():
    """``tests/test_storage/test_crash_points.py`` is the one crash-point
    harness; only this file and the test that pins the removed flag
    name the campaign."""
    pins = {"tests/test_repo_links.py", "tests/test_cli.py"}
    offenders = _traces_of(DURABILITY_CAMPAIGN, pins) + [
        f"{name}:{number}"
        for name in ("README.md", ".gitignore")
        for number, line in enumerate(
            (ROOT / name).read_text().splitlines(), 1
        )
        if DURABILITY_CAMPAIGN.search(line)
    ]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one fault campaign (DESIGN.md §7, "Removed: the soak campaign")
# ----------------------------------------------------------------------
SOAK_CAMPAIGN = re.compile(
    r"run_soak|SoakPlan|SoakReport|faults[/.]soak|render_soak|soak_json"
    r"|soak-report\.json|audit_every|REPRO_SEED_WORKERS|repro soak"
)


def test_soak_campaign_leaves_no_trace():
    """``repro chaos`` is the one campaign and audits every event; only
    this file and the tests that pin the removed verb, flags, field and
    knob name what went."""
    pins = {"tests/test_repo_links.py", "tests/test_cli.py"}
    offenders = _traces_of(SOAK_CAMPAIGN, pins) + [
        f"{name}:{number}"
        for name in ("README.md", ".gitignore")
        for number, line in enumerate(
            (ROOT / name).read_text().splitlines(), 1
        )
        if SOAK_CAMPAIGN.search(line)
    ]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one book of counts (DESIGN.md §7, "Removed: the second counting book")
# ----------------------------------------------------------------------
SECOND_COUNTING_BOOK = re.compile(
    r"ManagerStats|ProtocolStats|OslStats|merge_stats|protocol_stats"
    r"|NULL_TRACER|NullTracer|tracer\.enabled"
)


def test_second_counting_book_leaves_no_trace():
    """Every count is the fold over the event stream (``manager.stats``
    is the registry's feeder) and every emit is unconditional; only
    this file names what went."""
    offenders = _traces_of(SECOND_COUNTING_BOOK, {"tests/test_repo_links.py"})
    assert not offenders, offenders
