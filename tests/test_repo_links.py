"""Docs and CI name only files and sub-commands that exist.

A deletion must not leave ``README.md``, ``docs/``, ``EXPERIMENTS.md``,
``DESIGN.md`` or the CI workflow pointing at a test file, a benchmark
result, a document or a ``repro`` verb that is gone.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
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
def test_the_served_path_crosses_no_thread_but_call_soon_threadsafe_in_wake():
    """The engine drains on the loop's own thread, so nothing in
    ``repro.server`` hands work to another thread and back; the loop's
    one thread-safe call, ``Loop.call_soon_threadsafe``, is reached
    only from ``service.wake`` (an in-process caller on a foreign
    thread, a shutdown request, a signal)."""
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


def test_no_module_under_src_imports_asyncio():
    """The serving thread runs one ``selectors`` loop
    (``repro.server.loop``); asyncio would bring ``ssl`` with it."""
    offenders = []
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(ROOT)}:{name}"
                for name in names
                if name.split(".")[0] == "asyncio"
            ]
    assert not offenders, offenders


def test_the_serving_process_loads_neither_asyncio_nor_ssl():
    """A fresh interpreter imports the CLI and the front end, then
    hosts a service for one ``ping`` (DESIGN.md, "Removed: asyncio on
    the serving thread")."""
    script = (
        "import sys\n"
        "import repro.cli, repro.server.net\n"
        "from repro.client import ServiceClient\n"
        "from repro.server.service import ServiceConfig\n"
        "from repro.sim.workload import WorkloadSpec\n"
        "handle = repro.server.net.start_server_thread(\n"
        "    ServiceConfig(spec=WorkloadSpec(n_processes=4, seed=1), seed=1)\n"
        ")\n"
        "with ServiceClient(handle.host, handle.port, timeout=30) as c:\n"
        "    assert c.ping()['pong'] is True\n"
        "handle.stop()\n"
        "print(sorted({'asyncio', 'ssl'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout


# ----------------------------------------------------------------------
# one lock table (DESIGN.md, "Removed: the lock table's shard map")
# ----------------------------------------------------------------------
#: The shard map, its round-robin audit, the queue-depth book and the
#: sampling knob.  ``shard`` itself stays: as a metric label and a
#: ``lock.defer`` / ``lock.cascade`` field it names the subsystem owning
#: the contended type.
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
# one event per park (DESIGN.md, "Removed: the wait-edge events")
# ----------------------------------------------------------------------
#: The wait-edge event kind and the second set of park bookkeeping that
#: paired its inserts with its deletes.
WAIT_EDGE = re.compile(
    r"wait\.edge|WaitEdge|_wait_edge_event|_park_since|_on_wait_edge"
)


def test_wait_edge_leaves_no_trace():
    """A park is its ``lock.defer`` or ``lock.cascade``; the wait-for
    graph is read off the decisions (``ParkTracker``)."""
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _python_files("src", "examples", "benchmarks")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if WAIT_EDGE.search(line)
    ]
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


#: The opt-in whole-table audit and the reference module it called from
#: ``src/`` (DESIGN.md §7, "Removed: the opt-in audit and the in-``src/``
#: reference"); the oracle lives on as ``tests/test_core/reference.py``.
WHOLE_TABLE_AUDIT = re.compile(
    r"repro\.core\.reference|naive_blocked_by|check_invariants"
    r"|ManagerConfig\(audit|audit_every"
)


def test_soak_campaign_leaves_no_trace():
    """``repro chaos`` is the one campaign, and every run's lock table
    checks every step it takes; only this file and the tests that pin
    the removed verb, flags, field and knob name what went, and no
    audit switch or in-``src/`` oracle is named outside the tests and
    DESIGN.md §7."""
    pins = {"tests/test_repo_links.py", "tests/test_cli.py"}
    offenders = _traces_of(SOAK_CAMPAIGN, pins) + [
        f"{name}:{number}"
        for name in ("README.md", ".gitignore")
        for number, line in enumerate(
            (ROOT / name).read_text().splitlines(), 1
        )
        if SOAK_CAMPAIGN.search(line)
    ]
    design = (ROOT / "DESIGN.md").read_text().splitlines()
    notes = next(
        index for index, line in enumerate(design) if line.startswith("## 7.")
    )
    offenders += [
        f"{path.relative_to(ROOT)}:{number}"
        for path in (
            *_python_files("src"),
            *sorted((ROOT / "docs").glob("*.md")),
            ROOT / "README.md",
        )
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if WHOLE_TABLE_AUDIT.search(line)
    ] + [
        f"DESIGN.md:{number}"
        for number, line in enumerate(design[:notes], 1)
        if WHOLE_TABLE_AUDIT.search(line)
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


# ----------------------------------------------------------------------
# one sweep per verdict (DESIGN.md §7, "Removed: sampled P-RED")
# ----------------------------------------------------------------------
SAMPLED_PREFIX_CHECKS = re.compile(
    r"stride|check_all_prefixes_recoverable|conflicting_activity_pairs"
    r"|next_point_of_no_return"
)


def test_sampled_prefix_checks_leave_no_trace():
    """P-RED, RED and P-RC are each one sweep over the schedule, so no
    caller samples prefixes any more (the per-prefix forms are oracles
    under ``tests/``)."""
    scanned = [
        *_python_files("src", "examples", "benchmarks"),
        *sorted((ROOT / "docs").glob("*.md")),
    ]
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in scanned
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SAMPLED_PREFIX_CHECKS.search(line)
    ]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one redo frame per subsystem transaction, and one crash model
# (DESIGN.md §7, "Removed: the durable undo WAL" and "Removed: the
# in-memory undo log")
# ----------------------------------------------------------------------
DURABLE_UNDO_WAL = re.compile(
    r"WriteAheadLog|SUBSYSTEM_WAL|subsystem_wal|sswal/|recover_store"
    r"|validate_wal|subsystems[./]wal\b|durable_subsystems|durable=True"
)


def test_durable_undo_wal_leaves_no_trace():
    """A subsystem's commit writes one ``txn`` frame, and a transaction
    buffers its writes until then: nothing keeps an undo log, durable
    or in memory; only this file and DESIGN.md §7 name what went."""
    design = (ROOT / "DESIGN.md").read_text().splitlines()
    notes = next(
        index for index, line in enumerate(design) if line.startswith("## 7.")
    )
    offenders = _traces_of(DURABLE_UNDO_WAL, {"tests/test_repo_links.py"}) + [
        f"{name}:{number}"
        for name, lines in (
            ("README.md", (ROOT / "README.md").read_text().splitlines()),
            ("DESIGN.md", design[:notes]),
        )
        for number, line in enumerate(lines, 1)
        if DURABLE_UNDO_WAL.search(line)
    ]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# the subsystem layer is checked online (DESIGN.md §7, "Removed: the
# subsystem operation history")
# ----------------------------------------------------------------------
SUBSYSTEM_HISTORY = re.compile(
    r"\.history\b|\bis_serializable\b|\bavoids_cascading_aborts\b"
    r"|\bRecordLockTimeout\b"
)


def test_subsystem_history_leaves_no_trace():
    """A subsystem validates each commit against per-key counters and
    keeps no log of reads and writes; the offline CPSR and ACA checks
    live on as the oracles of ``tests/test_subsystems/oracles.py``,
    and nothing the product, its examples, its experiments or its docs
    run or describe names them."""
    scanned = [
        *_python_files("src", "examples", "benchmarks"),
        *sorted((ROOT / "docs").glob("*.md")),
    ]
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in scanned
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SUBSYSTEM_HISTORY.search(line)
    ]
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one stamp per event (DESIGN.md §7, "Removed: per-sink stamping")
# ----------------------------------------------------------------------
#: What stamping takes: a clock, an offset, a counter to draw from.
STAMPING = re.compile(
    r"clock|offset|itertools|count|monotonic|^time$|^now$|^next$|_seq$"
)


def test_only_the_fold_stamps():
    """``MetricsTracer.emit`` reads the clock, adds the crash offset and
    draws the sequence number; the recording tracer and the bus bridge
    are handed ``(seq, t, event)``, so no identifier in their code (the
    docstrings aside) binds a clock, holds an offset or draws a
    number."""
    for relative in ("src/repro/obs/tracer.py", "src/repro/server/bridge.py"):
        names = set()
        for node in ast.walk(ast.parse((ROOT / relative).read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        offenders = sorted(name for name in names if STAMPING.search(name))
        assert not offenders, f"{relative} stamps: {offenders}"


# ----------------------------------------------------------------------
# one owner for the parked requests (DESIGN.md §7, "Removed: the
# manager's parking internals and its three ask paths")
# ----------------------------------------------------------------------
#: The manager's own ask paths and park counter, spelled in pieces like
#: ``RETIRED`` above: the protocol is asked in ``_apply_decision``.
RETIRED_ASK_PATHS = re.compile(
    "|".join(
        head + tail
        for head, tail in (
            ("_request_", "regular"),
            ("_request_", "commit"),
            ("_has_parked", "_commit"),
            ("_park", "_seq"),
        )
    )
)

#: A :class:`~repro.scheduler.parking.ParkingLot`'s private books, read
#: through any object (the manager held them until the lot did).
LOT_INDEX = re.compile(
    r"\._("
    + "|".join(
        head + tail
        for head, tail in (
            ("park", "ed"),
            ("park", "ed_of"),
            ("wait", "_index"),
            ("wake", "_pending"),
            ("drain", "_depth"),
            ("cycle", "_standing"),
        )
    )
    + r")\b"
)


def test_manager_parking_internals_leave_no_trace():
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _python_files("src", "tests", "benchmarks")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if RETIRED_ASK_PATHS.search(line)
    ]
    assert not offenders, offenders


def test_only_the_lot_reads_its_books():
    """The manager, recovery and the tests go through ``park`` /
    ``unpark`` / ``of`` / ``wake`` / ``cycle_through`` /
    ``wait_edges`` and iteration."""
    owner = ROOT / "src/repro/scheduler/parking.py"
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _python_files("src", "tests", "benchmarks")
        if path != owner
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if LOT_INDEX.search(line)
    ]
    assert not offenders, offenders
    assert LOT_INDEX.search(owner.read_text())


# ----------------------------------------------------------------------
# each fact counted once (DESIGN.md §7, "Removed: the second books")
# ----------------------------------------------------------------------
#: A process record's per-pid counters, the injector's tallies of what
#: its own events count, and the journal's append count.
SECOND_BOOKS = re.compile(
    r"activities_committed|cascade_aborts|intrinsically_aborted_at"
    r"|injected_failures|injected_retries|latency_injections|outage_hits"
    r"|manager_recoveries|JournalRepository|_base_len"
)


def test_second_books_leave_no_trace():
    """A pid's counts are the fold's (``stats``), the injector's are
    its ``fault.inject`` channels, and the journal's length is the
    backend's count.  Only this file and the golden session, which
    puts the format-7 counts back to derive the old journal, name what
    went."""
    pins = {
        "tests/test_repo_links.py",
        "tests/test_storage/test_journal_golden.py",
    }
    offenders = _traces_of(SECOND_BOOKS, pins)
    assert not offenders, offenders


# ----------------------------------------------------------------------
# one conflict plane, one backend (DESIGN.md §7, "Removed: the mutable
# conflict relation and the memory backend")
# ----------------------------------------------------------------------
#: What served a conflict relation that could change after it was
#: compiled, the volatile store kind and its dispatch, and the
#: exposition parser only the tests read (``tests/test_obs/
#: exposition.py``).
COMPILED_ONCE = re.compile(
    r"_live_plane|_learn_types|_build_adjacency|_invalidate\b"
    r"|MemoryBackend|open_backend|check_kind|parse_prometheus"
)


def test_the_conflict_relation_is_compiled_once():
    """``CON`` is compiled once and the lock table keeps that plane: no
    resync, no late types, no rebuilt adjacency; and the store has one
    backend."""
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in _python_files("src")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if COMPILED_ONCE.search(line)
    ]
    assert not offenders, offenders
