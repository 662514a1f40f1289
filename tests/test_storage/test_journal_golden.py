"""What a session leaves behind does not depend on when it was written.

The bus bridge flattens an event only for a listener; the registry's
gauges are sampled per drain.  None of that may show: a moved digest
means the bytes a store, a subscriber or a ``metrics`` reader gets
have changed.  First recorded at commit 1205e68, where every record was
appended, every event flattened and every gauge sampled as it was
emitted, and unmoved by the two changes that deferred all three (the
journal's share of that went with the journal's provenance rows);
recorded again when the restart gate changed
the schedule of the session itself (fewer resubmissions, one more
event kind, one more gauge).  ``gauges`` alone was recorded once more
when the subsystem-health layer went: the ``metrics`` verb lost three
gauge families that never had a sample here; every remaining gauge
kept its samples, and journal, trace and frames did not move.
``frames`` alone was recorded once more when the thread-per-shard
manager went: ``activity.start`` and ``wait.edge`` lost their
always-``null`` ``worker`` key and ``wait.edge`` names its park
sequence ``park`` instead of laying it over the stamp's ``seq``; with
those keys put back the old digest returns.
``journal`` and ``frames`` were recorded once more when the journal
stopped carrying decision provenance (and the snapshot cadence was
rescaled from 256 records to 48, which cuts this session where 256 did):
the new journal is the old one with its ``grant`` / ``wcc`` rows taken
out, byte for byte, and the new frames are the old ones but for the
``journal_lsn`` of their ``store.snapshot`` events, which counts fewer
records; ``trace``, ``gauges`` and the five schedule digests did not
move.  ``gauges`` alone was recorded once more when the lock table's
shard map went: the ``metrics`` verb lost the per-subsystem queue-depth
family (three samples, all zero after the last drain); the parent's
gauges dict with that one family taken out hashes to the new digest,
and ``repro_locks_held``, now read off the lock table when sampled,
kept its samples.  ``frames`` alone was recorded once more when the
counts became one fold over the event stream: ``activity.commit`` gained
``undone`` and ``cause`` (the cost a compensation undid and its run's
label, ``null`` on a regular commit); with those two keys taken out of
every frame the old digest returns.
``journal`` and ``trace`` were recorded once more when every appended
record became a positional array (store format 4): decoded through the
codec and written again as format 3 wrote them — keyed, sorted JSON
objects, each trace row with its ``compensatable`` /
``point_of_no_return`` flags — both hash to the digests recorded before
it, which ``AS_FORMAT_3`` keeps and the session re-derives every run;
``frames``, ``gauges`` and the five schedule digests did not move.
``trace`` alone was recorded once more when a trace frame became a list
of per-process runs with a name table and uid deltas (store format 6):
its frames decode to the same rows, so ``trace_as_format_3`` (derived
through the decoder) did not move, and neither did ``journal``,
``journal_as_format_3``, ``frames``, ``gauges`` or the five schedule
digests.
``journal``, ``journal_as_format_3`` and ``frames`` were recorded once
more when a process decided in the drain that admitted it stopped
getting a ``submit`` record, and a served submission's record started
at the virtual time it was accepted (store format 7).  Every burst here
is decided in its own drain, so decoded, the new journal is the old one
with its 48 ``submit`` records taken out and the ``submitted_at`` of
the second and third bursts' records set to the engine's clock when
they were accepted (0 before); the new frames are the old ones but for
the ``journal_lsn`` of the two ``store.snapshot`` events, which counts
half the records.  ``trace``, ``trace_as_format_3``, ``gauges`` and the
five schedule digests did not move.
``frames`` alone was recorded once more when a park became its
decision event and the ``wait.edge`` kind went: the old frames with
every ``wait.edge`` record taken out, ``seq`` renumbered over what is
left, and each ``lock.defer`` / ``lock.cascade`` given the ``shard`` of
the ``wait.edge`` insert that followed it hash to the new digest.
``journal``, ``trace``, ``gauges``, both ``*_as_format_3`` digests and
the five schedule digests did not move.
``journal`` and ``journal_as_format_3`` were recorded once more when a
``terminal`` row stopped carrying the per-pid counts the event fold
keeps (store format 8): decoded, the new journal is the old one with
six fields taken out of each record.  The session checks that every
run: its journal with those six put back, recounted from its own
events, hashes to the old ``journal_as_format_3``
(``format_7_journal_as_format_3``).  ``trace``, ``trace_as_format_3``,
``frames``, ``gauges`` and the five schedule digests did not move.

The scripted session runs in a fresh interpreter: its records carry
activity uids as they are, and those come from a module-global counter
that starts from zero only there.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec
from repro.storage import Store, encode_frame
from repro.storage.facade import dumps
from repro.storage.journal import (
    JOURNAL,
    TRACE,
    ProgramCodec,
    trace_event_from_row,
)
from tests.test_storage.commit_log import namespace_bytes, payloads_of

ROOT = Path(__file__).resolve().parents[2]

CONTENDED = WorkloadSpec(
    n_processes=16,
    n_activity_types=12,
    conflict_density=0.6,
    failure_probability=0.04,
    seed=3,
)

#: Recorded by ``python -c "...session(sys.argv[1])"``.
RECORDED = {
    "journal": (
        "613570895dffc5b552c8e9e1992b59df0ee22a6a2efd4c3a916fd8183c59759c"
    ),
    "trace": (
        "8b64c80856c02edd264295c21dae8ef69fa31cead4ddced0b1a29c6b0a11daf5"
    ),
    "frames": (
        "632d8d8c4dbe737e22832f22f4e387278acef7bdceabc4713d4d98a5a011b805"
    ),
    "gauges": (
        "2c10a42c94ad92c5db08d442762f57edd0e01f7dbe116c06f0f8f159d58d7496"
    ),
}

#: ``journal`` and ``trace`` decoded and written again as format 3
#: wrote them: ``trace`` as recorded while the store wrote format 3;
#: ``journal`` since format 8 stores only what a client reads or
#: recovery replays (see the module docstring).  The third is the
#: journal as format 7 stored it, derived every run: each ``terminal``
#: record given back the six per-pid counts format 7 also stored,
#: recounted from the session's events (:func:`_format_7_counts`), then
#: written as format 3 wrote it — ``journal_as_format_3`` as recorded
#: while the store wrote format 7.
AS_FORMAT_3 = {
    "journal_as_format_3": (
        "46c73203969dab27aaafdd90e6541805934d30c802fb50262d4a1d34b89c0ddd"
    ),
    "format_7_journal_as_format_3": (
        "fcb4cdbecfcfb9772fd7ce1fd1e8544f360d22c5468a688908df901d0337d49f"
    ),
    "trace_as_format_3": (
        "269abfff52f3831d49c29434548f848a66525985a364e90a374acc1bb975405e"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _format_7_counts(events: list[dict]) -> dict[int, dict]:
    """Per pid, the counts a format-7 ``terminal`` record carried beside
    what format 8 keeps, recounted from the session's events as the
    manager counted them (``intrinsically_aborted_at`` it never set)."""
    counts: dict[int, dict] = {}
    for event in events:
        if "pid" not in event:
            continue
        tally = counts.setdefault(
            event["pid"],
            {
                "activities_committed": 0,
                "cascade_aborts": 0,
                "compensations": 0,
                "compensated_cost": 0.0,
                "intrinsically_aborted_at": None,
                "retries": 0,
            },
        )
        kind = event["kind"]
        if kind == "activity.commit" and event["compensation"]:
            tally["compensations"] += 1
            tally["compensated_cost"] += event["undone"]
        elif kind == "activity.commit":
            tally["activities_committed"] += 1
        elif kind == "activity.retry":
            tally["retries"] += 1
        elif kind == "process.abort-begin" and event["cause"] in (
            "cascade", "deadlock", "self"  # the ones that resubmit
        ):
            tally["cascade_aborts"] += 1
    return counts


def _as_format_3(store_path: str, programs, events) -> dict[str, str]:
    """Digests of the journal and trace namespaces decoded and written
    again as format 3 wrote them, and of the journal as format 7 stored
    it, so written."""
    codec = ProgramCodec(programs)
    counts = _format_7_counts(events)

    def format_7_record(payload: bytes) -> dict:
        record = JOURNAL.decode(payload)
        if record["kind"] == "terminal":
            record["record"].update(counts[record["pid"]])
        return record

    def trace_frame(payload: bytes) -> dict:
        frame = TRACE.decode(payload)
        events = (
            trace_event_from_row(row, position, codec)
            for position, row in enumerate(frame["events"], frame["start"])
        )
        return dict(
            frame,
            events=[
                [
                    list(event.process),
                    event.kind.value,
                    event.name,
                    event.uid,
                    event.compensates,
                    event.compensatable,
                    event.point_of_no_return,
                ]
                for event in events
            ],
        )

    return {
        f"{namespace}_as_format_3": _sha256(
            b"".join(
                encode_frame(dumps(decode(payload)))
                for payload in payloads_of(store_path, namespace)
            )
        )
        for namespace, decode in (
            ("journal", JOURNAL.decode),
            ("trace", trace_frame),
        )
    } | {
        "format_7_journal_as_format_3": _sha256(
            b"".join(
                encode_frame(dumps(format_7_record(payload)))
                for payload in payloads_of(store_path, "journal")
            )
        )
    }


def session(store_path: str) -> dict[str, str]:
    """Three contended bursts through a durable in-thread service with
    a ``*`` subscriber; digests of the journal and trace namespaces
    (each one's frames end to end — byte for byte the file it had to
    itself before format 3; the commit log only changed the container),
    of the two as format 3 wrote them, of the subscriber's frames and of
    the gauges a ``metrics`` verb returns after the last drain."""
    service = ProcessLockingService(
        ServiceConfig(
            spec=CONTENDED,
            seed=3,
            store="log",
            store_path=store_path,
            store_fsync="never",
            snapshot_every=48,
        )
    )
    frames: list[str] = []
    service.bus.subscribe(
        ["*"],
        lambda topic, record: frames.append(
            json.dumps(record, sort_keys=True)
        ),
    )
    service.start()
    for program in (0, 5, 11):
        service.execute(
            {"cmd": "submit", "program": program, "count": 16, "wait": True}
        ).result(timeout=120)
    families = service.execute({"cmd": "metrics"}).result(timeout=30)[
        "metrics"
    ]["families"]
    gauges = {
        family["name"]: family["samples"]
        for family in families
        if family["type"] == "gauge"
        and not family["name"].startswith(("repro_store", "repro_bus"))
    }
    service.stop()
    return {
        "journal": _sha256(namespace_bytes(store_path, "journal")),
        "trace": _sha256(namespace_bytes(store_path, "trace")),
        "frames": _sha256("\n".join(frames).encode()),
        "gauges": _sha256(json.dumps(gauges, sort_keys=True).encode()),
        **_as_format_3(
            store_path,
            service.workload.programs,
            [json.loads(frame) for frame in frames],
        ),
    }


def test_session_digests_match_recorded(tmp_path):
    src = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from tests.test_storage.test_journal_golden import session\n"
         "print(json.dumps(session(sys.argv[1])))",
         str(tmp_path / "store")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {**RECORDED, **AS_FORMAT_3}


# ----------------------------------------------------------------------
# the journal holds redo records only
# ----------------------------------------------------------------------
GROUNDED = WorkloadSpec(
    n_processes=16,
    conflict_density=0.6,
    failure_probability=0.08,
    grounded=True,
    seed=5,
)

REDO_KINDS = {"submit", "terminal", "cancel"}


def _durable(path, **overrides) -> ProcessLockingService:
    return ProcessLockingService(
        ServiceConfig(
            spec=GROUNDED,
            seed=5,
            store="log",
            store_path=str(path),
            store_fsync="never",
            snapshot_every=overrides.pop("snapshot_every", 8),
            **overrides,
        )
    ).start()


def test_a_contended_grounded_session_journals_redo_records_only(
    tmp_path,
):
    service = _durable(tmp_path / "store")
    for program in (0, 5):
        service.execute(
            {"cmd": "submit", "program": program, "count": 16, "wait": True}
        ).result(timeout=120)
    stats = service.execute({"cmd": "stats"}).result(timeout=30)
    service.stop()
    assert stats["manager"]["resubmissions"] > 0  # it was contended
    store = Store.open("log", str(tmp_path / "store"))
    try:
        kinds = store.describe()["journal"]["kinds"]
        assert store.describe()["subsystems"]  # and grounded
    finally:
        store.close()
    assert set(kinds) <= REDO_KINDS
    # Each waited burst is decided in the drain that admitted it, so its
    # processes are journaled once, by their terminal records.
    assert kinds == {"terminal": 32}
