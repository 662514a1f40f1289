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
import threading
from pathlib import Path

from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec
from repro.storage import AppendLogBackend, Store
from repro.storage.facade import dumps, loads
from tests.test_storage.commit_log import log_frames, log_path, namespace_bytes

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
        "0dfe920375313b5b3cb6dbf29897953b016dacec3c505ad97781eb0aa6c56d26"
    ),
    "trace": (
        "269abfff52f3831d49c29434548f848a66525985a364e90a374acc1bb975405e"
    ),
    "frames": (
        "c384ac3cd8c17ae891911f7fa9412cad480688cae67aa957f142a8818a8873cf"
    ),
    "gauges": (
        "2c10a42c94ad92c5db08d442762f57edd0e01f7dbe116c06f0f8f159d58d7496"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def session(store_path: str) -> dict[str, str]:
    """Three contended bursts through a durable in-thread service with
    a ``*`` subscriber; digests of the journal and trace namespaces
    (each one's frames end to end — byte for byte the file it had to
    itself when these were recorded; the commit log only changed the
    container), of the subscriber's frames and of the gauges a
    ``metrics`` verb returns after the last drain."""
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
    assert json.loads(done.stdout) == RECORDED


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
    assert kinds["submit"] == 32 and kinds["terminal"] >= 32


def _crash_after_one_acknowledged_burst(path) -> list[dict]:
    """A burst acknowledged, a second one journaled and run but killed
    before its drain's ``after_drain``; the first burst's outcomes."""
    first = ProcessLockingService(
        ServiceConfig(
            spec=GROUNDED,
            seed=5,
            store="log",
            store_path=str(path),
            store_fsync="never",
            snapshot_every=8,
        )
    )
    post_drain = first._post_drain
    armed = threading.Event()
    first._post_drain = lambda: (
        first._stop.set() if armed.is_set() else post_drain()
    )
    first.start()
    acknowledged = first.execute(
        {"cmd": "submit", "count": 16, "wait": True}
    ).result(timeout=60)
    armed.set()
    first.execute({"cmd": "submit", "count": 16, "wait": True})
    first._thread.join(timeout=30)
    assert not first._thread.is_alive()
    return acknowledged["outcomes"]


def _with_provenance_rows(source, target) -> int:
    """Copy the store at ``source`` to ``target`` as an older release
    would have written it: a ``grant``, a ``wcc`` and a
    ``retry-exhausted`` row (the shapes its journal tee wrote) after
    every ``submit``, the snapshot's journal watermark moved past the
    rows it now covers.  Returns the rows added."""
    reader = Store.open("log", str(source), fsync="never")
    meta, document = reader.meta.load(), reader.snapshots.load()
    reader.close()
    writer = AppendLogBackend(str(target), fsync="never")
    writer.replace("meta", [dumps(meta)])
    seen = added = 0
    watermark = document["journal_lsn"]
    for namespace, payload, _ in log_frames(log_path(source).read_bytes()):
        writer.append(namespace, payload)
        if namespace != "journal":
            continue
        seen += 1
        record = loads(payload)
        if record["kind"] == "submit":
            pid, stamp = record["pid"], float(record["pid"])
            for row in (
                {"kind": "grant", "t": stamp, "pid": pid, "name": "a0",
                 "mode": "C", "position": pid},
                {"kind": "wcc", "t": stamp, "pid": pid, "name": "a0",
                 "mode": "C", "wcc": 1.5, "pseudo_pivot": False},
                {"kind": "retry-exhausted", "t": stamp, "pid": pid,
                 "name": "a0", "attempts": 3},
            ):
                writer.append("journal", dumps(row))
                added += 1
                if seen <= watermark:
                    document["journal_lsn"] += 1
    writer.replace("snapshot", [dumps(document)])
    writer.close()
    return added


def _restart(path) -> dict:
    service = _durable(path)
    try:
        recovery = service.recovery
        service.execute({"cmd": "ping"}).result(timeout=60)
        statuses = [
            service.execute({"cmd": "status", "pid": pid}).result(
                timeout=30
            )
            for pid in range(1, 33)
        ]
        report = service.execute({"cmd": "check"}).result(timeout=60)
        return {
            "recovered": (
                recovery.restored,
                recovery.resubmitted,
                recovery.adopted,
            ),
            "statuses": statuses,
            "report": report,
        }
    finally:
        service.stop()


def test_a_store_with_provenance_rows_recovers_the_same_outcomes(
    tmp_path,
):
    """Older releases journaled ``grant`` / ``wcc`` / ``retry-exhausted``
    rows next to the redo records; no reader ever needed them, so such a
    store still opens, verifies and recovers exactly what the
    same store without them recovers."""
    plain, older = tmp_path / "plain", tmp_path / "older"
    acknowledged = _crash_after_one_acknowledged_burst(plain)
    assert _with_provenance_rows(plain, older) == 3 * 32
    store = Store.open("log", str(older))
    try:
        assert store.verify()["ok"]
        kinds = store.describe()["journal"]["kinds"]
    finally:
        store.close()
    assert kinds["grant"] == kinds["wcc"] == kinds["submit"] == 32

    expected, got = _restart(plain), _restart(older)
    assert got == expected
    assert expected["recovered"][0] == 16  # the acknowledged burst
    assert expected["report"]["complete"]
    assert expected["report"]["correct_termination"]
    assert expected["report"]["process_recoverable"]
    outcomes = {row["pid"]: row["outcome"] for row in acknowledged}
    for status in got["statuses"]:
        assert status["state"] == "done"
        if status["pid"] in outcomes:
            assert status["outcome"] == outcomes[status["pid"]]
