"""Crash at every point of the commit log: one global prefix, always.

Every appended namespace shares one log (``docs/persistence.md``), so
"what can be on disk after a crash" is enumerable: a byte cut of that
log, beside one of the checkpoint documents swapped in before the cut.
The sweep scripts a small durable session — grounded catalog, a
contended burst with a cancel in it, a few snapshots — notes the log's
size at every acknowledgement and every document with the size at its
swap, then restarts a service from **every frame boundary** (and a
seeded sample of mid-frame offsets) beside each document that can be
there, and holds the restart to what the session promised: whatever was
acknowledged by the cut is recovered unchanged, no journaled outcome
differs, every subsystem comes back holding the records of its last
finished transaction (an open one is undone from its before-images —
which are there, because a WAL frame lies ahead of its data frame), the
spliced schedule passes ``check``, ``conserved`` holds and
``Store.verify`` is clean.

Checked by hand when this was written: with the backend made to write
a subsystem's data frame ahead of its WAL frame, a cut between the two
leaves a write nobody can undo, and the sweep fails on the subsystem's
records at the first such cut.

The backend-level property under it: for any interleaving of appends
to several namespaces and any byte cut, each namespace reads back a
prefix of its own appends, and together they are one prefix of the
interleaving.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec
from repro.storage import AppendLogBackend, Store
from repro.storage.codec import encode_frame
from repro.storage.facade import dumps, loads
from tests.test_storage.commit_log import (
    LOG_FILE,
    boundaries,
    log_frames,
)

SPEC = WorkloadSpec(
    n_processes=6,
    conflict_density=0.6,
    failure_probability=0.1,
    grounded=True,
    seed=5,
)
#: Mid-frame offsets tried on top of every frame boundary.
TORN_SAMPLES = 16


def _service(path) -> ProcessLockingService:
    return ProcessLockingService(
        ServiceConfig(
            spec=SPEC,
            seed=5,
            store="log",
            store_path=str(path),
            store_fsync="never",
            snapshot_every=10,
            tick=0.001,  # a stop waits one out
        )
    )


def _session(path: Path):
    """Run the scripted session on a fresh store at ``path``.

    Returns ``(acks, documents)``: ``acks`` are ``(log size, kind,
    body)`` for every answered request, the size read when the answer
    arrived — everything the answer rests on lies before it;
    ``documents`` are ``(log size at the swap, document)``, oldest
    first, starting with no document at size 0.
    """
    service = _service(path)
    log = path / LOG_FILE
    documents: list[tuple[int, dict | None]] = [(0, None)]
    save = service.store.snapshots.save

    def recording_save(document: dict) -> None:
        documents.append((os.path.getsize(log), document))
        save(document)

    service.store.snapshots.save = recording_save
    acks: list[tuple[int, str, dict]] = []

    def ask(kind: str, future) -> dict:
        body = future.result(timeout=60)
        acks.append((os.path.getsize(log), kind, body))
        return body

    # Queued before the engine thread exists, so one batch takes both:
    # the cancel reaches pid 2 of the burst before anything has run.
    burst = service.execute({"cmd": "submit", "count": 4})
    cancel = service.execute({"cmd": "cancel", "pid": 2})
    service.start()
    assert ask("submit", burst)["pids"] == [1, 2, 3, 4]
    assert ask("cancel", cancel)["cancelled"]
    for program in (4, 5):
        ask(
            "outcomes",
            service.execute(
                {"cmd": "submit", "program": program, "wait": True}
            ),
        )
    service.stop()
    return acks, documents


def _settled_records(frames, cut: int) -> dict[str, dict]:
    """Each subsystem's non-default records as of the last transaction
    it finished within ``cut`` bytes of the log: the redo records ahead
    of its last ``commit`` / ``abort``, last write wins."""
    records: dict[str, dict] = {}
    settled: dict[str, dict] = {}
    for name, payload, end in frames:
        if end > cut:
            break
        kind, _, subsystem = name.partition("/")
        if kind == "ssdata":
            record = loads(payload)
            records.setdefault(subsystem, {})[record["key"]] = (
                0 if record.get("deleted") else record["value"]
            )
        elif kind == "sswal" and loads(payload)["kind"] != "write":
            settled[subsystem] = {
                key: value
                for key, value in records.get(subsystem, {}).items()
                if value
            }
    return settled


def _restart_and_audit(
    path: Path, acks, terminals: dict[int, str], settled: dict[str, dict]
) -> None:
    """Serve from the damaged store at ``path``; hold it to ``acks``
    (those the cut covers), to the journaled ``terminals`` and to the
    ``settled`` subsystem records."""
    service = _service(path)  # subsystems recover here; nothing runs yet
    for subsystem in service.manager.subsystems:
        held = {
            key: value
            for key, value in subsystem.store.snapshot().items()
            if value
        }
        assert held == settled.get(subsystem.name, {}), subsystem.name
    service.start()
    try:
        assert service.execute({"cmd": "drain"}).result(timeout=60)[
            "quiesced"
        ]

        def outcome(pid: int) -> str:
            status = service.execute(
                {"cmd": "status", "pid": pid}
            ).result(timeout=30)
            assert status["state"] == "done", status
            return status["outcome"]

        for _, kind, body in acks:
            if kind == "submit":
                for pid in body["pids"]:
                    outcome(pid)  # known, and decided by now
            elif kind == "cancel":
                assert outcome(body["pid"]) == "cancelled"
            else:
                for row in body["outcomes"]:
                    assert outcome(row["pid"]) == row["outcome"], row
        for pid, journaled in terminals.items():
            assert outcome(pid) == journaled, pid
        report = service.execute({"cmd": "check"}).result(timeout=60)
        assert report["complete"], report
        assert report["correct_termination"], report
        assert report["process_recoverable"], report
        assert report["conserved"], report
    finally:
        service.stop()
    store = Store.open("log", str(path), fsync="never")
    try:
        assert store.verify()["ok"]
    finally:
        store.close()


def test_restart_from_every_frame_boundary(tmp_path):
    golden = tmp_path / "golden"
    acks, documents = _session(golden)
    assert len(documents) >= 3  # at least two snapshots
    data = (golden / LOG_FILE).read_bytes()
    frames = log_frames(data)
    assert {name.split("/")[0] for name, _, _ in frames} == {
        "journal",
        "trace",
        "sswal",
        "ssdata",
    }
    edges = boundaries(data)
    assert edges[-1] == len(data)
    cuts = sorted(
        {*edges, *random.Random(5).sample(range(len(data)), TORN_SAMPLES)}
    )
    restarts = 0
    for cut in cuts:
        terminals = {
            record["pid"]: record["outcome"]
            for record in (
                loads(payload)
                for name, payload, end in frames
                if name == "journal" and end <= cut
            )
            if record["kind"] == "terminal"
        }
        covered = [ack for ack in acks if ack[0] <= cut]
        settled = _settled_records(frames, cut)
        for at, document in documents:
            if at > cut:
                break
            target = tmp_path / f"cut-{cut}-{at}"
            shutil.copytree(golden, target)
            with open(target / LOG_FILE, "r+b") as handle:
                handle.truncate(cut)
            if document is None:
                (target / "snapshot.log").unlink()
            else:
                (target / "snapshot.log").write_bytes(
                    encode_frame(dumps(document))
                )
            _restart_and_audit(target, covered, terminals, settled)
            shutil.rmtree(target)
            restarts += 1
    assert restarts > len(edges)


NAMESPACES = ("journal", "trace", "sswal/a", "ssdata/a")


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(NAMESPACES), st.binary(max_size=12)
        ),
        min_size=1,
        max_size=10,
    )
)
def test_any_cut_of_interleaved_appends_is_one_global_prefix(appends):
    with tempfile.TemporaryDirectory() as root:
        backend = AppendLogBackend(os.path.join(root, "whole"), fsync="never")
        log = os.path.join(root, "whole", LOG_FILE)
        ends = []
        for namespace, payload in appends:
            backend.append(namespace, payload)
            ends.append(os.path.getsize(log))
        backend.close()
        with open(log, "rb") as handle:
            data = handle.read()
        os.mkdir(os.path.join(root, "cut"))
        for cut in range(len(data) + 1):
            with open(os.path.join(root, "cut", LOG_FILE), "wb") as out:
                out.write(data[:cut])
            damaged = AppendLogBackend(
                os.path.join(root, "cut"), fsync="never"
            )
            survivors = appends[: sum(end <= cut for end in ends)]
            for namespace in NAMESPACES:
                assert damaged.read_all(namespace) == [
                    payload
                    for owner, payload in survivors
                    if owner == namespace
                ]
            damaged.close()
