"""What a session leaves behind does not depend on when it was written.

The journal tee queues its informational records and the plane writes
them once per drain; the bus bridge flattens an event only for a
listener; the registry's gauges are sampled per drain.  None of that
may show: a moved digest means the bytes a store, a subscriber or a
``metrics`` reader gets have changed.  First recorded at commit
1205e68, where every record was appended, every event flattened and
every gauge sampled as it was emitted, and unmoved by the two changes
that deferred all three; recorded again when the restart gate changed
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
from repro.storage.backend import AppendLogBackend
from repro.storage.facade import JournalRepository
from tests.test_storage.commit_log import log_path, namespace_bytes

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
        "76b1b57bed28b59c75d803ecb78be76d1de4ddba4f824ba659d86b64ed576228"
    ),
    "trace": (
        "269abfff52f3831d49c29434548f848a66525985a364e90a374acc1bb975405e"
    ),
    "frames": (
        "576bf610b8419353e9b724a86d3dd9daae305b422aead1a9a1ccd667c75efcf9"
    ),
    "gauges": (
        "59bf63497b7c96f9bb8945ca7706c4eb1db4826789805cacb07fe7d95955649c"
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
            snapshot_every=256,
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


def test_deferred_records_keep_their_place(tmp_path):
    """Queued records land ahead of the next direct append, in order —
    the log of appending each right away, frame for frame."""
    records = [{"kind": "grant", "n": n} for n in range(3)]
    submit, terminal = {"kind": "submit"}, {"kind": "terminal"}

    eager_backend = AppendLogBackend(str(tmp_path / "eager"))
    eager = JournalRepository(eager_backend)
    for record in (submit, *records, terminal):
        eager.append(record)

    lazy_backend = AppendLogBackend(str(tmp_path / "lazy"))
    lazy = JournalRepository(lazy_backend)
    lazy.append(submit)
    for record in records:
        lazy.defer(record)
    assert lazy.appended == 1 and len(lazy) == 1  # nothing written yet
    lazy.append(terminal)
    assert lazy.records() == [submit, *records, terminal]
    lazy.defer(records[0])
    lazy.write_deferred()
    eager.append(records[0])

    for backend in (eager_backend, lazy_backend):
        backend.close()
    assert log_path(tmp_path / "lazy").read_bytes() == (
        log_path(tmp_path / "eager").read_bytes()
    )
    assert lazy.appended == eager.appended == 6
    assert lazy_backend.appends == eager_backend.appends == 6
    assert lazy_backend.bytes_written == eager_backend.bytes_written
