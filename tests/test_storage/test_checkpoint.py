"""Incremental checkpoints: trace delta + slim document + terminal records.

A snapshot writes what changed since the previous one
(``docs/persistence.md``, "What is persisted").  These tests hold the
three pieces together: the image a restart rebuilds from them equals
the image the manager would have captured in memory, at every
snapshot; a crash between the two write steps loses nothing that was
durable; a damaged trace is a typed error; and store bytes grow
linearly with the work done.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main as repro_main
from repro.errors import StorageError, WalCorruptionError
from repro.scheduler.manager import ManagerConfig, make_manager
from repro.scheduler.recovery import crash
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.storage import AppendLogBackend, PersistencePlane, Store
from repro.storage.codec import encode_frame
from repro.storage.facade import FORMAT_VERSION, dumps
from repro.storage.journal import TRACE
from tests.test_storage.commit_log import payloads_of
from tests.test_storage.stored import stored_events

CONTENDED = WorkloadSpec(
    n_processes=20,
    conflict_density=0.6,
    failure_probability=0.1,
    seed=11,
)


def _open_manager(workload, path, snapshot_every):
    """A plane + manager on ``path``: recovered when it holds state."""
    store = Store.open("log", path, fsync="never")
    plane = PersistencePlane(
        store, workload.programs, snapshot_every=snapshot_every
    )
    config = ManagerConfig(store=store)
    protocol = make_protocol("process-locking", workload)
    if plane.has_state():
        manager, _ = plane.recover(
            protocol,
            config=config,
            subsystems=workload.make_subsystems(),
            seed=CONTENDED.seed,
        )
    else:
        manager = make_manager(
            protocol,
            subsystems=workload.make_subsystems(),
            config=config,
            seed=CONTENDED.seed,
        )
    return store, plane, manager


def _stored_image(workload, path):
    """The image a restart on ``path`` would rebuild, read right now."""
    store = Store.open("log", path, fsync="never")
    try:
        image, _ = PersistencePlane(store, workload.programs).load_image()
        return _without_delays(image)
    finally:
        store.close()


def _without_delays(image):
    """The journal keeps a pending pid, not when it was due."""
    image.pending = [(pid, program, 0.0) for pid, program, _ in image.pending]
    return image


def _drive(plane, manager, steps=5):
    """Step the engine to quiescence; a drain point every ``steps``
    events — mid-flight, pids pending, aborting and awaiting their
    resubmission included."""
    engine = manager.engine
    while engine.pending:
        engine.run_steps(steps)
        plane.after_drain(manager)


@pytest.mark.parametrize("cadence", (0, 1, 7, 256))
def test_stored_image_equals_crash_image_at_every_snapshot(
    tmp_path, cadence
):
    workload = build_workload(CONTENDED)
    path = str(tmp_path / "store")
    store, plane, manager = _open_manager(workload, path, cadence)
    checked, phases, held = [], set(), []
    take = plane.snapshot

    def snapshot_and_compare(manager):
        lsn = take(manager)
        assert _stored_image(workload, path) == _without_delays(
            crash(manager)
        )
        phases.update(manager.undecided().values())
        held.append(any(map(manager.held_behind, manager.undecided())))
        checked.append(lsn)
        return lsn

    plane.snapshot = snapshot_and_compare
    for index, program in enumerate(workload.programs):
        plane.note_submit(manager.submit(program, at=index), index)
    _drive(plane, manager)
    plane.final(manager)
    store.close()
    assert manager.stats.resubmissions > 0  # it was contended
    assert len(manager.trace) > 100
    # The journal holds a submit and a terminal per pid (40 records):
    # cadence 0 snapshots at every drain point, 1 at every one that
    # decided a pid, 7 at every seventh record, 256 only at the end.
    assert len(checked) >= {0: 30, 1: 15, 7: 4, 256: 1}[cadence]
    if cadence == 0:
        assert phases >= {
            "pending", "running", "aborting", "awaiting-resubmit"
        }
        # ... some of them taken with a pid held at the restart gate.
        assert any(held) and not all(held)


def test_crash_between_trace_append_and_document_swap(tmp_path):
    """The previous snapshot is recovered exactly; the orphan delta is
    neither an error nor replayed, and the next writer supersedes it."""
    workload = build_workload(CONTENDED)
    path = str(tmp_path / "store")
    store, plane, manager = _open_manager(workload, path, 7)
    for index, program in enumerate(workload.programs):
        plane.note_submit(manager.submit(program, at=index), index)
    images = []
    take = plane.snapshot

    def snapshot_and_keep(manager):
        lsn = take(manager)
        image = _without_delays(crash(manager))
        # crash() shares the live, still-mutating record objects.
        image.records = copy.deepcopy(image.records)
        images.append(image)
        return lsn

    plane.snapshot = snapshot_and_keep
    replace = store.backend.replace

    def die_on_third_swap(namespace, payloads):
        if namespace == "snapshot" and len(images) == 2:
            raise KeyboardInterrupt("killed before the swap")
        replace(namespace, payloads)

    store.backend.replace = die_on_third_swap
    with pytest.raises(KeyboardInterrupt):
        _drive(plane, manager)
    store.close()
    # The delta of the third snapshot did reach the trace file.
    durable = images[-1]
    orphaned = Store.open("log", path, fsync="never")
    # The image of a snapshot carries no trace: the store holds it.
    assert durable.trace_events == [] and durable.trace_base > 0
    assert len(orphaned.trace.events()) > durable.trace_base
    orphaned.close()
    assert _stored_image(workload, path) == durable

    store2, plane2, recovered = _open_manager(workload, path, 7)
    assert len(recovered.trace) == durable.trace_base
    assert recovered.trace.events == []
    _drive(plane2, recovered)
    plane2.final(recovered)
    store2.close()
    assert _stored_image(workload, path) == _without_delays(
        crash(recovered)
    )


# ----------------------------------------------------------------------
# through the service
# ----------------------------------------------------------------------
SPEC = WorkloadSpec(
    n_processes=6,
    conflict_density=0.4,
    failure_probability=0.08,
    grounded=True,
    seed=5,
)


def _config(tmp_path, **overrides) -> ServiceConfig:
    return ServiceConfig(
        spec=SPEC,
        seed=5,
        store="log",
        store_path=str(tmp_path / "store"),
        store_fsync="never",
        snapshot_every=overrides.pop("snapshot_every", 16),
        **overrides,
    )


def _run_once(tmp_path, count=12) -> None:
    """One clean incarnation: ``count`` processes, one at a time (a
    submit and a terminal record each), a snapshot every other one."""
    service = ProcessLockingService(
        _config(tmp_path, snapshot_every=4)
    ).start()
    for k in range(count):
        service.execute(
            {"cmd": "submit", "program": k, "wait": True}
        ).result(timeout=60)
    service.stop()


def _trace_frames(tmp_path) -> list[dict]:
    return [
        TRACE.decode(payload)
        for payload in payloads_of(tmp_path / "store", "trace")
    ]


def _write_trace(tmp_path, frames: list[dict]) -> None:
    backend = AppendLogBackend(str(tmp_path / "store"), fsync="never")
    backend.replace("trace", [TRACE.encode(frame) for frame in frames])
    backend.close()


def _assert_refused_everywhere(tmp_path, capsys, *needles) -> None:
    """serve, ``store verify`` (exit 2) and describe all refuse, typed."""
    path = str(tmp_path / "store")
    with pytest.raises(WalCorruptionError) as caught:
        ProcessLockingService(_config(tmp_path))
    assert caught.value.namespace == "trace"
    for needle in needles:
        assert needle in str(caught.value)
    store = Store.open("log", path)
    try:
        with pytest.raises(WalCorruptionError):
            store.describe()
        report = store.verify()
        assert not report["ok"] and report["corrupt"] == ["trace"]
    finally:
        store.close()
    assert repro_main(["store", "verify", "--path", path]) == 2
    assert repro_main(["store", "inspect", "--path", path]) == 2
    capsys.readouterr()


def test_trace_shorter_than_watermark_is_typed(tmp_path, capsys):
    _run_once(tmp_path)
    frames = _trace_frames(tmp_path)
    assert len(frames) >= 3
    watermark = frames[-1]["start"] + len(frames[-1]["events"])
    _write_trace(tmp_path, frames[:-1])  # a lost fsync
    _assert_refused_everywhere(
        tmp_path, capsys, str(frames[-1]["start"]), str(watermark)
    )


def test_trace_gap_is_typed(tmp_path, capsys):
    _run_once(tmp_path)
    frames = _trace_frames(tmp_path)
    _write_trace(tmp_path, frames[:1] + frames[2:])
    _assert_refused_everywhere(
        tmp_path, capsys, f"position {frames[2]['start']}"
    )


def test_orphan_delta_past_watermark_is_ignored(tmp_path, capsys):
    _run_once(tmp_path)
    frames = _trace_frames(tmp_path)
    watermark = frames[-1]["start"] + len(frames[-1]["events"])
    orphan = {"start": watermark, "events": frames[-1]["events"][:2]}
    _write_trace(tmp_path, frames + [orphan])
    path = str(tmp_path / "store")
    assert repro_main(["store", "verify", "--path", path]) == 0
    assert repro_main(["store", "inspect", "--path", path]) == 0
    shown = capsys.readouterr().out
    described = json.loads(shown[shown.index("{"):])
    assert described["snapshot"]["trace_len"] == watermark
    assert described["trace"]["events"] == watermark + 2
    service = ProcessLockingService(_config(tmp_path)).start()
    try:
        assert len(service.manager.trace) == watermark
        report = service.execute({"cmd": "check"}).result(timeout=30)
        assert report["complete"] and report["correct_termination"]
    finally:
        service.stop()


def test_v1_store_is_refused_naming_format(tmp_path):
    _run_once(tmp_path, count=2)
    assert FORMAT_VERSION == 8
    store = Store.open("log", str(tmp_path / "store"))
    store.backend.replace(
        "meta", [dumps(dict(store.meta.load(), format=1))]
    )
    store.close()
    with pytest.raises(StorageError, match="format: store has 1"):
        ProcessLockingService(_config(tmp_path))


def test_format_2_store_is_refused_naming_format(tmp_path):
    """A file per namespace, the meta file among them: the layout
    before the commit log.  The meta slot kept its name and framing,
    so the format check still reads it — and refuses."""
    _run_once(tmp_path, count=2)
    root = tmp_path / "store"
    meta = Store.open("log", str(root))
    document = dict(meta.meta.load(), format=2)
    meta.close()
    (root / "commit.log").unlink()
    (root / "meta.log").write_bytes(encode_frame(dumps(document)))
    (root / "journal.log").write_bytes(
        encode_frame(dumps({"kind": "submit", "pid": 1, "program": 0}))
    )
    with pytest.raises(
        StorageError, match="format: store has 2, caller wants 8"
    ):
        ProcessLockingService(_config(tmp_path))


def test_format_3_store_is_refused_naming_both_versions(tmp_path, capsys):
    """Format 3 kept every appended record as a keyed JSON object in
    the commit log this release still reads; its meta slot says so,
    and the meta check refuses it before a record is decoded."""
    _run_once(tmp_path, count=2)
    root = tmp_path / "store"
    store = Store.open("log", str(root))
    meta = dict(store.meta.load(), format=3)
    store.close()
    backend = AppendLogBackend(str(root), fsync="never")
    backend.replace("meta", [dumps(meta)])
    backend.append(
        "journal", dumps({"kind": "submit", "pid": 3, "program": 0})
    )
    backend.close()
    with pytest.raises(
        StorageError, match="format: store has 3, caller wants 8"
    ) as caught:
        ProcessLockingService(_config(tmp_path))
    assert not isinstance(caught.value, WalCorruptionError)
    assert repro_main(["store", "verify", "--path", str(root)]) == 2
    assert "meta: 1 records [format: store has 3" in capsys.readouterr().out


def test_format_4_store_is_refused_naming_both_versions(tmp_path, capsys):
    """Format 4 kept an undo log per subsystem beside its data, in
    rows this release has no codec for; its meta slot says so, and the
    meta check refuses it before a record is decoded."""
    _run_once(tmp_path, count=2)
    root = tmp_path / "store"
    store = Store.open("log", str(root))
    meta = dict(store.meta.load(), format=4)
    store.close()
    backend = AppendLogBackend(str(root), fsync="never")
    backend.replace("meta", [dumps(meta)])
    backend.append("ssdata/sub0", b'["s","sub0:k0",1]')
    backend.close()
    with pytest.raises(
        StorageError, match="format: store has 4, caller wants 8"
    ) as caught:
        ProcessLockingService(_config(tmp_path))
    assert not isinstance(caught.value, WalCorruptionError)
    assert repro_main(["store", "verify", "--path", str(root)]) == 2
    assert "meta: 1 records [format: store has 4" in capsys.readouterr().out


def test_format_5_store_is_refused_naming_both_versions(tmp_path, capsys):
    """Format 5 wrote a trace frame as a list of rows, one per event,
    which this release's trace codec refuses; the meta slot says so,
    and the meta check refuses the store before a frame is decoded."""
    _run_once(tmp_path, count=2)
    root = tmp_path / "store"
    store = Store.open("log", str(root))
    meta = dict(store.meta.load(), format=5)
    store.close()
    backend = AppendLogBackend(str(root), fsync="never")
    backend.replace("meta", [dumps(meta)])
    backend.append("trace", b'[0,[["a",1,0,"act00",1,null],["C",1,0]]]')
    backend.close()
    with pytest.raises(
        StorageError, match="format: store has 5, caller wants 8"
    ) as caught:
        ProcessLockingService(_config(tmp_path))
    assert not isinstance(caught.value, WalCorruptionError)
    assert repro_main(["store", "verify", "--path", str(root)]) == 2
    assert "meta: 1 records [format: store has 5" in capsys.readouterr().out


def test_format_6_store_is_refused_naming_both_versions(tmp_path, capsys):
    """Format 6 wrote a ``submit`` record for every process and a
    ``terminal`` row of every field with its outcome spelled out, which
    this release's journal codec refuses; the meta slot says so, and
    the meta check refuses the store before a record is decoded."""
    _run_once(tmp_path, count=2)
    root = tmp_path / "store"
    store = Store.open("log", str(root))
    meta = dict(store.meta.load(), format=6)
    store.close()
    backend = AppendLogBackend(str(root), fsync="never")
    backend.replace("meta", [dumps(meta)])
    backend.append(
        "journal",
        b'["t",3,"committed",0.0,27.5,null,0,0,8,0,0.0,[],[],0]',
    )
    backend.close()
    with pytest.raises(
        StorageError, match="format: store has 6, caller wants 8"
    ) as caught:
        ProcessLockingService(_config(tmp_path))
    assert not isinstance(caught.value, WalCorruptionError)
    assert repro_main(["store", "verify", "--path", str(root)]) == 2
    assert "meta: 1 records [format: store has 6" in capsys.readouterr().out


def test_format_7_store_is_refused_naming_both_versions(tmp_path, capsys):
    """Format 7 ended a ``terminal`` row with per-pid counts the event
    fold keeps: a committed row's sixth field was its committed
    activities, which this release's journal codec would read as
    resubmissions.  The meta slot says so, and the meta check refuses
    the store before a record is decoded."""
    _run_once(tmp_path, count=2)
    root = tmp_path / "store"
    store = Store.open("log", str(root))
    meta = dict(store.meta.load(), format=7)
    store.close()
    backend = AppendLogBackend(str(root), fsync="never")
    backend.replace("meta", [dumps(meta)])
    backend.append("journal", b'["t",3,"c",0.0,27.5,8]')
    backend.close()
    with pytest.raises(
        StorageError, match="format: store has 7, caller wants 8"
    ) as caught:
        ProcessLockingService(_config(tmp_path))
    assert not isinstance(caught.value, WalCorruptionError)
    assert repro_main(["store", "verify", "--path", str(root)]) == 2
    assert "meta: 1 records [format: store has 7" in capsys.readouterr().out


def test_compact_folds_the_trace_into_one_frame(tmp_path):
    """A restart after compaction recovers the same schedule, event for
    event, with the same counts and the same restored processes."""
    _run_once(tmp_path, count=24)

    def restart_and_look() -> tuple:
        service = ProcessLockingService(_config(tmp_path)).start()
        try:
            stats = service.execute({"cmd": "stats"}).result(timeout=30)
            return (
                stored_events(
                    service.store,
                    service.workload.programs,
                    service.manager.trace,
                ),
                stats["manager"],
                stats["store"]["recovered"]["restored"],
            )
        finally:
            service.stop()

    before = restart_and_look()
    store = Store.open("log", str(tmp_path / "store"))
    described = store.describe()
    store.compact()
    compacted = store.describe()
    store.close()
    assert described["namespaces"]["trace"]["frames"] >= 3
    assert compacted["namespaces"]["trace"]["frames"] == 1
    assert compacted["trace"] == described["trace"]
    assert len(before[0]) == described["trace"]["events"] > 100
    assert restart_and_look() == before


def test_store_bytes_grow_linearly_with_submissions(tmp_path):
    def bytes_after(requests: int) -> int:
        config = _config(tmp_path / str(requests), snapshot_every=64)
        service = ProcessLockingService(config).start()
        try:
            for k in range(requests):
                service.execute(
                    {"cmd": "submit", "program": k, "wait": True}
                ).result(timeout=60)
            return service.store.stats()["bytes_written"]
        finally:
            service.stop()

    assert bytes_after(400) <= 2.3 * bytes_after(200)


def test_compact_then_restart_keeps_finished_work(tmp_path):
    """`repro store compact` must not make a restart forget outcomes."""
    first = ProcessLockingService(
        _config(tmp_path, time_scale=5.0)
    ).start()
    (cancelled_pid,) = first.execute(
        {"cmd": "submit", "count": 1, "at": 50.0}
    ).result(timeout=30)["pids"]
    assert first.execute(
        {"cmd": "cancel", "pid": cancelled_pid}
    ).result(timeout=30)["cancelled"]
    first.stop()
    _run_once(tmp_path, count=60)

    def restart_and_look() -> tuple:
        service = ProcessLockingService(_config(tmp_path)).start()
        try:
            stats = service.execute({"cmd": "stats"}).result(timeout=30)
            status = service.execute(
                {"cmd": "status", "pid": cancelled_pid}
            ).result(timeout=30)
            return (
                stats["manager"],
                stats["store"]["recovered"]["restored"],
                status,
            )
        finally:
            service.stop()

    before = restart_and_look()
    assert before[0]["submitted"] == 61 and before[1] == 61
    assert before[2]["outcome"] == "cancelled"
    store = Store.open("log", str(tmp_path / "store"))
    kinds = store.describe()["journal"]["kinds"]
    dropped = store.compact()["dropped"]["journal"]
    kept = store.describe()["journal"]["kinds"]
    store.close()
    # The 61 decided pids keep their terminal records and nothing else:
    # a submit or cancel journaled while its pid was undecided goes.
    assert kept == {"terminal": 61}
    assert dropped == sum(kinds.values()) - 61
    assert restart_and_look() == before
