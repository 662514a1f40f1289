"""Persistence plane: snapshot + journal recovery at the manager level.

These tests exercise the full durability protocol without the service:
submit through a journal, stop the engine mid-flight (the snapshot is
the last durable word), rebuild from disk into a fresh protocol/pool,
run to quiescence, and hold the spliced schedule to the same CT / P-RC
bar as the in-memory recovery tests.
"""

from __future__ import annotations

import pytest

from repro.scheduler.manager import ManagerConfig, make_manager
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload
from repro.storage import PersistencePlane, Store
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)
from tests.test_storage.stored import stored_events, stored_schedule

SPEC = WorkloadSpec(
    n_processes=6,
    conflict_density=0.4,
    failure_probability=0.08,
    grounded=True,
    seed=5,
)


def _build(workload, store, snapshot_every=1, seed=5):
    plane = PersistencePlane(
        store, workload.programs, snapshot_every=snapshot_every
    )
    config = ManagerConfig(store=store)
    protocol = make_protocol("process-locking", workload)
    if plane.has_state():
        manager, info = plane.recover(
            protocol,
            config=config,
            subsystems=workload.make_subsystems(),
            seed=seed,
        )
        return plane, manager, info
    manager = make_manager(
        protocol,
        subsystems=workload.make_subsystems(),
        config=config,
        seed=seed,
    )
    return plane, manager, None


def _submit_all(plane, manager, workload):
    for index, program in enumerate(workload.programs):
        pid = manager.submit(program)
        plane.note_submit(pid, index)


@pytest.mark.parametrize("kind", ("log",))
@pytest.mark.parametrize("steps", (0, 10, 25, 60))
def test_stop_at_snapshot_recovers_to_ct(tmp_path, kind, steps):
    workload = build_workload(SPEC)
    store = Store.open(kind, str(tmp_path / "store"))
    plane, manager, _ = _build(workload, store)
    _submit_all(plane, manager, workload)
    manager.engine.run_steps(steps)
    plane.after_drain(manager)
    plane.snapshot(manager)
    store.flush()
    store.close()
    # The process dies here; everything below is the next incarnation.
    store2 = Store.open(kind, str(tmp_path / "store"))
    plane2, recovered, info = _build(workload, store2)
    assert info is not None
    assert info.adopted + info.resubmitted + info.restored == len(
        workload.programs
    )
    result = recovered.run()
    plane2.after_drain(recovered)
    schedule = stored_schedule(
        store2, workload.programs, result.trace, workload.conflicts.conflict
    )
    assert schedule.is_complete
    assert has_correct_termination(schedule)
    assert is_process_recoverable(schedule)
    assert result.trace.verdict.correct_termination
    assert result.trace.verdict.process_recoverable
    store2.close()


def test_journal_only_crash_resubmits_everything(tmp_path):
    """Killed before any snapshot: acknowledged pids re-run from zero.
    (Acknowledged: a drain point journaled them, undecided.)"""
    workload = build_workload(SPEC)
    store = Store.open("log", str(tmp_path / "store"))
    plane, manager, _ = _build(workload, store, snapshot_every=10_000)
    _submit_all(plane, manager, workload)
    assert not plane.after_drain(manager)
    store.close()  # no snapshot was ever cut
    store2 = Store.open("log", str(tmp_path / "store"))
    plane2, recovered, info = _build(workload, store2)
    assert info.adopted == 0
    assert info.resubmitted == len(workload.programs)
    result = recovered.run()
    assert set(result.records) == {
        pid for pid in range(1, len(workload.programs) + 1)
    }
    schedule = result.trace.to_schedule(workload.conflicts.conflict)
    assert schedule.is_complete
    assert has_correct_termination(schedule)
    store2.close()


def test_finished_processes_restore_without_rerun(tmp_path):
    workload = build_workload(SPEC)
    store = Store.open("log", str(tmp_path / "store"))
    plane, manager, _ = _build(workload, store)
    _submit_all(plane, manager, workload)
    result = manager.run()
    plane.after_drain(manager)
    plane.final(manager)
    committed = result.stats.committed
    events_before = stored_events(store, workload.programs, result.trace)
    store.close()
    store2 = Store.open("log", str(tmp_path / "store"))
    plane2, recovered, info = _build(workload, store2)
    assert info.restored == len(workload.programs)
    assert info.adopted == 0 and info.resubmitted == 0
    assert recovered.stats.committed == committed
    # Nothing re-runs: the engine has no scheduled work.
    assert not recovered.undecided()
    assert len(recovered.trace) == len(events_before)
    assert stored_events(
        store2, workload.programs, recovered.trace
    ) == events_before
    for pid, record in result.records.items():
        assert recovered.records[pid].committed_at == (
            record.committed_at
        )
    store2.close()


def test_pid_sequence_continues_after_recovery(tmp_path):
    workload = build_workload(SPEC)
    store = Store.open("log", str(tmp_path / "store"))
    plane, manager, _ = _build(workload, store)
    _submit_all(plane, manager, workload)
    manager.run()
    plane.after_drain(manager)
    store.close()
    store2 = Store.open("log", str(tmp_path / "store"))
    plane2, recovered, __ = _build(workload, store2)
    new_pid = recovered.submit(workload.programs[0])
    assert new_pid == len(workload.programs) + 1
    store2.close()


def test_snapshot_cadence_throttles_snapshots(tmp_path):
    workload = build_workload(SPEC)
    store = Store.open("log", str(tmp_path / "store"))
    plane, manager, _ = _build(workload, store, snapshot_every=10_000)
    _submit_all(plane, manager, workload)
    manager.run()
    took = plane.after_drain(manager)
    assert not took  # journal far below the cadence
    assert store.snapshots.load() is None
    store.close()


def test_meta_mismatch_refuses_foreign_store(tmp_path):
    from repro.errors import StorageError

    workload = build_workload(SPEC)
    store = Store.open("log", str(tmp_path / "store"))
    PersistencePlane(
        store,
        workload.programs,
        identity={"protocol": "process-locking", "seed": 5},
    )
    store.close()
    store2 = Store.open("log", str(tmp_path / "store"))
    with pytest.raises(StorageError):
        PersistencePlane(
            store2,
            workload.programs,
            identity={"protocol": "process-locking", "seed": 99},
        )
    store2.close()
