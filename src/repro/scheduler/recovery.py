"""Crash recovery for the process manager ("fault-tolerant execution").

The paper's title promises fault-tolerant execution of transactional
processes; beyond per-process failure handling (alternatives,
compensation), a production process manager must also survive *its own*
failure.  This module models that:

* :func:`crash` captures what a real PM would have on durable storage at
  the moment of a crash — the **process journal**: for every live
  process its program, timestamp, incarnation, state, executed-activity
  ledger (with compensation status), open failure scopes, and pending
  work; for any other undecided pid the start it waits for (initiation,
  or resubmission).  Volatile state — the lock table, in-flight
  activities, parked lock requests, the event queue — is deliberately
  *not* captured.
* :func:`recover` rebuilds a fresh manager from the image: locks are
  re-acquired in the original sharing order (the pre-crash state was
  rule-produced, hence consistent), completing processes resume
  *forward* (they must commit — guaranteed termination), running
  processes simply continue (their lock state is intact; in-flight
  activities were lost and are relaunched), and aborting processes
  finish their abort-process execution and then resubmit, or end, as
  they were about to.

The recovered manager's trace continues the pre-crash trace, so the
combined schedule can be checked against CT and P-RC end to end — the
recovery tests assert exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.activities.activity import Activity, ensure_uid_floor
from repro.core.locks import LockMode
from repro.errors import SchedulerError
from repro.process.instance import LedgerEntry, Process, _Scope
from repro.process.program import ProcessProgram, ProgramNode
from repro.process.state import ProcessState
from repro.scheduler.events import ProcessRecord, RequestKind
from repro.scheduler.manager import (
    ManagerConfig,
    ProcessManager,
    make_manager,
)
from repro.scheduler.trace import TraceRecorder
from repro.theory.schedule import ScheduleEvent


@dataclass(frozen=True)
class LedgerRecord:
    """Durable form of one executed activity."""

    name: str
    uid: int
    seq: int
    node_id: int
    compensated: bool
    compensates: int | None
    #: Sharing-order position of the lock held for this activity — its
    #: *grant* order, which a request that waited parked does not share
    #: with its launch (uid) order.
    position: int


@dataclass(frozen=True)
class ScopeRecord:
    """Durable form of one open failure scope."""

    node_id: int
    branch_index: int
    ledger_start: int


@dataclass(frozen=True)
class ProcessSnapshot:
    """The journal entry of one live process."""

    pid: int
    timestamp: int
    incarnation: int
    program: ProcessProgram
    state: str
    wcc: float
    next_seq: int
    current_node_id: int | None
    pending_launch: tuple[str, ...]
    unwinding: bool
    ledger: tuple[LedgerRecord, ...]
    scopes: tuple[ScopeRecord, ...]
    #: Whether the pivot treatment (C→P conversion) had actually been
    #: *granted* before the crash.  A real PM force-logs the
    #: point-of-no-return decision before acting on it, so the journal
    #: knows; ``wcc`` alone cannot tell, because the Wcc charge lands at
    #: classification time — before the grant decision — so a process
    #: whose pivot request was still parked at the crash already carries
    #: the over-threshold charge without any conversion having happened.
    pivot_treated: bool = False
    #: How an ``aborting`` process's abort ends: ``"resubmit"`` or the
    #: outcome it is heading for (``None`` in other states).
    abort_then: str | None = None
    #: Virtual time until an ``awaiting-resubmit`` successor restarts
    #: (``None`` for a live process; 0 for one held at the restart
    #: gate, which the recovered manager re-tests at once).
    resubmit_in: float | None = None


@dataclass
class CrashImage:
    """Everything that survives a process-manager crash."""

    snapshots: list[ProcessSnapshot]
    #: The trace from position ``trace_base`` on.
    trace_events: list[ScheduleEvent]
    records: dict[int, ProcessRecord] = field(default_factory=dict)
    crashed_at: float = 0.0
    max_pid: int = 0
    #: ``(pid, program, virtual time until its initiation)`` of every
    #: submitted pid that had not been initiated yet.
    pending: list[tuple] = field(default_factory=list)
    #: Trace events before ``trace_events``: the prefix a durable store
    #: holds, which the image does not carry.
    trace_base: int = 0


# ----------------------------------------------------------------------
# capturing
# ----------------------------------------------------------------------
def crash(manager: ProcessManager) -> CrashImage:
    """Capture the durable journal of a (running) manager.

    Read-only: the caller simply abandons the crashed manager
    afterwards.
    """
    now = manager.engine.now
    return CrashImage(
        snapshots=snapshot_live(manager),
        trace_events=list(manager.trace.events),
        trace_base=manager.trace.base,
        records=dict(manager.records),
        crashed_at=now,
        max_pid=max(manager.records, default=0),
        pending=[
            (pid, start.program, start.handle.time - now)
            for pid, start in sorted(manager._starts.items())
            if start.process is None
        ],
    )


def snapshot_live(manager: ProcessManager) -> list[ProcessSnapshot]:
    """The journal entries of the live processes and of the
    ``awaiting-resubmit`` successors — the part of a crash image whose
    size follows the work in flight, not the history.

    Pending (launched-but-uncommitted) activities are recorded by
    *name only* — their subsystem transactions abort with the crash
    (the bottom layer is ACA) and they will be relaunched.
    """
    snapshots = []
    now = manager.engine.now
    for pid, phase in manager.undecided().items():
        if phase == "pending":
            continue
        process = manager.process(pid)
        start, run = manager._starts.get(pid), manager._comp_runs.get(pid)
        pending = list(process.ready_activities())
        for flight in manager._inflight.values():
            if (
                flight.process.pid == process.pid
                and not flight.cancelled
                and flight.kind is RequestKind.REGULAR
            ):
                pending.append(flight.activity.name)
        for request in manager.parking.of(pid):
            if request.kind is RequestKind.REGULAR:
                pending.append(request.activity.name)
        stashed = manager._stashed_failures.get(process.pid)
        if stashed is not None:
            pending.append(stashed.name)
        locks = manager.protocol.table.locks_of(process.pid)
        # The pivot decision is write-ahead-logged: once any lock of the
        # process actually went to P mode, the journal records the
        # treatment so recovery replays the conversion — and only then.
        pivot_treated = any(entry.mode is LockMode.P for entry in locks)
        snapshots.append(
            _snapshot_process(
                process,
                tuple(pending),
                {entry.activity_uid: entry.position for entry in locks},
                pivot_treated=pivot_treated,
                abort_then=run.then if phase == "aborting" else None,
                # A start held at the restart gate fired in the past:
                # the hold is derived from live state, so the image
                # says "at once" and the recovered manager re-tests it.
                resubmit_in=(
                    max(0.0, start.handle.time - now) if start else None
                ),
            )
        )
    return snapshots


def _snapshot_process(
    process: Process,
    pending: tuple[str, ...],
    lock_positions: dict[int, int],
    **lifecycle,
) -> ProcessSnapshot:
    ledger = tuple(
        LedgerRecord(
            name=entry.activity.name,
            uid=entry.activity.uid,
            seq=entry.activity.seq,
            node_id=entry.node.node_id,
            compensated=entry.compensated,
            compensates=entry.activity.compensates,
            position=lock_positions[entry.activity.uid],
        )
        for entry in process.ledger
    )
    scopes = tuple(
        ScopeRecord(
            node_id=scope.node.node_id,
            branch_index=scope.branch_index,
            ledger_start=scope.ledger_start,
        )
        for scope in process._scopes
    )
    current = process._current
    return ProcessSnapshot(
        pid=process.pid,
        timestamp=process.timestamp,
        incarnation=process.incarnation,
        program=process.program,
        state=process.state.value,
        wcc=process.wcc,
        next_seq=process._seq,
        current_node_id=current.node_id if current is not None else None,
        pending_launch=pending,
        unwinding=process.unwinding,
        ledger=ledger,
        scopes=scopes,
        **lifecycle,
    )


# ----------------------------------------------------------------------
# restoring
# ----------------------------------------------------------------------
def restore_process(snapshot: ProcessSnapshot) -> Process:
    """Rebuild a :class:`Process` from its journal entry."""
    nodes: dict[int, ProgramNode] = {
        node.node_id: node for node in snapshot.program.iter_nodes()
    }
    process = Process(
        pid=snapshot.pid,
        program=snapshot.program,
        timestamp=snapshot.timestamp,
        incarnation=snapshot.incarnation,
    )
    process.state = ProcessState(snapshot.state)
    process.wcc = snapshot.wcc
    process._seq = snapshot.next_seq
    process.ledger = [
        LedgerEntry(
            activity=Activity(
                activity_type=snapshot.program.registry.get(record.name),
                process_id=snapshot.pid,
                seq=record.seq,
                compensates=record.compensates,
                uid=record.uid,
            ),
            node=nodes[record.node_id],
            compensated=record.compensated,
        )
        for record in snapshot.ledger
    ]
    process._scopes = [
        _Scope(
            node=nodes[record.node_id],
            branch_index=record.branch_index,
            ledger_start=record.ledger_start,
        )
        for record in snapshot.scopes
    ]
    if snapshot.current_node_id is not None:
        node = nodes[snapshot.current_node_id]
        process._current = node
        process._to_launch = list(snapshot.pending_launch)
        process._node_commits = len(node.activities) - len(
            snapshot.pending_launch
        )
    else:
        process._current = None
        process._to_launch = []
        process._node_commits = 0
    process._outstanding = 0
    process._unwinding = snapshot.unwinding
    return process


def rebuild_locks(
    protocol,
    processes: list[Process],
    positions: dict[int, int],
    protected_pids: set[int] | None = None,
) -> None:
    """Re-acquire every surviving lock in the original sharing order.

    Under strict 2PL a live process holds one lock per ledger activity
    (regular *and* compensating), and the sharing order is the order of
    the locks' journaled ``positions`` (activity uid -> position) — not
    of the uids themselves: a uid is drawn at launch, a position at
    grant, and a request that waited parked is granted behind the
    conflicting locks granted meanwhile.  ``protected_pids`` names the
    processes whose pivot treatment (Comp→Piv C→P conversion) had
    actually been granted before the crash — journalled via
    ``ProcessSnapshot.pivot_treated`` — and only those replay the
    conversion.  Replaying it for a process whose pivot request was
    merely *parked* would hide its on-hold C locks from the Piv-Rule's
    conflicting-holder scan and let the pivot be granted while
    depending on a live abortable process, which is exactly the
    unresolvable completing↔aborting wait cycle the basic protocol
    excludes.
    """
    entries = sorted(
        (
            (
                positions[entry.activity.uid],
                process,
                entry,
            )
            for process in processes
            for entry in process.ledger
        ),
        key=lambda item: item[0],
    )
    for __, process, entry in entries:
        activity_type = entry.activity.activity_type
        mode = (
            LockMode.P
            if activity_type.point_of_no_return
            else LockMode.C
        )
        protocol.restore_grant(
            process, entry.activity.name, mode, entry.activity.uid
        )
    if protected_pids is None:
        protected_pids = {
            process.pid
            for process in processes
            if process.state is ProcessState.COMPLETING
        }
    for process in processes:
        if process.pid in protected_pids:
            for entry in protocol.table.c_locks_of(process.pid):
                entry.upgrade_to_p()


def recover(
    image: CrashImage,
    protocol,
    config: ManagerConfig | None = None,
    subsystems=None,
    seed: int = 0,
    tracer=None,
) -> ProcessManager:
    """Build a fresh manager that continues where the crash left off.

    ``protocol`` must be a *fresh* instance over the same registry and
    conflict matrix (the lock table is volatile and is rebuilt here).
    ``tracer`` hands the pre-crash run's tracer to the new incarnation;
    the caller is responsible for advancing ``tracer.offset`` by the
    crashed incarnation's final virtual time so stamps stay monotone.
    The new engine's clock starts at 0, so an undecided record's
    ``submitted_at`` moves back by that same time: its latency is then
    the interval on the offset clock.  Decided records keep theirs.
    """
    if protocol.table.lock_count:
        raise SchedulerError(
            "recovery needs a fresh protocol instance (its lock table "
            "is rebuilt from the journal)"
        )
    snapshots = sorted(image.snapshots, key=lambda snap: snap.timestamp)
    processes = [restore_process(snapshot) for snapshot in snapshots]
    max_ts = max((p.timestamp for p in processes), default=0)
    protocol.ensure_timestamp_floor(max_ts)
    max_uid = max(
        (
            entry.activity.uid
            for process in processes
            for entry in process.ledger
        ),
        default=0,
    )
    ensure_uid_floor(max_uid)
    manager = make_manager(
        protocol,
        subsystems=subsystems,
        config=config,
        seed=seed,
        tracer=tracer,
    )
    manager.trace = TraceRecorder(
        protocol.conflicts.conflict, image.trace_events, base=image.trace_base
    )
    for pid, record in image.records.items():
        if record.outcome is None:
            record = replace(
                record, submitted_at=record.submitted_at - image.crashed_at
            )
        manager.records[pid] = record
    manager._pids = itertools.count(image.max_pid + 1)
    protected_pids = {
        snapshot.pid
        for snapshot in image.snapshots
        if snapshot.pivot_treated
        or snapshot.state == ProcessState.COMPLETING.value
    }
    positions = {
        record.uid: record.position
        for snapshot in snapshots
        for record in snapshot.ledger
    }
    rebuild_locks(protocol, processes, positions, protected_pids)
    for snapshot, process in zip(snapshots, processes):
        manager.adopt_recovered(
            process,
            abort_then=snapshot.abort_then,
            resubmit_in=snapshot.resubmit_in,
        )
    for pid, program, delay in image.pending:
        manager.submit(program, at=delay, pid=pid)
    return manager
