"""Serialization between live scheduler state and durable records.

The persistence plane stores four shapes:

* **journal records** — flat dicts appended to
  :class:`~repro.storage.facade.JournalRepository`: ``submit`` /
  ``terminal`` / ``cancel``, the redo records recovery reads (a
  ``cancel`` with no ``terminal`` after it is re-applied).  Stores
  written before the journal held redo records only also carry
  ``grant`` / ``wcc`` / ``retry-exhausted`` rows; every reader skips a
  kind it does not know.
* **process records** — :class:`~repro.scheduler.events.ProcessRecord`
  as a plain dict inside terminal journal records, which are the one
  durable home of a finished process.
* **trace rows** — the observed schedule's events as positional rows,
  appended to :class:`~repro.storage.facade.TraceRepository` one frame
  per checkpoint.
* **checkpoint documents** — what is left of a
  :class:`~repro.scheduler.recovery.CrashImage` once the trace and the
  finished processes live elsewhere: the continuations of live and
  ``awaiting-resubmit`` processes, the records of still-undecided
  pids, and the journal and trace watermarks (``journal_lsn``,
  ``trace_len``) the checkpoint covers.

Programs are referenced by **catalog index**: the persistence plane is
always bound to a submission catalog (the workload's program list),
and the catalog is deterministically rebuilt from the workload spec on
restart — storing indexes keeps snapshots small and avoids pickling
program graphs.
"""

from __future__ import annotations

from dataclasses import asdict, fields

from repro.errors import StorageError
from repro.scheduler.events import ProcessRecord
from repro.scheduler.recovery import (
    CrashImage,
    LedgerRecord,
    ProcessSnapshot,
    ScopeRecord,
)
from repro.theory.schedule import EventKind, ScheduleEvent


class ProgramCodec:
    """Maps catalog programs to stable indexes and back."""

    def __init__(self, catalog) -> None:
        self.catalog = list(catalog)
        self._index = {
            id(program): index
            for index, program in enumerate(self.catalog)
        }

    def index_of(self, program) -> int:
        try:
            return self._index[id(program)]
        except KeyError:
            raise StorageError(
                "cannot persist a process whose program is not in the "
                "submission catalog"
            ) from None

    def program_at(self, index: int):
        try:
            return self.catalog[index]
        except IndexError:
            raise StorageError(
                f"snapshot references catalog program {index}, but the "
                f"catalog only has {len(self.catalog)} entries"
            ) from None


# ----------------------------------------------------------------------
# process snapshots
# ----------------------------------------------------------------------
def snapshot_to_dict(
    snapshot: ProcessSnapshot, codec: ProgramCodec
) -> dict:
    return {
        "pid": snapshot.pid,
        "timestamp": snapshot.timestamp,
        "incarnation": snapshot.incarnation,
        "program": codec.index_of(snapshot.program),
        "state": snapshot.state,
        "wcc": snapshot.wcc,
        "next_seq": snapshot.next_seq,
        "current_node_id": snapshot.current_node_id,
        "pending_launch": list(snapshot.pending_launch),
        "unwinding": snapshot.unwinding,
        "ledger": [asdict(record) for record in snapshot.ledger],
        "scopes": [asdict(record) for record in snapshot.scopes],
        "pivot_treated": snapshot.pivot_treated,
        "abort_then": snapshot.abort_then,
        "resubmit_in": snapshot.resubmit_in,
    }


def snapshot_from_dict(data: dict, codec: ProgramCodec) -> ProcessSnapshot:
    return ProcessSnapshot(
        pid=data["pid"],
        timestamp=data["timestamp"],
        incarnation=data["incarnation"],
        program=codec.program_at(data["program"]),
        state=data["state"],
        wcc=data["wcc"],
        next_seq=data["next_seq"],
        current_node_id=data["current_node_id"],
        pending_launch=tuple(data["pending_launch"]),
        unwinding=data["unwinding"],
        ledger=tuple(
            LedgerRecord(**record) for record in data["ledger"]
        ),
        scopes=tuple(
            ScopeRecord(**record) for record in data["scopes"]
        ),
        pivot_treated=data["pivot_treated"],
        # Absent from documents written before these fields existed.
        abort_then=data.get("abort_then"),
        resubmit_in=data.get("resubmit_in"),
    )


# ----------------------------------------------------------------------
# trace events (the splice)
# ----------------------------------------------------------------------
def trace_event_to_row(event: ScheduleEvent) -> list:
    """One event as a positional row for the ``trace`` namespace.

    The position is not stored: an event's position *is* its index in
    the trace (:class:`~repro.scheduler.trace.TraceRecorder` numbers
    them so), and each trace frame carries its start position.
    """
    return [
        list(event.process),
        event.kind.value,
        event.name,
        event.uid,
        event.compensates,
        event.compensatable,
        event.point_of_no_return,
    ]


def trace_event_from_row(row: list, position: int) -> ScheduleEvent:
    process, kind, name, uid, compensates, compensatable, pnr = row
    return ScheduleEvent(
        position=position,
        process=tuple(process),
        kind=EventKind(kind),
        name=name,
        uid=uid,
        compensates=compensates,
        compensatable=compensatable,
        point_of_no_return=pnr,
    )


# ----------------------------------------------------------------------
# process records
# ----------------------------------------------------------------------
#: ``(name, is_list)`` per stored :class:`ProcessRecord` field: every
#: field but ``outcome``; the list fields are copied, as ``asdict``
#: would.
_RECORD_PLAN = tuple(
    (spec.name, spec.default_factory is list)
    for spec in fields(ProcessRecord)
    if spec.name != "outcome"
)


def record_to_dict(record: ProcessRecord) -> dict:
    """Without ``outcome``: a ``terminal`` journal record carries it
    next to this dict, and nothing else that is stored has one yet.

    Equal to ``asdict(record)`` less ``outcome``, built from a field
    plan instead of a recursive deep copy (one per terminal record).
    """
    return {
        name: list(getattr(record, name))
        if is_list
        else getattr(record, name)
        for name, is_list in _RECORD_PLAN
    }


def record_from_dict(data: dict, outcome=None) -> ProcessRecord:
    return ProcessRecord(**data, outcome=outcome)


# ----------------------------------------------------------------------
# the checkpoint document
# ----------------------------------------------------------------------
def checkpoint_to_dict(
    snapshots: list[ProcessSnapshot],
    records: dict[int, ProcessRecord],
    codec: ProgramCodec,
    *,
    journal_lsn: int,
    trace_len: int,
    crashed_at: float,
    max_pid: int,
) -> dict:
    """The snapshot document: live state plus the two watermarks.

    ``records`` holds only the pids with no terminal journal record
    yet; the trace lives in its own namespace, ``trace_len`` events of
    which this checkpoint covers.
    """
    return {
        "journal_lsn": journal_lsn,
        "trace_len": trace_len,
        "crashed_at": crashed_at,
        "max_pid": max_pid,
        "processes": [
            snapshot_to_dict(snapshot, codec) for snapshot in snapshots
        ],
        "records": {
            str(pid): record_to_dict(record)
            for pid, record in records.items()
        },
    }


def checkpoint_from_dict(
    data: dict, trace_rows: list, codec: ProgramCodec
) -> CrashImage:
    """The crash image a checkpoint document describes.

    ``trace_rows`` is the prefix of the ``trace`` namespace the
    document's ``trace_len`` covers.  ``records`` comes back holding
    only what the document carries; the caller adds the finished
    processes from their ``terminal`` journal records.
    """
    return CrashImage(
        snapshots=[
            snapshot_from_dict(entry, codec)
            for entry in data["processes"]
        ],
        trace_events=[
            trace_event_from_row(row, position)
            for position, row in enumerate(trace_rows)
        ],
        records={
            int(pid): record_from_dict(record)
            for pid, record in data["records"].items()
        },
        crashed_at=data["crashed_at"],
        max_pid=data["max_pid"],
    )
